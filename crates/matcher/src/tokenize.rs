//! Tokenization with domain-knowledge injection.
//!
//! DITTO injects domain knowledge by tagging spans (product codes, numbers)
//! so the model can align them across records. We reproduce that as token
//! *typing*: numeric tokens are additionally emitted as `[NUM]`-tagged
//! features and letter-digit codes as `[ID]`-tagged ones.

/// A typed token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Normalized (lower-cased) surface form.
    pub text: String,
    /// Token kind from domain-knowledge injection.
    pub kind: TokenKind,
}

/// Token classes for domain knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Plain word.
    Word,
    /// Pure number (`2016`).
    Number,
    /// Letter-digit product code (`tg-6660tr`).
    Code,
}

/// Lower-cases and splits a title into typed word tokens; punctuation is
/// separated except inside codes (`tg-6660tr` stays whole).
pub fn tokenize(text: &str) -> Vec<Token> {
    const EDGE: [char; 2] = ['-', '\''];
    let mut out = Vec::new();
    for raw in text.split_whitespace() {
        // The token's one `String`: kept characters are lower-cased
        // straight into it, then the edge punctuation is cut off in place.
        let mut token = String::with_capacity(raw.len());
        let mut final_sigma = false;
        for c in raw.chars().filter(|&c| keep(c)) {
            final_sigma |= c == 'Σ';
            token.extend(c.to_lowercase());
        }
        if final_sigma {
            // `str::to_lowercase` maps `Σ` by its position in the word —
            // the one contextual mapping, so only the whole-string
            // conversion gets it right.
            token = raw.chars().filter(|&c| keep(c)).collect::<String>().to_lowercase();
        }
        let start = token.len() - token.trim_start_matches(EDGE).len();
        let end = token.trim_end_matches(EDGE).len();
        if start >= end {
            continue;
        }
        token.truncate(end);
        token.drain(..start);
        let kind = classify(&token);
        out.push(Token { text: token, kind });
    }
    out
}

fn keep(c: char) -> bool {
    c.is_alphanumeric() || c == '-' || c == '\''
}

fn classify(token: &str) -> TokenKind {
    let has_digit = token.chars().any(|c| c.is_ascii_digit());
    let has_alpha = token.chars().any(|c| c.is_alphabetic());
    if has_digit && !has_alpha {
        TokenKind::Number
    } else if has_digit && has_alpha {
        TokenKind::Code
    } else {
        TokenKind::Word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lowercases_and_splits() {
        let toks = tokenize("NIKE Men's Air Max");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["nike", "men's", "air", "max"]);
        assert!(toks.iter().all(|t| t.kind == TokenKind::Word));
    }

    #[test]
    fn classifies_numbers_and_codes() {
        let toks = tokenize("Air Max 2016 TG-6660TR");
        assert_eq!(toks[2].kind, TokenKind::Number);
        assert_eq!(toks[3].kind, TokenKind::Code);
        assert_eq!(toks[3].text, "tg-6660tr");
    }

    #[test]
    fn punctuation_stripped() {
        let toks = tokenize("Duckboot, Black/Dark Loden!");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["duckboot", "blackdark", "loden"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,,, ").is_empty());
    }

    /// The three-`String` tokenizer this module shipped with, kept as the
    /// oracle for [`tokenize`].
    fn tokenize_reference(text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        for raw in text.split_whitespace() {
            let cleaned: String = raw
                .chars()
                .filter(|c| c.is_alphanumeric() || *c == '-' || *c == '\'')
                .collect::<String>()
                .to_lowercase();
            let trimmed = cleaned.trim_matches(['-', '\'']);
            if trimmed.is_empty() {
                continue;
            }
            out.push(Token { text: trimmed.to_string(), kind: classify(trimmed) });
        }
        out
    }

    #[test]
    fn unicode_lowercasing_matches_the_reference() {
        // Multi-char expansion, final vs medial sigma, edge punctuation
        // that only shows after filtering, tokens that trim to nothing.
        for title in ["İstanbul İ", "ΟΔΟΣ ΣΟΦΙΑ Σ ΑΣ-", "(-'x'-) --- '' -a- ǅ", "ẞ ß ŉ 2016-Σ"]
        {
            assert_eq!(tokenize(title), tokenize_reference(title), "{title:?}");
        }
        assert_eq!(tokenize("İ")[0].text, "i\u{307}");
        assert_eq!(tokenize("ΟΔΟΣ")[0].text, "οδος");
    }

    /// Letters with one-to-many and contextual lowercase mappings, digits,
    /// kept and dropped punctuation, several kinds of whitespace.
    const ALPHABET: &[char] = &[
        'a', 'b', 'Z', 'Q', '0', '7', '-', '\'', ' ', ' ', '\t', '\u{a0}', ',', '/', '_', 'İ', 'Σ',
        'σ', 'ς', 'ß', 'ẞ', 'É', 'ǅ', 'ŉ', '\u{307}', '٣', '中',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tokenize_matches_the_reference(
            picks in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
        ) {
            let title: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            prop_assert_eq!(tokenize(&title), tokenize_reference(&title), "{:?}", title);
        }
    }
}
