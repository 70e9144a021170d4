//! Pair featurization: the stand-in for pre-trained contextual encoders.
//!
//! A fine-tuned cross-encoder sees both records at once and aligns them
//! through attention. Our shallow substitute gets the same alignment signal
//! explicitly: besides hashed bags of each side's word and character
//! n-grams, it hashes the token *intersection* and *symmetric difference*
//! (cross features) and exposes dense similarity scalars (Jaccard overlaps,
//! numeric/code agreement, brand-position equality). The cross features are
//! what make intent-specific decision boundaries learnable by an MLP; the
//! `ablation` bench quantifies their contribution.
//!
//! A pair is featurized from two [`PreparedSide`]s by one kernel
//! ([`PairFeaturizer::features`] and its `_into` variants all end there):
//! membership is a merge and binary searches over sorted integer gram keys,
//! namespaces are precomputed hash states, and the side shared by a
//! candidate batch hashes its own slots once per batch.

use crate::summarize::{summarize, DfTable};
use crate::tokenize::{tokenize, Token, TokenKind};
use flexer_nn::SparseMatrix;
use flexer_types::MierBenchmark;
use std::cmp::Ordering;

/// Number of reserved dense feature slots (indices `0..N_DENSE`).
pub const N_DENSE: usize = 8;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a continued from state `h` over `bytes`.
const fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// FNV-1a continued over the UTF-8 bytes of `chars`.
fn fnv_chars(mut h: u64, chars: &[char]) -> u64 {
    let mut utf8 = [0u8; 4];
    for c in chars {
        h = fnv(h, c.encode_utf8(&mut utf8).as_bytes());
    }
    h
}

/// Hash state after a feature namespace and its `0xFF` separator: every
/// hashed feature is `namespace 0xFF token`, so a slot's hash continues
/// from one of these instead of re-reading the prefix.
const fn namespace(name: &str) -> u64 {
    fnv(fnv(FNV_OFFSET, name.as_bytes()), &[0xFF])
}

/// Words of the left / right side.
const A_W: u64 = namespace("A:w");
const B_W: u64 = namespace("B:w");
/// Words and character n-grams on both sides (`S`) or on one (`D`).
const S_W: u64 = namespace("S:w");
const D_W: u64 = namespace("D:w");
const S_C: u64 = namespace("S:c");
const D_C: u64 = namespace("D:c");
/// Numbers and codes on both sides.
const S_N: u64 = namespace("S:n");
/// Per-side character n-grams, emitted only without cross features.
const A_C: u64 = namespace("A:c");
const B_C: u64 = namespace("B:c");

/// Longest n-gram whose chars pack into one `u64` key (21 bits each).
const PACKED_MAX: usize = 3;

/// Configuration + logic of pair featurization.
#[derive(Debug, Clone, PartialEq)]
pub struct PairFeaturizer {
    /// Hashed feature dimensionality (on top of the dense slots).
    pub hash_dim: usize,
    /// Character n-gram size.
    pub char_ngram: usize,
    /// Whether cross (intersection/difference) features are emitted — the
    /// ablation switch.
    pub use_cross: bool,
    /// Summarization budget per side (DITTO's max input length, scaled to
    /// titles).
    pub max_tokens: usize,
}

impl Default for PairFeaturizer {
    fn default() -> Self {
        Self { hash_dim: 1 << 14, char_ngram: 3, use_cross: true, max_tokens: 32 }
    }
}

/// One side of a pair as the pair kernel reads it: the summarized tokens
/// and the side's character n-grams, which are windows over one char
/// buffer — never a `String` each. A gram is named by a `u64` key: its
/// chars packed 21 bits apiece when `char_ngram <= 3`, its window's start
/// otherwise; a sorted copy of the keys answers membership.
///
/// A side prepared by [`PairFeaturizer::prepare_side`] also carries the
/// hashed slots it contributes as the *right* side of a pair. In a
/// resolve query the incoming record pairs against every candidate, so
/// those are hashed once per candidate set, not once per pair.
#[derive(Debug, Clone)]
pub struct PreparedSide {
    /// Summarized tokens of the side.
    pub tokens: Vec<Token>,
    /// `_tok_tok_`: the tokens joined and fenced with `_`.
    chars: Vec<char>,
    /// Gram keys in window order.
    grams: Vec<u64>,
    /// `grams`, ordered by [`PairFeaturizer::cmp_grams`].
    sorted: Vec<u64>,
    /// Right-side slots (sign not yet normalized): `B:w` per token, then,
    /// with cross features, `D:w` per token and `D:c` per gram, without
    /// them `B:c` per gram.
    right: Vec<(u32, f32)>,
}

/// The `n`-gram of `chars` starting at `start` (the whole buffer when it is
/// shorter than `n`).
fn window(chars: &[char], start: usize, n: usize) -> &[char] {
    &chars[start..start.saturating_add(n).min(chars.len())]
}

impl PreparedSide {
    /// A side holding `tokens`, its grams not built yet.
    fn new(tokens: Vec<Token>) -> Self {
        Self { tokens, chars: Vec::new(), grams: Vec::new(), sorted: Vec::new(), right: Vec::new() }
    }

    fn window(&self, start: usize, n: usize) -> &[char] {
        window(&self.chars, start, n)
    }
}

/// Caller-owned buffers of [`PairFeaturizer::features_of_title`]; reusing
/// one across a candidate batch keeps the pair kernel off the allocator.
#[derive(Debug)]
pub struct PairScratch {
    /// The left side of the pair being featurized.
    left: PreparedSide,
    /// Per left token: its text occurs on the right.
    in_right: Vec<bool>,
    /// Per right token: its text occurs on the left.
    in_left: Vec<bool>,
    /// Keys of the left grams that occur on the right, sorted.
    shared: Vec<u64>,
}

impl Default for PairScratch {
    fn default() -> Self {
        Self {
            left: PreparedSide::new(Vec::new()),
            in_right: Vec::new(),
            in_left: Vec::new(),
            shared: Vec::new(),
        }
    }
}

impl PairFeaturizer {
    /// Featurizer with a given hashed dimensionality.
    pub fn new(hash_dim: usize) -> Self {
        Self { hash_dim, ..Default::default() }
    }

    /// Total input dimensionality (dense slots + hashed space).
    pub fn total_dim(&self) -> usize {
        N_DENSE + self.hash_dim
    }

    /// Tokenizes and summarizes one title.
    pub fn prepare(&self, title: &str, df: &DfTable) -> Vec<Token> {
        let tokens = tokenize(title);
        if tokens.len() <= self.max_tokens {
            tokens
        } else {
            summarize(&tokens, df, self.max_tokens)
        }
    }

    /// Sparse feature vector of one prepared pair.
    pub fn features(&self, a: &[Token], b: &[Token]) -> Vec<(u32, f32)> {
        let mut out = Vec::new();
        self.features_into(a, b, &mut out);
        out
    }

    /// Like [`features`](Self::features), but writes into a caller-owned
    /// buffer (cleared first).
    pub fn features_into(&self, a: &[Token], b: &[Token], out: &mut Vec<(u32, f32)>) {
        self.features_into_prepared(a, &self.right_side(b.to_vec()), out);
    }

    /// Prepares one title as the shared right side of a candidate batch
    /// (see [`PreparedSide`]).
    pub fn prepare_side(&self, title: &str, df: &DfTable) -> PreparedSide {
        self.right_side(self.prepare(title, df))
    }

    /// [`features_into`](Self::features_into) against a prepared right
    /// side.
    pub fn features_into_prepared(&self, a: &[Token], b: &PreparedSide, out: &mut Vec<(u32, f32)>) {
        let mut scratch = PairScratch::default();
        scratch.left.tokens.extend_from_slice(a);
        self.pair_features(b, &mut scratch, out);
    }

    /// [`features_into_prepared`](Self::features_into_prepared) straight
    /// from the left title: no token copy, and every buffer but the token
    /// strings lives in `scratch` — the loop body of a candidate batch.
    pub fn features_of_title(
        &self,
        title: &str,
        df: &DfTable,
        b: &PreparedSide,
        scratch: &mut PairScratch,
        out: &mut Vec<(u32, f32)>,
    ) {
        scratch.left.tokens = self.prepare(title, df);
        self.pair_features(b, scratch, out);
    }

    fn right_side(&self, tokens: Vec<Token>) -> PreparedSide {
        let mut side = PreparedSide::new(tokens);
        self.build_grams(&mut side);
        let slots = side.tokens.len() * (1 + self.use_cross as usize) + side.grams.len();
        side.right.reserve_exact(slots);
        side.right.extend(side.tokens.iter().map(|t| self.slot(fnv(B_W, t.text.as_bytes()))));
        let gram_namespace = if self.use_cross {
            side.right.extend(side.tokens.iter().map(|t| self.slot(fnv(D_W, t.text.as_bytes()))));
            D_C
        } else {
            B_C
        };
        for i in 0..side.grams.len() {
            let slot = self.slot(fnv_chars(gram_namespace, side.window(i, self.char_ngram)));
            side.right.push(slot);
        }
        side
    }

    /// Derives `chars`, `grams` and `sorted` from the side's tokens,
    /// reusing the buffers.
    fn build_grams(&self, side: &mut PreparedSide) {
        let n = self.char_ngram;
        assert!(n > 0, "character n-grams need n >= 1");
        let PreparedSide { tokens, chars, grams, sorted, .. } = side;
        chars.clear();
        for token in tokens.iter() {
            chars.push('_');
            chars.extend(token.text.chars());
        }
        chars.push('_');
        if tokens.is_empty() {
            chars.push('_');
        }
        // A buffer shorter than `n` is one (short) gram.
        let count = chars.len().saturating_sub(n) + 1;
        grams.clear();
        if n <= PACKED_MAX {
            // +1 keeps a gram shorter than `n` apart from every full one.
            grams.extend((0..count).map(|i| {
                window(chars, i, n).iter().fold(0, |key, &c| (key << 21) | (c as u64 + 1))
            }));
        } else {
            grams.extend(0..count as u64);
        }
        sorted.clone_from(grams);
        if n <= PACKED_MAX {
            sorted.sort_unstable();
        } else {
            sorted.sort_unstable_by(|&x, &y| {
                window(chars, x as usize, n).cmp(window(chars, y as usize, n))
            });
        }
    }

    /// Orders two gram keys, each read against its own side, by a total
    /// order in which equal means the same gram.
    fn cmp_grams(&self, x: (&PreparedSide, u64), y: (&PreparedSide, u64)) -> Ordering {
        if self.char_ngram <= PACKED_MAX {
            x.1.cmp(&y.1)
        } else {
            let n = self.char_ngram;
            x.0.window(x.1 as usize, n).cmp(y.0.window(y.1 as usize, n))
        }
    }

    /// The pair kernel: features of (`scratch.left.tokens`, `b`).
    ///
    /// Emits the dense slots that are non-zero, in slot order, then the
    /// hashed features in a fixed namespace order. That order is part of
    /// the contract: [`SparseMatrix::push_row_unsorted`] sums hash
    /// collisions in the order an unstable sort leaves them, so the same
    /// features in another order can train another model.
    fn pair_features(
        &self,
        b: &PreparedSide,
        scratch: &mut PairScratch,
        out: &mut Vec<(u32, f32)>,
    ) {
        self.build_grams(&mut scratch.left);
        let PairScratch { left: a, in_right, in_left, shared } = scratch;
        let a: &PreparedSide = a;
        let (ta, tb) = (a.tokens.as_slice(), b.tokens.as_slice());
        let n = self.char_ngram;
        debug_assert_eq!(
            b.right.len(),
            tb.len() * (1 + self.use_cross as usize) + b.grams.len(),
            "the right side must come from this featurizer's prepare_side"
        );
        out.clear();

        // Which token texts occur on the other side: every word overlap
        // below reads these.
        in_right.clear();
        in_right.extend(ta.iter().map(|t| tb.iter().any(|u| u.text == t.text)));
        in_left.clear();
        in_left.extend(tb.iter().map(|u| ta.iter().any(|t| t.text == u.text)));
        // One merge of the sorted gram keys finds the grams on both sides
        // and counts the left occurrences among them.
        shared.clear();
        let (mut i, mut j) = (0, 0);
        while i < a.sorted.len() && j < b.sorted.len() {
            match self.cmp_grams((a, a.sorted[i]), (b, b.sorted[j])) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                // The right gram stays: the next left key may repeat it.
                Ordering::Equal => {
                    shared.push(a.sorted[i]);
                    i += 1;
                }
            }
        }
        let is_shared = |side: &PreparedSide, key: u64| {
            shared.binary_search_by(|&s| self.cmp_grams((a, s), (side, key))).is_ok()
        };
        let is_num = |t: &&Token| t.kind != TokenKind::Word;
        let is_shared_num =
            |t: &&Token| is_num(t) && tb.iter().any(|u| is_num(&u) && u.text == t.text);

        // --- Dense similarity slots ---
        // Overlaps count left *occurrences*: a token or gram repeated on
        // the left and present on the right weighs in once per repeat.
        let inter = in_right.iter().filter(|&&s| s).count();
        let (short, long) = (ta.len().min(tb.len()), ta.len().max(tb.len()));
        let (containment, len_ratio) = if short == 0 {
            (0.0, 0.0)
        } else {
            (inter as f32 / short as f32, short as f32 / long as f32)
        };
        let first_eq = matches!((ta.first(), tb.first()), (Some(x), Some(y)) if x.text == y.text);
        let code_eq = ta.iter().zip(in_right.iter()).any(|(t, &s)| s && t.kind == TokenKind::Code);
        let dense = [
            jaccard(inter, ta.len(), tb.len()),
            jaccard(shared.len(), a.grams.len(), b.grams.len()),
            jaccard(
                ta.iter().filter(is_shared_num).count(),
                ta.iter().filter(is_num).count(),
                tb.iter().filter(is_num).count(),
            ),
            first_eq as u8 as f32,
            containment,
            len_ratio,
            1.0, // bias
            code_eq as u8 as f32,
        ];
        out.extend(
            dense.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(i, &v)| (i as u32, v)),
        );

        // --- Hashed bag features ---
        let hashed_from = out.len();
        let (right_words, right_rest) = b.right.split_at(tb.len());
        out.extend(ta.iter().map(|t| self.slot(fnv(A_W, t.text.as_bytes()))));
        out.extend_from_slice(right_words);
        if self.use_cross {
            let (right_only_words, right_only_grams) = right_rest.split_at(tb.len());
            out.extend(
                ta.iter()
                    .zip(in_right.iter())
                    .map(|(t, &s)| self.slot(fnv(if s { S_W } else { D_W }, t.text.as_bytes()))),
            );
            out.extend(
                right_only_words.iter().zip(in_left.iter()).filter(|(_, &s)| !s).map(|(&e, _)| e),
            );
            out.extend(a.grams.iter().enumerate().map(|(i, &g)| {
                self.slot(fnv_chars(if is_shared(a, g) { S_C } else { D_C }, a.window(i, n)))
            }));
            out.extend(
                right_only_grams
                    .iter()
                    .zip(&b.grams)
                    .filter(|(_, &g)| !is_shared(b, g))
                    .map(|(&e, _)| e),
            );
            // Domain knowledge: shared numbers / codes as dedicated signals.
            out.extend(
                ta.iter().filter(is_shared_num).map(|t| self.slot(fnv(S_N, t.text.as_bytes()))),
            );
        } else {
            out.extend((0..a.grams.len()).map(|i| self.slot(fnv_chars(A_C, a.window(i, n)))));
            out.extend_from_slice(right_rest);
        }

        // L2-normalize the hashed portion so titles of different lengths
        // produce comparable magnitudes: every entry is ±1, so the norm is
        // the root of their count.
        let hashed = &mut out[hashed_from..];
        if !hashed.is_empty() {
            let inv_norm = 1.0 / (hashed.len() as f32).sqrt();
            for (_, v) in hashed {
                *v *= inv_norm;
            }
        }
    }

    /// Hashed slot of a finished feature hash: column and ±1 sign.
    fn slot(&self, h: u64) -> (u32, f32) {
        let idx = (h % self.hash_dim as u64) as u32 + N_DENSE as u32;
        let sign = if (h >> 61) & 1 == 0 { 1.0 } else { -1.0 };
        (idx, sign)
    }

    /// Featurizes every candidate pair of a benchmark into a sparse matrix
    /// (row = pair index); the DF table is built from the whole dataset.
    pub fn featurize_benchmark(&self, bench: &MierBenchmark) -> SparseMatrix {
        let docs: Vec<Vec<Token>> = bench.dataset.iter().map(|r| tokenize(r.title())).collect();
        let refs: Vec<&[Token]> = docs.iter().map(|d| d.as_slice()).collect();
        let df = DfTable::build(refs.into_iter());
        let rows: Vec<Vec<(u32, f32)>> = bench
            .candidates
            .iter()
            .map(|(_, pair)| {
                let a = summarize(&docs[pair.a], &df, self.max_tokens);
                let b = summarize(&docs[pair.b], &df, self.max_tokens);
                self.features(&a, &b)
            })
            .collect();
        SparseMatrix::from_rows(self.total_dim(), &rows)
    }
}

/// Jaccard overlap from an intersection count and the two sizes; 0 for two
/// empty sides.
fn jaccard(inter: usize, len_a: usize, len_b: usize) -> f32 {
    let union = len_a + len_b - inter;
    if union == 0 {
        0.0
    } else {
        inter as f32 / union as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `String`-per-gram n-gram builder the featurizer shipped with.
    fn char_ngrams_reference(tokens: &[Token], n: usize) -> Vec<String> {
        let joined = tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join("_");
        let chars: Vec<char> = format!("_{joined}_").chars().collect();
        if chars.len() < n {
            return vec![chars.iter().collect()];
        }
        chars.windows(n).map(|w| w.iter().collect()).collect()
    }

    fn jaccard_reference(a: &[&str], b: &[&str]) -> f32 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.iter().filter(|x| b.contains(x)).count();
        let union = a.len() + b.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f32 / union as f32
        }
    }

    /// The featurizer this module shipped with — string sets, linear
    /// `contains`, the namespace re-hashed per feature — kept verbatim as
    /// the oracle the pair kernel must match entry for entry, bit for bit.
    fn features_reference(f: &PairFeaturizer, a: &[Token], b: &[Token]) -> Vec<(u32, f32)> {
        let slot = |namespace: &str, token: &str| {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in namespace.bytes().chain([0xFFu8]).chain(token.bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            let idx = (h % f.hash_dim as u64) as u32 + N_DENSE as u32;
            let sign = if (h >> 61) & 1 == 0 { 1.0 } else { -1.0 };
            (idx, sign)
        };
        let mut out = Vec::new();

        let words_a: Vec<&str> = a.iter().map(|t| t.text.as_str()).collect();
        let words_b: Vec<&str> = b.iter().map(|t| t.text.as_str()).collect();
        let grams_a = char_ngrams_reference(a, f.char_ngram);
        let grams_b = char_ngrams_reference(b, f.char_ngram);
        let word_j = jaccard_reference(&words_a, &words_b);
        let gram_j = jaccard_reference(
            &grams_a.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            &grams_b.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        );
        let nums_a: Vec<&str> =
            a.iter().filter(|t| t.kind != TokenKind::Word).map(|t| t.text.as_str()).collect();
        let nums_b: Vec<&str> =
            b.iter().filter(|t| t.kind != TokenKind::Word).map(|t| t.text.as_str()).collect();
        let num_j = jaccard_reference(&nums_a, &nums_b);
        let first_eq = match (words_a.first(), words_b.first()) {
            (Some(x), Some(y)) if x == y => 1.0,
            _ => 0.0,
        };
        let inter = words_a.iter().filter(|w| words_b.contains(w)).count();
        let containment = if words_a.is_empty() || words_b.is_empty() {
            0.0
        } else {
            inter as f32 / words_a.len().min(words_b.len()) as f32
        };
        let len_ratio = if words_a.is_empty() || words_b.is_empty() {
            0.0
        } else {
            words_a.len().min(words_b.len()) as f32 / words_a.len().max(words_b.len()) as f32
        };
        let code_eq =
            a.iter().any(|t| t.kind == TokenKind::Code && b.iter().any(|u| u.text == t.text));
        let dense = [
            word_j,
            gram_j,
            num_j,
            first_eq,
            containment,
            len_ratio,
            1.0, // bias
            if code_eq { 1.0 } else { 0.0 },
        ];
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                out.push((i as u32, v));
            }
        }

        let mut hashed: Vec<(u32, f32)> = Vec::new();
        for w in &words_a {
            hashed.push(slot("A:w", w));
        }
        for w in &words_b {
            hashed.push(slot("B:w", w));
        }
        if f.use_cross {
            for w in &words_a {
                hashed.push(slot(if words_b.contains(w) { "S:w" } else { "D:w" }, w));
            }
            for w in &words_b {
                if !words_a.contains(w) {
                    hashed.push(slot("D:w", w));
                }
            }
            for g in &grams_a {
                hashed.push(slot(if grams_b.contains(g) { "S:c" } else { "D:c" }, g));
            }
            for g in &grams_b {
                if !grams_a.contains(g) {
                    hashed.push(slot("D:c", g));
                }
            }
            for t in a {
                if t.kind != TokenKind::Word && nums_b.contains(&t.text.as_str()) {
                    hashed.push(slot("S:n", &t.text));
                }
            }
        } else {
            for g in &grams_a {
                hashed.push(slot("A:c", g));
            }
            for g in &grams_b {
                hashed.push(slot("B:c", g));
            }
        }
        let norm: f32 = hashed.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, v) in hashed.iter_mut() {
                *v /= norm;
            }
        }
        out.extend(hashed);
        out
    }

    fn bits(row: &[(u32, f32)]) -> Vec<(u32, u32)> {
        row.iter().map(|&(c, v)| (c, v.to_bits())).collect()
    }

    /// Few distinct letters, so tokens and grams repeat within and across
    /// sides; digits for numbers and codes; multi-byte and case-expanding
    /// chars; punctuation that is kept, trimmed and dropped.
    const ALPHABET: &[char] = &[
        'a',
        'a',
        'b',
        'B',
        'c',
        '1',
        '2',
        ' ',
        ' ',
        ' ',
        '-',
        '\'',
        ',',
        'é',
        'İ',
        'Σ',
        'ß',
        '中',
        '\u{1F600}',
        '٣',
    ];

    fn title(picks: &[usize]) -> String {
        picks.iter().map(|&i| ALPHABET[i]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every entry point against the retained reference, in both
        /// argument orders: random Unicode titles down to empty and
        /// one-char ones (fewer chars than `n`), repeated tokens, both
        /// cross modes, packed (2, 3) and windowed (5) grams, a token
        /// budget small enough to summarize, a hash space small enough to
        /// collide.
        #[test]
        fn kernel_matches_the_reference(
            picks_a in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            picks_b in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            config in (any::<bool>(), 0usize..3, any::<bool>(), any::<bool>()),
        ) {
            let (use_cross, ngram, summarized, narrow) = config;
            let f = PairFeaturizer {
                hash_dim: if narrow { 13 } else { 1 << 14 },
                char_ngram: [2, 3, 5][ngram],
                use_cross,
                max_tokens: if summarized { 3 } else { 32 },
            };
            let titles = [title(&picks_a), title(&picks_b)];
            let docs: Vec<Vec<Token>> = titles.iter().map(|t| tokenize(t)).collect();
            let df = DfTable::build(docs.iter().map(|d| d.as_slice()));
            // One scratch across both orders: nothing may leak between pairs.
            let mut scratch = PairScratch::default();
            let mut row = vec![(7, 7.0)];
            for (x, y) in [(0, 1), (1, 0)] {
                let (a, b) = (f.prepare(&titles[x], &df), f.prepare(&titles[y], &df));
                prop_assert!(a.len() <= f.max_tokens);
                let expected = bits(&features_reference(&f, &a, &b));
                prop_assert_eq!(bits(&f.features(&a, &b)), expected.clone(), "features {:?}", titles);
                let side = f.prepare_side(&titles[y], &df);
                prop_assert_eq!(&side.tokens, &b);
                f.features_into_prepared(&a, &side, &mut row);
                prop_assert_eq!(bits(&row), expected.clone(), "prepared {:?}", titles);
                f.features_of_title(&titles[x], &df, &side, &mut scratch, &mut row);
                prop_assert_eq!(bits(&row), expected, "of_title {:?}", titles);
            }
        }
    }

    /// FNV-1a over every row's length, columns and value bits.
    fn digest(m: &SparseMatrix) -> u64 {
        let mut h = FNV_OFFSET;
        for i in 0..m.rows() {
            let (cols, vals) = m.row(i);
            h = fnv(h, &(cols.len() as u32).to_le_bytes());
            for (c, v) in cols.iter().zip(vals) {
                h = fnv(fnv(h, &c.to_le_bytes()), &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Features feed every trained weight, so a change to any of them —
    /// tokenizer, summarizer, kernel, CSR row build — must show up here
    /// and be a decision, not a side effect.
    #[test]
    fn benchmark_features_are_pinned() {
        use flexer_datasets::AmazonMiConfig;
        use flexer_types::Scale;
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(11).generate();
        let m = PairFeaturizer::default().featurize_benchmark(&bench);
        assert_eq!((m.nnz(), digest(&m)), (42_233, 0xCA05_66D4_5767_C051));
    }

    fn gram_strings(title: &str, n: usize) -> Vec<String> {
        let f = PairFeaturizer { char_ngram: n, ..Default::default() };
        let side = f.prepare_side(title, &DfTable::default());
        (0..side.grams.len()).map(|i| side.window(i, n).iter().collect()).collect()
    }

    #[test]
    fn grams_cover_token_boundaries() {
        let grams = gram_strings("ab cd", 3);
        assert_eq!(grams, ["_ab", "ab_", "b_c", "_cd", "cd_"]);
    }

    #[test]
    fn short_side_is_one_gram() {
        assert_eq!(gram_strings("a", 5), ["_a_"]);
        assert_eq!(gram_strings("", 3), ["__"]);
    }

    #[test]
    fn typo_changes_few_grams() {
        let a = gram_strings("duckboot", 3);
        let b = gram_strings("duckobot", 3); // adjacent swap
        let shared = a.iter().filter(|g| b.contains(g)).count();
        assert!(shared * 2 >= a.len() - 2, "typo should preserve most n-grams");
    }

    fn feats(a: &str, b: &str) -> Vec<(u32, f32)> {
        let f = PairFeaturizer::default();
        let df = DfTable::default();
        f.features(&f.prepare(a, &df), &f.prepare(b, &df))
    }

    fn dense_slot(fv: &[(u32, f32)], slot: u32) -> f32 {
        fv.iter().find(|(i, _)| *i == slot).map(|(_, v)| *v).unwrap_or(0.0)
    }

    #[test]
    fn identical_titles_have_max_similarity() {
        let fv = feats("Nike Air Max 2016", "Nike Air Max 2016");
        assert!((dense_slot(&fv, 0) - 1.0).abs() < 1e-6); // word jaccard
        assert!((dense_slot(&fv, 1) - 1.0).abs() < 1e-6); // gram jaccard
        assert!((dense_slot(&fv, 3) - 1.0).abs() < 1e-6); // first token eq
    }

    #[test]
    fn disjoint_titles_have_zero_similarity() {
        let fv = feats("alpha beta", "gamma delta");
        assert_eq!(dense_slot(&fv, 0), 0.0);
        assert_eq!(dense_slot(&fv, 3), 0.0);
        assert_eq!(dense_slot(&fv, 6), 1.0); // bias always present
    }

    #[test]
    fn case_insensitive_similarity() {
        let fv = feats("NIKE DUCKBOOT", "nike duckboot");
        assert!((dense_slot(&fv, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_code_detected() {
        let fv = feats("Targus TG-6660TR tripod", "new Targus TG-6660TR stand");
        assert_eq!(dense_slot(&fv, 7), 1.0);
        let fv2 = feats("Targus TG-6660TR tripod", "Targus TG-9999X stand");
        assert_eq!(dense_slot(&fv2, 7), 0.0);
    }

    #[test]
    fn indices_in_range_and_rows_build() {
        let f = PairFeaturizer::default();
        let fv = feats("Nike Air Max 2016 Running Shoe", "adidas D Rose 6 Basketball");
        for (i, _) in &fv {
            assert!((*i as usize) < f.total_dim());
        }
        // Must be constructible as a sparse row.
        let m = SparseMatrix::from_rows(f.total_dim(), &[fv]);
        assert_eq!(m.rows(), 1);
        assert!(m.nnz() > 10);
    }

    #[test]
    fn hashed_part_is_normalized() {
        let f = PairFeaturizer::default();
        let df = DfTable::default();
        let fv = f.features(
            &f.prepare("Nike Air Max Running Shoe Special Edition Long Title", &df),
            &f.prepare("Totally different book about rivers", &df),
        );
        let hashed_norm: f32 =
            fv.iter().filter(|(i, _)| *i as usize >= N_DENSE).map(|(_, v)| v * v).sum::<f32>();
        // Signed hashing can cancel inside a bucket, so the norm is ≤ 1.
        assert!(hashed_norm <= 1.0 + 1e-4);
        assert!(hashed_norm > 0.5);
    }

    #[test]
    fn cross_features_distinguish_alignment() {
        // Same multiset of tokens on each side in both pairs, but different
        // cross alignment: bags alone cannot tell these apart.
        let with_cross = PairFeaturizer::default();
        let df = DfTable::default();
        let p1 = with_cross.features(
            &with_cross.prepare("alpha beta", &df),
            &with_cross.prepare("alpha beta", &df),
        );
        let p2 = with_cross.features(
            &with_cross.prepare("alpha beta", &df),
            &with_cross.prepare("beta gamma", &df),
        );
        assert_ne!(p1, p2);
    }

    #[test]
    fn no_cross_mode_drops_shared_namespaces() {
        let f = PairFeaturizer { use_cross: false, ..Default::default() };
        let df = DfTable::default();
        let fv = f.features(&f.prepare("nike", &df), &f.prepare("nike", &df));
        // With cross disabled the vector still builds and has hashed content.
        assert!(fv.iter().any(|(i, _)| *i as usize >= N_DENSE));
    }

    #[test]
    fn empty_titles_yield_bias_only_dense() {
        let fv = feats("", "");
        assert_eq!(dense_slot(&fv, 6), 1.0);
        assert_eq!(dense_slot(&fv, 0), 0.0);
    }

    #[test]
    fn featurize_benchmark_shapes() {
        use flexer_datasets::AmazonMiConfig;
        use flexer_types::Scale;
        let bench = AmazonMiConfig::at_scale(Scale::Tiny).with_seed(1).generate();
        let f = PairFeaturizer::default();
        let m = f.featurize_benchmark(&bench);
        assert_eq!(m.rows(), bench.n_pairs());
        assert_eq!(m.cols(), f.total_dim());
    }
}
