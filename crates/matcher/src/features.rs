//! Pair featurization: the stand-in for pre-trained contextual encoders.
//!
//! A fine-tuned cross-encoder sees both records at once and aligns them
//! through attention. Our shallow substitute gets the same alignment signal
//! explicitly: besides hashed bags of each side's word and character
//! n-grams, it hashes the token *intersection* and *symmetric difference*
//! (cross features) and exposes dense similarity scalars (Jaccard overlaps,
//! numeric/code agreement, brand-position equality). The cross features are
//! what make intent-specific decision boundaries learnable by an MLP; no
//! bench or `paper` experiment measures their contribution.
//!
//! A pair is featurized by one kernel, [`SideStore::pair_features`], from a
//! *stored* left side and a [`PreparedSide`] on the right
//! ([`PairFeaturizer::features`] and its `_into` variants store their left
//! in a one-record store and end there too). What a side contributes
//! whatever it is paired with — its tokens, every hashed slot it can emit,
//! the right side's sorted gram keys — is computed when the side is stored
//! or prepared; the kernel does what depends on the pair: token overlap,
//! one binary search per left gram in the right side's keys, and lookups.

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

/// FNV-1a continued from each of `states` over `bytes`. The chains are
/// independent, so they advance in lockstep at about the cost of one: a
/// side's slots in several namespaces are one pass over its text.
fn fnv_each<const K: usize>(mut states: [u64; K], bytes: &[u8]) -> [u64; K] {
    for &byte in bytes {
        for h in &mut states {
            *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    states
}

/// [`fnv_each`] over the UTF-8 bytes of `chars`.
fn fnv_chars_each<const K: usize>(mut states: [u64; K], chars: &[char]) -> [u64; K] {
    let mut utf8 = [0u8; 4];
    for c in chars {
        states = fnv_each(states, c.encode_utf8(&mut utf8).as_bytes());
    }
    states
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

/// The `n`-gram of `chars` starting at `start` (the whole buffer when it is
/// shorter than `n`).
fn window(chars: &[char], start: usize, n: usize) -> &[char] {
    &chars[start..start.saturating_add(n).min(chars.len())]
}

/// A hashed slot in one `u32`: the column above its sign bit.
fn unpack(slot: u32) -> (u32, f32) {
    (slot >> 1, if slot & 1 == 0 { 1.0 } else { -1.0 })
}

/// A store offset: `u32`, so one record may hold a 100 000-byte token and
/// a store ends at 4 Gi entries per array.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a side store array holds at most u32::MAX entries")
}

/// The right side of a pair — in a resolve query the incoming record,
/// which pairs against every candidate, so it is prepared once per
/// candidate set ([`PairFeaturizer::prepare_side`]): its summarized tokens,
/// its character n-grams as `u64` keys (the chars packed 21 bits apiece
/// when `char_ngram <= 3`, the window's start in `chars` otherwise — never
/// a `String` each), the distinct keys sorted for the kernel's membership
/// searches, and the hashed slots it contributes.
#[derive(Debug, Clone)]
pub struct PreparedSide {
    /// Summarized tokens of the side.
    pub tokens: Vec<Token>,
    /// `_tok_tok_`: the tokens joined and fenced with `_`.
    chars: Vec<char>,
    /// Gram keys in window order.
    grams: Vec<u64>,
    /// The distinct grams, ordered by [`PairFeaturizer::cmp_grams`].
    sorted: Vec<u64>,
    /// Per gram in window order, its position in `sorted`: what carries a
    /// search hit there back to every window holding that gram.
    ranks: Vec<u32>,
    /// Packed slots: `B:w` per token, then, with cross features, `D:w` per
    /// token and `D:c` per gram, without them `B:c` per gram.
    right: Vec<u32>,
}

/// Where one stored record's parts end in a [`SideStore`]'s arrays; they
/// start where the record before it ends.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    tokens: u32,
    text: u32,
    grams: u32,
}

/// Append-only store of left sides, one per record, struct-of-arrays: what
/// the pair kernel reads of a stored title, computed once when the record
/// arrives instead of once per candidate pair — the summarized tokens and
/// every hashed slot the side can contribute. Gram *keys* are not kept:
/// they are two shifts a char away from the text, and at 8 B a gram they
/// would double the store. A record costs ≈0.6 KB with the default
/// featurizer (≈45 grams at 8 B, ≈9 tokens at 21 B, the text).
#[derive(Debug)]
pub struct SideStore {
    featurizer: PairFeaturizer,
    /// Per record.
    ends: Vec<Ends>,
    /// Per token: where its text ends in its record's `_tok_tok_` text; it
    /// starts one fence past the end of the token before it.
    text_ends: Vec<u32>,
    kinds: Vec<TokenKind>,
    /// Per token, packed: `A:w`, and with cross features `S:w`, `D:w`,
    /// `S:n` beside it.
    word_slots: Vec<u32>,
    /// Per record `_tok_tok_`, the tokens joined and fenced with `_` — the
    /// buffer the grams are windows of — back to back.
    text: String,
    /// Per gram in window order, packed: `S:c` and `D:c` with cross
    /// features, `A:c` without.
    gram_slots: Vec<u32>,
}

/// One record of a [`SideStore`]: slices of its arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredSide<'a> {
    text_ends: &'a [u32],
    kinds: &'a [TokenKind],
    word_slots: &'a [u32],
    text: &'a str,
    gram_slots: &'a [u32],
}

impl StoredSide<'_> {
    /// Text of token `i`.
    fn token(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 1 } else { self.text_ends[i - 1] as usize + 1 };
        &self.text.as_bytes()[start..self.text_ends[i] as usize]
    }

    fn is_num(&self, i: usize) -> bool {
        self.kinds[i] != TokenKind::Word
    }
}

/// Caller-owned buffers of [`SideStore::pair_features`]; reusing one
/// across a candidate batch keeps the pair kernel off the allocator.
#[derive(Debug, Default)]
pub struct PairScratch {
    /// The left side's `_tok_tok_` text, decoded.
    chars: Vec<char>,
    /// Per left token: its text occurs on the right.
    in_right: Vec<bool>,
    /// Per right token: its text occurs on the left.
    in_left: Vec<bool>,
    /// Per left gram: it occurs on the right.
    shared: Vec<bool>,
    /// Per distinct right gram: it occurs on the left.
    hit: Vec<bool>,
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
    /// side: the left goes through a one-record [`SideStore`].
    pub fn features_into_prepared(&self, a: &[Token], b: &PreparedSide, out: &mut Vec<(u32, f32)>) {
        let mut left = SideStore::new(self.clone());
        left.push_tokens(a);
        left.pair_features(0, b, &mut PairScratch::default(), out);
    }

    fn right_side(&self, tokens: Vec<Token>) -> PreparedSide {
        let mut chars = Vec::new();
        for token in &tokens {
            chars.push('_');
            chars.extend(token.text.chars());
        }
        chars.push('_');
        if tokens.is_empty() {
            chars.push('_');
        }
        let grams: Vec<u64> =
            (0..self.gram_count(&chars)).map(|i| self.gram_key(&chars, i)).collect();
        let by_gram = |x: &u64, y: &u64| self.cmp_grams((&chars, *x), (&chars, *y));
        let mut sorted = grams.clone();
        sorted.sort_unstable_by(by_gram);
        sorted.dedup_by(|x, y| by_gram(x, y).is_eq());
        let rank = |g| sorted.binary_search_by(|s| by_gram(s, g)).expect("every gram is sorted");
        let ranks = grams.iter().map(|g| rank(g) as u32).collect();
        let mut right =
            Vec::with_capacity(tokens.len() * (1 + self.use_cross as usize) + grams.len());
        right.extend(tokens.iter().map(|t| self.slot(fnv(B_W, t.text.as_bytes()))));
        let gram_namespace = if self.use_cross {
            right.extend(tokens.iter().map(|t| self.slot(fnv(D_W, t.text.as_bytes()))));
            D_C
        } else {
            B_C
        };
        right.extend((0..grams.len()).map(|i| {
            let [h] = fnv_chars_each([gram_namespace], window(&chars, i, self.char_ngram));
            self.slot(h)
        }));
        PreparedSide { tokens, chars, grams, sorted, ranks, right }
    }

    /// Number of n-gram windows over a side's `chars`: a buffer shorter
    /// than `n` is one (short) gram.
    fn gram_count(&self, chars: &[char]) -> usize {
        assert!(self.char_ngram > 0, "character n-grams need n >= 1");
        chars.len().saturating_sub(self.char_ngram) + 1
    }

    /// Key of the gram at window `i` of `chars`.
    fn gram_key(&self, chars: &[char], i: usize) -> u64 {
        if self.char_ngram <= PACKED_MAX {
            // +1 keeps a gram shorter than `n` apart from every full one.
            window(chars, i, self.char_ngram).iter().fold(0, |key, &c| (key << 21) | (c as u64 + 1))
        } else {
            i as u64
        }
    }

    /// Orders two gram keys, each read against its own side's chars, by a
    /// total order in which equal means the same gram.
    fn cmp_grams(&self, x: (&[char], u64), y: (&[char], u64)) -> Ordering {
        if self.char_ngram <= PACKED_MAX {
            x.1.cmp(&y.1)
        } else {
            let n = self.char_ngram;
            window(x.0, x.1 as usize, n).cmp(window(y.0, y.1 as usize, n))
        }
    }

    /// Packed slot of a finished feature hash: column above the sign bit.
    fn slot(&self, h: u64) -> u32 {
        let idx = (h % self.hash_dim as u64) as u32 + N_DENSE as u32;
        idx << 1 | ((h >> 61) & 1) as u32
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

impl SideStore {
    /// An empty store of sides as `featurizer` reads them.
    pub fn new(featurizer: PairFeaturizer) -> Self {
        assert!(
            featurizer.total_dim() <= 1 << 31,
            "a packed slot keeps its column in 31 bits (hash_dim {})",
            featurizer.hash_dim
        );
        Self {
            featurizer,
            ends: Vec::new(),
            text_ends: Vec::new(),
            kinds: Vec::new(),
            word_slots: Vec::new(),
            text: String::new(),
            gram_slots: Vec::new(),
        }
    }

    /// Slots kept per token / per gram.
    fn strides(&self) -> (usize, usize) {
        if self.featurizer.use_cross {
            (4, 2)
        } else {
            (1, 1)
        }
    }

    /// Reserves room for `titles` from their lengths alone, so filling a
    /// store of known content regrows no array: a title has at most one
    /// token per whitespace-separated word and `max_tokens`, and a char,
    /// hence a gram, per byte plus the fences. For plain alphanumeric
    /// titles the bound is the size. (A few letters lowercase to more
    /// bytes; a title full of them regrows `text`, nothing else.)
    pub fn reserve<'a>(&mut self, titles: impl Iterator<Item = &'a str>) {
        let (mut records, mut tokens, mut bytes) = (0, 0, 0);
        for title in titles {
            records += 1;
            tokens += title.split_whitespace().count().min(self.featurizer.max_tokens);
            bytes += title.len();
        }
        let (per_token, per_gram) = self.strides();
        self.ends.reserve_exact(records);
        self.text_ends.reserve_exact(tokens);
        self.kinds.reserve_exact(tokens);
        self.word_slots.reserve_exact(tokens * per_token);
        self.text.reserve_exact(bytes + 2 * records);
        self.gram_slots.reserve_exact((bytes + 2 * records) * per_gram);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no record is stored.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of side data held (array lengths, not capacities).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.ends[..])
            + size_of_val(&self.text_ends[..])
            + size_of_val(&self.kinds[..])
            + size_of_val(&self.word_slots[..])
            + self.text.len()
            + size_of_val(&self.gram_slots[..])
    }

    /// Stores `title` as the next record; returns its id.
    pub fn push_title(&mut self, title: &str, df: &DfTable) -> usize {
        let tokens = self.featurizer.prepare(title, df);
        self.push_tokens(&tokens)
    }

    /// Stores a side from its summarized tokens; returns its id.
    fn push_tokens(&mut self, tokens: &[Token]) -> usize {
        let f = &self.featurizer;
        let text_from = self.text.len();
        for token in tokens {
            let text = token.text.as_bytes();
            self.text.push('_');
            self.text.push_str(&token.text);
            self.text_ends.push(offset(self.text.len() - text_from));
            self.kinds.push(token.kind);
            if f.use_cross {
                let hashes = fnv_each([A_W, S_W, D_W, S_N], text);
                self.word_slots.extend(hashes.map(|h| f.slot(h)));
            } else {
                self.word_slots.push(f.slot(fnv(A_W, text)));
            }
        }
        self.text.push('_');
        if tokens.is_empty() {
            self.text.push('_');
        }
        let chars: Vec<char> = self.text[text_from..].chars().collect();
        for i in 0..f.gram_count(&chars) {
            let gram = window(&chars, i, f.char_ngram);
            if f.use_cross {
                self.gram_slots.extend(fnv_chars_each([S_C, D_C], gram).map(|h| f.slot(h)));
            } else {
                self.gram_slots.extend(fnv_chars_each([A_C], gram).map(|h| f.slot(h)));
            }
        }
        self.ends.push(Ends {
            tokens: offset(self.kinds.len()),
            text: offset(self.text.len()),
            grams: offset(self.gram_slots.len()),
        });
        self.ends.len() - 1
    }

    /// Record `id`'s side.
    pub fn side(&self, id: usize) -> StoredSide<'_> {
        let from = if id == 0 { Ends::default() } else { self.ends[id - 1] };
        let to = self.ends[id];
        let tokens = from.tokens as usize..to.tokens as usize;
        let per_token = self.strides().0;
        StoredSide {
            text_ends: &self.text_ends[tokens.clone()],
            kinds: &self.kinds[tokens.clone()],
            word_slots: &self.word_slots[tokens.start * per_token..tokens.end * per_token],
            text: &self.text[from.text as usize..to.text as usize],
            gram_slots: &self.gram_slots[from.grams as usize..to.grams as usize],
        }
    }

    /// The pair kernel: features of (record `id`, `b`).
    ///
    /// Emits the dense slots that are non-zero, in slot order, then the
    /// hashed features in a fixed namespace order. That order is part of
    /// the contract: [`SparseMatrix::push_row_unsorted`] sums a column hit
    /// three times or more in the order an unstable sort leaves its
    /// entries, so the same features in another order can train another
    /// model.
    pub fn pair_features(
        &self,
        id: usize,
        b: &PreparedSide,
        scratch: &mut PairScratch,
        out: &mut Vec<(u32, f32)>,
    ) {
        let f = &self.featurizer;
        let a = self.side(id);
        let PairScratch { chars, in_right, in_left, shared, hit } = scratch;
        let (na, tb) = (a.kinds.len(), b.tokens.as_slice());
        let (cross, (per_token, per_gram)) = (f.use_cross, self.strides());
        debug_assert_eq!(
            b.right.len(),
            tb.len() * (1 + cross as usize) + b.grams.len(),
            "the right side must come from this store's featurizer"
        );
        out.clear();

        // Which token texts occur on the other side: every word overlap
        // below reads these.
        in_right.clear();
        in_right.resize(na, false);
        in_left.clear();
        in_left.resize(tb.len(), false);
        for (i, on_right) in in_right.iter_mut().enumerate() {
            let text = a.token(i);
            for (u, on_left) in tb.iter().zip(in_left.iter_mut()) {
                if u.text.as_bytes() == text {
                    (*on_right, *on_left) = (true, true);
                }
            }
        }
        // One search per left gram in the right side's distinct keys: the
        // gram is shared when it is found, and so is every right window
        // that ranks there.
        chars.clear();
        chars.extend(a.text.chars());
        hit.clear();
        hit.resize(b.sorted.len(), false);
        shared.clear();
        shared.extend((0..a.gram_slots.len() / per_gram).map(|i| {
            let gram = f.gram_key(chars, i);
            let found = b.sorted.binary_search_by(|&s| f.cmp_grams((&b.chars, s), (chars, gram)));
            found.map(|rank| hit[rank] = true).is_ok()
        }));
        let is_shared_num = |i: &usize| {
            a.is_num(*i)
                && tb.iter().any(|u| u.kind != TokenKind::Word && u.text.as_bytes() == a.token(*i))
        };

        // --- Dense similarity slots ---
        // Overlaps count left *occurrences*: a token or gram repeated on
        // the left and present on the right weighs in once per repeat.
        let inter = in_right.iter().filter(|&&s| s).count();
        let (short, long) = (na.min(tb.len()), na.max(tb.len()));
        let (containment, len_ratio) = if short == 0 {
            (0.0, 0.0)
        } else {
            (inter as f32 / short as f32, short as f32 / long as f32)
        };
        let first_eq = na > 0 && tb.first().is_some_and(|u| u.text.as_bytes() == a.token(0));
        let code_eq = (0..na).any(|i| in_right[i] && a.kinds[i] == TokenKind::Code);
        let dense = [
            jaccard(inter, na, tb.len()),
            jaccard(shared.iter().filter(|&&s| s).count(), shared.len(), b.grams.len()),
            jaccard(
                (0..na).filter(is_shared_num).count(),
                (0..na).filter(|&i| a.is_num(i)).count(),
                tb.iter().filter(|u| u.kind != TokenKind::Word).count(),
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

        // --- Hashed bag features: lookups ---
        let hashed_from = out.len();
        let word_slot = |i: usize, which: usize| unpack(a.word_slots[i * per_token + which]);
        let gram_slot = |i: usize, which: usize| unpack(a.gram_slots[i * per_gram + which]);
        let (right_words, right_rest) = b.right.split_at(tb.len());
        out.extend((0..na).map(|i| word_slot(i, 0)));
        out.extend(right_words.iter().map(|&e| unpack(e)));
        if cross {
            let (right_only_words, right_only_grams) = right_rest.split_at(tb.len());
            // `S:w` sits at 1 and `D:w` at 2, `S:c` at 0 and `D:c` at 1.
            out.extend((0..na).map(|i| word_slot(i, 2 - in_right[i] as usize)));
            out.extend(
                right_only_words
                    .iter()
                    .zip(in_left.iter())
                    .filter(|(_, &s)| !s)
                    .map(|(&e, _)| unpack(e)),
            );
            out.extend((0..shared.len()).map(|i| gram_slot(i, 1 - shared[i] as usize)));
            out.extend(
                right_only_grams
                    .iter()
                    .zip(&b.ranks)
                    .filter(|(_, &rank)| !hit[rank as usize])
                    .map(|(&e, _)| unpack(e)),
            );
            // Domain knowledge: shared numbers / codes as dedicated signals.
            out.extend((0..na).filter(is_shared_num).map(|i| word_slot(i, 3)));
        } else {
            out.extend((0..shared.len()).map(|i| gram_slot(i, 0)));
            out.extend(right_rest.iter().map(|&e| unpack(e)));
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
        /// collide. The stored-side entry reads its left from one store
        /// that fills as the case goes — records before and after the one
        /// under test, reserved for or not.
        #[test]
        fn kernel_matches_the_reference(
            picks_a in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            picks_b in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            config in (any::<bool>(), 0usize..3, any::<bool>(), any::<bool>()),
            reserved in any::<bool>(),
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
            let mut store = SideStore::new(f.clone());
            if reserved {
                store.reserve(titles.iter().map(String::as_str));
            }
            // One scratch across both orders: nothing may leak between pairs.
            let mut scratch = PairScratch::default();
            let mut row = vec![(7, 7.0)];
            let mut stored = Vec::new();
            for (x, y) in [(0, 1), (1, 0)] {
                let (a, b) = (f.prepare(&titles[x], &df), f.prepare(&titles[y], &df));
                prop_assert!(a.len() <= f.max_tokens);
                let expected = bits(&features_reference(&f, &a, &b));
                prop_assert_eq!(bits(&f.features(&a, &b)), expected.clone(), "features {:?}", titles);
                let side = f.prepare_side(&titles[y], &df);
                prop_assert_eq!(&side.tokens, &b);
                f.features_into_prepared(&a, &side, &mut row);
                prop_assert_eq!(bits(&row), expected.clone(), "prepared {:?}", titles);
                store.push_title(&titles[y], &df);
                let id = store.push_title(&titles[x], &df);
                store.pair_features(id, &side, &mut scratch, &mut row);
                prop_assert_eq!(bits(&row), expected.clone(), "stored last {:?}", titles);
                store.push_tokens(&b);
                stored.push((id, side, expected));
            }
            // Appending moved no stored record, and a record reads the
            // same wherever it sits.
            prop_assert_eq!(store.len(), 6);
            for (id, side, expected) in &stored {
                store.pair_features(*id, side, &mut scratch, &mut row);
                prop_assert_eq!(&bits(&row), expected, "stored {} {:?}", id, titles);
            }
            prop_assert_eq!(store.side(1), store.side(3));
            prop_assert_eq!(store.side(1), store.side(5));
            prop_assert_eq!(store.side(0), store.side(2));
            let mut alone = SideStore::new(f.clone());
            alone.push_title(&titles[1], &df);
            prop_assert_eq!(alone.side(0), store.side(4));
            let one = alone.bytes();
            alone.push_title(&titles[0], &df);
            prop_assert!(one > 0 && alone.bytes() > one);
            prop_assert_eq!(store.bytes(), 3 * alone.bytes());
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
        (0..side.grams.len()).map(|i| window(&side.chars, i, n).iter().collect()).collect()
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
