//! The batched inductive forward must be **bit-identical** to N
//! independent per-candidate [`GnnModel::forward_inductive`] calls — the
//! correctness contract of the data-oriented serving hot path — for any
//! layer stack, intent count, neighbour-list shape and thread count. And
//! the pass the serving tier runs — several GNNs over one batch, the first
//! concat shared, each last layer restricted to its target intent layer —
//! must return the bits of the every-row pass on every row it evaluates.

use flexer_graph::{BatchPass, GnnModel, NeighborArena, RowSource};
use flexer_nn::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random stream (test fixture only).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % m.max(1)
    }

    fn next_f32(&mut self) -> f32 {
        self.next(2048) as f32 / 1024.0 - 1.0
    }
}

/// One synthetic serving state: pinned per-depth stored states, a batch of
/// candidates with per-layer neighbour lists (possibly empty), and the
/// candidates' stacked features.
struct Fixture {
    /// `stored[t][q]`: flat `n_stored × width(t)` buffer.
    stored: Vec<Vec<Vec<f32>>>,
    /// Per (depth) source row width.
    widths: Vec<usize>,
    /// `neighbors[c][q]`: dense stored ids, rank order.
    neighbors: Vec<Vec<Vec<usize>>>,
    /// `(B·P) × dim` stacked candidate features.
    new_features: Matrix,
    p_layers: usize,
}

impl Fixture {
    fn generate(
        dim: usize,
        hidden_dims: &[usize],
        p_layers: usize,
        n_stored: usize,
        b: usize,
        max_k: usize,
        seed: u64,
    ) -> Self {
        let mut lcg = Lcg(seed);
        let mut widths = vec![dim];
        widths.extend(hidden_dims[..hidden_dims.len() - 1].iter().copied());
        let stored: Vec<Vec<Vec<f32>>> = widths
            .iter()
            .map(|&w| {
                (0..p_layers).map(|_| (0..n_stored * w).map(|_| lcg.next_f32()).collect()).collect()
            })
            .collect();
        let neighbors: Vec<Vec<Vec<usize>>> = (0..b)
            .map(|_| {
                (0..p_layers)
                    .map(|_| {
                        let k = lcg.next(max_k as u64 + 1) as usize;
                        (0..k).map(|_| lcg.next(n_stored as u64) as usize).collect()
                    })
                    .collect()
            })
            .collect();
        let new_features = Matrix::from_fn(b * p_layers, dim, |_, _| lcg.next_f32());
        Self { stored, widths, neighbors, new_features, p_layers }
    }

    /// The per-candidate gather the existing serving path performs.
    fn per_candidate_inputs(&self, candidate: usize, n_layers: usize) -> Vec<Vec<Matrix>> {
        (0..n_layers)
            .map(|t| {
                let w = self.widths[t];
                (0..self.p_layers)
                    .map(|q| {
                        let ids = &self.neighbors[candidate][q];
                        let mut m = Matrix::zeros(ids.len(), w);
                        for (row, &id) in ids.iter().enumerate() {
                            m.row_mut(row)
                                .copy_from_slice(&self.stored[t][q][id * w..(id + 1) * w]);
                        }
                        m
                    })
                    .collect()
            })
            .collect()
    }

    fn flat_arena(&self) -> (Vec<u32>, Vec<usize>) {
        let mut ids = Vec::new();
        let mut offsets = vec![0usize];
        for lists in &self.neighbors {
            for l in lists {
                ids.extend(l.iter().map(|&id| id as u32));
                offsets.push(ids.len());
            }
        }
        (ids, offsets)
    }

    fn sources(&self, n_layers: usize) -> Vec<Vec<RowSource<'_>>> {
        (0..n_layers)
            .map(|t| {
                (0..self.p_layers)
                    .map(|q| RowSource::new(&self.stored[t][q], self.widths[t]))
                    .collect()
            })
            .collect()
    }
}

/// Runs both paths over one fixture and asserts bit-identity of logits,
/// every pinned depth state, and the softmax scores.
fn assert_batch_matches(model: &GnnModel, fx: &Fixture) {
    let b = fx.neighbors.len();
    let (ids, offsets) = fx.flat_arena();
    let arena = NeighborArena::new(&ids, &offsets, fx.p_layers);
    let sources = fx.sources(model.n_layers());
    let batch = model.forward_inductive_batch(&fx.new_features, &arena, &sources);
    assert_eq!(batch.n_candidates(), b);

    for c in 0..b {
        let rows: Vec<usize> = (0..fx.p_layers).map(|q| c * fx.p_layers + q).collect();
        let features = fx.new_features.select_rows(&rows);
        let single =
            model.forward_inductive(&features, &fx.per_candidate_inputs(c, model.n_layers()));
        for q in 0..fx.p_layers {
            assert_eq!(
                batch.logits.row(c * fx.p_layers + q),
                single.logits.row(q),
                "logits diverge: candidate {c}, layer {q}"
            );
            for t in 0..model.n_layers() {
                assert_eq!(
                    batch.candidate_hidden(t, c, q),
                    single.hidden[t].row(q),
                    "hidden state diverges: candidate {c}, layer {q}, depth {t}"
                );
            }
        }
        let batch_scores: Vec<f32> = (0..fx.p_layers).map(|q| batch.score(c, q)).collect();
        assert_eq!(batch_scores, single.scores(), "scores diverge: candidate {c}");
    }
}

#[test]
fn batched_forward_is_bit_identical_across_architectures() {
    let mut rng = StdRng::seed_from_u64(21);
    for (dims, p) in [(vec![5usize, 5], 3usize), (vec![6, 3, 3], 2), (vec![7], 2)] {
        let dim = 4;
        let model = GnnModel::new(&mut rng, dim, &dims);
        let fx = Fixture::generate(dim, &dims, p, 17, 6, 4, 0xC0FFEE ^ dims.len() as u64);
        assert_batch_matches(&model, &fx);
    }
}

#[test]
fn batched_forward_handles_empty_batch_and_empty_neighbours() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = GnnModel::new(&mut rng, 3, &[4, 4]);
    // Every candidate isolated (all k-NN lists empty).
    let mut fx = Fixture::generate(3, &[4, 4], 2, 9, 4, 0, 77);
    assert!(fx.neighbors.iter().all(|ls| ls.iter().all(|l| l.is_empty())));
    assert_batch_matches(&model, &fx);
    // Zero candidates: a degenerate but reachable serving state.
    fx.neighbors.clear();
    fx.new_features = Matrix::zeros(0, 3);
    let (ids, offsets) = fx.flat_arena();
    let arena = NeighborArena::new(&ids, &offsets, 2);
    let batch = model.forward_inductive_batch(&fx.new_features, &arena, &fx.sources(2));
    assert_eq!(batch.n_candidates(), 0);
    assert_eq!(batch.logits.rows(), 0);
}

/// The batched kernel must not depend on the thread budget: one thread and
/// many threads produce byte-equal traces (the flexer-par contract).
#[test]
fn batched_forward_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(33);
    let dims = vec![6usize, 6];
    let model = GnnModel::new(&mut rng, 5, &dims);
    // Large enough batch to cross the internal fan-out thresholds.
    let fx = Fixture::generate(5, &dims, 3, 64, 48, 8, 1234);
    let (ids, offsets) = fx.flat_arena();
    let arena = NeighborArena::new(&ids, &offsets, fx.p_layers);
    let sources = fx.sources(model.n_layers());
    let serial = flexer_par::with_threads(1, || {
        model.forward_inductive_batch(&fx.new_features, &arena, &sources)
    });
    let parallel = flexer_par::with_threads(8, || {
        model.forward_inductive_batch(&fx.new_features, &arena, &sources)
    });
    assert_eq!(serial.logits, parallel.logits);
    assert_eq!(serial.hidden, parallel.hidden);
}

/// Runs `models[i]` restricted to `targets[i]` as one shared call and
/// asserts every evaluated row against the model's own every-row pass and
/// against the per-candidate oracle: lower layers whole, last layer and
/// logits on the target rows. Returns the traces for the caller's counts.
fn assert_passes_match(
    models: &[&GnnModel],
    targets: &[usize],
    fx: &Fixture,
) -> Vec<flexer_graph::BatchInductiveTrace> {
    let (p, b) = (fx.p_layers, fx.neighbors.len());
    let (ids, offsets) = fx.flat_arena();
    let arena = NeighborArena::new(&ids, &offsets, p);
    let depth = models.iter().map(|m| m.n_layers()).max().unwrap_or(1);
    let sources = fx.sources(depth);
    let passes: Vec<BatchPass<'_>> = models
        .iter()
        .zip(targets)
        .map(|(&model, &q)| BatchPass {
            model,
            deeper: &sources[1..model.n_layers()],
            target: Some(q),
        })
        .collect();
    let traces = GnnModel::forward_inductive_passes(&fx.new_features, &arena, &sources[0], &passes);
    assert_eq!(traces.len(), models.len());
    for ((trace, &model), &q) in traces.iter().zip(models).zip(targets) {
        let last = model.n_layers() - 1;
        let whole = model.forward_inductive_batch(&fx.new_features, &arena, &sources[..last + 1]);
        assert_eq!(trace.n_candidates(), b);
        assert_eq!(trace.target, Some(q));
        assert_eq!(trace.hidden[..last], whole.hidden[..last], "lower layers must stay whole");
        assert_eq!(trace.hidden[last].rows(), b, "last layer: one row per candidate");
        assert_eq!(trace.logits.rows(), b, "logits: one row per candidate");
        for c in 0..b {
            assert_eq!(trace.candidate_hidden(last, c, q), whole.candidate_hidden(last, c, q));
            assert_eq!(trace.logits.row(c), whole.logits.row(c * p + q));
            assert_eq!(trace.score(c, q).to_bits(), whole.score(c, q).to_bits());
            let rows: Vec<usize> = (0..p).map(|r| c * p + r).collect();
            let single = model.forward_inductive(
                &fx.new_features.select_rows(&rows),
                &fx.per_candidate_inputs(c, model.n_layers()),
            );
            assert_eq!(trace.logits.row(c), single.logits.row(q), "candidate {c}, target {q}");
            assert_eq!(trace.score(c, q).to_bits(), single.scores()[q].to_bits());
            for t in 0..last {
                for r in 0..p {
                    assert_eq!(trace.candidate_hidden(t, c, r), single.hidden[t].row(r));
                }
            }
            assert_eq!(trace.candidate_hidden(last, c, q), single.hidden[last].row(q));
        }
    }
    traces
}

/// Layer count × P × k × B (B % 4 ≠ 0 runs the GEMM's tail kernel) ×
/// every target, the P GNNs of one "model" in one call: the
/// restricted pass equals the matching rows of the every-row pass and of
/// `forward_inductive`, and the first concat is built once for all of them
/// (a one-layer GNN's first layer is its last: target rows, built per GNN).
#[test]
fn restricted_shared_pass_matches_every_row_pass() {
    let dim = 4;
    for dims in [vec![6usize], vec![5, 5], vec![6, 3, 3]] {
        for p in 1..=5usize {
            let mut rng = StdRng::seed_from_u64(77 + p as u64);
            let gnns: Vec<GnnModel> = (0..p).map(|_| GnnModel::new(&mut rng, dim, &dims)).collect();
            let models: Vec<&GnnModel> = gnns.iter().collect();
            let targets: Vec<usize> = (0..p).collect();
            for max_k in [0usize, 1, 6] {
                for b in [0usize, 1, 5, 16] {
                    let seed = (dims.len() * 1000 + p * 100 + max_k * 10 + b) as u64;
                    let fx = Fixture::generate(dim, &dims, p, 19, b, max_k, seed);
                    let traces = assert_passes_match(&models, &targets, &fx);
                    // The first concat once (a one-layer GNN builds
                    // its `b` target rows per pass: as many), every
                    // middle layer whole per pass, `b` rows on top.
                    let last = dims.len() - 1;
                    let built: usize = traces.iter().map(|t| t.concat_rows).sum();
                    let middle = last.saturating_sub(1) * p * (b * p);
                    let top = if last == 0 { 0 } else { p * b };
                    assert_eq!(built, b * p + middle + top, "{dims:?} P={p} B={b}");
                    // One intent per call (the router's shape), and the
                    // passes in another order: same bits.
                    for (q, &model) in models.iter().enumerate() {
                        assert_passes_match(&[model], &[q], &fx);
                    }
                    let rev: Vec<usize> = targets.iter().rev().copied().collect();
                    let rev_models: Vec<&GnnModel> = models.iter().rev().copied().collect();
                    assert_passes_match(&rev_models, &rev, &fx);
                }
            }
        }
    }
}

/// Sharing is decided from the rows a first layer covers: a one-layer
/// GNN's first layer is its last, restricted to its target intent layer,
/// so it neither reuses nor leaves behind a concat a deeper GNN can share,
/// in whichever order the GNNs come, and each still returns its own bits.
#[test]
fn gnns_with_different_first_layers_do_not_share_a_concat() {
    let (dim, p, b) = (4, 3, 5);
    let dims = [5usize, 5];
    let mut rng = StdRng::seed_from_u64(404);
    let deep = GnnModel::new(&mut rng, dim, &dims);
    let deep_too = GnnModel::new(&mut rng, dim, &dims);
    let flat = GnnModel::new(&mut rng, dim, &dims[..1]);
    let fx = Fixture::generate(dim, &dims, p, 19, b, 4, 0xD1FF);
    let built = |models: &[&GnnModel]| -> Vec<usize> {
        let targets: Vec<usize> = (0..models.len()).collect();
        let traces = assert_passes_match(models, &targets, &fx);
        traces.iter().map(|t| t.concat_rows).collect()
    };
    // A two-layer GNN builds its last layer's `b` rows itself, and its
    // first layer's `b·p` unless it shares them.
    let (whole, shared) = (b * p + b, b);
    assert_eq!(built(&[&deep, &deep_too, &flat]), [whole, shared, b]);
    assert_eq!(built(&[&deep, &flat, &deep_too]), [whole, b, whole]);
    assert_eq!(built(&[&flat, &deep]), [b, whole]);
}

/// A restricted trace holds one intent layer's logits, one row per
/// candidate: asking it for another layer must not read a neighbouring
/// candidate's row.
#[test]
#[should_panic(expected = "evaluated intent layer 1 only")]
fn restricted_trace_refuses_another_intent() {
    let mut rng = StdRng::seed_from_u64(8);
    let model = GnnModel::new(&mut rng, 4, &[5, 5]);
    let fx = Fixture::generate(4, &[5, 5], 3, 11, 4, 3, 99);
    let trace = assert_passes_match(&[&model], &[1], &fx).pop().unwrap();
    let _ = trace.score(0, 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn trace_refuses_an_intent_past_the_last_layer() {
    let mut rng = StdRng::seed_from_u64(8);
    let model = GnnModel::new(&mut rng, 4, &[5, 5]);
    let fx = Fixture::generate(4, &[5, 5], 3, 11, 4, 3, 99);
    let (ids, offsets) = fx.flat_arena();
    let arena = NeighborArena::new(&ids, &offsets, 3);
    let trace = model.forward_inductive_batch(&fx.new_features, &arena, &fx.sources(2));
    // Row 0·3 + 3 exists: it is candidate 1's layer-0 node.
    let _ = trace.score(0, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random architectures, intent counts, corpus sizes, batch sizes and
    /// neighbour shapes: the batched pass always reproduces N independent
    /// per-candidate passes to the bit.
    #[test]
    fn batched_forward_matches_per_candidate(
        seed in 0u64..1_000_000,
        p in 1usize..5,
        b in 0usize..7,
        n_stored in 1usize..24,
        max_k in 0usize..6,
        arch in 0usize..3,
    ) {
        let dims: Vec<usize> = match arch {
            0 => vec![5, 5],
            1 => vec![6, 3, 3],
            _ => vec![6],
        };
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = GnnModel::new(&mut rng, dim, &dims);
        let fx = Fixture::generate(dim, &dims, p, n_stored, b, max_k, seed ^ 0x5EED);
        assert_batch_matches(&model, &fx);
    }
}
