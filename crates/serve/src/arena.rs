//! Struct-of-arrays storage of the pinned per-depth GNN node states.
//!
//! The warm forward leaves one state vector per `(pair, depth, intent
//! layer)` behind, and the inductive hot path gathers neighbour rows from
//! them on every query. Storing those states as a vector of per-layer
//! `Matrix` values (`pinned[p][j][q]`) meant three pointer hops per gather
//! and a fresh gather `Matrix` per candidate. This arena flattens one
//! intent's states into contiguous row-major buffers — one per `(depth,
//! intent layer)`, keyed by dense pair id — so queries *slice* stored rows
//! ([`PinnedArena::source`] hands the whole buffer to the batched GNN as a
//! [`RowSource`], zero copies) and ingest *appends* rows in place.
//!
//! ```text
//! PinnedArena (intent p)
//!   depth 0 ─ layer 0: [row pair0 | row pair1 | ...]   ← one flat Vec<f32>
//!            ─ layer 1: [row pair0 | row pair1 | ...]
//!   depth 1 ─ layer 0: ...
//! ```
//!
//! Every buffer holds the same number of rows (`n_rows`, one per served
//! pair), which is what makes a dense pair id a direct row offset into all
//! of them.

use flexer_graph::RowSource;

/// Flat per-intent storage of pinned node states: `depths × p_layers`
/// row-major buffers, all `n_rows` tall.
#[derive(Debug)]
pub struct PinnedArena {
    p_layers: usize,
    /// Row width per depth (the GNN's hidden dim of that depth).
    dims: Vec<usize>,
    /// `bufs[depth * p_layers + q]`: rows of layer-`q` nodes at `depth`.
    bufs: Vec<Vec<f32>>,
    n_rows: usize,
}

impl PinnedArena {
    /// An empty arena for `p_layers` intent layers with the given per-depth
    /// row widths (one entry per pinned depth; may be empty for a 1-layer
    /// GNN, which pins nothing).
    pub fn new(p_layers: usize, dims: Vec<usize>) -> Self {
        assert!(p_layers > 0, "at least one intent layer");
        assert!(dims.iter().all(|&d| d > 0), "zero-width pinned states");
        let bufs = vec![Vec::new(); dims.len() * p_layers];
        Self { p_layers, dims, bufs, n_rows: 0 }
    }

    /// Number of pinned depths (GNN layers minus one).
    pub fn depths(&self) -> usize {
        self.dims.len()
    }

    /// Row width at `depth`.
    pub fn dim(&self, depth: usize) -> usize {
        self.dims[depth]
    }

    /// Rows per buffer (= served pairs).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn slot(&self, depth: usize, q: usize) -> usize {
        assert!(q < self.p_layers, "intent layer {q} out of {}", self.p_layers);
        depth * self.p_layers + q
    }

    /// One stored row, by dense pair id.
    pub fn row(&self, depth: usize, q: usize, id: usize) -> &[f32] {
        let d = self.dims[depth];
        &self.bufs[self.slot(depth, q)][id * d..(id + 1) * d]
    }

    /// The whole `(depth, q)` buffer as a zero-copy batched-gather source.
    pub fn source(&self, depth: usize, q: usize) -> RowSource<'_> {
        RowSource::new(&self.bufs[self.slot(depth, q)], self.dims[depth])
    }

    /// Every buffer as a source, `[depth][q]`: a batched pass's `deeper`.
    pub fn sources(&self) -> Vec<Vec<RowSource<'_>>> {
        let at = |depth| (0..self.p_layers).map(|q| self.source(depth, q)).collect();
        (0..self.depths()).map(at).collect()
    }

    /// Bulk-appends whole rows into one buffer — the warm-forward load
    /// path, copying each layer's contiguous block straight out of the
    /// transductive trace. Callers must append the same number of rows to
    /// every buffer and then account for them with
    /// [`add_rows`](Self::add_rows).
    pub fn append_block(&mut self, depth: usize, q: usize, rows: &[f32]) {
        let d = self.dims[depth];
        assert_eq!(rows.len() % d, 0, "block must hold whole rows");
        let slot = self.slot(depth, q);
        self.bufs[slot].extend_from_slice(rows);
    }

    /// Appends one row to one buffer — the ingest path, which interleaves
    /// one row per `(depth, q)` and then calls
    /// [`add_rows`](Self::add_rows)`(1)`.
    pub fn push_row(&mut self, depth: usize, q: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dims[depth], "row width mismatch at depth {depth}");
        let slot = self.slot(depth, q);
        self.bufs[slot].extend_from_slice(row);
    }

    /// Declares `n` freshly appended rows, checking every buffer grew in
    /// lock-step — the invariant that keeps a dense pair id a valid offset
    /// into all `depths × p_layers` buffers at once.
    pub fn add_rows(&mut self, n: usize) {
        self.n_rows += n;
        for (i, buf) in self.bufs.iter().enumerate() {
            let d = self.dims[i / self.p_layers];
            assert_eq!(buf.len(), self.n_rows * d, "buffer {i} out of lock-step");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_block_then_push_row_round_trips() {
        // 2 depths (widths 2 and 3), 2 intent layers.
        let mut arena = PinnedArena::new(2, vec![2, 3]);
        assert_eq!(arena.depths(), 2);
        // Warm load: 2 rows per buffer in one block each.
        arena.append_block(0, 0, &[1.0, 2.0, 3.0, 4.0]);
        arena.append_block(0, 1, &[5.0, 6.0, 7.0, 8.0]);
        arena.append_block(1, 0, &[1.0; 6]);
        arena.append_block(1, 1, &[2.0; 6]);
        arena.add_rows(2);
        // Ingest: one more row everywhere.
        arena.push_row(0, 0, &[9.0, 10.0]);
        arena.push_row(0, 1, &[11.0, 12.0]);
        arena.push_row(1, 0, &[3.0; 3]);
        arena.push_row(1, 1, &[4.0; 3]);
        arena.add_rows(1);

        assert_eq!(arena.n_rows(), 3);
        assert_eq!(arena.row(0, 0, 1), &[3.0, 4.0]);
        assert_eq!(arena.row(0, 1, 2), &[11.0, 12.0]);
        assert_eq!(arena.row(1, 1, 0), &[2.0; 3]);
        let src = arena.source(0, 0);
        assert_eq!(src.n_rows(), 3);
        assert_eq!(src.row(2), &[9.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "out of lock-step")]
    fn uneven_buffers_are_rejected() {
        let mut arena = PinnedArena::new(2, vec![2]);
        arena.push_row(0, 0, &[1.0, 2.0]);
        // Layer 1 never got its row.
        arena.add_rows(1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_row_is_rejected() {
        let mut arena = PinnedArena::new(1, vec![3]);
        arena.push_row(0, 0, &[1.0, 2.0]);
    }

    #[test]
    fn one_layer_gnn_pins_nothing() {
        let mut arena = PinnedArena::new(3, Vec::new());
        assert_eq!(arena.depths(), 0);
        arena.add_rows(5);
        assert_eq!(arena.n_rows(), 5);
    }
}
