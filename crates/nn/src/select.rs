//! Model selection: the one rule every fit in the workspace keeps its best
//! epoch by (§5.2.1: "the epoch with the best validation F1"), and the one
//! F1 it is scored with.
//!
//! A fit offers each epoch's validation [`f1`] to a [`Selection`]. The
//! first offer is always kept; a later one replaces it only on a *strictly*
//! higher score, so a tie keeps the earlier epoch. With patience, the fit
//! stops after `patience` offers in a row without improvement. Where the
//! fit offers (before or after its update) and whether it has patience
//! are its own choices, made visible at its call site.

/// Binary F1 over `(predicted, actual)` pairs: `2tp / (2tp + fp + fn)`,
/// 0 without a true positive. One correctly rounded division, so two
/// epochs with mathematically equal F1 get equal bits — and tie.
pub fn f1(pairs: impl IntoIterator<Item = (bool, bool)>) -> f64 {
    let (mut tp, mut wrong) = (0u64, 0u64);
    for (predicted, actual) in pairs {
        tp += u64::from(predicted && actual);
        wrong += u64::from(predicted != actual);
    }
    if tp == 0 {
        return 0.0;
    }
    (2 * tp) as f64 / (2 * tp + wrong) as f64
}

/// The best epoch seen so far, and when to stop looking.
#[derive(Debug, Clone)]
pub struct Selection<T> {
    best: Option<(f64, T)>,
    patience: Option<usize>,
    since_best: usize,
    epochs_run: usize,
}

impl<T> Selection<T> {
    /// A selection that has seen no epoch. `patience: None` never stops.
    pub fn new(patience: Option<usize>) -> Self {
        Self { best: None, patience, since_best: 0, epochs_run: 0 }
    }

    /// Offers one epoch's score; `keep` builds the state to retain and runs
    /// only when this epoch becomes the best. Returns `false` once patience
    /// has run out — the fit should stop before its next update.
    pub fn offer(&mut self, score: f64, keep: impl FnOnce() -> T) -> bool {
        self.epochs_run += 1;
        if self.best.as_ref().map_or(true, |(best, _)| score > *best) {
            self.best = Some((score, keep()));
            self.since_best = 0;
            return true;
        }
        self.since_best += 1;
        self.patience.map_or(true, |patience| self.since_best < patience)
    }

    /// The selected epoch's score and state, and how many epochs were
    /// offered (the one that ran out of patience included). Panics if no
    /// epoch was offered.
    pub fn finish(self) -> (f64, T, usize) {
        let (score, state) = self.best.expect("at least one epoch offered");
        (score, state, self.epochs_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offers `scores` in order, the epoch index as its state, until the
    /// selection says stop.
    fn run(patience: Option<usize>, scores: &[f64]) -> (f64, usize, usize) {
        let mut selection = Selection::new(patience);
        for (epoch, &score) in scores.iter().enumerate() {
            if !selection.offer(score, || epoch) {
                break;
            }
        }
        selection.finish()
    }

    /// `tp`, `fp`, `fn` and `tn` pairs, in that order.
    fn f1_of(tp: usize, fp: usize, fn_: usize, tn: usize) -> f64 {
        let outcomes =
            [(tp, (true, true)), (fp, (true, false)), (fn_, (false, true)), (tn, (false, false))];
        f1(outcomes.into_iter().flat_map(|(n, pair)| std::iter::repeat(pair).take(n)))
    }

    #[test]
    fn an_exact_tie_keeps_the_earlier_epoch() {
        assert_eq!(run(None, &[0.5, 0.7, 0.7, 0.6]), (0.7, 1, 4));
    }

    #[test]
    fn the_first_offer_is_kept_even_at_zero() {
        assert_eq!(run(None, &[0.0, 0.0, 0.0]), (0.0, 0, 3));
        let (mut kept, mut selection) = (0, Selection::new(None));
        for score in [0.0, 0.0, 0.2, 0.1] {
            selection.offer(score, || kept += 1);
        }
        assert_eq!(kept, 2, "`keep` runs on improvement only");
    }

    /// Best at epoch 1; epochs 2, 3 and 4 do not improve, and 4 — counted
    /// in `epochs_run` — stops the fit before 5 is offered.
    #[test]
    fn patience_stops_after_exactly_that_many_non_improving_offers() {
        let scores = [0.1, 0.3, 0.2, 0.3, 0.25, 0.9];
        assert_eq!(run(Some(3), &scores), (0.3, 1, 5));
        assert_eq!(run(None, &scores), (0.9, 5, 6));
        // An improvement resets the count.
        assert_eq!(run(Some(2), &[0.1, 0.0, 0.2, 0.0, 0.0, 0.5]), (0.2, 2, 5));
    }

    #[test]
    fn f1_extremes() {
        assert_eq!(f1_of(2, 0, 0, 3), 1.0);
        assert_eq!(f1_of(0, 0, 2, 0), 0.0);
        assert_eq!(f1_of(0, 1, 0, 1), 0.0);
        assert_eq!(f1([]), 0.0);
    }

    #[test]
    fn f1_middle_case() {
        // tp=1 fp=1 fn=1 → P=0.5 R=0.5 → F1=0.5
        assert_eq!(f1_of(1, 1, 1, 4), 0.5);
    }

    /// Ten validation positives: (tp 1, fp 2) and a later (tp 2, fp 14)
    /// both have F1 = 2/13. `2PR / (P + R)` rounds three times and gives
    /// the later epoch the larger bits; the count formula ties them, and
    /// the tie keeps the earlier epoch.
    #[test]
    fn equal_f1s_tie_and_keep_the_earlier_epoch() {
        let harmonic = |tp: f64, fp: f64, fn_: f64| {
            let (p, r) = (tp / (tp + fp), tp / (tp + fn_));
            2.0 * p * r / (p + r)
        };
        assert!(harmonic(1.0, 2.0, 9.0) < harmonic(2.0, 14.0, 8.0), "the rounding this fixes");
        let (first, later) = (f1_of(1, 2, 9, 20), f1_of(2, 14, 8, 8));
        assert_eq!(first.to_bits(), (2.0f64 / 13.0).to_bits());
        assert_eq!(first.to_bits(), later.to_bits());
        assert_eq!(run(None, &[first, later]), (first, 0, 2));
    }

    #[test]
    #[should_panic(expected = "at least one epoch offered")]
    fn finishing_without_an_offer_panics() {
        let _ = Selection::<()>::new(None).finish();
    }
}
