//! The paper's claims at `tiny` scale, seed 17, against a pinned table: a
//! verdict that flips in either direction fails here. README's fidelity
//! table is the `small` run of the same checks (`paper --scale small`).

use flexer_bench::fidelity::{Experiment, Lab};
use flexer_types::Scale;

const PINNED: &[&str] = &[
    "table5 AmazonMI: MI-F: FlexER ≥ Naive — holds",
    "table5 AmazonMI: MI-F: FlexER ≥ In-parallel — FAILS",
    "table5 AmazonMI: MI-F: FlexER ≥ Multi-label — FAILS",
    "table5 AmazonMI: MI-E_F (%) > 0 — FAILS",
    "table5 Walmart-Amazon: MI-F: FlexER ≥ Naive — holds",
    "table5 Walmart-Amazon: MI-F: FlexER ≥ In-parallel — FAILS",
    "table5 Walmart-Amazon: MI-F: FlexER ≥ Multi-label — FAILS",
    "table5 Walmart-Amazon: MI-E_F (%) > 0 — FAILS",
    "table5 WDC: MI-F: FlexER ≥ Naive — holds",
    "table5 WDC: MI-F: FlexER ≥ In-parallel — holds",
    "table5 WDC: MI-F: FlexER ≥ Multi-label — holds",
    "table5 WDC: MI-E_F (%) > 0 — holds",
    "fig6 AmazonMI: eq F1 at k=6: full set ≥ every strict subset — holds",
    "fig6 Walmart-Amazon: eq F1 at k=2: full set ≥ every strict subset — FAILS: 0 vs 0",
    "fig6 WDC: eq F1 at k=8: full set ≥ every strict subset — FAILS",
    "fig7 AmazonMI: PE on Eq.: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 AmazonMI: PE on Brand: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 AmazonMI: PE on Set-Cat.: FlexER ≤ In-parallel — FAILS",
    "fig7 AmazonMI: PE on Main-Cat. & Set-Cat.: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 Walmart-Amazon: PE on Eq.: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 Walmart-Amazon: PE on Main-Cat.: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 WDC: PE on Eq.: FlexER ≤ In-parallel — FAILS: 0 vs 0",
    "fig7 WDC: PE on Cat.: FlexER ≤ In-parallel — holds",
    "table8 AmazonMI: eq F1: k=2 ≥ k=0 — holds",
    "table8 AmazonMI: eq F1: k=4 ≥ k=0 — holds",
    "table8 AmazonMI: eq F1: k=6 ≥ k=0 — holds",
    "table8 AmazonMI: eq F1: k=8 ≥ k=0 — holds",
    "table8 AmazonMI: eq F1: k=10 ≥ k=0 — holds",
    "table8 Walmart-Amazon: eq F1: k=2 ≥ k=0 — FAILS",
    "table8 Walmart-Amazon: eq F1: k=4 ≥ k=0 — FAILS",
    "table8 Walmart-Amazon: eq F1: k=6 ≥ k=0 — FAILS",
    "table8 Walmart-Amazon: eq F1: k=8 ≥ k=0 — FAILS",
    "table8 Walmart-Amazon: eq F1: k=10 ≥ k=0 — FAILS",
    "table8 WDC: eq F1: k=2 ≥ k=0 — holds",
    "table8 WDC: eq F1: k=4 ≥ k=0 — holds",
    "table8 WDC: eq F1: k=6 ≥ k=0 — holds",
    "table8 WDC: eq F1: k=8 ≥ k=0 — FAILS",
    "table8 WDC: eq F1: k=10 ≥ k=0 — holds",
];

#[test]
fn paper_verdicts_at_tiny_are_pinned() {
    let mut lab = Lab::new(17);
    // Table 8 after Fig. 6, whose k sweep has already fitted the full set.
    let experiments = [Experiment::Table5, Experiment::Fig6, Experiment::Fig7, Experiment::Table8];
    let verdicts: Vec<String> = experiments
        .into_iter()
        .flat_map(|e| lab.run(e, Scale::Tiny))
        .map(|c| format!("{} {}: {} — {}", c.experiment, c.dataset, c.claim, c.verdict()))
        .collect();
    let flipped: Vec<_> = verdicts.iter().zip(PINNED).filter(|(got, pin)| got != pin).collect();
    assert!(verdicts.len() == PINNED.len() && flipped.is_empty(), "(ours, pinned): {flipped:#?}");
}
