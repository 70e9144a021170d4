//! Bring your own data: build a [`MierBenchmark`] from scratch — your
//! records, your intents (as labeled training pairs, exactly how the paper
//! says intents arrive: "known only through the training set"), and run any
//! model of the workspace on it.
//!
//! The scenario: a music-streaming service deduplicating track records,
//! with two intents mined from user feedback — exact recording (Eq.) and
//! "same song, any version" (covers/remasters count as matches).
//!
//! ```sh
//! cargo run --release --example custom_benchmark
//! ```

use flexer::prelude::*;
use flexer_core::{evaluate_on_split, FlexErConfig, FlexErModel, PipelineContext};
use flexer_types::{Intent, LabelMatrix, SplitAssignment, SplitRatios};

fn main() {
    // --- 1. Records: track titles from two ingested catalogues. ---
    let titles: Vec<(&str, usize, usize)> = vec![
        // (title, recording entity, song entity)
        ("Hallelujah - Jeff Buckley", 0, 0),
        ("Jeff Buckley - Hallelujah (Remastered)", 0, 0),
        ("Hallelujah (Live at Sin-e) - Jeff Buckley", 1, 0),
        ("Hallelujah - Leonard Cohen", 2, 0),
        ("Leonard Cohen - Hallelujah [1984]", 2, 0),
        ("Hurt - Nine Inch Nails", 3, 1),
        ("Nine Inch Nails - Hurt (album version)", 3, 1),
        ("Hurt - Johnny Cash", 4, 1),
        ("Johnny Cash - Hurt (American IV)", 4, 1),
        ("Respect - Aretha Franklin", 5, 2),
        ("Aretha Franklin - Respect (remaster 2014)", 5, 2),
        ("Respect - Otis Redding", 6, 2),
        ("Otis Redding - Respect (Stax)", 6, 2),
        ("Imagine - John Lennon", 7, 3),
        ("John Lennon - Imagine (Ultimate Mix)", 7, 3),
        ("Imagine - A Perfect Circle", 8, 3),
    ];
    let dataset =
        Dataset::from_records(titles.iter().map(|(t, _, _)| Record::with_title(0, *t)).collect());

    // --- 2. Intents as entity mappings (the generator of pair labels). ---
    let recording = EntityMap::new(titles.iter().map(|&(_, r, _)| r as u64).collect());
    let song = EntityMap::new(titles.iter().map(|&(_, _, s)| s as u64).collect());
    let intents = IntentSet::new(vec![Intent::equivalence(0), Intent::named(1, "Same-Song")]);

    // --- 3. Candidate pairs: all cross pairs (tiny dataset; in production
    //        a blocker would produce these — see flexer_block::block).
    let mut pairs = Vec::new();
    for i in 0..dataset.len() {
        for j in i + 1..dataset.len() {
            pairs.push(PairRef::new(i, j).unwrap());
        }
    }
    let candidates = CandidateSet::from_pairs(pairs);

    // --- 4. Labels derived from the mappings; 3:1:1 split. ---
    let columns: Vec<Vec<bool>> = [&recording, &song]
        .iter()
        .map(|theta| Resolution::golden(&candidates, theta).unwrap().mask().to_vec())
        .collect();
    let labels = LabelMatrix::from_columns(&columns).unwrap();
    let splits = SplitAssignment::random(candidates.len(), SplitRatios::PAPER, 42).unwrap();

    let bench = MierBenchmark {
        name: "tracks".into(),
        dataset,
        candidates,
        intents,
        labels,
        entity_maps: vec![recording, song],
        splits,
    };
    bench.validate().expect("hand-built benchmark is consistent");
    println!(
        "custom benchmark: {} records, {} pairs, intents {:?}",
        bench.dataset.len(),
        bench.n_pairs(),
        bench.intents.names()
    );
    println!("Eq. ⊆ Same-Song in the ground truth: {}", bench.intent_subsumed_by(0, 1));

    // --- 5. Fit FlexER and evaluate. ---
    let mut config = FlexErConfig::fast().with_seed(3);
    config.k = 2; // tiny graph: few neighbours suffice
    let ctx = PipelineContext::new(bench, &config.matcher).expect("valid benchmark");
    let model = FlexErModel::fit(&ctx, &config).expect("pipeline fits");
    let report = evaluate_on_split(&ctx.benchmark, &model.predictions, Split::Test);
    for (p, r) in report.per_intent.iter().enumerate() {
        println!(
            "{:<10} test F1 = {:.3} (P {:.3} / R {:.3})",
            ctx.benchmark.intents[p].name, r.f1, r.precision, r.recall
        );
    }
    println!("MI-Acc (exact intent-vector match) = {:.3}", report.mi_accuracy);
}
