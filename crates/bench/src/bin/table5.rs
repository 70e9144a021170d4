//! Table 5 — the MIER headline result: MI-P, MI-R, MI-F (Eq. 8), MI-Acc
//! (Eq. 9) and MI-E_F (Eq. 7, residual-error reduction of FlexER over the
//! In-parallel baseline) for Naïve / In-parallel / Multi-label / FlexER on
//! all three benchmarks.

use flexer_bench::json::{array, write_bench_json, JsonObject};
use flexer_bench::{banner, DatasetKind, HarnessArgs, ModelSuite};
use flexer_core::evaluate_on_split;
use flexer_eval::report::{fmt_metric, fmt_percent};
use flexer_eval::{residual_error_reduction, TextTable};
use flexer_types::Split;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    banner("Table 5: multiple intent results", &args);
    let mut json_datasets: Vec<String> = Vec::new();

    for kind in DatasetKind::ALL {
        let bench = kind.generate(args.scale, args.seed);
        let n_pairs = bench.n_pairs();
        eprintln!("[table5] fitting 4 models on {} ({} pairs)...", kind.name(), n_pairs);
        let t_fit = Instant::now();
        let suite = ModelSuite::fit(bench, args.scale, args.seed);
        let fit_secs = t_fit.elapsed().as_secs_f64();

        let mut table = TextTable::new(&[
            "Model", "MI-P", "MI-R", "MI-F", "MI-Acc", "MI-EF", "| PAPER", "MI-P", "MI-R", "MI-F",
            "MI-Acc", "MI-EF",
        ]);
        let baseline_f1 =
            evaluate_on_split(&suite.ctx.benchmark, &suite.in_parallel.predictions, Split::Test)
                .mi_f1;
        let mut json_models: Vec<String> = Vec::new();
        for ((name, preds), (_, paper)) in suite.rows().iter().zip(kind.paper_table5()) {
            let r = evaluate_on_split(&suite.ctx.benchmark, preds, Split::Test);
            json_models.push(
                JsonObject::new()
                    .str("model", name)
                    .num("mi_p", r.mi_precision)
                    .num("mi_r", r.mi_recall)
                    .num("mi_f", r.mi_f1)
                    .num("mi_acc", r.mi_accuracy)
                    .render(),
            );
            let ef = if *name == "FlexER" {
                fmt_percent(residual_error_reduction(r.mi_f1, baseline_f1))
            } else {
                "-".to_string()
            };
            let paper_ef = if paper[4].is_nan() { "-".to_string() } else { fmt_percent(paper[4]) };
            table.row(&[
                name.to_string(),
                fmt_metric(r.mi_precision),
                fmt_metric(r.mi_recall),
                fmt_metric(r.mi_f1),
                fmt_metric(r.mi_accuracy),
                ef,
                "|".to_string(),
                fmt_metric(paper[0]),
                fmt_metric(paper[1]),
                fmt_metric(paper[2]),
                fmt_metric(paper[3]),
                paper_ef,
            ]);
        }
        println!("{}", kind.name());
        println!("{}\n", table.render());
        json_datasets.push(
            JsonObject::new()
                .str("dataset", kind.name())
                .int("n_pairs", n_pairs as u64)
                .num("fit_secs", fit_secs)
                .num("pairs_per_sec", n_pairs as f64 / fit_secs)
                .raw("models", array(json_models))
                .render(),
        );
    }

    if args.json {
        let doc = JsonObject::new()
            .str("bench", "table5")
            .str("scale", &args.scale.to_string())
            .int("seed", args.seed)
            .raw("datasets", array(json_datasets))
            .render();
        let path = write_bench_json("table5", &doc).expect("write target/bench/table5.json");
        eprintln!("[table5] wrote {}", path.display());
    }
}
