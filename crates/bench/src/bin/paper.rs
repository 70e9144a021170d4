//! `paper`: the FlexER paper's evaluation (Tables 3–9, Figs. 6–7), ours
//! beside the paper's, then a verdict table of its claims
//! ([`flexer_bench::fidelity`]), then the time every fit spent per stage
//! ([`flexer_bench::fidelity::fit_stage_table`]). With no experiment named
//! it runs all nine; without `--scale` each runs at its own default.
//!
//! ```text
//! cargo run --release --bin paper -- [table3 … fig7] [--scale tiny|small|paper] [--seed N]
//! ```

use flexer_bench::fidelity::{fit_stage_table, verdict_table, Experiment, Lab};
use flexer_types::Scale;

fn main() {
    let (mut experiments, mut scale, mut seed) = (Vec::new(), None, 17u64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = Some(args.next().and_then(|s| Scale::parse(&s)).unwrap_or_else(usage))
            }
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(usage),
            name => experiments.push(Experiment::parse(name).unwrap_or_else(usage)),
        }
    }
    if experiments.is_empty() {
        experiments = Experiment::ALL.to_vec();
    }
    let mut lab = Lab::new(seed);
    let checks: Vec<_> =
        experiments.iter().flat_map(|&e| lab.run(e, scale.unwrap_or(e.default_scale()))).collect();
    if !checks.is_empty() {
        println!("{}", verdict_table(&checks));
    }
    println!("{}", fit_stage_table());
}

fn usage<T>() -> T {
    eprintln!("usage: paper [table3 … table9 fig6 fig7] [--scale tiny|small|paper] [--seed N]");
    std::process::exit(2)
}
