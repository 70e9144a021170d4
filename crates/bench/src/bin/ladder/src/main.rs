//! `ladder` — the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for what it measures and why.
//!
//! ```text
//! ladder --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
//! ladder [--seed N] [--seconds S] [--aa K]                  every workload, a table, target/ladder.json
//! ```

mod inputs;
mod json;
mod metrics;
mod probes;
mod rung;
mod stats;
mod suite;
mod trace;
mod workload;

use json::Json;
use workload::Outcome;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!("ladder: {problem}");
    eprintln!(
        "usage: ladder [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--aa K] [--smoke]"
    );
    eprintln!(
        "workloads: {}",
        workload::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args =
        Args { workload: None, seed: 17, seconds: 25.0, trace: false, smoke: false, aa: 1 };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(flag) = words.next() {
        let mut value =
            |what: &str| words.next().unwrap_or_else(|| usage(&format!("{flag} expects {what}")));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => {
                args.seed = value("an integer").parse().unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("a number").parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--aa" => {
                args.aa = value("a count").parse().unwrap_or_else(|_| usage("bad --aa"));
                if args.aa == 0 {
                    usage("--aa must be at least 1");
                }
            }
            "--smoke" => args.smoke = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match words.peek().map(String::as_str) {
                    Some("0") => {
                        words.next();
                        false
                    }
                    Some("1") => {
                        words.next();
                        true
                    }
                    _ => true,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

/// The one line a driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(outcome: &Outcome, registry: &[metrics::Metric]) -> String {
    let metrics = outcome.metrics.iter().map(|&(name, value)| {
        let unit = metrics::find(registry, name).map_or("", |m| m.unit);
        (name, Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]))
    });
    Json::object([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::object(metrics)),
    ])
    .render()
}

fn main() {
    let args = parse_args();
    // One thread budget for every parallel region of the product, in every
    // thread of this process (the budget is read from the environment at
    // each region). Set before any thread exists.
    let (nproc, threads) = metrics::thread_budget();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let Some(name) = &args.workload else {
        std::process::exit(suite::run(args.seed, args.seconds, args.aa, args.smoke));
    };
    let spec = workload::find(name).unwrap_or_else(|| usage(&format!("no workload {name}")));
    let smoke;
    let spec = if args.smoke {
        smoke = spec.smoke();
        &smoke
    } else {
        spec
    };
    let (outcome, registry) = if args.trace {
        (probes::run(spec, args.seed), metrics::PER_LAYER)
    } else {
        (workload::run(spec, args.seed, args.seconds), metrics::END_TO_END)
    };
    for problem in &outcome.problems {
        eprintln!("ladder: {}: {problem}", spec.name);
    }
    let provenance = Json::object([
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("nproc", Json::from(nproc)),
        ("thread_budget", Json::from(threads)),
        ("traced", Json::from(args.trace)),
        ("detail", outcome.info.clone()),
    ]);
    println!("info {}", provenance.render());
    println!("{}", result_line(&outcome, registry));
    if !outcome.correct {
        std::process::exit(1);
    }
}
