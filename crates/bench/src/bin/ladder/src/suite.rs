//! The one command: every workload, untraced then traced, each in its own
//! child process (so peak RSS and allocator state do not leak from one
//! workload into the next), a table of every metric by name, and
//! `target/ladder.json`.

use crate::json::Json;
use crate::metrics::{self, Metric};
use crate::stats;
use crate::workload::WORKLOADS;
use std::process::Command;

/// One child's parsed output: its `info` line and its result line.
struct ChildRun {
    workload: &'static str,
    info: Json,
    result: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
            && self.result.get("failed").and_then(Json::as_u64) == Some(0)
    }
}

fn run_child(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr (failed checks) is
    // passed through.
    let output =
        command.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| format!("{workload}: no output"))?;
    let result = Json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?;
    let info = lines
        .find_map(|line| line.strip_prefix("info "))
        .and_then(|text| Json::parse(text).ok())
        .unwrap_or(Json::Null);
    Ok(ChildRun { workload, info, result })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One row per metric: name, unit, direction, a value per workload, and
/// the registry's note (end to end: the definition; per layer: what the
/// metric should move).
fn print_table(title: &str, registry: &[Metric], runs: &[ChildRun]) {
    println!("\n-- {title}");
    print!("{:<44} {:<8} {:<7}", "metric", "unit", "better");
    for run in runs {
        print!(" {:>14}", run.workload);
    }
    println!("  note");
    for metric in registry {
        print!("{:<44} {:<8} {:<7}", metric.name, metric.unit, metric.better.as_str());
        for run in runs {
            match run.metric(metric.name) {
                Some(v) => print!(" {:>14}", format_value(v)),
                None => print!(" {:>14}", "-"),
            }
        }
        println!("  {}", metric.note);
    }
}

fn format_value(v: f64) -> String {
    let magnitude = v.abs();
    if magnitude >= 1e5 {
        format!("{v:.0}")
    } else if magnitude >= 100.0 {
        format!("{v:.1}")
    } else if magnitude >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn run_json(run: &ChildRun) -> Json {
    Json::object([
        ("workload", Json::from(run.workload)),
        ("result", run.result.clone()),
        ("info", run.info.clone()),
    ])
}

pub fn run(seed: u64, seconds: f64, aa: usize, smoke: bool) -> i32 {
    let (nproc, threads) = metrics::thread_budget();
    let provenance = Json::object([
        ("seed", Json::from(seed)),
        ("nominal_seconds", Json::from(seconds)),
        ("nproc", Json::from(nproc)),
        ("thread_budget", Json::from(threads)),
        ("smoke", Json::from(smoke)),
        ("rustc", Json::from(tool_version("rustc", &["--version"]))),
        ("git_commit", Json::from(tool_version("git", &["rev-parse", "HEAD"]))),
    ]);
    println!("== ladder {}", provenance.render());
    for spec in &WORKLOADS {
        println!("{:<14} {}", spec.name, spec.why);
    }

    // Every workload once, each in a child of its own; a child that cannot
    // be run or parsed, is incorrect or failed an operation fails the suite.
    let mut ok = true;
    let mut run_all = |label: &str, trace: bool| -> Vec<ChildRun> {
        let mut runs = Vec::new();
        for spec in &WORKLOADS {
            eprintln!("[ladder] {label}: {}", spec.name);
            match run_child(spec.name, seed, seconds, trace, smoke) {
                Ok(run) => {
                    ok &= run.correct();
                    runs.push(run);
                }
                Err(e) => {
                    eprintln!("ladder: {e}");
                    ok = false;
                }
            }
        }
        runs
    };
    let passes: Vec<Vec<ChildRun>> =
        (1..=aa).map(|pass| run_all(&format!("untraced pass {pass}/{aa}"), false)).collect();
    let traced = run_all("traced", true);

    let first = &passes[0];
    print_table("end to end (untraced run)", metrics::END_TO_END, first);
    println!("\n-- samples behind the end-to-end metrics");
    for run in first {
        println!(
            "{:<14} {}",
            run.workload,
            run.info.get("detail").map_or_else(String::new, Json::render)
        );
    }
    print_table("per layer (traced run; never feeds the table above)", metrics::PER_LAYER, &traced);

    // A/A: the same build, the same seed, run again — what is left is noise.
    let mut spreads = Vec::new();
    if aa > 1 {
        println!("\n-- A/A relative spread over {aa} passes: (max - min) / median");
        print!("{:<44}", "metric");
        for spec in &WORKLOADS {
            print!(" {:>14}", spec.name);
        }
        println!();
        for metric in metrics::END_TO_END {
            print!("{:<44}", metric.name);
            for spec in &WORKLOADS {
                let values: Vec<f64> = passes
                    .iter()
                    .filter_map(|runs| runs.iter().find(|r| r.workload == spec.name))
                    .filter_map(|run| run.metric(metric.name))
                    .collect();
                if values.len() == aa {
                    let spread = stats::relative_range(&values);
                    print!(" {:>14}", format!("{:.2}%", spread * 100.0));
                    spreads.push(Json::object([
                        ("metric", Json::from(metric.name)),
                        ("workload", Json::from(spec.name)),
                        ("relative_range", Json::from(spread)),
                    ]));
                } else {
                    print!(" {:>14}", "-");
                }
            }
            println!();
        }
    }

    let doc = Json::object([
        ("provenance", provenance),
        (
            "untraced_passes",
            Json::Array(
                passes
                    .iter()
                    .map(|runs| Json::Array(runs.iter().map(run_json).collect()))
                    .collect(),
            ),
        ),
        ("traced", Json::Array(traced.iter().map(run_json).collect())),
        ("aa_spread", Json::Array(spreads)),
    ]);
    let written = std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write("target/ladder.json", doc.render() + "\n"));
    match written {
        Ok(()) => println!("\nwrote target/ladder.json"),
        Err(e) => {
            eprintln!("ladder: target/ladder.json: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!("ladder: FAILED — a run was incorrect, failed operations, or did not finish");
    }
    i32::from(!ok)
}
