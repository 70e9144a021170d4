//! The paper's evaluation (§5: Tables 3–9, Figs. 6–7) as one module.
//!
//! A [`Lab`] generates each dataset once per scale and fits its four
//! models (a [`ModelSuite`]) at most once: Tables 5–7 and Fig. 7 read that
//! suite, and Fig. 6, Tables 8 and 9 refit only FlexER from its in-parallel
//! embeddings. Every experiment prints one table, ours beside the paper's,
//! and returns the paper's claims about it as [`Check`]s — verdicts
//! computed from our numbers, never widened until they pass.
//! `tests/fidelity.rs` pins them at `tiny`; README's fidelity table is the
//! `small` run.

use crate::{flexer_config, DatasetKind, ModelSuite};
use flexer_core::prelude::*;
use flexer_eval::report::{fmt_metric, fmt_percent};
use flexer_eval::{preventable_error, residual_error_reduction, BinaryReport, TextTable};
use flexer_graph::{build_intent_graph, train_for_intent};
use flexer_types::{LabelMatrix, MierBenchmark, Scale, Split};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::Instant;
use Experiment::*;

/// The k values Fig. 6 averages over; Table 8 sets the positive ones
/// against k = 0.
const K_VALUES: [usize; 6] = [0, 2, 4, 6, 8, 10];

/// One table or figure of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Experiment {
    Table3,
    Table4,
    Table5,
    Table6,
    Table7,
    Table8,
    Table9,
    Fig6,
    Fig7,
}

impl Experiment {
    /// Every experiment, in the paper's order.
    pub const ALL: [Experiment; 9] =
        [Table3, Table4, Table5, Table6, Table7, Table8, Table9, Fig6, Fig7];

    /// The CLI name (`table3` … `fig7`).
    pub fn name(self) -> &'static str {
        self.describe().0
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The scale it runs at unless one is given: the generation-only
    /// tables at `paper`, the Fig. 6 sweep (|subsets| × |k| GNN fits per
    /// dataset) at `tiny`, everything else at `small`.
    pub fn default_scale(self) -> Scale {
        match self {
            Table3 | Table4 => Scale::Paper,
            Fig6 => Scale::Tiny,
            _ => Scale::Small,
        }
    }

    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Table3 => {
                ("table3", "Table 3: benchmark datasets (tiny ≈ 1/40 of the paper's, small ≈ 1/5)")
            }
            Table4 => ("table4", "Table 4: positive label proportion by dataset and intent"),
            Table5 => ("table5", "Table 5: multiple intent results"),
            Table6 => ("table6", "Table 6: equivalence intent results"),
            Table7 => ("table7", "Table 7: single intent results except equivalence"),
            Table8 => ("table8", "Table 8: analysis of k value (equivalence-intent F1)"),
            Table9 => (
                "table9",
                "Table 9: average run-time of FlexER (seconds; what transfers is the NN-cost \
                 ranking across datasets, driven by |C|^2 — absolute numbers and the NN-vs-GNN \
                 balance depend on embedding width and hardware)",
            ),
            Fig6 => (
                "fig6",
                "Figure 6: eq-intent F1 vs. intent subset in the multiplex graph (paper: the full \
                 intent set wins on every dataset)",
            ),
            Fig7 => ("fig7", "Figure 7: preventable error, FlexER vs. In-parallel"),
        }
    }
}

/// One claim of the paper, evaluated on our numbers. A comparison whose two
/// sides are both 0 is no evidence either way, so it never holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The experiment that makes it (`table5`, `fig6`, …).
    pub experiment: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// The claim, e.g. `MI-F: FlexER ≥ Naive`.
    pub claim: String,
    /// Our value of the claim's left-hand side.
    pub ours: f64,
    /// What it is compared with: a baseline's value or the claim's constant.
    pub reference: f64,
    /// Whether the claim holds on our numbers.
    pub holds: bool,
}

impl Check {
    /// `holds`, `FAILS`, or `FAILS: 0 vs 0` for a comparison of two zeros.
    pub fn verdict(&self) -> &'static str {
        match (self.holds, self.ours == 0.0 && self.reference == 0.0) {
            (true, _) => "holds",
            (false, true) => "FAILS: 0 vs 0",
            (false, false) => "FAILS",
        }
    }
}

/// Renders checks as the verdict table `paper` ends with.
pub fn verdict_table(checks: &[Check]) -> String {
    let value =
        |v: f64| if v != 0.0 && v.abs() < 0.01 { format!("{v:.2e}") } else { format!("{v:.4}") };
    let mut table = text_table("Experiment,Dataset,Claim,Ours,Reference,Verdict");
    for c in checks {
        let (experiment, dataset) = (c.experiment.to_string(), c.dataset.to_string());
        let (ours, reference) = (value(c.ours), value(c.reference));
        table.row(&[experiment, dataset, c.claim.clone(), ours, reference, c.verdict().into()]);
    }
    let holding = checks.iter().filter(|c| c.holds).count();
    format!("== Paper fidelity: {holding} of {} claims hold ==\n{}", checks.len(), table.render())
}

/// Renders the training stage spans every fit of this process recorded on
/// `flexer_obs::global()` — `graph.fit.*` once per GNN epoch,
/// `matcher.fit.*` once per matcher minibatch — as the table `paper` ends
/// with: calls, total seconds (summed over worker threads) and mean µs.
pub fn fit_stage_table() -> String {
    let mut table = text_table("Stage,Calls,Total s,Mean µs");
    for stat in flexer_obs::global().snapshot().spans {
        if stat.name.starts_with("graph.fit.") || stat.name.starts_with("matcher.fit.") {
            let total = format!("{:.3}", stat.sum as f64 / 1e9);
            let mean = format!("{:.1}", stat.mean / 1e3);
            table.row(&[stat.name, stat.count.to_string(), total, mean]);
        }
    }
    format!("== Fit stages (every fit of this run) ==\n{}", table.render())
}

/// What an experiment contributes for one dataset: its columns after
/// `Dataset` (comma-separated), rows, lines printed under the table, and
/// claims as (claim, ours, reference, holds).
#[derive(Default)]
struct Part {
    header: &'static str,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
    claims: Vec<(String, f64, f64, bool)>,
}

/// Runs experiments over datasets that are generated, and whose models are
/// fitted, at most once each.
pub struct Lab {
    seed: u64,
    slots: HashMap<(DatasetKind, Scale), Slot>,
}

/// One dataset at one scale: generated once and held once (by its suite,
/// once that is fitted), and each FlexER refit Fig. 6 and Table 8 ask for
/// fitted once — keyed by (intent subset, k), so Table 8's sweep is
/// Fig. 6's full set.
struct Slot {
    bench: Option<MierBenchmark>,
    suite: Option<ModelSuite>,
    eq_f1: HashMap<(Vec<usize>, usize), f64>,
}

impl Lab {
    /// A lab with nothing generated yet.
    pub fn new(seed: u64) -> Self {
        Self { seed, slots: HashMap::new() }
    }

    /// Runs one experiment at `scale` over every dataset, prints its table;
    /// returns its checks.
    pub fn run(&mut self, exp: Experiment, scale: Scale) -> Vec<Check> {
        let part: fn(&mut Self, DatasetKind, Scale) -> Part = match exp {
            Table3 => Self::table3,
            Table4 => Self::table4,
            Table5 => Self::table5,
            Table6 => |lab, kind, scale| lab.single_intent(kind, scale, true),
            Table7 => |lab, kind, scale| lab.single_intent(kind, scale, false),
            Table8 => Self::table8,
            Table9 => Self::table9,
            Fig6 => Self::fig6,
            Fig7 => Self::fig7,
        };
        let (mut table, mut notes, mut checks) = (None, String::new(), Vec::new());
        for kind in DatasetKind::ALL {
            let Part { header, rows, notes: lines, claims } = part(self, kind, scale);
            let table = table.get_or_insert_with(|| text_table(&format!("Dataset,{header}")));
            for row in rows {
                table.row(&[vec![kind.name().to_string()], row].concat());
            }
            for line in lines {
                notes += &format!("\n{}: {line}", kind.name());
            }
            let (experiment, dataset) = (exp.name(), kind.name());
            for (claim, ours, reference, holds) in claims {
                let holds = holds && !(ours == 0.0 && reference == 0.0);
                checks.push(Check { experiment, dataset, claim, ours, reference, holds });
            }
        }
        println!(
            "== FlexER reproduction :: {} ==\nscale = {scale}, seed = {} (paper numbers shown for \
             reference; shapes, not absolutes, are the target)\n\n{}{notes}\n",
            exp.describe().1,
            self.seed,
            table.expect("three datasets").render()
        );
        checks
    }

    fn slot(&mut self, kind: DatasetKind, scale: Scale) -> &mut Slot {
        let seed = self.seed;
        let generate =
            || Slot { bench: Some(kind.generate(scale, seed)), suite: None, eq_f1: HashMap::new() };
        self.slots.entry((kind, scale)).or_insert_with(generate)
    }

    fn bench(&mut self, kind: DatasetKind, scale: Scale) -> &MierBenchmark {
        let slot = self.slot(kind, scale);
        let held = || slot.bench.as_ref().expect("held until the suite takes it");
        slot.suite.as_ref().map_or_else(held, |suite| &suite.ctx.benchmark)
    }

    fn suite(&mut self, kind: DatasetKind, scale: Scale) -> &ModelSuite {
        let seed = self.seed;
        let slot = self.slot(kind, scale);
        slot.suite.get_or_insert_with(|| {
            eprintln!("[paper] fitting 4 models on {} at --scale {scale}...", kind.name());
            ModelSuite::fit(slot.bench.take().expect("generated"), scale, seed)
        })
    }

    /// Equivalence-intent test F1 of FlexER refitted from the suite's
    /// in-parallel embeddings per `(intent subset, k)` job (§5.5.1), each job
    /// fitted once, in parallel.
    fn eq_f1(&mut self, kind: DatasetKind, scale: Scale, jobs: &[(Vec<usize>, usize)]) -> Vec<f64> {
        let config = flexer_config(scale, self.seed);
        self.suite(kind, scale);
        let slot = self.slot(kind, scale);
        let suite = slot.suite.as_ref().expect("fitted above");
        let (ctx, embeddings) = (&suite.ctx, suite.in_parallel.embeddings());
        let eq = ctx.equivalence_id().expect("benchmarks declare Eq.");
        let test = ctx.test_idx();
        let on_test = |column: &[bool]| test.iter().map(|&i| column[i]).collect::<Vec<_>>();
        let golden = on_test(&ctx.benchmark.labels.column(eq));
        let todo: Vec<_> = jobs.iter().filter(|job| !slot.eq_f1.contains_key(*job)).collect();
        let fitted = flexer_par::parallel_map(todo.len(), |i| {
            let (subset, k) = todo[i];
            let config = config.clone().with_k(*k);
            let trained = FlexErModel::fit_subset_for_target(ctx, &embeddings, subset, eq, &config)
                .expect("subset fit");
            BinaryReport::from_predictions(&on_test(&trained.preds), &golden).f1
        });
        slot.eq_f1.extend(todo.into_iter().cloned().zip(fitted));
        jobs.iter().map(|job| slot.eq_f1[job]).collect()
    }

    /// Every intent subset Fig. 6 builds the multiplex graph from: the
    /// equivalence intent plus each non-empty subset of the others, the
    /// full set last.
    fn subsets(&mut self, kind: DatasetKind, scale: Scale) -> Vec<Vec<usize>> {
        let intents = &self.bench(kind, scale).intents;
        let eq = intents.equivalence_id().expect("benchmarks declare Eq.");
        let others: Vec<usize> = (0..intents.len()).filter(|&p| p != eq).collect();
        (1u32..1 << others.len())
            .map(|mask| {
                let chosen = others.iter().enumerate().filter(|(bit, _)| mask >> bit & 1 == 1);
                std::iter::once(eq).chain(chosen.map(|(_, &p)| p)).collect()
            })
            .collect()
    }

    fn table3(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let bench = self.bench(kind, scale);
        bench.validate().expect("benchmark validates");
        let (records, pairs, intents) = kind.paper_cardinalities();
        let counts =
            [bench.dataset.len(), bench.n_pairs(), bench.n_intents(), records, pairs, intents];
        Part {
            header: "#Records,#Pairs,#Intents,PAPER #Records,PAPER #Pairs,PAPER #Intents",
            rows: vec![counts.iter().map(usize::to_string).collect()],
            ..Part::default()
        }
    }

    fn table4(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let bench = self.bench(kind, scale);
        let pct = |v: f64| format!("{:.1}%", 100.0 * v);
        let rows = kind.paper_positive_rates().iter().enumerate().map(|(p, (name, paper))| {
            let ours = Split::ALL.map(|s| pct(bench.positive_rate(p, s)));
            [vec![format!("({}) {name}", p + 1)], ours.to_vec(), paper.map(pct).to_vec()].concat()
        });
        Part {
            header: "Intent,Train,Valid,Test,PAPER Train,PAPER Valid,PAPER Test",
            rows: rows.collect(),
            ..Part::default()
        }
    }

    /// MI-P/R/F/Acc per model; FlexER's MI-F against every baseline, and
    /// its MI-E_F over In-parallel (Eq. 7) > 0.
    fn table5(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let suite = self.suite(kind, scale);
        let models = suite.rows();
        let mut ours: Vec<[f64; 5]> = models
            .iter()
            .map(|(_, preds)| {
                let r = evaluate_on_split(&suite.ctx.benchmark, preds, Split::Test);
                [r.mi_precision, r.mi_recall, r.mi_f1, r.mi_accuracy, f64::NAN]
            })
            .collect();
        let flexer_f = ours[3][2];
        let ef = residual_error_reduction(flexer_f, ours[1][2]);
        ours[3][4] = ef;
        let mut part = Part {
            header: "Model,MI-P,MI-R,MI-F,MI-Acc,MI-EF,| PAPER,MI-P,MI-R,MI-F,MI-Acc,MI-EF",
            ..Part::default()
        };
        for (((name, _), v), (_, paper)) in models.iter().zip(&ours).zip(kind.paper_table5()) {
            part.rows.push(metric_row(&[name], v, Some(paper)));
        }
        for ((name, _), v) in models.iter().zip(&ours).take(3) {
            part.claims.push((format!("MI-F: FlexER ≥ {name}"), flexer_f, v[2], flexer_f >= v[2]));
        }
        part.claims.push(("MI-E_F (%) > 0".to_string(), ef, 0.0, ef > 0.0));
        part
    }

    /// Tables 6 (`eq_only`: the equivalence intent) and 7 (every other
    /// intent): P/R/F/Acc per intent and model, FlexER's E_F over
    /// In-parallel.
    fn single_intent(&mut self, kind: DatasetKind, scale: Scale, eq_only: bool) -> Part {
        let suite = self.suite(kind, scale);
        let bench = &suite.ctx.benchmark;
        let eq = suite.ctx.equivalence_id().expect("benchmarks declare Eq.");
        let models = &suite.rows()[1..];
        let mut part =
            Part { header: "Intent,Model,P,R,F,Acc,EF,| PAPER,P,R,F,Acc,EF", ..Part::default() };
        for p in (0..bench.n_intents()).filter(|&p| (p == eq) == eq_only) {
            let intent = bench.intents[p].name.as_str();
            let r: Vec<_> = models
                .iter()
                .map(|(_, preds)| evaluate_intent_on_split(bench, preds, p, Split::Test))
                .collect();
            for (i, (model, _)) in models.iter().enumerate() {
                let ef = if i == 2 { residual_error_reduction(r[2].f1, r[0].f1) } else { f64::NAN };
                let mut paper = kind.paper_single_intent().iter();
                let paper = paper.find(|row| row.0 == intent && row.1 == *model);
                let ours = [r[i].precision, r[i].recall, r[i].f1, r[i].accuracy, ef];
                part.rows.push(metric_row(&[intent, model], &ours, paper.map(|row| &row.2)));
            }
        }
        part
    }

    /// Equivalence-intent F1 at k = 0 against each k > 0 on the full graph.
    fn table8(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let full = self.subsets(kind, scale).pop().expect("at least one subset");
        let f1 = self.eq_f1(kind, scale, &K_VALUES.map(|k| (full.clone(), k)));
        let (f0, positive) = (f1[0], K_VALUES[1..].iter().zip(&f1[1..]));
        let avg = f1[1..].iter().sum::<f64>() / positive.len() as f64;
        let mut part =
            Part { header: "k=0,avg k>0,best k>0,| PAPER,k=0,avg k>0", ..Part::default() };
        for (&k, &f) in positive.clone() {
            part.claims.push((format!("eq F1: k={k} ≥ k=0"), f, f0, f >= f0));
        }
        // The first k among equals.
        let best = positive.rev().max_by(|a, b| a.1.total_cmp(b.1)).expect("k > 0 values");
        let (paper_k0, paper_avg) = kind.paper_table8();
        part.rows.push(vec![
            fmt_metric(f0),
            format!("{} ({:+.2}%)", fmt_metric(avg), 100.0 * (avg - f0)),
            format!("k={} {}", best.0, fmt_metric(*best.1)),
            "|".to_string(),
            fmt_metric(paper_k0),
            format!("{} (+{:.2}%)", fmt_metric(paper_avg), 100.0 * (paper_avg - paper_k0)),
        ]);
        part
    }

    /// The one-off k-NN pass over every intent layer against the GNN's
    /// train+test time at 2 and 3 layers (equivalence head).
    fn table9(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let config = flexer_config(scale, self.seed);
        let suite = self.suite(kind, scale);
        let ctx = &suite.ctx;
        let t0 = Instant::now();
        let graph = build_intent_graph(&suite.in_parallel.embeddings(), config.k);
        let nn_secs = t0.elapsed().as_secs_f64();
        let eq = ctx.equivalence_id().expect("benchmarks declare Eq.");
        let labels = ctx.benchmark.labels.column(eq);
        let (train, valid) = (ctx.train_idx(), ctx.valid_idx());
        let timed = |n_layers: usize| {
            let gnn = GnnConfig { n_layers, ..config.gnn.clone() };
            let t = Instant::now();
            train_for_intent(&graph, eq, &labels, &train, &valid, &gnn);
            t.elapsed().as_secs_f64()
        };
        let ours = [nn_secs, timed(2), timed(3)].map(|s| format!("{s:.2}"));
        let (p_nn, p2, p3) = kind.paper_table9();
        let paper = [p_nn, p2, p3].map(|s| format!("{s:.1}"));
        Part {
            header: "NN Computation,Train+Test (2L),Train+Test (3L),| PAPER(GPU),NN,2L,3L",
            rows: vec![[&ours[..], &["|".to_string()], &paper].concat()],
            ..Part::default()
        }
    }

    /// Equivalence-intent F1 per intent subset at the dataset's best k and
    /// averaged over k; the full set must match or beat every strict subset
    /// (an all-zero sweep — a head that predicts no positives — is stated).
    fn fig6(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let best_k = kind.paper_fig6_best_k();
        let subsets = self.subsets(kind, scale);
        let jobs: Vec<_> = subsets.iter().flat_map(|s| K_VALUES.map(|k| (s.clone(), k))).collect();
        let f1 = self.eq_f1(kind, scale, &jobs);
        let sweeps: Vec<&[f64]> = f1.chunks(K_VALUES.len()).collect();
        let at = K_VALUES.iter().position(|&k| k == best_k).expect("K_VALUES holds every best k");
        let at_best: Vec<f64> = sweeps.iter().map(|s| s[at]).collect();
        let label = |i: usize| subsets[i].iter().map(|p| (p + 1).to_string()).collect::<String>();
        let mut part = Part { header: "Intents,F1 (best k),F1 (avg k)", ..Part::default() };
        for (i, sweep) in sweeps.iter().enumerate() {
            let avg = sweep.iter().sum::<f64>() / K_VALUES.len() as f64;
            part.rows.push(vec![label(i), fmt_metric(at_best[i]), fmt_metric(avg)]);
        }
        let (&full, strict) = at_best.split_last().expect("at least one subset");
        let by_f1 = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1);
        let (best_i, best) = strict.iter().copied().enumerate().max_by(by_f1).unwrap_or((0, 0.0));
        let outcome = match full.total_cmp(&best) {
            Ordering::Greater => "beats",
            Ordering::Equal => "ties",
            Ordering::Less => "loses to",
        };
        let (f, b, sub) = (fmt_metric(full), fmt_metric(best), label(best_i));
        part.notes.push(if full == 0.0 && best == 0.0 {
            format!("at k={best_k} every subset scores 0: the eq head predicts no positives")
        } else {
            format!("at k={best_k} the full set ({f}) {outcome} the best strict subset {sub} ({b})")
        });
        let claim = format!("eq F1 at k={best_k}: full set ≥ every strict subset");
        part.claims.push((claim, full, best, full >= best));
        part
    }

    /// Preventable error (Eq. 10) of FlexER and In-parallel on every
    /// intent the golden labels show subsumed; FlexER's must not be higher
    /// (0 vs 0 is no evidence).
    fn fig7(&mut self, kind: DatasetKind, scale: Scale) -> Part {
        let suite = self.suite(kind, scale);
        let bench = &suite.ctx.benchmark;
        let mut part = Part {
            header: "Intent,subsumed by,FlexER PE,In-parallel PE,ratio,| PAPER FlexER,In-parallel",
            ..Part::default()
        };
        for (p, subsumers) in bench.subsumption_map().iter().enumerate() {
            if subsumers.is_empty() {
                continue;
            }
            let name = bench.intents[p].name.as_str();
            let flexer = preventable(bench, &suite.flexer.predictions, p, subsumers);
            let base = preventable(bench, &suite.in_parallel.predictions, p, subsumers);
            let ratio = match (flexer > 0.0, base > 0.0) {
                (true, _) => format!("{:.1}x", base / flexer),
                (false, true) => "inf".to_string(),
                (false, false) => "-".to_string(),
            };
            let by: Vec<String> = subsumers.iter().map(|q| (q + 1).to_string()).collect();
            let paper = kind.paper_fig7().iter().find(|row| row.0 == name);
            part.rows.push(vec![
                name.to_string(),
                by.join(","),
                format!("{flexer:.2e}"),
                format!("{base:.2e}"),
                ratio,
                paper.map_or("| -".to_string(), |row| format!("| {:.2e}", row.1)),
                paper.map_or("-".to_string(), |row| format!("{:.2e}", row.2)),
            ]);
            let claim = format!("PE on {name}: FlexER ≤ In-parallel");
            part.claims.push((claim, flexer, base, flexer <= base));
        }
        part
    }
}

/// A table with comma-separated column headers.
fn text_table(header: &str) -> TextTable {
    TextTable::new(&header.split(',').collect::<Vec<_>>())
}

/// One row of the "ours | paper" layout Tables 5–7 share: P/R/F/Acc as
/// `.958`, E_F as `57.6%`, NaN and a missing paper row as `-`.
fn metric_row(lead: &[&str], ours: &[f64; 5], paper: Option<&[f64; 5]>) -> Vec<String> {
    let cells = |v: &[f64; 5]| {
        let ef = if v[4].is_nan() { fmt_metric(v[4]) } else { fmt_percent(v[4]) };
        v[..4].iter().map(|&x| fmt_metric(x)).chain([ef]).collect::<Vec<_>>()
    };
    let lead = lead.iter().map(|s| s.to_string());
    let paper = cells(paper.unwrap_or(&[f64::NAN; 5]));
    lead.chain(cells(ours)).chain(["|".to_string()]).chain(paper).collect()
}

/// Eq. 10 on the test split: intent `p`'s preventable error under `preds`,
/// given the intents that subsume it.
fn preventable(bench: &MierBenchmark, preds: &LabelMatrix, p: usize, subsumers: &[usize]) -> f64 {
    let test = bench.split_indices(Split::Test);
    let column = |m: &LabelMatrix, q: usize| test.iter().map(|&i| m.get(i, q)).collect::<Vec<_>>();
    let sub_preds: Vec<Vec<bool>> = subsumers.iter().map(|&q| column(preds, q)).collect();
    let sub_golden: Vec<Vec<bool>> = subsumers.iter().map(|&q| column(&bench.labels, q)).collect();
    let sub_preds: Vec<&[bool]> = sub_preds.iter().map(Vec::as_slice).collect();
    let sub_golden: Vec<&[bool]> = sub_golden.iter().map(Vec::as_slice).collect();
    preventable_error(&column(preds, p), &column(&bench.labels, p), &sub_preds, &sub_golden)
}
