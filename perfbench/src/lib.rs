//! # wp_perfbench — end-to-end and per-layer benchmark
//!
//! Three workloads, each the run a user starts: `table1_full` (the `table1`
//! binary), `netlist_corpus` (`netlist_run` over the CI corpus) and
//! `dse_walk80` (the `dse` search).  An untraced run times repeated,
//! interleaved passes on the process CPU clock and reports each unit's
//! fastest time; a traced run times the calls into each layer from
//! outside.  See `README.md` for the metric map and the noise notes.

#![warn(missing_docs)]

pub mod clock;
mod corpus;
pub mod layers;
pub mod pins;
mod table1;
mod trace;
mod walk;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use wp_gen::SplitMix64;

use crate::clock::{median, timed};
use crate::corpus::Corpus;
use crate::table1::Table1;
use crate::trace::Trace;
use crate::walk::DseWalk;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric the benchmark prints: name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] = [
    def("pass_cpu_s", "s", Better::Lower),
    def("setup_s", "s", Better::Lower),
    def("peak_rss_mb", "MiB", Better::Lower),
];

/// The per-layer metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 30] = [
    def("soc.build_us", "us", Better::Lower),
    def("golden.mcycles_per_s", "Mcycle/s", Better::Higher),
    def("golden.cycles", "cycle", Better::Lower),
    def("lid.wp1.mcycles_per_s", "Mcycle/s", Better::Higher),
    def("lid.wp2.mcycles_per_s", "Mcycle/s", Better::Higher),
    def("lid.wp1.cycles", "cycle", Better::Lower),
    def("lid.wp2.cycles", "cycle", Better::Lower),
    def("sweep.overhead_s", "s", Better::Lower),
    def("sweep.leases", "count", Better::Lower),
    def("sweep.steals", "count", Better::Lower),
    def("lane.mlane_cycles_per_s", "Mlane-cycle/s", Better::Higher),
    def("oracle.simulated_cycles", "lane-cycle", Better::Lower),
    def("oracle.extrapolated_cycles", "lane-cycle", Better::Higher),
    def("oracle.extrapolated_share", "ratio", Better::Higher),
    def("equiv.s", "s", Better::Lower),
    def("spec.parse_us", "us", Better::Lower),
    def("spec.lower_us", "us", Better::Lower),
    def("gen.generate_us", "us", Better::Lower),
    def("predict.us", "us", Better::Lower),
    def("mcr.solve_us.b10", "us", Better::Lower),
    def("mcr.solve_us.b20", "us", Better::Lower),
    def("mcr.solve_us.b40", "us", Better::Lower),
    def("mcr.solve_us.b80", "us", Better::Lower),
    def("dse.configs_per_s", "1/s", Better::Higher),
    def("dse.scored", "count", Better::Higher),
    def("dse.frontier_points", "count", Better::Higher),
    def("dse.verify_s", "s", Better::Lower),
    def("dse.merge_us", "us", Better::Lower),
    def("ndjson.rows_per_s", "row/s", Better::Higher),
    def("trace.overhead_s", "s", Better::Lower),
];

/// The per-layer metrics that are exact counts: identical between runs of
/// one seed and between the traced and the untraced pass.
pub const EXACT_COUNTS: [&str; 9] = [
    "golden.cycles",
    "lid.wp1.cycles",
    "lid.wp2.cycles",
    "sweep.leases",
    "sweep.steals",
    "oracle.simulated_cycles",
    "oracle.extrapolated_cycles",
    "dse.scored",
    "dse.frontier_points",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// The paper's full Table 1 through the sweep scheduler.
    Table1Full,
    /// `netlist_run`'s pipeline over the CI corpus.
    NetlistCorpus,
    /// The `dse` walk search on an 80-block topology.
    DseWalk80,
}

impl WorkloadName {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Table1Full,
        WorkloadName::NetlistCorpus,
        WorkloadName::DseWalk80,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Table1Full => "table1_full",
            WorkloadName::NetlistCorpus => "netlist_corpus",
            WorkloadName::DseWalk80 => "dse_walk80",
        }
    }

    /// The seed the workload's inputs are made from: every seed of
    /// `netlist_corpus` runs the fixed CI corpus (the seed only orders its
    /// units).
    pub(crate) fn input_seed(self, seed: u64) -> u64 {
        match self {
            WorkloadName::NetlistCorpus => 0,
            _ => seed,
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The built inputs of one workload.
#[derive(Debug)]
pub(crate) enum Inputs {
    /// `table1_full`.
    Table1(Table1),
    /// `netlist_corpus`.
    Corpus(Corpus),
    /// `dse_walk80`.
    Walk(Box<DseWalk>),
}

impl Inputs {
    /// Builds the inputs of `workload` for `seed` (the timed set-up).
    ///
    /// # Errors
    ///
    /// Returns why the inputs could not be built.
    pub fn setup(workload: WorkloadName, seed: u64, trace: &mut Trace) -> Result<Self, String> {
        Ok(match workload {
            WorkloadName::Table1Full => Inputs::Table1(Table1::setup(seed)?),
            WorkloadName::NetlistCorpus => Inputs::Corpus(Corpus::setup(trace)?),
            WorkloadName::DseWalk80 => Inputs::Walk(Box::new(DseWalk::setup(seed))),
        })
    }

    /// Runs one pass over every unit.
    pub fn pass(&mut self, rng: &mut SplitMix64, trace: &mut Trace) -> Vec<UnitResult> {
        match self {
            Inputs::Table1(t) => t.pass(rng, trace),
            Inputs::Corpus(c) => c.pass(rng, trace),
            Inputs::Walk(w) => w.pass(rng, trace),
        }
    }
}

/// What one timed unit produced: its process CPU seconds and the digest
/// of its simulated statistics, or why it failed.
#[derive(Debug, Clone)]
pub(crate) struct UnitResult {
    /// Process CPU seconds of the unit.
    pub seconds: f64,
    /// Digest of the unit's simulated statistics.
    pub digest: Result<u64, String>,
}

/// Runs units `0..n` in an order drawn from `rng` (Fisher–Yates) and
/// returns their results in unit order.
pub(crate) fn in_shuffled_order(
    n: usize,
    rng: &mut SplitMix64,
    mut unit: impl FnMut(usize) -> UnitResult,
) -> Vec<UnitResult> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut results = vec![None; n];
    for i in order {
        results[i] = Some(unit(i));
    }
    results
        .into_iter()
        .map(|r| r.expect("every unit ran"))
        .collect()
}

/// The result line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units that failed or whose statistics differed from the reference.
    pub failed: u64,
    /// Metric values, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Report {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// The one-line JSON result.  Values print in Rust's shortest
    /// round-trip form, so every measured digit survives.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (d, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is a failed measurement, never a number.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Fresh set-ups timed per round: a set-up takes well under a millisecond,
/// so a few per round give `setup_s` a steady median at no cost to the run.
const SETUP_REPEATS: usize = 3;
/// Rounds an untraced run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The pass-order generator of a run (independent of the input seed's
/// own generators).
pub(crate) fn order_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x6f72_6465_7273_6565)
}

/// Checks a pass against the reference digests: every unit that failed
/// or whose statistics differ counts as failed.
fn count_failures(results: &[UnitResult], reference: &[Result<u64, String>]) -> u64 {
    results
        .iter()
        .zip(reference)
        .filter(|(r, reference)| match (&r.digest, reference) {
            (Ok(d), Ok(expected)) => d != expected,
            (Err(e), _) => {
                eprintln!("unit failed: {e}");
                true
            }
            (Ok(_), Err(_)) => true,
        })
        .count() as u64
}

/// Whether another round of `last` wall time still ends by `deadline`
/// (always, until `min_rounds` rounds have run).
pub(crate) fn another_round(
    rounds: usize,
    min_rounds: usize,
    last: Duration,
    deadline: Instant,
) -> bool {
    rounds < min_rounds || Instant::now() + last <= deadline
}

/// An untraced run: a warm-up set-up and pass fix the reference
/// statistics, then rounds of fresh set-ups and a pass in a freshly drawn
/// unit order repeat while another round still fits in `seconds`.
///
/// `pass_cpu_s` is the sum over units of each unit's fastest CPU time:
/// interference from the host only ever adds time, and on a shared host it
/// moves a unit's time by up to 1.7× from one pass to the next, in a mix
/// that drifts over minutes (see `README.md`).  `setup_s` is the median
/// set-up and `peak_rss_mb` the process's peak resident memory.
///
/// # Errors
///
/// Returns why the inputs could not be built.
pub fn run(workload: WorkloadName, seed: u64, seconds: f64) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rng = order_rng(seed);
    let mut off = Trace::new(false);
    let mut inputs = Inputs::setup(workload, seed, &mut off)?;
    let reference: Vec<Result<u64, String>> = inputs
        .pass(&mut rng, &mut off)
        .into_iter()
        .map(|r| r.digest)
        .collect();
    let mut attempted = reference.len() as u64;
    let mut failed = reference.iter().filter(|d| d.is_err()).count() as u64
        + pins::mismatches(workload, seed, &reference);
    for e in reference.iter().filter_map(|d| d.as_ref().err()) {
        eprintln!("unit failed: {e}");
    }
    let mut setups = Vec::new();
    let mut fastest = vec![f64::INFINITY; reference.len()];
    let mut rounds = 0;
    let mut last = Duration::ZERO;
    while another_round(rounds, MIN_ROUNDS, last, deadline) {
        let start = Instant::now();
        for _ in 0..SETUP_REPEATS {
            let (built, seconds) = timed(|| Inputs::setup(workload, seed, &mut off));
            inputs = built?;
            setups.push(seconds);
        }
        let results = inputs.pass(&mut rng, &mut off);
        failed += count_failures(&results, &reference);
        attempted += results.len() as u64;
        for (best, r) in fastest.iter_mut().zip(&results) {
            *best = best.min(r.seconds);
        }
        rounds += 1;
        last = start.elapsed();
    }
    eprintln!(
        "{}: {rounds} rounds of {} units, {} set-ups",
        workload.name(),
        reference.len(),
        setups.len()
    );
    let rss = clock::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            (END_TO_END[0], fastest.iter().sum()),
            (END_TO_END[1], median(&setups)),
            (END_TO_END[2], rss),
        ],
    })
}
