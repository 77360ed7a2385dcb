//! `netlist_corpus`: the CI netlist corpus (the four committed specs plus
//! 25 generated topologies at 30 % latency) through `netlist_run`'s
//! pipeline, composed here from the layers' public functions.
//!
//! The corpus is the same for every benchmark seed, which only orders the
//! units: corpora generated from other seeds differ in work by up to a
//! fifth (how many lanes fail to extrapolate), more than the run-to-run
//! noise this workload is meant to resolve.

use wp_bench::MAX_CYCLES;
use wp_core::ShellConfig;
use wp_gen::{generate, GenConfig, SplitMix64};
use wp_netlist::ThroughputModel;
use wp_proc::{soc_spec_context, soc_state, Msg, SocSpecContext, CU, SOC_KINDS};
use wp_sim::{GoldenSimulator, LaneLidSimulator, LaneScenario, RunGoal, Scenario, SweepRunner};
use wp_spec::{lower, synthetic_registry, NetlistSpec};

use crate::clock::timed;
use crate::trace::{Digest, Trace};
use crate::{in_shuffled_order, UnitResult};

/// The committed specs CI runs, embedded at build time.
const COMMITTED: [(&str, &str); 4] = [
    ("examples/soc.nl", include_str!("../../examples/soc.nl")),
    (
        "examples/soc_sort.nl",
        include_str!("../../examples/soc_sort.nl"),
    ),
    (
        "examples/soc_matmul.nl",
        include_str!("../../examples/soc_matmul.nl"),
    ),
    (
        "examples/generated_seed7.nl",
        include_str!("../../examples/generated_seed7.nl"),
    ),
];
/// Generated topologies of the CI corpus (`netlist_run --count 25 --seed
/// 0`).
const GENERATED: u64 = 25;
/// Share of generated channels that declare a wire latency, in percent.
const LATENCY_PERCENT: u8 = 30;
/// Lanes of the throughput batch; lane `k` adds `k` relay stations to the
/// first channel.
const LANES: usize = 8;
/// Firing target of the streamed equivalence run.
const EQUIV_FIRINGS: u64 = 2_000;
/// Firing target of the steady-state lane batch.
const FIRINGS: u64 = 20_000;
/// Measured-vs-exact-MCR tolerance (relative).
const TOLERANCE: f64 = 0.02;

#[derive(Debug)]
enum Kind {
    /// A self-contained SoC spec: run the program to the halt.
    Soc(SocSpecContext),
    /// Processor kinds without workload attributes: nothing to run.
    TopologyOnly,
    /// Strict `fan` blocks: equivalence plus the 8-lane steady state.
    Synthetic,
}

#[derive(Debug)]
struct Entry {
    label: String,
    spec: NetlistSpec,
    kind: Kind,
}

/// The lowered-and-validated corpus.
#[derive(Debug)]
pub struct Corpus {
    entries: Vec<Entry>,
    runner: SweepRunner,
}

impl Corpus {
    /// Parses the committed specs (`spec.parse`), generates the seeded
    /// topologies (`gen.generate`), inserts relay stations and validates
    /// every lowering once (`spec.lower`).
    ///
    /// # Errors
    ///
    /// Returns the first parse, context or lowering error.
    pub fn setup(trace: &mut Trace) -> Result<Self, String> {
        let mut specs = Vec::with_capacity(COMMITTED.len() + GENERATED as usize);
        for (path, text) in COMMITTED {
            let spec = trace
                .span("spec.parse", || NetlistSpec::parse(text))
                .map_err(|e| format!("{path}: {e}"))?;
            specs.push((path.to_string(), spec));
        }
        for seed in 0..GENERATED {
            let cfg = GenConfig {
                seed,
                latency_percent: LATENCY_PERCENT,
                ..GenConfig::default()
            };
            let spec = trace.span("gen.generate", || generate(&cfg));
            specs.push((format!("seed {}", cfg.seed), spec));
        }
        let mut entries = Vec::with_capacity(specs.len());
        for (label, mut spec) in specs {
            spec.insert_relays(1.0);
            let context = soc_spec_context(&spec).map_err(|e| format!("{label}: {e}"))?;
            let kind = match context {
                Some(ctx) => {
                    trace
                        .span("spec.lower", || lower(&spec, &ctx.registry()).map(drop))
                        .map_err(|e| format!("{label}: {e}"))?;
                    Kind::Soc(ctx)
                }
                None if spec
                    .blocks
                    .iter()
                    .any(|b| SOC_KINDS.contains(&b.kind.as_str())) =>
                {
                    Kind::TopologyOnly
                }
                None => {
                    trace
                        .span("spec.lower", || {
                            lower::<u64>(&spec, &synthetic_registry()).map(drop)
                        })
                        .map_err(|e| format!("{label}: {e}"))?;
                    Kind::Synthetic
                }
            };
            entries.push(Entry { label, spec, kind });
        }
        Ok(Self {
            entries,
            runner: SweepRunner::new(1),
        })
    }

    /// One pass over every netlist, in an order drawn from `rng`.  Records
    /// the lane and period-oracle counts (`lane.lanes`,
    /// `oracle.simulated_cycles`, `oracle.extrapolated_cycles`,
    /// `oracle.extrapolated_lanes`) and, with tracing on, the `equiv`,
    /// `lane`, `predict` and `soc.golden` spans.
    pub fn pass(&self, rng: &mut SplitMix64, trace: &mut Trace) -> Vec<UnitResult> {
        in_shuffled_order(self.entries.len(), rng, |i| {
            let entry = &self.entries[i];
            let (digest, seconds) = timed(|| match &entry.kind {
                Kind::Soc(ctx) => check_soc(entry, ctx, &self.runner, trace),
                Kind::TopologyOnly => Ok(Digest::default().str(&entry.label).finish()),
                Kind::Synthetic => check_synthetic(entry, &self.runner, trace),
            });
            let digest = digest.map_err(|e| format!("{}: {e}", entry.label));
            UnitResult { seconds, digest }
        })
    }
}

/// Streamed lid-vs-golden equivalence over 2,000 firings, then the 8-lane
/// heterogeneous-budget steady state against the exact MCR within 2 %.
/// Pins the proven prefix and every lane's goal cycle and firings.
fn check_synthetic(entry: &Entry, runner: &SweepRunner, trace: &mut Trace) -> Result<u64, String> {
    let spec = &entry.spec;
    let build = {
        let spec = spec.clone();
        move || lower(&spec, &synthetic_registry()).expect("validated spec lowers")
    };
    let scenario = Scenario::<u64>::new(
        entry.label.clone(),
        ShellConfig::strict(),
        RunGoal::UntilFirings {
            process: 0,
            target: EQUIV_FIRINGS,
            max_cycles: 1_000 * EQUIV_FIRINGS,
        },
        build.clone(),
    )
    .with_equivalence_check(build);
    let outcome = trace
        .span("equiv", || runner.run(vec![scenario]).pop())
        .expect("one outcome per scenario")
        .map_err(|e| format!("equivalence run failed: {e}"))?;
    let report = outcome.equivalence.expect("the gate was installed");
    if !report.is_equivalent() {
        return Err(format!("not equivalent: {report}"));
    }
    let mut digest = Digest::default();
    digest.u64(report.proven_n() as u64);

    let base: Vec<usize> = spec.channels.iter().map(|c| c.relay_stations).collect();
    let lanes: Vec<LaneScenario> = (0..LANES)
        .map(|k| {
            let mut relay_stations = base.clone();
            relay_stations[0] += k;
            LaneScenario {
                relay_stations,
                stall: None,
            }
        })
        .collect();
    let builder = lower(spec, &synthetic_registry()).expect("validated spec lowers");
    let runs = trace.span("lane", || {
        LaneLidSimulator::new(builder, &lanes, ShellConfig::strict())
            .map(|mut sim| sim.run_until_firings_extrapolated(0, FIRINGS, 100 * FIRINGS))
    });
    let runs = runs.map_err(|e| format!("lane batch failed to assemble: {e}"))?;
    for (k, run) in runs.into_iter().enumerate() {
        let run = run.map_err(|e| format!("lane {k}: {e}"))?;
        trace.count("lane.lanes", 1);
        trace.count("oracle.simulated_cycles", run.simulated_cycles);
        trace.count("oracle.extrapolated_cycles", run.extrapolated_cycles());
        trace.count("oracle.extrapolated_lanes", u64::from(run.extrapolated));
        let mut lane_spec = spec.clone();
        lane_spec.channels[0].relay_stations += k;
        let predicted = trace.span("predict", || {
            ThroughputModel::Exact.predict(&lane_spec.to_netlist())
        });
        let measured = FIRINGS as f64 / run.report.cycles as f64;
        if (measured - predicted).abs() / predicted >= TOLERANCE {
            return Err(format!(
                "lane {k}: measured {measured:.6} vs exact MCR {predicted:.6}"
            ));
        }
        digest.u64(run.report.cycles);
        for &firings in &run.report.firings {
            digest.u64(firings);
        }
    }
    Ok(digest.finish())
}

/// The program to the halt on the golden kernel and, streamed against it,
/// on the strict wire-pipelined kernel; the final memory must match the
/// workload's expected image.  Pins both cycle counts and the proven
/// prefix.
fn check_soc(
    entry: &Entry,
    ctx: &SocSpecContext,
    runner: &SweepRunner,
    trace: &mut Trace,
) -> Result<u64, String> {
    let spec = &entry.spec;
    let builder = lower(spec, &ctx.registry()).expect("validated spec lowers");
    let golden_cycles = trace
        .span("soc.golden", || {
            GoldenSimulator::new(builder)?.run_until_halt(CU, MAX_CYCLES)
        })
        .map_err(|e| format!("golden run failed: {e}"))?;
    let build = {
        let spec = spec.clone();
        let ctx = ctx.clone();
        move || lower(&spec, &ctx.registry()).expect("validated spec lowers")
    };
    let scenario = Scenario::<Msg>::new(
        entry.label.clone(),
        ShellConfig::strict(),
        RunGoal::UntilHalt {
            process: CU,
            max_cycles: MAX_CYCLES,
        },
        build.clone(),
    )
    .with_drain(32, 100_000)
    .with_post(|sim| soc_state(sim).expect("spec-built SoC has the five blocks"))
    .with_equivalence_check(build);
    let outcome = trace
        .span("equiv", || runner.run(vec![scenario]).pop())
        .expect("one outcome per scenario")
        .map_err(|e| format!("WP1 run failed: {e}"))?;
    let report = outcome.equivalence.expect("the gate was installed");
    if !report.is_equivalent() {
        return Err(format!("not equivalent: {report}"));
    }
    let state = outcome.post.expect("the post-extraction was installed");
    let n = ctx.workload.expected_memory.len();
    if state.memory.len() < n || !ctx.workload.check(&state.memory[..n]) {
        return Err("final memory does not match the expected result".to_string());
    }
    Ok(Digest::default()
        .u64(golden_cycles)
        .u64(outcome.cycles_to_goal)
        .u64(report.proven_n() as u64)
        .finish())
}
