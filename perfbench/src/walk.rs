//! `dse_walk80`: the `dse` search on a seeded 80-block topology in walk
//! mode (64 walks × 2,000 steps, cap 3), with the frontier spot-verified
//! by simulation.

use wp_bench::{spot_verify_frontier, LaneMode, OracleMode};
use wp_dse::{
    merge_outcomes, plan_units, run_unit, DseConfig, Evaluator, ParetoPoint, SearchMode,
    SearchSpace, UnitOutcome, WorkUnit, DEFAULT_STEPS, DEFAULT_UNITS, DEFAULT_WALKS,
};
use wp_gen::{generate, GenConfig, SplitMix64};
use wp_netlist::McrSolver;
use wp_sim::SweepRunner;
use wp_spec::NetlistSpec;

use crate::clock::timed;
use crate::trace::{Digest, Trace};
use crate::{in_shuffled_order, UnitResult};

/// Blocks of the searched topology.
const BLOCKS: usize = 80;
/// Relay stations per channel range over `0..=CAP`.
const CAP: usize = 3;
/// Reference clock period of the search and of the spot-verification.
const CLOCK: f64 = 1.0;
/// Firing target of each spot-verified frontier point (the `dse` default).
const FIRINGS: u64 = 20_000;

/// The search inputs of one seed: the topology, its space, the walk plan
/// and the evaluator the walks share.
#[derive(Debug)]
pub struct DseWalk {
    spec: NetlistSpec,
    space: SearchSpace,
    cfg: DseConfig,
    plan: Vec<WorkUnit>,
    eval: Evaluator,
    runner: SweepRunner,
}

/// The seeded `wp_gen` topology of `blocks` blocks with the default chord
/// and relay distributions.
fn topology(seed: u64, blocks: usize) -> NetlistSpec {
    generate(&GenConfig {
        seed,
        blocks: (blocks, blocks),
        ..GenConfig::default()
    })
}

impl DseWalk {
    /// Generates the topology and frames the search: space, walk plan and
    /// evaluator (one Karp solver).  The walk seed is the benchmark seed.
    pub fn setup(seed: u64) -> Self {
        let spec = topology(seed, BLOCKS);
        let space = SearchSpace::from_spec(&spec, CAP, CLOCK);
        let cfg = DseConfig {
            mode: SearchMode::Neighborhood {
                walks: DEFAULT_WALKS,
                steps: DEFAULT_STEPS,
            },
            seed,
            units: DEFAULT_UNITS,
        };
        let plan = plan_units(&space, &cfg);
        let eval = Evaluator::new(&space);
        Self {
            spec,
            space,
            cfg,
            plan,
            eval,
            runner: SweepRunner::new(1),
        }
    }

    /// One pass: the walks in an order drawn from `rng` on the shared
    /// evaluator (as one search worker runs them), then the in-order merge
    /// into the frontier, then the spot-verification of every frontier
    /// point within 2 %.  Records `dse.scored` and `dse.frontier_points`
    /// and, with tracing on, the `dse.search`, `dse.merge` and
    /// `dse.verify` spans.
    pub fn pass(&mut self, rng: &mut SplitMix64, trace: &mut Trace) -> Vec<UnitResult> {
        let mut outcomes: Vec<Option<UnitOutcome>> = (0..self.plan.len()).map(|_| None).collect();
        let mut results = in_shuffled_order(self.plan.len(), rng, |i| {
            let (outcome, seconds) = timed(|| {
                trace.span("dse.search", || {
                    run_unit(&self.space, &self.cfg, &self.plan[i], &mut self.eval)
                })
            });
            trace.count("dse.scored", outcome.scored);
            let mut digest = Digest::default();
            digest.u64(outcome.scored);
            for point in outcome.map.iter() {
                point_digest(&mut digest, point);
            }
            outcomes[i] = Some(outcome);
            UnitResult {
                seconds,
                digest: Ok(digest.finish()),
            }
        });
        let outcomes = outcomes.into_iter().map(|o| o.expect("every walk ran"));
        let (merged, seconds) =
            timed(|| trace.span("dse.merge", || merge_outcomes(outcomes.collect(), false)));
        trace.count("dse.frontier_points", merged.frontier.len() as u64);
        let mut digest = Digest::default();
        digest.u64(merged.scored);
        for point in &merged.frontier {
            point_digest(&mut digest, point);
        }
        results.push(UnitResult {
            seconds,
            digest: Ok(digest.finish()),
        });
        let (measured, seconds) = timed(|| {
            trace.span("dse.verify", || {
                spot_verify_frontier(
                    &self.spec,
                    CLOCK,
                    &merged.frontier,
                    FIRINGS,
                    &self.runner,
                    LaneMode::Auto,
                    OracleMode::Off,
                )
            })
        });
        let digest = measured.map(|measured| {
            let mut digest = Digest::default();
            for th in measured {
                digest.f64(th);
            }
            digest.finish()
        });
        results.push(UnitResult { seconds, digest });
        results
    }
}

fn point_digest(digest: &mut Digest, point: &ParetoPoint) {
    digest
        .u64(point.cost as u64)
        .f64(point.cycle_throughput)
        .f64(point.effective);
    for &r in &point.assignment {
        digest.u64(r as u64);
    }
}

/// Median CPU microseconds of one Karp re-solve on the seeded topology of
/// `blocks` blocks: `batches` timed batches of `per_batch` solves, each on
/// a random assignment with relay stations in `0..=CAP`.
pub fn karp_solve_us(seed: u64, blocks: usize, batches: usize, per_batch: usize) -> f64 {
    let mut net = topology(seed, blocks).to_netlist();
    let mut solver = McrSolver::new(&net);
    let mut rng = SplitMix64::new(seed ^ blocks as u64);
    let assignments: Vec<Vec<usize>> = (0..per_batch)
        .map(|_| {
            (0..net.edge_count())
                .map(|_| rng.below(CAP as u64 + 1) as usize)
                .collect()
        })
        .collect();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (sum, seconds) = timed(|| {
                let mut sum = 0.0;
                for assignment in &assignments {
                    net.apply_relay_station_assignment(assignment);
                    sum += solver.solve(&net);
                }
                sum
            });
            assert!(sum > 0.0, "a strongly connected topology has a throughput");
            seconds * 1e6 / per_batch as f64
        })
        .collect();
    crate::clock::median(&samples)
}
