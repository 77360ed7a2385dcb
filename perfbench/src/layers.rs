//! The traced run: every workload's set-up and pass, once untraced and
//! once with spans around each call into a layer, repeated until the run's
//! time is up.  Timings report the median over rounds; exact counts must
//! repeat in every round and in both passes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wp_bench::{table_row_from_json, table_row_ndjson, TableRow};
use wp_dist::Json;

use crate::clock::{median, timed};
use crate::corpus::Corpus;
use crate::table1::Table1;
use crate::trace::Trace;
use crate::walk::{karp_solve_us, DseWalk};
use crate::{
    another_round, order_rng, pins, Report, UnitResult, WorkloadName, EXACT_COUNTS, PER_LAYER,
};

/// Exact counts by name.
type Counts = BTreeMap<&'static str, u64>;

/// Topology sizes of the Karp scaling probe (`mcr.solve_us.bN`).
const KARP_BLOCKS: [(usize, &str); 4] = [
    (10, "mcr.solve_us.b10"),
    (20, "mcr.solve_us.b20"),
    (40, "mcr.solve_us.b40"),
    (80, "mcr.solve_us.b80"),
];
/// Encode → parse → decode repetitions of a pass's rows per round.
const NDJSON_REPEATS: usize = 200;

/// The outcome of a traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// The per-layer metrics, with units attempted and failed.
    pub report: Report,
    /// Exact counts of the untraced passes of the first round.
    pub untraced_counts: Counts,
    /// The same counts from the traced (and, for Table 1, direct) passes.
    pub traced_counts: Counts,
}

/// Units attempted and failed so far, with the failure reasons on stderr.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }

    /// Checks an untraced pass: every unit succeeds and the pass matches
    /// the committed pins.
    fn untraced(&mut self, workload: WorkloadName, seed: u64, results: &[UnitResult]) {
        for (i, r) in results.iter().enumerate() {
            self.check(r.digest.is_ok(), || format!("unit {i}: {:?}", r.digest));
        }
        let mismatches = pins::pass_mismatches(workload, seed, results);
        self.check(mismatches == 0, || {
            format!(
                "{}: {mismatches} unit(s) differ from the pins",
                workload.name()
            )
        });
    }

    /// Checks a traced pass unit for unit against its untraced twin.
    fn traced(&mut self, untraced: &[UnitResult], traced: &[UnitResult]) {
        for (i, (u, t)) in untraced.iter().zip(traced).enumerate() {
            self.check(t.digest.is_ok() && t.digest == u.digest, || {
                format!("unit {i}: traced {:?} vs untraced {:?}", t.digest, u.digest)
            });
        }
    }
}

fn pass_seconds(results: &[UnitResult]) -> f64 {
    results.iter().map(|r| r.seconds).sum()
}

/// Encodes every row as the sharding protocol's NDJSON record, parses it
/// back and decodes it; returns rows per CPU second, or the first row whose
/// record does not survive the round trip.
fn ndjson_rows_per_s(tables: &[Vec<TableRow>]) -> Result<f64, String> {
    let (rows, seconds) = timed(|| {
        let mut rows = 0u64;
        for _ in 0..NDJSON_REPEATS {
            for (t, table) in tables.iter().enumerate() {
                for (i, row) in table.iter().enumerate() {
                    let line = table_row_ndjson(i, t, row);
                    let json = Json::parse(&line).map_err(|e| e.to_string())?;
                    let (table, back) = table_row_from_json(&json)?;
                    // The merge is byte-identical when re-encoding the
                    // decoded row reproduces the record.
                    if table != t || table_row_ndjson(i, table, &back) != line {
                        return Err(format!("row {i} of table {t} changed in the round trip"));
                    }
                    rows += 1;
                }
            }
        }
        Ok(rows)
    });
    Ok(rows? as f64 / seconds)
}

/// A traced run over all three workloads for `seed`, repeated while
/// another round fits in `seconds` (at least one round).  The first
/// round's set-ups are the cold ones.
///
/// # Errors
///
/// Returns why the inputs could not be built.
pub fn run_traced(seed: u64, seconds: f64) -> Result<TracedRun, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rng = order_rng(seed);
    let mut tally = Tally::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<(Counts, Counts)> = None;
    let (mut rounds, mut last) = (0, Duration::ZERO);
    while another_round(rounds, 1, last, deadline) {
        let start = Instant::now();
        let mut untraced = Counts::new();
        let mut traced = Counts::new();
        let keep = |dst: &mut Counts, trace: &Trace| {
            for (&name, &n) in trace.counts() {
                *dst.entry(name).or_default() += n;
            }
        };

        // Set-ups, traced from outside.
        let mut setup = Trace::new(true);
        let mut table1 = Table1::setup(seed)?;
        let corpus = Corpus::setup(&mut setup)?;
        let mut walk = DseWalk::setup(seed);

        // Table 1: the sweep pass, then the same rows by direct calls.
        let mut off = Trace::new(false);
        let sweep = table1.pass(&mut rng, &mut off);
        tally.untraced(WorkloadName::Table1Full, seed, &sweep);
        keep(&mut untraced, &off);
        let mut direct = Trace::new(true);
        let outcome = table1.direct_pass(&mut direct);
        tally.check(outcome.is_ok(), || {
            format!("direct Table 1 pass: {outcome:?}")
        });
        for name in ["golden.cycles", "lid.wp1.cycles", "lid.wp2.cycles"] {
            traced.insert(name, direct.get(name));
        }
        let ndjson = ndjson_rows_per_s(table1.rows());
        tally.check(ndjson.is_ok(), || format!("NDJSON round trip: {ndjson:?}"));

        // The corpus and the search: the same pass, untraced then traced.
        let mut off = Trace::new(false);
        let mut corpus_trace = Trace::new(true);
        let corpus_off = corpus.pass(&mut rng, &mut off);
        let corpus_on = corpus.pass(&mut rng, &mut corpus_trace);
        tally.untraced(WorkloadName::NetlistCorpus, seed, &corpus_off);
        tally.traced(&corpus_off, &corpus_on);
        keep(&mut untraced, &off);
        keep(&mut traced, &corpus_trace);
        let mut off = Trace::new(false);
        let mut walk_trace = Trace::new(true);
        let walk_off = walk.pass(&mut rng, &mut off);
        let walk_on = walk.pass(&mut rng, &mut walk_trace);
        tally.untraced(WorkloadName::DseWalk80, seed, &walk_off);
        tally.traced(&walk_off, &walk_on);
        keep(&mut untraced, &off);
        keep(&mut traced, &walk_trace);

        let rate = |t: &Trace, count: &str, span: &str| t.get(count) as f64 / t.seconds(span);
        let per_call = |span: &str| {
            (direct.seconds(span) + corpus_trace.seconds(span))
                / (direct.calls(span) + corpus_trace.calls(span)) as f64
        };
        let round = [
            ("spec.parse_us", setup.seconds("spec.parse") * 1e6),
            ("spec.lower_us", setup.seconds("spec.lower") * 1e6),
            ("gen.generate_us", setup.seconds("gen.generate") * 1e6),
            ("soc.build_us", per_call("soc.build") * 1e6),
            (
                "golden.mcycles_per_s",
                rate(&direct, "golden.cycles", "golden") / 1e6,
            ),
            (
                "lid.wp1.mcycles_per_s",
                rate(&direct, "lid.wp1.cycles", "lid.wp1") / 1e6,
            ),
            (
                "lid.wp2.mcycles_per_s",
                rate(&direct, "lid.wp2.cycles", "lid.wp2") / 1e6,
            ),
            (
                "sweep.overhead_s",
                pass_seconds(&sweep) - direct.total_seconds(),
            ),
            (
                "lane.mlane_cycles_per_s",
                rate(&corpus_trace, "oracle.simulated_cycles", "lane") / 1e6,
            ),
            (
                "oracle.extrapolated_share",
                corpus_trace.get("oracle.extrapolated_lanes") as f64
                    / corpus_trace.get("lane.lanes").max(1) as f64,
            ),
            ("equiv.s", corpus_trace.seconds("equiv")),
            ("predict.us", per_call("predict") * 1e6),
            (
                "dse.configs_per_s",
                rate(&walk_trace, "dse.scored", "dse.search"),
            ),
            ("dse.verify_s", walk_trace.seconds("dse.verify")),
            ("dse.merge_us", walk_trace.seconds("dse.merge") * 1e6),
            ("ndjson.rows_per_s", ndjson.unwrap_or(f64::NAN)),
            (
                "trace.overhead_s",
                pass_seconds(&corpus_on) - pass_seconds(&corpus_off) + pass_seconds(&walk_on)
                    - pass_seconds(&walk_off),
            ),
        ];
        for (name, value) in round {
            samples.entry(name).or_default().push(value);
        }
        for (blocks, name) in KARP_BLOCKS {
            let us = karp_solve_us(seed, blocks, 15, 20);
            samples.entry(name).or_default().push(us);
        }

        // Exact counts: the traced pass must do the same work as the
        // untraced one, and every round the same work as the first.
        for (name, &t) in &traced {
            let u = untraced.get(name).copied().unwrap_or(0);
            tally.check(t == u, || format!("{name}: traced {t} vs untraced {u}"));
        }
        match &first {
            None => first = Some((untraced, traced)),
            Some((u0, t0)) => {
                tally.check(*u0 == untraced && *t0 == traced, || {
                    "exact counts changed between rounds".to_string()
                });
            }
        }
        rounds += 1;
        last = start.elapsed();
    }
    let (untraced_counts, traced_counts) = first.expect("at least one round ran");
    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let value = match untraced_counts.get(d.name) {
                Some(&n) if EXACT_COUNTS.contains(&d.name) => n as f64,
                _ => samples.get(d.name).map_or(f64::NAN, |s| median(s)),
            };
            (*d, value)
        })
        .collect::<Vec<_>>();
    for (d, value) in &metrics {
        tally.check(value.is_finite(), || format!("{} is not a number", d.name));
    }
    Ok(TracedRun {
        report: Report {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        },
        untraced_counts,
        traced_counts,
    })
}
