//! Ablation: oracle quality versus throughput.
//!
//! WP2 relies on a per-block oracle describing which inputs the next
//! computation reads.  This experiment degrades the oracle (every k-th query
//! falls back to "all inputs required") on a synthetic loop and shows how the
//! throughput moves from the WP2 value back to the WP1 bound.
//!
//! All degradation levels run as one `wp_sim::SweepRunner` sweep over
//! `wp_bench::degraded_ring_scenario`; control the scheduler with
//! `--workers N` and `--batch N`.  Pass `--verify` to stream every run
//! against its golden twin (`wp_bench::build_degraded_ring` with shells
//! stripped) and print the proven equivalence prefix (N) per row.  The rows
//! can be sharded across N local worker processes with `--shards N` — or
//! across machines with `--hosts hosts.conf` (worker mode: `--shard-range
//! A..B`), merging to byte-identical output.

use wp_bench::{
    build_degraded_ring, degraded_ring_scenario, json_f64, json_opt_usize, json_string,
    ScenarioWiring, ShardArgs, SweepArgs,
};
use wp_core::SyncPolicy;
use wp_sim::{Scenario, SweepOutcome};

const FIRINGS: u64 = 2_000;
const PERIODS: [u64; 6] = [1, 2, 4, 8, 16, 64];

/// One merged result row: the scenario label with its measured throughput
/// and — under `--verify` — the proven equivalence prefix.
struct Row {
    throughput: f64,
    proven_n: Option<usize>,
}

/// The full scenario list in submission order: WP1, the degradation sweep,
/// then the exact oracle (the global row numbering shared by the sharding
/// parent and its workers).
fn scenarios(verify: bool) -> Vec<Scenario<u64>> {
    let wiring = ScenarioWiring::new().verified(verify);
    let scenario = move |label: String, period: Option<u64>, policy: SyncPolicy| -> Scenario<u64> {
        let s = degraded_ring_scenario(label, period, policy, FIRINGS);
        wiring.wire_verified(s, move || build_degraded_ring(period))
    };
    let mut scenarios = vec![scenario("wp1".into(), None, SyncPolicy::Strict)];
    for period in PERIODS {
        scenarios.push(scenario(
            format!("wp2_degraded_{period}"),
            Some(period),
            SyncPolicy::Oracle,
        ));
    }
    scenarios.push(scenario(
        "wp2_exact".into(),
        Some(u64::MAX),
        SyncPolicy::Oracle,
    ));
    scenarios
}

/// Fails on a non-equivalent outcome, folds a result row otherwise.
fn row_of(outcome: &SweepOutcome) -> Result<Row, String> {
    if let Some(report) = outcome.equivalence.as_ref().filter(|r| !r.is_equivalent()) {
        return Err(format!("{}: {report}", outcome.label));
    }
    Ok(Row {
        throughput: outcome.report.throughput_of(0),
        proven_n: outcome.equivalence.as_ref().map(|r| r.proven_n()),
    })
}

fn print_table(rows: &[Row]) {
    let th = |i: usize| rows[i].throughput;
    let proven = |i: usize| -> String {
        rows[i]
            .proven_n
            .map_or_else(String::new, |n| format!("  (proven N = {n})"))
    };
    println!("Oracle-quality ablation: 2-process loop, 1 RS, loop needed every 4th firing\n");
    println!(
        "WP1 (no oracle)                    Th = {:.3}{}",
        th(0),
        proven(0)
    );
    for (i, period) in PERIODS.iter().enumerate() {
        println!(
            "WP2, oracle degraded every {period:>3} queries  Th = {:.3}{}",
            th(i + 1),
            proven(i + 1)
        );
    }
    println!(
        "WP2 (exact oracle)                 Th = {:.3}{}",
        th(PERIODS.len() + 1),
        proven(PERIODS.len() + 1)
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verify = args.iter().any(|a| a == "--verify");
    let sweep = SweepArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let shard = ShardArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let n = 2 + PERIODS.len();

    if shard.emit_ndjson {
        let range = shard.worker_range(n);
        let outcomes: Vec<SweepOutcome> = sweep
            .runner()
            .run_range(scenarios(verify), range.clone())
            .into_iter()
            .collect::<Result<_, _>>()?;
        for (index, outcome) in range.zip(&outcomes) {
            let row = row_of(outcome)?;
            println!(
                "{{\"index\": {index}, \"label\": {}, \"throughput\": {}, \"proven_n\": {}}}",
                json_string(&outcome.label),
                json_f64(row.throughput),
                json_opt_usize(row.proven_n),
            );
        }
        return Ok(());
    }

    let rows: Vec<Row> = if shard.is_parent() {
        let records = shard.run_sharded_rows(n, "ablation row", Some(verify))?;
        records
            .iter()
            .enumerate()
            .map(|(i, record)| -> Result<Row, Box<dyn std::error::Error>> {
                let context = |e: String| format!("worker record for row {i}: {e}");
                Ok(Row {
                    throughput: record.require_f64("throughput").map_err(context)?,
                    proven_n: record.require_nullable_usize("proven_n").map_err(context)?,
                })
            })
            .collect::<Result<_, _>>()?
    } else {
        let outcomes: Vec<SweepOutcome> = sweep
            .runner()
            .run(scenarios(verify))
            .into_iter()
            .collect::<Result<_, _>>()?;
        outcomes.iter().map(row_of).collect::<Result<_, _>>()?
    };
    print_table(&rows);
    Ok(())
}
