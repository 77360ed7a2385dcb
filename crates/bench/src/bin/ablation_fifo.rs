//! Ablation: shell input-queue depth versus throughput.
//!
//! The paper makes the semi-infinite queues of the formal model finite and
//! relies on back-pressure for correctness; this experiment shows how small
//! the queues can be before throughput suffers on the case-study processor.
//!
//! The 2 × depths wire-pipelined runs are swept across worker threads by
//! `wp_sim::SweepRunner`'s work-stealing scheduler; control it with
//! `--workers N` and `--batch N`.  Pass `--verify` to stream every run
//! against its golden twin while it executes and print the proven
//! equivalence prefix (N) per depth and policy.  The depth rows can be
//! sharded across N local worker processes with `--shards N` — or across
//! machines with `--hosts hosts.conf` (worker mode: `--shard-range A..B`),
//! merging to byte-identical output.

use wp_bench::{
    json_opt_usize, soc_factory, soc_scenario_with_config, sort_workload, ScenarioWiring,
    ShardArgs, SweepArgs, MAX_CYCLES,
};
use wp_core::ShellConfig;
use wp_proc::SocState;
use wp_proc::{run_golden_soc, Link, Organization, RsConfig};
use wp_sim::{Scenario, SweepOutcome};

const DEPTHS: [usize; 6] = [2, 3, 4, 6, 8, 16];

/// One merged table row: the queue depth, both cycle counts and — under
/// `--verify` — the proven equivalence prefix per policy.
struct Row {
    depth: usize,
    wp1_cycles: u64,
    wp2_cycles: u64,
    n_wp1: Option<usize>,
    n_wp2: Option<usize>,
}

/// The 2 × depths scenario list, WP1/WP2-interleaved in depth order (the
/// submission order shared by the sharding parent and its workers: row `i`
/// owns scenarios `2i` and `2i + 1`).
fn scenarios(verify: bool) -> Vec<Scenario<wp_proc::Msg, SocState>> {
    let workload = sort_workload();
    let rs = RsConfig::uniform(1, &[Link::CuIc]);
    let wiring = ScenarioWiring::new().verified(verify);
    DEPTHS
        .iter()
        .flat_map(|&depth| {
            [
                ("WP1", ShellConfig::strict()),
                ("WP2", ShellConfig::oracle()),
            ]
            .map(|(tag, config)| {
                let scenario = soc_scenario_with_config(
                    format!("depth{depth}_{tag}"),
                    &workload,
                    Organization::Pipelined,
                    rs,
                    config.with_fifo_capacity(depth),
                );
                wiring.wire_verified(
                    scenario,
                    soc_factory(&workload, Organization::Pipelined, rs),
                )
            })
        })
        .collect()
}

/// Fails on a non-equivalent outcome, returns its proven N otherwise.
fn checked_proven(outcome: &SweepOutcome<SocState>) -> Result<Option<usize>, String> {
    match &outcome.equivalence {
        Some(report) if !report.is_equivalent() => Err(format!("{}: {report}", outcome.label)),
        Some(report) => Ok(Some(report.proven_n())),
        None => Ok(None),
    }
}

/// Folds one depth row out of its WP1/WP2 outcome pair.
fn row_of(
    depth: usize,
    wp1: &SweepOutcome<SocState>,
    wp2: &SweepOutcome<SocState>,
) -> Result<Row, String> {
    Ok(Row {
        depth,
        wp1_cycles: wp1.cycles_to_goal,
        wp2_cycles: wp2.cycles_to_goal,
        n_wp1: checked_proven(wp1)?,
        n_wp2: checked_proven(wp2)?,
    })
}

fn print_table(golden_cycles: u64, rows: &[Row]) {
    let opt = |n: Option<usize>| n.map_or_else(|| "-".to_string(), |n| n.to_string());
    println!("FIFO-depth ablation: sort, pipelined, All 1 (no CU-IC)\n");
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "depth", "WP1 cyc", "WP2 cyc", "Th WP1", "Th WP2", "N WP1", "N WP2"
    );
    for row in rows {
        println!(
            "{:>8} {:>10} {:>10} {:>8.3} {:>8.3} {:>8} {:>8}",
            row.depth,
            row.wp1_cycles,
            row.wp2_cycles,
            golden_cycles as f64 / row.wp1_cycles as f64,
            golden_cycles as f64 / row.wp2_cycles as f64,
            opt(row.n_wp1),
            opt(row.n_wp2),
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verify = args.iter().any(|a| a == "--verify");
    let sweep = SweepArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let shard = ShardArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let n_rows = DEPTHS.len();

    if shard.emit_ndjson {
        // Worker mode: row i owns scenarios 2i and 2i+1.
        let rows = shard.worker_range(n_rows);
        let outcomes: Vec<SweepOutcome<SocState>> = sweep
            .runner()
            .run_range(scenarios(verify), 2 * rows.start..2 * rows.end)
            .into_iter()
            .collect::<Result<_, _>>()?;
        for (offset, index) in rows.enumerate() {
            let row = row_of(
                DEPTHS[index],
                &outcomes[2 * offset],
                &outcomes[2 * offset + 1],
            )?;
            println!(
                "{{\"index\": {index}, \"depth\": {}, \"wp1_cycles\": {}, \"wp2_cycles\": {}, \
                 \"n_wp1\": {}, \"n_wp2\": {}}}",
                row.depth,
                row.wp1_cycles,
                row.wp2_cycles,
                json_opt_usize(row.n_wp1),
                json_opt_usize(row.n_wp2),
            );
        }
        return Ok(());
    }

    let workload = sort_workload();
    let golden = run_golden_soc(&workload, Organization::Pipelined, MAX_CYCLES)?;

    let rows: Vec<Row> = if shard.is_parent() {
        let records = shard.run_sharded_rows(n_rows, "depth row", Some(verify))?;
        records
            .iter()
            .enumerate()
            .map(|(i, record)| -> Result<Row, Box<dyn std::error::Error>> {
                let context = |e: String| format!("worker record for row {i}: {e}");
                Ok(Row {
                    depth: record.require_usize("depth").map_err(context)?,
                    wp1_cycles: record.require_u64("wp1_cycles").map_err(context)?,
                    wp2_cycles: record.require_u64("wp2_cycles").map_err(context)?,
                    n_wp1: record.require_nullable_usize("n_wp1").map_err(context)?,
                    n_wp2: record.require_nullable_usize("n_wp2").map_err(context)?,
                })
            })
            .collect::<Result<_, _>>()?
    } else {
        let outcomes: Vec<SweepOutcome<SocState>> = sweep
            .runner()
            .run(scenarios(verify))
            .into_iter()
            .collect::<Result<_, _>>()?;
        DEPTHS
            .iter()
            .enumerate()
            .map(|(i, &depth)| row_of(depth, &outcomes[2 * i], &outcomes[2 * i + 1]))
            .collect::<Result<_, _>>()?
    };
    print_table(golden.cycles, &rows);
    Ok(())
}
