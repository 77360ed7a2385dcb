//! `table1_full`: the paper's full Table 1 (extraction sort and matrix
//! multiply, every relay-station row including the Optimal-k rows), run the
//! way the `table1` binary runs it by default.

use wp_bench::{
    optimal_config, predict_wp1_throughput, run_table_oracle, table1_base_configs,
    table1_two_rs_configs, LaneMode, OracleMode, TableRow, MATMUL_DIM, MAX_CYCLES, SORT_ELEMENTS,
    WORKLOAD_SEED,
};
use wp_core::{ShellConfig, SyncPolicy};
use wp_gen::SplitMix64;
use wp_proc::{
    build_soc, extraction_sort, matrix_multiply, soc_state, Organization, RsConfig, Workload, CU,
};
use wp_sim::{GoldenSimulator, LidSimulator, SweepRunner};

use crate::clock::timed;
use crate::trace::{Digest, Trace};
use crate::{in_shuffled_order, UnitResult};

/// One half of Table 1: a program and the relay-station rows it runs on.
#[derive(Debug)]
struct Table {
    /// The program and its input data.
    workload: Workload,
    /// Row label and relay-station configuration of every row.
    configs: Vec<(String, RsConfig)>,
}

/// The inputs of one Table-1 pass, and the rows the last pass produced.
#[derive(Debug)]
pub struct Table1 {
    tables: Vec<Table>,
    runner: SweepRunner,
    rows: Vec<Vec<TableRow>>,
}

/// The program data seed of benchmark seed `seed`; seed 0 is the paper's
/// Table 1 exactly as the `table1` binary prints it.
fn data_seed(seed: u64) -> u64 {
    WORKLOAD_SEED.wrapping_add(seed)
}

impl Table1 {
    /// Assembles both programs and every row, including the greedy
    /// Optimal-k rows (the `table1` binary's default, non-quick tables).
    ///
    /// # Errors
    ///
    /// Returns the message of a program that fails to assemble.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let data = data_seed(seed);
        let sort = extraction_sort(SORT_ELEMENTS, data).map_err(|e| e.to_string())?;
        let matmul = matrix_multiply(MATMUL_DIM, data).map_err(|e| e.to_string())?;
        let org = Organization::Pipelined;
        let mut sort_configs = table1_base_configs();
        sort_configs.push(optimal_config(&sort, org, 1));
        let mut matmul_configs = table1_base_configs();
        matmul_configs.push(optimal_config(&matmul, org, 1));
        matmul_configs.extend(table1_two_rs_configs());
        matmul_configs.push(optimal_config(&matmul, org, 2));
        Ok(Self {
            tables: vec![
                Table {
                    workload: sort,
                    configs: sort_configs,
                },
                Table {
                    workload: matmul,
                    configs: matmul_configs,
                },
            ],
            runner: SweepRunner::new(1),
            rows: Vec::new(),
        })
    }

    /// The rows of the last pass, one vector per table.
    pub fn rows(&self) -> &[Vec<TableRow>] {
        &self.rows
    }

    /// One pass: each table through `run_table_oracle` with the `table1`
    /// defaults (no equivalence gate, lanes auto, oracle off), in an order
    /// drawn from `rng`.  Records `golden.cycles`, `lid.wp1.cycles`,
    /// `lid.wp2.cycles`, `sweep.leases` and `sweep.steals`.
    pub fn pass(&mut self, rng: &mut SplitMix64, trace: &mut Trace) -> Vec<UnitResult> {
        let mut rows = vec![Vec::new(); self.tables.len()];
        let results = in_shuffled_order(self.tables.len(), rng, |i| {
            let table = &self.tables[i];
            let (outcome, seconds) = timed(|| {
                run_table_oracle(
                    &self.runner,
                    &table.workload,
                    Organization::Pipelined,
                    &table.configs,
                    false,
                    LaneMode::Auto,
                    OracleMode::Off,
                )
            });
            let digest = outcome
                .map_err(|e| e.to_string())
                .and_then(|(table_rows, stats)| {
                    let digest = rows_digest(&table_rows)?;
                    let golden = table_rows.first().map_or(0, |r| r.golden_cycles);
                    trace.count("golden.cycles", golden);
                    trace.count(
                        "lid.wp1.cycles",
                        table_rows.iter().map(|r| r.wp1_cycles).sum(),
                    );
                    trace.count(
                        "lid.wp2.cycles",
                        table_rows.iter().map(|r| r.wp2_cycles).sum(),
                    );
                    trace.count("sweep.leases", stats.leases);
                    trace.count("sweep.steals", stats.steals);
                    rows[i] = table_rows;
                    Ok(digest)
                });
            UnitResult { seconds, digest }
        });
        self.rows = rows;
        results
    }

    /// The same rows by direct calls into each layer, bypassing the sweep
    /// scheduler: `soc.build` (`wp_proc::build_soc`), `golden`
    /// (`GoldenSimulator`), `lid.wp1` / `lid.wp2` (`LidSimulator` to the
    /// halt), `post` (drain and memory read-back) and `predict` (the
    /// worst-loop law).  Records the same cycle counts as [`Table1::pass`].
    ///
    /// # Errors
    ///
    /// Returns the first simulation error or wrong program result.
    pub fn direct_pass(&self, trace: &mut Trace) -> Result<(), String> {
        let org = Organization::Pipelined;
        for table in &self.tables {
            let w = &table.workload;
            let builder = trace.span("soc.build", || build_soc(w, org, &RsConfig::ideal()));
            let golden = trace.span("golden", || {
                GoldenSimulator::new(builder)?.run_until_halt(CU, MAX_CYCLES)
            });
            trace.count("golden.cycles", golden.map_err(|e| e.to_string())?);
            for (label, rs) in &table.configs {
                trace.span("predict", || predict_wp1_throughput(w, org, rs));
                for (policy, span, count) in [
                    (SyncPolicy::Strict, "lid.wp1", "lid.wp1.cycles"),
                    (SyncPolicy::Oracle, "lid.wp2", "lid.wp2.cycles"),
                ] {
                    let builder = trace.span("soc.build", || build_soc(w, org, rs));
                    let mut sim = LidSimulator::new(builder, ShellConfig::for_policy(policy))
                        .map_err(|e| e.to_string())?;
                    sim.set_trace_enabled(false);
                    let cycles = trace
                        .span(span, || sim.run_until_halt(CU, MAX_CYCLES))
                        .map_err(|e| format!("{label}/{}: {e}", policy.label()))?;
                    trace.count(count, cycles);
                    let memory = trace.span("post", || {
                        sim.drain(32, 100_000)?;
                        Ok::<_, wp_sim::SimError>(soc_state(&sim).map(|s| s.memory))
                    });
                    let memory = memory.map_err(|e| e.to_string())?;
                    let n = w.expected_memory.len();
                    if !memory.is_some_and(|m| m.len() >= n && w.check(&m[..n])) {
                        return Err(format!("{label}/{}: wrong result", policy.label()));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Pins a table: every row's label and golden/WP1/WP2 cycles.  Also
/// checks the paper's ordering, golden ≤ WP2 ≤ WP1 cycles (oracle shells
/// never lose to strict ones).
fn rows_digest(rows: &[TableRow]) -> Result<u64, String> {
    let mut digest = Digest::default();
    for row in rows {
        if !(row.golden_cycles <= row.wp2_cycles && row.wp2_cycles <= row.wp1_cycles) {
            return Err(format!(
                "{}: cycles out of order (golden {}, WP2 {}, WP1 {})",
                row.label, row.golden_cycles, row.wp2_cycles, row.wp1_cycles
            ));
        }
        digest
            .str(&row.label)
            .u64(row.golden_cycles)
            .u64(row.wp1_cycles)
            .u64(row.wp2_cycles);
    }
    Ok(digest.finish())
}
