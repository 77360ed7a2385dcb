//! Reproduces the multicycle-organisation experiment discussed in the text of
//! Section 3: the CU-IC loop is excited only once per five-phase instruction,
//! so WP2 recovers most of the throughput lost to relay stations on the links
//! that are exercised rarely, where WP1 cannot.

use wp_bench::{
    format_table, matmul_workload, run_table_oracle, sort_workload, table1_base_configs, LaneMode,
    OracleMode,
};
use wp_proc::Organization;
use wp_sim::SweepRunner;

fn main() {
    for (name, workload) in [
        ("Extraction Sort", sort_workload()),
        ("Matrix Multiply", matmul_workload()),
    ] {
        let (rows, _) = run_table_oracle(
            &SweepRunner::default(),
            &workload,
            Organization::Multicycle,
            &table1_base_configs(),
            false,
            LaneMode::Auto,
            OracleMode::Off,
        )
        .expect("multicycle table runs");
        println!(
            "{}",
            format_table(&format!("Multicycle case: {name}"), &rows)
        );
        if let Some(cu_ic) = rows.iter().find(|r| r.label == "Only CU-IC") {
            println!(
                "CU-IC loop, multicycle: WP1 Th = {:.3}, WP2 Th = {:.3}  (WP2 vs WP1: {:+.0}%)\n",
                cu_ic.th_wp1, cu_ic.th_wp2, cu_ic.improvement_percent
            );
        }
    }
}
