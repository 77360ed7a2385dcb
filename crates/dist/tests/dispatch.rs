//! Transport-level tests of the cross-machine dispatcher: `ShellTransport`
//! fake hosts exercise dispatch, capacity-weighted planning, failover to a
//! different host, and host exhaustion — hermetically, with nothing but
//! `sh`.

use wp_dist::{parse_hostfile, run_dispatched, DistError, Host, ShardPlan, ShellTransport};

/// A fleet declared through the real hostfile parser, so these tests cover
/// the same path the bench binaries take.
fn shell_fleet(specs: &[(&str, usize, &str)]) -> Vec<Host> {
    let text: String = specs
        .iter()
        .map(|(name, capacity, prefix)| {
            format!("{name} shell capacity={capacity} prefix=\"{prefix}\"\n")
        })
        .collect();
    parse_hostfile(&text).expect("fleet parses")
}

/// The worker argument list: `sh`-compatible args that print one NDJSON
/// record per index of the shard's plan range.  The "binary" of every host
/// defaults to `default_binary` (`sh` here), exactly like a real worker
/// whose binary path came from the parent executable.
fn echo_args(plan: &ShardPlan, shard: usize) -> Vec<String> {
    let lines: String = plan
        .range(shard)
        .map(|i| format!("printf '{{\"index\": {i}, \"value\": {}}}\\n'\n", i * 10))
        .collect();
    vec!["-c".to_string(), lines]
}

fn assert_merged(merged: &[wp_dist::Json], n: usize) {
    assert_eq!(merged.len(), n);
    for (i, record) in merged.iter().enumerate() {
        assert_eq!(record.get("index").unwrap().as_usize(), Some(i));
        assert_eq!(record.get("value").unwrap().as_u64(), Some(i as u64 * 10));
    }
}

#[test]
fn dispatches_one_shard_per_host_and_merges_in_submission_order() {
    let hosts = shell_fleet(&[("a", 1, ""), ("b", 1, ""), ("c", 1, "")]);
    let plan = ShardPlan::split_weighted(7, &[1, 1, 1]);
    let merged =
        run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("all hosts succeed");
    assert_merged(&merged, 7);
}

#[test]
fn capacity_weights_size_each_hosts_shard() {
    let hosts = shell_fleet(&[("small", 1, ""), ("big", 3, "")]);
    let capacities: Vec<usize> = hosts.iter().map(|h| h.capacity).collect();
    let plan = ShardPlan::split_weighted(8, &capacities);
    assert_eq!(plan.range(0), 0..2, "capacity 1 of 4 owns a quarter");
    assert_eq!(plan.range(1), 2..8, "capacity 3 of 4 owns three quarters");
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("succeeds");
    assert_merged(&merged, 8);
}

/// The failover acceptance criterion: a shard whose first host *always*
/// fails completes on the second host within the bounded retry.
#[test]
fn a_shard_on_an_always_failing_host_fails_over_to_another_host() {
    // Host 'sick' dies before the worker starts, on every attempt; host
    // 'well' runs workers normally.  Shard 0 (assigned to 'sick') must be
    // re-dispatched to 'well' rather than retried on 'sick'.
    let hosts = shell_fleet(&[("sick", 1, "exit 1 #"), ("well", 1, "")]);
    let plan = ShardPlan::split_weighted(4, &[1, 1]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect("shard 0 completes on the second host");
    assert_merged(&merged, 4);
}

/// Every permutation of one sick host among three recovers: failover walks
/// the other hosts regardless of which shard was hit.
#[test]
fn failover_recovers_whichever_host_is_sick() {
    for sick in 0..3usize {
        let specs: Vec<(String, usize, &str)> = (0..3)
            .map(|i| (format!("h{i}"), 1, if i == sick { "exit 9 #" } else { "" }))
            .collect();
        let text: String = specs
            .iter()
            .map(|(n, c, p)| format!("{n} shell capacity={c} prefix=\"{p}\"\n"))
            .collect();
        let hosts = parse_hostfile(&text).unwrap();
        let plan = ShardPlan::split_weighted(6, &[1, 1, 1]);
        let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
            .unwrap_or_else(|e| panic!("sick host {sick}: {e}"));
        assert_merged(&merged, 6);
    }
}

/// A `DistError` is raised only when *all* hosts are exhausted.
#[test]
fn all_hosts_failing_exhausts_the_fleet_loudly() {
    let hosts = shell_fleet(&[("dead0", 1, "exit 1 #"), ("dead1", 1, "exit 2 #")]);
    let plan = ShardPlan::split_weighted(4, &[1, 1]);
    let err = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect_err("no host can run anything");
    match &err {
        DistError::HostsExhausted { shard, hosts, last } => {
            assert_eq!(*hosts, 2);
            assert!(matches!(**last, DistError::WorkerFailed { .. }), "{last}");
            assert!(*shard < 2);
        }
        other => panic!("expected HostsExhausted, got {other}"),
    }
    assert!(err.to_string().contains("exhausted"), "{err}");
}

/// With a single host there is no alternative: the shard is retried once
/// on the same host, preserving the classic bounded-retry behaviour.
#[test]
fn a_single_host_fleet_still_retries_once_in_place() {
    let dir = std::env::temp_dir().join(format!("wp_dist_dispatch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let marker = dir.join("attempted");
    let _ = std::fs::remove_file(&marker);

    let hosts = shell_fleet(&[("only", 2, "")]);
    let plan = ShardPlan::split_weighted(2, &[2]);
    let script = format!(
        "if [ -e '{m}' ]; then printf '{{\"index\": 0, \"value\": 0}}\\n{{\"index\": 1, \"value\": 10}}\\n'; \
         else touch '{m}'; exit 1; fi",
        m = marker.display()
    );
    let merged = run_dispatched(&plan, &hosts, "sh", |_| {
        vec!["-c".to_string(), script.clone()]
    })
    .expect("the same-host retry succeeds");
    assert_merged(&merged, 2);
    assert!(marker.exists(), "the first attempt ran and failed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A host that corrupts the NDJSON stream (garbage before the records) is
/// failed over like any other launcher failure.
#[test]
fn a_host_corrupting_the_stream_is_failed_over() {
    let hosts = shell_fleet(&[("noisy", 1, "echo garbage;"), ("clean", 1, "")]);
    let plan = ShardPlan::split_weighted(2, &[1, 1]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect("shard 0 recovers on the clean host");
    assert_merged(&merged, 2);
}

/// A host whose stream opens with a record nested 100,000 levels deep is
/// rejected as malformed and failed over — the recursive JSON parser must
/// refuse it at its depth limit instead of overflowing the dispatcher's
/// stack — and a fleet of such hosts exhausts loudly.
#[test]
fn a_host_emitting_a_pathologically_deep_record_is_failed_over() {
    let deep = |name: &str| Host {
        name: name.to_string(),
        capacity: 1,
        binary: None,
        transport: Box::new(ShellTransport {
            prefix: "printf '{\"index\": 0, \"x\": '; \
                     head -c 100000 /dev/zero | tr '\\0' '['; \
                     head -c 100000 /dev/zero | tr '\\0' ']'; echo '}';"
                .to_string(),
        }),
    };
    let plan = ShardPlan::split_weighted(2, &[1, 1]);

    let mut hosts = vec![deep("deep")];
    hosts.extend(shell_fleet(&[("clean", 1, "")]));
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect("shard 0 recovers on the clean host");
    assert_merged(&merged, 2);

    let hosts = vec![deep("deep0"), deep("deep1")];
    let err = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s))
        .expect_err("no host emits a parseable stream");
    match &err {
        DistError::HostsExhausted { last, .. } => match &**last {
            DistError::Malformed { line, message, .. } => {
                assert_eq!(*line, 1);
                assert!(message.contains("nesting"), "{message}");
            }
            other => panic!("expected Malformed, got {other}"),
        },
        other => panic!("expected HostsExhausted, got {other}"),
    }
}

/// Hosts beyond the item count get empty shards and spawn nothing — the
/// dispatcher only launches populated shards.
#[test]
fn empty_shards_spawn_no_workers() {
    let hosts = shell_fleet(&[("a", 1, ""), ("b", 1, "exit 1 #"), ("c", 1, "exit 1 #")]);
    // One item across three hosts: only shard 0 is populated, and it lands
    // on the healthy host, so the sick hosts are never touched.
    let plan = ShardPlan::split_weighted(1, &[1, 0, 0]);
    let merged = run_dispatched(&plan, &hosts, "sh", |s| echo_args(&plan, s)).expect("succeeds");
    assert_merged(&merged, 1);
}
