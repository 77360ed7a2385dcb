//! Process-level tests of the worker protocol: real children spawned via
//! `sh` on a fleet of [`LocalProcess`] hosts — the fleet `--shards N`
//! builds — covering the happy path, failover of a flaky shard, and every
//! loud-failure mode (killed child, missing rows, malformed records).

use std::cell::RefCell;

use wp_dist::{run_dispatched, DistError, Host, Json, LocalProcess, ShardPlan};

/// `n` capacity-1 local hosts whose worker binary defaults to the
/// dispatcher's `default_binary` (`sh` in these tests).
fn local_fleet(n: usize) -> Vec<Host> {
    (0..n)
        .map(|i| Host {
            name: format!("local{i}"),
            capacity: 1,
            binary: None,
            transport: Box::new(LocalProcess),
        })
        .collect()
}

/// The uniform plan a fleet of `n` capacity-1 hosts gets.
fn uniform(items: usize, n: usize) -> ShardPlan {
    ShardPlan::split_weighted(items, &vec![1; n])
}

/// `sh` arguments running `script`.
fn sh(script: impl Into<String>) -> Vec<String> {
    vec!["-c".to_string(), script.into()]
}

/// A worker that prints the NDJSON records for its plan range, exactly as a
/// sharded experiment binary would.
fn echo_worker(shard: usize, plan: &ShardPlan) -> Vec<String> {
    sh(plan
        .range(shard)
        .map(|i| format!("printf '{{\"index\": {i}, \"value\": {}}}\\n'\n", i * 10))
        .collect::<String>())
}

/// Unwraps the exhausted-fleet error every deterministic worker failure
/// ends in, checking the shard it names.
fn last_error(err: DistError, failing_shard: usize) -> DistError {
    match err {
        DistError::HostsExhausted { shard, last, .. } => {
            assert_eq!(shard, failing_shard);
            *last
        }
        other => panic!("expected HostsExhausted, got {other}"),
    }
}

#[test]
fn merges_shard_outputs_in_submission_order() {
    for shards in [1usize, 2, 3, 7] {
        let plan = uniform(7, shards);
        let merged = run_dispatched(&plan, &local_fleet(shards), "sh", |s| echo_worker(s, &plan))
            .expect("all shards succeed");
        assert_eq!(merged.len(), 7, "shards = {shards}");
        for (i, record) in merged.iter().enumerate() {
            assert_eq!(record.get("index").unwrap().as_usize(), Some(i));
            assert_eq!(
                record.get("value").unwrap().as_u64(),
                Some(i as u64 * 10),
                "shards = {shards}"
            );
        }
    }
}

#[test]
fn more_shards_than_items_spawns_only_populated_shards() {
    let plan = uniform(2, 6);
    let spawned = RefCell::new(Vec::new());
    let merged = run_dispatched(&plan, &local_fleet(6), "sh", |s| {
        spawned.borrow_mut().push(s);
        echo_worker(s, &plan)
    })
    .expect("succeeds");
    assert_eq!(merged.len(), 2);
    assert_eq!(
        spawned.borrow().len(),
        2,
        "empty shards must not spawn workers"
    );
}

#[test]
fn empty_plan_spawns_nothing() {
    let plan = uniform(0, 4);
    let merged = run_dispatched(&plan, &local_fleet(4), "sh", |_| {
        unreachable!("no shard is populated")
    })
    .expect("succeeds");
    assert!(merged.is_empty());
}

#[test]
fn a_flaky_shard_is_retried_once_and_recovers() {
    // The worker for shard 1 fails on its first invocation (before creating
    // the marker file) and succeeds when failed over to the other host.
    let dir = std::env::temp_dir().join(format!("wp_dist_retry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let marker = dir.join("attempted");
    let _ = std::fs::remove_file(&marker);

    let plan = uniform(4, 2);
    let merged = run_dispatched(&plan, &local_fleet(2), "sh", |s| {
        if s == 1 {
            sh(format!(
                "if [ -e '{m}' ]; then printf '{{\"index\": 2}}\\n{{\"index\": 3}}\\n'; \
                 else touch '{m}'; exit 1; fi",
                m = marker.display()
            ))
        } else {
            echo_worker(s, &plan)
        }
    })
    .expect("the retry succeeds");
    assert_eq!(merged.len(), 4);
    assert!(marker.exists(), "the first attempt ran and failed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_child_surfaces_a_worker_error_after_the_retry() {
    let plan = uniform(3, 3);
    let err = run_dispatched(&plan, &local_fleet(3), "sh", |s| {
        if s == 1 {
            // Die by signal on every host.
            sh("kill -9 $$")
        } else {
            sh(format!("printf '{{\"index\": {s}}}\\n'"))
        }
    })
    .expect_err("shard 1 never succeeds");
    match last_error(err, 1) {
        DistError::WorkerFailed { shard, .. } => assert_eq!(shard, 1),
        other => panic!("expected WorkerFailed, got {other}"),
    }
}

#[test]
fn a_shard_dropping_rows_fails_loudly() {
    let plan = uniform(4, 2);
    let err = run_dispatched(&plan, &local_fleet(2), "sh", |s| {
        // Shard 1 owns 2..4 but only reports index 2.
        if s == 1 {
            sh("printf '{\"index\": 2}\\n'")
        } else {
            sh("printf '{\"index\": 0}\\n{\"index\": 1}\\n'")
        }
    })
    .expect_err("a dropped row must not merge");
    match last_error(err, 1) {
        DistError::WrongIndices {
            shard,
            expected,
            got,
        } => {
            assert_eq!(shard, 1);
            assert_eq!(expected, 2..4);
            assert_eq!(got, vec![2]);
        }
        other => panic!("expected WrongIndices, got {other}"),
    }
}

#[test]
fn a_shard_double_emitting_a_row_fails_loudly() {
    let plan = uniform(2, 1);
    // Covers 0..2 but reports index 1 twice: the duplicate must not
    // silently last-write-win.
    let err = run_dispatched(&plan, &local_fleet(1), "sh", |_| {
        sh("printf '{\"index\": 0}\\n{\"index\": 1}\\n{\"index\": 1}\\n'")
    })
    .expect_err("duplicate records must not merge");
    match last_error(err, 0) {
        DistError::WrongIndices { shard, got, .. } => {
            assert_eq!(shard, 0);
            assert_eq!(got, vec![0, 1, 1]);
        }
        other => panic!("expected WrongIndices, got {other}"),
    }
}

#[test]
fn a_shard_reporting_foreign_indices_fails_loudly() {
    let plan = uniform(2, 2);
    // Both shards claim index 0.
    let err = run_dispatched(&plan, &local_fleet(2), "sh", |_| {
        sh("printf '{\"index\": 0}\\n'")
    })
    .expect_err("trespassing records must not merge");
    let last = last_error(err, 1);
    assert!(
        matches!(last, DistError::WrongIndices { shard: 1, .. }),
        "{last}"
    );
}

#[test]
fn malformed_worker_output_names_the_shard_and_line() {
    let plan = uniform(2, 1);
    let err = run_dispatched(&plan, &local_fleet(1), "sh", |_| {
        sh("printf '{\"index\": 0}\\nnot json at all\\n'")
    })
    .expect_err("malformed records must not merge");
    assert!(err.to_string().contains("shard 0"), "{err}");
    match last_error(err, 0) {
        DistError::Malformed { shard, line, .. } => {
            assert_eq!(shard, 0);
            assert_eq!(line, 2);
        }
        other => panic!("expected Malformed, got {other}"),
    }
}

#[test]
fn an_unspawnable_worker_surfaces_a_spawn_error() {
    let plan = uniform(1, 1);
    let err = run_dispatched(&plan, &local_fleet(1), "/nonexistent/worker/binary", |_| {
        Vec::new()
    })
    .expect_err("spawn must fail");
    let last = last_error(err, 0);
    assert!(matches!(last, DistError::Spawn { shard: 0, .. }), "{last}");
}

/// Worker payloads survive the pipe byte-for-byte: awkward labels written
/// with RFC 8259 escaping parse back to the original strings.
#[test]
fn payload_strings_round_trip_through_a_real_pipe() {
    let plan = uniform(1, 1);
    let merged = run_dispatched(&plan, &local_fleet(1), "sh", |_| {
        sh(r#"printf '{"index": 0, "label": "a\\"b\\\\c\\u0007d", "th": 0.75}\n'"#)
    })
    .expect("succeeds");
    assert_eq!(
        merged[0].get("label").unwrap().as_str(),
        Some("a\"b\\c\u{7}d")
    );
    assert_eq!(merged[0].get("th").unwrap().as_f64(), Some(0.75));
    // And the record re-serialises to parseable JSON.
    let reparsed = Json::parse(&merged[0].to_string()).unwrap();
    assert_eq!(&reparsed, &merged[0]);
}
