//! Profiling is observation only: turning on the event loop's
//! wall-clock profile must not change what the loop counts, and it
//! adds handler nanos, nothing else.
//!
//! Kept as a single `#[test]` because it sets `TFC_RESULTS_DIR`, which
//! is process-global.

use std::path::Path;

use experiments::faults::{self, FaultsConfig, Scenario};
use experiments::Proto;
use telemetry::json::Value;

fn counters(dir: &Path) -> Value {
    let text = std::fs::read_to_string(dir.join("counters.json")).expect("counters.json");
    telemetry::json::parse(&text).expect("counters.json parses")
}

/// `(event, count)` per loop row.
fn loop_counts(c: &Value) -> Vec<(String, i64)> {
    c.get("loop")
        .and_then(Value::as_array)
        .expect("loop rows")
        .iter()
        .map(|r| {
            (
                r.get("event")
                    .and_then(Value::as_str)
                    .expect("event")
                    .to_string(),
                r.get("count").and_then(Value::as_i64).expect("count"),
            )
        })
        .collect()
}

#[test]
fn profiling_leaves_exported_loop_counts_unchanged() {
    let tmp = std::env::temp_dir().join("tfc_profile_counts");
    std::fs::remove_dir_all(&tmp).ok();
    std::env::set_var("TFC_RESULTS_DIR", &tmp);

    let plain = FaultsConfig::exporting(Proto::Tfc, Scenario::LinkFlap, "plain");
    let mut profiled = FaultsConfig::exporting(Proto::Tfc, Scenario::LinkFlap, "profiled");
    profiled.telemetry.profile = true;
    let a = counters(&faults::run(&plain).export_dir.expect("plain export"));
    let b = counters(&faults::run(&profiled).export_dir.expect("profiled export"));

    assert_eq!(loop_counts(&a), loop_counts(&b), "loop[*].count differs");
    let total = |c: &Value| {
        c.get("loop_total")
            .and_then(Value::as_i64)
            .expect("loop_total")
    };
    assert!(total(&a) > 0, "the chaos run dispatched no events");
    assert_eq!(total(&a), total(&b), "loop_total differs");

    // The profile really ran, and it carries no dispatch-plumbing keys.
    let nanos = |c: &Value| c.get("loop_total_nanos").and_then(Value::as_i64);
    assert_eq!(nanos(&a), Some(0));
    assert!(
        nanos(&b).is_some_and(|n| n > 0),
        "profiled run recorded no time"
    );
    for key in ["batches", "shards", "shard_windows"] {
        assert!(b.get(key).is_none(), "profiled counters.json has `{key}`");
    }
    for row in b.get("loop").and_then(Value::as_array).expect("loop rows") {
        assert!(
            row.get("batches").is_none(),
            "profiled loop row has `batches`"
        );
    }

    std::fs::remove_dir_all(&tmp).ok();
    std::env::remove_var("TFC_RESULTS_DIR");
}
