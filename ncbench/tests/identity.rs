//! Virtual-time identity checks of the benchmark's workloads:
//!
//! * recording never changes virtual time — a traced round's virtual
//!   results equal an untraced round's bit for bit;
//! * virtual results repeat exactly across rounds (two sets of runs);
//! * where a workload runs a configuration committed under `results/`,
//!   its virtual numbers match the committed ones exactly.
//!
//! The workloads are full size; run with
//! `cargo test --release --manifest-path ncbench/Cargo.toml`.

use std::path::PathBuf;

use ncbench::runner::measure;
use ncbench::workloads::{from_seed, halo, run_round, vector, Ctx, NAMES};
use sim_trace::json::{parse, JsonValue};

fn committed(name: &str) -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../results")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("committed result");
    parse(&text).expect("committed result parses")
}

/// One row of a committed result's `data` array.
fn row(doc: &JsonValue, key: &str, value: f64) -> JsonValue {
    doc.get("data")
        .and_then(JsonValue::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get(key).and_then(JsonValue::as_f64) == Some(value))
        })
        .cloned()
        .expect("committed row")
}

fn field(row: &JsonValue, key: &str) -> f64 {
    row.get(key).and_then(JsonValue::as_f64).expect("field")
}

#[test]
fn recording_never_changes_virtual_time() {
    for name in NAMES {
        let b = from_seed(name, 7).expect("workload");
        let plain = run_round(b.as_ref(), &Ctx::untraced());
        let again = run_round(b.as_ref(), &Ctx::untraced());
        let traced = run_round(b.as_ref(), &Ctx::traced());
        for r in [&plain, &again, &traced] {
            assert_eq!(r.error, None, "{name}");
            assert_eq!(r.failed, 0, "{name}: failed ops");
            assert_eq!(r.attempted, b.ops(), "{name}");
        }
        assert!(!plain.virt.op_ns.is_empty(), "{name}: no ops timed");
        assert_eq!(plain.virt, again.virt, "{name}: rounds differ");
        assert_eq!(
            plain.virt, traced.virt,
            "{name}: tracing moved virtual time"
        );
    }
}

#[test]
fn seeds_change_inputs_but_a_seed_repeats() {
    for name in NAMES {
        let virt = |seed| {
            let b = from_seed(name, seed).expect("workload");
            run_round(b.as_ref(), &Ctx::untraced()).virt
        };
        let (a, b, c) = (virt(1), virt(1), virt(2));
        assert_eq!(a, b, "{name}: same seed, different virtual results");
        assert_ne!(a, c, "{name}: seeds 1 and 2 gave identical virtual results");
    }
}

#[test]
fn vector_matches_committed_pipeline_baseline() {
    let doc = committed("BENCH_pipeline.json");
    let r = row(&doc, "bytes", 4194304.0);
    let p = vector::Params::paper();
    let round = run_round(&p, &Ctx::untraced());
    assert_eq!(round.failed, 0);
    let lat = &round.virt.op_ns;
    assert_eq!(lat.len(), 8);
    let best = *lat.iter().min().unwrap() as f64 / 1e3;
    let settled = *lat.last().unwrap() as f64 / 1e3;
    assert_eq!(best, field(&r, "adaptive_best_us"));
    assert_eq!(settled, field(&r, "adaptive_settled_us"));
}

#[test]
fn halo_matches_committed_rank_scale_baseline() {
    let doc = committed("BENCH_rank_scale.json");
    let r = row(&doc, "ranks", 1024.0);
    let p = halo::Params::committed();
    let round = run_round(&p, &Ctx::untraced());
    assert_eq!(
        round.failed, 0,
        "halo3d disagrees with the serial reference"
    );
    let slowest = round.virt.marks[0] as f64 / 1e6;
    assert_eq!(slowest, field(&r, "virt_ms"));
}

#[test]
fn traced_run_is_complete() {
    let b = from_seed("vector_4m", 3).expect("workload");
    let report = measure(b.as_ref(), 0.0, true);
    // The test harness runs tests on threads of its own, so the process
    // thread budget is not checked here.
    let notes: Vec<&String> = report
        .notes
        .iter()
        .filter(|n| !n.contains(" threads on "))
        .collect();
    assert!(notes.is_empty(), "notes: {notes:?}");
    assert_eq!(report.failed, 0);
    let metric = |n: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.0 == n)
            .map(|m| m.1)
            .expect("metric reported")
    };
    assert_eq!(metric("sim_trace.dropped"), 0.0);
    assert_eq!(metric("ops_failed_ratio"), 0.0);
    assert!(metric("sim_trace.events") > 0.0);
    assert!(metric("sim_core.grants") > 0.0);
    assert!(report.spans().iter().any(|s| s.name == "send" && s.op > 0));
}

#[test]
fn manifest_lists_exactly_the_reported_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&ncbench::runner::END_TO_END));
    assert_eq!(listed("per_layer"), own(&ncbench::runner::PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, NAMES);
}
