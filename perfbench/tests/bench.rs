//! The benchmark on a tiny trace: every workload prints every named metric
//! with its unit, and the correctness gate trips on a perturbed reference.

use std::path::PathBuf;

use fd_engine::prelude::*;
use perfbench::{check, Config, Outcome, TraceShape, Workload, END_TO_END, PER_LAYER};

/// One second of stream time across the first bucket boundary: about
/// 100k tuples, and the bucket `[0, 60)` closes mid-run.
const TINY: TraceShape = TraceShape {
    start_secs: 59.5,
    secs: 1.0,
};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_run(w: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        shape: TINY,
        work_dir: work_dir(&format!("{}-{trace}", w.name())),
    };
    let out = perfbench::run(&cfg).expect("run");
    assert!(out.correct, "{}: {:?}", w.name(), out.problems);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    out
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = tiny_run(w, trace);
            let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, table, "{}", w.name());
            let json = out.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                let unit = format!("\"unit\": \"{}\"}}", m.unit);
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{entry} not in {json}"));
                assert!(json[at..].contains(&unit), "{} {}", w.name(), m.name);
            }
            if !trace {
                for name in [
                    "tput_tps",
                    "cpu_ns_per_tuple",
                    "finish_ms",
                    "lat_p50_us",
                    "setup_s",
                ] {
                    assert!(value(&out, name) > 0.0, "{} {name}", w.name());
                }
                // No loss: the add-one floor alone.
                let loss = value(&out, "loss_frac");
                assert!(loss > 0.0 && loss < 1e-4, "{} loss_frac {loss}", w.name());
                continue;
            }
            assert!(value(&out, "trace.unaccounted_pct") < 10.0, "{}", w.name());
            assert!(value(&out, "aggregate.updates") > 0.0);
            assert!(value(&out, "engine.rows_out") > 0.0);
            assert_eq!(value(&out, "engine.buckets_closed"), 2.0);
            let durable = w == Workload::HhDurable;
            assert_eq!(value(&out, "durability.wal_bytes_per_tuple") > 0.0, durable);
            assert_eq!(value(&out, "durability.store_bytes") > 0.0, durable);
            assert_eq!(
                value(&out, "shard.ingest_ns_per_tuple") > 0.0,
                w.shards() > 0
            );
            assert_eq!(
                value(&out, "engine.process_ns_per_tuple") > 0.0,
                w.shards() == 0
            );
            if durable {
                for name in ["lfta.evictions", "lfta.evict_ratio", "lfta.occupancy"] {
                    assert_eq!(value(&out, name), 0.0, "{name} on hh_durable");
                }
            } else {
                assert!(value(&out, "lfta.evictions") > 0.0, "{}", w.name());
            }
        }
    }
}

fn fig2_rows(trace: &[Packet]) -> Vec<Row> {
    let w = Workload::Fig2Single;
    Engine::new(w.query(w.factory())).run(trace.iter().copied())
}

fn perturbed(rows: &[Row], i: usize, factor: f64) -> Vec<Row> {
    let mut rows = rows.to_vec();
    let v = rows[i].value.as_float().expect("fwd_count emits floats");
    rows[i].value = AggValue::Float(v * factor);
    rows
}

#[test]
fn correctness_gate_trips_on_a_perturbed_reference_row() {
    let trace = Workload::Fig2Single.trace_config(7, TINY).generate();
    let rows = fig2_rows(&trace);
    let bm = 60 * MICROS_PER_SEC;
    let i = rows.len() / 2;

    check::compare_rows(&rows, &rows, 0.0).expect("identical rows");
    check::oracle_check(&trace, &rows, bm, rows.len()).expect("engine agrees with the oracle");

    let off = perturbed(&rows, i, 1.0 + 1e-9);
    assert!(check::compare_rows(&rows, &off, 1e-12).is_err());
    assert!(check::compare_rows(&rows, &off, 0.0).is_err());
    check::compare_rows(&rows, &off, 1e-6).expect("within a loose tolerance");
    let off = perturbed(&rows, i, 1.0 + 1e-6);
    assert!(check::oracle_check(&trace, &off, bm, rows.len()).is_err());

    let mut rekeyed = rows.clone();
    rekeyed[i].key ^= 1;
    assert!(check::compare_rows(&rows, &rekeyed, 1e-12).is_err());
    assert!(check::oracle_check(&trace, &rekeyed, bm, 1).is_err());
    assert!(check::compare_rows(&rows, &rows[1..], 1e-12).is_err());
}

#[test]
fn durable_run_refuses_a_used_store_directory() {
    let dir = work_dir("used-store");
    let used = dir.join(format!("store-{}-1", std::process::id()));
    std::fs::create_dir_all(&used).expect("mkdir");
    std::fs::write(used.join("MANIFEST"), b"leftover").expect("write");
    let cfg = Config {
        workload: Workload::HhDurable,
        seed: 7,
        seconds: 0.0,
        trace: false,
        shape: TINY,
        work_dir: dir,
    };
    let err = perfbench::run(&cfg).expect_err("a used store must be refused");
    assert!(err.contains("refusing"), "{err}");
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    // fig2_sharded runs on demand only: its wall-clock figures did not
    // repeat from run to run (NOTES.md).
    for (w, gated) in [
        ("fig2_single", true),
        ("fig2_sharded", false),
        ("hh_durable", true),
    ] {
        let entry = format!("\"name\": \"{w}\"");
        assert_eq!(json.contains(&entry), gated, "{w}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
    }
}
