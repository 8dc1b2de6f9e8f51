//! The correctness gate: rows against a reference computed off the clock.

use std::collections::{HashMap, HashSet};

use fd_core::decay::Monomial;
use fd_core::oracle::{Oracle, OracleEvent};
use fd_engine::prelude::*;
use fd_engine::tuple::timestamp;

/// Compares `got` with `want`: the same `(bucket, key)` sequence, and values
/// within `rel_tol` relative (`0.0` demands bit-identical values).
pub fn compare_rows(got: &[Row], want: &[Row], rel_tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, reference has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g.bucket_start, g.key) != (w.bucket_start, w.key) {
            return Err(format!(
                "row {i}: (bucket {}, key {}) where the reference has (bucket {}, key {})",
                g.bucket_start, g.key, w.bucket_start, w.key
            ));
        }
        if !values_match(&g.value, &w.value, rel_tol) {
            return Err(format!(
                "row {i} (bucket {}, key {}): {} where the reference has {}",
                g.bucket_start, g.key, g.value, w.value
            ));
        }
    }
    Ok(())
}

fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    if rel_tol == 0.0 {
        return a.to_bits() == b.to_bits();
    }
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

fn values_match(a: &AggValue, b: &AggValue, rel_tol: f64) -> bool {
    match (a, b) {
        (AggValue::Float(x), AggValue::Float(y)) => close(*x, *y, rel_tol),
        (AggValue::Items(x), AggValue::Items(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.item == q.item && close(p.value, q.value, rel_tol))
        }
        _ => false,
    }
}

/// Relative tolerance of the oracle check: the engine sums frozen
/// numerators in a different order than the oracle sums per-item weights.
pub const ORACLE_REL_TOL: f64 = 1e-9;

/// Checks `fwd_count` (g = n², grouped by `dst_key`, TCP only, in-order
/// trace) rows against [`fd_core::oracle`]: the `(bucket, key)` set must be
/// exactly the one the trace holds, and `samples` rows spread over the
/// output are recomputed from scratch.
pub fn oracle_check(
    trace: &[Packet],
    rows: &[Row],
    bucket_micros: Micros,
    samples: usize,
) -> Result<(), String> {
    let bucket_of = |p: &Packet| p.ts / bucket_micros * bucket_micros;
    let mut groups: Vec<(Micros, u64)> = trace
        .iter()
        .filter(|p| p.proto == Proto::Tcp)
        .map(|p| (bucket_of(p), p.dst_key()))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    groups.sort_unstable();
    if groups.len() != rows.len() {
        return Err(format!(
            "{} rows, the trace holds {} (bucket, key) groups",
            rows.len(),
            groups.len()
        ));
    }
    if let Some(i) = (0..rows.len()).find(|&i| groups[i] != (rows[i].bucket_start, rows[i].key)) {
        return Err(format!(
            "row {i}: (bucket {}, key {}) where the trace has (bucket {}, key {})",
            rows[i].bucket_start, rows[i].key, groups[i].0, groups[i].1
        ));
    }
    let step = (rows.len() / samples.max(1)).max(1);
    let picked: HashMap<(Micros, u64), usize> = (0..rows.len())
        .step_by(step)
        .map(|i| ((rows[i].bucket_start, rows[i].key), i))
        .collect();
    let mut events: HashMap<(Micros, u64), Vec<OracleEvent>> = HashMap::new();
    for p in trace.iter().filter(|p| p.proto == Proto::Tcp) {
        let g = (bucket_of(p), p.dst_key());
        if picked.contains_key(&g) {
            events.entry(g).or_default().push(OracleEvent {
                t: p.timestamp(),
                v: 1.0,
                key: g.1,
            });
        }
    }
    for (g, i) in &picked {
        let mut oracle = Oracle::new(Monomial::quadratic(), timestamp(g.0));
        oracle.push_all(events.get(g).map_or(&[][..], Vec::as_slice));
        let want = oracle.count(timestamp(g.0 + bucket_micros));
        let got = rows[*i].value.as_float().unwrap_or(f64::NAN);
        if !close(got, want, ORACLE_REL_TOL) {
            return Err(format!(
                "row {i} (bucket {}, key {}): decayed count {got}, the oracle says {want}",
                g.0, g.1
            ));
        }
    }
    Ok(())
}
