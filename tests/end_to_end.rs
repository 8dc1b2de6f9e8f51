//! End-to-end correctness: the full engine pipeline (filter → LFTA → HFTA →
//! bucket close) against brute-force reference computations on a realistic
//! synthetic trace.

use std::collections::HashMap;
use std::sync::Arc;

use forward_decay::core::decay::{Exponential, ForwardDecay, Monomial, NoDecay};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 11,
        duration_secs: 150.0, // spans three 60 s buckets
        rate_pps: 20_000.0,
        n_hosts: 1_000,
        zipf_skew: 1.1,
        tcp_fraction: 0.8,
        ..Default::default()
    }
    .generate()
}

/// Brute-force per-(bucket, group) reference for a decayed sum.
fn reference_decayed_sum<G: ForwardDecay>(
    packets: &[Packet],
    g: &G,
    val: impl Fn(&Packet) -> f64,
    key: impl Fn(&Packet) -> u64,
    tcp_only: bool,
) -> HashMap<(u64, u64), f64> {
    let mut out: HashMap<(u64, u64), f64> = HashMap::new();
    for p in packets {
        if tcp_only && p.proto != Proto::Tcp {
            continue;
        }
        let bucket = p.ts / (60 * MICROS_PER_SEC);
        let landmark = (bucket * 60) as f64;
        let t_end = ((bucket + 1) * 60) as f64;
        let w = g.weight(landmark, p.ts_secs(), t_end);
        *out.entry((bucket, key(p))).or_default() += w * val(p);
    }
    out
}

#[test]
fn undecayed_count_matches_exact_per_group() {
    let packets = trace();
    let q = Query::builder("count")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_key())
        .bucket_secs(60)
        .aggregate(count_factory())
        .build();
    let rows = Engine::new(q).run(packets.iter().copied());

    let mut exact: HashMap<(u64, u64), f64> = HashMap::new();
    for p in packets.iter().filter(|p| p.proto == Proto::Tcp) {
        *exact
            .entry((p.ts / (60 * MICROS_PER_SEC), p.dst_key()))
            .or_default() += 1.0;
    }
    assert_eq!(rows.len(), exact.len());
    for r in &rows {
        let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
        assert_eq!(r.value.as_float().unwrap(), exact[&(bucket, r.key)]);
    }
}

#[test]
fn forward_quadratic_sum_matches_brute_force_both_architectures() {
    let packets = trace();
    let g = Monomial::quadratic();
    let exact = reference_decayed_sum(&packets, &g, |p| p.len as f64, |p| p.dst_key(), true);
    for two_level in [true, false] {
        let q = Query::builder("fwd_sum")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_key())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(g, |p| p.len as f64))
            .two_level(two_level)
            .lfta_slots(512) // force eviction traffic
            .build();
        let mut e = Engine::new(q);
        let rows = e.run(packets.iter().copied());
        assert_eq!(rows.len(), exact.len(), "two_level = {two_level}");
        if two_level {
            assert!(
                e.stats().lfta_evictions > 0,
                "test should exercise evictions"
            );
        }
        for r in &rows {
            let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
            let want = exact[&(bucket, r.key)];
            let got = r.value.as_float().unwrap();
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "two_level = {two_level}, bucket {bucket}, key {}: {got} vs {want}",
                r.key
            );
        }
    }
}

#[test]
fn forward_exponential_count_matches_brute_force() {
    let packets = trace();
    let g = Exponential::new(0.1);
    let exact = reference_decayed_sum(&packets, &g, |_| 1.0, |p| p.dst_host(), false);
    let q = Query::builder("fwd_count")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(fwd_count_factory(g))
        .build();
    let rows = Engine::new(q).run(packets.iter().copied());
    assert_eq!(rows.len(), exact.len());
    for r in &rows {
        let bucket = r.bucket_start / (60 * MICROS_PER_SEC);
        let want = exact[&(bucket, r.key)];
        let got = r.value.as_float().unwrap();
        assert!((got - want).abs() <= 1e-9 * want.max(1.0));
    }
}

#[test]
fn engine_heavy_hitters_match_exact_decayed_counts() {
    let packets = trace();
    let g = Monomial::quadratic();
    // Exact decayed counts per host in bucket 0.
    let mut exact: HashMap<u64, f64> = HashMap::new();
    let mut total = 0.0;
    for p in packets
        .iter()
        .filter(|p| p.ts < 60 * MICROS_PER_SEC && p.proto == Proto::Tcp)
    {
        let w = g.weight(0.0, p.ts_secs(), 60.0);
        *exact.entry(p.dst_host()).or_default() += w;
        total += w;
    }
    let phi = 0.02;
    let eps = 0.001;
    let q = Query::builder("hh")
        .filter(|p| p.proto == Proto::Tcp)
        .bucket_secs(60)
        .aggregate(fwd_hh_factory(g, eps, phi, |p| p.dst_host()))
        .build();
    let rows = Engine::new(q).run(packets.iter().copied());
    let bucket0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
    let reported: HashMap<u64, f64> = bucket0
        .value
        .as_items()
        .unwrap()
        .iter()
        .map(|iv| (iv.item, iv.value))
        .collect();
    // Completeness: every true φ-heavy host is reported.
    for (&host, &c) in &exact {
        if c >= phi * total {
            assert!(reported.contains_key(&host), "missed heavy host {host}");
        }
    }
    // Soundness: nothing below (φ − ε)·C, and estimates within ε·C.
    for (&host, &est) in &reported {
        let truth = exact.get(&host).copied().unwrap_or(0.0);
        assert!(truth >= (phi - eps) * total - 1e-9, "false positive {host}");
        assert!(est >= truth - 1e-9 && est - truth <= eps * total + 1e-9);
    }
}

#[test]
fn engine_quantiles_track_exact_decayed_ranks() {
    let packets = trace();
    let g = Exponential::new(0.05);
    let eps = 0.02;
    let q = Query::builder("quant")
        .bucket_secs(60)
        .aggregate(fwd_quantile_factory(
            g,
            11,
            eps,
            vec![0.25, 0.5, 0.75, 0.95],
            |p| p.len as u64,
        ))
        .build();
    let rows = Engine::new(q).run(packets.iter().copied());
    let bucket0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
    // Exact weighted ranks in bucket 0.
    let in_bucket: Vec<&Packet> = packets
        .iter()
        .filter(|p| p.ts < 60 * MICROS_PER_SEC)
        .collect();
    let weights: Vec<f64> = in_bucket
        .iter()
        .map(|p| g.weight(0.0, p.ts_secs(), 60.0))
        .collect();
    let total: f64 = weights.iter().sum();
    for iv in bucket0.value.as_items().unwrap() {
        let (value, phi) = (iv.item, iv.value);
        // The length distribution has atoms (e.g. 30% of packets are exactly
        // 1500 B), so a correct φ-quantile `v` satisfies
        // rank(< v) ≤ (φ+ε)·C and rank(≤ v) ≥ (φ−ε)·C.
        let rank_le: f64 = in_bucket
            .iter()
            .zip(&weights)
            .filter(|(p, _)| (p.len as u64) <= value)
            .map(|(_, w)| w)
            .sum();
        let rank_lt: f64 = in_bucket
            .iter()
            .zip(&weights)
            .filter(|(p, _)| (p.len as u64) < value)
            .map(|(_, w)| w)
            .sum();
        assert!(
            rank_le / total >= phi - 4.0 * eps,
            "phi = {phi}: value {value} has rank(≤) fraction {}",
            rank_le / total
        );
        assert!(
            rank_lt / total <= phi + 4.0 * eps,
            "phi = {phi}: value {value} has rank(<) fraction {}",
            rank_lt / total
        );
    }
}

#[test]
fn space_per_group_ordering_matches_figure_2d() {
    // The paper's Figure 2(d): undecayed ≈ 4 B < forward ≈ 8 B ≪ EH (KBs).
    let packets = trace();
    let probe = |factory: std::sync::Arc<fd_engine::udaf::FnFactory>| -> f64 {
        let q = Query::builder("probe")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_key())
            .bucket_secs(60)
            .aggregate(factory)
            .two_level(false)
            .build();
        let mut e = Engine::new(q);
        for p in packets.iter().filter(|p| p.ts < 60 * MICROS_PER_SEC) {
            e.process(p);
        }
        e.space_per_group().expect("live groups")
    };
    let undecayed = probe(count_factory());
    let forward = probe(fwd_count_factory(Monomial::quadratic()));
    let eh = probe(eh_count_factory(
        0.1,
        DynBackward::from_decay(fd_core::decay::BackPolynomial::new(2.0)),
    ));
    assert_eq!(undecayed, 4.0);
    assert_eq!(forward, 8.0);
    assert!(
        eh > 50.0 * forward,
        "EH per-group space should be orders of magnitude above forward decay: {eh} bytes"
    );
}

/// FNV-1a digest of every row's bucket, key and (item, value bits), in
/// emission order: two runs agree on it only if they agree bit for bit,
/// including the order of tied heavy hitters.
fn rows_digest(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for r in rows {
        put(r.bucket_start);
        put(r.key);
        put_value(&mut put, &r.value);
    }
    h
}

fn put_value(put: &mut impl FnMut(u64), v: &AggValue) {
    match v {
        AggValue::Float(x) => put(x.to_bits()),
        AggValue::Items(items) => {
            for iv in items {
                put(iv.item);
                put(iv.value.to_bits());
            }
        }
        AggValue::Multi(parts) => {
            for p in parts {
                put_value(put, p);
            }
        }
    }
}

/// FNV-1a digest of a byte string.
fn bytes_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn fwd_hh_rows_match_golden_digest() {
    // Small SpaceSaving capacities force evictions; NoDecay's unit weights
    // force count ties, so the digest pins the eviction choice under ties.
    // The digests were recorded from the SipHash-indexed implementation.
    let packets = TraceConfig {
        seed: 2024,
        duration_secs: 90.0,
        rate_pps: 5_000.0,
        n_hosts: 400,
        ..Default::default()
    }
    .generate();
    let run = |agg: std::sync::Arc<dyn AggregatorFactory>| {
        let q = Query::builder("hh_golden")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| (p.dst_port % 4) as u64)
            .bucket_secs(60)
            .aggregate(agg)
            .build();
        rows_digest(&Engine::new(q).run(packets.iter().copied()))
    };
    let decayed = run(fwd_hh_factory(Monomial::quadratic(), 0.01, 0.02, |p| {
        p.dst_host()
    }));
    let unit = run(fwd_hh_factory(NoDecay, 0.02, 0.01, |p| p.dst_host()));
    assert_eq!(
        (decayed, unit),
        (10_356_521_099_286_149_524, 14_591_871_040_784_619_952),
        "fwd_hh rows changed"
    );
}

/// The small seeded trace the golden digests below were recorded on.
fn golden_trace() -> Vec<Packet> {
    TraceConfig {
        seed: 77,
        duration_secs: 150.0,
        rate_pps: 1_000.0,
        n_hosts: 64,
        ..Default::default()
    }
    .generate()
}

/// The eight splittable built-ins. `Exponential::new(20.0)` overflows `g`
/// well inside a 60 s bucket, so landmark renormalization fires mid-bucket.
fn splittable_builtins() -> Vec<(&'static str, Arc<fd_engine::udaf::FnFactory>)> {
    let len = |p: &Packet| p.len as f64;
    let exp = Exponential::new(20.0);
    let poly = Monomial::quadratic();
    vec![
        ("count", count_factory()),
        ("sum", sum_factory(len)),
        ("fwd_count", fwd_count_factory(poly)),
        ("fwd_sum", fwd_sum_factory(exp, len)),
        ("fwd_avg", fwd_avg_factory(poly, len)),
        ("fwd_var", fwd_var_factory(exp, len)),
        ("fwd_min", fwd_min_factory(exp, len)),
        ("fwd_max", fwd_max_factory(poly, len)),
    ]
}

fn golden_query(agg: Arc<dyn AggregatorFactory>, two_level: bool) -> Query {
    Query::builder("golden")
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .aggregate(agg)
        .two_level(two_level)
        .lfta_slots(16)
        .build()
}

#[test]
fn splittable_builtin_rows_match_golden_digests() {
    // Recorded from the boxed-only LFTA/HFTA pipeline: the inline group
    // store must reproduce its rows bit for bit, with the 16-slot LFTA
    // evicting constantly and without the LFTA.
    let packets = golden_trace();
    let got: Vec<(&str, u64, u64)> = splittable_builtins()
        .into_iter()
        .map(|(name, f)| {
            let run = |two_level| {
                let mut e = Engine::new(golden_query(f.clone(), two_level));
                rows_digest(&e.run(packets.iter().copied()))
            };
            (name, run(true), run(false))
        })
        .collect();
    let want: Vec<(&str, u64, u64)> = vec![
        ("count", 3189393631719264850, 3189393631719264850),
        ("sum", 13453525553634590756, 13453525553634590756),
        ("fwd_count", 14134483926525705557, 5011352715020631710),
        ("fwd_sum", 6718597637870187783, 9836208848812908149),
        ("fwd_avg", 1234253621288616481, 11360229623520368313),
        ("fwd_var", 3832270895965086364, 17263793570586832534),
        ("fwd_min", 17467905061910299941, 17467905061910299941),
        ("fwd_max", 13149087715258102856, 13149087715258102856),
    ];
    assert_eq!(got, want, "built-in rows changed");
}

/// The golden checkpoint: `fwd_sum` under renormalizing exponential decay,
/// 16 LFTA slots, stopped 60% into the trace — after bucket 0 closed (its
/// rows are still pending), with bucket 1 open in both levels.
fn golden_checkpoint_engine(packets: &[Packet]) -> (Engine, usize) {
    let f = fwd_sum_factory(Exponential::new(20.0), |p| p.len as f64);
    let mut e = Engine::new(golden_query(f, true));
    let cut = packets.len() * 3 / 5;
    for p in &packets[..cut] {
        e.process(p);
    }
    (e, cut)
}

const PARENT_CHECKPOINT: &[u8] = include_bytes!("data/fwd_sum_mid_stream.ckpt");

#[test]
fn mid_stream_checkpoint_matches_golden_digest() {
    let packets = golden_trace();
    let (e, _) = golden_checkpoint_engine(&packets);
    let blob = e.checkpoint().expect("checkpoint");
    assert_eq!(
        (blob.len(), bytes_digest(&blob)),
        (7882, 12439180789223850481),
        "checkpoint bytes changed"
    );
    assert_eq!(blob, PARENT_CHECKPOINT);
}

#[test]
fn restore_from_parent_checkpoint_finishes_bit_identical() {
    // The blob was written by the boxed-only pipeline; restoring it into
    // the inline store must resume the run exactly.
    let packets = golden_trace();
    let (mut straight, cut) = golden_checkpoint_engine(&packets);
    let f = fwd_sum_factory(Exponential::new(20.0), |p| p.len as f64);
    let mut restored = Engine::restore(golden_query(f, true), PARENT_CHECKPOINT).expect("restore");
    for p in &packets[cut..] {
        straight.process(p);
        restored.process(p);
    }
    assert_eq!(restored.stats(), straight.stats());
    let (a, b) = (restored.finish(), straight.finish());
    assert!(!a.is_empty());
    assert_eq!(rows_digest(&a), rows_digest(&b));
    assert_eq!(restored.stats(), straight.stats());
}
