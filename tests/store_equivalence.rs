//! The engine's two group-store instantiations agree bit for bit.
//!
//! Each splittable built-in runs twice: bare, where its factory builds the
//! inline store, and wrapped in a plain forwarding factory that keeps the
//! default `group_store`, so every group is a `Box<dyn Aggregator>`. Both
//! must give the same rows, the same checkpoint bytes at every cut, and the
//! same state-mode closed groups — with a 16-slot LFTA evicting on most
//! tuples, with the split on and off, with Horvitz–Thompson scaled tuples
//! mixed in, and with exponential decay steep enough that landmark
//! renormalization fires inside every bucket.

use std::sync::Arc;

use forward_decay::core::decay::{Exponential, Monomial};
use forward_decay::engine::prelude::*;
use forward_decay::gen::TraceConfig;

/// Forwards `make` to the wrapped factory and nothing else, so the engine
/// falls back to the boxed store.
struct Forwarding(Arc<dyn AggregatorFactory>);

impl AggregatorFactory for Forwarding {
    fn make(&self, bucket_start: Micros) -> Box<dyn Aggregator> {
        self.0.make(bucket_start)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn splittable(&self) -> bool {
        self.0.splittable()
    }
}

fn builtins() -> Vec<Arc<dyn AggregatorFactory>> {
    let len = |p: &Packet| p.len as f64;
    // α = 20/s overflows g(n) = e^{αn} about 35 s into a bucket.
    let exp = Exponential::new(20.0);
    vec![
        count_factory(),
        sum_factory(len),
        fwd_count_factory(exp),
        fwd_sum_factory(exp, len),
        fwd_avg_factory(exp, len),
        fwd_var_factory(exp, len),
        fwd_min_factory(exp, len),
        fwd_max_factory(Monomial::quadratic(), len),
    ]
}

fn trace() -> Vec<Packet> {
    TraceConfig {
        seed: 4242,
        duration_secs: 150.0,
        rate_pps: 1_500.0,
        n_hosts: 300,
        ooo_jitter_secs: 1.0,
        ..Default::default()
    }
    .generate()
}

fn query(agg: Arc<dyn AggregatorFactory>, two_level: bool) -> Query {
    Query::builder("store_equivalence")
        .filter(|p| p.proto == Proto::Tcp)
        .group_by(|p| p.dst_host())
        .bucket_secs(60)
        .slack_secs(2.0)
        .aggregate(agg)
        .two_level(two_level)
        .lfta_slots(16)
        .build()
}

/// A value's exact bits, so NaN averages compare equal to themselves.
fn bits(v: &AggValue) -> u64 {
    v.as_float().expect("scalar built-in").to_bits()
}

fn row_bits(rows: &[Row]) -> Vec<(Micros, u64, u64)> {
    rows.iter()
        .map(|r| (r.bucket_start, r.key, bits(&r.value)))
        .collect()
}

/// `(bucket, key, value at bucket end, checkpoint bytes)` of closed groups.
fn closed_bits(groups: &[ClosedGroup]) -> Vec<(u64, u64, u64, Vec<u8>)> {
    groups
        .iter()
        .map(|g| {
            let t_end = ((g.bucket + 1) * 60) as f64;
            let ckpt = g.agg.checkpoint().expect("built-ins checkpoint");
            (g.bucket, g.key, bits(&g.agg.emit(t_end)), ckpt)
        })
        .collect()
}

/// Feeds `packets` to both engines in lockstep — every seventh tuple with
/// an HT scale when the aggregate takes one — and checks that the rows or
/// closed groups drained so far and the checkpoint bytes agree at regular
/// cuts. Returns how many cuts were compared.
fn lockstep(inline: &mut Engine, boxed: &mut Engine, packets: &[Packet], scaled: bool) -> usize {
    let mut cuts = 0;
    for (i, p) in packets.iter().enumerate() {
        let scale = if scaled && i % 7 == 3 { 2.5 } else { 1.0 };
        inline.process_scaled(p, scale);
        boxed.process_scaled(p, scale);
        if i % 25_000 == 12_345 {
            assert_eq!(
                inline.checkpoint().expect("checkpoint"),
                boxed.checkpoint().expect("checkpoint"),
                "checkpoint bytes at tuple {i}"
            );
            assert_eq!(
                row_bits(&inline.drain_rows()),
                row_bits(&boxed.drain_rows())
            );
            assert_eq!(
                closed_bits(&inline.drain_closed_state()),
                closed_bits(&boxed.drain_closed_state())
            );
            cuts += 1;
        }
    }
    assert_eq!(inline.stats(), boxed.stats());
    cuts
}

#[test]
fn inline_and_boxed_stores_give_identical_rows_and_checkpoints() {
    let packets = trace();
    for f in builtins() {
        let scaled = f.make(0).supports_scaled_updates();
        for two_level in [true, false] {
            let wrapped: Arc<dyn AggregatorFactory> = Arc::new(Forwarding(f.clone()));
            let mut inline = Engine::new(query(f.clone(), two_level));
            let mut boxed = Engine::new(query(wrapped, two_level));
            assert!(lockstep(&mut inline, &mut boxed, &packets, scaled) > 4);
            if two_level {
                assert!(inline.stats().lfta_evictions > 10_000, "{}", f.name());
            }
            let (a, b) = (inline.finish(), boxed.finish());
            assert_eq!(
                row_bits(&a),
                row_bits(&b),
                "{} two_level={two_level}",
                f.name()
            );
            assert_eq!(inline.stats(), boxed.stats());
            assert!(inline.stats().rows_out > 500, "{}", f.name());
        }
    }
}

#[test]
fn inline_and_boxed_stores_give_identical_closed_state() {
    let packets = trace();
    for f in builtins() {
        let scaled = f.make(0).supports_scaled_updates();
        for two_level in [true, false] {
            let wrapped: Arc<dyn AggregatorFactory> = Arc::new(Forwarding(f.clone()));
            let mut inline = Engine::new(query(f.clone(), two_level));
            let mut boxed = Engine::new(query(wrapped, two_level));
            inline.keep_closed_state();
            boxed.keep_closed_state();
            lockstep(&mut inline, &mut boxed, &packets, scaled);
            let (a, b) = (inline.finish_state(), boxed.finish_state());
            assert!(!a.is_empty(), "{}", f.name());
            assert_eq!(closed_bits(&a), closed_bits(&b), "{}", f.name());
        }
    }
}

#[test]
fn checkpoints_cross_restore_between_the_instantiations() {
    // A blob written by one instantiation restores into the other and the
    // run finishes exactly as if it had never stopped.
    let packets = trace();
    let cut = packets.len() / 2;
    for f in builtins() {
        let wrapped: Arc<dyn AggregatorFactory> = Arc::new(Forwarding(f.clone()));
        let mut straight = Engine::new(query(f.clone(), true));
        for p in &packets[..cut] {
            straight.process(p);
        }
        let blob = straight.checkpoint().expect("checkpoint");
        let mut restored = Engine::restore(query(wrapped, true), &blob).expect("restore");
        assert_eq!(restored.checkpoint().expect("checkpoint"), blob);
        for p in &packets[cut..] {
            straight.process(p);
            restored.process(p);
        }
        assert_eq!(
            row_bits(&restored.finish()),
            row_bits(&straight.finish()),
            "{}",
            f.name()
        );
    }
}
