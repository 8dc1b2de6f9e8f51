//! A counting wrapper around the query's [`AggregatorFactory`], used only by
//! the traced pass: it counts makes, updates, merges and emits, and times one
//! update in [`SAMPLE_EVERY`] per thread.
//!
//! Counts are kept in plain fields of each aggregator and added to the shared
//! atomics when it is dropped, so the shard workers do not contend on a
//! shared cache line per tuple. Every aggregator is dropped by the end of
//! `finish()` (merged partials, emitted groups), so the totals are complete
//! once `finish()` has returned. The totals are leaked, one small struct per
//! traced pass, so aggregators reach them without a reference count.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use fd_core::checkpoint::CodecError;
use fd_engine::prelude::{AggValue, Aggregator, AggregatorFactory, Micros, Packet};

/// One update in this many (per thread) is timed.
pub const SAMPLE_EVERY: u32 = 64;

/// Totals over every aggregator a [`CountingFactory`] made.
#[derive(Debug, Default)]
pub struct Counters {
    pub makes: AtomicU64,
    pub updates: AtomicU64,
    pub merges: AtomicU64,
    pub emits: AtomicU64,
    pub timed_updates: AtomicU64,
    pub timed_ns: AtomicU64,
}

impl Counters {
    /// Mean wall time of the sampled updates, in ns (one clock read
    /// included).
    pub fn update_ns_sampled(&self) -> f64 {
        let n = self.timed_updates.load(Relaxed);
        if n == 0 {
            0.0
        } else {
            self.timed_ns.load(Relaxed) as f64 / n as f64
        }
    }
}

/// Wraps a factory; every aggregator it makes reports into `counters`.
pub struct CountingFactory {
    inner: Arc<dyn AggregatorFactory>,
    counters: &'static Counters,
}

impl CountingFactory {
    pub fn wrap(inner: Arc<dyn AggregatorFactory>) -> (Arc<Self>, &'static Counters) {
        let counters: &'static Counters = Box::leak(Box::default());
        (Arc::new(Self { inner, counters }), counters)
    }
}

impl AggregatorFactory for CountingFactory {
    fn make(&self, bucket_start: Micros) -> Box<dyn Aggregator> {
        self.counters.makes.fetch_add(1, Relaxed);
        Box::new(CountingAgg {
            inner: Some(self.inner.make(bucket_start)),
            counters: self.counters,
            updates: 0,
            merges: 0,
            timed_updates: 0,
            timed_ns: 0,
        })
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn splittable(&self) -> bool {
        self.inner.splittable()
    }
}

thread_local! {
    static TICK: Cell<u32> = const { Cell::new(0) };
}

struct CountingAgg {
    /// `None` only after a merge has moved it into its peer.
    inner: Option<Box<dyn Aggregator>>,
    counters: &'static Counters,
    updates: u64,
    merges: u64,
    timed_updates: u64,
    timed_ns: u64,
}

impl CountingAgg {
    fn inner(&self) -> &dyn Aggregator {
        self.inner
            .as_deref()
            .expect("aggregator used after its merge")
    }

    fn inner_mut(&mut self) -> &mut dyn Aggregator {
        self.inner
            .as_deref_mut()
            .expect("aggregator used after its merge")
    }

    fn counted(&mut self, apply: impl FnOnce(&mut dyn Aggregator)) {
        self.updates += 1;
        let tick = TICK.with(|t| {
            let n = t.get().wrapping_add(1);
            t.set(n);
            n
        });
        if tick.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            apply(self.inner_mut());
            self.timed_ns += t0.elapsed().as_nanos() as u64;
            self.timed_updates += 1;
        } else {
            apply(self.inner_mut());
        }
    }
}

impl Drop for CountingAgg {
    fn drop(&mut self) {
        let c = self.counters;
        c.updates.fetch_add(self.updates, Relaxed);
        if self.merges > 0 {
            c.merges.fetch_add(self.merges, Relaxed);
        }
        if self.timed_updates > 0 {
            c.timed_updates.fetch_add(self.timed_updates, Relaxed);
            c.timed_ns.fetch_add(self.timed_ns, Relaxed);
        }
    }
}

impl Aggregator for CountingAgg {
    fn update(&mut self, pkt: &Packet) {
        self.counted(|a| a.update(pkt));
    }
    fn supports_scaled_updates(&self) -> bool {
        self.inner().supports_scaled_updates()
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        self.counted(|a| a.update_scaled(pkt, scale));
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let mut peer = other
            .as_any_box()
            .downcast::<CountingAgg>()
            .expect("merge peer was made by another factory");
        let peer_inner = peer.inner.take().expect("merge peer already merged");
        self.merges += 1;
        self.inner_mut().merge_boxed(peer_inner);
    }
    fn emit(&self, t: f64) -> AggValue {
        self.counters.emits.fetch_add(1, Relaxed);
        self.inner().emit(t)
    }
    fn size_bytes(&self) -> usize {
        self.inner().size_bytes()
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.inner().checkpoint()
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        self.inner().checkpoint_into(out)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.inner_mut().restore(bytes)
    }
}
