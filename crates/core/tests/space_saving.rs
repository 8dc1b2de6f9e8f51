//! `WeightedSpaceSaving` against a reference model, and its checkpoint
//! layout.
//!
//! The reference is the straightforward implementation: a SipHash
//! `HashMap` index and a min-heap of counter indices compared through the
//! counter array. The summary under test must agree with it bit for bit
//! after every step, because the order of the counters and the eviction
//! choice under count ties both reach the query output.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fd_core::checkpoint::{from_bytes, put_u64, to_bytes};
use fd_core::heavy_hitters::{HeavyHitter, HhCounter, WeightedSpaceSaving};
use fd_core::Mergeable;

#[derive(Clone)]
struct Reference {
    capacity: usize,
    counters: Vec<HhCounter>,
    heap: Vec<usize>,
    heap_pos: Vec<usize>,
    index: HashMap<u64, usize>,
    total: f64,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            counters: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            index: HashMap::new(),
            total: 0.0,
        }
    }

    fn update(&mut self, item: u64, w: f64) {
        if w == 0.0 {
            return;
        }
        self.total += w;
        if let Some(&ci) = self.index.get(&item) {
            self.counters[ci].count += w;
            self.sift_down(self.heap_pos[ci]);
        } else if self.counters.len() < self.capacity {
            let ci = self.counters.len();
            self.counters.push(HhCounter {
                item,
                count: w,
                error: 0.0,
            });
            self.heap.push(ci);
            self.heap_pos.push(ci);
            self.index.insert(item, ci);
            self.sift_up(ci);
        } else {
            let ci = self.heap[0];
            let old = self.counters[ci];
            self.index.remove(&old.item);
            self.index.insert(item, ci);
            self.counters[ci] = HhCounter {
                item,
                count: old.count + w,
                error: old.count,
            };
            self.sift_down(0);
        }
    }

    fn estimate(&self, item: u64) -> Option<HhCounter> {
        self.index.get(&item).map(|&ci| self.counters[ci])
    }

    fn min_count(&self) -> f64 {
        if self.counters.len() < self.capacity {
            0.0
        } else {
            self.heap.first().map_or(0.0, |&ci| self.counters[ci].count)
        }
    }

    fn heavy_hitters(&self, phi: f64) -> Vec<HeavyHitter> {
        let threshold = phi * self.total;
        let mut out: Vec<HeavyHitter> = self
            .counters
            .iter()
            .filter(|c| c.count >= threshold)
            .map(|c| HeavyHitter {
                item: c.item,
                count: c.count,
                guaranteed: c.count - c.error >= threshold,
            })
            .collect();
        out.sort_by(|a, b| b.count.total_cmp(&a.count));
        out
    }

    fn scale_all(&mut self, factor: f64) {
        for c in &mut self.counters {
            c.count *= factor;
            c.error *= factor;
        }
        self.total *= factor;
    }

    fn merge_from(&mut self, other: &Self) {
        let (min_self, min_other) = (self.min_count(), other.min_count());
        let mut merged: HashMap<u64, HhCounter> = HashMap::new();
        for c in &self.counters {
            merged.insert(c.item, *c);
        }
        for c in &other.counters {
            merged
                .entry(c.item)
                .and_modify(|m| {
                    m.count += c.count;
                    m.error += c.error;
                })
                .or_insert(HhCounter {
                    item: c.item,
                    count: c.count + min_self,
                    error: c.error + min_self,
                });
        }
        for m in merged.values_mut() {
            if self.index.contains_key(&m.item) && !other.index.contains_key(&m.item) {
                m.count += min_other;
                m.error += min_other;
            }
        }
        let mut all: Vec<HhCounter> = merged.into_values().collect();
        all.sort_by(|a, b| b.count.total_cmp(&a.count).then(a.item.cmp(&b.item)));
        all.truncate(self.capacity);
        let total = self.total + other.total;
        *self = Self::new(self.capacity);
        self.total = total;
        for (ci, c) in all.into_iter().enumerate() {
            self.counters.push(c);
            self.heap.push(ci);
            self.heap_pos.push(ci);
            self.index.insert(c.item, ci);
            self.sift_up(ci);
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        self.counters[self.heap[a]].count < self.counters[self.heap[b]].count
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a]] = a;
        self.heap_pos[self.heap[b]] = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.less(i, parent) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.less(l, smallest) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(r, smallest) {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    /// The checkpoint layout, written field by field, with the map entries
    /// in the order `map_order` gives (a permutation of counter indices).
    fn blob(&self, map_order: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.capacity as u64);
        put_u64(&mut out, self.counters.len() as u64);
        for c in &self.counters {
            put_u64(&mut out, c.item);
            put_u64(&mut out, c.count.to_bits());
            put_u64(&mut out, c.error.to_bits());
        }
        for v in [&self.heap, &self.heap_pos] {
            put_u64(&mut out, v.len() as u64);
            for &x in v {
                put_u64(&mut out, x as u64);
            }
        }
        put_u64(&mut out, map_order.len() as u64);
        for &ci in map_order {
            put_u64(&mut out, self.counters[ci].item);
            put_u64(&mut out, ci as u64);
        }
        put_u64(&mut out, self.total.to_bits());
        out
    }
}

fn bits(c: &HhCounter) -> (u64, u64, u64) {
    (c.item, c.count.to_bits(), c.error.to_bits())
}

fn hh_bits(hh: &[HeavyHitter]) -> Vec<(u64, u64, bool)> {
    hh.iter()
        .map(|h| (h.item, h.count.to_bits(), h.guaranteed))
        .collect()
}

/// Asserts that `ss` and `r` agree bit for bit on every query.
fn assert_agree(ss: &WeightedSpaceSaving, r: &Reference, probes: &[u64], step: &str) {
    let got: Vec<_> = ss.counters().iter().map(bits).collect();
    let want: Vec<_> = r.counters.iter().map(bits).collect();
    assert_eq!(got, want, "counters differ after {step}");
    assert_eq!(
        ss.min_count().to_bits(),
        r.min_count().to_bits(),
        "min_count differs after {step}"
    );
    assert_eq!(ss.total_weight().to_bits(), r.total.to_bits());
    for &item in probes {
        assert_eq!(
            ss.estimate(item).as_ref().map(bits),
            r.estimate(item).as_ref().map(bits),
            "estimate({item}) differs after {step}"
        );
    }
    for phi in [0.0, 0.05, 0.2] {
        assert_eq!(
            hh_bits(&ss.heavy_hitters(phi)),
            hh_bits(&r.heavy_hitters(phi)),
            "heavy_hitters({phi}) differs after {step}"
        );
    }
}

/// A weight drawn to produce exact ties and zero weights often.
fn weight(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => 0.0,
        1 | 2 => 1.0,
        3 => 0.5,
        4 => 2.0,
        _ => rng.gen_range(0.01..4.0),
    }
}

fn item(rng: &mut SmallRng, cap: usize) -> u64 {
    // A skewed domain about three times the capacity: hot items hit, the
    // tail evicts.
    let domain = 3 * cap as u64;
    rng.gen_range(0..domain).min(rng.gen_range(0..domain))
}

#[test]
fn matches_reference_model_step_by_step() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cap = rng.gen_range(1usize..24);
        let probes: Vec<u64> = (0..3 * cap as u64).collect();
        let mut ss = WeightedSpaceSaving::new(cap);
        let mut r = Reference::new(cap);
        for step in 0..600 {
            match rng.gen_range(0u32..100) {
                0..=1 => {
                    let f = [0.0, 0.5, 1e-3, 2.0][rng.gen_range(0usize..4)];
                    ss.scale_all(f);
                    r.scale_all(f);
                }
                2..=3 => {
                    let mut ss2 = WeightedSpaceSaving::new(cap);
                    let mut r2 = Reference::new(cap);
                    for _ in 0..rng.gen_range(0..4 * cap) {
                        let (i, w) = (item(&mut rng, cap), weight(&mut rng));
                        ss2.update(i, w);
                        r2.update(i, w);
                    }
                    ss.merge_from(&ss2);
                    r.merge_from(&r2);
                }
                _ => {
                    let (i, w) = (item(&mut rng, cap), weight(&mut rng));
                    ss.update(i, w);
                    r.update(i, w);
                }
            }
            assert_agree(&ss, &r, &probes, &format!("seed {seed} step {step}"));
        }
    }
}

/// A summary and its reference twin after a seeded stream with ties and
/// evictions.
fn built(seed: u64, cap: usize) -> (WeightedSpaceSaving, Reference) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ss = WeightedSpaceSaving::new(cap);
    let mut r = Reference::new(cap);
    for _ in 0..40 * cap {
        let (i, w) = (item(&mut rng, cap), weight(&mut rng));
        ss.update(i, w);
        r.update(i, w);
    }
    (ss, r)
}

#[test]
fn identical_summaries_checkpoint_to_identical_bytes() {
    let (first, _) = built(3, 64);
    let blob = to_bytes(&first).unwrap();
    for _ in 0..20 {
        let (ss, _) = built(3, 64);
        assert_eq!(to_bytes(&ss).unwrap(), blob);
    }
    let restored: WeightedSpaceSaving = from_bytes(&blob).unwrap();
    assert_eq!(to_bytes(&restored).unwrap(), blob, "restore → checkpoint");
}

#[test]
fn checkpoint_layout_is_unchanged_and_map_order_is_free() {
    for seed in 0..8u64 {
        let cap = 32;
        let (mut twin, r) = built(seed, cap);
        let in_counter_order: Vec<usize> = (0..r.counters.len()).collect();
        assert_eq!(to_bytes(&twin).unwrap(), r.blob(&in_counter_order));

        let mut rng = SmallRng::seed_from_u64(100 + seed);
        let mut shuffled = in_counter_order;
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let mut restored: WeightedSpaceSaving = from_bytes(&r.blob(&shuffled)).unwrap();
        let probes: Vec<u64> = (0..3 * cap as u64).collect();
        let mut r = r;
        for step in 0..2000 {
            let (i, w) = (item(&mut rng, cap), weight(&mut rng));
            restored.update(i, w);
            twin.update(i, w);
            r.update(i, w);
            let got: Vec<_> = restored.counters().iter().map(bits).collect();
            let want: Vec<_> = twin.counters().iter().map(bits).collect();
            assert_eq!(got, want, "seed {seed}: restored copy diverged at {step}");
            assert_agree(&restored, &r, &probes, &format!("seed {seed} step {step}"));
        }
    }
}

#[test]
fn inconsistent_checkpoints_are_rejected() {
    let (_, r) = built(9, 8);
    let order: Vec<usize> = (0..r.counters.len()).collect();
    let reject = |what: &str, r: &Reference, order: &[usize]| {
        let blob = r.blob(order);
        assert!(
            from_bytes::<WeightedSpaceSaving>(&blob).is_err(),
            "{what} was accepted"
        );
    };

    for capacity in [0, 1 << 40, u64::MAX as usize] {
        let mut bad = r.clone();
        bad.capacity = capacity;
        reject(&format!("capacity {capacity}"), &bad, &order);
    }
    let mut bad = r.clone();
    bad.capacity = r.counters.len() - 1;
    reject("more counters than capacity", &bad, &order);

    let mut bad = r.clone();
    bad.heap[3] = r.counters.len();
    reject("heap index out of range", &bad, &order);

    let mut bad = r.clone();
    bad.heap_pos.swap(1, 2);
    reject("heap_pos mismatch", &bad, &order);

    let mut bad = r.clone();
    let ci = bad.heap[0];
    bad.counters[ci].count = bad.counters[bad.heap[1]].count + 1.0;
    reject("heap order violated", &bad, &order);

    let mut bad = r.clone();
    bad.counters[1].item = bad.counters[0].item;
    reject("duplicate counter item", &bad, &order);

    let mut dup = order.clone();
    dup[1] = 0;
    reject("duplicate map entry", &r, &dup);
    reject("short map", &r, &order[1..]);
    // Point the first map entry at the wrong counter: the map's entries
    // start right after the heap_pos section.
    let mut blob = r.blob(&order);
    let n = r.counters.len();
    let ci_at = 8 + (8 + 24 * n) + 2 * (8 + 8 * n) + 8 + 8;
    blob[ci_at..ci_at + 8].copy_from_slice(&1u64.to_le_bytes());
    assert!(
        from_bytes::<WeightedSpaceSaving>(&blob).is_err(),
        "crossed map"
    );
}

#[test]
fn a_huge_decoded_capacity_allocates_nothing() {
    // The reader fuzz flips bits of the capacity field; a restore must size
    // its buffers from the counters it decoded, not from the capacity.
    let mut r = Reference::new(4);
    r.update(1, 2.0);
    r.update(2, 3.0);
    r.capacity = 1 << 31;
    let mut ss: WeightedSpaceSaving = from_bytes(&r.blob(&[0, 1])).unwrap();
    assert_eq!(ss.capacity(), 1 << 31);
    assert!(ss.size_bytes() < 1024, "{} bytes", ss.size_bytes());
    ss.merge_from(&ss.clone());
    assert!(
        ss.size_bytes() < 1024,
        "{} bytes after merge",
        ss.size_bytes()
    );
    for i in 0..100 {
        ss.update(i, 1.0);
    }
    assert_eq!(ss.len(), 100);
}
