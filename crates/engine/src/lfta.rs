//! The two-level group store: Gigascope's low-level aggregation table
//! (LFTA) and the high-level group map (HFTA) behind one type.
//!
//! GS splits splittable queries into a low-level part running a *fixed-size*
//! hash table close to the packet source, and a high-level part combining
//! the partial aggregates. The low table is direct-mapped: a colliding group
//! evicts the resident entry, which is merged upward into its high-level
//! group. This is what makes undecayed and forward-decayed aggregation so
//! cheap in Figure 2(a): most tuples fold into a slot with one hash and one
//! arithmetic op, and only evictions touch the (slower) high level.
//!
//! # One store, two instantiations
//!
//! `TwoLevel` is generic over an `AggKind`: the concrete per-group
//! state type and the operations on it. It is instantiated twice:
//!
//! - **inline**, with the state types of the eight splittable built-ins
//!   (`count`, `sum`, `fwd_count`, `fwd_sum`, `fwd_avg`, `fwd_var`,
//!   `fwd_min`, `fwd_max`; see [`crate::aggregators`]). Their states live
//!   directly in the LFTA slots and the HFTA maps and are folded with
//!   static dispatch;
//! - **boxed**, with `BoxedKind`: every group is a `Box<dyn Aggregator>`
//!   from the factory's `make` — `multi`, the non-splittable aggregates,
//!   user UDAFs and wrapping factories.
//!
//! The factory hands the engine its store
//! ([`AggregatorFactory::group_store`]); the engine sees either
//! instantiation through the object-safe `Store` trait, one dynamic call
//! per tuple.
//!
//! # Layout
//!
//! - **LFTA:** `n` slots of `(key, bucket, state)`, indexed by
//!   `mix64(key ^ bucket.rotate_left(32)) mod n` (a mask when `n` is a
//!   power of two). On a collision the resident is merged into its HFTA
//!   group, the slot is reset in place to exactly the state
//!   `make(bucket_start)` gives, and the tuple folds into it: an inline
//!   miss allocates nothing.
//! - **HFTA:** bucket id → the bucket's groups. A bucket keeps one map
//!   until it holds 512 groups, then splits into 256 sub-maps chosen by
//!   the top byte of `mix64(key)`. Each table stays small, so a bucket
//!   never holds one multi-megabyte table (freeing one raised glibc's
//!   mmap threshold and ratcheted RSS), while a bucket of a few groups —
//!   a heavy-hitter query grouped by port — does not pay for sub-maps it
//!   cannot fill. A vacant group gets `make` + merge of the evicted
//!   partial, the same float operations as an occupied one.
//! - **Close:** the bucket's rows are written straight into the engine's
//!   output (reserved by group count), then the appended tail is sorted by
//!   key; keys are unique per bucket, so the order is the stable one. In
//!   state mode each inline state is boxed at close.
//!
//! # Bit identity
//!
//! The two instantiations must give the same rows, checkpoint bytes and
//! closed states for the same aggregate. A built-in's boxed form
//! (`KindAgg`, what its `make` returns) delegates every method to the same
//! `AggKind`, so both run the same float operations in the same order;
//! checkpoints write each state with the same framing.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fd_core::checkpoint::{put_u64, CodecError, Reader};
use fd_core::hash::{mix64, Mix64State};

use crate::engine::{ClosedGroup, Row};
use crate::tuple::{secs, Micros, Packet};
use crate::udaf::{write_framed, AggValue, Aggregator, AggregatorFactory, Query};

/// One aggregate's per-group state type and the operations on it — what
/// [`TwoLevel`] is generic over.
pub(crate) trait AggKind: Send + Sync + 'static {
    /// The per-group state.
    type State: Send + 'static;

    /// A fresh state for a group of the bucket starting at `bucket_start`
    /// (decayed aggregates take it as their landmark).
    fn make(&self, bucket_start: Micros) -> Self::State;

    /// Folds one tuple into `s`.
    fn update(&self, s: &mut Self::State, pkt: &Packet);

    /// Whether [`update_scaled`](Self::update_scaled) honours non-unit
    /// scales ([`Aggregator::supports_scaled_updates`]).
    fn supports_scaled(&self) -> bool {
        false
    }

    /// Folds one tuple carrying a Horvitz–Thompson scale
    /// ([`Aggregator::update_scaled`]).
    fn update_scaled(&self, s: &mut Self::State, pkt: &Packet, scale: f64) {
        debug_assert!(
            scale == 1.0,
            "non-unit HT scale {scale} reached an aggregator without scaled-update support"
        );
        self.update(s, pkt);
    }

    /// Absorbs the partial state `src` of the same group into `dst`.
    fn merge(&self, dst: &mut Self::State, src: Self::State);

    /// The group's output value at query time `t` (seconds).
    fn emit(&self, s: &Self::State, t: f64) -> AggValue;

    /// The paper's space-per-group figure for `s`.
    fn size_bytes(&self, s: &Self::State) -> usize;

    /// Appends `s`'s checkpoint bytes to `out`; `None` if it has none.
    fn checkpoint_into(&self, s: &Self::State, out: &mut Vec<u8>) -> Option<()>;

    /// Refills a fresh [`make`](Self::make) state from checkpoint bytes.
    fn restore(&self, s: &mut Self::State, bytes: &[u8]) -> Result<(), CodecError>;

    /// Boxes a state: a built-in's `make`, and state-mode closes.
    fn boxed(kind: &Arc<Self>, s: Self::State) -> Box<dyn Aggregator>
    where
        Self: Sized,
    {
        Box::new(KindAgg {
            kind: Arc::clone(kind),
            state: s,
        })
    }
}

/// A built-in's boxed form: its inline state behind the UDAF interface,
/// for `multi`, wrapping factories and state-mode closes. Every method
/// delegates to the [`AggKind`] the inline store runs.
struct KindAgg<K: AggKind> {
    kind: Arc<K>,
    state: K::State,
}

impl<K: AggKind> Aggregator for KindAgg<K> {
    fn update(&mut self, pkt: &Packet) {
        self.kind.update(&mut self.state, pkt);
    }
    fn supports_scaled_updates(&self) -> bool {
        self.kind.supports_scaled()
    }
    fn update_scaled(&mut self, pkt: &Packet, scale: f64) {
        self.kind.update_scaled(&mut self.state, pkt, scale);
    }
    fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
        let other = other
            .as_any_box()
            .downcast::<Self>()
            .expect("aggregator type mismatch");
        self.kind.merge(&mut self.state, other.state);
    }
    fn emit(&self, t: f64) -> AggValue {
        self.kind.emit(&self.state, t)
    }
    fn size_bytes(&self) -> usize {
        self.kind.size_bytes(&self.state)
    }
    fn as_any_box(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
    fn checkpoint(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.checkpoint_into(&mut out)?;
        Some(out)
    }
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        self.kind.checkpoint_into(&self.state, out)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.kind.restore(&mut self.state, bytes)
    }
}

/// The boxed instantiation: each group is an aggregator the factory made.
pub(crate) struct BoxedKind(Arc<dyn AggregatorFactory>);

impl AggKind for BoxedKind {
    type State = Box<dyn Aggregator>;

    fn make(&self, bucket_start: Micros) -> Self::State {
        self.0.make(bucket_start)
    }
    fn update(&self, s: &mut Self::State, pkt: &Packet) {
        s.update(pkt);
    }
    fn update_scaled(&self, s: &mut Self::State, pkt: &Packet, scale: f64) {
        s.update_scaled(pkt, scale);
    }
    fn merge(&self, dst: &mut Self::State, src: Self::State) {
        dst.merge_boxed(src);
    }
    fn emit(&self, s: &Self::State, t: f64) -> AggValue {
        s.emit(t)
    }
    fn size_bytes(&self, s: &Self::State) -> usize {
        s.size_bytes()
    }
    fn checkpoint_into(&self, s: &Self::State, out: &mut Vec<u8>) -> Option<()> {
        s.checkpoint_into(out)
    }
    fn restore(&self, s: &mut Self::State, bytes: &[u8]) -> Result<(), CodecError> {
        s.restore(bytes)
    }
    fn boxed(_: &Arc<Self>, s: Self::State) -> Box<dyn Aggregator> {
        s
    }
}

/// A query's group state — LFTA and HFTA — as built by
/// [`AggregatorFactory::group_store`]. Opaque: the engine drives it.
pub struct GroupStore(pub(crate) Box<dyn Store>);

impl GroupStore {
    /// The boxed store for `query`, whose groups come from
    /// `query.aggregate`'s `make`.
    pub(crate) fn boxed(query: &Query) -> Self {
        Self::inline(Arc::new(BoxedKind(Arc::clone(&query.aggregate))), query)
    }

    /// The store for `query` holding `kind`'s states.
    pub(crate) fn inline<K: AggKind>(kind: Arc<K>, query: &Query) -> Self {
        Self(Box::new(TwoLevel::new(kind, query)))
    }
}

/// Where closing buckets go: rows, or raw state (the engine's state mode).
pub(crate) enum Closed<'a> {
    Rows(&'a mut Vec<Row>),
    State(&'a mut Vec<ClosedGroup>),
}

/// The engine's view of a [`TwoLevel`] store, whatever its state type.
pub(crate) trait Store: Send {
    /// Folds a unit-scale tuple into group `(bucket, key)`: through the
    /// LFTA when the query is split, else straight into the HFTA.
    fn update(&mut self, bucket: u64, key: u64, pkt: &Packet);

    /// Folds a scaled tuple straight into the HFTA group (the LFTA slots
    /// carry no scale).
    fn update_scaled(&mut self, bucket: u64, key: u64, pkt: &Packet, scale: f64);

    /// Merges the LFTA residents of buckets below `below` (all when
    /// `None`) into the HFTA, then closes those HFTA buckets in ascending
    /// order into `out`. Returns how many buckets closed and the last one.
    fn close(&mut self, below: Option<u64>, out: Closed<'_>) -> (u64, Option<u64>);

    /// `(slots, evictions, updates)` of the LFTA; `None` when single-level.
    fn lfta(&self) -> Option<(u64, u64, u64)>;

    /// Occupied LFTA slots; `None` when single-level. O(slots).
    fn lfta_occupancy(&self) -> Option<usize>;

    /// Footprint of every live state plus the LFTA table.
    fn space_bytes(&self) -> usize;

    /// `(total size_bytes, group count)` over the HFTA groups.
    fn group_space(&self) -> (usize, usize);

    /// Writes the HFTA section (buckets ascending, keys sorted) and, when
    /// split, the LFTA section (residents in place) of an engine
    /// checkpoint. `None` if a state declines checkpointing.
    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()>;

    /// Reads what [`checkpoint_into`](Store::checkpoint_into) wrote into
    /// this freshly built store. `lfta` is the header's
    /// `(slots, evictions, updates)`.
    fn restore_from(
        &mut self,
        r: &mut Reader<'_>,
        lfta: Option<(u64, u64, u64)>,
    ) -> Result<(), CodecError>;
}

struct Slot<S> {
    key: u64,
    bucket: u64,
    state: S,
}

/// The fixed-size direct-mapped partial-aggregation table.
struct Lfta<S> {
    slots: Vec<Option<Slot<S>>>,
    /// `slots.len() - 1` when that is a power of two; the index is then a
    /// mask instead of a division (the same slot either way).
    mask: Option<usize>,
    evictions: u64,
    updates: u64,
}

impl<S> Lfta<S> {
    fn new(n_slots: usize) -> Self {
        assert!(n_slots > 0);
        let mut slots = Vec::with_capacity(n_slots);
        slots.resize_with(n_slots, || None);
        Self {
            slots,
            mask: n_slots.is_power_of_two().then(|| n_slots - 1),
            evictions: 0,
            updates: 0,
        }
    }

    #[inline]
    fn index(&self, key: u64, bucket: u64) -> usize {
        let h = mix64(key ^ bucket.rotate_left(32)) as usize;
        match self.mask {
            Some(m) => h & m,
            None => h % self.slots.len(),
        }
    }
}

/// Number of HFTA sub-maps of a split bucket.
const SUB_MAPS: usize = 256;

/// A bucket splits into sub-maps once it holds this many groups: its one
/// table is then about 64 KiB, below glibc's default mmap threshold.
const SPLIT_AT: usize = 512;

type GroupMap<S> = HashMap<u64, S, Mix64State>;

/// One bucket's HFTA groups. A bucket with few groups keeps one map; past
/// [`SPLIT_AT`] groups it splits into [`SUB_MAPS`] maps chosen by the top
/// byte of `mix64(key)`, so no bucket ever holds one multi-megabyte table.
/// Spreading a few groups over sub-maps would only cost cache lines.
enum Groups<S> {
    One(GroupMap<S>),
    Split(Vec<GroupMap<S>>),
}

impl<S> Default for Groups<S> {
    fn default() -> Self {
        Groups::One(HashMap::with_hasher(Mix64State::default()))
    }
}

impl<S> Groups<S> {
    /// The map that holds (or will hold) `key`.
    #[inline]
    fn map(&mut self, key: u64) -> &mut GroupMap<S> {
        if matches!(self, Groups::One(m) if m.len() >= SPLIT_AT) {
            self.split();
        }
        match self {
            Groups::One(m) => m,
            Groups::Split(maps) => &mut maps[(mix64(key) >> 56) as usize],
        }
    }

    #[cold]
    fn split(&mut self) {
        let Groups::One(one) = self else { return };
        let hasher = *one.hasher();
        let mut maps: Vec<GroupMap<S>> = (0..SUB_MAPS)
            .map(|_| HashMap::with_hasher(hasher))
            .collect();
        for (key, s) in one.drain() {
            maps[(mix64(key) >> 56) as usize].insert(key, s);
        }
        *self = Groups::Split(maps);
    }

    fn maps(&self) -> &[GroupMap<S>] {
        match self {
            Groups::One(m) => std::slice::from_ref(m),
            Groups::Split(maps) => maps,
        }
    }

    fn len(&self) -> usize {
        self.maps().iter().map(HashMap::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = (&u64, &S)> {
        self.maps().iter().flatten()
    }

    fn into_entries(self) -> impl Iterator<Item = (u64, S)> {
        let maps = match self {
            Groups::One(m) => vec![m],
            Groups::Split(maps) => maps,
        };
        maps.into_iter().flatten()
    }
}

/// The generic two-level group store (see the module docs).
pub(crate) struct TwoLevel<K: AggKind> {
    kind: Arc<K>,
    bucket_micros: Micros,
    /// `None` when the query runs single-level.
    lfta: Option<Lfta<K::State>>,
    /// bucket id → high-level groups.
    buckets: BTreeMap<u64, Groups<K::State>>,
}

impl<K: AggKind> TwoLevel<K> {
    fn new(kind: Arc<K>, query: &Query) -> Self {
        let split = query.two_level && query.aggregate.splittable();
        Self {
            kind,
            bucket_micros: query.bucket_micros,
            lfta: split.then(|| Lfta::new(query.lfta_slots)),
            buckets: BTreeMap::new(),
        }
    }
}

/// The HFTA group `(bucket, key)`, made if vacant. An evicted partial is
/// merged into it, so a vacant group gets `make` + merge.
fn hfta_group<'a, K: AggKind>(
    kind: &K,
    buckets: &'a mut BTreeMap<u64, Groups<K::State>>,
    bucket_micros: Micros,
    bucket: u64,
    key: u64,
) -> &'a mut K::State {
    buckets
        .entry(bucket)
        .or_default()
        .map(key)
        .entry(key)
        .or_insert_with(|| kind.make(bucket * bucket_micros))
}

impl<K: AggKind> TwoLevel<K> {
    fn emit_bucket(&self, bucket: u64, groups: Groups<K::State>, out: &mut Closed<'_>) {
        let kind = &self.kind;
        let bucket_start = bucket * self.bucket_micros;
        match out {
            Closed::Rows(rows) => {
                let t_end = secs(bucket_start.saturating_add(self.bucket_micros));
                let start = rows.len();
                rows.reserve(groups.len());
                for (key, s) in groups.into_entries() {
                    rows.push(Row {
                        bucket_start,
                        key,
                        value: kind.emit(&s, t_end),
                    });
                }
                rows[start..].sort_unstable_by_key(|r| r.key);
            }
            Closed::State(state) => {
                let start = state.len();
                state.reserve(groups.len());
                for (key, s) in groups.into_entries() {
                    state.push(ClosedGroup {
                        bucket,
                        key,
                        agg: K::boxed(kind, s),
                    });
                }
                state[start..].sort_unstable_by_key(|c| c.key);
            }
        }
    }
}

impl<K: AggKind> Store for TwoLevel<K> {
    fn update(&mut self, bucket: u64, key: u64, pkt: &Packet) {
        let kind = &*self.kind;
        let Some(lfta) = &mut self.lfta else {
            let s = hfta_group(kind, &mut self.buckets, self.bucket_micros, bucket, key);
            return kind.update(s, pkt);
        };
        lfta.updates += 1;
        let idx = lfta.index(key, bucket);
        match &mut lfta.slots[idx] {
            Some(s) if s.key == key && s.bucket == bucket => kind.update(&mut s.state, pkt),
            Some(s) => {
                lfta.evictions += 1;
                let fresh = kind.make(bucket * self.bucket_micros);
                let partial = std::mem::replace(&mut s.state, fresh);
                let group =
                    hfta_group(kind, &mut self.buckets, self.bucket_micros, s.bucket, s.key);
                kind.merge(group, partial);
                s.key = key;
                s.bucket = bucket;
                kind.update(&mut s.state, pkt);
            }
            slot @ None => {
                let mut state = kind.make(bucket * self.bucket_micros);
                kind.update(&mut state, pkt);
                *slot = Some(Slot { key, bucket, state });
            }
        }
    }

    fn update_scaled(&mut self, bucket: u64, key: u64, pkt: &Packet, scale: f64) {
        let kind = &*self.kind;
        let s = hfta_group(kind, &mut self.buckets, self.bucket_micros, bucket, key);
        kind.update_scaled(s, pkt, scale);
    }

    fn close(&mut self, below: Option<u64>, mut out: Closed<'_>) -> (u64, Option<u64>) {
        let due = |bucket: u64| below.is_none_or(|t| bucket < t);
        if let Some(lfta) = &mut self.lfta {
            for slot in &mut lfta.slots {
                if slot.as_ref().is_some_and(|s| due(s.bucket)) {
                    let s = slot.take().expect("checked above");
                    let kind = &*self.kind;
                    let group =
                        hfta_group(kind, &mut self.buckets, self.bucket_micros, s.bucket, s.key);
                    kind.merge(group, s.state);
                }
            }
        }
        let (mut closed, mut last) = (0, None);
        while let Some(first) = self.buckets.first_entry() {
            if !due(*first.key()) {
                break;
            }
            let (bucket, groups) = first.remove_entry();
            self.emit_bucket(bucket, groups, &mut out);
            closed += 1;
            last = Some(bucket);
        }
        (closed, last)
    }

    fn lfta(&self) -> Option<(u64, u64, u64)> {
        self.lfta
            .as_ref()
            .map(|l| (l.slots.len() as u64, l.evictions, l.updates))
    }

    fn lfta_occupancy(&self) -> Option<usize> {
        self.lfta
            .as_ref()
            .map(|l| l.slots.iter().filter(|s| s.is_some()).count())
    }

    fn space_bytes(&self) -> usize {
        let low = self.lfta.as_ref().map_or(0, |l| {
            l.slots
                .iter()
                .flatten()
                .map(|s| self.kind.size_bytes(&s.state))
                .sum::<usize>()
                + l.slots.capacity() * std::mem::size_of::<Option<Slot<K::State>>>()
        });
        low + self.group_space().0
    }

    fn group_space(&self) -> (usize, usize) {
        self.buckets
            .values()
            .flat_map(Groups::iter)
            .fold((0, 0), |(bytes, n), (_, s)| {
                (bytes + self.kind.size_bytes(s), n + 1)
            })
    }

    fn checkpoint_into(&self, out: &mut Vec<u8>) -> Option<()> {
        let kind = &*self.kind;
        put_u64(out, self.buckets.len() as u64);
        let mut entries: Vec<(&u64, &K::State)> = Vec::new();
        for (&bucket, groups) in &self.buckets {
            put_u64(out, bucket);
            entries.clear();
            entries.extend(groups.iter());
            entries.sort_unstable_by_key(|&(&key, _)| key);
            put_u64(out, entries.len() as u64);
            for &(&key, s) in &entries {
                put_u64(out, key);
                write_framed(out, |out| kind.checkpoint_into(s, out))?;
            }
        }
        if let Some(lfta) = &self.lfta {
            // Residents go in place — index, key, bucket, state — so a
            // restore keeps the exact future fold/evict/flush order. The
            // count is patched in after the walk.
            let count_pos = out.len();
            put_u64(out, 0);
            let mut resident = 0u64;
            for (idx, slot) in lfta.slots.iter().enumerate() {
                if let Some(s) = slot {
                    resident += 1;
                    put_u64(out, idx as u64);
                    put_u64(out, s.key);
                    put_u64(out, s.bucket);
                    write_framed(out, |out| kind.checkpoint_into(&s.state, out))?;
                }
            }
            out[count_pos..count_pos + 8].copy_from_slice(&resident.to_le_bytes());
        }
        Some(())
    }

    fn restore_from(
        &mut self,
        r: &mut Reader<'_>,
        lfta: Option<(u64, u64, u64)>,
    ) -> Result<(), CodecError> {
        let kind = &*self.kind;
        let read_state = |r: &mut Reader<'_>, bucket: u64| {
            let len = r.u64()? as usize;
            let mut s = kind.make(bucket.saturating_mul(self.bucket_micros));
            kind.restore(&mut s, r.bytes(len)?)?;
            Ok::<_, CodecError>(s)
        };
        let n_buckets = r.u64()?;
        for _ in 0..n_buckets {
            let bucket = r.u64()?;
            let n_groups = r.u64()?;
            let groups = self.buckets.entry(bucket).or_default();
            for _ in 0..n_groups {
                let key = r.u64()?;
                let s = read_state(r, bucket)?;
                groups.map(key).insert(key, s);
            }
        }
        match (lfta, self.lfta.is_some()) {
            (Some((n_slots, evictions, updates)), true) => {
                if n_slots == 0 {
                    return Err(CodecError::new("LFTA snapshot with zero slots"));
                }
                let mut table = Lfta::new(n_slots as usize);
                table.evictions = evictions;
                table.updates = updates;
                for _ in 0..r.u64()? {
                    let idx = r.u64()? as usize;
                    let key = r.u64()?;
                    let bucket = r.u64()?;
                    let state = read_state(r, bucket)?;
                    let Some(slot) = table.slots.get_mut(idx) else {
                        return Err(CodecError::new(format!("LFTA slot {idx} out of range")));
                    };
                    *slot = Some(Slot { key, bucket, state });
                }
                self.lfta = Some(table);
                Ok(())
            }
            (None, false) => Ok(()),
            (Some(_), false) => Err(CodecError::new(
                "snapshot has an LFTA but the query is single-level",
            )),
            (None, true) => Err(CodecError::new(
                "query is two-level but the snapshot has no LFTA",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::count_factory;
    use crate::tuple::Proto;
    use crate::udaf::FnFactory;

    fn pkt(ts: Micros) -> Packet {
        Packet {
            ts,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            len: 1,
            proto: Proto::Tcp,
        }
    }

    /// Both instantiations of `count`: inline, and boxed through a
    /// forwarding factory that keeps the default `group_store`.
    fn stores(slots: usize) -> [GroupStore; 2] {
        let inline = count_factory();
        let make = Arc::clone(&inline);
        let boxed = FnFactory::new("count", true, move |b| make.make(b));
        let q = |f: Arc<FnFactory>| {
            Query::builder("q")
                .aggregate(f)
                .bucket_secs(1)
                .lfta_slots(slots)
                .build()
        };
        let (qi, qb) = (q(inline), q(boxed));
        [qi.aggregate.group_store(&qi), qb.aggregate.group_store(&qb)]
    }

    fn close_all(store: &mut GroupStore) -> Vec<Row> {
        let mut rows = Vec::new();
        store.0.close(None, Closed::Rows(&mut rows));
        rows
    }

    #[test]
    fn same_group_folds_in_place() {
        for mut s in stores(64) {
            for _ in 0..10 {
                s.0.update(0, 7, &pkt(1));
            }
            assert_eq!(s.0.lfta(), Some((64, 0, 10)));
            assert_eq!(s.0.lfta_occupancy(), Some(1));
            // Nothing reached the HFTA yet.
            assert_eq!(s.0.group_space(), (0, 0));
            let rows = close_all(&mut s);
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].value, AggValue::Float(10.0));
            assert_eq!(s.0.lfta_occupancy(), Some(0));
        }
    }

    #[test]
    fn collisions_evict_partials_into_the_hfta() {
        // A 1-slot table forces every key change to evict.
        for mut s in stores(1) {
            s.0.update(0, 1, &pkt(1));
            s.0.update(0, 2, &pkt(2));
            assert_eq!(s.0.lfta(), Some((1, 1, 2)));
            assert_eq!(s.0.group_space(), (4, 1));
        }
    }

    #[test]
    fn bucket_change_evicts_same_key_on_collision() {
        // The slot hash covers (key, bucket); with one slot the new bucket
        // must evict the old bucket's partial rather than fold into it.
        for mut s in stores(1) {
            s.0.update(0, 7, &pkt(1));
            s.0.update(1, 7, &pkt(1_000_001));
            let mut rows = Vec::new();
            assert_eq!(s.0.close(Some(1), Closed::Rows(&mut rows)), (1, Some(0)));
            assert_eq!((rows[0].bucket_start, rows[0].key), (0, 7));
            assert_eq!(rows[0].value, AggValue::Float(1.0));
            // Bucket 1's resident stays in its slot.
            assert_eq!(s.0.lfta_occupancy(), Some(1));
        }
    }

    #[test]
    fn partials_sum_to_total_under_heavy_collisions() {
        // Whatever the eviction pattern, no tuple may be lost; a non-power-
        // of-two table exercises the modulo index.
        for mut s in stores(7) {
            for i in 0..10_000u64 {
                s.0.update(0, i % 100, &pkt(1));
            }
            assert!(s.0.lfta().expect("split").1 > 0, "expected collisions");
            let rows = close_all(&mut s);
            assert_eq!(rows.len(), 100);
            let total: f64 = rows.iter().map(|r| r.value.as_float().unwrap()).sum();
            assert_eq!(total, 10_000.0);
            assert!(rows.windows(2).all(|w| w[0].key < w[1].key));
        }
    }

    #[test]
    fn slot_index_masks_only_power_of_two_tables() {
        for n in [1, 6, 7, 16, 4096] {
            let l = Lfta::<u64>::new(n);
            assert_eq!(l.mask.is_some(), n.is_power_of_two());
            for key in 0..500u64 {
                let h = mix64(key ^ 3u64.rotate_left(32)) as usize;
                assert_eq!(l.index(key, 3), h % n);
            }
        }
    }

    #[test]
    fn groups_split_into_sub_maps_past_the_threshold() {
        let mut g = Groups::<u64>::default();
        for key in 0..SPLIT_AT as u64 {
            *g.map(key).entry(key).or_default() += 1;
        }
        assert!(matches!(g, Groups::One(_)));
        for key in 0..10_000u64 {
            *g.map(key).entry(key).or_default() += 1;
        }
        assert_eq!(g.len(), 10_000);
        let Groups::Split(maps) = &g else {
            panic!("a large bucket must split")
        };
        assert!(maps.iter().all(|m| !m.is_empty() && m.len() < 100));
        // The split kept every group and its state.
        let total: u64 = g.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10_000 + SPLIT_AT as u64);
    }
}
