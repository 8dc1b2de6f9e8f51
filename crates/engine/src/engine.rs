//! The query execution pipeline: selection → (LFTA) → HFTA → output rows.
//!
//! Mirrors Gigascope's two-level architecture (Section VIII of the paper):
//! splittable aggregates are partially aggregated in a fixed-size
//! low-level table (LFTA) and combined in the high-level group map (HFTA);
//! non-splittable aggregates (the UDAFs, "written to run at the high-level
//! only") receive raw tuples directly. Figure 2(b) of the paper disables
//! the split — [`crate::udaf::QueryBuilder::two_level`] reproduces that
//! ablation.
//!
//! Both levels live in the query's [`GroupStore`](crate::lfta::GroupStore),
//! which the aggregate's factory builds: the splittable built-ins keep
//! their per-group state inline, everything else keeps a
//! `Box<dyn Aggregator>` per group (see [`crate::lfta`] for the layout,
//! in-place LFTA eviction, the HFTA sub-maps and the bit-identity rule for
//! the two instantiations). The engine does admission — selection, time
//! bucket, late drops, watermark — and bucket close.
//!
//! Time buckets close when the watermark (largest timestamp seen) passes the
//! bucket end plus the query's out-of-order slack — the engine's stand-in
//! for GS's punctuation/heartbeat mechanism. The per-tuple control is kept
//! cheap: the bucket id is reused while timestamps stay inside the current
//! bucket, and the close check runs only once the watermark reaches the
//! next close threshold.

use crate::lfta::{Closed, Store};
use crate::tuple::{Micros, Packet};
use crate::udaf::{AggValue, Aggregator, Query};

/// One output row of a continuous query: a closed (bucket, group) with its
/// aggregate value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Start of the time bucket (microseconds).
    pub bucket_start: Micros,
    /// Group key.
    pub key: u64,
    /// The aggregate result, evaluated at the bucket end.
    pub value: AggValue,
}

/// A stream element: data or control.
///
/// GS avoids query blocking on idle or lossy feeds with *heartbeats* and
/// *punctuations* (Johnson et al., VLDB 2005; Tucker et al., TKDE 2003,
/// both cited in the paper's introduction): control tuples promising that
/// no data tuple with a smaller timestamp will follow, which lets operators
/// close time buckets without waiting for data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent {
    /// A data tuple.
    Data(Packet),
    /// A punctuation: no later data tuple will carry a timestamp below this
    /// value. Advances the watermark (and closes due buckets) even when the
    /// data itself has gone quiet.
    Punctuation(Micros),
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Tuples offered to the engine.
    pub tuples_in: u64,
    /// Tuples rejected by the selection predicate.
    pub filtered: u64,
    /// Tuples arriving after their bucket closed (dropped, counted — the
    /// out-of-order support of forward decay needs slack > 0 to use them).
    pub late_drops: u64,
    /// Partial aggregates evicted from the LFTA by collisions.
    pub lfta_evictions: u64,
    /// Output rows emitted.
    pub rows_out: u64,
    /// Buckets closed.
    pub buckets_closed: u64,
}

/// A closed (bucket, group) carrying its raw aggregation state instead of
/// an emitted value — the unit of cross-shard combination.
///
/// [`crate::shard::ShardedEngine`] runs one [`Engine`] per shard in state
/// mode (see [`Engine::keep_closed_state`]); when a shard closes a bucket
/// it hands back `ClosedGroup`s, and the combiner folds same-`(bucket,
/// key)` groups together with [`Aggregator::merge_boxed`] before emitting —
/// exactly the merge the paper's Section VI-B shows forward-decay
/// summaries support (frozen numerators make partial summaries mergeable).
pub struct ClosedGroup {
    /// Time-bucket id (`ts / bucket_micros`).
    pub bucket: u64,
    /// Group key.
    pub key: u64,
    /// The group's aggregation state at close time.
    pub agg: Box<dyn Aggregator>,
}

/// A running instance of one continuous query.
pub struct Engine {
    query: Query,
    /// Both levels of group state (see [`crate::lfta`]).
    store: Box<dyn Store>,
    /// Closed rows awaiting collection.
    out: Vec<Row>,
    /// Closed raw state awaiting collection (state mode only).
    closed_state: Option<Vec<ClosedGroup>>,
    watermark: Micros,
    /// Buckets at ids below this are closed.
    closed_below: u64,
    /// The watermark from which the next bucket can close:
    /// `(closed_below + 1) · bucket + slack`, saturating. Derived from
    /// `closed_below`, never serialized.
    next_close: Micros,
    /// The bucket of the last admitted timestamp and its start, so a
    /// tuple inside it skips the division.
    cur_bucket: u64,
    cur_start: Micros,
    stats: EngineStats,
    /// Size of the last [`Engine::checkpoint`] blob, used to pre-size the
    /// next one (supervised workers checkpoint on their critical path, so
    /// growth reallocations are worth avoiding).
    last_ckpt_bytes: std::cell::Cell<usize>,
}

impl Engine {
    /// Instantiates the query.
    pub fn new(query: Query) -> Self {
        let store = query.aggregate.group_store(&query).0;
        let mut e = Self {
            query,
            store,
            out: Vec::new(),
            closed_state: None,
            watermark: 0,
            closed_below: 0,
            next_close: 0,
            cur_bucket: 0,
            cur_start: 0,
            stats: EngineStats::default(),
            last_ckpt_bytes: std::cell::Cell::new(64 * 1024),
        };
        e.next_close = e.close_threshold();
        e
    }

    /// Switches the engine to *state mode*: closed buckets retain their raw
    /// [`Aggregator`] state (collect with [`Engine::drain_closed_state`] /
    /// [`Engine::finish_state`]) instead of emitting [`Row`]s. Used by the
    /// sharded engine, whose combiner must merge per-shard partial states
    /// before evaluating them.
    ///
    /// # Panics
    /// Panics if any bucket has already closed in row mode.
    pub fn keep_closed_state(&mut self) {
        assert!(
            self.stats.buckets_closed == 0,
            "keep_closed_state must be called before any bucket closes"
        );
        self.closed_state = Some(Vec::new());
    }

    /// Whether the two-level split is active for this query.
    pub fn is_split(&self) -> bool {
        self.store.lfta().is_some()
    }

    /// The query's display name.
    pub fn query_name(&self) -> &str {
        &self.query.name
    }

    /// Offers one tuple to the query.
    pub fn process(&mut self, pkt: &Packet) {
        if let Some((bucket, key)) = self.admit(pkt) {
            self.store.update(bucket, key, pkt);
            self.after_admit();
        }
    }

    /// Offers one tuple carrying a Horvitz–Thompson scale (the `1/p`
    /// inverse-inclusion-probability weight attached by decay-aware load
    /// shedding). A unit scale is exactly [`process`](Engine::process);
    /// non-unit scales take the direct high-level path, bypassing the
    /// LFTA — its direct-mapped slots carry no scale column. LFTA partials
    /// reach the same high-level groups by merging, so mixing scaled and
    /// unscaled tuples within a bucket stays correct.
    pub fn process_scaled(&mut self, pkt: &Packet, scale: f64) {
        if scale == 1.0 {
            return self.process(pkt);
        }
        if let Some((bucket, key)) = self.admit(pkt) {
            self.store.update_scaled(bucket, key, pkt, scale);
            self.after_admit();
        }
    }

    /// Counts the tuple and runs selection, bucketing and the late-drop
    /// check; returns its `(bucket, group key)` if it is to be applied.
    #[inline]
    fn admit(&mut self, pkt: &Packet) -> Option<(u64, u64)> {
        self.stats.tuples_in += 1;
        if let Some(f) = &self.query.filter {
            if !f(pkt) {
                self.stats.filtered += 1;
                return None;
            }
        }
        let bucket = self.bucket_of(pkt.ts);
        if bucket < self.closed_below {
            self.stats.late_drops += 1;
            return None;
        }
        self.watermark = self.watermark.max(pkt.ts);
        Some((bucket, (self.query.group_by)(pkt)))
    }

    /// `ts / bucket_micros`, reusing the last bucket while `ts` stays in it.
    #[inline]
    fn bucket_of(&mut self, ts: Micros) -> u64 {
        let width = self.query.bucket_micros;
        if ts >= self.cur_start && ts - self.cur_start < width {
            return self.cur_bucket;
        }
        self.cur_bucket = ts / width;
        self.cur_start = self.cur_bucket * width;
        self.cur_bucket
    }

    #[inline]
    fn after_admit(&mut self) {
        if self.watermark >= self.next_close {
            self.maybe_close_buckets();
        }
    }

    /// The smallest watermark at which `maybe_close_buckets` can find a
    /// bucket to close. Saturating: past `u64::MAX` no watermark closes
    /// another bucket, and a saturated threshold only costs a spare check.
    fn close_threshold(&self) -> Micros {
        self.closed_below
            .saturating_add(1)
            .saturating_mul(self.query.bucket_micros)
            .saturating_add(self.query.slack_micros)
    }

    /// Closes every bucket whose end + slack has been passed by the
    /// watermark. Empty buckets cost nothing: the LFTA is flushed once for
    /// the whole closeable range, then only data-bearing buckets emit.
    fn maybe_close_buckets(&mut self) {
        let horizon = self.watermark.saturating_sub(self.query.slack_micros);
        let target = horizon / self.query.bucket_micros;
        if target > self.closed_below {
            self.close(Some(target));
            self.closed_below = target;
        }
        self.next_close = self.close_threshold();
    }

    /// Closes the buckets below `below` (all when `None`) into rows or, in
    /// state mode, raw state. Returns the last bucket closed.
    fn close(&mut self, below: Option<u64>) -> Option<u64> {
        let rows_before = self.out.len();
        let out = match &mut self.closed_state {
            Some(state) => Closed::State(state),
            None => Closed::Rows(&mut self.out),
        };
        let (closed, last) = self.store.close(below, out);
        self.stats.buckets_closed += closed;
        self.stats.rows_out += (self.out.len() - rows_before) as u64;
        last
    }

    /// Processes a punctuation: advances the watermark to `ts` and closes
    /// every bucket whose end + slack it passes, without any data tuple.
    pub fn punctuate(&mut self, ts: Micros) {
        self.watermark = self.watermark.max(ts);
        self.after_admit();
    }

    /// Offers one stream element (data or control).
    pub fn process_event(&mut self, ev: &StreamEvent) {
        match ev {
            StreamEvent::Data(pkt) => self.process(pkt),
            StreamEvent::Punctuation(ts) => self.punctuate(*ts),
        }
    }

    /// Collects the rows of all buckets closed so far.
    pub fn drain_rows(&mut self) -> Vec<Row> {
        std::mem::take(&mut self.out)
    }

    /// Collects the raw state of all buckets closed so far (state mode
    /// only; empty in row mode).
    pub fn drain_closed_state(&mut self) -> Vec<ClosedGroup> {
        self.closed_state
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn close_all(&mut self) {
        if let Some(last) = self.close(None) {
            self.closed_below = self.closed_below.max(last.saturating_add(1));
            self.next_close = self.close_threshold();
        }
    }

    /// Ends the stream: closes all open buckets and returns every pending
    /// row.
    pub fn finish(&mut self) -> Vec<Row> {
        self.close_all();
        self.drain_rows()
    }

    /// Ends the stream in state mode: closes all open buckets and returns
    /// every pending [`ClosedGroup`].
    pub fn finish_state(&mut self) -> Vec<ClosedGroup> {
        self.close_all();
        self.drain_closed_state()
    }

    /// Runs a whole stream through the query and returns all rows.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Packet>) -> Vec<Row> {
        for pkt in stream {
            self.process(&pkt);
        }
        self.finish()
    }

    /// Execution counters so far.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        if let Some((_, evictions, _)) = self.store.lfta() {
            s.lfta_evictions = evictions;
        }
        s
    }

    /// Occupied LFTA slots right now; `None` in single-level mode. O(slots)
    /// — the shard workers sample it once per punctuation for telemetry.
    pub fn lfta_occupancy(&self) -> Option<usize> {
        self.store.lfta_occupancy()
    }

    /// The current watermark (largest timestamp or punctuation seen), µs.
    pub fn watermark(&self) -> Micros {
        self.watermark
    }

    /// Current memory footprint of all live aggregation state.
    pub fn space_bytes(&self) -> usize {
        self.store.space_bytes()
    }

    /// Average space per live group in bytes — the paper's Figure 2(d) /
    /// 4(c) metric. `None` when no groups are live.
    pub fn space_per_group(&self) -> Option<f64> {
        let (bytes, groups) = self.store.group_space();
        (groups > 0).then(|| bytes as f64 / groups as f64)
    }

    /// Serializes the engine's complete execution state — watermark, close
    /// frontier, counters, every open high-level group, the LFTA slots *in
    /// place*, any pending closed state or rows — into one byte buffer.
    ///
    /// The snapshot is deterministic (group keys are sorted) and restoring
    /// it with [`Engine::restore`] resumes the run so that the remaining
    /// stream produces **byte-identical** output: LFTA slots go back to the
    /// exact positions they held, so future fold/evict/flush order — and
    /// with it every floating-point combination order — is unchanged.
    ///
    /// # Errors
    /// Fails with a `CodecError` if the query's aggregator does not support
    /// checkpointing (the samplers decline — their reservoirs carry no serde
    /// support) or if encoding fails.
    pub fn checkpoint(&self) -> Result<Vec<u8>, fd_core::checkpoint::CodecError> {
        let mut blob = Vec::with_capacity(self.last_ckpt_bytes.get() + 16 * 1024);
        self.checkpoint_into(&mut blob)?;
        Ok(blob)
    }

    /// [`checkpoint`](Engine::checkpoint) into a caller-supplied buffer,
    /// clearing it first. Periodic checkpointing recycles the previous
    /// snapshot's buffer through here (see `CheckpointSlot::store`), so
    /// the steady state rewrites the same half-megabyte instead of paying
    /// an allocate/fault/free cycle per checkpoint.
    pub fn checkpoint_into(
        &self,
        out: &mut Vec<u8>,
    ) -> Result<(), fd_core::checkpoint::CodecError> {
        use crate::udaf::write_framed;
        use fd_core::checkpoint::{put_u64, to_bytes_into, CodecError};
        let unsupported = || {
            CodecError::new(format!(
                "aggregate '{}' does not support checkpointing",
                self.query.aggregate.name()
            ))
        };
        // Layout: `flat blob | serde header | header_len`. The bulky,
        // regular state — one tiny aggregator checkpoint per live group,
        // tens of thousands per snapshot — is hand-packed into the blob:
        // the serde codec's element-at-a-time walk (and one `Vec` per
        // group) made checkpoints cost milliseconds, which put supervised
        // workers on the pipeline's critical path. The header trails the
        // blob so the result is one buffer, never recopied.
        let mut blob = std::mem::take(out);
        blob.clear();
        self.store
            .checkpoint_into(&mut blob)
            .ok_or_else(unsupported)?;
        let closed_src: &[ClosedGroup] = self.closed_state.as_deref().unwrap_or(&[]);
        put_u64(&mut blob, closed_src.len() as u64);
        for g in closed_src {
            put_u64(&mut blob, g.bucket);
            put_u64(&mut blob, g.key);
            write_framed(&mut blob, |out| g.agg.checkpoint_into(out)).ok_or_else(unsupported)?;
        }
        self.last_ckpt_bytes.set(blob.len());
        let header_start = blob.len();
        to_bytes_into(
            &EngineHeader {
                watermark: self.watermark,
                closed_below: self.closed_below,
                stats: self.stats(),
                state_mode: self.closed_state.is_some(),
                lfta: self.store.lfta(),
                rows: self.out.clone(),
            },
            &mut blob,
        )?;
        let header_len = (blob.len() - header_start) as u64;
        put_u64(&mut blob, header_len);
        *out = blob;
        Ok(())
    }

    /// Rebuilds an engine from a [`checkpoint`](Engine::checkpoint) taken on
    /// an engine running the *same* `query` (same aggregate, bucketing and
    /// split configuration — the caller is responsible for passing the
    /// original query; mismatches surface as decode or shape errors).
    ///
    /// # Errors
    /// Fails if the bytes don't decode, or if the snapshot's two-level
    /// shape contradicts the query's.
    pub fn restore(query: Query, bytes: &[u8]) -> Result<Self, fd_core::checkpoint::CodecError> {
        use fd_core::checkpoint::{CodecError, Reader};
        if bytes.len() < 8 {
            return Err(CodecError::new("checkpoint shorter than its length tail"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let header_len = u64::from_le_bytes(tail.try_into().expect("8 bytes")) as usize;
        if header_len > body.len() {
            return Err(CodecError::new("checkpoint header overruns the buffer"));
        }
        let (blob, header_bytes) = body.split_at(body.len() - header_len);
        let header: EngineHeader = fd_core::checkpoint::from_bytes(header_bytes)?;
        let mut r = Reader::new(blob);
        let mut e = Engine::new(query);
        let factory = std::sync::Arc::clone(&e.query.aggregate);
        let bucket_micros = e.query.bucket_micros;
        e.store.restore_from(&mut r, header.lfta)?;
        let n_closed = r.u64()?;
        if header.state_mode {
            let mut state = Vec::with_capacity(n_closed as usize);
            for _ in 0..n_closed {
                let bucket = r.u64()?;
                let key = r.u64()?;
                let len = r.u64()? as usize;
                let mut agg = factory.make(bucket * bucket_micros);
                agg.restore(r.bytes(len)?)?;
                state.push(ClosedGroup { bucket, key, agg });
            }
            e.closed_state = Some(state);
        } else if n_closed != 0 {
            return Err(CodecError::new("closed state in a row-mode snapshot"));
        }
        if !r.is_empty() {
            return Err(CodecError::new("trailing bytes after checkpoint blob"));
        }
        e.watermark = header.watermark;
        e.closed_below = header.closed_below;
        e.next_close = e.close_threshold();
        e.stats = header.stats;
        e.out = header.rows;
        Ok(e)
    }
}

/// The serde-encoded head of an [`Engine`] checkpoint: everything small
/// and irregular. The per-group bulk (HFTA buckets, LFTA slots, closed
/// state) is hand-packed into a flat blob after it — see
/// [`Engine::checkpoint`] for the layout and the why.
#[derive(serde::Serialize, serde::Deserialize)]
struct EngineHeader {
    watermark: Micros,
    closed_below: u64,
    stats: EngineStats,
    state_mode: bool,
    /// `(n_slots, evictions, updates)` when the query is two-level.
    lfta: Option<(u64, u64, u64)>,
    /// Pending rows (row mode).
    rows: Vec<Row>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::aggregators::{count_factory, fwd_count_factory};
    use crate::tuple::{Proto, MICROS_PER_SEC};
    use fd_core::decay::Monomial;

    fn pkt(ts_s: f64, dst_ip: u32) -> Packet {
        Packet {
            ts: (ts_s * MICROS_PER_SEC as f64) as Micros,
            src_ip: 1,
            dst_ip,
            src_port: 1000,
            dst_port: 80,
            len: 100,
            proto: Proto::Tcp,
        }
    }

    fn count_query(two_level: bool) -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(two_level)
            .lfta_slots(16)
            .build()
    }

    #[test]
    fn counts_per_group_and_bucket() {
        for two_level in [false, true] {
            let mut e = Engine::new(count_query(two_level));
            let mut stream = Vec::new();
            // Bucket 0: host 1 ×10, host 2 ×5. Bucket 1: host 1 ×3.
            for i in 0..10 {
                stream.push(pkt(1.0 + i as f64, 1));
            }
            for i in 0..5 {
                stream.push(pkt(20.0 + i as f64, 2));
            }
            for i in 0..3 {
                stream.push(pkt(61.0 + i as f64, 1));
            }
            let rows = e.run(stream);
            assert_eq!(rows.len(), 3, "two_level = {two_level}");
            let find = |bs: Micros, key: u64| {
                rows.iter()
                    .find(|r| r.bucket_start == bs && r.key == key)
                    .map(|r| r.value.as_float().expect("float"))
            };
            assert_eq!(find(0, 1), Some(10.0));
            assert_eq!(find(0, 2), Some(5.0));
            assert_eq!(find(60 * MICROS_PER_SEC, 1), Some(3.0));
        }
    }

    #[test]
    fn two_level_and_single_level_agree_under_collisions() {
        // Many more groups than LFTA slots: heavy eviction traffic must not
        // change the results.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.001 * i as f64, (i % 500) as u32))
            .collect();
        let mut split = Engine::new(count_query(true));
        let mut flat = Engine::new(count_query(false));
        let rows_split = split.run(stream.clone());
        let rows_flat = flat.run(stream);
        assert!(split.stats().lfta_evictions > 0);
        assert_eq!(rows_split.len(), rows_flat.len());
        for (a, b) in rows_split.iter().zip(&rows_flat) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn forward_decayed_count_uses_bucket_start_as_landmark() {
        // One packet at t = 90 in the bucket [60, 120): landmark 60,
        // queried at 120 → weight = ((90−60)/(120−60))² = 0.25.
        let q = Query::builder("fwd")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_count_factory(Monomial::quadratic()))
            .build();
        let mut e = Engine::new(q);
        let rows = e.run(vec![pkt(90.0, 1)]);
        assert_eq!(rows.len(), 1);
        let v = rows[0].value.as_float().expect("float");
        assert!((v - 0.25).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn filter_drops_tuples() {
        let q = Query::builder("tcp_only")
            .filter(|p| p.proto == Proto::Udp)
            .aggregate(count_factory())
            .build();
        let mut e = Engine::new(q);
        let rows = e.run(vec![pkt(1.0, 1), pkt(2.0, 1)]);
        assert!(rows.is_empty());
        assert_eq!(e.stats().filtered, 2);
    }

    #[test]
    fn buckets_close_on_watermark_and_late_tuples_drop() {
        let mut e = Engine::new(count_query(false));
        e.process(&pkt(10.0, 1));
        e.process(&pkt(130.0, 1)); // watermark 130 closes bucket 0 (and 1)
        let rows = e.drain_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bucket_start, 0);
        e.process(&pkt(15.0, 1)); // late into closed bucket 0
        assert_eq!(e.stats().late_drops, 1);
        let final_rows = e.finish();
        assert_eq!(final_rows.len(), 1); // the t=130 bucket
    }

    #[test]
    fn slack_tolerates_out_of_order() {
        let q = Query::builder("slack")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .slack_secs(10.0)
            .aggregate(count_factory())
            .two_level(false)
            .build();
        let mut e = Engine::new(q);
        e.process(&pkt(59.0, 1));
        e.process(&pkt(65.0, 1)); // watermark 65 < 60 + 10: bucket 0 stays open
        e.process(&pkt(58.0, 1)); // out of order, still accepted
        assert_eq!(e.stats().late_drops, 0);
        let rows = e.finish();
        let b0 = rows.iter().find(|r| r.bucket_start == 0).expect("bucket 0");
        assert_eq!(b0.value.as_float(), Some(2.0));
    }

    #[test]
    fn stats_and_space_reporting() {
        let mut e = Engine::new(count_query(true));
        for i in 0..100 {
            e.process(&pkt(i as f64 * 0.1, (i % 7) as u32));
        }
        assert_eq!(e.stats().tuples_in, 100);
        assert!(e.space_bytes() > 0);
        e.finish();
        assert_eq!(e.stats().rows_out, 7);
    }

    #[test]
    fn multi_aggregate_splits_through_the_two_level_pipeline() {
        use crate::aggregators::{multi_factory, sum_factory};
        let combo = multi_factory(vec![count_factory(), sum_factory(|p| p.len as f64)]);
        let q = Query::builder("multi")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(combo)
            .two_level(true)
            .lfta_slots(4) // force eviction/merge traffic through MultiAgg
            .build();
        let mut e = Engine::new(q);
        assert!(e.is_split());
        let stream: Vec<Packet> = (0..1000)
            .map(|i| pkt(i as f64 * 0.01, (i % 20) as u32))
            .collect();
        let rows = e.run(stream);
        assert!(e.stats().lfta_evictions > 0);
        assert_eq!(rows.len(), 20);
        for r in &rows {
            let parts = r.value.as_multi().expect("multi");
            assert_eq!(parts[0].as_float(), Some(50.0)); // 1000 / 20 groups
            assert_eq!(parts[1].as_float(), Some(50.0 * 100.0));
        }
    }

    #[test]
    fn punctuation_closes_buckets_without_data() {
        let mut e = Engine::new(count_query(false));
        e.process(&pkt(10.0, 1));
        assert!(e.drain_rows().is_empty(), "bucket must stay open");
        // A heartbeat promises that t < 120 s is complete: bucket 0 closes
        // even though no data tuple has passed its boundary.
        e.punctuate(120 * MICROS_PER_SEC);
        let rows = e.drain_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value.as_float(), Some(1.0));
        // Data arriving before the punctuation's promise is late.
        e.process(&pkt(30.0, 1));
        assert_eq!(e.stats().late_drops, 1);
    }

    #[test]
    fn process_event_dispatches() {
        let mut e = Engine::new(count_query(true));
        e.process_event(&StreamEvent::Data(pkt(5.0, 1)));
        e.process_event(&StreamEvent::Punctuation(70 * MICROS_PER_SEC));
        let rows = e.drain_rows();
        assert_eq!(rows.len(), 1);
        // Punctuations never regress the watermark.
        e.process_event(&StreamEvent::Punctuation(0));
        e.process_event(&StreamEvent::Data(pkt(100.0, 2)));
        assert_eq!(e.finish().len(), 1);
    }

    #[test]
    fn scaled_tuples_reweight_linear_aggregates() {
        use crate::aggregators::{fwd_avg_factory, fwd_sum_factory, multi_factory};
        // One survivor fed with scale w must equal the same tuple fed w
        // times — the Horvitz–Thompson identity, end to end through the
        // engine (including the LFTA-bypass for scaled tuples).
        let combo = || {
            multi_factory(vec![
                crate::aggregators::fwd_count_factory(Monomial::quadratic()),
                fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64),
                fwd_avg_factory(Monomial::quadratic(), |p| p.len as f64),
            ])
        };
        let q = |f| {
            Query::builder("scaled")
                .group_by(|p: &Packet| p.dst_host())
                .bucket_secs(60)
                .aggregate(f)
                .two_level(true)
                .lfta_slots(16)
                .build()
        };
        let mut scaled = Engine::new(q(combo()));
        let mut dup = Engine::new(q(combo()));
        {
            use crate::udaf::AggregatorFactory as _;
            assert!(combo().make(0).supports_scaled_updates());
        }
        for i in 0..200 {
            let p = pkt(i as f64 * 0.25, (i % 5) as u32);
            if i % 3 == 0 {
                scaled.process_scaled(&p, 3.0);
                for _ in 0..3 {
                    dup.process(&p);
                }
            } else {
                scaled.process(&p);
                dup.process(&p);
            }
        }
        let (a, b) = (scaled.finish(), dup.finish());
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!((ra.bucket_start, ra.key), (rb.bucket_start, rb.key));
            let (pa, pb) = (ra.value.as_multi().unwrap(), rb.value.as_multi().unwrap());
            for (va, vb) in pa.iter().zip(pb) {
                let (x, y) = (va.as_float().unwrap(), vb.as_float().unwrap());
                assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn unit_scale_is_exactly_process() {
        let mut a = Engine::new(count_query(true));
        let mut b = Engine::new(count_query(true));
        for i in 0..500 {
            let p = pkt(i as f64 * 0.3, (i % 9) as u32);
            a.process(&p);
            b.process_scaled(&p, 1.0);
        }
        assert_eq!(a.finish(), b.finish());
    }

    /// The close rule the engine must keep, applied after every tuple with
    /// no gating: `(bucket, key) → count` of the tuples applied, the late
    /// drops, and how many buckets had closed after each tuple.
    fn reference_closes(
        stream: &[Packet],
        bucket: Micros,
        slack: Micros,
    ) -> (BTreeMap<(u64, u64), f64>, u64, Vec<u64>) {
        let (mut counts, mut late, mut closed_after) = (BTreeMap::new(), 0, Vec::new());
        let (mut watermark, mut closed_below) = (0, 0);
        for p in stream {
            let b = p.ts / bucket;
            if b < closed_below {
                late += 1;
            } else {
                watermark = p.ts.max(watermark);
                *counts.entry((b, p.dst_host())).or_insert(0.0) += 1.0;
                closed_below = closed_below.max(watermark.saturating_sub(slack) / bucket);
            }
            closed_after.push(counts.keys().filter(|(b, _)| *b < closed_below).count() as u64);
        }
        (counts, late, closed_after)
    }

    #[test]
    fn gated_closes_match_the_per_tuple_rule_out_of_order() {
        // Timestamps jitter by up to ±7 s around a 1 s/tuple clock, so with
        // 5 s of slack some tuples are late and buckets close mid-jitter.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let stream: Vec<Packet> = (0..3_000)
            .map(|i| {
                rng = fd_core::hash::mix64(rng);
                let jitter = (rng % 14_000) as f64 / 1_000.0 - 7.0;
                pkt((i as f64 * 0.1 + jitter).max(0.0), (rng >> 40) as u32 % 5)
            })
            .collect();
        for two_level in [true, false] {
            let q = Query::builder("slack")
                .group_by(|p| p.dst_host())
                .bucket_secs(10)
                .slack_secs(5.0)
                .aggregate(count_factory())
                .two_level(two_level)
                .lfta_slots(4)
                .build();
            let (want, late, closed_after) =
                reference_closes(&stream, 10 * MICROS_PER_SEC, 5 * MICROS_PER_SEC);
            assert!(late > 0, "the stream should produce late drops");
            let mut e = Engine::new(q);
            let mut rows = Vec::new();
            for (p, &closed) in stream.iter().zip(&closed_after) {
                e.process(p);
                rows.extend(e.drain_rows());
                assert_eq!(rows.len() as u64, closed, "rows closed after ts {}", p.ts);
            }
            rows.extend(e.finish());
            let got: BTreeMap<(u64, u64), f64> = rows
                .iter()
                .map(|r| {
                    (
                        (r.bucket_start / (10 * MICROS_PER_SEC), r.key),
                        r.value.as_float().unwrap(),
                    )
                })
                .collect();
            assert_eq!(got, want);
            let s = e.stats();
            assert_eq!(s.late_drops, late);
            assert_eq!(
                s.tuples_in,
                s.filtered + s.late_drops + want.values().sum::<f64>() as u64
            );
        }
    }

    #[test]
    fn punctuations_alone_close_buckets_and_later_data_drops() {
        let mut e = Engine::new(count_query(true));
        e.process(&pkt(10.0, 1));
        // Below the close threshold (60 s): nothing closes.
        e.punctuate(60 * MICROS_PER_SEC - 1);
        assert!(e.drain_rows().is_empty());
        e.punctuate(60 * MICROS_PER_SEC);
        assert_eq!(e.drain_rows().len(), 1);
        e.process(&pkt(70.0, 2));
        // A punctuation far ahead closes several buckets at once, and one
        // behind the watermark changes nothing.
        e.punctuate(600 * MICROS_PER_SEC);
        e.punctuate(0);
        let rows = e.drain_rows();
        assert_eq!((rows.len(), rows[0].key), (1, 2));
        assert_eq!(e.stats().buckets_closed, 2);
        e.process(&pkt(599.0, 3)); // bucket 9 closed at 600 s
        e.process(&pkt(600.0, 3)); // bucket 10 is open
        assert_eq!(e.stats().late_drops, 1);
        let rows = e.finish();
        assert_eq!(
            (rows.len(), rows[0].bucket_start),
            (1, 600 * MICROS_PER_SEC)
        );
    }

    #[test]
    fn restore_recomputes_the_close_threshold() {
        let stream: Vec<Packet> = (0..2_000)
            .map(|i| pkt(i as f64 * 0.1, (i % 13) as u32))
            .collect();
        let mut straight = Engine::new(count_query(true));
        for p in &stream[..1_195] {
            straight.process(p); // stops just short of the 120 s threshold
        }
        let blob = straight.checkpoint().expect("checkpoint");
        let mut restored = Engine::restore(count_query(true), &blob).expect("restore");
        assert_eq!(restored.next_close, straight.next_close);
        assert_eq!(restored.checkpoint().expect("checkpoint"), blob);
        for p in &stream[1_195..] {
            straight.process(p);
            restored.process(p);
            assert_eq!(restored.drain_rows(), straight.drain_rows());
        }
        assert_eq!(restored.finish(), straight.finish());
        assert_eq!(restored.stats(), straight.stats());
    }

    #[test]
    fn bucket_ids_near_the_top_of_the_clock_saturate() {
        let top = u64::MAX - 3;
        let near_top = |two_level, width: Micros| {
            let mut q = count_query(two_level);
            q.bucket_micros = width;
            let mut e = Engine::new(q);
            let mut p = pkt(0.0, 1);
            e.process(&p);
            p.ts = top;
            e.process(&p);
            p.ts = u64::MAX;
            e.process(&p);
            e.punctuate(u64::MAX);
            p.ts = 5;
            e.process(&p); // bucket 0 closed long ago
            let mut rows = e.drain_rows();
            rows.extend(e.finish());
            // After `finish` the topmost bucket drops too — except with
            // 1 µs buckets, whose last id is u64::MAX: the close frontier
            // saturates there, so that bucket can reopen.
            p.ts = u64::MAX;
            e.process(&p);
            let s = e.stats();
            assert_eq!(s.late_drops, if width == 1 { 1 } else { 2 });
            assert_eq!(s.tuples_in, 5);
            rows
        };
        for two_level in [true, false] {
            let rows = near_top(two_level, 60 * MICROS_PER_SEC);
            let last = u64::MAX / (60 * MICROS_PER_SEC) * (60 * MICROS_PER_SEC);
            assert_eq!(rows.len(), 2);
            assert_eq!(
                (rows[1].bucket_start, rows[1].value.as_float()),
                (last, Some(2.0))
            );
            // One-microsecond buckets: the last bucket id is u64::MAX.
            let rows = near_top(two_level, 1);
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[2].bucket_start, u64::MAX);
        }
    }

    #[test]
    fn every_admitted_tuple_is_filtered_late_or_applied() {
        // An aggregate that counts every tuple it folds, scaled or not.
        struct Applied(u64);
        impl Aggregator for Applied {
            fn update(&mut self, _: &Packet) {
                self.0 += 1;
            }
            fn supports_scaled_updates(&self) -> bool {
                true
            }
            fn update_scaled(&mut self, _: &Packet, _: f64) {
                self.0 += 1;
            }
            fn merge_boxed(&mut self, other: Box<dyn Aggregator>) {
                self.0 += other.as_any_box().downcast::<Self>().expect("type").0;
            }
            fn emit(&self, _: f64) -> AggValue {
                AggValue::Float(self.0 as f64)
            }
            fn size_bytes(&self) -> usize {
                8
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        for two_level in [true, false] {
            let q = Query::builder("conservation")
                .filter(|p| p.dst_ip % 4 != 0)
                .group_by(|p| p.dst_host())
                .bucket_secs(10)
                .slack_secs(1.0)
                .aggregate(crate::udaf::FnFactory::new("applied", true, |_| {
                    Box::new(Applied(0))
                }))
                .two_level(two_level)
                .lfta_slots(8)
                .build();
            let mut e = Engine::new(q);
            let mut applied = 0.0;
            for i in 0..5_000u64 {
                let ts = (i as f64 * 0.05) - if i % 11 == 0 { 3.0 } else { 0.0 };
                let p = pkt(ts.max(0.0), (i % 37) as u32);
                match i % 3 {
                    0 => e.process(&p),
                    1 => e.process_scaled(&p, 4.0),
                    _ => e.process_event(&StreamEvent::Data(p)),
                }
                if i % 500 == 0 {
                    e.punctuate(p.ts);
                }
                applied += e
                    .drain_rows()
                    .iter()
                    .map(|r| r.value.as_float().unwrap())
                    .sum::<f64>();
            }
            applied += e
                .finish()
                .iter()
                .map(|r| r.value.as_float().unwrap())
                .sum::<f64>();
            let s = e.stats();
            assert!(s.filtered > 0 && s.late_drops > 0, "{s:?}");
            assert_eq!(s.tuples_in, 5_000);
            assert_eq!(s.tuples_in, s.filtered + s.late_drops + applied as u64);
        }
    }

    #[test]
    fn empty_stream_produces_no_rows() {
        let mut e = Engine::new(count_query(true));
        assert!(e.finish().is_empty());
        assert_eq!(e.stats().buckets_closed, 0);
        assert!(e.space_per_group().is_none());
    }
}
