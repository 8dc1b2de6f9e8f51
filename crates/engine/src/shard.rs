//! Sharded parallel execution: one query, N worker threads.
//!
//! Forward decay makes stream summaries *mergeable* — the numerator
//! `g(t_i − L)` of every weight is frozen at arrival, so two partial
//! summaries over disjoint substreams with the same landmark combine into
//! the summary of their union (Section VI-B of the paper: "distributed
//! computation … each site maintains a summary of its local stream").
//! [`ShardedEngine`] exploits exactly that: it hash-partitions the tuple
//! stream across `n_shards` worker threads, each running a full
//! single-threaded [`Engine`] (its own LFTA + HFTA) over its substream,
//! and combines the per-shard closed buckets with
//! [`Aggregator::merge_boxed`] at the end.
//!
//! ## Semantics
//!
//! The dispatcher (the caller's thread) replicates the single-threaded
//! engine's admission logic *globally*: selection, the late-tuple check
//! against closed buckets, and the watermark advance all happen before a
//! tuple is routed, so a tuple is accepted or dropped by the sharded
//! engine exactly when the single-threaded engine would accept or drop
//! it. Worker watermarks are kept in sync by broadcasting the global
//! watermark as a punctuation after every batch, which also makes bucket
//! closing deterministic across runs.
//!
//! Workers run in *state mode* ([`Engine::keep_closed_state`]): a closed
//! bucket yields raw [`ClosedGroup`] aggregation state rather than
//! emitted rows. [`ShardedEngine::finish`] folds all shards' groups into
//! one `BTreeMap` keyed by `(bucket, key)` — merging states that met the
//! same group on different shards — and only then evaluates each group at
//! its bucket end, producing rows in the same (bucket, key) order as the
//! single-threaded engine.
//!
//! ## Routing
//!
//! [`ShardBy::Key`] (the default) sends every tuple of a group to the
//! same shard, so group states never split and results are *identical*
//! to the single-threaded engine for every aggregator — this is the mode
//! the equivalence tests pin down. [`ShardBy::RoundRobin`] spreads each
//! group across all shards and relies on the merge path; it matches the
//! single-threaded engine exactly for the exactly-mergeable aggregates
//! (counts, sums — Theorem 1 state is a pair of scalars that add), and
//! within approximation bounds for the sketch/sampler summaries.
//!
//! ## Supervision and recovery
//!
//! Each worker periodically serializes its whole engine into a shared
//! [`CheckpointSlot`] ([`Engine::checkpoint`] — forward decay's frozen
//! numerators make the snapshot plain data, exact to the bit). The
//! dispatcher retains the short tail of messages since the last
//! checkpoint. When a send fails (the worker panicked), the supervisor
//! respawns the worker from the checkpoint with exponential backoff and
//! replays the tail, after which the run continues **byte-identically**:
//! the restored LFTA slots sit in their exact old positions, so every
//! future fold/evict/flush — and every floating-point combination order —
//! is unchanged. A shard that exhausts its restart budget (a poison-pill
//! input, say) is *degraded*: later tuples routed to it are counted
//! dropped, and its last checkpoint is still salvaged into the final
//! result at [`ShardedEngine::finish`]. Every recovery action is
//! observable in [`EngineTelemetry`]: `restarts`, `checkpoints`,
//! `replayed_batches` / `replayed_tuples`, `degraded_shards`,
//! `dropped_degraded`.
//!
//! Supervision is on by default
//! ([`DEFAULT_CHECKPOINT_EVERY`](crate::supervisor::DEFAULT_CHECKPOINT_EVERY)
//! tuples between checkpoints); [`ShardedEngine::checkpoint_every`] tunes
//! the interval, and `0` disables the whole layer — no checkpoints, no
//! backlog, and a dead worker is a hard error again
//! ([`fd_core::Error::WorkerLost`]), the pre-supervision behavior.
//! Queries whose aggregators cannot serialize (the samplers) flag their
//! slot unsupported on the first attempt and likewise fall back to
//! fail-hard-on-death, degrading instead of erroring.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::durability::{
    recover, CommitState, DurabilityOptions, DurableSink, ProducerCommit, RecoveryReport, ReplayMsg,
};
use crate::engine::{ClosedGroup, Engine, EngineStats, Row, StreamEvent};
use crate::fault::{FaultKind, FaultState};
use crate::io::{FaultyFs, IoBackend};
use crate::overload::{DrainReport, OverloadConfig, ScaleColumn, ShedPolicy, Subsampler};
use crate::spsc::{ring, ring_fabric, BatchPool, Capacity, RingReceiver, RingSender, SendError};
use crate::supervisor::{
    backoff, CheckpointSlot, SupervisorConfig, WorkerLease, DEFAULT_MAX_RESTARTS,
};
use crate::telemetry::EngineTelemetry;
use crate::tuple::{secs, Micros, Packet, Proto};
use crate::udaf::{Aggregator, Query};

/// How the dispatcher assigns accepted tuples to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBy {
    /// Hash of the group key: each group lives wholly on one shard, so
    /// sharded results are identical to the single-threaded engine for
    /// every aggregator.
    #[default]
    Key,
    /// Strict rotation: each group's state splits across all shards and
    /// is re-assembled by merging — the paper's distributed-computation
    /// scenario. Exact for additively-mergeable aggregates (count/sum),
    /// approximate within summary guarantees otherwise.
    RoundRobin,
}

/// Messages from the dispatcher to a worker, sequence-numbered per shard
/// (1-based; a [`CheckpointSlot`] stores the seq it covers, `0` meaning
/// "none yet"). Batches travel behind an `Arc` so the supervision backlog
/// retains them without copying packets; in unsupervised mode the worker
/// holds the only reference and recycles the buffer exactly as before.
/// Batches also carry their send instant so the worker can report
/// dispatch-to-apply latency.
///
/// The multi-producer ingress fabric reuses `Batch` as its *epoch*
/// message: one per (producer, shard) per sealed epoch, possibly with an
/// empty packet slice, carrying the producer's admission watermark in
/// `wm`. The single-dispatcher path always sends `wm: 0` (its watermark
/// travels as explicit `Punctuate` messages, unchanged).
#[derive(Clone)]
enum Msg {
    Batch {
        seq: u64,
        pkts: Arc<Vec<Packet>>,
        /// Horvitz–Thompson scale column from subsample shedding, pairing
        /// each packet with its 1/p reweighting factor (`None` = all ones,
        /// the only value outside `ShedPolicy::Subsample`).
        scales: ScaleColumn,
        wm: Micros,
        sent: Instant,
    },
    Punctuate {
        seq: u64,
        wm: Micros,
    },
}

impl Msg {
    fn seq(&self) -> u64 {
        match self {
            Msg::Batch { seq, .. } | Msg::Punctuate { seq, .. } => *seq,
        }
    }
}

/// Supervision state for one shard.
struct Seat {
    /// Messages since the last checkpoint, retained for replay. Stays
    /// empty in unsupervised mode and once a slot reports unsupported.
    ///
    /// Shared with the live worker: the dispatcher pushes a clone of each
    /// message before sending it (one short lock on the hot path), and the
    /// worker — not the dispatcher — trims covered entries right after
    /// each checkpoint it publishes, recycling their batch buffers. That
    /// keeps the reclaim scan, the `Arc` teardown and the pool pushes off
    /// the dispatch path, on a thread that overlaps it whenever a spare
    /// core exists. The deque itself outlives the worker (it hangs off
    /// the seat), so replay after a crash reads it exactly as before.
    backlog: Arc<Mutex<VecDeque<Msg>>>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// The worker's checkpoint slot (shared across its incarnations).
    slot: Arc<CheckpointSlot>,
    /// Restarts consumed so far, cumulative for the run.
    restarts: u32,
    degraded: bool,
    /// The live worker incarnation's progress lease — the stuck-shard
    /// watchdog's ground truth, replaced wholesale on every respawn.
    lease: Arc<WorkerLease>,
    /// Defensive stash for a worker that exited *cleanly* while being
    /// reaped — not expected (a worker only exits when its channel
    /// closes), but its state must not be silently dropped if it happens.
    early_exit: Option<(Vec<ClosedGroup>, EngineStats)>,
}

impl Seat {
    fn new() -> Self {
        Self {
            backlog: Arc::new(Mutex::new(VecDeque::new())),
            next_seq: 1,
            slot: Arc::new(CheckpointSlot::default()),
            restarts: 0,
            degraded: false,
            lease: Arc::new(WorkerLease::default()),
            early_exit: None,
        }
    }
}

/// Per-shard ring depth (in batches) before the dispatcher blocks. Deep
/// enough that a worker pausing to serialize a checkpoint (~1 ms on the
/// fig2 workload) drains queued batches afterwards instead of stalling
/// the dispatcher.
const CHANNEL_DEPTH: usize = 32;
/// Default tuples buffered per shard before an automatic ring send;
/// override with [`ShardedEngine::batch_size`] (CLI: `--batch`).
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Applies one batch to the shard engine, firing any armed panic fault at
/// its exact tuple position. The position is the engine's cumulative
/// accepted-tuple count (`tuples_in`), which is checkpointed — so "tuple
/// N" names the same logical tuple across restarts and replays, however
/// the stream was batched.
fn apply_batch(
    engine: &mut Engine,
    pkts: &[Packet],
    scales: Option<&[f64]>,
    fault: Option<&FaultState>,
    shard: usize,
) {
    if let Some(sc) = scales {
        debug_assert_eq!(sc.len(), pkts.len(), "scale column out of step");
    }
    let trigger = fault.and_then(|f| match f.plan.kind {
        FaultKind::PanicAtTuple(n) => Some((f, n, true)),
        FaultKind::PoisonedBatch(n) => Some((f, n, false)),
        // Disk faults live in the durability layer's I/O backend; slow and
        // wedge faults fire in the worker loop, before apply.
        FaultKind::SlowShard(_) | FaultKind::WedgeAtTuple(_) | FaultKind::Disk(_) => None,
    });
    match trigger {
        None => match scales {
            None => {
                for p in pkts {
                    engine.process(p);
                }
            }
            Some(sc) => {
                for (p, &s) in pkts.iter().zip(sc) {
                    engine.process_scaled(p, s);
                }
            }
        },
        Some((f, n, transient)) => {
            for (i, p) in pkts.iter().enumerate() {
                if engine.stats().tuples_in + 1 >= n {
                    // A transient fault disarms *before* panicking, so the
                    // respawned worker replays past this point.
                    if transient {
                        f.disarm();
                    }
                    panic!("injected fault: shard {shard} worker dies at tuple {n}");
                }
                match scales {
                    None => engine.process(p),
                    Some(sc) => engine.process_scaled(p, sc[i]),
                }
            }
        }
    }
}

/// A shard worker's join handle: the worker returns its closed groups and
/// end-of-run stats when the channel drains.
type WorkerHandle = JoinHandle<(Vec<ClosedGroup>, EngineStats)>;

/// Spawns one shard worker around a ready engine (fresh at start-up,
/// checkpoint-restored on respawn).
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    shard: usize,
    mut engine: Engine,
    rx: RingReceiver<Msg>,
    registry: Arc<EngineTelemetry>,
    recycle: BatchPool<Packet>,
    config: Arc<SupervisorConfig>,
    slot: Arc<CheckpointSlot>,
    backlog: Arc<Mutex<VecDeque<Msg>>>,
    fault: Arc<Mutex<Option<Arc<FaultState>>>>,
    lease: Arc<WorkerLease>,
) -> WorkerHandle {
    std::thread::Builder::new()
        .name(format!("fd-shard-{shard}"))
        .spawn(move || {
            let tel = &registry.shards()[shard];
            let n_shards = registry.shards().len().max(1);
            // Tuple-equivalents applied since the last checkpoint
            // (punctuations count 1, so an idle shard's backlog stays
            // bounded too).
            let mut since_ckpt = 0u64;
            // Shard-by-key balances load well enough that without an
            // offset every worker hits its checkpoint threshold in the
            // same instant and all shards stall together — which stalls
            // the dispatcher. Staggering the *first* interval spreads the
            // serialization pauses across the whole window.
            let mut staggered = false;
            // The snapshot buffer displaced from the slot by each store,
            // recycled into the next serialization so steady-state
            // checkpointing stops allocating.
            let mut spare: Vec<u8> = Vec::new();
            while let Some(msg) = rx.recv() {
                // A retired incarnation (the watchdog abandoned it) must
                // make no further observable moves: its messages have been
                // replayed to the fresh incarnation, whose applies, gauge
                // updates and checkpoint stores are the live ones now.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                let live = registry.enabled();
                let active_fault = fault
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .filter(|f| f.plan.shard == shard && f.armed());
                let seq = msg.seq();
                match msg {
                    Msg::Batch {
                        pkts, scales, sent, ..
                    } => {
                        match active_fault.as_ref().map(|f| f.plan.kind) {
                            Some(FaultKind::SlowShard(d)) => std::thread::sleep(d),
                            Some(FaultKind::WedgeAtTuple(n))
                                if engine.stats().tuples_in + pkts.len() as u64 >= n =>
                            {
                                // Wedge: stop consuming without crashing, so
                                // supervision's panic path never fires — only
                                // the watchdog can notice. Disarm first
                                // (transient), then spin until the watchdog
                                // retires this incarnation. The triggering
                                // batch is NOT applied; it replays to the
                                // fresh incarnation.
                                if let Some(f) = active_fault.as_deref() {
                                    f.disarm();
                                }
                                while !lease.retired() {
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                return (Vec::new(), engine.stats());
                            }
                            _ => {}
                        }
                        let sc = scales.as_deref().map(|v| v.as_slice());
                        if live {
                            let t0 = Instant::now();
                            apply_batch(&mut engine, &pkts, sc, active_fault.as_deref(), shard);
                            tel.batch_ns.record(t0.elapsed().as_nanos() as u64);
                            tel.dispatch_lag_ns.record(sent.elapsed().as_nanos() as u64);
                            tel.tuples_processed.fetch_add(pkts.len() as u64, Relaxed);
                        } else {
                            apply_batch(&mut engine, &pkts, sc, active_fault.as_deref(), shard);
                        }
                        since_ckpt += pkts.len() as u64;
                        // Sole owner ⇒ unsupervised mode: hand the drained
                        // buffer back for reuse, exactly as before. Under
                        // supervision the backlog clone wins and the
                        // buffer is reclaimed by the post-checkpoint trim
                        // below.
                        if let Ok(buf) = Arc::try_unwrap(pkts) {
                            recycle.put(buf);
                        }
                    }
                    Msg::Punctuate { wm, .. } => {
                        engine.punctuate(wm);
                        if live {
                            tel.applied_watermark.store(wm, Relaxed);
                            tel.lfta_evictions
                                .store(engine.stats().lfta_evictions, Relaxed);
                            if let Some(occ) = engine.lfta_occupancy() {
                                tel.lfta_occupancy.store(occ as u64, Relaxed);
                            }
                        }
                        since_ckpt += 1;
                    }
                }
                lease.record_progress(seq);
                // Retired mid-apply (the watchdog just abandoned us): the
                // fresh incarnation owns the checkpoint slot and the queue
                // gauge from here on, so exit before touching either.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                // Checkpoint at message boundaries: the snapshot then means
                // exactly "everything up to seq applied", which is what
                // backlog trimming and replay key on. The buffer handed
                // back above happens-before the seq store, so a trimmed
                // batch is never still referenced by the worker.
                let every = config.checkpoint_every.load(Relaxed);
                if !staggered && every > 0 {
                    since_ckpt += shard as u64 * every / n_shards as u64;
                    staggered = true;
                }
                if every > 0 && since_ckpt >= every && !slot.unsupported() {
                    let ckpt_start = crate::telemetry::thread_cpu_ns();
                    let mut blob = std::mem::take(&mut spare);
                    match engine.checkpoint_into(&mut blob) {
                        Ok(()) => {
                            spare = slot.store(seq, blob).unwrap_or_default();
                            registry.checkpoints.fetch_add(1, Relaxed);
                            let spent =
                                crate::telemetry::thread_cpu_ns().saturating_sub(ckpt_start);
                            registry.checkpoint_ns.fetch_add(spent, Relaxed);
                            since_ckpt = 0;
                            // Trim the replay backlog: everything up to
                            // `seq` is inside the snapshot just published.
                            // Running this here — not on the dispatcher —
                            // keeps the reclaim scan, the `Arc` teardown
                            // and the pool pushes off the dispatch path.
                            // Buffers are handed back outside the lock so
                            // the dispatcher's concurrent push never waits
                            // on the pool mutex.
                            let mut covered = Vec::new();
                            {
                                let mut log =
                                    backlog.lock().unwrap_or_else(PoisonError::into_inner);
                                while log.front().is_some_and(|m| m.seq() <= seq) {
                                    if let Some(Msg::Batch { pkts, .. }) = log.pop_front() {
                                        covered.push(pkts);
                                    }
                                }
                            }
                            for pkts in covered {
                                if let Ok(buf) = Arc::try_unwrap(pkts) {
                                    recycle.put(buf);
                                }
                            }
                        }
                        // Failure is permanent (the aggregate can't
                        // serialize): flag it so the dispatcher stops
                        // retaining backlog and degrades on death.
                        Err(_) => slot.mark_unsupported(),
                    }
                }
                tel.queue_depth.fetch_sub(1, Relaxed);
            }
            // Channel closed: end of stream.
            let state = engine.finish_state();
            (state, engine.stats())
        })
        .expect("spawn shard worker")
}

/// Per-(producer, shard) ring depth of the multi-producer ingress fabric.
/// Shallower than the single-dispatcher ring (32 batches): each
/// shard worker drains its `P` rings in strict rotation, so a producer
/// can only ever run this many epochs ahead of the slowest producer —
/// deep enough to absorb scheduling jitter, shallow enough to bound the
/// memory pinned by `P × N` rings.
pub const FABRIC_RING_DEPTH: usize = 8;

/// Maps a group key to a shard: Fibonacci hash (multiply by 2⁶⁴/φ), then
/// multiply-shift fold of the HIGH bits. `h % n` would read the low bits,
/// which stay skewed for power-of-two-strided keys; the high bits are
/// well mixed for dense and strided keys alike (pinned by
/// `key_routing_spreads_within_bound`). Shared by the single dispatcher
/// and every fabric ingress handle, so keyed routing is identical in both
/// modes.
#[inline]
fn route_key(key: u64, n_shards: usize) -> usize {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(h) * n_shards as u128) >> 64) as usize
}

/// Recovery state of one fabric shard, behind its own mutex so a
/// recovering handle never blocks senders of *other* shards. The sender
/// slots live OUTSIDE this lock (see [`FabShard::senders`]) because a
/// send can block on a full ring; recovery must be able to run while
/// other handles are parked in `send`.
struct FabInner {
    worker: Option<WorkerHandle>,
    /// Restarts consumed so far, cumulative for the run.
    restarts: u32,
    /// Bumped at the start of every recovery (successful or degrading),
    /// while `inner` is held across the whole reap + replay +
    /// fresh-sender install. Each installed sender is stamped with the
    /// generation it belongs to, and a handle observes the generation
    /// *atomically with its backlog push* (both under `inner`), so for
    /// any send exactly one of two things is true: the push preceded the
    /// recovery — the replay delivered the message and the stamp check
    /// in [`FabShared::send`] refuses the now-duplicate direct send — or
    /// it followed it, in which case the replay never saw the message
    /// and the fresh sender's stamp matches the observed generation.
    /// A handle whose send failed (or was refused) re-reads the
    /// generation under `inner`: if it moved, another handle already
    /// recovered and replayed the backlog, so it must NOT recover again.
    generation: u64,
    /// Producers whose handles have finished (their rings are closed).
    /// A respawn closes these producers' fresh rings immediately so the
    /// new worker's rotation skips them exactly like the old one did.
    finished: Vec<bool>,
    /// The live worker incarnation's progress lease (watchdog state),
    /// replaced wholesale on every respawn.
    lease: Arc<WorkerLease>,
    /// Abandoned (wedged) incarnations, joined at finish/drop once they
    /// observe their retired lease (see [`reap_zombies`]).
    zombies: Vec<WorkerHandle>,
    /// Defensive stash for a worker that exited cleanly while being
    /// reaped (see [`Seat::early_exit`]).
    early_exit: Option<(Vec<ClosedGroup>, EngineStats)>,
}

/// One producer's sender slot on one fabric shard: the ring sender,
/// stamped with the [`FabInner::generation`] it was installed under.
type SenderSlot = Mutex<Option<(u64, RingSender<Msg>)>>;

/// One shard of the ingress fabric: the per-producer replay backlogs, the
/// checkpoint slot shared across worker incarnations, and one sender slot
/// per producer.
struct FabShard {
    /// Per-producer backlog rows of messages since the last checkpoint.
    /// Each row is FIFO in that producer's (strictly increasing) seq;
    /// rows are merged by seq for replay. One mutex for all rows — pushes
    /// and trims are brief, and a single lock keeps trim atomic.
    backlogs: Mutex<Vec<VecDeque<Msg>>>,
    /// The worker's checkpoint slot (shared across its incarnations).
    slot: Arc<CheckpointSlot>,
    /// Per-producer sender slots, each stamped with the
    /// [`FabInner::generation`] it was installed under: a send refuses a
    /// sender from a different generation than the one it observed at
    /// backlog-push time, because that recovery's replay already
    /// delivered the pushed message. Outside [`FabShard::inner`]: a
    /// sender blocked on a full ring holds only its own slot's lock, so
    /// recovery (under `inner`) can proceed — the blocked send fails as
    /// soon as the dead worker's receiver drops, releasing the slot for
    /// the recoverer to install a fresh sender into.
    senders: Vec<SenderSlot>,
    inner: Mutex<FabInner>,
    /// Checked (cheaply) by every handle before sending; set under
    /// `inner` when the restart budget is exhausted.
    degraded: AtomicBool,
}

/// Everything the `P` ingress handles and `N` fabric workers share.
///
/// ## The producer-seq determinism rule
///
/// Every sealed epoch ships exactly one [`Msg::Batch`] to **every**
/// shard (possibly empty, always carrying the producer's watermark), and
/// epochs must be dealt to producers in strict round-robin order starting
/// at producer 0. Producer `p`'s `k`-th epoch then has the per-shard
/// sequence number `k·P + p + 1`: the per-shard message stream is
/// *globally* ordered — `seq ≡ producer (mod P)`, consecutive seqs are
/// consecutive epochs — and each worker drains its rings in fixed
/// rotation, applying messages in exactly this seq order. Dealing a
/// stream round-robin in chunks across the handles therefore reproduces
/// the original per-shard apply order bit for bit, and one number
/// subsumes the `(producer, seq)` pair everywhere downstream: backlog
/// trim, checkpoint coverage, WAL contiguity and crash recovery all key
/// on the same per-shard seq the single-dispatcher path already uses.
struct FabShared {
    producers: usize,
    shards: Vec<FabShard>,
    telemetry: Arc<EngineTelemetry>,
    config: Arc<SupervisorConfig>,
    fault: Arc<Mutex<Option<Arc<FaultState>>>>,
    /// The per-worker query (selection stripped), for checkpoint restore.
    worker_query: Query,
    /// Per-producer batch pools (pool sharding): handles never contend on
    /// a shared free list, and total pooled capacity scales with
    /// `producers × shards`.
    pools: Vec<BatchPool<Packet>>,
    max_restarts: u32,
    /// The overload control plane (send deadlines, shed policy, watchdog
    /// lease), shared by every handle's seal path and [`FabShared::send`].
    overload: OverloadConfig,
    /// Handle end-of-run stats, one slot per producer, written by
    /// [`IngressHandle::finish`] and folded by [`ShardedEngine::finish`].
    stats_out: Mutex<Vec<Option<EngineStats>>>,
}

impl FabShared {
    fn supervising(&self) -> bool {
        self.config.checkpoint_every.load(Relaxed) > 0
    }

    /// Ships one epoch message from producer `p` to `shard`, retaining it
    /// in the backlog and running the recovery protocol if the send finds
    /// the worker dead. Mirrors the single dispatcher's
    /// [`ShardedEngine::dispatch`], made safe for concurrent callers.
    fn send(self: &Arc<Self>, shard: usize, p: usize, msg: Msg) -> Result<(), fd_core::Error> {
        let sh = &self.shards[shard];
        if sh.degraded.load(Relaxed) {
            if let Msg::Batch { pkts, .. } = &msg {
                self.telemetry
                    .dropped_degraded
                    .fetch_add(pkts.len() as u64, Relaxed);
            }
            return Ok(());
        }
        // Observe the generation and push into the backlog as one atomic
        // step with respect to recovery, which holds `inner` across its
        // whole reap + backlog replay + fresh-sender install + generation
        // bump. Either the push lands before the recovery — its replay
        // delivers the message, and the stamp check below refuses the
        // now-duplicate direct send — or after it, in which case the
        // replay never saw the message and the fresh sender's stamp
        // matches. Splitting the two (push, then read) would let a
        // recovery slip in between and both replay the message AND leave
        // a fresh sender the direct send succeeds against: duplicate
        // delivery.
        let gen = {
            let inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if self.supervising() && !sh.slot.unsupported() {
                sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner)[p]
                    .push_back(msg.clone());
            }
            inner.generation
        };
        let tel = &self.telemetry.shards()[shard];
        tel.batches_sent.fetch_add(1, Relaxed);
        tel.queue_depth.fetch_add(1, Relaxed);
        self.telemetry.producers()[p].ring_depth[shard].fetch_add(1, Relaxed);
        enum Attempt {
            Sent,
            Dead,
            Full,
        }
        let deadline = self.overload.send_deadline;
        let mut pending = Some(msg);
        let sent = loop {
            let attempt = {
                let slot = sh.senders[p].lock().unwrap_or_else(PoisonError::into_inner);
                match slot.as_ref() {
                    // A sender from another generation was installed by a
                    // recovery whose replay already delivered the message
                    // pushed above — refuse it rather than send a duplicate.
                    Some((stamp, tx)) if *stamp == gen => {
                        match tx.send_deadline(pending.take().expect("message pending"), deadline) {
                            Ok(()) => Attempt::Sent,
                            Err(SendError::Closed(_)) => Attempt::Dead,
                            Err(SendError::Full(m)) => {
                                pending = Some(m);
                                Attempt::Full
                            }
                        }
                    }
                    _ => Attempt::Dead,
                }
            };
            match attempt {
                Attempt::Sent => break true,
                Attempt::Dead => break false,
                Attempt::Full => {
                    // Ring still full after a whole deadline. Releasing the
                    // slot lock between attempts is what lets a wedge
                    // recovery install a fresh sender: a wedged (not dead)
                    // worker never drops its receiver, so a send that held
                    // the lock while blocking would deadlock the recovery.
                    let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    if inner.generation != gen {
                        // Another handle recovered the shard meanwhile; its
                        // replay (which ran after our backlog push above)
                        // delivered the message.
                        break true;
                    }
                    if self.supervising()
                        && !sh.slot.unsupported()
                        && inner.lease.is_stale(self.overload.lease)
                    {
                        eprintln!(
                            "fd-shard-{shard}: worker wedged (no heartbeat for {:?}); respawning",
                            inner.lease.stale_for()
                        );
                        self.recover_wedged_locked(shard, &mut inner);
                        // The recovery's replay delivered (or its degrade
                        // counted) the message pushed to the backlog above.
                        break true;
                    }
                    // A slow — not wedged — worker: keep waiting. Lossy
                    // fabric policies shed whole epochs at seal time,
                    // before the backlog push; past this point the message
                    // must be delivered or replayed.
                }
            }
        };
        if sent {
            return Ok(());
        }
        // A send fails (or is refused) only if the worker died at some
        // point — i.e. it panicked.
        if !self.supervising() {
            return Err(fd_core::Error::WorkerLost { shard });
        }
        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.generation == gen {
            // First handle to notice: run the recovery. The message is in
            // the backlog, so the respawn's replay delivers it.
            self.recover_locked(shard, &mut inner);
        }
        // Otherwise another handle recovered (or degraded) the shard
        // while we were trying; its replay ran after our backlog push, so
        // the message is already delivered or counted — never resend.
        Ok(())
    }

    /// Reaps the dead worker and restarts it from its checkpoint with
    /// exponential backoff, degrading the shard when the budget is
    /// exhausted. Caller holds `inner`. Always bumps the generation —
    /// up front, so the senders [`respawn_locked`](Self::respawn_locked)
    /// installs carry the generation this recovery publishes.
    fn recover_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        inner.generation += 1;
        self.reap_locked(shard, inner);
        self.restart_or_degrade_locked(shard, inner);
    }

    /// Wedge recovery: abandons an unresponsive — but alive — worker and
    /// restarts the shard through the same bounded-budget path as a
    /// crashed one. Safe Rust cannot kill a thread, so the old incarnation
    /// is retired (its lease goes sticky-dead) and parked in
    /// [`FabInner::zombies`]; if it ever unwedges it observes the retired
    /// lease and exits without side effects. Caller holds `inner`; the
    /// generation bump makes every in-flight send against the old rings
    /// refuse or re-route exactly as for a crash recovery.
    fn recover_wedged_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        inner.generation += 1;
        inner.lease.retire();
        if let Some(handle) = inner.worker.take() {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                inner.zombies.push(handle);
            }
        }
        self.telemetry.wedged_respawns.fetch_add(1, Relaxed);
        self.restart_or_degrade_locked(shard, inner);
    }

    /// The bounded-restart tail shared by crash and wedge recovery:
    /// respawn from the checkpoint with exponential backoff, degrading the
    /// shard when the budget is exhausted. Caller holds `inner` and has
    /// already bumped the generation and disposed of the old worker.
    fn restart_or_degrade_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) {
        let sh = &self.shards[shard];
        let mut restored = false;
        if !sh.slot.unsupported() {
            while inner.restarts < self.max_restarts {
                let attempt = inner.restarts;
                inner.restarts += 1;
                self.telemetry.restarts.fetch_add(1, Relaxed);
                std::thread::sleep(backoff(attempt));
                if self.respawn_locked(shard, inner) {
                    restored = true;
                    break;
                }
                // The replay killed the fresh worker (a permanent fault):
                // reap it and spend another restart.
                self.reap_locked(shard, inner);
            }
        }
        if !restored {
            self.degrade_locked(shard, inner);
        }
    }

    /// Depth of producer `p`'s ring to `shard` (0 when the sender is
    /// gone). A seal-time lag probe, racy by nature — the worker drains
    /// concurrently — but monotone enough for a shed decision.
    fn ring_len(&self, shard: usize, p: usize) -> usize {
        self.shards[shard].senders[p]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |(_, tx)| tx.len())
    }

    /// Waits up to `deadline` for capacity on producer `p`'s ring to
    /// `shard`. Sole-producer soundness holds — only handle `p` sends on
    /// this ring, so `Ready` means the next send will not block.
    fn ring_capacity(&self, shard: usize, p: usize, deadline: Duration) -> Capacity {
        let slot = self.shards[shard].senders[p]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match slot.as_ref() {
            Some((_, tx)) => tx.wait_capacity(deadline),
            None => Capacity::Closed,
        }
    }

    /// Joins a dead worker's thread, recording its panic.
    fn reap_locked(&self, shard: usize, inner: &mut FabInner) {
        if let Some(handle) = inner.worker.take() {
            match handle.join() {
                Ok(state) => inner.early_exit = Some(state),
                Err(payload) => {
                    self.telemetry.worker_panics.fetch_add(1, Relaxed);
                    eprintln!(
                        "fd-shard-{shard}: worker panicked: {}",
                        panic_message(&payload)
                    );
                }
            }
        }
    }

    /// Restores an engine from the shard's checkpoint, spawns a new
    /// worker on fresh rings, replays the backlog tail in seq order, and
    /// installs the fresh senders (closing finished producers' rings).
    /// Caller holds `inner`; other handles' sends fail against the old
    /// rings and park on `inner` until the new generation is published.
    fn respawn_locked(self: &Arc<Self>, shard: usize, inner: &mut FabInner) -> bool {
        let sh = &self.shards[shard];
        let (ckpt_seq, engine) = match sh.slot.load() {
            Some((seq, bytes)) => match Engine::restore(self.worker_query.clone(), &bytes) {
                Ok(e) => (seq, e),
                Err(err) => {
                    eprintln!("fd-shard-{shard}: checkpoint restore failed: {err:?}");
                    return false;
                }
            },
            None => {
                let mut e = Engine::new(self.worker_query.clone());
                e.keep_closed_state();
                (0, e)
            }
        };
        let p_count = self.producers;
        let mut txs = Vec::with_capacity(p_count);
        let mut rxs = Vec::with_capacity(p_count);
        for _ in 0..p_count {
            let (tx, rx) = ring::<Msg>(FABRIC_RING_DEPTH);
            txs.push(tx);
            rxs.push(rx);
        }
        // A fresh incarnation gets a fresh lease: the old one stays
        // retired forever (any zombie still holding it keeps seeing
        // `retired() == true`), and the watchdog clock restarts from now.
        inner.lease = Arc::new(WorkerLease::default());
        inner.worker = Some(spawn_fabric_worker(
            shard,
            engine,
            rxs,
            Arc::clone(self),
            ckpt_seq,
            Arc::clone(&inner.lease),
        ));
        let tel = &self.telemetry.shards()[shard];
        tel.queue_depth.store(0, Relaxed);
        for p in 0..p_count {
            self.telemetry.producers()[p].ring_depth[shard].store(0, Relaxed);
        }
        // Replay the uncheckpointed tail: merge the per-producer backlog
        // rows by seq (each row is already FIFO) and push in that order —
        // the exact order the worker's rotation drains, so a bounded ring
        // can never deadlock the refill.
        let mut replay: Vec<Msg> = {
            let rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            rows.iter()
                .flat_map(|row| row.iter().filter(|m| m.seq() > ckpt_seq).cloned())
                .collect()
        };
        replay.sort_by_key(Msg::seq);
        for msg in replay {
            let p = ((msg.seq() - 1) % p_count as u64) as usize;
            if let Msg::Batch { pkts, .. } = &msg {
                self.telemetry.replayed_batches.fetch_add(1, Relaxed);
                self.telemetry
                    .replayed_tuples
                    .fetch_add(pkts.len() as u64, Relaxed);
            }
            tel.queue_depth.fetch_add(1, Relaxed);
            self.telemetry.producers()[p].ring_depth[shard].fetch_add(1, Relaxed);
            if txs[p].send(msg).is_err() {
                return false;
            }
        }
        // Only now are the fresh rings reachable by other handles,
        // stamped with the current generation (bumped by recover_locked
        // before calling in; unchanged on the durable-resume path). A
        // finished producer can never close its ring again, so close it
        // here on its behalf.
        for (p, tx) in txs.into_iter().enumerate() {
            let mut slot = sh.senders[p].lock().unwrap_or_else(PoisonError::into_inner);
            *slot = if inner.finished[p] {
                None
            } else {
                Some((inner.generation, tx))
            };
        }
        true
    }

    /// Gives up on a shard: closes its rings, drains its backlogs
    /// (counting the tuples as degraded drops), and marks it so later
    /// epochs are counted instead of sent. Its last checkpoint is still
    /// salvaged at [`ShardedEngine::finish`]. Caller holds `inner`.
    fn degrade_locked(&self, shard: usize, inner: &mut FabInner) {
        let sh = &self.shards[shard];
        sh.degraded.store(true, Relaxed);
        self.telemetry.degraded_shards.fetch_add(1, Relaxed);
        for slot in &sh.senders {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.reap_locked(shard, inner);
        let rows: Vec<VecDeque<Msg>> = {
            let mut rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
            rows.iter_mut().map(std::mem::take).collect()
        };
        let mut dropped = 0u64;
        for (p, row) in rows.into_iter().enumerate() {
            for msg in row {
                if let Msg::Batch { pkts, .. } = msg {
                    dropped += pkts.len() as u64;
                    if let Ok(buf) = Arc::try_unwrap(pkts) {
                        self.pools[p].put(buf);
                    }
                }
            }
            self.telemetry.producers()[p].ring_depth[shard].store(0, Relaxed);
        }
        self.telemetry.dropped_degraded.fetch_add(dropped, Relaxed);
        self.telemetry.shards()[shard].queue_depth.store(0, Relaxed);
    }
}

/// Spawns one fabric shard worker: drains its `P` dedicated rings in
/// strict producer rotation (seq order — see the determinism rule on
/// [`FabShared`]), folds each epoch's batch, advances the
/// min-across-producers watermark frontier, and checkpoints exactly like
/// the single-dispatcher worker. `start_seq` is the last applied seq (0
/// fresh; the checkpoint's seq on respawn), which determines where the
/// rotation resumes: the producer owning `start_seq + 1`.
fn spawn_fabric_worker(
    shard: usize,
    mut engine: Engine,
    rxs: Vec<RingReceiver<Msg>>,
    fab: Arc<FabShared>,
    start_seq: u64,
    lease: Arc<WorkerLease>,
) -> WorkerHandle {
    std::thread::Builder::new()
        .name(format!("fd-shard-{shard}"))
        .spawn(move || {
            let registry = Arc::clone(&fab.telemetry);
            let tel = &registry.shards()[shard];
            let n_shards = registry.shards().len().max(1);
            let p_count = fab.producers;
            let mut cursor = (start_seq % p_count as u64) as usize;
            let mut last_seq = start_seq;
            let mut open = vec![true; p_count];
            // Per-producer watermarks feeding the frontier. A closed
            // producer's entry is raised to MAX so it stops gating the
            // frontier; `Micros::MAX` never wins the min while any
            // producer is live, and an all-closed shard just exits.
            let mut prod_wm: Vec<Micros> = vec![0; p_count];
            let mut frontier_applied: Micros = 0;
            let mut since_ckpt = 0u64;
            let mut staggered = false;
            let mut spare: Vec<u8> = Vec::new();
            while open.iter().any(|&o| o) {
                if !open[cursor] {
                    cursor = (cursor + 1) % p_count;
                    continue;
                }
                let Some(msg) = rxs[cursor].recv() else {
                    // The producer finished (or recovery closed its ring
                    // on its behalf): remove it from the rotation.
                    open[cursor] = false;
                    prod_wm[cursor] = Micros::MAX;
                    cursor = (cursor + 1) % p_count;
                    continue;
                };
                // Retired (the watchdog abandoned this incarnation): the
                // fresh incarnation replays our messages — exit before
                // making any observable move.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                let live = registry.enabled();
                let active_fault = fab
                    .fault
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .filter(|f| f.plan.shard == shard && f.armed());
                let (seq, pkts, scales, wm, sent) = match msg {
                    Msg::Batch {
                        seq,
                        pkts,
                        scales,
                        wm,
                        sent,
                    } => (seq, pkts, scales, wm, sent),
                    // The fabric only ships epoch batches; watermarks ride
                    // inside them.
                    Msg::Punctuate { .. } => unreachable!("fabric rings carry epochs only"),
                };
                debug_assert!(
                    seq > last_seq,
                    "fabric seq went backwards on shard {shard}: {seq} after {last_seq}"
                );
                last_seq = seq;
                match active_fault.as_ref().map(|f| f.plan.kind) {
                    Some(FaultKind::SlowShard(d)) => std::thread::sleep(d),
                    Some(FaultKind::WedgeAtTuple(n))
                        if engine.stats().tuples_in + pkts.len() as u64 >= n =>
                    {
                        // See the single-dispatcher worker: disarm, spin
                        // until retired, exit without applying this batch
                        // (it replays to the fresh incarnation).
                        if let Some(f) = active_fault.as_deref() {
                            f.disarm();
                        }
                        while !lease.retired() {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return (Vec::new(), engine.stats());
                    }
                    _ => {}
                }
                let sc = scales.as_deref().map(|v| v.as_slice());
                if live {
                    let t0 = Instant::now();
                    apply_batch(&mut engine, &pkts, sc, active_fault.as_deref(), shard);
                    tel.batch_ns.record(t0.elapsed().as_nanos() as u64);
                    tel.dispatch_lag_ns.record(sent.elapsed().as_nanos() as u64);
                    tel.tuples_processed.fetch_add(pkts.len() as u64, Relaxed);
                } else {
                    apply_batch(&mut engine, &pkts, sc, active_fault.as_deref(), shard);
                }
                // Epochs count their batch plus the embedded watermark as
                // tuple-equivalents, so idle shards still checkpoint.
                since_ckpt += pkts.len() as u64 + 1;
                if !pkts.is_empty() {
                    if let Ok(buf) = Arc::try_unwrap(pkts) {
                        fab.pools[cursor].put(buf);
                    }
                }
                // The frontier is the min watermark across ALL producers:
                // a bucket may only close once no producer can still send
                // tuples for it (PAPER.md §VI-B's per-site merge rule).
                if wm > prod_wm[cursor] {
                    prod_wm[cursor] = wm;
                }
                let frontier = prod_wm.iter().copied().min().unwrap_or(0);
                if frontier > frontier_applied && frontier != Micros::MAX {
                    engine.punctuate(frontier);
                    frontier_applied = frontier;
                    if live {
                        tel.applied_watermark.store(frontier, Relaxed);
                        tel.lfta_evictions
                            .store(engine.stats().lfta_evictions, Relaxed);
                        if let Some(occ) = engine.lfta_occupancy() {
                            tel.lfta_occupancy.store(occ as u64, Relaxed);
                        }
                    }
                }
                lease.record_progress(seq);
                // Retired mid-apply: the fresh incarnation owns the
                // checkpoint slot and the gauges from here on.
                if lease.retired() {
                    return (Vec::new(), engine.stats());
                }
                let every = fab.config.checkpoint_every.load(Relaxed);
                if !staggered && every > 0 {
                    since_ckpt += shard as u64 * every / n_shards as u64;
                    staggered = true;
                }
                if every > 0 && since_ckpt >= every && !fab.shards[shard].slot.unsupported() {
                    let ckpt_start = crate::telemetry::thread_cpu_ns();
                    let mut blob = std::mem::take(&mut spare);
                    match engine.checkpoint_into(&mut blob) {
                        Ok(()) => {
                            spare = fab.shards[shard].slot.store(seq, blob).unwrap_or_default();
                            registry.checkpoints.fetch_add(1, Relaxed);
                            let spent =
                                crate::telemetry::thread_cpu_ns().saturating_sub(ckpt_start);
                            registry.checkpoint_ns.fetch_add(spent, Relaxed);
                            since_ckpt = 0;
                            // Trim every producer's backlog row up to the
                            // covered seq, recycling buffers outside the
                            // lock into each producer's own pool.
                            let mut covered: Vec<(usize, Arc<Vec<Packet>>)> = Vec::new();
                            {
                                let mut rows = fab.shards[shard]
                                    .backlogs
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner);
                                for (p, row) in rows.iter_mut().enumerate() {
                                    while row.front().is_some_and(|m| m.seq() <= seq) {
                                        if let Some(Msg::Batch { pkts, .. }) = row.pop_front() {
                                            covered.push((p, pkts));
                                        }
                                    }
                                }
                            }
                            for (p, pkts) in covered {
                                if let Ok(buf) = Arc::try_unwrap(pkts) {
                                    fab.pools[p].put(buf);
                                }
                            }
                        }
                        Err(_) => fab.shards[shard].slot.mark_unsupported(),
                    }
                }
                registry.producers()[cursor].ring_depth[shard].fetch_sub(1, Relaxed);
                tel.queue_depth.fetch_sub(1, Relaxed);
                cursor = (cursor + 1) % p_count;
            }
            (engine.finish_state(), engine.stats())
        })
        .expect("spawn shard worker")
}

/// One producer's share of the multi-producer ingress plane: a full
/// route-and-scatter stage (admission, staging buffers, its own batch
/// pool) that feeds every shard worker through a dedicated SPSC ring.
///
/// Handles come from [`ShardedEngine::take_ingress_handles`] and are
/// `Send` (not `Sync`): move each onto its own ingress thread. Admission
/// (selection, late check, watermark advance) is handle-local — each
/// producer admits against its *own* watermark, the honest semantics of
/// distributed ingress (no producer can observe another's clock; PAPER.md
/// §VI-B). Workers close buckets at the *min* watermark across producers,
/// so a tuple admitted by its handle is never late at its worker. For
/// streams whose disorder stays within the query's slack, every admission
/// decision is identical to the single-dispatcher engine's.
///
/// ## The epoch contract
///
/// Each [`ingest`](Self::ingest) call seals one *epoch*: exactly one
/// message per shard (possibly empty, always carrying the handle's
/// watermark). For deterministic — bit-identical — results, deal input
/// chunks to the handles in round-robin order starting at producer 0:
/// producer `p`'s `k`-th epoch carries the per-shard seq `k·P + p + 1`
/// (see the determinism rule on the fabric), so round-robin dealing makes
/// per-shard seqs dense and the apply order unambiguous. The coordinator
/// mode of [`ShardedEngine`] (handles *not* taken) deals this way
/// automatically.
pub struct IngressHandle {
    producer: usize,
    query: Query,
    routing: ShardBy,
    fab: Arc<FabShared>,
    /// Per-shard staging buffers, swapped against [`Self::pool`] buffers
    /// at each seal.
    staging: Vec<Vec<Packet>>,
    /// Scratch for the vectorized scatter: pass 1 writes one shard index
    /// per tuple (`u32::MAX` = rejected), pass 2 scatters by it.
    shard_of: Vec<u32>,
    /// This producer's pool (a clone of `fab.pools[producer]`).
    pool: BatchPool<Packet>,
    batch_size: usize,
    /// Epochs sealed so far; the next seal ships seq
    /// `epochs · P + producer + 1`.
    epochs: u64,
    /// This producer's decay-aware thinning stage, present only under
    /// [`ShedPolicy::Subsample`].
    subsampler: Option<Subsampler>,
    rr: usize,
    watermark: Micros,
    /// Closed boundary in timestamp space (`closed_below · bucket_micros`).
    closed_low: Micros,
    stats: EngineStats,
    live: bool,
    finished: bool,
}

impl IngressHandle {
    fn new(
        producer: usize,
        query: Query,
        routing: ShardBy,
        batch_size: usize,
        live: bool,
        fab: &Arc<FabShared>,
    ) -> Self {
        let n_shards = fab.shards.len();
        let subsampler = match fab.overload.policy {
            ShedPolicy::Subsample { target_rate } => Some(Subsampler::new(
                fab.overload.decay.clone(),
                query.bucket_micros,
                target_rate,
                fab.overload.seed ^ (producer as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            )),
            _ => None,
        };
        Self {
            producer,
            query,
            routing,
            fab: Arc::clone(fab),
            staging: vec![Vec::new(); n_shards],
            shard_of: Vec::new(),
            pool: fab.pools[producer].clone(),
            batch_size,
            epochs: 0,
            subsampler,
            rr: 0,
            watermark: 0,
            closed_low: 0,
            stats: EngineStats::default(),
            live,
            finished: false,
        }
    }

    /// Admits and scatters one chunk, then seals it as one epoch. See the
    /// epoch contract above for how calls must interleave across handles.
    pub fn ingest(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        self.ingest_logged(pkts, None)
    }

    /// [`ingest`](Self::ingest) with an optional WAL hook: the
    /// coordinator passes its durability writer so each shard's epoch is
    /// logged *before* it is sent (write-ahead, same ordering as the
    /// single dispatcher).
    pub(crate) fn ingest_logged(
        &mut self,
        pkts: &[Packet],
        durable: Option<&mut DurableSink>,
    ) -> Result<(), fd_core::Error> {
        self.stage(pkts);
        self.seal_logged(durable)
    }

    /// The batch-vectorized scatter. Pass 1 fuses admission (selection,
    /// late check in timestamp space, watermark advance) with the
    /// multiply-shift hash fold over the whole slice, writing one shard
    /// index per tuple into the scratch array; pass 2 is a software
    /// write-combining sweep that moves tuples into per-shard staging
    /// with the branchy admission work already out of the way. Admission
    /// is decision-for-decision the single dispatcher's columnar path
    /// ([`ShardedEngine::try_process_packets`]), against this handle's
    /// local watermark.
    fn stage(&mut self, pkts: &[Packet]) {
        const REJECT: u32 = u32::MAX;
        let bm = self.query.bucket_micros;
        let slack = self.query.slack_micros;
        let n_shards = self.staging.len();
        let mut wm = self.watermark;
        let mut closed_low = self.closed_low;
        let mut filtered = 0u64;
        let mut late = 0u64;
        self.shard_of.clear();
        self.shard_of.reserve(pkts.len());
        for pkt in pkts {
            let idx = if self.query.filter.as_ref().is_some_and(|f| !f(pkt)) {
                filtered += 1;
                REJECT
            } else if pkt.ts < closed_low {
                late += 1;
                REJECT
            } else {
                wm = wm.max(pkt.ts);
                let horizon = wm.saturating_sub(slack);
                if horizon >= closed_low.saturating_add(bm) {
                    closed_low = (horizon / bm) * bm;
                }
                let key = (self.query.group_by)(pkt);
                (match self.routing {
                    ShardBy::Key => route_key(key, n_shards),
                    ShardBy::RoundRobin => {
                        let s = self.rr;
                        self.rr = (self.rr + 1) % n_shards;
                        s
                    }
                }) as u32
            };
            self.shard_of.push(idx);
        }
        for (pkt, &s) in pkts.iter().zip(&self.shard_of) {
            if s != REJECT {
                self.staging[s as usize].push(*pkt);
            }
        }
        self.stats.tuples_in += pkts.len() as u64;
        self.stats.filtered += filtered;
        self.stats.late_drops += late;
        self.watermark = wm;
        self.closed_low = closed_low;
        if self.live {
            self.mirror_admission();
        }
    }

    /// Advances this handle's watermark as an explicit punctuation would:
    /// the next sealed epoch carries it to every shard (the fabric ships
    /// no separate punctuation messages).
    pub fn punctuate(&mut self, ts: Micros) {
        self.watermark = self.watermark.max(ts);
        let bm = self.query.bucket_micros;
        let target = (self.watermark.saturating_sub(self.query.slack_micros) / bm) * bm;
        self.closed_low = self.closed_low.max(target);
        if self.live {
            self.mirror_admission();
        }
    }

    /// Seals the staged tuples as one epoch: exactly one sequence-stamped
    /// message per shard (empty shards included — every shard must see
    /// every seq), carrying the handle's watermark.
    pub fn seal_epoch(&mut self) -> Result<(), fd_core::Error> {
        self.seal_logged(None)
    }

    fn seal_logged(&mut self, mut durable: Option<&mut DurableSink>) -> Result<(), fd_core::Error> {
        let p_count = self.fab.producers;
        let n_shards = self.staging.len();
        let policy = self.fab.overload.policy;
        let deadline = self.fab.overload.send_deadline;
        let budget = self.fab.overload.lag_budget.min(FABRIC_RING_DEPTH);
        // Lossy shedding happens HERE, before a seq is assigned or any
        // message ships: the fabric's per-shard apply order is keyed by
        // dense per-producer seqs, so dropping a single (producer, shard)
        // message would wedge every worker's strict rotation. DropOldest
        // therefore sheds the WHOLE epoch when any live shard's ring stays
        // full past the deadline (the seq is reused by the next seal —
        // density preserved); Subsample thins the staged batches in place
        // and ships the epoch normally, with its scale columns. Lossy
        // policies are refused for durable runs at config time, so the WAL
        // never has to distinguish a shed epoch from a missing one.
        match policy {
            ShedPolicy::Block => {}
            ShedPolicy::DropOldest => {
                let stalled = (0..n_shards).any(|s| {
                    !self.fab.shards[s].degraded.load(Relaxed)
                        && !self.staging[s].is_empty()
                        && matches!(
                            self.fab.ring_capacity(s, self.producer, deadline),
                            Capacity::TimedOut
                        )
                });
                if stalled {
                    let mut shed = 0u64;
                    for stage in &mut self.staging {
                        shed += stage.len() as u64;
                        stage.clear();
                    }
                    self.fab.telemetry.shed_tuples.fetch_add(shed, Relaxed);
                    self.fab.telemetry.shed_batches.fetch_add(1, Relaxed);
                    self.fab.telemetry.producers()[self.producer]
                        .shed_tuples
                        .fetch_add(shed, Relaxed);
                    return Ok(());
                }
            }
            ShedPolicy::Subsample { .. } => {}
        }
        let mut scale_cols: Vec<ScaleColumn> = vec![None; n_shards];
        if let Some(mut sub) = self.subsampler.take() {
            let mut sc = Vec::new();
            for (shard, col) in scale_cols.iter_mut().enumerate() {
                if self.staging[shard].is_empty()
                    || self.fab.ring_len(shard, self.producer) < budget
                {
                    continue;
                }
                let shed = sub.thin(&mut self.staging[shard], &mut sc);
                *col = Some(Arc::new(std::mem::take(&mut sc)));
                if shed > 0 {
                    self.fab.telemetry.shed_tuples.fetch_add(shed, Relaxed);
                    self.fab.telemetry.shards()[shard]
                        .shed_tuples
                        .fetch_add(shed, Relaxed);
                    self.fab.telemetry.producers()[self.producer]
                        .shed_tuples
                        .fetch_add(shed, Relaxed);
                }
            }
            self.subsampler = Some(sub);
        }
        let seq = self.epochs * p_count as u64 + self.producer as u64 + 1;
        self.epochs += 1;
        let wm = self.watermark;
        for (shard, col) in scale_cols.iter_mut().enumerate() {
            let pkts = if self.staging[shard].is_empty() {
                // Nothing staged: ship the bare epoch marker without
                // churning a pooled buffer through the ring.
                Arc::new(Vec::new())
            } else {
                Arc::new(std::mem::replace(
                    &mut self.staging[shard],
                    self.pool.take(self.batch_size),
                ))
            };
            if let Some(d) = durable.as_deref_mut() {
                d.batch(shard, seq, &pkts, wm);
            }
            let msg = Msg::Batch {
                seq,
                pkts,
                scales: col.take(),
                wm,
                sent: Instant::now(),
            };
            self.fab.send(shard, self.producer, msg)?;
        }
        if self.live {
            let t = &self.fab.telemetry.producers()[self.producer];
            t.epochs_sent.store(self.epochs, Relaxed);
            t.pool_reuses.store(self.pool.reuses(), Relaxed);
            t.pool_allocs.store(self.pool.allocs(), Relaxed);
        }
        Ok(())
    }

    /// Single-writer mirrors of this producer's admission counters.
    fn mirror_admission(&self) {
        let t = &self.fab.telemetry.producers()[self.producer];
        t.tuples_in.store(self.stats.tuples_in, Relaxed);
        t.filtered.store(self.stats.filtered, Relaxed);
        t.late_drops.store(self.stats.late_drops, Relaxed);
        t.watermark_us.store(self.watermark, Relaxed);
    }

    /// This handle's admission counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Ends this producer's stream: seals any staged remainder as a final
    /// epoch, closes its rings (removing the producer from every worker's
    /// rotation and from the frontier min), and records its stats for
    /// [`ShardedEngine::finish`] to fold.
    pub fn finish(mut self) -> EngineStats {
        if self.staging.iter().any(|s| !s.is_empty()) {
            // Only unsupervised worker loss can error here; the panic is
            // surfaced (counted, logged) by the engine's finish/join.
            let _ = self.seal_logged(None);
        }
        self.close();
        self.stats
    }

    /// Marks the producer finished on every shard and drops its senders.
    /// Runs under each shard's recovery lock so a concurrent respawn
    /// can't re-install a fresh sender afterwards (which would leave the
    /// new worker waiting forever on a ring nobody closes).
    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for sh in &self.fab.shards {
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.finished[self.producer] = true;
            *sh.senders[self.producer]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
            drop(inner);
        }
        let mut out = self
            .fab
            .stats_out
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        out[self.producer] = Some(self.stats);
        drop(out);
        // Final mirrors are unconditional, so a post-run snapshot agrees
        // with the folded stats even with live telemetry off.
        self.mirror_admission();
        let t = &self.fab.telemetry.producers()[self.producer];
        t.epochs_sent.store(self.epochs, Relaxed);
        t.pool_reuses.store(self.pool.reuses(), Relaxed);
        t.pool_allocs.store(self.pool.allocs(), Relaxed);
    }
}

impl Drop for IngressHandle {
    fn drop(&mut self) {
        // An abandoned handle must still leave every worker's rotation,
        // or `finish` would join workers that wait forever on its rings.
        self.close();
    }
}

/// A parallel instance of one continuous query across N worker threads.
///
/// ```
/// use fd_engine::prelude::*;
/// use fd_core::decay::Monomial;
///
/// let query = Query::builder("decayed_traffic")
///     .group_by(|p| p.dst_key())
///     .bucket_secs(60)
///     .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
///     .build();
/// let mut sharded = ShardedEngine::try_new(query, 4).expect("spawn shards");
/// # let pkt = Packet { ts: 1_000_000, src_ip: 1, dst_ip: 2, src_port: 3,
/// #                    dst_port: 80, len: 100, proto: Proto::Tcp };
/// sharded.process_batch(&[StreamEvent::Data(pkt)]);
/// let rows = sharded.finish();
/// assert_eq!(rows.len(), 1);
/// ```
pub struct ShardedEngine {
    query: Query,
    /// The per-worker copy of the query (selection stripped — the
    /// dispatcher has already applied it); also used to rebuild worker
    /// engines from checkpoints.
    worker_query: Query,
    routing: ShardBy,
    /// `None` = worker gone (degraded, or channel closed at finish).
    senders: Vec<Option<RingSender<Msg>>>,
    workers: Vec<Option<WorkerHandle>>,
    seats: Vec<Seat>,
    /// Per-shard staging buffers; swapped against [`Self::pool`] buffers
    /// on flush, so steady-state dispatch never allocates.
    pending: Vec<Vec<Packet>>,
    /// Recycled batch buffers, returned by workers: directly after apply
    /// (unsupervised) or by the post-checkpoint backlog trim (supervised).
    pool: BatchPool<Packet>,
    /// Tuples staged per shard before an automatic flush.
    batch_size: usize,
    /// Scratch for segmenting [`StreamEvent`] runs, reused across calls.
    run_buf: Vec<Packet>,
    rr: usize,
    watermark: Micros,
    closed_below: u64,
    /// Dispatcher-side admission counters (tuples_in / filtered /
    /// late_drops); worker-side counters are folded in at finish.
    stats: EngineStats,
    shard_stats: Vec<EngineStats>,
    /// Shared live-metrics registry (also held by every worker).
    telemetry: Arc<EngineTelemetry>,
    /// Supervision tunables shared with the running workers.
    config: Arc<SupervisorConfig>,
    /// Per-shard restart budget before degradation.
    max_restarts: u32,
    /// The overload control plane: shed policy, bounded-lag send
    /// deadline, lag budget, watchdog lease. Always present — the default
    /// is lossless `Block` with a long lease, which preserves the
    /// pre-overload semantics while still bounding every hot-path send.
    overload: OverloadConfig,
    /// Per-shard thinning stages, non-empty only under
    /// [`ShedPolicy::Subsample`] in single-dispatcher mode (the fabric's
    /// handles each own their own).
    subsamplers: Vec<Subsampler>,
    /// Abandoned (wedged) worker incarnations, joined at finish/drop once
    /// they observe their retired lease (see [`reap_zombies`]).
    zombies: Vec<WorkerHandle>,
    /// Injected fault, if any (shared with every worker incarnation).
    fault: Arc<Mutex<Option<Arc<FaultState>>>>,
    /// The durability writer, when [`ShardedEngine::try_durable`] opened a
    /// store. `None` = in-memory supervision only (the default).
    durable: Option<DurableSink>,
    /// The multi-producer ingress fabric, when
    /// [`try_producers`](Self::try_producers) enabled it. `None` = classic
    /// single-dispatcher mode (everything below `seats`/`senders` etc.).
    fabric: Option<Arc<FabShared>>,
    /// Coordinator-mode ingress handles; emptied by
    /// [`take_ingress_handles`](Self::take_ingress_handles).
    fab_handles: Vec<IngressHandle>,
    /// Next handle to deal a chunk to (coordinator mode).
    fab_cursor: usize,
    /// Epochs dealt so far (coordinator mode). Dealing round-robin from
    /// producer 0, epoch `i` (0-based) carries seq `i + 1` — so this is
    /// also the highest per-shard seq assigned, which durable commits
    /// record as `hi`.
    fab_epochs: u64,
    /// Per-tuple staging for coordinator mode, dealt as an epoch every
    /// `batch_size` tuples.
    fab_chunk: Vec<Packet>,
    /// Cached `telemetry.enabled()` so the per-tuple hot path tests a
    /// plain bool instead of an atomic.
    live: bool,
    done: bool,
}

impl ShardedEngine {
    /// Spawns `n_shards` workers for the query. Panics on zero shards;
    /// see [`ShardedEngine::try_new`] for the reporting variant.
    #[deprecated(since = "0.6.0", note = "use `try_new` and handle the error")]
    pub fn new(query: Query, n_shards: usize) -> Self {
        Self::try_new(query, n_shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Spawns `n_shards` workers for the query, reporting instead of
    /// panicking when `n_shards` is zero.
    pub fn try_new(query: Query, n_shards: usize) -> Result<Self, fd_core::Error> {
        if n_shards == 0 {
            return Err(fd_core::Error::InvalidParameter {
                name: "n_shards",
                value: 0.0,
                requirement: "at least one shard",
            });
        }
        let telemetry = Arc::new(EngineTelemetry::new(n_shards));
        let pool = BatchPool::new(0); // bound set below, once config exists
        let config = Arc::new(SupervisorConfig::default());
        let fault: Arc<Mutex<Option<Arc<FaultState>>>> = Arc::new(Mutex::new(None));
        // The dispatcher has already applied the selection; don't pay for
        // it again on the worker.
        let mut worker_query = query.clone();
        worker_query.filter = None;
        let seats: Vec<Seat> = (0..n_shards).map(|_| Seat::new()).collect();
        let mut senders = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        for (i, seat) in seats.iter().enumerate() {
            let mut engine = Engine::new(worker_query.clone());
            engine.keep_closed_state();
            let (tx, rx) = ring::<Msg>(CHANNEL_DEPTH);
            let handle = spawn_worker(
                i,
                engine,
                rx,
                Arc::clone(&telemetry),
                pool.clone(),
                Arc::clone(&config),
                Arc::clone(&seat.slot),
                Arc::clone(&seat.backlog),
                Arc::clone(&fault),
                Arc::clone(&seat.lease),
            );
            senders.push(Some(tx));
            workers.push(Some(handle));
        }
        let engine = Self {
            query,
            worker_query,
            routing: ShardBy::Key,
            senders,
            workers,
            seats,
            pending: vec![Vec::new(); n_shards],
            pool,
            batch_size: DEFAULT_BATCH_SIZE,
            run_buf: Vec::new(),
            rr: 0,
            watermark: 0,
            closed_below: 0,
            stats: EngineStats::default(),
            shard_stats: vec![EngineStats::default(); n_shards],
            telemetry,
            config,
            max_restarts: DEFAULT_MAX_RESTARTS,
            overload: OverloadConfig::default(),
            subsamplers: Vec::new(),
            zombies: Vec::new(),
            fault,
            durable: None,
            fabric: None,
            fab_handles: Vec::new(),
            fab_cursor: 0,
            fab_epochs: 0,
            fab_chunk: Vec::new(),
            live: true,
            done: false,
        };
        engine.retune_pool();
        Ok(engine)
    }

    /// Bounds the batch-buffer free list to the engine's actual working
    /// set: ring + staging buffers per shard, plus — when supervising —
    /// one checkpoint window of backlog per shard. Backlogged batches are
    /// alive until their trim, so a pool bound below the window would
    /// drop every trimmed buffer and force a cold allocation per batch;
    /// sized to the window, steady state recycles the same warm buffers.
    fn retune_pool(&self) {
        let window = match self.config.checkpoint_every.load(Relaxed) {
            0 => 0,
            every => ((every / self.batch_size as u64) + 2).min(512) as usize,
        };
        // Fault the working set in now, off the dispatch path. First use of
        // a cold batch buffer otherwise charges the dispatcher a page fault
        // per 4 KB of batch, and supervision's backlog roughly doubles how
        // many buffers circulate — the faults alone would eat the <3%
        // dispatch budget. Capped so pathological checkpoint intervals
        // cannot turn spawn into a 100 MB memset.
        let blank = Packet {
            ts: 0,
            src_ip: 0,
            dst_ip: 0,
            src_port: 0,
            dst_port: 0,
            len: 0,
            proto: Proto::Tcp,
        };
        if let Some(fab) = &self.fabric {
            // Pool sharding: each producer owns a pool sized for its share
            // of the fabric working set — per shard, a full ring plus one
            // staging buffer plus (supervised) one checkpoint window of
            // backlog. Total pooled capacity therefore scales with
            // `producers × shards`; a single-producer-sized pool would
            // drop most trimmed buffers and collapse the recycling
            // hit-rate under the fabric.
            let bound = self.n_shards() * (FABRIC_RING_DEPTH + 1 + window);
            for pool in &fab.pools {
                pool.set_max_pooled(bound);
                pool.prewarm(bound.min(256), self.batch_size, blank);
            }
        } else {
            let bound = self.n_shards() * (CHANNEL_DEPTH + 1 + window);
            self.pool.set_max_pooled(bound);
            self.pool.prewarm(bound.min(512), self.batch_size, blank);
        }
    }

    /// Sets the routing policy (default [`ShardBy::Key`]). Must be called
    /// before any tuple is processed.
    pub fn routing(mut self, routing: ShardBy) -> Self {
        assert_eq!(self.stats.tuples_in, 0, "set routing before processing");
        self.routing = routing;
        for h in &mut self.fab_handles {
            h.routing = routing;
        }
        self
    }

    /// Sets the flush threshold: tuples staged per shard before a batch
    /// ships to the worker (default [`DEFAULT_BATCH_SIZE`]). Larger
    /// batches amortize ring and wakeup costs; smaller ones cut
    /// dispatch-to-apply latency. Must be called before any tuple is
    /// processed; panics on zero — see [`ShardedEngine::try_batch_size`]
    /// for the reporting variant.
    pub fn batch_size(self, n: usize) -> Self {
        self.try_batch_size(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the flush threshold, reporting instead of panicking on zero.
    pub fn try_batch_size(mut self, n: usize) -> Result<Self, fd_core::Error> {
        if n == 0 {
            return Err(fd_core::Error::InvalidParameter {
                name: "batch_size",
                value: 0.0,
                requirement: "at least one tuple per batch",
            });
        }
        assert_eq!(self.stats.tuples_in, 0, "set batch size before processing");
        self.batch_size = n;
        for h in &mut self.fab_handles {
            h.batch_size = n;
        }
        self.retune_pool();
        Ok(self)
    }

    /// Sets how many tuples a worker applies between engine checkpoints
    /// (default
    /// [`DEFAULT_CHECKPOINT_EVERY`](crate::supervisor::DEFAULT_CHECKPOINT_EVERY)).
    /// Smaller intervals shorten the replay tail at the price of more
    /// serialization; `0` disables supervision entirely — no checkpoints,
    /// no backlog, and a dead worker is once again a hard error. Must be
    /// called before any tuple is processed.
    pub fn checkpoint_every(self, tuples: u64) -> Self {
        assert_eq!(
            self.stats.tuples_in, 0,
            "set checkpoint interval before processing"
        );
        self.config.checkpoint_every.store(tuples, Relaxed);
        self.retune_pool();
        self
    }

    /// Sets the per-shard restart budget (default
    /// [`DEFAULT_MAX_RESTARTS`]): after this many respawns a shard is
    /// degraded instead of restarted. Must be called before any tuple is
    /// processed.
    pub fn max_restarts(mut self, n: u32) -> Self {
        assert_eq!(
            self.stats.tuples_in, 0,
            "set restart budget before processing"
        );
        assert!(
            self.fabric.is_none(),
            "set the restart budget before try_producers"
        );
        self.max_restarts = n;
        self
    }

    /// Configures the overload control plane (see [`crate::overload`]):
    /// the shed policy, the bounded-lag send deadline, the per-shard lag
    /// budget, and the stuck-shard watchdog lease. The default is
    /// lossless — [`ShedPolicy::Block`] with a
    /// [`DEFAULT_SEND_DEADLINE`](crate::overload::DEFAULT_SEND_DEADLINE)
    /// re-check cadence and a
    /// [`DEFAULT_LEASE`](crate::overload::DEFAULT_LEASE) watchdog lease.
    ///
    /// [`ShedPolicy::Subsample`] is refused for queries whose aggregate
    /// cannot apply Horvitz–Thompson scaled updates (anything beyond the
    /// decayed counts, sums and averages): thinned tuples would *bias*
    /// such summaries instead of reweighting them. Must be called before
    /// any tuple is processed, before
    /// [`try_producers`](Self::try_producers) (the fabric handles capture
    /// the config at construction) and before
    /// [`try_durable`](Self::try_durable) (which refuses lossy policies
    /// outright — a WAL must log what was admitted, not what survived a
    /// shed).
    pub fn try_overload(mut self, cfg: OverloadConfig) -> Result<Self, fd_core::Error> {
        assert_eq!(
            self.stats.tuples_in, 0,
            "configure overload before processing"
        );
        assert!(
            self.fabric.is_none(),
            "call try_overload before try_producers"
        );
        assert!(
            self.durable.is_none(),
            "call try_overload before try_durable"
        );
        self.subsamplers = match cfg.policy {
            ShedPolicy::Subsample { target_rate } => {
                if !self.query.aggregate.make(0).supports_scaled_updates() {
                    return Err(fd_core::Error::InvalidParameter {
                        name: "shed_policy",
                        value: target_rate,
                        requirement: "paired with an aggregate supporting \
                                      Horvitz-Thompson scaled updates \
                                      (decayed count/sum/avg)",
                    });
                }
                (0..self.n_shards())
                    .map(|s| {
                        Subsampler::new(
                            cfg.decay.clone(),
                            self.query.bucket_micros,
                            target_rate,
                            cfg.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        )
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        self.overload = cfg;
        Ok(self)
    }

    /// Arms a deterministic fault in one shard worker (see
    /// [`crate::fault`]) — the hook the recovery tests and the CI fault
    /// matrix drive. Must be called before any tuple is processed; panics
    /// if the plan names a shard this engine doesn't have.
    pub fn inject_fault(self, plan: crate::fault::FaultPlan) -> Self {
        assert_eq!(self.stats.tuples_in, 0, "inject faults before processing");
        assert!(
            plan.shard < self.n_shards(),
            "fault shard {} out of range (engine has {} shards)",
            plan.shard,
            self.n_shards()
        );
        *self.fault.lock().unwrap_or_else(PoisonError::into_inner) =
            Some(Arc::new(FaultState::new(plan)));
        self
    }

    /// Replaces the single-dispatcher funnel with the multi-producer
    /// ingress fabric: `P` ingress handles, each owning a full
    /// route-and-scatter stage, feeding every shard worker through
    /// dedicated per-(producer, shard) SPSC rings. Results stay
    /// deterministic — and bit-identical to the single dispatcher for
    /// keyed routing of within-slack streams — as long as chunks are
    /// dealt to the handles round-robin (which the engine's own feed
    /// methods do automatically; see [`IngressHandle`] for the contract
    /// when feeding the handles from your own threads via
    /// [`take_ingress_handles`](Self::take_ingress_handles)).
    ///
    /// Call after routing/batching/supervision tuning and *before*
    /// [`try_durable`](Self::try_durable). `try_producers(1)` is a valid
    /// (single-producer) fabric, mostly useful for testing; the default
    /// engine keeps the classic dispatcher instead. Reports an error on
    /// zero producers.
    pub fn try_producers(mut self, producers: usize) -> Result<Self, fd_core::Error> {
        assert_eq!(self.stats.tuples_in, 0, "set producers before processing");
        assert!(
            self.durable.is_none(),
            "call try_producers before try_durable"
        );
        assert!(self.fabric.is_none(), "producers already set");
        if producers == 0 {
            return Err(fd_core::Error::InvalidParameter {
                name: "producers",
                value: 0.0,
                requirement: "at least one ingress producer",
            });
        }
        let n = self.n_shards();
        // Retire the single-dispatcher workers spawned by try_new: they
        // have seen nothing, so their drained state is empty.
        for shard in 0..n {
            self.senders[shard] = None;
            if let Some(handle) = self.workers[shard].take() {
                let _ = handle.join();
            }
            self.seats[shard].early_exit = None;
        }
        // A fresh registry with per-producer slots (try_new's had none);
        // the retired workers held the only other references.
        self.telemetry = Arc::new(EngineTelemetry::with_producers(n, producers));
        self.telemetry.set_enabled(self.live);
        let shards = (0..n)
            .map(|_| FabShard {
                backlogs: Mutex::new((0..producers).map(|_| VecDeque::new()).collect()),
                slot: Arc::new(CheckpointSlot::default()),
                senders: (0..producers).map(|_| Mutex::new(None)).collect(),
                inner: Mutex::new(FabInner {
                    worker: None,
                    restarts: 0,
                    generation: 0,
                    finished: vec![false; producers],
                    lease: Arc::new(WorkerLease::default()),
                    zombies: Vec::new(),
                    early_exit: None,
                }),
                degraded: AtomicBool::new(false),
            })
            .collect();
        let fab = Arc::new(FabShared {
            producers,
            shards,
            telemetry: Arc::clone(&self.telemetry),
            config: Arc::clone(&self.config),
            fault: Arc::clone(&self.fault),
            worker_query: self.worker_query.clone(),
            pools: (0..producers).map(|_| BatchPool::new(0)).collect(),
            max_restarts: self.max_restarts,
            overload: self.overload.clone(),
            stats_out: Mutex::new(vec![None; producers]),
        });
        self.fabric = Some(Arc::clone(&fab));
        self.retune_pool();
        let (senders, receivers) = ring_fabric::<Msg>(producers, n, FABRIC_RING_DEPTH);
        for (shard, rxs) in receivers.into_iter().enumerate() {
            let mut engine = Engine::new(self.worker_query.clone());
            engine.keep_closed_state();
            let mut inner = fab.shards[shard]
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let lease = Arc::clone(&inner.lease);
            inner.worker = Some(spawn_fabric_worker(
                shard,
                engine,
                rxs,
                Arc::clone(&fab),
                0,
                lease,
            ));
        }
        for (p, row) in senders.into_iter().enumerate() {
            for (shard, tx) in row.into_iter().enumerate() {
                // Stamped with the initial generation 0.
                *fab.shards[shard].senders[p]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some((0, tx));
            }
        }
        self.fab_handles = (0..producers)
            .map(|p| {
                IngressHandle::new(
                    p,
                    self.query.clone(),
                    self.routing,
                    self.batch_size,
                    self.live,
                    &fab,
                )
            })
            .collect();
        Ok(self)
    }

    /// Detaches the fabric's ingress handles for genuinely parallel
    /// feeding: move each onto its own thread and deal input chunks to
    /// the handles round-robin from producer 0 (the determinism
    /// contract). Once taken, the engine's own feed methods must no
    /// longer be used; after every handle has finished (or been dropped),
    /// call [`finish`](Self::finish) to join the workers and merge.
    ///
    /// # Panics
    /// If the fabric is not enabled, the handles were already taken, or a
    /// durable store is attached — durable runs require coordinator mode,
    /// where the engine deals epochs itself and write-ahead-logs them.
    pub fn take_ingress_handles(&mut self) -> Vec<IngressHandle> {
        assert!(
            self.fabric.is_some(),
            "enable the fabric with try_producers first"
        );
        assert!(
            self.durable.is_none(),
            "durable runs use coordinator mode; feed the engine directly"
        );
        assert!(
            !self.fab_handles.is_empty(),
            "ingress handles already taken"
        );
        std::mem::take(&mut self.fab_handles)
    }

    /// Number of ingress producers (1 in single-dispatcher mode).
    pub fn n_producers(&self) -> usize {
        self.fabric.as_ref().map_or(1, |f| f.producers)
    }

    /// Opens (or recovers) a durable store under `dir` and attaches the
    /// WAL writer: from here on every dispatched message is logged, and
    /// [`durable_commit`](Self::durable_commit) makes stream positions
    /// crash-recoverable. Terminal builder step — call it last, after any
    /// routing/batching/supervision tuning, before any tuple is processed.
    ///
    /// When the directory holds a prior run's store, the engine resumes
    /// it: workers are restored from the on-disk checkpoints, the WAL tail
    /// is replayed through the normal batch path, and the returned
    /// [`RecoveryReport`] says from which input `position` the caller must
    /// re-feed its stream. Results are then bit-identical to a run that
    /// never crashed (for deterministic queries). Torn WAL tails are
    /// truncated and counted, never an error; a store damaged *below* its
    /// last commit is an explicit [`fd_core::Error::Durability`].
    ///
    /// Requires supervision (checkpoints are what gets persisted):
    /// erroring if `checkpoint_every(0)` disabled it. If an armed
    /// [`FaultKind::Disk`] fault is present, the store's I/O backend is
    /// wrapped in [`FaultyFs`] so the scheduled disk fault fires inside
    /// the durability layer.
    pub fn try_durable(
        mut self,
        dir: impl AsRef<std::path::Path>,
        opts: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), fd_core::Error> {
        assert_eq!(self.stats.tuples_in, 0, "open the store before processing");
        if !self.supervising() {
            return Err(fd_core::Error::InvalidParameter {
                name: "checkpoint_every",
                value: 0.0,
                requirement: "durability persists checkpoints; supervision must be on",
            });
        }
        if self.overload.policy.is_lossy() {
            return Err(fd_core::Error::InvalidParameter {
                name: "shed_policy",
                value: 0.0,
                requirement: "durable stores are lossless; \
                              overload shedding must be ShedPolicy::Block",
            });
        }
        let dir = dir.as_ref();
        let io: Arc<dyn IoBackend> = {
            let armed = self
                .fault
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .filter(|f| f.armed());
            match armed.map(|f| f.plan.kind) {
                Some(FaultKind::Disk(d)) => Arc::new(FaultyFs::new(Arc::clone(&opts.io), d)),
                _ => Arc::clone(&opts.io),
            }
        };
        let recovered = recover(&io, dir, self.n_shards())?;
        let mut replayed_batches = 0u64;
        let mut replayed_tuples = 0u64;
        if recovered.resumed && self.fabric.is_some() {
            self.resume_fabric(&recovered, &mut replayed_batches, &mut replayed_tuples)?;
        } else if recovered.resumed {
            if !recovered.commit.producers.is_empty() {
                return Err(fd_core::Error::Durability {
                    detail: format!(
                        "store was written by a {}-producer ingress fabric; \
                         enable try_producers({}) before try_durable to resume it",
                        recovered.commit.producers.len(),
                        recovered.commit.producers.len()
                    ),
                });
            }
            for shard in 0..self.n_shards() {
                // Retire the fresh worker spawned by try_new: it has seen
                // nothing, so its drained state is empty and discardable.
                self.senders[shard] = None;
                if let Some(handle) = self.workers[shard].take() {
                    let _ = handle.join();
                }
                self.seats[shard].early_exit = None;
                if let Some((seq, bytes)) = &recovered.ckpts[shard] {
                    let _ = self.seats[shard].slot.store(*seq, bytes.clone());
                }
                // Preload the replay tail into the seat's backlog, exactly
                // as if the dispatcher had sent it moments ago:
                // respawn_and_replay then feeds everything past the
                // checkpoint through the normal worker path.
                {
                    let mut log = self.seats[shard]
                        .backlog
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    log.clear();
                    for rec in &recovered.replay[shard] {
                        match rec {
                            ReplayMsg::Batch { seq, wm, pkts } => {
                                replayed_batches += 1;
                                replayed_tuples += pkts.len() as u64;
                                log.push_back(Msg::Batch {
                                    seq: *seq,
                                    pkts: Arc::new(pkts.clone()),
                                    scales: None,
                                    wm: *wm,
                                    sent: Instant::now(),
                                });
                            }
                            ReplayMsg::Punct { seq, wm } => {
                                log.push_back(Msg::Punctuate { seq: *seq, wm: *wm })
                            }
                        }
                    }
                }
                self.seats[shard].next_seq = recovered.commit.hi[shard] + 1;
                if !self.respawn_and_replay(shard) {
                    return Err(fd_core::Error::Durability {
                        detail: format!("shard {shard} worker died replaying the WAL tail"),
                    });
                }
            }
            // Restore the dispatcher's admission state from the commit, so
            // the re-fed input meets the exact decisions of the first run.
            let c = &recovered.commit;
            self.watermark = c.watermark;
            self.closed_below = c.closed_below;
            self.rr = (c.rr as usize) % self.n_shards();
            self.stats.tuples_in = c.tuples_in;
            self.stats.filtered = c.filtered;
            self.stats.late_drops = c.late_drops;
        }
        self.telemetry
            .wal_records_truncated
            .store(recovered.truncated, Relaxed);
        self.telemetry
            .recovery_replayed_batches
            .store(replayed_batches, Relaxed);
        let report = RecoveryReport {
            position: recovered.commit.position,
            watermark: recovered.commit.watermark,
            replayed_batches,
            replayed_tuples,
            truncated_records: recovered.truncated,
            resumed: recovered.resumed,
        };
        // The writer recycles each batch buffer back to the pool of the
        // producer that sealed it (recoverable from the seq — see
        // `Writer::recycle`), so every producer's bounded pool keeps its
        // hit rate under the fabric instead of producer 0's overflowing
        // while the rest starve.
        let (slots, recycle): (Vec<Arc<CheckpointSlot>>, Vec<BatchPool<Packet>>) =
            match &self.fabric {
                Some(fab) => (
                    fab.shards.iter().map(|s| Arc::clone(&s.slot)).collect(),
                    fab.pools.clone(),
                ),
                None => (
                    self.seats.iter().map(|s| Arc::clone(&s.slot)).collect(),
                    vec![self.pool.clone()],
                ),
            };
        let sink = DurableSink::spawn(
            dir,
            &io,
            opts.fsync,
            opts.segment_bytes,
            &recovered,
            slots,
            Arc::clone(&self.telemetry),
            recycle,
        )?;
        self.durable = Some(sink);
        Ok((self, report))
    }

    /// Fabric-mode resume: restore each shard worker from its on-disk
    /// checkpoint, preload the WAL tail into the per-producer backlog rows
    /// (routed by `(seq − 1) mod P`), replay it through the fresh rings,
    /// and restore every ingress handle's admission state from its commit
    /// block. The coordinator's dealing rotation resumes at epoch
    /// `hi mod P`, so the re-fed input reproduces the original epoch/seq
    /// assignment exactly.
    fn resume_fabric(
        &mut self,
        recovered: &crate::durability::Recovered,
        replayed_batches: &mut u64,
        replayed_tuples: &mut u64,
    ) -> Result<(), fd_core::Error> {
        let fab = Arc::clone(self.fabric.as_ref().expect("fabric mode"));
        let p_count = fab.producers;
        let commit = &recovered.commit;
        if commit.producers.len() != p_count {
            return Err(fd_core::Error::Durability {
                detail: format!(
                    "store was written with {} producers, engine configured with {p_count}; \
                     the epoch interleaving is producer-count-specific",
                    commit.producers.len()
                ),
            });
        }
        for shard in 0..self.n_shards() {
            let sh = &fab.shards[shard];
            // Retire the fresh worker spawned by try_producers: it has
            // seen nothing, so its drained state is empty and discardable.
            {
                for slot in &sh.senders {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
                }
                let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(handle) = inner.worker.take() {
                    let _ = handle.join();
                }
                inner.early_exit = None;
            }
            if let Some((seq, bytes)) = &recovered.ckpts[shard] {
                let _ = sh.slot.store(*seq, bytes.clone());
            }
            {
                let mut rows = sh.backlogs.lock().unwrap_or_else(PoisonError::into_inner);
                for row in rows.iter_mut() {
                    row.clear();
                }
                for rec in &recovered.replay[shard] {
                    match rec {
                        ReplayMsg::Batch { seq, wm, pkts } => {
                            *replayed_batches += 1;
                            *replayed_tuples += pkts.len() as u64;
                            rows[((seq - 1) % p_count as u64) as usize].push_back(Msg::Batch {
                                seq: *seq,
                                pkts: Arc::new(pkts.clone()),
                                scales: None,
                                wm: *wm,
                                sent: Instant::now(),
                            });
                        }
                        ReplayMsg::Punct { .. } => {
                            return Err(fd_core::Error::Durability {
                                detail: format!(
                                    "shard {shard} WAL holds a punctuation record, which the \
                                     fabric never writes; the store is not a fabric store"
                                ),
                            });
                        }
                    }
                }
            }
            let ok = {
                let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                fab.respawn_locked(shard, &mut inner)
            };
            if !ok {
                return Err(fd_core::Error::Durability {
                    detail: format!("shard {shard} worker died replaying the WAL tail"),
                });
            }
        }
        // Restore each handle's admission state, so the re-fed input meets
        // the exact decisions (and seq assignments) of the first run.
        let bm = self.query.bucket_micros;
        let n_shards = self.n_shards();
        for (p, block) in commit.producers.iter().enumerate() {
            let h = &mut self.fab_handles[p];
            h.watermark = block.watermark;
            h.closed_low = block.closed_below.saturating_mul(bm);
            h.rr = (block.rr as usize) % n_shards;
            h.epochs = block.epochs;
            h.stats.tuples_in = block.tuples_in;
            h.stats.filtered = block.filtered;
            h.stats.late_drops = block.late_drops;
        }
        self.fab_epochs = commit.hi.first().copied().unwrap_or(0);
        self.fab_cursor = (self.fab_epochs % p_count as u64) as usize;
        self.watermark = commit.watermark;
        Ok(())
    }

    /// Declares the stream durable up to `position` (a caller-defined
    /// input offset, typically "events fed so far"): flushes staged
    /// batches, broadcasts the watermark, and enqueues a commit record
    /// carrying the dispatcher state and each shard's high sequence. After
    /// recovery, the caller re-feeds input from the newest committed
    /// position. A no-op without an attached store, or once degraded.
    pub fn durable_commit(&mut self, position: u64) -> Result<(), fd_core::Error> {
        if self.durable.is_none() {
            return Ok(());
        }
        if self.fabric.is_some() {
            // A commit covers whole epochs: deal the per-tuple remainder
            // first so every admitted tuple below `position` is sealed and
            // WAL-logged before the commit record that covers it.
            self.flush_fab_chunk()?;
            let bm = self.query.bucket_micros;
            let producers: Vec<ProducerCommit> = self
                .fab_handles
                .iter()
                .map(|h| ProducerCommit {
                    watermark: h.watermark,
                    closed_below: h.closed_low / bm,
                    rr: h.rr as u64,
                    epochs: h.epochs,
                    tuples_in: h.stats.tuples_in,
                    filtered: h.stats.filtered,
                    late_drops: h.stats.late_drops,
                })
                .collect();
            assert!(
                !producers.is_empty(),
                "durable fabric runs use coordinator mode; handles must not be taken"
            );
            // The legacy scalar fields carry aggregates; recovery restores
            // the handles from the per-producer blocks.
            let c = CommitState {
                position,
                watermark: producers.iter().map(|p| p.watermark).max().unwrap_or(0),
                closed_below: producers.iter().map(|p| p.closed_below).min().unwrap_or(0),
                rr: self.fab_cursor as u64,
                tuples_in: producers.iter().map(|p| p.tuples_in).sum(),
                filtered: producers.iter().map(|p| p.filtered).sum(),
                late_drops: producers.iter().map(|p| p.late_drops).sum(),
                hi: vec![self.fab_epochs; self.n_shards()],
                producers,
            };
            if let Some(d) = self.durable.as_mut() {
                d.commit(c);
            }
            return Ok(());
        }
        // Every *staged* tuple below `position` must reach its shard (and
        // therefore the WAL) before the commit record covers it: staged
        // buffers hold tuples hash-scattered across the input range, so an
        // uncovered one could not be recovered by suffix re-feed. Dispatched
        // coverage is all the commit needs, though — no watermark broadcast
        // here (the normal feed path emits puncts, and they are WAL-logged).
        for shard in 0..self.n_shards() {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        let hi: Vec<u64> = self.seats.iter().map(|s| s.next_seq - 1).collect();
        let c = CommitState {
            position,
            watermark: self.watermark,
            closed_below: self.closed_below,
            rr: self.rr as u64,
            tuples_in: self.stats.tuples_in,
            filtered: self.stats.filtered,
            late_drops: self.stats.late_drops,
            hi,
            producers: Vec::new(),
        };
        if let Some(d) = self.durable.as_mut() {
            d.commit(c);
        }
        Ok(())
    }

    /// Whether the durability layer hit a persistent disk failure and the
    /// engine fell back to in-memory supervision (`false` when no store is
    /// attached). Mirrored as the `durability_degraded` telemetry gauge.
    pub fn durability_degraded(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.degraded())
    }

    /// The batch-recycling pool shared with the workers — its
    /// [`reuses`](BatchPool::reuses) / [`allocs`](BatchPool::allocs)
    /// counters quantify the zero-allocation steady state.
    pub fn batch_pool(&self) -> &BatchPool<Packet> {
        &self.pool
    }

    /// Turns hot-path telemetry mirroring on or off (default on; the
    /// overhead is a few relaxed stores per tuple — see the
    /// `telemetry_overhead` bench). End-of-run counters are recorded
    /// either way. Must be called before any tuple is processed.
    pub fn live_telemetry(mut self, on: bool) -> Self {
        assert_eq!(self.stats.tuples_in, 0, "set telemetry before processing");
        self.live = on;
        self.telemetry.set_enabled(on);
        for h in &mut self.fab_handles {
            h.live = on;
        }
        self
    }

    /// The shared live-metrics registry. Clone the `Arc` to watch the run
    /// from another thread; it stays readable (with the final counts)
    /// after `finish()` and after the engine is dropped.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.pending.len()
    }

    /// The query's display name.
    pub fn query_name(&self) -> &str {
        &self.query.name
    }

    /// Whether supervision is active (a nonzero checkpoint interval).
    fn supervising(&self) -> bool {
        self.config.checkpoint_every.load(Relaxed) > 0
    }

    fn route(&mut self, key: u64) -> usize {
        match self.routing {
            ShardBy::Key => route_key(key, self.n_shards()),
            ShardBy::RoundRobin => {
                let s = self.rr;
                self.rr = (self.rr + 1) % self.n_shards();
                s
            }
        }
    }

    /// Offers one tuple: global admission (filter, late check, watermark),
    /// then staging for the owning shard. Mirrors [`Engine::process`]
    /// decision for decision.
    ///
    /// # Panics
    /// Panics if a shard worker has died while supervision is disabled
    /// (`checkpoint_every(0)`); see [`ShardedEngine::try_process`] for the
    /// reporting variant. With supervision on (the default), worker death
    /// is recovered or degraded internally and never panics here.
    pub fn process(&mut self, pkt: &Packet) {
        self.try_process(pkt).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Offers one tuple, reporting [`fd_core::Error::WorkerLost`] instead
    /// of panicking when an unsupervised worker has died.
    pub fn try_process(&mut self, pkt: &Packet) -> Result<(), fd_core::Error> {
        debug_assert!(!self.done, "process after finish");
        if self.fabric.is_some() {
            // Coordinator mode: buffer into batch_size chunks, dealt to
            // the handles as whole epochs.
            self.fab_chunk.push(*pkt);
            if self.fab_chunk.len() >= self.batch_size {
                self.flush_fab_chunk()?;
            }
            return Ok(());
        }
        self.stats.tuples_in += 1;
        // Admission counters have a single writer (this thread), so the
        // live mirror is a relaxed store of the local count — no RMW.
        if self.live {
            self.telemetry
                .tuples_in
                .store(self.stats.tuples_in, Relaxed);
        }
        if let Some(f) = &self.query.filter {
            if !f(pkt) {
                self.stats.filtered += 1;
                if self.live {
                    self.telemetry.filtered.store(self.stats.filtered, Relaxed);
                }
                return Ok(());
            }
        }
        let bucket = pkt.ts / self.query.bucket_micros;
        if bucket < self.closed_below {
            self.stats.late_drops += 1;
            if self.live {
                self.telemetry
                    .late_drops
                    .store(self.stats.late_drops, Relaxed);
            }
            return Ok(());
        }
        self.watermark = self.watermark.max(pkt.ts);
        if self.live {
            self.telemetry
                .dispatcher_watermark
                .store(self.watermark, Relaxed);
        }
        let key = (self.query.group_by)(pkt);
        let shard = self.route(key);
        self.pending[shard].push(*pkt);
        if self.pending[shard].len() >= self.batch_size {
            self.flush_shard(shard)?;
        }
        let target =
            self.watermark.saturating_sub(self.query.slack_micros) / self.query.bucket_micros;
        self.closed_below = self.closed_below.max(target);
        Ok(())
    }

    /// Ships a shard's staged tuples, swapping in a recycled buffer from
    /// the pool so the staging slot is ready without allocating.
    fn flush_shard(&mut self, shard: usize) -> Result<(), fd_core::Error> {
        let batch = std::mem::replace(&mut self.pending[shard], self.pool.take(self.batch_size));
        self.dispatch_batch(shard, batch)
    }

    /// Offers a batch of tuples through the columnar fast path: one fused
    /// pass doing admission (filter, late check, watermark advance) and
    /// route-and-scatter into the per-shard staging buffers.
    ///
    /// Admission is decision-for-decision identical to calling
    /// [`process`](Self::process) per tuple — the late check compares
    /// timestamps against the closed boundary held in timestamp space
    /// (`closed_below · bucket_micros`), which removes both per-tuple
    /// divisions: `ts / bm < closed_below  ⇔  ts < closed_below · bm`
    /// exactly, for non-negative integers, and the boundary division
    /// reruns only when the watermark gains a whole bucket. Stats and
    /// telemetry mirrors are stored once per batch instead of once per
    /// tuple.
    ///
    /// # Panics
    /// As [`ShardedEngine::process`]; see
    /// [`ShardedEngine::try_process_packets`].
    pub fn process_packets(&mut self, pkts: &[Packet]) {
        self.try_process_packets(pkts)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The columnar fast path, reporting [`fd_core::Error::WorkerLost`]
    /// instead of panicking when an unsupervised worker has died.
    pub fn try_process_packets(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        debug_assert!(!self.done, "process after finish");
        if pkts.is_empty() {
            return Ok(());
        }
        if self.fabric.is_some() {
            // Flush any per-tuple staging first, preserving stream order,
            // then deal this chunk as the next epoch.
            self.flush_fab_chunk()?;
            return self.deal_epoch(pkts);
        }
        let bm = self.query.bucket_micros;
        let slack = self.query.slack_micros;
        let mut wm = self.watermark;
        // The boundary moves only when the watermark gains a whole bucket,
        // so the division to recompute it runs per bucket, not per tuple.
        let mut closed_low = self.closed_below.saturating_mul(bm);
        let mut filtered = 0u64;
        let mut late = 0u64;
        let mut result = Ok(());
        for pkt in pkts {
            if let Some(f) = self.query.filter.as_ref() {
                if !f(pkt) {
                    filtered += 1;
                    continue;
                }
            }
            if pkt.ts < closed_low {
                late += 1;
                continue;
            }
            wm = wm.max(pkt.ts);
            let horizon = wm.saturating_sub(slack);
            if horizon >= closed_low.saturating_add(bm) {
                closed_low = (horizon / bm) * bm;
            }
            let key = (self.query.group_by)(pkt);
            let shard = self.route(key);
            self.pending[shard].push(*pkt);
            if self.pending[shard].len() >= self.batch_size {
                if let Err(e) = self.flush_shard(shard) {
                    result = Err(e);
                    break;
                }
            }
        }
        self.stats.tuples_in += pkts.len() as u64;
        self.stats.filtered += filtered;
        self.stats.late_drops += late;
        self.watermark = wm;
        self.closed_below = closed_low / bm;
        if self.live {
            self.telemetry
                .tuples_in
                .store(self.stats.tuples_in, Relaxed);
            self.telemetry.filtered.store(self.stats.filtered, Relaxed);
            self.telemetry
                .late_drops
                .store(self.stats.late_drops, Relaxed);
            self.telemetry.dispatcher_watermark.store(wm, Relaxed);
        }
        result
    }

    /// Processes a punctuation: advances the global watermark and
    /// broadcasts it, closing due buckets on every shard.
    ///
    /// # Panics
    /// As [`ShardedEngine::process`]; see
    /// [`ShardedEngine::try_punctuate`].
    pub fn punctuate(&mut self, ts: Micros) {
        self.try_punctuate(ts).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Processes a punctuation, reporting [`fd_core::Error::WorkerLost`]
    /// instead of panicking when an unsupervised worker has died.
    pub fn try_punctuate(&mut self, ts: Micros) -> Result<(), fd_core::Error> {
        self.watermark = self.watermark.max(ts);
        if self.live {
            self.telemetry
                .dispatcher_watermark
                .store(self.watermark, Relaxed);
        }
        if self.fabric.is_some() {
            // A punctuation is an admission-state event: it advances every
            // handle's watermark, and the *next* sealed epoch carries it
            // to the workers (the fabric ships no punctuation messages).
            self.flush_fab_chunk()?;
            for h in &mut self.fab_handles {
                h.punctuate(ts);
            }
            return Ok(());
        }
        let target =
            self.watermark.saturating_sub(self.query.slack_micros) / self.query.bucket_micros;
        self.closed_below = self.closed_below.max(target);
        self.sync_watermark()
    }

    /// Offers a batch of stream elements, then broadcasts the advanced
    /// watermark so every shard closes the same buckets — the per-batch
    /// synchronisation point of the sharded pipeline.
    ///
    /// Runs of consecutive [`StreamEvent::Data`] go through the columnar
    /// [`process_packets`](Self::process_packets) fast path; punctuations
    /// act as barriers between runs, exactly as in per-event processing.
    ///
    /// # Panics
    /// As [`ShardedEngine::process`]; see
    /// [`ShardedEngine::try_process_batch`].
    pub fn process_batch(&mut self, events: &[StreamEvent]) {
        self.try_process_batch(events)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Offers a batch of stream elements, reporting
    /// [`fd_core::Error::WorkerLost`] instead of panicking when an
    /// unsupervised worker has died.
    pub fn try_process_batch(&mut self, events: &[StreamEvent]) -> Result<(), fd_core::Error> {
        let mut run = std::mem::take(&mut self.run_buf);
        run.clear();
        let mut feed = || -> Result<(), fd_core::Error> {
            for ev in events {
                match ev {
                    StreamEvent::Data(pkt) => run.push(*pkt),
                    StreamEvent::Punctuation(ts) => {
                        self.try_process_packets(&run)?;
                        run.clear();
                        self.try_punctuate(*ts)?;
                    }
                }
            }
            self.try_process_packets(&run)
        };
        let result = feed();
        run.clear();
        self.run_buf = run;
        result?;
        self.sync_watermark()
    }

    /// Flushes staged tuples and broadcasts the current global watermark
    /// to all shards.
    fn sync_watermark(&mut self) -> Result<(), fd_core::Error> {
        if self.fabric.is_some() {
            return self.flush_fab_chunk();
        }
        for shard in 0..self.n_shards() {
            if !self.pending[shard].is_empty() {
                self.flush_shard(shard)?;
            }
        }
        let w = self.watermark;
        if w > 0 {
            for shard in 0..self.n_shards() {
                self.dispatch_punct(shard, w)?;
            }
        }
        Ok(())
    }

    /// Coordinator mode: deals one chunk to the next handle in rotation,
    /// sealing exactly one epoch — the determinism contract of the
    /// fabric. Epoch `i` (0-based) goes to handle `i mod P` and carries
    /// per-shard seq `i + 1`.
    fn deal_epoch(&mut self, pkts: &[Packet]) -> Result<(), fd_core::Error> {
        assert!(
            !self.fab_handles.is_empty(),
            "ingress handles were taken; feed them directly"
        );
        let p = self.fab_cursor;
        self.fab_cursor = (self.fab_cursor + 1) % self.fab_handles.len();
        self.fab_epochs += 1;
        self.fab_handles[p].ingest_logged(pkts, self.durable.as_mut())
    }

    /// Deals the per-tuple staging buffer as an epoch, if it holds
    /// anything.
    fn flush_fab_chunk(&mut self) -> Result<(), fd_core::Error> {
        if self.fab_chunk.is_empty() {
            return Ok(());
        }
        let chunk = std::mem::take(&mut self.fab_chunk);
        let result = self.deal_epoch(&chunk);
        self.fab_chunk = chunk;
        self.fab_chunk.clear();
        result
    }

    fn next_seq(&mut self, shard: usize) -> u64 {
        let seq = self.seats[shard].next_seq;
        self.seats[shard].next_seq += 1;
        seq
    }

    /// Ships one batch to a shard (or counts it dropped if the shard is
    /// degraded), recovering the worker if the send finds it dead.
    fn dispatch_batch(
        &mut self,
        shard: usize,
        mut pkts: Vec<Packet>,
    ) -> Result<(), fd_core::Error> {
        let mut scales: Option<Vec<f64>> = None;
        let displace = if self.seats[shard].degraded {
            false
        } else {
            self.admit_batch(shard, &mut pkts, &mut scales)
        };
        // Re-checked after admission: the watchdog may have degraded the
        // shard while we waited for capacity.
        if self.seats[shard].degraded {
            self.telemetry
                .dropped_degraded
                .fetch_add(pkts.len() as u64, Relaxed);
            self.pool.put(pkts);
            return Ok(());
        }
        if pkts.is_empty() {
            // Subsampling shed the whole batch: nothing to ship, and no
            // seq is assigned (the sheds are already counted).
            self.pool.put(pkts);
            return Ok(());
        }
        let seq = self.next_seq(shard);
        let msg = Msg::Batch {
            seq,
            pkts: Arc::new(pkts),
            scales: scales.map(Arc::new),
            wm: 0,
            sent: Instant::now(),
        };
        // Queue depth is the one genuinely two-writer gauge (incremented
        // here, decremented by the worker), so it is a per-message RMW —
        // unconditional, to keep both sides consistent however the
        // enabled flag is toggled.
        let tel = &self.telemetry.shards()[shard];
        tel.batches_sent.fetch_add(1, Relaxed);
        tel.queue_depth.fetch_add(1, Relaxed);
        self.dispatch(shard, msg, displace)
    }

    /// Ships one punctuation to a shard (skipped when degraded),
    /// recovering the worker if the send finds it dead.
    fn dispatch_punct(&mut self, shard: usize, wm: Micros) -> Result<(), fd_core::Error> {
        if self.seats[shard].degraded {
            return Ok(());
        }
        let displace = self.admit_punct(shard);
        if self.seats[shard].degraded {
            return Ok(());
        }
        let seq = self.next_seq(shard);
        let msg = Msg::Punctuate { seq, wm };
        let tel = &self.telemetry.shards()[shard];
        tel.punctuations_sent.fetch_add(1, Relaxed);
        tel.queue_depth.fetch_add(1, Relaxed);
        self.dispatch(shard, msg, displace)
    }

    /// Bounded-lag admission for one batch: waits for ring capacity in
    /// deadline-sized slices, runs the stuck-shard watchdog between
    /// slices, and applies the shed policy once the shard has stayed full
    /// past a whole deadline. Returns `true` when the caller must use a
    /// displacing send (`DropOldest` decided to shed the oldest queued
    /// message). `Ready` capacity is stable: this thread is the ring's
    /// only producer, so the send that follows never blocks.
    fn admit_batch(
        &mut self,
        shard: usize,
        pkts: &mut Vec<Packet>,
        scales: &mut Option<Vec<f64>>,
    ) -> bool {
        // Under `Subsample`, thin as soon as the shard sits at or past its
        // lag budget — before the ring is even full. The budget clamps to
        // the ring depth, so the default (usize::MAX) engages thinning
        // only when the ring is actually full past the deadline.
        let budget = self.overload.lag_budget.min(CHANNEL_DEPTH);
        let mut thinned = false;
        loop {
            let (cap, depth) = match &self.senders[shard] {
                Some(tx) => (tx.wait_capacity(self.overload.send_deadline), tx.len()),
                // Worker gone: let `dispatch` discover it and run the
                // normal recovery protocol.
                None => return false,
            };
            match cap {
                Capacity::Ready => {
                    if !thinned && !self.subsamplers.is_empty() && depth >= budget {
                        self.thin(shard, pkts, scales);
                    }
                    return false;
                }
                // A closed ring means the worker died; the send below
                // discovers it and recovers.
                Capacity::Closed => return false,
                Capacity::TimedOut => {
                    if self.watchdog(shard) {
                        // The watchdog respawned (or degraded) the shard;
                        // re-evaluate against the fresh — empty — ring.
                        continue;
                    }
                    match self.overload.policy {
                        // Lossless: keep waiting, one deadline at a time.
                        ShedPolicy::Block => {}
                        ShedPolicy::DropOldest => return true,
                        ShedPolicy::Subsample { .. } => {
                            if !thinned {
                                thinned = true;
                                self.thin(shard, pkts, scales);
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`admit_batch`](Self::admit_batch) for punctuations: no payload to
    /// thin, so `Subsample` degenerates to `Block` (the ring drains in
    /// bounded time once thinning relieves the batches) and only
    /// `DropOldest` requests a displacing send.
    fn admit_punct(&mut self, shard: usize) -> bool {
        loop {
            let cap = match &self.senders[shard] {
                Some(tx) => tx.wait_capacity(self.overload.send_deadline),
                None => return false,
            };
            match cap {
                Capacity::Ready | Capacity::Closed => return false,
                Capacity::TimedOut => {
                    if self.watchdog(shard) {
                        continue;
                    }
                    if matches!(self.overload.policy, ShedPolicy::DropOldest) {
                        return true;
                    }
                }
            }
        }
    }

    /// Runs the shard's decay-aware thinning stage over a staged batch,
    /// recording the shed in telemetry. Only called with a non-empty
    /// subsampler set (`ShedPolicy::Subsample`).
    fn thin(&mut self, shard: usize, pkts: &mut Vec<Packet>, scales: &mut Option<Vec<f64>>) {
        let mut sc = Vec::new();
        let shed = self.subsamplers[shard].thin(pkts, &mut sc);
        *scales = Some(sc);
        if shed > 0 {
            self.telemetry.shed_tuples.fetch_add(shed, Relaxed);
            self.telemetry.shards()[shard]
                .shed_tuples
                .fetch_add(shed, Relaxed);
        }
    }

    /// The stuck-shard watchdog: a worker whose ring has been full for a
    /// whole send deadline AND whose lease heartbeat has gone stale is
    /// declared wedged and replaced. Returns `true` when it acted
    /// (respawned or degraded the shard) so the caller re-evaluates
    /// capacity; `false` means the worker is slow but alive — keep
    /// applying the shed policy.
    fn watchdog(&mut self, shard: usize) -> bool {
        if !self.supervising() || !self.seats[shard].lease.is_stale(self.overload.lease) {
            return false;
        }
        self.wedge_respawn(shard);
        true
    }

    /// Abandons a wedged worker incarnation and brings up a fresh one
    /// through the normal checkpoint + backlog replay path, spending
    /// restarts from the shard's budget. Safe Rust cannot kill a thread:
    /// the zombie is parked and joined at finish/drop once it observes its
    /// retired lease (or detached if it never does).
    fn wedge_respawn(&mut self, shard: usize) {
        eprintln!(
            "fd-shard-{shard}: worker wedged (no heartbeat for {:?}); respawning",
            self.seats[shard].lease.stale_for()
        );
        self.seats[shard].lease.retire();
        self.senders[shard] = None;
        if let Some(handle) = self.workers[shard].take() {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                self.zombies.push(handle);
            }
        }
        self.telemetry.wedged_respawns.fetch_add(1, Relaxed);
        if self.seats[shard].slot.unsupported() || !self.try_restart(shard) {
            self.degrade(shard);
        }
    }

    /// Accounts for a message displaced off a full ring by `DropOldest`:
    /// purges it from the replay backlog (it will never be applied, so it
    /// must not be replayed either), counts the shed, and recycles its
    /// buffer.
    fn shed_displaced(&mut self, shard: usize, old: Msg) {
        let dseq = old.seq();
        self.telemetry.shards()[shard]
            .queue_depth
            .fetch_sub(1, Relaxed);
        if self.supervising() && !self.seats[shard].slot.unsupported() {
            self.seats[shard]
                .backlog
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|m| m.seq() != dseq);
        }
        if let Msg::Batch { pkts, .. } = old {
            let shed = pkts.len() as u64;
            self.telemetry.shed_tuples.fetch_add(shed, Relaxed);
            self.telemetry.shed_batches.fetch_add(1, Relaxed);
            self.telemetry.shards()[shard]
                .shed_tuples
                .fetch_add(shed, Relaxed);
            if let Ok(buf) = Arc::try_unwrap(pkts) {
                self.pool.put(buf);
            }
        }
    }

    /// Retains the message in the backlog (supervised mode), sends it
    /// (displacing the oldest queued message when `displace` — the
    /// `DropOldest` verdict from admission), and runs the recovery
    /// protocol if the worker turns out to be dead.
    fn dispatch(&mut self, shard: usize, msg: Msg, displace: bool) -> Result<(), fd_core::Error> {
        if self.supervising() && !self.seats[shard].slot.unsupported() {
            // Clone into the backlog *before* sending, so the failed
            // message itself is replayable. This push is the dispatch
            // path's entire supervision cost: covered entries are trimmed
            // by the worker after each checkpoint it publishes.
            self.seats[shard]
                .backlog
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(msg.clone());
        }
        // Write-ahead: the record is enqueued to the WAL writer before the
        // message reaches the worker, and on the same ring the later commit
        // record travels on — so a commit can never be written before the
        // batches it covers.
        if let Some(d) = self.durable.as_mut() {
            match &msg {
                Msg::Batch { seq, pkts, wm, .. } => d.batch(shard, *seq, pkts, *wm),
                Msg::Punctuate { seq, wm } => d.punct(shard, *seq, *wm),
            }
        }
        let mut displaced = None;
        let alive = match &self.senders[shard] {
            // Admission's `DropOldest` verdict: bump the oldest queued
            // message out of the full ring instead of waiting behind it.
            Some(tx) if displace => match tx.send_displacing(msg) {
                Ok(old) => {
                    displaced = old;
                    true
                }
                Err(_) => false,
            },
            Some(tx) => tx.send(msg).is_ok(),
            None => false,
        };
        if let Some(old) = displaced {
            self.shed_displaced(shard, old);
        }
        if alive {
            return Ok(());
        }
        // A send fails only if the worker is gone — i.e. it panicked.
        if !self.supervising() {
            return Err(fd_core::Error::WorkerLost { shard });
        }
        self.reap(shard);
        if !self.seats[shard].slot.unsupported() && self.try_restart(shard) {
            Ok(())
        } else {
            self.degrade(shard);
            Ok(())
        }
    }

    /// Joins a dead worker's thread, recording its panic. Closes the
    /// channel first so a (theoretically) live worker drains and exits.
    fn reap(&mut self, shard: usize) {
        self.senders[shard] = None;
        if let Some(handle) = self.workers[shard].take() {
            match handle.join() {
                Ok(state) => self.seats[shard].early_exit = Some(state),
                Err(payload) => {
                    self.telemetry.worker_panics.fetch_add(1, Relaxed);
                    eprintln!(
                        "fd-shard-{shard}: worker panicked: {}",
                        panic_message(&payload)
                    );
                }
            }
        }
    }

    /// Bounded-restart loop: respawn from the checkpoint with exponential
    /// backoff, replay the backlog, retry if the replay dies too. Returns
    /// `true` once a live worker is in place, `false` when the budget is
    /// exhausted (the caller degrades the shard).
    fn try_restart(&mut self, shard: usize) -> bool {
        while self.seats[shard].restarts < self.max_restarts {
            let attempt = self.seats[shard].restarts;
            self.seats[shard].restarts += 1;
            self.telemetry.restarts.fetch_add(1, Relaxed);
            std::thread::sleep(backoff(attempt));
            if self.respawn_and_replay(shard) {
                return true;
            }
            // The replay killed the fresh worker (a permanent fault):
            // reap it and spend another restart.
            self.reap(shard);
        }
        false
    }

    /// Restores an engine from the shard's checkpoint (or builds a fresh
    /// one if no checkpoint was taken yet), spawns a new worker on a new
    /// ring, and replays every backlog message past the checkpoint.
    /// Returns `false` if the restore fails or the worker dies mid-replay.
    fn respawn_and_replay(&mut self, shard: usize) -> bool {
        let (ckpt_seq, engine) = match self.seats[shard].slot.load() {
            Some((seq, bytes)) => match Engine::restore(self.worker_query.clone(), &bytes) {
                Ok(e) => (seq, e),
                Err(err) => {
                    // "Can't happen" (we wrote these bytes); surface it
                    // rather than looping on a poisoned slot.
                    eprintln!("fd-shard-{shard}: checkpoint restore failed: {err:?}");
                    return false;
                }
            },
            None => {
                let mut e = Engine::new(self.worker_query.clone());
                e.keep_closed_state();
                (0, e)
            }
        };
        let (tx, rx) = ring::<Msg>(CHANNEL_DEPTH);
        // A fresh incarnation gets a fresh lease; the retired one stays
        // with any zombie still holding it.
        self.seats[shard].lease = Arc::new(WorkerLease::default());
        let handle = spawn_worker(
            shard,
            engine,
            rx,
            Arc::clone(&self.telemetry),
            self.pool.clone(),
            Arc::clone(&self.config),
            Arc::clone(&self.seats[shard].slot),
            Arc::clone(&self.seats[shard].backlog),
            Arc::clone(&self.fault),
            Arc::clone(&self.seats[shard].lease),
        );
        self.workers[shard] = Some(handle);
        self.senders[shard] = Some(tx);
        // The old ring died with un-decremented messages in it; the gauge
        // restarts from the replay backlog.
        let tel = &self.telemetry.shards()[shard];
        tel.queue_depth.store(0, Relaxed);
        // The dead worker can't contend for the lock; a poisoned mutex
        // just means it died mid-trim, which leaves the deque intact.
        let replay: Vec<Msg> = self.seats[shard]
            .backlog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|m| m.seq() > ckpt_seq)
            .cloned()
            .collect();
        for msg in replay {
            let tel = &self.telemetry.shards()[shard];
            if let Msg::Batch { pkts, .. } = &msg {
                self.telemetry.replayed_batches.fetch_add(1, Relaxed);
                self.telemetry
                    .replayed_tuples
                    .fetch_add(pkts.len() as u64, Relaxed);
            }
            tel.queue_depth.fetch_add(1, Relaxed);
            let sent = match &self.senders[shard] {
                Some(tx) => tx.send(msg).is_ok(),
                None => false,
            };
            if !sent {
                return false;
            }
        }
        true
    }

    /// Gives up on a shard: drops its backlog (counting the tuples as
    /// degraded drops), zeroes its queue gauge, and marks it so later
    /// routed tuples are counted instead of sent. Its last checkpoint is
    /// still salvaged at [`ShardedEngine::finish`].
    fn degrade(&mut self, shard: usize) {
        self.reap(shard);
        self.seats[shard].degraded = true;
        self.telemetry.degraded_shards.fetch_add(1, Relaxed);
        let msgs: Vec<Msg> = self.seats[shard]
            .backlog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        let mut dropped = 0u64;
        for msg in msgs {
            if let Msg::Batch { pkts, .. } = msg {
                dropped += pkts.len() as u64;
                if let Ok(buf) = Arc::try_unwrap(pkts) {
                    self.pool.put(buf);
                }
            }
        }
        self.telemetry.dropped_degraded.fetch_add(dropped, Relaxed);
        self.telemetry.shards()[shard].queue_depth.store(0, Relaxed);
    }

    /// Graceful drain: seals ingress, flushes every staged tuple, waits up
    /// to `deadline` for all shard queues to empty, then finishes the run
    /// and reports exactly what the shutdown cost. A shard still lagging at
    /// the deadline is abandoned — its worker retired, its state salvaged
    /// from the last checkpoint — rather than blocking shutdown forever,
    /// and the loss shows up in the report's `per_shard_lag` /
    /// `unflushed_epochs` instead of vanishing.
    ///
    /// Coordinator mode only: callers running taken ingress handles on
    /// their own threads must [`IngressHandle::finish`] them first.
    pub fn drain(&mut self, deadline: Duration) -> (Vec<Row>, DrainReport) {
        let mut report = DrainReport {
            per_shard_lag: vec![0; self.n_shards()],
            ..DrainReport::default()
        };
        if self.done {
            return (Vec::new(), report);
        }
        // Seal: push every staged tuple into the rings. Errors here mean a
        // shard is already beyond saving; the finish below salvages it.
        let flushed = if self.fabric.is_some() {
            self.flush_fab_chunk()
        } else {
            self.sync_watermark()
        };
        if let Err(e) = flushed {
            eprintln!("fd-drain: final flush failed: {e}");
        }
        let give_up = Instant::now() + deadline;
        loop {
            let lag: u64 = (0..self.n_shards())
                .map(|s| self.telemetry.shards()[s].queue_depth.load(Relaxed))
                .sum();
            if lag == 0 {
                break;
            }
            if Instant::now() >= give_up {
                report.deadline_expired = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if report.deadline_expired {
            for shard in 0..self.n_shards() {
                let lag = self.telemetry.shards()[shard].queue_depth.load(Relaxed);
                if lag > 0 {
                    report.per_shard_lag[shard] = lag;
                    report.unflushed_epochs += lag;
                    self.abandon_shard(shard);
                }
            }
        }
        let rows = self.finish();
        report.shed_tuples = self.telemetry.shed_tuples.load(Relaxed);
        report.shed_batches = self.telemetry.shed_batches.load(Relaxed);
        report.wedged_respawns = self.telemetry.wedged_respawns.load(Relaxed);
        (rows, report)
    }

    /// Abandons a shard that failed to drain by its deadline: retires the
    /// worker's lease, parks the thread as a zombie (it may be blocked on
    /// a full downstream or genuinely wedged), and degrades the shard so
    /// [`ShardedEngine::finish`] salvages its last checkpoint. The join
    /// result of an already-exited worker is deliberately discarded —
    /// folding it *and* the checkpoint salvage would double-count.
    fn abandon_shard(&mut self, shard: usize) {
        if let Some(fab) = self.fabric.as_ref().map(Arc::clone) {
            let sh = &fab.shards[shard];
            if sh.degraded.load(Relaxed) {
                return;
            }
            let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.generation += 1;
            inner.lease.retire();
            if let Some(handle) = inner.worker.take() {
                if handle.is_finished() {
                    let _ = handle.join();
                } else {
                    inner.zombies.push(handle);
                }
            }
            fab.degrade_locked(shard, &mut inner);
            return;
        }
        if self.seats[shard].degraded {
            return;
        }
        self.seats[shard].lease.retire();
        self.senders[shard] = None;
        if let Some(handle) = self.workers[shard].take() {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                self.zombies.push(handle);
            }
        }
        self.degrade(shard);
    }

    /// Ends the stream: flushes all shards, merges their closed buckets,
    /// and returns every row in (bucket, key) order — the same order the
    /// single-threaded engine emits. Subsequent calls return no rows.
    ///
    /// A worker found dead here is put through the same supervision
    /// protocol as one found dead mid-stream: restore, replay, bounded
    /// retries, then degradation with checkpoint salvage.
    pub fn finish(&mut self) -> Vec<Row> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        if self.fabric.is_some() {
            return self.finish_fabric();
        }
        // Flush staged batches and broadcast the final watermark, so every
        // worker's applied-watermark gauge catches up to the dispatcher
        // (post-run watermark lag reads 0, not the un-broadcast remainder).
        self.sync_watermark().unwrap_or_else(|e| panic!("{e}"));
        // Close every channel first so all workers drain in parallel.
        for tx in self.senders.iter_mut() {
            *tx = None;
        }
        let mut combined: BTreeMap<(u64, u64), Box<dyn Aggregator>> = BTreeMap::new();
        for shard in 0..self.n_shards() {
            while let Some(handle) = self.workers[shard].take() {
                match handle.join() {
                    Ok((closed, stats)) => {
                        self.shard_stats[shard] = stats;
                        fold_closed(&mut combined, closed);
                        break;
                    }
                    Err(payload) => {
                        self.telemetry.worker_panics.fetch_add(1, Relaxed);
                        eprintln!(
                            "fd-shard-{shard}: worker panicked: {}",
                            panic_message(&payload)
                        );
                        let recovered = self.supervising()
                            && !self.seats[shard].slot.unsupported()
                            && self.try_restart(shard);
                        if recovered {
                            // Close the fresh worker's channel: it drains
                            // the replay and exits with its state, which
                            // the next join collects.
                            self.senders[shard] = None;
                        } else {
                            self.degrade(shard);
                        }
                    }
                }
            }
            if let Some((closed, stats)) = self.seats[shard].early_exit.take() {
                self.shard_stats[shard] = stats;
                fold_closed(&mut combined, closed);
            }
            if self.seats[shard].degraded {
                // Salvage the degraded shard's last checkpoint: everything
                // up to it survives in the final result.
                if let Some((_seq, bytes)) = self.seats[shard].slot.load() {
                    if let Ok(mut e) = Engine::restore(self.worker_query.clone(), &bytes) {
                        let closed = e.finish_state();
                        self.shard_stats[shard] = e.stats();
                        fold_closed(&mut combined, closed);
                    }
                }
            }
        }
        reap_zombies(&mut self.zombies);
        // All workers have drained and published their last checkpoints:
        // flush the WAL, persist what the last commit covers, and commit a
        // final manifest, so a cleanly-finished store recovers instantly.
        if let Some(d) = self.durable.as_mut() {
            d.finish();
        }
        self.emit_rows(combined)
    }

    /// Fabric-mode finish: deal the per-tuple remainder, finish the
    /// coordinator's handles (parallel callers have already finished or
    /// dropped theirs), join every shard worker, and merge — applying the
    /// same dead-worker protocol as the single dispatcher's finish.
    fn finish_fabric(&mut self) -> Vec<Row> {
        self.flush_fab_chunk().unwrap_or_else(|e| panic!("{e}"));
        let fab = Arc::clone(self.fabric.as_ref().expect("fabric mode"));
        for h in std::mem::take(&mut self.fab_handles) {
            h.finish();
        }
        let mut combined: BTreeMap<(u64, u64), Box<dyn Aggregator>> = BTreeMap::new();
        for (shard, sh) in fab.shards.iter().enumerate() {
            loop {
                let handle = sh
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .worker
                    .take();
                let Some(handle) = handle else { break };
                match handle.join() {
                    Ok((closed, stats)) => {
                        self.shard_stats[shard] = stats;
                        fold_closed(&mut combined, closed);
                        break;
                    }
                    Err(payload) => {
                        self.telemetry.worker_panics.fetch_add(1, Relaxed);
                        eprintln!(
                            "fd-shard-{shard}: worker panicked: {}",
                            panic_message(&payload)
                        );
                        if !self.supervising() {
                            break;
                        }
                        // Same protocol as mid-stream: bounded respawn
                        // (the fresh worker replays the backlog tail and
                        // exits — every producer's ring is already
                        // closed), else degrade with salvage below.
                        let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                        fab.recover_locked(shard, &mut inner);
                    }
                }
            }
            let early = sh
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .early_exit
                .take();
            if let Some((closed, stats)) = early {
                self.shard_stats[shard] = stats;
                fold_closed(&mut combined, closed);
            }
            if sh.degraded.load(Relaxed) {
                if let Some((_seq, bytes)) = sh.slot.load() {
                    if let Ok(mut e) = Engine::restore(self.worker_query.clone(), &bytes) {
                        let closed = e.finish_state();
                        self.shard_stats[shard] = e.stats();
                        fold_closed(&mut combined, closed);
                    }
                }
            }
            let mut zombies = std::mem::take(
                &mut sh
                    .inner
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .zombies,
            );
            reap_zombies(&mut zombies);
        }
        reap_zombies(&mut self.zombies);
        if let Some(d) = self.durable.as_mut() {
            d.finish();
        }
        // Fold the producers' admission counters into the engine stats:
        // the fabric must report the same aggregate counts the single
        // dispatcher would have.
        {
            let out = fab.stats_out.lock().unwrap_or_else(PoisonError::into_inner);
            for s in out.iter().flatten() {
                self.stats.tuples_in += s.tuples_in;
                self.stats.filtered += s.filtered;
                self.stats.late_drops += s.late_drops;
            }
        }
        for t in self.telemetry.producers() {
            self.watermark = self.watermark.max(t.watermark_us.load(Relaxed));
        }
        self.emit_rows(combined)
    }

    /// Evaluates the merged `(bucket, key)` states into rows and records
    /// the final counters unconditionally (even with live telemetry off),
    /// so a post-run snapshot always agrees exactly with `stats()`.
    fn emit_rows(&mut self, combined: BTreeMap<(u64, u64), Box<dyn Aggregator>>) -> Vec<Row> {
        let bucket_micros = self.query.bucket_micros;
        let mut last_bucket = None;
        let rows: Vec<Row> = combined
            .into_iter()
            .map(|((bucket, key), agg)| {
                if last_bucket != Some(bucket) {
                    last_bucket = Some(bucket);
                    self.stats.buckets_closed += 1;
                }
                Row {
                    bucket_start: bucket * bucket_micros,
                    key,
                    value: agg.emit(secs((bucket + 1) * bucket_micros)),
                }
            })
            .collect();
        self.stats.rows_out = rows.len() as u64;
        self.telemetry
            .tuples_in
            .store(self.stats.tuples_in, Relaxed);
        self.telemetry.filtered.store(self.stats.filtered, Relaxed);
        self.telemetry
            .late_drops
            .store(self.stats.late_drops, Relaxed);
        self.telemetry
            .dispatcher_watermark
            .store(self.watermark, Relaxed);
        self.telemetry.rows_out.store(self.stats.rows_out, Relaxed);
        self.telemetry
            .buckets_closed
            .store(self.stats.buckets_closed, Relaxed);
        rows
    }

    /// Runs a whole stream through the query and returns all rows.
    /// Chunks the stream through the columnar fast path.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Packet>) -> Vec<Row> {
        let mut buf = Vec::with_capacity(self.batch_size);
        for pkt in stream {
            buf.push(pkt);
            if buf.len() == self.batch_size {
                self.process_packets(&buf);
                buf.clear();
            }
        }
        self.process_packets(&buf);
        self.finish()
    }

    /// Combined execution counters: dispatcher admission counts plus the
    /// shard-side LFTA evictions, and the combiner's row/bucket counts.
    /// Shard-side numbers are folded in by [`ShardedEngine::finish`].
    pub fn stats(&self) -> EngineStats {
        let shards = crate::metrics::combine_shard_stats(&self.shard_stats);
        let mut stats = EngineStats {
            lfta_evictions: shards.lfta_evictions,
            ..self.stats
        };
        if !self.done {
            // Fabric coordinator mode mid-run: admission lives on the
            // handles; fold their counters in. (After finish they are
            // folded into self.stats already; in taken-handles mode the
            // caller reads the handles' own stats until finish.)
            for h in &self.fab_handles {
                stats.tuples_in += h.stats.tuples_in;
                stats.filtered += h.stats.filtered;
                stats.late_drops += h.stats.late_drops;
            }
        }
        stats
    }

    /// Raw per-shard engine counters (populated by
    /// [`ShardedEngine::finish`]).
    pub fn per_shard_stats(&self) -> &[EngineStats] {
        &self.shard_stats
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Close channels and reap workers so an abandoned engine doesn't
        // leak threads. A worker panic must not be swallowed silently: we
        // can't propagate it from drop (we may already be unwinding), so
        // count it in the telemetry registry and log the payload.
        for tx in self.senders.iter_mut() {
            *tx = None;
        }
        for (shard, slot) in self.workers.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    self.telemetry.worker_panics.fetch_add(1, Relaxed);
                    eprintln!(
                        "fd-shard-{shard}: worker panicked: {}",
                        panic_message(&payload)
                    );
                }
            }
        }
        if let Some(fab) = self.fabric.take() {
            // Dropping the coordinator handles closes their rings
            // (IngressHandle::drop); close any recovery-installed senders
            // too, then join the fabric workers.
            self.fab_handles.clear();
            for (shard, sh) in fab.shards.iter().enumerate() {
                for slot in &sh.senders {
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
                }
                let (handle, mut zombies) = {
                    let mut inner = sh.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    (inner.worker.take(), std::mem::take(&mut inner.zombies))
                };
                if let Some(handle) = handle {
                    if let Err(payload) = handle.join() {
                        self.telemetry.worker_panics.fetch_add(1, Relaxed);
                        eprintln!(
                            "fd-shard-{shard}: worker panicked: {}",
                            panic_message(&payload)
                        );
                    }
                }
                reap_zombies(&mut zombies);
            }
        }
        reap_zombies(&mut self.zombies);
    }
}

/// Joins retired (zombie) worker incarnations, giving each a short grace
/// period to notice its retired lease and exit. A thread still running
/// after the grace period is detached by dropping its handle — safe Rust
/// cannot kill it, and blocking shutdown on a genuinely wedged thread
/// would turn a shed into a hang. Join results are discarded: a retired
/// incarnation's state is stale by construction (its unapplied messages
/// were replayed to its successor).
fn reap_zombies(zombies: &mut Vec<WorkerHandle>) {
    for handle in zombies.drain(..) {
        let give_up = Instant::now() + Duration::from_millis(250);
        while !handle.is_finished() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
}

/// Merges closed groups into the combined `(bucket, key)` map, combining
/// states that met the same group on different shards (or in different
/// worker incarnations).
fn fold_closed(combined: &mut BTreeMap<(u64, u64), Box<dyn Aggregator>>, closed: Vec<ClosedGroup>) {
    for cg in closed {
        match combined.entry((cg.bucket, cg.key)) {
            Entry::Occupied(mut e) => e.get_mut().merge_boxed(cg.agg),
            Entry::Vacant(e) => {
                e.insert(cg.agg);
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&'static str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregators::{count_factory, fwd_sum_factory};
    use crate::fault::FaultPlan;
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

    fn count_query() -> Query {
        Query::builder("count")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(true)
            .lfta_slots(64)
            .build()
    }

    fn sharded(query: Query, n: usize) -> ShardedEngine {
        ShardedEngine::try_new(query, n).expect("spawn shards")
    }

    #[test]
    fn sharded_counts_match_single_threaded() {
        let stream: Vec<Packet> = (0..10_000)
            .map(|i| pkt(0.01 * i as f64, (i % 97) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let rows = sharded(count_query(), 4).run(stream);
        assert_eq!(single.len(), rows.len());
        for (a, b) in single.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_new_still_spawns() {
        // The deprecated panicking constructor stays a thin wrapper over
        // try_new until it is removed.
        let mut e = ShardedEngine::new(count_query(), 2);
        e.process(&pkt(1.0, 1));
        assert_eq!(e.finish().len(), 1);
    }

    #[test]
    fn round_robin_merges_split_groups_exactly() {
        // Every group's state splits across all 4 shards; counts are
        // additively mergeable so the merge path must reassemble them
        // exactly.
        let stream: Vec<Packet> = (0..8_000)
            .map(|i| pkt(0.005 * i as f64, (i % 13) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let rows = sharded(count_query(), 4)
            .routing(ShardBy::RoundRobin)
            .run(stream);
        assert_eq!(single.len(), rows.len());
        for (a, b) in single.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn forward_decayed_sum_shards_by_key() {
        let q = || {
            Query::builder("fwd")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
                .two_level(false)
                .build()
        };
        let stream: Vec<Packet> = (0..5_000)
            .map(|i| pkt(0.03 * i as f64, (i % 31) as u32))
            .collect();
        let single = Engine::new(q()).run(stream.clone());
        let rows = sharded(q(), 4).run(stream);
        assert_eq!(single.len(), rows.len());
        for (a, b) in single.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
    }

    #[test]
    fn late_tuples_drop_identically() {
        let mut single = Engine::new(count_query());
        let mut parallel = sharded(count_query(), 4);
        let events = [
            StreamEvent::Data(pkt(10.0, 1)),
            StreamEvent::Punctuation(130 * MICROS_PER_SEC),
            StreamEvent::Data(pkt(15.0, 1)), // late: bucket 0 closed
            StreamEvent::Data(pkt(140.0, 2)),
        ];
        for ev in &events {
            single.process_event(ev);
        }
        parallel.process_batch(&events);
        let s_rows = single.finish();
        let p_rows = parallel.finish();
        assert_eq!(s_rows.len(), p_rows.len());
        assert_eq!(single.stats().late_drops, 1);
        assert_eq!(parallel.stats().late_drops, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let q = Query::builder("stats")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .build();
        let mut e = sharded(q, 3);
        for i in 0..300 {
            e.process(&pkt(i as f64 * 0.1, (i % 7) as u32));
        }
        let rows = e.finish();
        let stats = e.stats();
        assert_eq!(stats.tuples_in, 300);
        assert_eq!(stats.rows_out, rows.len() as u64);
        assert!(stats.buckets_closed >= 1);
        let per_shard = e.per_shard_stats();
        assert_eq!(per_shard.len(), 3);
        assert_eq!(
            per_shard.iter().map(|s| s.tuples_in).sum::<u64>(),
            300,
            "every accepted tuple lands on exactly one shard"
        );
    }

    #[test]
    fn try_new_rejects_zero_shards() {
        assert!(matches!(
            ShardedEngine::try_new(count_query(), 0),
            Err(fd_core::Error::InvalidParameter {
                name: "n_shards",
                ..
            })
        ));
    }

    #[test]
    fn finish_is_idempotent_and_drop_reaps_workers() {
        let mut e = sharded(count_query(), 2);
        e.process(&pkt(1.0, 1));
        assert_eq!(e.finish().len(), 1);
        assert!(e.finish().is_empty());
        let e2 = sharded(count_query(), 2);
        drop(e2); // must not hang or leak
    }

    #[test]
    fn key_routing_spreads_within_bound() {
        // Dense sequential keys AND power-of-two-strided keys must both
        // land within ±20% of a uniform share on every shard — the
        // strided case is exactly what a low-bits `h % n` fold fails.
        const KEYS: u64 = 100_000;
        for n_shards in [2usize, 3, 4, 8] {
            for (label, stride_shift) in [("dense", 0u32), ("strided", 12u32)] {
                let mut e = sharded(count_query(), n_shards);
                let mut counts = vec![0u64; n_shards];
                for key in 0..KEYS {
                    counts[e.route(key << stride_shift)] += 1;
                }
                let uniform = KEYS as f64 / n_shards as f64;
                for (shard, &c) in counts.iter().enumerate() {
                    let dev = (c as f64 - uniform).abs() / uniform;
                    assert!(
                        dev <= 0.20,
                        "{label} keys, {n_shards} shards: shard {shard} got {c} \
                         (uniform {uniform:.0}, deviation {:.1}%)",
                        dev * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn dropped_engine_records_worker_panic() {
        use crate::udaf::{AggValue, Aggregator, FnFactory};
        use std::any::Any;

        // An aggregator that panics when it meets the sentinel tuple.
        struct Tripwire;
        impl Aggregator for Tripwire {
            fn update(&mut self, pkt: &Packet) {
                assert!(pkt.len != 0xDEAD, "tripwire: poisoned tuple");
            }
            fn merge_boxed(&mut self, _other: Box<dyn Aggregator>) {}
            fn emit(&self, _t: f64) -> AggValue {
                AggValue::Float(0.0)
            }
            fn size_bytes(&self) -> usize {
                0
            }
            fn as_any_box(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }

        let q = Query::builder("tripwire")
            .group_by(|_| 0) // one group: everything routes to one shard
            .bucket_secs(60)
            .aggregate(FnFactory::new("tripwire", true, |_| Box::new(Tripwire)))
            .two_level(false)
            .build();
        let mut e = sharded(q, 2);
        // Exactly one batch's worth of tuples so process() itself flushes
        // the batch to the worker (no explicit punctuation: the worker
        // dies, and drop — not a send — must discover it).
        for i in 0..DEFAULT_BATCH_SIZE {
            let mut p = pkt(0.001 * i as f64, 1);
            if i == 7 {
                p.len = 0xDEAD;
            }
            e.process(&p);
        }
        let tel = Arc::clone(e.telemetry());
        drop(e); // Drop must reap the dead worker and record the panic
        assert_eq!(tel.worker_panics.load(Relaxed), 1);
    }

    #[test]
    fn batched_admission_matches_scalar_exactly() {
        // The columnar process_packets path must accept, filter and drop
        // exactly the tuples the per-tuple path does — including streams
        // where the closed boundary advances mid-batch and late tuples
        // interleave with fresh ones.
        let q = || {
            Query::builder("diff")
                .filter(|p| p.dst_port == 80)
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .build()
        };
        let mut stream = Vec::new();
        for i in 0..20_000u64 {
            let mut p = pkt(i as f64 * 0.05, (i % 41) as u32);
            if i % 17 == 0 {
                p.dst_port = 443; // filtered
            }
            if i % 97 == 0 {
                p.ts = p.ts.saturating_sub(200 * MICROS_PER_SEC); // late
            }
            stream.push(p);
        }
        let mut scalar = sharded(q(), 3);
        for p in &stream {
            scalar.process(p);
        }
        let s_rows = scalar.finish();
        let mut batched = sharded(q(), 3).batch_size(256);
        let b_rows = batched.run(stream);
        let (ss, bs) = (scalar.stats(), batched.stats());
        assert_eq!(ss.tuples_in, bs.tuples_in);
        assert_eq!(ss.filtered, bs.filtered);
        assert_eq!(ss.late_drops, bs.late_drops);
        assert_eq!(s_rows.len(), b_rows.len());
        for (a, b) in s_rows.iter().zip(&b_rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
    }

    #[test]
    fn pooled_batches_recycle_and_count_like_fresh_ones() {
        // Satellite check: batches_sent must count recycled-pool sends
        // identically to fresh sends. Route everything to one shard,
        // ship enough batches that the depth-8 ring forces the worker to
        // drain (returning buffers to the pool) while the dispatcher is
        // still flushing. Supervision off: this pins the legacy
        // worker-side recycling path.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .build();
        let mut e = sharded(q, 1).batch_size(BATCH).checkpoint_every(0);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        let sent: u64 = snap.shards.iter().map(|s| s.batches_sent).sum();
        assert_eq!(
            sent, N_BATCHES,
            "every batch counted once, recycled or fresh"
        );
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "steady state must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(
            pool.allocs() < N_BATCHES,
            "most sends must reuse pooled buffers, not allocate"
        );
    }

    #[test]
    fn supervised_trim_reclaims_batch_buffers() {
        // Under supervision the apply path can't recycle (the backlog
        // holds a clone); the worker reclaims covered batches when it
        // trims after publishing each checkpoint. Checkpoint after every
        // batch so every trim succeeds deterministically: the worker
        // releases its apply-path reference *before* publishing the
        // checkpoint seq.
        const BATCH: usize = 64;
        const N_BATCHES: u64 = 40;
        let q = Query::builder("pool")
            .group_by(|_| 0)
            .bucket_secs(60)
            .aggregate(count_factory())
            .two_level(false)
            .build();
        let mut e = sharded(q, 1)
            .batch_size(BATCH)
            .checkpoint_every(BATCH as u64);
        let stream: Vec<Packet> = (0..N_BATCHES * BATCH as u64)
            .map(|i| pkt(0.001 * i as f64, 1))
            .collect();
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert!(snap.checkpoints >= N_BATCHES / 2, "workers checkpointed");
        let pool = e.batch_pool();
        assert!(
            pool.reuses() > 0,
            "trimming must recycle buffers (allocs {}, reuses {})",
            pool.allocs(),
            pool.reuses()
        );
        assert!(pool.allocs() < N_BATCHES);
    }

    #[test]
    fn transient_worker_death_recovers_exactly() {
        // Kill shard 0 mid-stream; the supervisor restores it from its
        // checkpoint, replays the tail, and the rows come out identical
        // to an unfaulted run — with the recovery visible in telemetry.
        let stream: Vec<Packet> = (0..30_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let clean = sharded(count_query(), 2).run(stream.clone());
        let mut e = sharded(count_query(), 2)
            .batch_size(128)
            .checkpoint_every(1_000)
            .inject_fault(FaultPlan::parse("panic:0:5000").expect("plan"));
        let rows = e.run(stream);
        assert_eq!(clean.len(), rows.len());
        for (a, b) in clean.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.restarts, 1, "one respawn");
        assert_eq!(snap.worker_panics, 1, "the injected death was reaped");
        assert!(snap.replayed_batches > 0, "the backlog tail was replayed");
        assert!(snap.checkpoints > 0);
        assert_eq!(snap.degraded_shards, 0);
        assert_eq!(snap.dropped_degraded, 0);
    }

    #[test]
    fn poisoned_shard_degrades_after_bounded_restarts() {
        // A permanent fault exhausts the restart budget; the shard
        // degrades, its checkpoint is salvaged, and the engine still
        // produces rows for the healthy shards.
        let stream: Vec<Packet> = (0..20_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .batch_size(128)
            .checkpoint_every(1_000)
            .max_restarts(2)
            .inject_fault(FaultPlan::parse("poison:1:4000").expect("plan"));
        let rows = e.run(stream);
        assert!(!rows.is_empty(), "healthy shard still emits");
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.restarts, 2, "budget spent exactly");
        assert_eq!(snap.degraded_shards, 1);
        assert!(
            snap.dropped_degraded > 0,
            "post-degradation tuples are counted dropped"
        );
        assert_eq!(snap.worker_panics, 3, "initial death + 2 failed respawns");
    }

    #[test]
    fn unsupervised_dead_worker_is_a_hard_error() {
        // checkpoint_every(0) restores the legacy contract: try_process
        // reports WorkerLost, process panics.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 1)
            .batch_size(64)
            .checkpoint_every(0)
            .inject_fault(FaultPlan::parse("panic:0:100").expect("plan"));
        let mut lost = None;
        for p in &stream {
            if let Err(err) = e.try_process(p) {
                lost = Some(err);
                break;
            }
        }
        assert!(
            matches!(lost, Some(fd_core::Error::WorkerLost { shard: 0 })),
            "expected WorkerLost, got {lost:?}"
        );
    }

    #[test]
    fn batch_size_builder_rejects_zero_and_late_calls() {
        let e = sharded(count_query(), 2).batch_size(16);
        drop(e);
        assert!(matches!(
            sharded(count_query(), 2).try_batch_size(0),
            Err(fd_core::Error::InvalidParameter {
                name: "batch_size",
                ..
            })
        ));
        let r = std::panic::catch_unwind(|| {
            let _ = sharded(count_query(), 2).batch_size(0);
        });
        assert!(r.is_err(), "zero batch size must panic");
    }

    #[test]
    fn telemetry_final_counters_match_stats() {
        let q = Query::builder("tel")
            .filter(|p| p.proto == Proto::Tcp)
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(count_factory())
            .build();
        let mut e = sharded(q, 3);
        let mut events = Vec::new();
        for i in 0..500 {
            let mut p = pkt(i as f64 * 0.5, (i % 11) as u32);
            if i % 50 == 0 {
                p.proto = Proto::Udp; // filtered out
            }
            events.push(StreamEvent::Data(p));
        }
        events.push(StreamEvent::Punctuation(400 * MICROS_PER_SEC));
        events.push(StreamEvent::Data(pkt(10.0, 1))); // late: dropped
        e.process_batch(&events);
        let rows = e.finish();
        let stats = e.stats();
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.tuples_in, stats.tuples_in);
        assert_eq!(snap.filtered, stats.filtered);
        assert_eq!(snap.late_drops, stats.late_drops);
        assert_eq!(snap.rows_out, rows.len() as u64);
        assert_eq!(snap.buckets_closed, stats.buckets_closed);
        assert!(stats.late_drops >= 1);
        assert_eq!(snap.worker_panics, 0);
        // Every queue drained, every shard caught up to the dispatcher.
        for shard in &snap.shards {
            assert_eq!(shard.queue_depth, 0);
            assert_eq!(shard.watermark_lag_us, 0);
        }
        assert_eq!(
            snap.shards.iter().map(|s| s.tuples_processed).sum::<u64>(),
            stats.tuples_in - stats.filtered - stats.late_drops
        );
    }

    // -- Multi-producer ingress fabric ------------------------------------

    #[test]
    fn fabric_coordinator_matches_single_threaded() {
        // The producer-seq determinism rule in action: for every P, the
        // coordinator deals chunks round-robin and each worker drains
        // producers in seq order, so keyed-routing rows are bit-identical
        // to the single-threaded engine.
        let stream: Vec<Packet> = (0..12_000)
            .map(|i| pkt(0.01 * i as f64, (i % 97) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        for producers in [1usize, 2, 3] {
            let mut e = sharded(count_query(), 4)
                .batch_size(256)
                .try_producers(producers)
                .expect("fabric");
            let rows = e.run(stream.clone());
            assert_eq!(single.len(), rows.len(), "P={producers}");
            for (a, b) in single.iter().zip(&rows) {
                assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
                assert_eq!(a.value, b.value, "P={producers} key {}", a.key);
            }
            assert_eq!(e.stats().tuples_in, stream.len() as u64);
            assert_eq!(e.n_producers(), producers);
        }
    }

    #[test]
    fn fabric_round_robin_matches_single_dispatcher() {
        let stream: Vec<Packet> = (0..8_000)
            .map(|i| pkt(0.005 * i as f64, (i % 13) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 4)
            .routing(ShardBy::RoundRobin)
            .batch_size(128)
            .try_producers(2)
            .expect("fabric");
        let rows = e.run(stream);
        assert_eq!(single.len(), rows.len());
        for (a, b) in single.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
    }

    #[test]
    fn fabric_parallel_handles_match_single_threaded() {
        // True parallel ingress: P threads each own an IngressHandle and
        // feed an interleaved slice of the stream. Count aggregation is
        // order-insensitive within a bucket and the slices stay within
        // slack of each other, so the rows still match the single-threaded
        // run exactly.
        const P: usize = 3;
        let q = || {
            Query::builder("par")
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .two_level(true)
                .lfta_slots(64)
                .build()
        };
        let stream: Vec<Packet> = (0..15_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let single = Engine::new(q()).run(stream.clone());
        let mut e = sharded(q(), 4)
            .batch_size(128)
            .try_producers(P)
            .expect("fabric");
        let handles = e.take_ingress_handles();
        let slices: Vec<Vec<Packet>> = (0..P)
            .map(|p| stream.iter().skip(p).step_by(P).copied().collect())
            .collect();
        let joined: Vec<std::thread::JoinHandle<EngineStats>> = handles
            .into_iter()
            .zip(slices)
            .map(|(mut h, slice)| {
                std::thread::spawn(move || {
                    for chunk in slice.chunks(256) {
                        h.ingest(chunk).expect("ingest");
                    }
                    h.finish()
                })
            })
            .collect();
        let mut fed = 0u64;
        for j in joined {
            fed += j.join().expect("producer thread").tuples_in;
        }
        assert_eq!(fed, stream.len() as u64);
        let rows = e.finish();
        assert_eq!(single.len(), rows.len());
        for (a, b) in single.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
        assert_eq!(e.stats().tuples_in, stream.len() as u64);
    }

    #[test]
    fn fabric_transient_worker_death_recovers_exactly() {
        // Same contract as the single-dispatcher supervisor: kill a shard
        // mid-stream under the fabric and the checkpoint + per-producer
        // backlog replay restores it bit-identically.
        let stream: Vec<Packet> = (0..30_000)
            .map(|i| pkt(0.01 * i as f64, (i % 53) as u32))
            .collect();
        let clean = sharded(count_query(), 2).run(stream.clone());
        let mut e = sharded(count_query(), 2)
            .batch_size(128)
            .checkpoint_every(1_000)
            .inject_fault(FaultPlan::parse("panic:0:5000").expect("plan"))
            .try_producers(2)
            .expect("fabric");
        let rows = e.run(stream);
        assert_eq!(clean.len(), rows.len());
        for (a, b) in clean.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.restarts, 1, "one respawn");
        assert_eq!(snap.worker_panics, 1);
        assert!(snap.replayed_batches > 0, "backlog tail was replayed");
        assert_eq!(snap.degraded_shards, 0);
    }

    #[test]
    fn fabric_pools_recycle_per_producer() {
        // Satellite: pool capacity scales with producers × shards and the
        // recycling hit-rate holds up under the fabric — visible through
        // the per-producer pool telemetry counters.
        const BATCH: usize = 64;
        const N: u64 = 10_000;
        let stream: Vec<Packet> = (0..N)
            .map(|i| pkt(0.001 * i as f64, (i % 7) as u32))
            .collect();
        let mut e = sharded(count_query(), 2)
            .batch_size(BATCH)
            .try_producers(2)
            .expect("fabric");
        e.run(stream);
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.producers.len(), 2);
        let reuses: u64 = snap.producers.iter().map(|p| p.pool_reuses).sum();
        let allocs: u64 = snap.producers.iter().map(|p| p.pool_allocs).sum();
        assert!(
            reuses > 0,
            "steady state must recycle buffers (allocs {allocs}, reuses {reuses})"
        );
        assert!(
            allocs < reuses,
            "most epochs must reuse pooled buffers (allocs {allocs}, reuses {reuses})"
        );
        for (p, prod) in snap.producers.iter().enumerate() {
            assert!(prod.epochs_sent > 0, "producer {p} sealed epochs");
            for (s, depth) in prod.ring_depth.iter().enumerate() {
                assert_eq!(*depth, 0, "ring ({p},{s}) drained");
            }
        }
    }

    #[test]
    fn fabric_admission_matches_scalar_exactly() {
        // Handle-local admission (filter, late-drop, watermark advance)
        // must reproduce the dispatcher's columnar path decisions exactly.
        let q = || {
            Query::builder("diff")
                .filter(|p| p.dst_port == 80)
                .group_by(|p| p.dst_host())
                .bucket_secs(60)
                .slack_secs(30.0)
                .aggregate(count_factory())
                .build()
        };
        let mut stream = Vec::new();
        for i in 0..20_000u64 {
            let mut p = pkt(i as f64 * 0.05, (i % 41) as u32);
            if i % 17 == 0 {
                p.dst_port = 443; // filtered
            }
            if i % 97 == 0 {
                p.ts = p.ts.saturating_sub(200 * MICROS_PER_SEC); // late
            }
            stream.push(p);
        }
        let mut scalar = sharded(q(), 3);
        for p in &stream {
            scalar.process(p);
        }
        let s_rows = scalar.finish();
        let mut fab = sharded(q(), 3)
            .batch_size(256)
            .try_producers(2)
            .expect("fabric");
        let f_rows = fab.run(stream);
        let (ss, fs) = (scalar.stats(), fab.stats());
        assert_eq!(ss.tuples_in, fs.tuples_in);
        assert_eq!(ss.filtered, fs.filtered);
        assert_eq!(ss.late_drops, fs.late_drops);
        assert_eq!(s_rows.len(), f_rows.len());
        for (a, b) in s_rows.iter().zip(&f_rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
    }

    #[test]
    fn try_producers_rejects_zero_and_finish_is_idempotent() {
        assert!(matches!(
            sharded(count_query(), 2).try_producers(0),
            Err(fd_core::Error::InvalidParameter {
                name: "producers",
                ..
            })
        ));
        let mut e = sharded(count_query(), 2).try_producers(2).expect("fabric");
        e.process(&pkt(1.0, 1));
        assert_eq!(e.finish().len(), 1);
        assert!(e.finish().is_empty());
        // Dropping a never-finished fabric engine must not hang or leak.
        let e2 = sharded(count_query(), 2).try_producers(3).expect("fabric");
        drop(e2);
        // Dropping taken handles without finish() must not hang either.
        let mut e3 = sharded(count_query(), 2).try_producers(2).expect("fabric");
        let handles = e3.take_ingress_handles();
        drop(handles);
        drop(e3);
    }

    fn fwd_query() -> Query {
        Query::builder("fwd")
            .group_by(|p| p.dst_host())
            .bucket_secs(60)
            .aggregate(fwd_sum_factory(Monomial::quadratic(), |p| p.len as f64))
            .two_level(false)
            .build()
    }

    #[test]
    fn try_overload_rejects_subsample_for_unscalable_aggregates() {
        // Undecayed count(*) refuses Horvitz–Thompson reweighting, so the
        // builder must reject Subsample for it at configuration time …
        let cfg = OverloadConfig {
            policy: ShedPolicy::Subsample { target_rate: 0.5 },
            ..OverloadConfig::default()
        };
        assert!(matches!(
            sharded(count_query(), 2).try_overload(cfg.clone()),
            Err(fd_core::Error::InvalidParameter {
                name: "shed_policy",
                ..
            })
        ));
        // … while a decayed linear aggregate accepts it, and the lossless
        // policies are accepted for any aggregate.
        assert!(sharded(fwd_query(), 2).try_overload(cfg).is_ok());
        let block = OverloadConfig::default();
        assert!(sharded(count_query(), 2).try_overload(block).is_ok());
    }

    #[test]
    fn default_block_policy_sheds_nothing() {
        let stream: Vec<Packet> = (0..5_000)
            .map(|i| pkt(0.01 * i as f64, (i % 13) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 3);
        let rows = e.run(stream);
        assert_eq!(single.len(), rows.len());
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.shed_tuples, 0);
        assert_eq!(snap.shed_batches, 0);
        assert_eq!(snap.wedged_respawns, 0);
    }

    #[test]
    fn drop_oldest_sheds_bounded_and_completes_under_slow_shard() {
        // One shard, deliberately slow worker (10 ms per batch), 2 ms send
        // deadline: the ring fills, and DropOldest must displace old
        // batches instead of stalling ingress — visibly, in telemetry.
        let stream: Vec<Packet> = (0..1_280)
            .map(|i| pkt(0.001 * i as f64, (i % 5) as u32))
            .collect();
        let cfg = OverloadConfig {
            policy: ShedPolicy::DropOldest,
            send_deadline: Duration::from_millis(2),
            ..OverloadConfig::default()
        };
        let started = Instant::now();
        let mut e = sharded(count_query(), 1)
            .batch_size(16)
            .try_overload(cfg)
            .expect("overload config")
            .inject_fault(FaultPlan::parse("slow:0:10").expect("plan"));
        let rows = e.run(stream);
        assert!(!rows.is_empty(), "shedding must not lose whole buckets");
        let snap = e.telemetry().snapshot();
        assert!(snap.shed_batches > 0, "ring pressure must displace batches");
        assert!(
            snap.shed_tuples >= snap.shed_batches,
            "batches carry tuples"
        );
        assert_eq!(snap.wedged_respawns, 0, "slow is not wedged");
        assert_eq!(snap.degraded_shards, 0);
        // 80 batches at 10 ms each would take 800 ms fully blocked; the
        // sheds must buy a visibly bounded ingress stall.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "DropOldest must bound the run"
        );
    }

    #[test]
    fn drain_on_healthy_engine_reports_clean() {
        let stream: Vec<Packet> = (0..3_000)
            .map(|i| pkt(0.01 * i as f64, (i % 7) as u32))
            .collect();
        let single = Engine::new(count_query()).run(stream.clone());
        let mut e = sharded(count_query(), 2);
        for p in &stream {
            e.process(p);
        }
        let (rows, report) = e.drain(Duration::from_secs(10));
        assert_eq!(single.len(), rows.len());
        assert!(!report.deadline_expired);
        assert!(!report.data_lost());
        assert_eq!(report.unflushed_epochs, 0);
        assert!(report.per_shard_lag.iter().all(|&l| l == 0));
        // A second drain on a finished engine is a no-op.
        let (rows2, report2) = e.drain(Duration::from_secs(1));
        assert!(rows2.is_empty());
        assert!(!report2.data_lost());
    }

    #[test]
    fn watchdog_respawns_wedged_worker_losslessly() {
        // The worker wedges (spins, no crash) at tuple 64. Supervision's
        // panic path never fires; only the watchdog can see it: ring full
        // past the deadline + stale lease. The respawned incarnation
        // replays the backlog, so the result is bit-identical to a clean
        // run under the lossless Block policy.
        let stream: Vec<Packet> = (0..4_000)
            .map(|i| pkt(0.002 * i as f64, (i % 11) as u32))
            .collect();
        let clean = Engine::new(count_query()).run(stream.clone());
        let cfg = OverloadConfig {
            send_deadline: Duration::from_millis(5),
            lease: Duration::from_millis(50),
            ..OverloadConfig::default()
        };
        let mut e = sharded(count_query(), 1)
            .batch_size(16)
            .try_overload(cfg)
            .expect("overload config")
            .inject_fault(FaultPlan::parse("wedge:0:64").expect("plan"));
        let rows = e.run(stream);
        assert_eq!(clean.len(), rows.len());
        for (a, b) in clean.iter().zip(&rows) {
            assert_eq!((a.bucket_start, a.key), (b.bucket_start, b.key));
            assert_eq!(a.value, b.value, "key {}", a.key);
        }
        let snap = e.telemetry().snapshot();
        assert_eq!(snap.wedged_respawns, 1, "exactly one wedge detected");
        assert_eq!(snap.restarts, 1, "respawn spends a restart");
        assert_eq!(snap.worker_panics, 0, "a wedge is not a panic");
        assert_eq!(snap.degraded_shards, 0);
        assert_eq!(snap.shed_tuples, 0, "Block never sheds");
    }
}
