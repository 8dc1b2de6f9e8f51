//! End-to-end packets-in → rows-out benchmark of `fd-engine`, with a
//! per-layer ledger.
//!
//! One caller thread feeds a pre-generated fd-gen trace, in 4096-tuple
//! chunks, through the public API of `Engine` or `ShardedEngine`, and checks
//! the rows against a reference computed off the clock. Each layer is
//! measured from outside: by timing calls into it and by reading its public
//! counters (`stats()`, `telemetry().snapshot()`, `batch_pool()`).
//!
//! - An untraced run (`--trace 0`) makes closed-loop passes (chunks back to
//!   back) and open-loop passes (chunks due at the workload's fixed rate)
//!   and reports the end-to-end metrics ([`END_TO_END`]).
//! - A traced run (`--trace 1`) records spans around every call into the
//!   engine in closed-loop passes and reports the per-layer metrics
//!   ([`PER_LAYER`]).
//!
//! Every pass builds a fresh engine over the same trace; a metric is the
//! median over the passes of a run. `NOTES.md` records why the workloads
//! are what they are and which end-to-end metric each layer metric moves.

pub mod check;
pub mod counting;
pub mod spans;
pub mod sys;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fd_engine::prelude::*;

use counting::{Counters, CountingFactory};
use spans::{Tracer, NO_CHUNK, ROOT};
use workload::{Sut, BUCKET_SECS, CHUNK};
pub use workload::{TraceShape, Workload};

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("tput_tps", "tuples/s"),
    ("cpu_ns_per_tuple", "ns"),
    ("finish_ms", "ms"),
    ("lat_p50_us", "us"),
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
    ("loss_frac", "ratio"),
];

/// Per-layer metrics: name and unit. A layer that does no work on a
/// workload reads 0 there (see `NOTES.md`).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("gen.trace_s", "s"),
    ("engine.process_ns_per_tuple", "ns"),
    ("engine.finish_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.state_bytes_peak", "bytes"),
    ("engine.rows_out", "count"),
    ("engine.buckets_closed", "count"),
    ("lfta.evictions", "count"),
    ("lfta.evict_ratio", "ratio"),
    ("lfta.occupancy", "slots"),
    ("aggregate.makes_per_ktuple", "count/ktuple"),
    ("aggregate.merges_per_ktuple", "count/ktuple"),
    ("aggregate.updates", "count"),
    ("aggregate.emits", "count"),
    ("aggregate.update_ns_sampled", "ns"),
    ("shard.build_ms", "ms"),
    ("shard.ingest_ns_per_tuple", "ns"),
    ("shard.ingest_cpu_ns_per_tuple", "ns"),
    ("shard.ingest_wait_ns_per_tuple", "ns"),
    ("shard.worker_cpu_ns_per_tuple", "ns"),
    ("shard.finish_ms", "ms"),
    ("shard.skew", "ratio"),
    ("shard.queue_depth_mean", "msgs"),
    ("shard.msgs_per_ktuple", "count/ktuple"),
    ("spsc.pool_reuse_ratio", "ratio"),
    ("spsc.pool_allocs", "count"),
    ("supervisor.checkpoints", "count"),
    ("supervisor.checkpoint_ms_mean", "ms"),
    ("supervisor.checkpoint_cpu_share", "ratio"),
    ("supervisor.restarts", "count"),
    ("supervisor.replayed_batches", "count"),
    ("durability.open_ms", "ms"),
    ("durability.commit_ns_per_tuple", "ns"),
    ("durability.commit_p99_us", "us"),
    ("durability.wal_bytes_per_tuple", "bytes"),
    ("durability.checkpoints_persisted", "count"),
    ("durability.store_bytes", "bytes"),
    ("durability.degraded", "count"),
    ("overload.shed_tuples", "count"),
    ("overload.wedged_respawns", "count"),
    ("driver.lat_p99_us", "us"),
    ("driver.lat_samples", "count"),
    ("driver.sched_late_p99_us", "us"),
    ("driver.backlog_end_ms", "ms"),
    ("trace.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Sampled rows of `fig2_single` recomputed by the oracle per pass check.
const ORACLE_SAMPLES: usize = 64;
/// Relative tolerance of `fig2_sharded` against `Engine`: two-level sums
/// regroup differently per shard partition.
const SHARDED_REL_TOL: f64 = 1e-12;
/// `engine.state_bytes_peak` samples `space_bytes()` every this many chunks.
const STATE_PROBE_EVERY: usize = 64;

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    pub shape: TraceShape,
    /// Work directory inside the checkout: durable stores and span dumps.
    pub work_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    /// Ingest calls made over all passes.
    pub attempted: u64,
    /// Ingest and commit calls that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the correctness gate failed, one line each.
    pub problems: Vec<String>,
    /// The host record: cores, shards, trace parameters, seed, commit.
    pub host: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Loop {
    /// Chunks back to back.
    Closed,
    /// Chunks due at the workload's rate; the pacer sleeps until each is due.
    Open,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tracing {
    Off,
    /// Spans around every call into the engine, plus gauge probes.
    Spans,
    /// Spans, and the query's aggregate behind [`CountingFactory`].
    Counted,
}

/// What one pass measured.
struct Pass {
    rows: Vec<Row>,
    /// Engine construction (plus store open), seconds.
    build_s: f64,
    /// First ingest call to the return of `finish()`, seconds.
    wall_s: f64,
    /// Process CPU over the same interval, ns.
    cpu_ns: u64,
    finish_s: f64,
    /// Open loop: per-chunk latency from due time to return, µs.
    lat_us: Vec<f64>,
    /// Open loop: how late the pacer issued each chunk, µs.
    late_us: Vec<f64>,
    /// Open loop: how far behind schedule the last chunk was issued, s.
    backlog_end_s: f64,
    /// `late_drops + shed_tuples + dropped_degraded`.
    lost: u64,
    /// Time spent in the probe spans (traced passes only), seconds.
    probe_s: f64,
    /// Per-layer readings (traced passes only).
    layers: Vec<(&'static str, f64)>,
}

/// Shared state of one run.
struct Run<'a> {
    cfg: &'a Config,
    trace: Vec<Packet>,
    /// UDP tuples, counted off the clock: what the TCP filter must reject.
    non_tcp: u64,
    stores: u32,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    tracer: Tracer,
}

/// Runs the benchmark. `Err` means the run could not be made (bad
/// directory, engine construction refused), not that a check failed.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let mut tracer = Tracer::default();
    let t = Instant::now();
    let gen_span = tracer.begin("gen", ROOT, NO_CHUNK);
    let trace = w.trace_config(cfg.seed, cfg.shape).generate();
    tracer.end(gen_span);
    let mut gen_s = vec![t.elapsed().as_secs_f64()];
    let rss_base_kib = sys::status_kib("VmRSS");
    if trace.is_empty() {
        return Err("the trace is empty".into());
    }
    let non_tcp = trace.iter().filter(|p| p.proto != Proto::Tcp).count() as u64;
    let mut run = Run {
        cfg,
        trace,
        non_tcp,
        stores: 0,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        tracer,
    };
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut metrics = Vec::new();
    let mut first_rows: Option<Vec<Row>> = None;
    let host = run.host_record();

    if !cfg.trace {
        // Open loop first: the peak memory is read at the offered rate, before
        // flat-out closed-loop passes pile a backlog up in front of the WAL
        // writer.
        let open = run.passes(
            Loop::Open,
            Tracing::Off,
            budget.mul_f64(0.3),
            &mut first_rows,
        )?;
        let mem_mb = sys::status_kib("VmHWM").saturating_sub(rss_base_kib) as f64 / 1024.0;
        // The closed-loop metrics drift most with the host's speed, so they
        // get the larger share of the run.
        let closed = run.passes(
            Loop::Closed,
            Tracing::Off,
            budget.mul_f64(0.7),
            &mut first_rows,
        )?;
        // More trace generations, off the measuring clock, so setup_s is a
        // median too.
        for _ in 0..2 {
            let t = Instant::now();
            let again = w.trace_config(cfg.seed, cfg.shape).generate();
            gen_s.push(t.elapsed().as_secs_f64());
            if again != run.trace {
                run.problems
                    .push("the same seed generated a different trace".into());
            }
        }
        let tuples = run.trace.len() as f64;
        let mut lat: Vec<f64> = open.iter().flat_map(|p| p.lat_us.iter().copied()).collect();
        let all = || closed.iter().chain(&open);
        let mut builds: Vec<f64> = all().map(|p| p.build_s).collect();
        let lost = all().map(|p| p.lost).max().unwrap_or(0);
        run.reference_check(first_rows.as_deref().unwrap_or_default());
        let loss_frac = if run.problems.is_empty() {
            // Add-one floor: never 0 (a relative bound divides by its median),
            // and a single lost tuple doubles it.
            (lost as f64 + 1.0) / (tuples + 1.0)
        } else {
            1.0
        };
        let e2e = [
            median_of(&closed, |p| tuples / p.wall_s),
            median_of(&closed, |p| p.cpu_ns as f64 / tuples),
            median_of(&closed, |p| p.finish_s * 1e3),
            median(&mut lat),
            median(&mut gen_s) + median(&mut builds),
            mem_mb,
            loss_frac,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(e2e) {
            metrics.push(Metric { name, unit, value });
        }
    } else {
        // One pass with the counting aggregate wrapper gives the
        // aggregate.* readings; its extra allocation per group would distort
        // every other layer's timings, so those come from span-only passes.
        let counted = run.passes(
            Loop::Closed,
            Tracing::Counted,
            Duration::ZERO,
            &mut first_rows,
        )?;
        let traced = run.passes(
            Loop::Closed,
            Tracing::Spans,
            budget.mul_f64(0.4),
            &mut first_rows,
        )?;
        let plain = run.passes(
            Loop::Closed,
            Tracing::Off,
            budget.mul_f64(0.3),
            &mut first_rows,
        )?;
        let open = run.passes(
            Loop::Open,
            Tracing::Off,
            budget.mul_f64(0.3),
            &mut first_rows,
        )?;
        run.reference_check(first_rows.as_deref().unwrap_or_default());
        let tuples = run.trace.len() as f64;
        // The traced side leaves out its probe spans: they are the ledger's
        // own gauge sampling, not the cost of recording spans.
        let tput = |ps: &[Pass]| median_of(ps, |p| tuples / (p.wall_s - p.probe_s));
        let mut lat: Vec<f64> = open.iter().flat_map(|p| p.lat_us.iter().copied()).collect();
        let mut late: Vec<f64> = open
            .iter()
            .flat_map(|p| p.late_us.iter().copied())
            .collect();
        let mut layers: Vec<(&'static str, f64)> = vec![
            ("gen.trace_s", gen_s[0]),
            ("driver.lat_p99_us", percentile(&mut lat, 0.99)),
            ("driver.lat_samples", lat.len() as f64),
            ("driver.sched_late_p99_us", percentile(&mut late, 0.99)),
            (
                "driver.backlog_end_ms",
                median_of(&open, |p| p.backlog_end_s * 1e3),
            ),
            (
                "trace.overhead_pct",
                (1.0 - tput(&traced) / tput(&plain)) * 100.0,
            ),
        ];
        for (name, _) in PER_LAYER {
            if layers.iter().any(|(n, _)| *n == name) {
                continue;
            }
            let from = if name.starts_with("aggregate.") {
                &counted
            } else {
                &traced
            };
            let mut v: Vec<f64> = from
                .iter()
                .filter_map(|p| p.layers.iter().find(|(n, _)| *n == name).map(|x| x.1))
                .collect();
            layers.push((name, median(&mut v)));
        }
        for (name, unit) in PER_LAYER {
            let value = layers.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
            metrics.push(Metric { name, unit, value });
        }
        run.write_spans(&host)?;
    }
    Ok(Outcome {
        correct: run.problems.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        problems: run.problems,
        host,
    })
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Median over passes of `f`.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&mut passes.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile of `v` (0 when empty).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

impl Run<'_> {
    fn host_record(&self) -> String {
        let w = self.cfg.workload;
        let tc = w.trace_config(self.cfg.seed, self.cfg.shape);
        let root = std::env::current_dir().unwrap_or_default();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"host_cores\": {}, \
             \"shards\": {}, \"chunk\": {CHUNK}, \"open_loop_rate_tps\": {}, \"seconds\": {}, \
             \"trace\": {{\"tuples\": {}, \"start_s\": {}, \"duration_s\": {}, \"rate_pps\": {}, \
             \"n_hosts\": {}, \"ports_per_host\": {}, \"zipf_skew\": {}, \"tcp_fraction\": {}, \
             \"ooo_jitter_s\": {}}}}}",
            w.name(),
            self.cfg.seed,
            sys::commit(&root),
            sys::host_cores(),
            w.shards().max(1),
            w.rate_tps(),
            self.cfg.seconds,
            self.trace.len(),
            self.cfg.shape.start_secs,
            tc.duration_secs,
            tc.rate_pps,
            tc.n_hosts,
            tc.ports_per_host,
            tc.zipf_skew,
            tc.tcp_fraction,
            tc.ooo_jitter_secs,
        )
    }

    /// Runs passes until `budget` has passed (at least one), checking each
    /// pass's rows against the first pass of the run.
    fn passes(
        &mut self,
        mode: Loop,
        tracing: Tracing,
        budget: Duration,
        first_rows: &mut Option<Vec<Row>>,
    ) -> Result<Vec<Pass>, String> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || start.elapsed() < budget {
            let mut p = self.pass(mode, tracing)?;
            match first_rows {
                None => *first_rows = Some(std::mem::take(&mut p.rows)),
                Some(first) => {
                    if let Err(e) = check::compare_rows(&p.rows, first, 0.0) {
                        self.problems
                            .push(format!("pass differs from the first: {e}"));
                    }
                    p.rows = Vec::new();
                }
            }
            out.push(p);
        }
        Ok(out)
    }

    /// A new store directory inside the work directory. `create_dir`
    /// fails on an existing directory, so a leftover store is refused
    /// rather than recovered.
    fn fresh_store(&mut self) -> Result<PathBuf, String> {
        let parent = &self.cfg.work_dir;
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        self.stores += 1;
        let dir = parent.join(format!("store-{}-{}", std::process::id(), self.stores));
        std::fs::create_dir(&dir).map_err(|e| {
            format!(
                "{}: {e}; refusing to run on a used store directory",
                dir.display()
            )
        })?;
        Ok(dir)
    }

    fn pass(&mut self, mode: Loop, tracing: Tracing) -> Result<Pass, String> {
        let w = self.cfg.workload;
        let traced = tracing != Tracing::Off;
        let store = if w.durable() {
            Some(self.fresh_store()?)
        } else {
            None
        };
        let (factory, counters): (Arc<dyn AggregatorFactory>, Option<&'static Counters>) =
            if tracing == Tracing::Counted {
                let (f, c) = CountingFactory::wrap(w.factory());
                (f, Some(c))
            } else {
                (w.factory(), None)
            };
        let tr = &mut self.tracer;
        let root = if traced {
            tr.begin("pass", ROOT, NO_CHUNK)
        } else {
            ROOT
        };
        let maybe_span = |tr: &mut Tracer, name| traced.then(|| tr.begin(name, root, NO_CHUNK));
        let end_span = |tr: &mut Tracer, s: Option<u32>| {
            if let Some(s) = s {
                tr.end(s);
            }
        };
        let t_build = Instant::now();
        let s = maybe_span(tr, "build");
        let sut = Sut::new(w, factory);
        end_span(tr, s);
        let mut sut = sut?;
        if let Some(dir) = &store {
            let s = maybe_span(tr, "open");
            let opened = sut.open_store(dir);
            end_span(tr, s);
            sut = opened?;
        }
        let build_s = t_build.elapsed().as_secs_f64();

        let mut lat_us = Vec::new();
        let mut late_us = Vec::new();
        let mut caller_ingest_cpu = 0u64;
        let mut probes = Probes::default();
        let rate = w.rate_tps();
        let cpu0 = sys::process_cpu_ns();
        let caller0 = sys::thread_cpu_ns();
        let t0 = Instant::now();
        let due0 = t0 + Duration::from_millis(1);
        for (i, chunk) in self.trace.chunks(CHUNK).enumerate() {
            let pos = (i * CHUNK) as u64;
            let due = due0 + Duration::from_secs_f64(pos as f64 / rate);
            if mode == Loop::Open {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
            self.attempted += 1;
            let end = pos + chunk.len() as u64;
            if traced {
                let c0 = sys::thread_cpu_ns();
                let s = tr.begin("ingest", root, i as u32);
                let r = sut.ingest(chunk);
                tr.end(s);
                caller_ingest_cpu += sys::thread_cpu_ns() - c0;
                if r.is_err() {
                    self.failed += 1;
                }
                if w.durable() {
                    let s = tr.begin("commit", root, i as u32);
                    let r = sut.commit(end);
                    tr.end(s);
                    if r.is_err() {
                        self.failed += 1;
                    }
                }
                let s = tr.begin("probe", root, i as u32);
                probes.take(&sut, i);
                tr.end(s);
            } else {
                if sut.ingest(chunk).is_err() {
                    self.failed += 1;
                }
                if w.durable() && sut.commit(end).is_err() {
                    self.failed += 1;
                }
            }
            if mode == Loop::Open {
                lat_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
        }
        let backlog_end_s = late_us.last().map_or(0.0, |us| us / 1e6);
        let tf = Instant::now();
        let s = maybe_span(tr, "finish");
        let rows = sut.finish();
        end_span(tr, s);
        let finish_s = tf.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ns = sys::process_cpu_ns() - cpu0;
        let caller_ns = sys::thread_cpu_ns() - caller0;
        let mut probe_s = 0.0;
        if traced {
            tr.end(root);
            probe_s = tr.total_ns(root, "probe") as f64 / 1e9;
        }

        let tuples = self.trace.len() as u64;
        let acct = Accounting::read(&sut);
        if let Err(e) = acct.conserved(tuples, self.non_tcp) {
            self.problems.push(e);
        }
        if let Some(counters) = counters {
            let updates = counters.updates.load(std::sync::atomic::Ordering::Relaxed);
            let applied = acct
                .admitted()
                .saturating_sub(acct.shed() + acct.dropped_degraded());
            if updates != applied {
                self.problems.push(format!(
                    "tuple conservation: {updates} aggregate updates for {applied} applied tuples"
                ));
            }
        }
        let mut layers = Vec::new();
        if traced {
            layers = self.layers(
                root,
                &sut,
                &acct,
                counters,
                &probes,
                caller_ingest_cpu,
                cpu_ns.saturating_sub(caller_ns),
            );
        }
        drop(sut);
        if let Some(dir) = store {
            if traced {
                layers.push(("durability.store_bytes", sys::dir_bytes(&dir) as f64));
            }
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(Pass {
            rows,
            build_s,
            wall_s,
            cpu_ns,
            finish_s,
            lat_us,
            late_us,
            backlog_end_s,
            lost: acct.lost(),
            probe_s,
            layers,
        })
    }

    /// Per-layer readings of a traced pass.
    #[allow(clippy::too_many_arguments)]
    fn layers(
        &self,
        root: u32,
        sut: &Sut,
        acct: &Accounting,
        counters: Option<&Counters>,
        probes: &Probes,
        caller_ingest_cpu: u64,
        worker_cpu: u64,
    ) -> Vec<(&'static str, f64)> {
        use std::sync::atomic::Ordering::Relaxed;
        let tr = &self.tracer;
        let tuples = self.trace.len() as f64;
        let per_tuple = |ns: u64| ns as f64 / tuples;
        let ms = |name| tr.total_ns(root, name) as f64 / 1e6;
        let admitted = acct.admitted().max(1) as f64;
        let ingest_ns = tr.total_ns(root, "ingest");
        let pass = tr.get(root);
        let mut l = vec![
            ("engine.rows_out", acct.stats.rows_out as f64),
            ("engine.buckets_closed", acct.stats.buckets_closed as f64),
            ("lfta.evictions", acct.stats.lfta_evictions as f64),
            (
                "lfta.evict_ratio",
                acct.stats.lfta_evictions as f64 / admitted,
            ),
            ("lfta.occupancy", acct.lfta_occupancy(probes)),
            (
                "trace.unaccounted_pct",
                tr.self_ns(root) as f64 * 100.0 / pass.ns().max(1) as f64,
            ),
        ];
        if let Some(c) = counters {
            l.extend([
                (
                    "aggregate.makes_per_ktuple",
                    c.makes.load(Relaxed) as f64 * 1e3 / admitted,
                ),
                (
                    "aggregate.merges_per_ktuple",
                    c.merges.load(Relaxed) as f64 * 1e3 / admitted,
                ),
                ("aggregate.updates", c.updates.load(Relaxed) as f64),
                ("aggregate.emits", c.emits.load(Relaxed) as f64),
                ("aggregate.update_ns_sampled", c.update_ns_sampled()),
            ]);
        }
        match (sut, &acct.snap) {
            (Sut::Single(_), _) | (_, None) => l.extend([
                ("engine.process_ns_per_tuple", per_tuple(ingest_ns)),
                ("engine.finish_ms", ms("finish")),
                ("engine.build_ms", ms("build")),
                ("engine.state_bytes_peak", probes.state_bytes_peak as f64),
            ]),
            (Sut::Sharded { engine, durable }, Some(snap)) => {
                let processed: Vec<f64> = snap
                    .shards
                    .iter()
                    .map(|s| s.tuples_processed as f64)
                    .collect();
                let mean = processed.iter().sum::<f64>() / processed.len().max(1) as f64;
                let max = processed.iter().copied().fold(0.0, f64::max);
                let msgs: u64 = snap
                    .shards
                    .iter()
                    .map(|s| s.batches_sent + s.punctuations_sent)
                    .sum();
                let pool = engine.batch_pool();
                let (reuses, allocs) = (pool.reuses() as f64, pool.allocs() as f64);
                l.extend([
                    ("shard.build_ms", ms("build")),
                    ("shard.ingest_ns_per_tuple", per_tuple(ingest_ns)),
                    (
                        "shard.ingest_cpu_ns_per_tuple",
                        per_tuple(caller_ingest_cpu),
                    ),
                    (
                        "shard.ingest_wait_ns_per_tuple",
                        per_tuple(ingest_ns.saturating_sub(caller_ingest_cpu)),
                    ),
                    ("shard.worker_cpu_ns_per_tuple", per_tuple(worker_cpu)),
                    ("shard.finish_ms", ms("finish")),
                    ("shard.skew", if mean > 0.0 { max / mean } else { 0.0 }),
                    ("shard.queue_depth_mean", probes.queue_depth.mean()),
                    ("shard.msgs_per_ktuple", msgs as f64 * 1e3 / tuples),
                    ("spsc.pool_reuse_ratio", reuses / (reuses + allocs).max(1.0)),
                    ("spsc.pool_allocs", allocs),
                    ("supervisor.checkpoints", snap.checkpoints as f64),
                    (
                        "supervisor.checkpoint_ms_mean",
                        snap.checkpoint_ns as f64 / 1e6 / snap.checkpoints.max(1) as f64,
                    ),
                    (
                        "supervisor.checkpoint_cpu_share",
                        snap.checkpoint_ns as f64 / worker_cpu.max(1) as f64,
                    ),
                    ("supervisor.restarts", snap.restarts as f64),
                    ("supervisor.replayed_batches", snap.replayed_batches as f64),
                    ("overload.shed_tuples", snap.shed_tuples as f64),
                    ("overload.wedged_respawns", snap.wedged_respawns as f64),
                ]);
                if *durable {
                    let mut commits: Vec<f64> = tr
                        .durations_ns(root, "commit")
                        .into_iter()
                        .map(|ns| ns as f64 / 1e3)
                        .collect();
                    l.extend([
                        ("durability.open_ms", ms("open")),
                        (
                            "durability.commit_ns_per_tuple",
                            per_tuple(tr.total_ns(root, "commit")),
                        ),
                        ("durability.commit_p99_us", percentile(&mut commits, 0.99)),
                        (
                            "durability.wal_bytes_per_tuple",
                            snap.wal_bytes_written as f64 / tuples,
                        ),
                        (
                            "durability.checkpoints_persisted",
                            snap.checkpoints_persisted as f64,
                        ),
                        ("durability.degraded", snap.durability_degraded as f64),
                    ]);
                }
            }
        }
        l
    }

    /// Checks the first pass's rows against a reference computed off the
    /// clock.
    fn reference_check(&mut self, rows: &[Row]) {
        let w = self.cfg.workload;
        let bm = BUCKET_SECS * MICROS_PER_SEC;
        let result = match w {
            Workload::Fig2Single => check::oracle_check(&self.trace, rows, bm, ORACLE_SAMPLES),
            Workload::Fig2Sharded | Workload::HhDurable => {
                let want = Engine::new(w.query(w.factory())).run(self.trace.iter().copied());
                let tol = if w == Workload::HhDurable {
                    0.0
                } else {
                    SHARDED_REL_TOL
                };
                check::compare_rows(rows, &want, tol)
            }
        };
        if let Err(e) = result {
            self.problems.push(format!("reference check: {e}"));
        }
    }

    fn write_spans(&self, host: &str) -> Result<(), String> {
        let dir = &self.cfg.work_dir;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            self.cfg.workload.name(),
            self.cfg.seed
        ));
        let body = format!("# {host}\n{}", self.tracer.to_tsv());
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Gauges sampled at chunk boundaries of a traced pass.
#[derive(Default)]
struct Probes {
    occupancy: Mean,
    queue_depth: Mean,
    state_bytes_peak: usize,
}

impl Probes {
    fn take(&mut self, sut: &Sut, chunk: usize) {
        match sut {
            Sut::Single(e) => {
                self.occupancy.add(e.lfta_occupancy().unwrap_or(0) as f64);
                if chunk.is_multiple_of(STATE_PROBE_EVERY) {
                    self.state_bytes_peak = self.state_bytes_peak.max(e.space_bytes());
                }
            }
            Sut::Sharded { engine, .. } => {
                use std::sync::atomic::Ordering::Relaxed;
                let shards = engine.telemetry().shards();
                let sum = |f: fn(&fd_engine::telemetry::ShardTelemetry) -> u64| {
                    shards.iter().map(f).sum::<u64>() as f64
                };
                self.queue_depth.add(sum(|s| s.queue_depth.load(Relaxed)));
            }
        }
    }
}

#[derive(Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Where every offered tuple went, read from the engine after `finish()`.
struct Accounting {
    stats: EngineStats,
    /// Sharded engines only.
    snap: Option<MetricsSnapshot>,
}

impl Accounting {
    fn read(sut: &Sut) -> Self {
        match sut {
            Sut::Single(e) => Self {
                stats: e.stats(),
                snap: None,
            },
            Sut::Sharded { engine, .. } => Self {
                stats: engine.stats(),
                snap: Some(engine.telemetry().snapshot()),
            },
        }
    }

    /// Single engine: mean of the probes at chunk boundaries. Sharded: the
    /// workers' published gauges, which they refresh only on a punctuation;
    /// the last one is the watermark broadcast inside `finish()`.
    fn lfta_occupancy(&self, probes: &Probes) -> f64 {
        match &self.snap {
            None => probes.occupancy.mean(),
            Some(s) => s.shards.iter().map(|x| x.lfta_occupancy).sum::<u64>() as f64,
        }
    }

    fn shed(&self) -> u64 {
        self.snap.as_ref().map_or(0, |s| s.shed_tuples)
    }

    fn dropped_degraded(&self) -> u64 {
        self.snap.as_ref().map_or(0, |s| s.dropped_degraded)
    }

    /// Tuples that passed admission (filter and late check).
    fn admitted(&self) -> u64 {
        self.stats
            .tuples_in
            .saturating_sub(self.stats.filtered + self.stats.late_drops)
    }

    fn lost(&self) -> u64 {
        self.stats.late_drops + self.shed() + self.dropped_degraded()
    }

    /// `tuples_in = filtered + late_drops + shed + dropped_degraded +
    /// applied`, with `tuples_in` the tuples offered and `filtered` the UDP
    /// tuples counted off the clock. The single engine exposes no applied
    /// count, so there the check covers admission only.
    fn conserved(&self, offered: u64, non_tcp: u64) -> Result<(), String> {
        let s = &self.stats;
        if s.tuples_in != offered {
            return Err(format!("tuples_in {} != {offered} offered", s.tuples_in));
        }
        if s.filtered != non_tcp {
            return Err(format!(
                "filtered {} != {non_tcp} non-TCP tuples",
                s.filtered
            ));
        }
        if let Some(snap) = &self.snap {
            let processed: u64 = snap.shards.iter().map(|x| x.tuples_processed).sum();
            let applied = processed.saturating_sub(snap.replayed_tuples);
            let accounted =
                s.filtered + s.late_drops + self.shed() + self.dropped_degraded() + applied;
            if accounted != s.tuples_in {
                return Err(format!(
                    "tuple conservation: tuples_in {} != filtered {} + late {} + shed {} + \
                     dropped_degraded {} + applied {applied}",
                    s.tuples_in,
                    s.filtered,
                    s.late_drops,
                    self.shed(),
                    self.dropped_degraded()
                ));
            }
        }
        Ok(())
    }
}

/// The default work directory, relative to the checkout root.
pub const WORK_DIR: &str = ".perfbench";
