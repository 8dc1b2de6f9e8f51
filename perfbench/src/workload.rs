//! The three workloads and the system under test they build.
//!
//! Every workload runs the paper's query shape (TCP only, 60 s buckets) over
//! the default fd-gen trace, fed in [`CHUNK`]-tuple chunks. Why each one is
//! here is recorded in `NOTES.md`.

use std::io;
use std::path::Path;
use std::sync::Arc;

use fd_core::decay::Monomial;
use fd_engine::io::IoFile;
use fd_engine::prelude::*;
use fd_gen::TraceConfig;

/// Tuples per ingest call: the size of fdql's `COMMIT_CHUNK`.
pub const CHUNK: usize = 4096;
/// Shards of the sharded workloads, on every host.
pub const SHARDS: usize = 2;
/// Time-bucket width of every query, seconds.
pub const BUCKET_SECS: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig2Single,
    /// Runs on demand only: `BENCHMARK.json` leaves it out because its
    /// wall-clock figures did not repeat from run to run (`NOTES.md`).
    Fig2Sharded,
    HhDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig2Single,
        Workload::Fig2Sharded,
        Workload::HhDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Single => "fig2_single",
            Workload::Fig2Sharded => "fig2_sharded",
            Workload::HhDurable => "hh_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered rate of the open-loop pass, tuples per second.
    ///
    /// The sharded workloads run at 3 M/s, not 2 M/s: at 2 M/s some runs
    /// stalled a third or more of their chunks by some 250 µs and others
    /// none, so the median chunk latency was bistable (`NOTES.md`).
    pub fn rate_tps(self) -> f64 {
        match self {
            Workload::Fig2Single => 4e6,
            Workload::Fig2Sharded | Workload::HhDurable => 3e6,
        }
    }

    /// Worker shards; `0` runs the single-threaded [`Engine`].
    pub fn shards(self) -> usize {
        match self {
            Workload::Fig2Single => 0,
            Workload::Fig2Sharded | Workload::HhDurable => SHARDS,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::HhDurable
    }

    /// Timestamp jitter half-width of the trace, seconds.
    pub fn jitter_secs(self) -> f64 {
        if self == Workload::HhDurable {
            0.4
        } else {
            0.0
        }
    }

    /// Out-of-order slack of the query, seconds.
    pub fn slack_secs(self) -> f64 {
        if self == Workload::HhDurable {
            1.0
        } else {
            0.0
        }
    }

    /// The default fd-gen trace (20k hosts, 4 ports per host, Zipf 1.1,
    /// 85 % TCP, 100k pkt/s) over `shape`.
    pub fn trace_config(self, seed: u64, shape: TraceShape) -> TraceConfig {
        TraceConfig {
            seed,
            duration_secs: shape.secs,
            start_micros: (shape.start_secs * MICROS_PER_SEC as f64) as Micros,
            ooo_jitter_secs: self.jitter_secs(),
            ..TraceConfig::default()
        }
    }

    /// The query's aggregate: `fwd_count` or `fwd_hh` with g = n².
    pub fn factory(self) -> Arc<dyn AggregatorFactory> {
        match self {
            Workload::Fig2Single | Workload::Fig2Sharded => {
                fwd_count_factory(Monomial::quadratic())
            }
            Workload::HhDurable => {
                fwd_hh_factory(Monomial::quadratic(), 0.001, 0.01, |p| p.dst_host())
            }
        }
    }

    pub fn query(self, aggregate: Arc<dyn AggregatorFactory>) -> Query {
        let b = Query::builder(self.name())
            .filter(|p| p.proto == Proto::Tcp)
            .bucket_secs(BUCKET_SECS)
            .slack_secs(self.slack_secs())
            .aggregate(aggregate);
        match self {
            Workload::Fig2Single | Workload::Fig2Sharded => b.group_by(|p| p.dst_key()),
            Workload::HhDurable => b.group_by(|p| u64::from(p.dst_port)),
        }
        .build()
    }
}

/// Which stretch of stream time the trace covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceShape {
    pub start_secs: f64,
    pub secs: f64,
}

impl TraceShape {
    /// The benchmark's trace: 30 s of stream time that straddles the first
    /// bucket boundary (t = 60 s), so one bucket closes mid-run and the
    /// second closes at `finish()`.
    pub const DEFAULT: TraceShape = TraceShape {
        start_secs: 40.0,
        secs: 30.0,
    };
}

/// The engine a pass drives, behind the calls the load generator makes.
// One per pass, built once and never moved on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Sut {
    Single(Engine),
    Sharded {
        engine: ShardedEngine,
        durable: bool,
    },
}

impl Sut {
    /// `Engine::new`, or `ShardedEngine::try_new` with the default
    /// routing (`ShardBy::Key`), batch size and in-memory supervision.
    pub fn new(w: Workload, aggregate: Arc<dyn AggregatorFactory>) -> Result<Sut, String> {
        let query = w.query(aggregate);
        if w.shards() == 0 {
            return Ok(Sut::Single(Engine::new(query)));
        }
        let engine = ShardedEngine::try_new(query, w.shards()).map_err(|e| e.to_string())?;
        Ok(Sut::Sharded {
            engine,
            durable: false,
        })
    }

    /// `try_durable` on `dir`, which must be a fresh, empty directory, with
    /// the default options (`FsyncPolicy::OnCheckpoint`) written through
    /// [`PageCacheFs`].
    pub fn open_store(self, dir: &Path) -> Result<Sut, String> {
        let Sut::Sharded { engine, .. } = self else {
            return Err("only the sharded engine has a store".into());
        };
        let opts = DurabilityOptions {
            io: Arc::new(PageCacheFs),
            ..DurabilityOptions::default()
        };
        let (engine, report) = engine.try_durable(dir, opts).map_err(|e| e.to_string())?;
        if report.resumed {
            return Err(format!("store {} was not fresh", dir.display()));
        }
        Ok(Sut::Sharded {
            engine,
            durable: true,
        })
    }

    pub fn ingest(&mut self, chunk: &[Packet]) -> Result<(), fd_core::Error> {
        match self {
            Sut::Single(e) => {
                for p in chunk {
                    e.process(p);
                }
                Ok(())
            }
            Sut::Sharded { engine, .. } => engine.try_process_packets(chunk),
        }
    }

    /// Declares the first `position` tuples durable (durable workloads).
    pub fn commit(&mut self, position: u64) -> Result<(), fd_core::Error> {
        match self {
            Sut::Sharded {
                engine,
                durable: true,
            } => engine.durable_commit(position),
            _ => Ok(()),
        }
    }

    pub fn finish(&mut self) -> Vec<Row> {
        match self {
            Sut::Single(e) => e.finish(),
            Sut::Sharded { engine, .. } => engine.finish(),
        }
    }
}

/// The real filesystem ([`StdFs`]) with `fsync` left out: every WAL segment,
/// checkpoint and manifest is written, renamed and read back as usual, but
/// stays in the page cache.
///
/// On the virtual disk this benchmark was tuned on, fsync latency drifted
/// from run to run, and `finish_ms` (which ends in the final manifest's
/// fsyncs) varied by a third. The benchmark prices the durable path's own
/// work, not the disk.
#[derive(Debug)]
struct PageCacheFs;

struct PageCacheFile(Box<dyn IoFile>);

impl IoFile for PageCacheFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.append(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl IoBackend for PageCacheFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(PageCacheFile(StdFs.open_append(path)?)))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoFile>> {
        Ok(Box::new(PageCacheFile(StdFs.create(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdFs.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdFs.remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdFs.list(dir)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdFs.truncate(path, len)
    }
    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}
