//! In-memory span recorder for the traced pass.
//!
//! A span has a name, a start and an end (ns since the recorder was made),
//! its parent span and a group id: the spans of one input chunk share the
//! chunk's id. Spans are kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;
/// Group id of a span that belongs to no chunk.
pub const NO_CHUNK: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub chunk: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32, chunk: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            chunk,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    pub fn get(&self, id: u32) -> Span {
        self.spans[id as usize]
    }

    /// Total duration of the spans named `name` directly under `parent`.
    pub fn total_ns(&self, parent: u32, name: &str) -> u64 {
        self.children(parent)
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Durations of the spans named `name` directly under `parent`.
    pub fn durations_ns(&self, parent: u32, name: &str) -> Vec<u64> {
        self.children(parent)
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part its children
    /// cover. Children of one parent never overlap (one caller thread).
    pub fn self_ns(&self, id: u32) -> u64 {
        let covered: u64 = self.children(id).map(Span::ns).sum();
        self.get(id).ns().saturating_sub(covered)
    }

    fn children(&self, parent: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == parent)
    }

    /// Tab-separated dump: id, name, start, end, parent, chunk.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tchunk\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let chunk = if s.chunk == NO_CHUNK {
                "-".to_string()
            } else {
                s.chunk.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{chunk}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
