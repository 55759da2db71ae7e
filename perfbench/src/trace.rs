//! In-memory spans recorded around every call the benchmark makes into a
//! layer's public functions, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Stream index of the transaction the span belongs to.
    pub txn: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans. Disabled recorders keep nothing and cost one branch
/// per call, so the untraced and traced runs share the loop code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an already-timed interval; returns its index for children.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, txn: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is filled in by [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, txn: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.now();
        self.push(name, now, now, parent, txn)
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let now = self.now();
            self.spans[id as usize].end = now;
        }
    }

    /// Time `f` as a child of `parent`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        txn: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, txn);
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as tab-separated lines: recorder, id, parent, txn, name,
/// start ns, end ns, self ns.
pub fn write_tsv(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "rec\tid\tparent\ttxn\tname\tstart_ns\tend_ns\tself_ns")?;
    for (r, rec) in recorders.iter().enumerate() {
        for (i, (s, own)) in rec.spans.iter().zip(self_times(&rec.spans)).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{r}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.txn, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}
