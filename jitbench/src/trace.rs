//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer of the program: name, start, end, parent and a run id shared
//! by every span of one run. Counts are recorded at the same boundaries.
//! Everything stays in memory until [`Tracer::write`] at the end of a run.
//!
//! A disabled tracer still hands out timings, so untraced and traced runs
//! time their samples with the same code; it just records nothing.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    thread: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span: finish it with [`Tracer::end`].
pub struct Open {
    t0: Instant,
    idx: Option<usize>,
}

pub struct Tracer {
    on: bool,
    run: u64,
    thread: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new(on: bool, run: u64) -> Tracer {
        Tracer {
            on,
            run,
            thread: "main",
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A recorder for another thread of the same run (same id and epoch);
    /// hand it back with [`Tracer::join`].
    pub fn fork(&self, thread: &'static str) -> Tracer {
        Tracer {
            thread,
            epoch: self.epoch,
            ..Tracer::new(self.on, self.run)
        }
    }

    /// Merges a forked recorder's spans and counts into this one.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let t0 = Instant::now();
        let idx = self.on.then(|| {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                thread: self.thread,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            let idx = self.spans.len() - 1;
            self.stack.push(idx);
            idx
        });
        Open { t0, idx }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let t1 = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
            // Spans left open by an error path close with this one.
            while let Some(top) = self.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
        t1.duration_since(open.t0).as_secs_f64()
    }

    /// Times `f` as a span with no children; returns its result and
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    pub fn count(&mut self, name: &str, n: u64) {
        if self.on {
            *self.counts.entry(name.to_string()).or_default() += n;
        }
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for sp in self.spans.iter().filter(|sp| sp.name == name) {
            s.push((sp.end_ns - sp.start_ns) as f64 * 1e-6);
        }
        s
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap: they run on its thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                covered[p] += sp.end_ns - sp.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(sp, c)| (sp.end_ns - sp.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per span name: count, total milliseconds and self milliseconds.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (sp, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by.entry(sp.name).or_default();
            e.0 += 1;
            e.1 += sp.end_ns - sp.start_ns;
            e.2 += own;
        }
        by.into_iter()
            .map(|(k, (n, total, own))| (k, n, total as f64 * 1e-6, own as f64 * 1e-6))
            .collect()
    }

    /// Writes every span and count as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, (sp, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\
                 \"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                self.run, sp.name, sp.thread, sp.start_ns, sp.end_ns
            );
        }
        for (k, v) in &self.counts {
            let _ = writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"count\":\"{k}\",\"value\":{v}}}",
                self.run
            );
        }
        std::fs::write(path, out)
    }
}
