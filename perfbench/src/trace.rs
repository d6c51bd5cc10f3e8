//! Spans of the traced run: one per call, taken by the benchmark around
//! each layer's public entry point, kept in memory and written out at the
//! end.

use crate::gen::Kind;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    rung: &'static str,
    op: usize,
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a call of `rung` for round op `op` that started at `start`
    /// and took `dur_ns`; returns `dur_ns` as a sample.
    pub fn span(
        &mut self,
        rung: &'static str,
        op: usize,
        kind: Kind,
        start: Instant,
        dur_ns: u64,
    ) -> f64 {
        self.spans.push(Span {
            rung,
            op,
            kind,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
        });
        dur_ns as f64
    }

    /// Time `call`, record its span, and return its result with the
    /// duration in ns.
    pub fn time<T>(
        &mut self,
        rung: &'static str,
        op: usize,
        kind: Kind,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = call();
        let ns = t0.elapsed().as_nanos() as u64;
        (out, self.span(rung, op, kind, t0, ns))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as tab-separated values.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::from("rung\top\tkind\tstart_ns\tdur_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{:?}\t{}\t{}",
                s.rung, s.op, s.kind, s.start_ns, s.dur_ns
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
