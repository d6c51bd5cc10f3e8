//! Named metrics, the human-readable report and the result line.

use crate::stats::{median, tail};

/// End-to-end metrics, as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mib_per_cpu_s", "MiB/CPU-s"),
    ("sim_lo_gb_per_s", "GB/sim-s"),
    ("sim_hi_gb_per_s", "GB/sim-s"),
];

/// Per-layer metrics of the traced run, as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gf.encode_us", "us"),
    ("gf.repair_us", "us"),
    ("ec.repair_plan_us", "us"),
    ("ec.decode_plan_us", "us"),
    ("core.pool_encode_us", "us"),
    ("core.pool_repair_us", "us"),
    ("core.stripes_per_dispatch", "count"),
    ("core.coord_policy_changes", "count"),
    ("service.submit_us", "us"),
    ("service.queue_us", "us"),
    ("service.wait_us", "us"),
    ("service.scrub_p50_us", "us"),
    ("service.write_p50_us", "us"),
    ("service.read_p50_us", "us"),
    ("service.write_tail_us", "us"),
    ("service.read_tail_us", "us"),
    ("service.ops_per_s", "1/s"),
    ("service.mib_per_s", "MiB/s"),
    ("store.put_p50_us", "us"),
    ("store.get_p50_us", "us"),
    ("store.put_minus_encode_us", "us"),
    ("store.persists_per_put", "count"),
    ("store.persisted_bytes_per_user_byte", "B/B"),
    ("store.get_tail_us", "us"),
    ("store.recovery_s", "s"),
    ("store.rolled_back", "count"),
    ("store.rolled_forward", "count"),
    ("store.shards_repaired", "count"),
    ("memsim.media_read_amp.lo", "B/B"),
    ("memsim.media_read_amp.hi", "B/B"),
    ("memsim.imc_read_amp.lo", "B/B"),
    ("memsim.imc_read_amp.hi", "B/B"),
    ("memsim.useless_prefetch_ratio.lo", "ratio"),
    ("memsim.useless_prefetch_ratio.hi", "ratio"),
    ("memsim.buffer_hit_ratio.lo", "ratio"),
    ("memsim.buffer_hit_ratio.hi", "ratio"),
    ("memsim.stall_cycles_per_load.lo", "cycles"),
    ("memsim.stall_cycles_per_load.hi", "cycles"),
    ("memsim.host_ns_per_load.lo", "ns"),
    ("memsim.host_ns_per_load.hi", "ns"),
    ("pipeline.isal_gb_per_s.lo", "GB/sim-s"),
    ("pipeline.isal_gb_per_s.hi", "GB/sim-s"),
    ("core.sim_policy_changes.lo", "count"),
    ("core.sim_policy_changes.hi", "count"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
];

/// Everything a run measured and found.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
    /// Wrong outputs and broken properties.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record a metric (the last value recorded under a name wins).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Record the median of `ns` samples in µs, with its count.
    pub fn put_p50_us(&mut self, name: &str, ns: &[f64]) {
        let v = median(ns).unwrap_or(0.0) / 1e3;
        self.put(name, v, "us");
        self.note(format!("{name}: median of {} samples", ns.len()));
    }

    /// Record `mib_per_cpu_s` as the median of per-round rates: a burst of
    /// interference from the host's other tenants spoils a few rounds,
    /// not the figure.
    pub fn put_rate(&mut self, rates: &[f64]) {
        self.put("mib_per_cpu_s", median(rates).unwrap_or(0.0), "MiB/CPU-s");
        self.note(format!("mib_per_cpu_s: median of {} rounds", rates.len()));
    }

    /// Record the median of set-up samples in seconds, noting the range.
    pub fn put_setup_s(&mut self, samples: &[f64]) {
        self.put("setup_s", median(samples).unwrap_or(0.0), "s");
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(0.0, f64::max);
        self.note(format!(
            "setup_s: median of {} set-ups, range {lo:.6}..{hi:.6} s",
            samples.len()
        ));
    }

    /// Record the tail of `ns` samples in µs by the percentile rule.
    pub fn put_tail_us(&mut self, name: &str, ns: &[f64]) {
        match tail(ns) {
            Some(t) => {
                self.put(name, t.value / 1e3, "us");
                self.note(format!("{name}: p{} of {} samples", t.pct, t.n));
            }
            None => {
                self.put(name, 0.0, "us");
                self.note(format!("{name}: no samples"));
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn error(&mut self, line: String) {
        self.errors.push(line);
    }

    /// An op failed (refused, expired or errored); failures are counted,
    /// not checked.
    pub fn fail(&mut self, line: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("failed: {line}"));
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Print every metric and note, then the result line with the
    /// declared metrics of `set`. A declared metric that is missing or
    /// not finite is itself an error.
    pub fn print(&mut self, set: &[(&str, &str)]) {
        if self.attempted == 0 {
            self.errors.push("no operation was attempted".into());
        }
        for (name, unit) in set {
            match self.value(name) {
                Some(v) if v.is_finite() => {}
                _ => self
                    .errors
                    .push(format!("metric {name} ({unit}) not measured")),
            }
        }
        for line in &self.notes {
            println!("# {line}");
        }
        for e in &self.errors {
            println!("# ERROR: {e}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        let body: Vec<String> = set
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.value(name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the package was copied without the repository
        };
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section}: count differs");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: {entry} missing");
            }
        }
    }
}
