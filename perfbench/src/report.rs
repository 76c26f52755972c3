//! Metric collection and the benchmark's output.
//!
//! Every metric is printed on its own line, by name and with its unit,
//! ratios with their base and percentiles with their sample count. The
//! last line of standard output is one JSON object holding `correct`,
//! `attempted`, `failed` and the declared metrics of the run's mode.

use std::fmt::Write as _;

use crate::stats::{Percentile, Ratio};

/// End-to-end metrics every workload reports and whose run-to-run spread
/// stays within its bound: the bounded set in `BENCHMARK.json`. The other
/// end-to-end metrics (`ops_per_s`, `mib_per_s`, `latency_p99_us`,
/// `recovery_p50_ms`, `failed_ratio`) are printed where they apply.
pub const END_TO_END: &[&str] = &["setup_s", "latency_p50_us", "cpu_us_per_op", "peak_rss_mib"];

/// Per-layer metrics of a traced run, as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[&str] = &[
    "ipcs.rtt_us",
    "nd.rtt_us",
    "lcm.rtt_us",
    "ali.rtt_us",
    "gateway.rtt_0hop_us",
    "gateway.rtt_1hop_us",
    "gateway.rtt_2hop_us",
    "nd.self_us",
    "lcm.self_us",
    "ali.self_us",
    "gateway.hop_us",
    "wire.encode_us",
    "wire.decode_us",
    "wire.header_bytes_per_msg",
    "naming.resolve_us",
    "naming.resolve_cold_us",
    "naming.cache_hit_ratio",
    "naming.resolves",
    "naming.ns_lookups",
    "naming.invalidations",
    "lcm.circuits_opened",
    "lcm.address_faults",
    "lcm.reconnects",
    "lcm.retransmissions",
    "lcm.duplicates_suppressed",
    "lcm.dropped_messages",
    "lcm.breaker_trips",
    "lcm.dead_letters",
    "nd.frames_per_flush",
    "nd.flushes",
    "nd.rx_sheds",
    "flow.stalls",
    "flow.sheds",
    "gateway.frames_relayed",
    "gateway.circuits_spliced",
    "gateway.teardowns",
    "ipcs.substrate_selects",
    "ipcs.substrate_fallbacks",
    "ipcs.substrate_handoffs",
    "ali.relocate_ms",
    "ali.relocations",
    "trace.untraced_p50_us",
    "trace.traced_p50_us",
    "trace.overhead_pct",
    "trace.spans",
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us` or `count`.
    pub unit: &'static str,
    /// Context printed beside the value (base, sample count).
    pub note: String,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    absent: Vec<(String, String)>,
}

impl Report {
    /// Records a plain value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    /// Records a value with a note printed beside it.
    pub fn put_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        debug_assert!(value.is_finite(), "{name} = {value}");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// Records a ratio with its base.
    pub fn put_ratio(&mut self, name: &str, r: Ratio, unit: &'static str, base_name: &str) {
        self.put_noted(
            name,
            r.value,
            unit,
            format!("{} / {} {base_name}", r.numerator, r.base),
        );
    }

    /// Records a percentile with its sample count, or its absence.
    pub fn put_percentile(&mut self, name: &str, p: Option<Percentile>, unit: &'static str) {
        match p {
            Some(p) => self.put_noted(
                name,
                p.value,
                unit,
                format!("n={} beyond={}", p.samples, p.beyond),
            ),
            None => self.put_absent(name, "too few samples beyond the percentile"),
        }
    }

    /// Records a value that may be missing.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, why: &str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => self.put_absent(name, why),
        }
    }

    /// Records that a metric could not be measured.
    pub fn put_absent(&mut self, name: &str, why: &str) {
        self.absent.push((name.to_owned(), why.to_owned()));
    }

    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines: one per metric, then the absent ones.
    #[must_use]
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "metric {} = {} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        for (name, why) in &self.absent {
            let _ = writeln!(out, "metric {name} absent ({why})");
        }
        out
    }

    /// The final JSON line, holding the metrics named in `declared`.
    #[must_use]
    pub fn render_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        declared: &[&str],
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in declared {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }

    /// Declared names this report lacks.
    #[must_use]
    pub fn missing<'a>(&self, declared: &[&'a str]) -> Vec<&'a str> {
        declared
            .iter()
            .copied()
            .filter(|n| self.get(n).is_none())
            .collect()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ratio, Samples};

    #[test]
    fn ratios_print_with_their_base() {
        let mut r = Report::default();
        r.put_ratio(
            "naming.cache_hit_ratio",
            ratio(9.0, 10.0),
            "ratio",
            "resolves",
        );
        let lines = r.render_lines();
        assert!(
            lines.contains("naming.cache_hit_ratio = 0.9 ratio  (9 / 10 resolves)"),
            "{lines}"
        );
    }

    #[test]
    fn percentiles_print_their_sample_count_or_absence() {
        let mut r = Report::default();
        let s = Samples::new((0..1000).map(f64::from).collect());
        r.put_percentile("latency_p99_us", s.percentile(990), "us");
        r.put_percentile("latency_p999_us", s.percentile(999), "us");
        let lines = r.render_lines();
        assert!(
            lines.contains("latency_p99_us = 989 us  (n=1000 beyond=10)"),
            "{lines}"
        );
        assert!(lines.contains("latency_p999_us absent"), "{lines}");
        assert_eq!(
            r.missing(&["latency_p99_us", "latency_p999_us"]),
            ["latency_p999_us"]
        );
    }

    #[test]
    fn json_holds_only_declared_metrics() {
        let mut r = Report::default();
        r.put("setup_s", 0.5, "s");
        r.put("ops_per_s", 100.0, "1/s");
        let json = r.render_json(true, 10, 0, &["setup_s"]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(3.0), "3.0");
    }
}
