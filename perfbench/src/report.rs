//! Results: metric values, the outcome line, provenance, and the files
//! written under `perfbench/out/`.

use crate::manifest::{self, Def, END_TO_END, PER_LAYER};
use crate::span::{self, Span};
use crate::stats::{self, Quantile};
use crate::timed::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values of one run, plus the workload-specific ledger values and
/// spans.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific names (`native.loop_us.p99`, ...) with units.
    ledger: Vec<(String, f64, &'static str)>,
    spans: Vec<Span>,
}

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(manifest::find(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }

    /// Records the peak RSS so far as `rss_mb`. A workload calls this when
    /// its measurement ends, before statistics whose buffers scale with the
    /// number of passes; otherwise [`e2e`](Self::e2e) reads it.
    pub fn capture_rss(&mut self) {
        self.set("rss_mb", peak_rss_mb());
    }

    /// The end-to-end metrics, all at once. Percentiles also go to the
    /// ledger with the percentile used and the sample count behind it.
    #[allow(clippy::too_many_arguments)] // one slot per end-to-end metric
    pub fn e2e(
        &mut self,
        setup_s: f64,
        wall_s: f64,
        ops_per_s: f64,
        p50: Quantile,
        tail: Quantile,
        norm_turnaround: f64,
        capacity_per_s: f64,
    ) {
        self.set("setup_s", setup_s);
        self.set("wall_s", wall_s);
        self.set("ops_per_s", ops_per_s);
        self.set("p50_us", p50.value);
        self.set("tail_us", tail.value);
        self.set("norm_turnaround", norm_turnaround);
        self.set("capacity_per_s", capacity_per_s);
        if !self.values.contains_key("rss_mb") {
            self.capture_rss();
        }
        self.named("tail.percentile", tail.pct, "pct");
        self.named("tail.samples", tail.n as f64, "count");
        self.named("p50.samples", p50.n as f64, "count");
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.set(name, value);
    }

    /// A ledger value under its workload-specific name.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.ledger.push((name.to_string(), value, unit));
    }

    /// The scheduler layer, from a traced probe (ILAN invocations only).
    pub fn core(&mut self, probe: &Probe) {
        let all = |v: &[Vec<u64>; 2]| {
            let mut s: Vec<f64> = v.iter().flatten().map(|&n| n as f64).collect();
            stats::sort(&mut s);
            s
        };
        let one = |v: &[u64]| {
            let mut s: Vec<f64> = v.iter().map(|&n| n as f64).collect();
            stats::sort(&mut s);
            s
        };
        let p = |s: &[f64], pct: f64| {
            if s.is_empty() {
                0.0
            } else {
                stats::percentile(s, pct).value
            }
        };
        let decide = all(&probe.decide_ns);
        let record = all(&probe.record_ns);
        self.set("core.decide_ns.p50", p(&decide, 50.0));
        self.set("core.decide_ns.p99", p(&decide, 99.0));
        self.set("core.record_ns.p50", p(&record, 50.0));
        self.set("core.record_ns.p99", p(&record, 99.0));
        self.set(
            "core.decide_ns.searching.p50",
            p(&one(&probe.decide_ns[0]), 50.0),
        );
        self.set(
            "core.decide_ns.settled.p50",
            p(&one(&probe.decide_ns[1]), 50.0),
        );
        self.set(
            "core.record_ns.searching.p50",
            p(&one(&probe.record_ns[0]), 50.0),
        );
        self.set(
            "core.record_ns.settled.p50",
            p(&one(&probe.record_ns[1]), 50.0),
        );
        self.set("core.search_share", probe.search_share());
        self.named("core.ilan_invocations", decide.len() as f64, "count");
    }

    /// Keeps the traced run's spans and checks that their self times add
    /// up to the traced wall time (`traced_s`) within 100 µs — the clock
    /// reads that bracket each root span.
    pub fn spans(&mut self, spans: Vec<Span>, traced_s: f64) -> bool {
        let total: u64 = span::self_times(&spans).iter().sum();
        let gap_us = (total as f64 / 1e3 - traced_s * 1e6).abs();
        self.set("bench.self_time_gap_us", gap_us);
        for (name, (count, own, dur)) in span::summarize(&spans) {
            self.named(&format!("span.{name}.count"), count as f64, "count");
            self.named(&format!("span.{name}.self_s"), own as f64 * 1e-9, "s");
            self.named(&format!("span.{name}.total_s"), dur as f64 * 1e-9, "s");
        }
        self.spans = spans;
        gap_us <= 100.0
    }
}

/// The result of one run.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Metrics,
}

impl Outcome {
    /// An outcome whose correctness is `failed == 0` so far.
    pub fn new(attempted: u64, failed: u64, metrics: Metrics) -> Self {
        Outcome {
            attempted,
            failed,
            correct: failed == 0 && attempted > 0,
            metrics,
        }
    }

    /// Folds in a further correctness condition.
    pub fn check(mut self, ok: bool) -> Self {
        self.correct &= ok;
        self
    }

    /// The final stdout line. Traced runs print every per-layer metric
    /// (0 for a layer this workload does not exercise); untraced runs print
    /// every end-to-end metric. A non-finite value makes the run incorrect.
    pub fn result_line(&self, traced: bool) -> String {
        let defs: &[Def] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut body = Vec::new();
        let mut correct = self.correct;
        for d in defs {
            let v = match self.metrics.values.get(d.name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            correct &= v.is_finite();
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The ledger: workload-specific values, one `name value unit` per line.
    pub fn ledger(&self) -> String {
        let mut out = String::new();
        for (name, v, unit) in &self.metrics.ledger {
            writeln!(out, "{name} {} {unit}", json_number(*v)).expect("String write");
        }
        out
    }

    /// The full result as JSON: provenance, outcome, ledger.
    pub fn to_json(&self, provenance: &str, traced: bool) -> String {
        let line = self.result_line(traced);
        let ledger: Vec<String> = self
            .metrics
            .ledger
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"provenance\": {provenance}, \"result\": {line}, \"ledger\": {{{}}}}}\n",
            ledger.join(", ")
        )
    }

    /// The traced run's spans as CSV (empty when untraced).
    pub fn spans_csv(&self) -> Option<String> {
        (!self.metrics.spans.is_empty()).then(|| span::to_csv(&self.metrics.spans))
    }
}

/// A JSON number with every digit Rust keeps; non-finite values (a failed
/// measurement) print as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string escaping for provenance values.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_line_has_every_end_to_end_metric_and_nothing_else() {
        let mut m = Metrics::default();
        let q = Quantile {
            pct: 50.0,
            value: 2.5,
            n: 10,
        };
        m.e2e(0.5, 1.0, 3.0, q, q, 1.1, 3.0);
        let o = Outcome::new(4, 0, m);
        let line = o.result_line(false);
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", d.name)));
        }
        assert!(!line.contains("core."));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
    }

    #[test]
    fn traced_line_zero_fills_layers_not_exercised() {
        let mut m = Metrics::default();
        m.layer("sim.share", 0.25);
        let o = Outcome::new(1, 0, m);
        let line = o.result_line(true);
        assert!(line.contains("\"sim.share\": {\"value\": 0.25, \"unit\": \"ratio\"}"));
        assert!(line.contains("\"runtime.degraded\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    fn failures_and_non_finite_values_are_incorrect() {
        let o = Outcome::new(3, 1, Metrics::default());
        assert!(o.result_line(true).starts_with("{\"correct\": false"));
        let mut m = Metrics::default();
        m.layer("sim.share", f64::NAN);
        let o = Outcome::new(3, 0, m);
        assert!(o.result_line(true).contains("\"correct\": false"));
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
