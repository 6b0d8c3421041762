//! The benchmark's definition: workloads and metrics, and the
//! `BENCHMARK.json` rendered from them (`--manifest`).
//!
//! End-to-end metrics carry one name across all three workloads; what each
//! measures on each workload is listed in `LEDGER.md`, next to the
//! per-layer → end-to-end map and the measured priors.

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Run length, seconds.
pub const RUN_SECONDS: u32 = 30;

/// The workloads, each with why it was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "figures",
        "paper evaluation: collect + render 7 apps x {baseline, ILAN} on the simulated EPYC at paper scale; all simulator, no pool, no server",
    ),
    (
        "serve",
        "ilan-server open-loop Poisson ladder (ColoMachine, partitioner, admission, PTT warm start); naive vs partitioned flow sharing; no Engine, no pool",
    ),
    (
        "native",
        "7 real kernels x {baseline, worksharing, ILAN} on a 2-worker 1x2x1 pool; LU/LULESH dispatch-bound, Matmul/CG/FT body-bound; no simulator",
    ),
];

/// End-to-end metrics, printed by every workload with `--trace 0`.
///
/// Host-time metrics are scaled to a reference host speed
/// ([`crate::host`]) and still carry the widest bound: on the 2-core shared
/// host the benchmark was built on, their spread over ten runs reached
/// 0.14 even scaled. Simulated and ratio metrics are far steadier.
pub const END_TO_END: [Def; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("tail_us", "us", Lower, 0.25),
    e2e("norm_turnaround", "x", Lower, 0.1),
    e2e("capacity_per_s", "1/s", Higher, 0.25),
    e2e("rss_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [Def; 44] = [
    layer("core.decide_ns.p50", "ns", Lower),
    layer("core.decide_ns.p99", "ns", Lower),
    layer("core.record_ns.p50", "ns", Lower),
    layer("core.record_ns.p99", "ns", Lower),
    layer("core.decide_ns.searching.p50", "ns", Lower),
    layer("core.decide_ns.settled.p50", "ns", Lower),
    layer("core.record_ns.searching.p50", "ns", Lower),
    layer("core.record_ns.settled.p50", "ns", Lower),
    layer("core.search_share", "ratio", Lower),
    layer("sim.invoke_us.p50", "us", Lower),
    layer("sim.invoke_us.p99", "us", Lower),
    layer("sim.chunks_per_s", "1/s", Higher),
    layer("sim.share", "ratio", Lower),
    layer("server.run_s.naive-shared", "s", Lower),
    layer("server.run_s.static-equal", "s", Lower),
    layer("server.run_s.interference-aware", "s", Lower),
    layer("server.antt.naive-shared", "x", Lower),
    layer("server.antt.static-equal", "x", Lower),
    layer("server.wait_ms.p95", "ms", Lower),
    layer("server.warm_share", "ratio", Higher),
    layer("server.sched_overhead_us", "us", Lower),
    layer("runtime.dispatch_ns.p50", "ns", Lower),
    layer("runtime.dispatch_ns.p99", "ns", Lower),
    layer("runtime.park_ns.p50", "ns", Lower),
    layer("runtime.inline_share", "ratio", Higher),
    layer("runtime.overhead_share", "ratio", Lower),
    layer("runtime.steal_hit_ratio", "ratio", Higher),
    layer("runtime.remote_share", "ratio", Lower),
    layer("runtime.degraded", "count", Lower),
    layer("runtime.work_eff", "x", Lower),
    layer("runtime.work_eff.matmul", "x", Lower),
    layer("runtime.work_eff.bt", "x", Lower),
    layer("runtime.work_eff.sp", "x", Lower),
    layer("runtime.work_eff.lu", "x", Lower),
    layer("runtime.metrics_on_over_off", "x", Lower),
    layer("native.app_ms.ft", "ms", Lower),
    layer("native.app_ms.bt", "ms", Lower),
    layer("native.app_ms.cg", "ms", Lower),
    layer("native.app_ms.lu", "ms", Lower),
    layer("native.app_ms.sp", "ms", Lower),
    layer("native.app_ms.matmul", "ms", Lower),
    layer("native.app_ms.lulesh", "ms", Lower),
    layer("bench.trace_overhead", "x", Lower),
    layer("bench.self_time_gap_us", "us", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

fn metric_json(d: &Def) -> String {
    match d.bound {
        Some(b) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
            d.name,
            d.unit,
            d.better.as_str()
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name,
            d.unit,
            d.better.as_str()
        ),
    }
}

/// `BENCHMARK.json`, rendered from the definitions above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let list = |defs: &[Def]| defs.iter().map(metric_json).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn definitions_respect_the_manifest_limits() {
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(d.unit.len() <= 16, "long unit {}", d.unit);
        }
        for (n, why) in WORKLOADS {
            assert!(valid_name(n) && seen.insert(n));
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {n}");
        }
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", d.name);
        }
        let setup = find("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
