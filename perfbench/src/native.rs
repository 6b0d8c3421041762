//! `native`: the seven apps with real math on the native pool.
//!
//! One caller thread runs `run_native_app` over all seven apps under the
//! baseline, work-sharing and ILAN policies — one verified pass — in a
//! closed loop. The pool has two workers on a `1x2x1` topology (two
//! single-core NUMA nodes, so node masks and inter-node steals are live),
//! unpinned. Problem inputs are fixed inside `ilan-workloads`
//! (`NativeScale::laptop()`), so the seed does not change them. Each
//! pass's host times are scaled to the reference host speed
//! ([`crate::host`]) by a calibration taken right after the pass.

use crate::host::Calibrator;
use crate::report::{Metrics, Outcome};
use crate::span::Tracer;
use crate::stats;
use crate::timed::{Phased, Probe, Timed};
use ilan::{BaselinePolicy, IlanParams, IlanScheduler, RunStats, SiteRegistry, WorkSharingPolicy};
use ilan_metrics::MetricsSnapshot;
use ilan_runtime::{PinMode, PoolConfig, ThreadPool};
use ilan_topology::Topology;
use ilan_workloads::verify::max_abs_diff;
use ilan_workloads::{
    bt, lu, matmul, run_native_app, sp, NativeRunSummary, NativeScale, Workload, ALL_WORKLOADS,
};
use std::hint::black_box;
use std::time::Instant;

/// The pool's topology: sockets × nodes per socket × cores per node.
pub const TOPOLOGY: &str = "1x2x1";
/// Set-up repetitions (pool spawn + warm-up pass); the median is reported.
const SETUP_REPS: usize = 3;
/// Interleaved pass pairs for the metrics-on/off ratio.
const ONOFF_PAIRS: usize = 4;
/// Repetitions per kernel for work efficiency.
const EFF_REPS: usize = 15;
/// Loop-latency samples kept per pass (a pass has about 10,500).
const LATENCY_SAMPLES: usize = 32_768;

/// The three policies, in pass order.
const POLICIES: [&str; 3] = ["baseline", "worksharing", "ilan"];

/// Built inputs: the measured pool.
pub struct Native {
    topology: Topology,
    pool: ThreadPool,
}

/// One pass: wall time, per-(policy, app) wall times, failures.
struct Pass {
    wall_s: f64,
    app_s: Vec<[f64; 3]>,
    invocations: u64,
    failed: u64,
}

/// The pool topology, refusing one with more workers than cores.
pub fn topology() -> Result<Topology, String> {
    let topology = ilan_topology::parse_spec(TOPOLOGY).map_err(|e| format!("topology: {e}"))?;
    let nproc = crate::nproc();
    if topology.num_cores() > nproc {
        return Err(format!(
            "native: the pool needs {} workers but this host has {nproc} cores; refusing to run oversubscribed",
            topology.num_cores()
        ));
    }
    Ok(topology)
}

fn spawn(topology: &Topology, metrics: bool) -> ThreadPool {
    let config = PoolConfig::new(topology.clone())
        .pin(PinMode::Never)
        .metrics(metrics)
        .flight(metrics);
    ThreadPool::new(config).expect("spawning the benchmark pool")
}

fn degraded(pool: &ThreadPool) -> u64 {
    pool.metrics().map_or(0, |m| {
        m.registry().snapshot().counter_total("ilan_pool_degraded")
    })
}

fn run_app<P: Phased>(
    w: Workload,
    pool: &ThreadPool,
    policy: P,
    probe: &mut Probe,
) -> NativeRunSummary {
    run_native_app(
        w,
        pool,
        &mut Timed::new(policy, probe),
        NativeScale::laptop(),
    )
}

/// One verified pass over every app and policy.
fn pass(topology: &Topology, pool: &ThreadPool, probe: &mut Probe) -> Pass {
    let started = Instant::now();
    let mut app_s = Vec::with_capacity(ALL_WORKLOADS.len());
    let (mut invocations, mut failed) = (0, 0);
    let mut escalations = degraded(pool);
    for &w in &ALL_WORKLOADS {
        let mut row = [0.0; 3];
        for (i, slot) in row.iter_mut().enumerate() {
            if let Some(t) = probe.tracer.as_mut() {
                let g = t.new_group();
                t.open("app", g);
            }
            let first = probe.exec_ns.len();
            let s = match i {
                0 => run_app(w, pool, BaselinePolicy, probe),
                1 => run_app(w, pool, WorkSharingPolicy, probe),
                _ => run_app(
                    w,
                    pool,
                    IlanScheduler::new(IlanParams::for_topology(topology)),
                    probe,
                ),
            };
            if let Some(t) = probe.tracer.as_mut() {
                t.close();
            }
            invocations += s.stats.invocations;
            let seen = std::mem::replace(&mut escalations, degraded(pool));
            if !s.verified() || escalations != seen || s.stats.invocations == 0 {
                failed += 1;
                // A failed run's invocations miss every latency limit.
                probe.exec_ns[first..].fill(u64::MAX);
            }
            *slot = s.wall.as_secs_f64();
        }
        app_s.push(row);
    }
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        app_s,
        invocations,
        failed,
    }
}

impl Native {
    /// Spawns the pool and runs one warm-up pass, `SETUP_REPS` times;
    /// returns the last pool and the median scaled set-up time.
    pub fn setup(cal: &mut Calibrator) -> Result<(Native, f64), String> {
        let topology = topology()?;
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut pool = None;
        for _ in 0..SETUP_REPS {
            drop(pool.take());
            let t = Instant::now();
            let p = spawn(&topology, true);
            let warm = pass(&topology, &p, &mut Probe::untraced(0));
            times.push(cal.scale(t.elapsed().as_secs_f64()));
            if warm.failed > 0 {
                return Err(format!(
                    "native: {} app runs failed during warm-up",
                    warm.failed
                ));
            }
            pool = Some(p);
        }
        let pool = pool.expect("at least one set-up repetition");
        Ok((Native { topology, pool }, stats::median(&times)))
    }

    /// The untraced run: end-to-end metrics. Host times are per pass,
    /// scaled, and reported as medians over the passes: a pooled
    /// percentile over every invocation of the run would be set by the
    /// passes that met the host's slowest seconds.
    pub fn measure(&self, seconds: f64, cal: &mut Calibrator, setup_s: f64) -> Outcome {
        let started = Instant::now();
        let mut probe = Probe::untraced(LATENCY_SAMPLES);
        let mut passes = Vec::new();
        // Per pass: scaled wall, p50 and tail latency; raw p50, p95, p99.
        let (mut scaled, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        let mut raw: [Vec<f64>; 3] = Default::default();
        let (mut p50, mut tail) = (None, None);
        while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
            probe.exec_ns.clear();
            let p = pass(&self.topology, &self.pool, &mut probe);
            let factor = cal.scale(p.wall_s) / p.wall_s;
            let mut lat = stats::micros(&probe.exec_ns);
            stats::sort(&mut lat);
            let q50 = stats::percentile(&lat, 50.0);
            // The tail is p95, not p99: a pool worker descheduled mid-loop
            // by another tenant of the 2-core host sets a pass's p99, which
            // does not repeat. The ledger keeps p99.
            let q95 = stats::tail(&lat, 95.0);
            for (v, q) in raw.iter_mut().zip([q50, q95, stats::tail(&lat, 99.0)]) {
                v.push(q.value);
            }
            scaled.push(p.wall_s * factor);
            p50s.push(q50.value * factor);
            tails.push(q95.value * factor);
            (p50, tail) = (Some(q50), Some(q95));
            passes.push(p);
        }
        let mut m = Metrics::default();
        m.capture_rss();
        let wall = stats::median(&scaled);
        let invocations: u64 = passes.iter().map(|p| p.invocations).sum();
        let ops = invocations as f64 / passes.len() as f64 / wall;
        // Percentile choice and sample count are those of the last pass;
        // every pass runs the same invocations.
        let quantile = |q: Option<stats::Quantile>, values: &[f64]| stats::Quantile {
            value: stats::median(values),
            ..q.expect("at least one pass")
        };
        let (p50, tail) = (quantile(p50, &p50s), quantile(tail, &tails));
        let app_median = |app: usize, policy: usize| {
            stats::median(
                &passes
                    .iter()
                    .map(|p| p.app_s[app][policy])
                    .collect::<Vec<_>>(),
            )
        };
        let ratios: Vec<f64> = (0..ALL_WORKLOADS.len())
            .map(|a| app_median(a, 2) / app_median(a, 0))
            .collect();
        let turnaround = stats::geomean(&ratios);

        m.e2e(setup_s, wall, ops, p50, tail, turnaround, ops);
        m.named("native.wall_s", wall, "s");
        m.named(
            "native.wall_s.raw",
            stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            "s",
        );
        m.named("host.kernel_ms", cal.median_s() * 1e3, "ms");
        m.named("native.loop_us.p50", p50.value, "us");
        m.named(&format!("native.loop_us.p{}", tail.pct), tail.value, "us");
        for (v, pct) in raw.iter().zip([50, 95, 99]) {
            m.named(
                &format!("native.loop_us.p{pct}.raw"),
                stats::median(v),
                "us",
            );
        }
        m.named("native.passes", passes.len() as f64, "count");
        m.named(
            "native.invocations_per_pass",
            invocations as f64 / passes.len() as f64,
            "count",
        );
        for (a, w) in ALL_WORKLOADS.iter().enumerate() {
            for (p, name) in POLICIES.iter().enumerate() {
                let key = format!("native.app_ms.{}.{name}", w.name().to_lowercase());
                m.named(&key, app_median(a, p) * 1e3, "ms");
            }
        }
        let failed = passes.iter().map(|p| p.failed).sum();
        Outcome::new((passes.len() * ALL_WORKLOADS.len() * 3) as u64, failed, m)
    }

    /// The traced run: per-layer metrics.
    pub fn trace(&self, seconds: f64) -> Outcome {
        let registry = self
            .pool
            .metrics()
            .expect("the measured pool keeps metrics")
            .registry();
        let before = registry.snapshot();
        let started = Instant::now();
        let mut plain = Probe::untraced(0);
        let mut traced = Probe::traced(Tracer::new(), 0);
        let (mut untraced_walls, mut traced_walls, mut passes) =
            (Vec::new(), Vec::new(), Vec::new());
        while traced_walls.is_empty() || started.elapsed().as_secs_f64() < seconds / 2.0 {
            let p = pass(&self.topology, &self.pool, &mut plain);
            untraced_walls.push(p.wall_s);
            passes.push(p);
            let t = Instant::now();
            traced.tracer.as_mut().expect("traced").open("native", 0);
            let p = pass(&self.topology, &self.pool, &mut traced);
            traced.tracer.as_mut().expect("traced").close();
            traced_walls.push(t.elapsed().as_secs_f64());
            passes.push(p);
        }
        let delta = registry.snapshot().delta(&before);

        let mut m = Metrics::default();
        m.core(&traced);
        pool_layer(&mut m, &delta);
        m.layer(
            "runtime.overhead_share",
            stats::ratio(
                plain.overhead_ns + traced.overhead_ns,
                plain.makespan_ns + traced.makespan_ns,
            ),
        );
        for (a, w) in ALL_WORKLOADS.iter().enumerate() {
            let ms = stats::median(&passes.iter().map(|p| p.app_s[a][2]).collect::<Vec<_>>()) * 1e3;
            m.layer(app_metric(*w), ms);
        }
        m.layer(
            "bench.trace_overhead",
            stats::median(&traced_walls) / stats::median(&untraced_walls),
        );
        let (eff, eff_ok) = work_efficiency();
        let mut geo = Vec::new();
        for (name, ratio) in eff {
            m.layer(name, ratio);
            geo.push(ratio);
        }
        m.layer("runtime.work_eff", stats::geomean(&geo));
        let (onoff, onoff_failed) = self.metrics_on_over_off();
        m.layer("runtime.metrics_on_over_off", onoff);

        let spans = traced.tracer.take().expect("traced").into_spans();
        let gap_ok = m.spans(spans, traced_walls.iter().sum());
        let failed = passes.iter().map(|p| p.failed).sum::<u64>() + onoff_failed;
        let attempted = ((passes.len() + 4 * ONOFF_PAIRS) * ALL_WORKLOADS.len() * 3) as u64;
        Outcome::new(attempted, failed, m).check(gap_ok && eff_ok)
    }

    /// Pass wall time with the default pool over a metrics-off,
    /// flight-off pool, as the median of interleaved ABBA pair ratios.
    fn metrics_on_over_off(&self) -> (f64, u64) {
        let off = spawn(&self.topology, false);
        let mut ratios = Vec::with_capacity(ONOFF_PAIRS);
        let mut failed = 0;
        for i in 0..ONOFF_PAIRS {
            let order = if i % 2 == 0 {
                [true, false, false, true]
            } else {
                [false, true, true, false]
            };
            let mut wall = [0.0; 2];
            for on in order {
                let pool = if on { &self.pool } else { &off };
                let p = pass(&self.topology, pool, &mut Probe::untraced(0));
                failed += p.failed;
                wall[usize::from(on)] += p.wall_s;
            }
            ratios.push(wall[1] / wall[0]);
        }
        (stats::median(&ratios), failed)
    }
}

fn app_metric(w: Workload) -> &'static str {
    match w {
        Workload::Ft => "native.app_ms.ft",
        Workload::Bt => "native.app_ms.bt",
        Workload::Cg => "native.app_ms.cg",
        Workload::Lu => "native.app_ms.lu",
        Workload::Sp => "native.app_ms.sp",
        Workload::Matmul => "native.app_ms.matmul",
        Workload::Lulesh => "native.app_ms.lulesh",
    }
}

/// Runtime-layer metrics from the pool registry's activity delta.
fn pool_layer(m: &mut Metrics, d: &MetricsSnapshot) {
    let q = |name: &str, pct: f64| {
        d.histogram(name)
            .map_or(0.0, |h| h.quantile(pct / 100.0) as f64)
    };
    let count = |name: &str, label: (&str, &str)| match d.get_with(name, &[label]) {
        Some(ilan_metrics::SampleValue::Counter(n)) => *n as f64,
        _ => 0.0,
    };
    m.layer("runtime.dispatch_ns.p50", q("ilan_pool_dispatch_ns", 50.0));
    m.layer("runtime.dispatch_ns.p99", q("ilan_pool_dispatch_ns", 99.0));
    m.layer("runtime.park_ns.p50", q("ilan_pool_park_ns", 50.0));
    let inline = count("ilan_pool_loops", ("path", "inline"));
    let loops = d.counter_total("ilan_pool_loops") as f64;
    m.layer("runtime.inline_share", stats::ratio(inline, loops));
    m.layer(
        "runtime.steal_hit_ratio",
        stats::ratio(
            d.counter_total("ilan_pool_steal_hits") as f64,
            d.counter_total("ilan_pool_steal_attempts") as f64,
        ),
    );
    m.layer(
        "runtime.remote_share",
        stats::ratio(
            count("ilan_pool_acquisitions", ("kind", "inter_steal")),
            d.counter_total("ilan_pool_acquisitions") as f64,
        ),
    );
    m.layer(
        "runtime.degraded",
        d.counter_total("ilan_pool_degraded") as f64,
    );
    m.named("runtime.loops", loops, "count");
    m.named(
        "runtime.dispatch_samples",
        d.histogram("ilan_pool_dispatch_ns").map_or(0, |h| h.count) as f64,
        "count",
    );
}

/// T1/TS per kernel: a native step on a 1-worker pool under the baseline
/// policy, over the public serial kernel, as the ratio of medians over
/// interleaved repetitions. Also checks the two results agree.
fn work_efficiency() -> (Vec<(&'static str, f64)>, bool) {
    let topo = ilan_topology::parse_spec("1x1x1").expect("one-core topology");
    let pool = spawn(&topo, true);
    let mut sites = SiteRegistry::new();
    let mut stats_ = RunStats::new();
    let mut policy = BaselinePolicy;
    let mut ok = true;
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut out = Vec::new();
    let mut measure = |name: &'static str, native: &mut dyn FnMut(), serial: &mut dyn FnMut()| {
        let (mut t1, mut ts) = (Vec::new(), Vec::new());
        for _ in 0..EFF_REPS {
            t1.push(time(native));
            ts.push(time(serial));
        }
        out.push((name, stats::median(&t1) / stats::median(&ts)));
    };

    let a = matmul::Matrix::random(64, 31);
    let b = matmul::Matrix::random(64, 32);
    let reference = a.mul_serial(&b);
    measure(
        "runtime.work_eff.matmul",
        &mut || {
            let c = matmul::mul_native(&pool, &mut policy, &a, &b, &mut sites, &mut stats_);
            ok &= max_abs_diff(&c.data, &reference.data) < 1e-11;
            black_box(c);
        },
        &mut || {
            black_box(a.mul_serial(&b));
        },
    );

    let (mut gp, mut gs) = (bt::BtGrid::new(28), bt::BtGrid::new(28));
    measure(
        "runtime.work_eff.bt",
        &mut || bt::step_native(&pool, &mut policy, &mut gp, &mut sites, &mut stats_),
        &mut || gs.step_serial(),
    );
    ok &= max_abs_diff(&gp.u, &gs.u) < 1e-10;

    let (mut gp, mut gs) = (sp::SpGrid::new(24), sp::SpGrid::new(24));
    measure(
        "runtime.work_eff.sp",
        &mut || sp::step_native(&pool, &mut policy, &mut gp, &mut sites, &mut stats_),
        &mut || gs.step_serial(),
    );
    ok &= max_abs_diff(&gp.u, &gs.u) < 1e-9;

    let (mut gp, mut gs) = (lu::LuGrid::new(64), lu::LuGrid::new(64));
    measure(
        "runtime.work_eff.lu",
        &mut || lu::sweep_native(&pool, &mut policy, &mut gp, &mut sites, &mut stats_),
        &mut || gs.sweep_serial(),
    );
    ok &= max_abs_diff(&gp.u, &gs.u) < 1e-12;
    (out, ok)
}
