//! `figures`: the paper's evaluation, collected and rendered.
//!
//! The untraced run first calls `ilan_bench::collect` over all seven apps
//! on the simulated EPYC 9354 at paper scale (baseline and ILAN, one seed,
//! the harness's own `0x11A4`) and renders the figures that need only those
//! two schedulers. That is the product path and the reference. Timed
//! passes then run the same cells, as `collect` does (a fresh `SimMachine`
//! per cell at the same seed), through the timing wrapper, and render the
//! figures from their results. Each pass checks every cell's invocation
//! count, that its simulated wall time equals `collect`'s bit for bit, and
//! that it renders the same text. Each cell's host time is scaled to the
//! reference host speed ([`crate::host`]). The traced pass is the same cell
//! loop with spans.

use crate::host::Calibrator;
use crate::report::{Metrics, Outcome};
use crate::span::Tracer;
use crate::stats;
use crate::timed::{Phased, Probe, Timed};
use ilan::{BaselinePolicy, IlanParams, IlanScheduler, RunStats};
use ilan_bench::{collect, figures, Collection, RunResult, Scheduler};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::{presets, Topology};
use ilan_workloads::{Scale, SimApp, Workload, ALL_WORKLOADS};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The schedulers collected: the paper's baseline and full ILAN.
const SCHEDULERS: [Scheduler; 2] = [Scheduler::Baseline, Scheduler::Ilan];
/// The harness's first collection seed (`collect` uses `0x11A4 + run`).
const SEED: u64 = 0x11A4;
/// Set-up repetitions per sampling point.
const SETUP_REPS: usize = 11;
/// Timed passes a run keeps latency samples for.
const MAX_PASSES: usize = 8;

/// Built inputs: the simulated machine and its seven apps.
pub struct Figures {
    topology: Topology,
    apps: Vec<(Workload, SimApp)>,
}

fn build(topology: &Topology) -> Vec<(Workload, SimApp)> {
    ALL_WORKLOADS
        .iter()
        .map(|&w| (w, w.sim_app(topology, Scale::Paper)))
        .collect()
}

/// Renders every artifact that needs only the baseline and ILAN.
fn render(c: &Collection) -> String {
    [
        figures::fig2(c, None),
        figures::fig3(c, None),
        figures::table1(c, None),
        figures::fig5(c, None),
        figures::bandwidth(c, None),
    ]
    .join("\n")
}

/// Mirrors `collect`'s private `RunResult::from_stats`.
fn run_result(s: &RunStats) -> RunResult {
    RunResult {
        wall_s: s.wall_time_ns() * 1e-9,
        overhead_s: s.total_overhead_ns * 1e-9,
        weighted_threads: s.weighted_avg_threads(),
        locality: s.weighted_avg_locality(),
        migrations: s.migrations,
        bandwidth_gbps: s.avg_bandwidth(),
    }
}

/// One cell replayed through the wrapper.
struct Cell {
    workload: Workload,
    scheduler: Scheduler,
    stats: RunStats,
    expected_invocations: u64,
    chunks: u64,
    /// This cell's entries in the probe's latency buffer.
    samples: std::ops::Range<usize>,
    /// Host seconds of the run, raw and scaled (equal when not scaled).
    host_s: f64,
    scaled_s: f64,
}

impl Cell {
    fn ok(&self) -> bool {
        let wall = self.stats.wall_time_ns();
        self.stats.invocations == self.expected_invocations && wall.is_finite() && wall > 0.0
    }
}

impl Figures {
    /// Builds the apps; returns the inputs and `SETUP_REPS + 1` scaled
    /// build times.
    pub fn setup(cal: &mut Calibrator) -> (Figures, Vec<f64>) {
        let topology = presets::epyc_9354_2s();
        let t = Instant::now();
        let apps = build(&topology);
        let first = cal.scale(t.elapsed().as_secs_f64());
        let figures = Figures { topology, apps };
        let mut times = vec![first];
        figures.time_setup(&mut times, cal);
        (figures, times)
    }

    /// Builds the apps `SETUP_REPS` more times, discarding them. The build
    /// takes about 60 µs while the host's speed drifts over seconds, so the
    /// run repeats this between passes and reports the median of all.
    fn time_setup(&self, times: &mut Vec<f64>, cal: &mut Calibrator) {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            black_box(build(&self.topology));
            times.push(cal.scale(t.elapsed().as_secs_f64()));
        }
    }

    /// Total simulated invocations in one pass.
    fn invocations(&self) -> usize {
        self.apps
            .iter()
            .map(|(_, a)| a.invocations())
            .sum::<usize>()
            * SCHEDULERS.len()
    }

    /// `collect` + render: (host seconds, collection, rendered text).
    fn collect_pass(&self) -> (f64, Collection, String) {
        let t = Instant::now();
        let c = collect(&self.topology, &SCHEDULERS, Scale::Paper, 1);
        let text = render(&c);
        let wall = t.elapsed().as_secs_f64();
        assert!(!text.is_empty(), "rendering produced no figures");
        (wall, c, text)
    }

    /// Every cell, in `collect`'s order, through the wrapper. With a
    /// calibrator, each cell's host time is scaled right after it runs.
    fn cells(&self, probe: &mut Probe, mut cal: Option<&mut Calibrator>) -> Vec<Cell> {
        let mut out = Vec::new();
        for (w, app) in &self.apps {
            for &s in &SCHEDULERS {
                if let Some(t) = probe.tracer.as_mut() {
                    let g = t.new_group();
                    t.open("cell", g);
                }
                let first = probe.exec_ns.len();
                let t = Instant::now();
                let mut machine =
                    SimMachine::new(MachineParams::for_topology(&self.topology), SEED);
                let stats = match s {
                    Scheduler::Baseline => run(app, &mut machine, BaselinePolicy, probe),
                    Scheduler::Ilan => run(
                        app,
                        &mut machine,
                        IlanScheduler::new(IlanParams::for_topology(&self.topology)),
                        probe,
                    ),
                    _ => unreachable!("only baseline and ILAN are collected"),
                };
                let host_s = t.elapsed().as_secs_f64();
                let scaled_s = cal.as_deref_mut().map_or(host_s, |c| c.scale(host_s));
                if let Some(t) = probe.tracer.as_mut() {
                    t.close();
                }
                let per_step: usize = app.schedule.iter().map(|&i| app.sites[i].tasks.len()).sum();
                out.push(Cell {
                    workload: *w,
                    scheduler: s,
                    stats,
                    expected_invocations: (app.steps * app.schedule.len()) as u64,
                    chunks: (app.steps * per_step) as u64,
                    samples: first..probe.exec_ns.len(),
                    host_s,
                    scaled_s,
                });
            }
        }
        out
    }

    fn collection(&self, cells: &[Cell]) -> Collection {
        let runs: HashMap<_, _> = cells
            .iter()
            .map(|c| ((c.workload, c.scheduler), vec![run_result(&c.stats)]))
            .collect();
        Collection {
            runs,
            num_runs: 1,
            workloads: ALL_WORKLOADS.to_vec(),
            machine_cores: self.topology.num_cores(),
        }
    }

    /// Whether a cell is well formed and reproduces the collected one.
    fn cell_ok(c: &Collection, cell: &Cell) -> bool {
        let collected = c.cell(cell.workload, cell.scheduler)[0].wall_s;
        cell.ok() && collected == run_result(&cell.stats).wall_s
    }

    /// The untraced run: end-to-end metrics. The reference `collect` runs
    /// before the measured `seconds`, which hold only timed passes.
    pub fn measure(&self, seconds: f64, cal: &mut Calibrator, mut setup: Vec<f64>) -> Outcome {
        let (collect_s, c, reference) = self.collect_pass();
        let started = Instant::now();
        let mut probe = Probe::untraced(self.invocations() * MAX_PASSES);
        let (mut raw, mut scaled, mut per_invocation) = (Vec::new(), Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut m = Metrics::default();
        // A pass is started only if it is expected to end within `seconds`.
        loop {
            let pass_started = Instant::now();
            let cells = self.cells(&mut probe, Some(cal));
            let t = Instant::now();
            let text = render(&self.collection(&cells));
            let render_s = t.elapsed().as_secs_f64();
            let render_scaled = cal.scale(render_s);
            let bad = cells.iter().filter(|x| !Self::cell_ok(&c, x)).count() as u64;
            // A wrong rendering fails every cell of the pass.
            let bad = if text == reference {
                bad
            } else {
                cells.len() as u64
            };
            attempted += cells.len() as u64;
            failed += bad;
            probe
                .exec_ns
                .extend(std::iter::repeat_n(u64::MAX, bad as usize));
            if raw.is_empty() {
                for cell in &cells {
                    let name = format!(
                        "figures.cell_us.{}.{}",
                        cell.workload.name(),
                        cell.scheduler.name()
                    );
                    let us = stats::micros(&probe.exec_ns[cell.samples.clone()]);
                    m.named(&name, stats::median(&us), "us");
                }
            }
            raw.push(cells.iter().map(|x| x.host_s).sum::<f64>() + render_s);
            let pass_scaled = cells.iter().map(|x| x.scaled_s).sum::<f64>() + render_scaled;
            scaled.push(pass_scaled);
            per_invocation.push(if bad == 0 {
                pass_scaled * 1e6 / self.invocations() as f64
            } else {
                f64::INFINITY
            });
            self.time_setup(&mut setup, cal);
            let pass_s = pass_started.elapsed().as_secs_f64();
            if started.elapsed().as_secs_f64() + pass_s > seconds {
                break;
            }
        }
        let ratios: Vec<f64> = c
            .workloads
            .iter()
            .map(|&w| 1.0 / c.speedup(w, Scheduler::Ilan))
            .collect();
        let turnaround = stats::geomean(&ratios);
        let wall = stats::median(&scaled);
        let ops = self.invocations() as f64 / wall;
        let mut lat = stats::micros(&probe.exec_ns);
        stats::sort(&mut lat);
        m.named(
            "figures.invoke_us.p50",
            stats::percentile(&lat, 50.0).value,
            "us",
        );
        m.named("figures.invoke_us.p99", stats::tail(&lat, 99.0).value, "us");
        // The end-to-end latency is per pass: scaled host µs per simulated
        // invocation of each pass. Single invocations fall in whatever
        // speed the shared host has for those microseconds. With fewer than
        // ten passes beyond any tail, the tail is the median.
        stats::sort(&mut per_invocation);
        let p50 = stats::percentile(&per_invocation, 50.0);
        let tail = stats::tail(&per_invocation, 99.0);

        m.e2e(stats::median(&setup), wall, ops, p50, tail, turnaround, ops);
        m.named("figures.wall_s", wall, "s");
        m.named("figures.wall_s.raw", stats::median(&raw), "s");
        m.named("figures.collect_s.raw", collect_s, "s");
        m.named("host.kernel_ms", cal.median_s() * 1e3, "ms");
        m.named("figures.ilan_speedup", 1.0 / turnaround, "x");
        m.named(
            "figures.invocations_per_pass",
            self.invocations() as f64,
            "count",
        );
        m.named("figures.passes", raw.len() as f64, "count");
        Outcome::new(attempted, failed, m)
    }

    /// The traced run: per-layer metrics.
    pub fn trace(&self, _seconds: f64) -> Outcome {
        let (untraced, c, reference) = self.collect_pass();
        let mut probe = Probe::traced(Tracer::new(), self.invocations());
        let t = Instant::now();
        probe.tracer.as_mut().expect("traced").open("figures", 0);
        let cells = self.cells(&mut probe, None);
        let tracer = probe.tracer.as_mut().expect("traced");
        tracer.open("render", 0);
        let text = render(&self.collection(&cells));
        tracer.close();
        tracer.close();
        let traced = t.elapsed().as_secs_f64();

        let failed = cells.iter().filter(|x| !Self::cell_ok(&c, x)).count() as u64;
        let ok_text = text == reference;

        let mut m = Metrics::default();
        m.core(&probe);
        let exec: u64 = probe.exec_ns.iter().sum();
        let chunks: u64 = cells.iter().map(|c| c.chunks).sum();
        let mut inv = stats::micros(&probe.exec_ns);
        stats::sort(&mut inv);
        m.layer("sim.invoke_us.p50", stats::percentile(&inv, 50.0).value);
        m.layer("sim.invoke_us.p99", stats::tail(&inv, 99.0).value);
        m.layer("sim.chunks_per_s", chunks as f64 / (exec as f64 * 1e-9));
        m.layer("sim.share", exec as f64 * 1e-9 / traced);
        m.layer("bench.trace_overhead", traced / untraced);
        let spans = probe.tracer.take().expect("traced").into_spans();
        let gap = m.spans(spans, traced);
        Outcome::new(cells.len() as u64, failed, m).check(ok_text && gap)
    }
}

/// Runs one app under a wrapped policy.
fn run<P: Phased>(
    app: &SimApp,
    machine: &mut SimMachine,
    policy: P,
    probe: &mut Probe,
) -> RunStats {
    app.run(machine, &mut Timed::new(policy, probe))
}
