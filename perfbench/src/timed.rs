//! A timing [`Policy`] wrapper: the scheduler layer measured from outside.
//!
//! Every driver performs decide → execute → record, so wrapping the policy
//! splits an invocation into the scheduler's two calls and the span between
//! them, which is the simulator's or the pool's turn. Untraced, the wrapper
//! costs two clock reads per invocation, stored in a preallocated buffer.
//! Traced, it also times `decide` and `record`, splits them by ILAN search
//! phase, and records the three spans under the caller's open span.

use crate::span::Tracer;
use ilan::{
    BaselinePolicy, Decision, IlanScheduler, Policy, SearchPhase, SiteId, TaskloopReport,
    WorkSharingPolicy,
};
use std::time::Instant;

/// A policy whose per-site search phase can be read from outside.
pub trait Phased: Policy {
    /// `Some(true)` while the site is still searching (any phase other than
    /// settled), `None` for policies that never search.
    fn searching(&self, _site: SiteId) -> Option<bool> {
        None
    }
}

impl Phased for BaselinePolicy {}
impl Phased for WorkSharingPolicy {}
impl Phased for IlanScheduler {
    fn searching(&self, site: SiteId) -> Option<bool> {
        Some(self.phase(site) != SearchPhase::Settled)
    }
}

/// What the wrapper measured. One `Probe` outlives many wrapped runs.
#[derive(Default)]
pub struct Probe {
    /// Host ns from `decide` returning to `record` being called, one sample
    /// per invocation.
    pub exec_ns: Vec<u64>,
    /// `Some` in the traced run: spans are recorded here.
    pub tracer: Option<Tracer>,
    /// Traced ILAN `decide` times, ns: `[searching, settled]`.
    pub decide_ns: [Vec<u64>; 2],
    /// Traced ILAN `record` times, ns: `[searching, settled]`.
    pub record_ns: [Vec<u64>; 2],
    /// Σ scheduling overhead over recorded invocations, ns.
    pub overhead_ns: f64,
    /// Σ invocation makespan over recorded invocations, ns.
    pub makespan_ns: f64,
}

impl Probe {
    /// An untraced probe keeping at most `samples` latency samples. The
    /// buffer is touched up front, so its resident size does not depend on
    /// how many samples a run records, and recording never reallocates.
    pub fn untraced(samples: usize) -> Self {
        let mut exec_ns = Vec::with_capacity(samples);
        exec_ns.resize(samples, 1);
        exec_ns.clear();
        Probe {
            exec_ns,
            ..Probe::default()
        }
    }

    /// A traced probe recording spans into `tracer`, keeping at most
    /// `samples` latency samples.
    pub fn traced(tracer: Tracer, samples: usize) -> Self {
        Probe {
            tracer: Some(tracer),
            ..Probe::untraced(samples)
        }
    }

    /// ILAN invocations decided while searching, over all ILAN invocations.
    pub fn search_share(&self) -> f64 {
        let searching = self.decide_ns[0].len() as f64;
        crate::stats::ratio(searching, searching + self.decide_ns[1].len() as f64)
    }
}

/// The wrapper. Transparent: the inner policy sees the same calls in the
/// same order, and `name`/`decision_overhead_ns` are forwarded.
pub struct Timed<'a, P> {
    inner: P,
    probe: &'a mut Probe,
    decided_at: Instant,
    phase: Option<usize>,
}

impl<'a, P: Phased> Timed<'a, P> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: P, probe: &'a mut Probe) -> Self {
        Timed {
            inner,
            probe,
            decided_at: Instant::now(),
            phase: None,
        }
    }
}

impl<P: Phased> Policy for Timed<'_, P> {
    fn decide(&mut self, site: SiteId) -> Decision {
        if self.probe.tracer.is_none() {
            let d = self.inner.decide(site);
            self.decided_at = Instant::now();
            return d;
        }
        self.phase = self.inner.searching(site).map(|s| usize::from(!s));
        let t0 = Instant::now();
        let d = self.inner.decide(site);
        self.decided_at = Instant::now();
        let ns = (self.decided_at - t0).as_nanos() as u64;
        if let Some(p) = self.phase {
            self.probe.decide_ns[p].push(ns);
        }
        let tracer = self.probe.tracer.as_mut().expect("traced probe");
        let (a, b) = (tracer.at(t0), tracer.at(self.decided_at));
        tracer.leaf("decide", a, b);
        d
    }

    fn record(&mut self, site: SiteId, decision: &Decision, report: &TaskloopReport) {
        let t2 = Instant::now();
        let samples = &mut self.probe.exec_ns;
        if samples.len() < samples.capacity() {
            samples.push((t2 - self.decided_at).as_nanos() as u64);
        }
        self.probe.overhead_ns += report.sched_overhead_ns;
        self.probe.makespan_ns += report.time_ns;
        if self.probe.tracer.is_none() {
            self.inner.record(site, decision, report);
            return;
        }
        self.inner.record(site, decision, report);
        let t3 = Instant::now();
        if let Some(p) = self.phase {
            self.probe.record_ns[p].push((t3 - t2).as_nanos() as u64);
        }
        let tracer = self.probe.tracer.as_mut().expect("traced probe");
        let (a, b, c) = (tracer.at(self.decided_at), tracer.at(t2), tracer.at(t3));
        tracer.leaf("execute", a, b);
        tracer.leaf("record", b, c);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decision_overhead_ns(&self) -> f64 {
        self.inner.decision_overhead_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan::driver::run_sim_invocation;
    use ilan::trace::RecordingPolicy;
    use ilan::{IlanParams, RunStats};
    use ilan_numasim::{MachineParams, SimMachine};
    use ilan_topology::presets;
    use ilan_workloads::{Scale, SimApp, Workload};

    /// Decisions of a run, taken through the driver the harness uses.
    fn decisions(app: &SimApp, policy: &mut dyn Policy, seed: u64) -> Vec<Decision> {
        let topo = presets::epyc_9354_2s();
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), seed);
        let mut out = Vec::new();
        for _ in 0..app.steps {
            for &idx in &app.schedule {
                let site = SiteId::new(idx as u64);
                let (d, _) = run_sim_invocation(&mut machine, policy, site, &app.sites[idx].tasks);
                out.push(d);
            }
            machine.advance_serial(app.serial_ns);
        }
        out
    }

    fn stats(app: &SimApp, policy: &mut dyn Policy, seed: u64) -> RunStats {
        let topo = presets::epyc_9354_2s();
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), seed);
        app.run(&mut machine, policy)
    }

    fn same_stats(a: &RunStats, b: &RunStats) -> bool {
        a.invocations == b.invocations
            && a.total_time_ns == b.total_time_ns
            && a.serial_time_ns == b.serial_time_ns
            && a.total_overhead_ns == b.total_overhead_ns
            && a.migrations == b.migrations
            && a.dram_bytes == b.dram_bytes
            && a.weighted_avg_threads() == b.weighted_avg_threads()
            && a.weighted_avg_locality() == b.weighted_avg_locality()
    }

    #[test]
    fn the_wrapper_is_transparent_to_a_simulated_run() {
        let topo = presets::epyc_9354_2s();
        for w in [Workload::Cg, Workload::Lu] {
            let app = w.sim_app(&topo, Scale::Quick);
            let ilan = || IlanScheduler::new(IlanParams::for_topology(&topo));
            for traced in [false, true] {
                let probe = || {
                    if traced {
                        Probe::traced(Tracer::new(), app.invocations())
                    } else {
                        Probe::untraced(app.invocations())
                    }
                };
                let mut p = probe();
                let bare = stats(&app, &mut ilan(), 9);
                let wrapped = stats(&app, &mut Timed::new(ilan(), &mut p), 9);
                assert!(same_stats(&bare, &wrapped), "{} stats differ", w.name());
                assert_eq!(p.exec_ns.len(), app.invocations());

                let mut bare = RecordingPolicy::new(ilan());
                let plain = decisions(&app, &mut bare, 9);
                let mut probe = probe();
                let mut wrapped = RecordingPolicy::new(Timed::new(ilan(), &mut probe));
                let timed = decisions(&app, &mut wrapped, 9);
                assert_eq!(plain, timed, "{} decisions differ", w.name());
                let times =
                    |p: &[ilan::trace::TraceEntry]| p.iter().map(|e| e.time_ns).collect::<Vec<_>>();
                assert_eq!(times(bare.entries()), times(wrapped.entries()));
            }
        }
    }

    #[test]
    fn traced_wrapper_records_three_spans_and_splits_by_phase() {
        let topo = presets::tiny_2x4();
        let mut app = Workload::Matmul.sim_app(&topo, Scale::Quick);
        app.steps = 3;
        let mut probe = Probe::traced(Tracer::new(), 16);
        {
            let mut p = Timed::new(
                IlanScheduler::new(IlanParams::for_topology(&topo)),
                &mut probe,
            );
            let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 1);
            app.run(&mut machine, &mut p);
        }
        let n = app.invocations();
        assert_eq!(probe.tracer.take().unwrap().into_spans().len(), 3 * n);
        assert_eq!(probe.decide_ns[0].len() + probe.decide_ns[1].len(), n);
        assert_eq!(probe.record_ns[0].len(), probe.decide_ns[0].len());
        // A fresh scheduler is searching on its first invocations.
        assert!(probe.search_share() > 0.0);

        let mut probe = Probe::traced(Tracer::new(), 16);
        let mut p = Timed::new(BaselinePolicy, &mut probe);
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 1);
        app.run(&mut machine, &mut p);
        assert_eq!(p.name(), "baseline");
        assert_eq!(probe.search_share(), 0.0);
    }
}
