//! [`SimMachine`]: one simulated machine for the duration of one run.

use crate::engine::Engine;
use crate::metrics::SimMetrics;
use crate::outcome::LoopOutcome;
use crate::params::MachineParams;
use crate::plan::PlacementPlan;
use crate::task::TaskSpec;
use ilan_topology::{CpuSet, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A simulated NUMA machine.
///
/// Created per run with a seed; the seed fixes the run's noise (per-core
/// frequency factors, outlier windows) so any run can be replayed exactly.
/// Taskloop invocations execute one at a time — the paper's model, where a
/// `taskloop` is followed by an implicit barrier — and the machine keeps a
/// global clock across invocations ([`now_ns`](Self::now_ns)).
pub struct SimMachine {
    params: MachineParams,
    rng: StdRng,
    freqs: Vec<f64>,
    now_ns: f64,
    metrics: Option<SimMetrics>,
}

impl SimMachine {
    /// Builds a machine and draws its per-run noise from `seed`.
    ///
    /// # Panics
    /// Panics if `params` fails validation.
    pub fn new(params: MachineParams, seed: u64) -> Self {
        params.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let freqs = params
            .noise
            .draw_freqs(&mut rng, params.topology.num_cores());
        SimMachine {
            params,
            rng,
            freqs,
            now_ns: 0.0,
            metrics: None,
        }
    }

    /// Attaches lane instruments: every subsequent invocation folds its
    /// [`LoopOutcome`] into the given [`SimMetrics`]. Opt-in and free of
    /// side effects on the simulation — the seeded noise, the clock and all
    /// outcomes are byte-identical with or without metrics attached.
    pub fn attach_metrics(&mut self, metrics: SimMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached instruments, if any.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_ref()
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.params.topology
    }

    /// The machine's performance parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Global simulated clock: total time elapsed across all invocations and
    /// serial sections, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// The per-core frequency factors drawn for this run (1.0 = nominal).
    pub fn core_freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Advances the clock over a serial (non-taskloop) section.
    pub fn advance_serial(&mut self, ns: f64) {
        assert!(
            ns >= 0.0 && ns.is_finite(),
            "serial time must be finite and >= 0"
        );
        self.now_ns += ns;
    }

    /// Executes one taskloop invocation on the given active cores with the
    /// given placement plan, advancing the global clock by its makespan.
    ///
    /// # Panics
    /// Panics if the plan does not cover the tasks exactly, if `active` is
    /// empty or references cores outside the topology, or if the plan assigns
    /// work to a node with no active cores.
    pub fn run_taskloop(
        &mut self,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &[TaskSpec],
    ) -> LoopOutcome {
        self.run(active, plan, tasks, false)
    }

    /// Like [`run_taskloop`](Self::run_taskloop), additionally collecting a
    /// per-chunk execution trace (see [`LoopOutcome::trace`] and
    /// [`LoopOutcome::gantt`]) and the scheduler event log
    /// ([`LoopOutcome::events`]) consumed by `ilan-trace`'s auditor and
    /// Chrome-trace exporter. Tracing allocates per chunk, so it is off by
    /// default.
    pub fn run_taskloop_traced(
        &mut self,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &[TaskSpec],
    ) -> LoopOutcome {
        self.run(active, plan, tasks, true)
    }

    fn run(
        &mut self,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &[TaskSpec],
        traced: bool,
    ) -> LoopOutcome {
        for t in tasks {
            debug_assert!({
                t.validate();
                true
            });
            debug_assert!(
                t.home_node.index() < self.params.topology.num_nodes(),
                "task home node outside topology"
            );
        }
        let outlier = self
            .params
            .noise
            .draw_outlier(&mut self.rng, self.params.topology.num_nodes());
        let perm_seed: u64 = rand::Rng::random(&mut self.rng);
        let engine = Engine::new(
            &self.params,
            &self.freqs,
            outlier,
            perm_seed,
            active,
            plan,
            tasks,
            traced,
        );
        let outcome = engine.run();
        self.now_ns += outcome.makespan_ns;
        if let Some(m) = &self.metrics {
            m.record_outcome(&outcome);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Locality;
    use ilan_topology::{presets, NodeId, NodeMask};

    fn tasks(n: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 5_000.0,
                mem_bytes: 50_000.0,
                home_node: NodeId::new(i * 2 / n),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(2),
                cache_reuse: 0.2,
                fits_l3: true,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_outcome() {
        let topo = presets::tiny_2x4();
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo), seed);
            let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
            m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks(32))
                .makespan_ns
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ under noise");
    }

    #[test]
    fn noiseless_hierarchical_is_seed_independent() {
        // The flat baseline's block permutation is intentionally seed-driven
        // (random placement is part of the modelled scheduler), but ILAN's
        // deterministic distribution must not depend on the seed when the
        // machine is noiseless.
        let topo = presets::tiny_2x4();
        let plan = PlacementPlan::Hierarchical {
            assignments: vec![
                crate::NodeAssignment {
                    node: NodeId::new(0),
                    tasks: (0..16).collect(),
                    strict_count: 16,
                },
                crate::NodeAssignment {
                    node: NodeId::new(1),
                    tasks: (16..32).collect(),
                    strict_count: 16,
                },
            ],
        };
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), seed);
            let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
            m.run_taskloop(&cores, &plan, &tasks(32)).makespan_ns
        };
        assert_eq!(run(1), run(99));
    }

    #[test]
    fn flat_placement_varies_with_seed_even_noiseless() {
        let topo = presets::tiny_2x4();
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), seed);
            let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
            m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks(32))
                .locality_fraction()
        };
        // Different permutations land different chunks locally. Any two
        // particular seeds may collide on the locality statistic (distinct
        // permutations often tie), so assert variation across a seed set.
        let fractions: Vec<f64> = (1..=16).map(run).collect();
        assert!(
            fractions.iter().any(|&f| f != fractions[0]),
            "flat placement ignored the seed: {fractions:?}"
        );
    }

    #[test]
    fn clock_accumulates() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        assert_eq!(m.now_ns(), 0.0);
        let o1 = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks(16));
        assert!((m.now_ns() - o1.makespan_ns).abs() < 1e-9);
        m.advance_serial(1_000.0);
        let o2 = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks(16));
        assert!((m.now_ns() - (o1.makespan_ns + 1_000.0 + o2.makespan_ns)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "serial time")]
    fn rejects_negative_serial() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo), 1);
        m.advance_serial(-1.0);
    }

    /// Differential check, simulator half: the lane counters and the
    /// migration counter must agree with the traced event log and the
    /// outcome of the same invocation — and attaching metrics must not
    /// perturb the simulation.
    #[test]
    fn metrics_match_traced_event_log() {
        use crate::metrics::SimMetrics;

        let topo = presets::tiny_2x4();
        // All work homed on node 0 with a fully stealable tail: node 1's
        // idle workers must batch-steal, so migrations are guaranteed.
        let plan = PlacementPlan::Hierarchical {
            assignments: vec![crate::NodeAssignment {
                node: NodeId::new(0),
                tasks: (0..32).collect(),
                strict_count: 0,
            }],
        };
        let run = |metrics: Option<SimMetrics>| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            if let Some(metrics) = metrics {
                m.attach_metrics(metrics);
            }
            let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
            m.run_taskloop_traced(&cores, &plan, &tasks(32))
        };

        let metrics = SimMetrics::new();
        let outcome = run(Some(metrics.clone()));
        assert!(outcome.migrations > 0, "the stealable tail must migrate");

        let snap = metrics.registry().snapshot();
        assert_eq!(
            snap.counter_total("ilan_sim_migrations") as usize,
            outcome.migrations
        );
        // The traced event log tells the same story.
        assert_eq!(outcome.events.inter_node_steals(), outcome.migrations);
        // Lane task counters sum to the chunks executed, split per node.
        assert_eq!(
            snap.counter_total("ilan_sim_node_tasks") as usize,
            outcome.tasks_executed()
        );
        for (i, node) in outcome.nodes.iter().enumerate() {
            use ilan_metrics::SampleValue;
            let label = i.to_string();
            let local = match snap.get_with(
                "ilan_sim_node_tasks",
                &[("node", label.as_str()), ("locality", "local")],
            ) {
                Some(SampleValue::Counter(v)) => *v as usize,
                None => 0,
                other => panic!("node {i}: {other:?}"),
            };
            assert_eq!(local, node.local_tasks, "node {i} locality split");
        }
        assert_eq!(snap.counter_total("ilan_sim_loops"), 1);

        // Metrics are purely observational: same seed, same outcome.
        let bare = run(None);
        assert_eq!(bare.makespan_ns, outcome.makespan_ns);
        assert_eq!(bare.migrations, outcome.migrations);
    }

    /// The traced entry point checks its tasks like the untraced one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "home node outside topology")]
    fn traced_run_validates_tasks() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let mut bad = tasks(4);
        bad[0].home_node = NodeId::new(5);
        m.run_taskloop_traced(&cores, &PlacementPlan::flat(), &bad);
    }

    #[test]
    fn freqs_match_core_count() {
        let topo = presets::epyc_9354_2s();
        let m = SimMachine::new(MachineParams::for_topology(&topo), 11);
        assert_eq!(m.core_freqs().len(), 64);
    }
}
