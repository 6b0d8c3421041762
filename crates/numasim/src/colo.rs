//! The simulator's event loop: one or several concurrent taskloops on one
//! machine.
//!
//! [`ColoMachine`] runs *lanes* (tenants) whose loops execute concurrently;
//! [`SimMachine`](crate::SimMachine), the paper's single-application model,
//! is a wrapper that runs one loop at a time on one lane. All lanes share
//! one [`CongestionField`]: the per-node memory controllers, the
//! inter-socket links and the row-buffer stream budget are priced across
//! every running chunk on the machine, regardless of which lane issued it.
//! That shared field *is* the interference channel a co-scheduler must
//! manage.
//!
//! Between events every running chunk progresses linearly at a rate
//! computed from the machine state; an event is a chunk completing, a
//! worker finishing a scheduling action, a lead, barrier or stall expiring,
//! or the caller's deadline. The worker/pool state machine lives in
//! [`exec`](crate::exec) and the cost model in [`rates`](crate::rates).
//!
//! Two mechanisms model sharing policies:
//!
//! * **Oversubscription** — when two lanes activate the same core, its
//!   running chunks timeshare it: each progresses at `1/occupancy` of its
//!   rate and issues `1/occupancy` of its DRAM traffic (a round-robin OS
//!   scheduler in the fluid limit). Disjoint partitions have occupancy 1
//!   and behave exactly like a loop running alone.
//! * **Lead time** — each loop may start with a serial lead (scheduler
//!   decision cost plus any serial section of the tenant's program) during
//!   which its workers are not yet active.
//!
//! Noise: per-core frequency jitter is drawn once per machine. Outlier
//! windows (one node running slower for a whole invocation) are drawn only
//! by [`SimMachine`](crate::SimMachine)'s invocations, whose clock restarts
//! at 0 for each loop; [`start_loop`](ColoMachine::start_loop) draws none.
//! Scheduling actions (pops/steals) are not slowed by oversubscription —
//! only chunk execution is.
//!
//! Tracing: after [`set_tracing`](ColoMachine::set_tracing), every completed
//! loop's [`LoopOutcome::events`] carries its auditable event log and
//! [`LoopOutcome::trace`] its per-chunk records (times on the
//! machine-global clock).
//!
//! Rates: every event runs one dirty-set refresh over the workers of the
//! loops in flight, in lane order ([`CongestionField::aggregate`], then
//! [`CongestionField::reprice`] per loop). The machine keeps each core's count of running chunks up
//! to date as chunks start and end, and pushes a chunk's occupancy, node
//! slowdown and node speed into its flow when one of them changes; a chunk
//! is repriced when it is fresh or a congestion factor it reads changed.
//! Every other chunk keeps its rate, which is bit-identical to recomputing
//! it.
//!
//! Cost: the machine holds only the loops in flight, so the work per event
//! follows the lanes that are running, not the lanes ever added. A server
//! that adds a lane per job walks its few live tenants on every event,
//! however long its job stream.
//!
//! Determinism: in-flight loops are kept sorted by lane id and visited in
//! that order at every event, so a given machine seed and call sequence
//! replays exactly.
//!
//! **Fault injection** — [`set_fault_plan`](ColoMachine::set_fault_plan)
//! applies an [`ilan_faults::FaultPlan`] to every loop started afterwards,
//! modelling the fault classes that make sense in a fluid-rate simulation:
//! temporary worker stalls (the worker sits out of the acquire loop until
//! its stall expires) and slow nodes (every chunk executing there is
//! stretched by the plan's multiplier). Wakeup drops, steal refusals and
//! permanent stalls are native-pool mechanics with no fluid analogue;
//! permanent stalls are rejected outright. Use
//! [`FaultConfig::sim_safe`](ilan_faults::FaultConfig::sim_safe) to draw
//! plans restricted to the shared classes — the differential oracle runs the
//! native pool and this machine under the *same* plan and compares
//! placements.

use crate::exec::{begin_chunk, make_workers, seek, PoolSet, Worker, WorkerState, EPS};
use crate::outcome::{LoopOutcome, NodeOutcome, TaskRecord};
use crate::params::MachineParams;
use crate::plan::PlacementPlan;
use crate::rates::CongestionField;
use crate::task::TaskSpec;
use ilan_faults::FaultPlan;
use ilan_topology::{CpuSet, NodeId, Topology};
use ilan_trace::{EventKind, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One lane's in-flight taskloop invocation.
struct LaneRun {
    /// The lane the loop runs on.
    lane: usize,
    tasks: Vec<TaskSpec>,
    pools: PoolSet,
    workers: Vec<Worker>,
    node_worker_count: Vec<usize>,
    /// Machine time when the loop was submitted.
    started_ns: f64,
    /// Remaining serial lead (caller-provided lead plus dispatch cost);
    /// workers stay inactive until it reaches zero.
    lead_remaining_ns: f64,
    /// Remaining closing-barrier time once all chunks have completed.
    barrier_remaining_ns: Option<f64>,
    /// Whether the fault plan stalls any of the loop's workers.
    stalls: bool,
    overhead_ns: f64,
    nodes_out: Vec<NodeOutcome>,
    migrations: usize,
    rng_state: u64,
    /// Scheduler event recorder (present only for traced loops).
    recorder: Option<Recorder>,
    /// Per-chunk execution records (present only for traced loops).
    trace: Option<Vec<TaskRecord>>,
}

impl LaneRun {
    /// Whether the lane is past its lead and still has chunks in flight.
    fn executing(&self) -> bool {
        self.lead_remaining_ns <= 0.0 && self.barrier_remaining_ns.is_none()
    }
}

/// A simulated NUMA machine shared by several concurrent taskloops.
///
/// Lanes are created up front with [`add_lane`](Self::add_lane); a lane runs
/// at most one loop at a time ([`start_loop`](Self::start_loop)), mirroring
/// the one-loop-then-barrier structure of the tenants' programs. Progress is
/// driven by [`run_until_next_completion`](Self::run_until_next_completion)
/// or, for arrival-driven callers, [`run_until_ns`](Self::run_until_ns).
pub struct ColoMachine {
    params: MachineParams,
    freqs: Vec<f64>,
    rng: StdRng,
    now_ns: f64,
    /// Lanes handed out by [`add_lane`](Self::add_lane).
    lanes: usize,
    /// The loops in flight, sorted by lane id.
    runs: Vec<LaneRun>,
    field: CongestionField,
    /// Running chunks per core, across all lanes; kept up to date as chunks
    /// start and end.
    core_load: Vec<usize>,
    /// Whether a chunk started or ended on a core another chunk runs on, so
    /// that chunk's occupancy must be pushed again.
    occupancy_moved: bool,
    /// Per-node chunk-duration multiplier of the fault plan (1 = healthy).
    node_slowdown: Vec<f64>,
    /// Per-node speed factor: an outlier window's during a solo invocation
    /// whose draw hit the node, else 1.
    node_speed: Vec<f64>,
    finished: VecDeque<(usize, LoopOutcome)>,
    /// Whether loops started from now on record scheduler events.
    tracing: bool,
    /// Fault plan applied to loops started from now on.
    faults: Option<FaultPlan>,
}

impl ColoMachine {
    /// Builds a machine and draws its per-run noise (per-core frequency
    /// factors) from `seed`.
    ///
    /// # Panics
    /// Panics if `params` fails validation.
    pub fn new(params: MachineParams, seed: u64) -> Self {
        params.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let freqs = params
            .noise
            .draw_freqs(&mut rng, params.topology.num_cores());
        let num_nodes = params.topology.num_nodes();
        let num_sockets = params.topology.num_sockets();
        let num_cores = params.topology.num_cores();
        ColoMachine {
            params,
            freqs,
            rng,
            now_ns: 0.0,
            lanes: 0,
            runs: Vec::new(),
            field: CongestionField::new(num_nodes, num_sockets),
            core_load: vec![0; num_cores],
            occupancy_moved: false,
            node_slowdown: vec![1.0; num_nodes],
            node_speed: vec![1.0; num_nodes],
            finished: VecDeque::new(),
            tracing: false,
            faults: None,
        }
    }

    /// Enables (or disables) tracing for loops started from now on:
    /// completed traced loops report their scheduler event log in
    /// [`LoopOutcome::events`] and their per-chunk records in
    /// [`LoopOutcome::trace`]. Loops already in flight are unaffected.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Applies `plan` to the machine: temporary worker stalls (by
    /// lane-worker index, anchored at each subsequently started loop's
    /// execution start) and slow-node multipliers (machine-level — a slow
    /// memory node stretches every chunk executing there, including loops
    /// already in flight). See the module docs for the modelled subset.
    ///
    /// # Panics
    /// Panics if the plan contains a permanent stall — a fluid lane with a
    /// permanently absent worker either completes on its peers or deadlocks
    /// on strict work; the graceful-degradation story (watchdog, dispatcher
    /// drain) belongs to the native pool, not the simulator.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !plan.has_permanent_stall(),
            "permanent stalls are out of simulation scope (draw plans with FaultConfig::sim_safe)"
        );
        for (node, slow) in self.node_slowdown.iter_mut().enumerate() {
            *slow = plan.node_slowdown(node as u32);
        }
        self.faults = Some(plan);
        self.push_inputs();
    }

    /// The fault plan applied to newly started loops, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.params.topology
    }

    /// The machine's performance parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Global simulated clock, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// The per-core frequency factors drawn for this machine (1.0 =
    /// nominal).
    pub(crate) fn core_freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Registers a new (idle) lane and returns its id. An idle lane costs
    /// nothing per event.
    pub fn add_lane(&mut self) -> usize {
        self.lanes += 1;
        self.lanes - 1
    }

    /// Where `lane`'s loop sits in `runs`: `Ok` if one is in flight, else
    /// the position that keeps `runs` sorted.
    fn slot(&self, lane: usize) -> Result<usize, usize> {
        assert!(
            lane < self.lanes,
            "unknown lane {lane}: add_lane has handed out {} lane(s)",
            self.lanes
        );
        self.runs.binary_search_by_key(&lane, |run| run.lane)
    }

    /// Whether `lane` currently has a loop in flight.
    ///
    /// # Panics
    /// Panics if `lane` was not returned by [`add_lane`](Self::add_lane).
    pub fn lane_busy(&self, lane: usize) -> bool {
        self.slot(lane).is_ok()
    }

    /// Whether any lane has a loop in flight.
    pub fn any_busy(&self) -> bool {
        !self.finished.is_empty() || !self.runs.is_empty()
    }

    /// Submits one taskloop invocation on `lane`: `lead_ns` of serial time
    /// (decision cost + the tenant's serial section), then dispatch, then
    /// parallel execution on `active` cores under `plan`.
    ///
    /// # Panics
    /// Panics if `lane` was not returned by [`add_lane`](Self::add_lane), the
    /// lane is already busy, the plan does not cover `tasks`, or `active` is
    /// empty / outside the topology.
    pub fn start_loop(
        &mut self,
        lane: usize,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: Vec<TaskSpec>,
        lead_ns: f64,
    ) {
        self.launch(lane, active, plan, tasks, lead_ns, self.tracing);
    }

    /// Runs one invocation on `lane` of an otherwise idle machine, the way
    /// [`SimMachine`](crate::SimMachine) executes its loops: the clock
    /// restarts at 0, so the makespan, the chunk records and the event
    /// timestamps are local to the invocation, and the invocation first
    /// draws whether an outlier window slows one node for its duration.
    pub(crate) fn run_solo(
        &mut self,
        lane: usize,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &[TaskSpec],
        traced: bool,
    ) -> LoopOutcome {
        assert!(!self.any_busy(), "a solo invocation needs an idle machine");
        let num_nodes = self.params.topology.num_nodes();
        let outlier = self.params.noise.draw_outlier(&mut self.rng, num_nodes);
        if let Some(node) = outlier {
            self.node_speed[node] = self.params.noise.outlier_factor;
        }
        self.now_ns = 0.0;
        self.launch(lane, active, plan, tasks.to_vec(), 0.0, traced);
        let (_, outcome) = self
            .run_until_next_completion()
            .expect("the solo loop is in flight");
        if let Some(node) = outlier {
            self.node_speed[node] = 1.0;
        }
        outcome
    }

    /// Builds `lane`'s loop and puts it in flight; `traced` decides whether
    /// it records its scheduler events and chunk records.
    fn launch(
        &mut self,
        lane: usize,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: Vec<TaskSpec>,
        lead_ns: f64,
        traced: bool,
    ) {
        let Err(at) = self.slot(lane) else {
            panic!("lane {lane} already has a loop in flight");
        };
        assert!(
            lead_ns >= 0.0 && lead_ns.is_finite(),
            "lead time must be finite and >= 0"
        );
        let topo = &self.params.topology;
        let (mut workers, node_worker_count) = make_workers(topo, active);
        let perm_seed: u64 = rand::Rng::random(&mut self.rng);
        let mut recorder = traced.then(Recorder::new);
        let pools = PoolSet::build(
            plan,
            tasks.len(),
            &workers,
            &node_worker_count,
            topo.num_nodes(),
            perm_seed,
            recorder.as_mut(),
            self.now_ns,
        );
        let dispatch = pools.dispatch_ns(&self.params, tasks.len());
        let mut stalls = false;
        if let Some(plan) = &self.faults {
            // Stalls are anchored to the moment workers would first acquire
            // work: submission plus the serial lead plus dispatch.
            let exec_start = self.now_ns + lead_ns + dispatch;
            for (i, w) in workers.iter_mut().enumerate() {
                if let Some(stall) = plan.stall_of(i as u32) {
                    w.stall_until_ns = exec_start + stall.delay_ns as f64;
                    stalls = true;
                }
            }
        }
        let run = LaneRun {
            lane,
            trace: traced.then(|| Vec::with_capacity(tasks.len())),
            tasks,
            pools,
            workers,
            node_worker_count,
            started_ns: self.now_ns,
            lead_remaining_ns: lead_ns + dispatch,
            barrier_remaining_ns: None,
            stalls,
            overhead_ns: dispatch,
            nodes_out: vec![NodeOutcome::default(); topo.num_nodes()],
            migrations: 0,
            rng_state: perm_seed ^ 0xD1B54A32D192ED03,
            recorder,
        };
        self.runs.insert(at, run);
    }

    /// Runs until some lane's loop completes, returning `(lane, outcome)`.
    /// Returns `None` if no lane has a loop in flight. The outcome's
    /// makespan spans submission (including the lead) to barrier exit.
    pub fn run_until_next_completion(&mut self) -> Option<(usize, LoopOutcome)> {
        self.step_until(f64::INFINITY)
    }

    /// Runs until some lane's loop completes (`Some`) or the clock reaches
    /// `t_end` (`None`, with `now_ns() == t_end`). An idle machine jumps
    /// straight to `t_end`.
    ///
    /// # Panics
    /// Panics if `t_end` is not finite or lies in the past.
    pub fn run_until_ns(&mut self, t_end: f64) -> Option<(usize, LoopOutcome)> {
        assert!(t_end.is_finite(), "run_until_ns needs a finite deadline");
        assert!(
            t_end >= self.now_ns - EPS,
            "deadline {t_end} is before now {}",
            self.now_ns
        );
        self.step_until(t_end)
    }

    fn step_until(&mut self, t_end: f64) -> Option<(usize, LoopOutcome)> {
        loop {
            if let Some(done) = self.finished.pop_front() {
                return Some(done);
            }
            if self.runs.is_empty() {
                if t_end.is_finite() {
                    self.now_ns = self.now_ns.max(t_end);
                }
                return None;
            }

            // Let every idle worker of every executing lane acquire work
            // (fixed point: batch steals can wake parked peers).
            for lane in &mut self.runs {
                if !lane.executing() {
                    continue;
                }
                let mut parked = false;
                loop {
                    let mut woke = false;
                    for i in 0..lane.workers.len() {
                        if lane.stalls && lane.workers[i].stall_until_ns > self.now_ns + EPS {
                            // Stalled: sits out of the acquire loop; the
                            // event scan below bounds dt by the expiry.
                            continue;
                        }
                        if matches!(lane.workers[i].state, WorkerState::Idle) {
                            woke |= seek(
                                &mut lane.pools,
                                &mut lane.workers,
                                i,
                                self.now_ns,
                                &self.params,
                                &lane.node_worker_count,
                                &mut lane.rng_state,
                                &mut lane.overhead_ns,
                                &mut lane.migrations,
                                lane.recorder.as_mut(),
                            );
                            parked |= matches!(lane.workers[i].state, WorkerState::Parked { .. });
                        }
                    }
                    // Every idle worker has now acquired work or parked,
                    // unless a batch steal woke parked peers.
                    if !woke {
                        break;
                    }
                }
                // Every worker parked ⇒ the lane's work phase is over: close
                // the idle tails and enter the barrier. Only a seek parks a
                // worker, so only a lane where one just parked can get there.
                if parked
                    && lane
                        .workers
                        .iter()
                        .all(|w| matches!(w.state, WorkerState::Parked { .. }))
                {
                    assert!(
                        lane.pools.is_empty(),
                        "deadlock: tasks remain but every worker is parked"
                    );
                    for w in &lane.workers {
                        if let WorkerState::Parked { since } = w.state {
                            lane.overhead_ns += self.now_ns - since;
                        }
                    }
                    // Each worker releases the exit latch at barrier entry.
                    if let Some(recorder) = &mut lane.recorder {
                        for w in &lane.workers {
                            recorder.push(
                                w.core.index() as u32,
                                w.node as u32,
                                self.now_ns as u64,
                                EventKind::LatchRelease,
                            );
                        }
                    }
                    let threads = lane.workers.len();
                    let barrier = self.params.barrier_base_ns * (threads.max(2) as f64).log2();
                    lane.overhead_ns += barrier;
                    lane.barrier_remaining_ns = Some(barrier);
                }
            }

            // Reprice what changed; the next event over all lanes is the
            // earliest of a scheduling action finishing or a chunk
            // completing, a lead, barrier or stall expiring, and the
            // caller's deadline.
            #[cfg(debug_assertions)]
            self.check_pushed_inputs();
            let runs = self.runs.iter().map(|run| &run.workers[..]);
            self.field.aggregate(&self.params, runs);
            let mut dt = f64::INFINITY;
            for lane in &mut self.runs {
                dt = dt.min(self.field.reprice(&mut lane.workers));
                if lane.lead_remaining_ns > 0.0 {
                    dt = dt.min(lane.lead_remaining_ns);
                    continue;
                }
                if let Some(b) = lane.barrier_remaining_ns {
                    dt = dt.min(b);
                    continue;
                }
                if lane.stalls {
                    for w in &lane.workers {
                        if w.stall_until_ns > self.now_ns + EPS {
                            dt = dt.min(w.stall_until_ns - self.now_ns);
                        }
                    }
                }
            }
            let to_deadline = t_end - self.now_ns;
            if to_deadline <= 0.0 {
                // Deadline already reached.
                return None;
            }
            let dt = dt.min(to_deadline);
            assert!(
                dt.is_finite(),
                "colocation machine has busy lanes but no next event"
            );

            self.advance(dt);

            if self.finished.is_empty() && self.now_ns >= t_end - EPS {
                return None;
            }
        }
    }

    /// Pushes every running chunk's machine-side inputs (its core's
    /// occupancy, its node's slowdown and speed) into its flow; a chunk whose
    /// inputs changed is repriced at the next event.
    fn push_inputs(&mut self) {
        for w in self.runs.iter_mut().flat_map(|run| &mut run.workers) {
            if matches!(w.state, WorkerState::Running { .. }) {
                w.flow.set_inputs(
                    self.core_load[w.core.index()],
                    self.node_slowdown[w.node],
                    self.node_speed[w.node],
                );
            }
        }
    }

    /// Debug builds: every running chunk is priced at its core's current
    /// occupancy and its node's current slowdown and speed, as counted
    /// afresh, so a missed push cannot hide behind the dirty-set refresh.
    #[cfg(debug_assertions)]
    fn check_pushed_inputs(&self) {
        let mut load = vec![0usize; self.core_load.len()];
        for w in self.runs.iter().flat_map(|run| &run.workers) {
            if matches!(w.state, WorkerState::Running { .. }) {
                load[w.core.index()] += 1;
            }
        }
        assert_eq!(load, self.core_load, "running-chunk count per core");
        for w in self.runs.iter().flat_map(|run| &run.workers) {
            if matches!(w.state, WorkerState::Running { .. }) {
                let expect = (
                    load[w.core.index()] as f64,
                    self.node_slowdown[w.node],
                    self.node_speed[w.node],
                );
                assert_eq!(w.flow.inputs(), expect, "stale pushed pricing input");
            }
        }
    }

    /// Advances simulated time by `dt`, completing whatever finishes.
    /// Loops whose barrier expires leave `runs` and queue their outcomes in
    /// lane order.
    fn advance(&mut self, dt: f64) {
        self.now_ns += dt;
        let now = self.now_ns;
        let core_bw = self.params.core_bw;
        for lane in &mut self.runs {
            if lane.lead_remaining_ns > 0.0 {
                lane.lead_remaining_ns -= dt;
                if lane.lead_remaining_ns <= EPS {
                    lane.lead_remaining_ns = 0.0;
                }
                continue;
            }
            if let Some(b) = &mut lane.barrier_remaining_ns {
                *b -= dt;
                continue;
            }
            for w in &mut lane.workers {
                let c = w.core.index();
                match &mut w.state {
                    WorkerState::Overhead { remaining_ns, next } => {
                        *remaining_ns -= dt;
                        if *remaining_ns <= EPS {
                            let t = *next;
                            if let Some(recorder) = &mut lane.recorder {
                                recorder.push(
                                    c as u32,
                                    w.node as u32,
                                    now as u64,
                                    EventKind::ChunkStart { chunk: t as u32 },
                                );
                            }
                            begin_chunk(w, &self.params, self.freqs[c], t, &lane.tasks[t]);
                            self.core_load[c] += 1;
                            self.occupancy_moved |= self.core_load[c] > 1;
                            w.flow.set_inputs(
                                self.core_load[c],
                                self.node_slowdown[w.node],
                                self.node_speed[w.node],
                            );
                        }
                    }
                    WorkerState::Running {
                        task,
                        remaining,
                        rate,
                        elapsed_ns,
                    } => {
                        *remaining -= *rate * dt;
                        *elapsed_ns += dt;
                        if *remaining <= EPS {
                            let spec = &lane.tasks[*task];
                            if let Some(trace) = &mut lane.trace {
                                trace.push(TaskRecord {
                                    task: *task,
                                    core: w.core,
                                    start_ns: now - *elapsed_ns,
                                    end_ns: now,
                                });
                            }
                            if let Some(recorder) = &mut lane.recorder {
                                recorder.push(
                                    c as u32,
                                    w.node as u32,
                                    now as u64,
                                    EventKind::ChunkEnd {
                                        chunk: *task as u32,
                                    },
                                );
                            }
                            let node = &mut lane.nodes_out[w.node];
                            node.tasks += 1;
                            node.busy_ns += *elapsed_ns;
                            node.ideal_ns += spec.ideal_ns(core_bw);
                            node.dram_bytes += spec.effective_bytes(NodeId::new(w.node));
                            if spec.home_node.index() == w.node {
                                node.local_tasks += 1;
                            }
                            w.state = WorkerState::Idle;
                            self.core_load[c] -= 1;
                            self.occupancy_moved |= self.core_load[c] > 0;
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.occupancy_moved {
            // Some core's other running chunks now share it with a
            // different number of chunks.
            self.occupancy_moved = false;
            self.push_inputs();
        }
        let num_cores = self.params.topology.num_cores();
        let done = |run: &mut LaneRun| run.barrier_remaining_ns.is_some_and(|b| b <= EPS);
        for run in self.runs.extract_if(.., done) {
            let num_nodes = run.nodes_out.len();
            self.finished.push_back((
                run.lane,
                LoopOutcome {
                    makespan_ns: self.now_ns - run.started_ns,
                    sched_overhead_ns: run.overhead_ns,
                    nodes: run.nodes_out,
                    migrations: run.migrations,
                    threads: run.workers.len(),
                    trace: run.trace.unwrap_or_default(),
                    events: run
                        .recorder
                        .map(|r| r.into_log(num_cores, num_nodes))
                        .unwrap_or_default(),
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimMachine;
    use crate::plan::NodeAssignment;
    use crate::task::Locality;
    use ilan_topology::{presets, NodeMask};

    fn chunked_tasks(n: usize, home: usize, compute: f64, bytes: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| TaskSpec {
                compute_ns: compute,
                mem_bytes: bytes,
                home_node: NodeId::new(home),
                locality: Locality::Chunked,
                data_mask: NodeMask::single(NodeId::new(home)),
                cache_reuse: 0.0,
                fits_l3: false,
            })
            .collect()
    }

    fn node_plan(tasks: usize, node: usize) -> PlacementPlan {
        PlacementPlan::Hierarchical {
            assignments: vec![NodeAssignment {
                node: NodeId::new(node),
                tasks: (0..tasks).collect(),
                strict_count: tasks,
            }],
        }
    }

    fn split_plan(tasks: usize, nodes: usize) -> PlacementPlan {
        let mut assignments = Vec::new();
        for node in 0..nodes {
            let ts: Vec<usize> = (0..tasks).filter(|i| i * nodes / tasks == node).collect();
            let strict = ts.len();
            assignments.push(NodeAssignment {
                node: NodeId::new(node),
                tasks: ts,
                strict_count: strict,
            });
        }
        PlacementPlan::Hierarchical { assignments }
    }

    fn both_home_tasks(n: usize, nodes: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 5_000.0,
                mem_bytes: 50_000.0,
                home_node: NodeId::new(i * nodes / n),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.2,
                fits_l3: true,
            })
            .collect()
    }

    #[test]
    fn single_lane_matches_single_loop_engine() {
        // With one lane, no lead and no noise, a loop started on the
        // colocation machine must reproduce the single-application
        // machine's result bit for bit (one event loop; hierarchical plans
        // are seed-independent, and `start_loop` draws no outlier).
        let topo = presets::tiny_2x4();
        let tasks = both_home_tasks(32, 2);
        let plan = split_plan(32, 2);

        let mut single = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let reference = single.run_taskloop(&cores, &plan, &tasks);

        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
        let lane = colo.add_lane();
        colo.start_loop(lane, &cores, &plan, tasks, 0.0);
        let (done, out) = colo
            .run_until_next_completion()
            .expect("one loop in flight");
        assert_eq!(done, lane);
        assert_eq!(
            out.makespan_ns.to_bits(),
            reference.makespan_ns.to_bits(),
            "colo {} vs sim {}",
            out.makespan_ns,
            reference.makespan_ns
        );
        assert_eq!(
            out.sched_overhead_ns.to_bits(),
            reference.sched_overhead_ns.to_bits()
        );
        assert_eq!(out.tasks_executed(), reference.tasks_executed());
        assert_eq!(out.migrations, reference.migrations);
        assert!(!colo.any_busy());
    }

    #[test]
    fn remote_tenant_congests_shared_controller() {
        // Lane A runs bandwidth-heavy chunks homed on node 0 from node-0
        // cores. Lane B runs on node-1 cores but its data also lives on
        // node 0: its traffic crosses into node 0's controller. A must get
        // slower when B co-runs — the shared interference channel.
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let cores1 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));
        let a_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);
        // B's chunks are homed on node 0 (its data lives there) but a plan
        // pins their execution to node 1: all of B's traffic is remote.
        let b_plan = node_plan(64, 1);
        let b_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), a_tasks(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_shared = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), a_tasks(), 0.0);
            colo.start_loop(b, &cores1, &b_plan, b_tasks(), 0.0);
            loop {
                let (lane, out) = colo.run_until_next_completion().unwrap();
                if lane == a {
                    break out.makespan_ns;
                }
            }
        };
        assert!(
            t_shared > 1.2 * t_alone,
            "co-runner on the same controller must slow lane A: alone={t_alone} shared={t_shared}"
        );
    }

    #[test]
    fn disjoint_partitions_do_not_interfere() {
        // Same co-runner, but B's data and execution are fully on node 1:
        // no shared controller, no shared link, no shared cores ⇒ lane A is
        // unaffected (tiny tolerance for float noise).
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let cores1 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 500.0, 800_000.0),
                0.0,
            );
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_partitioned = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 500.0, 800_000.0),
                0.0,
            );
            colo.start_loop(
                b,
                &cores1,
                &node_plan(64, 1),
                chunked_tasks(64, 1, 500.0, 800_000.0),
                0.0,
            );
            loop {
                let (lane, out) = colo.run_until_next_completion().unwrap();
                if lane == a {
                    break out.makespan_ns;
                }
            }
        };
        assert!(
            (t_partitioned - t_alone).abs() < 1e-6 * t_alone,
            "disjoint partitions must isolate: alone={t_alone} partitioned={t_partitioned}"
        );
    }

    #[test]
    fn oversubscribed_cores_timeshare() {
        // Two compute-bound lanes on the same cores: each runs at roughly
        // half speed, so the pair takes roughly twice as long as one alone.
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let work = || chunked_tasks(64, 0, 200_000.0, 1_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), work(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_both = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), work(), 0.0);
            colo.start_loop(b, &cores0, &node_plan(64, 0), work(), 0.0);
            let mut last = 0.0f64;
            while let Some((_, out)) = colo.run_until_next_completion() {
                last = last.max(out.makespan_ns);
            }
            last
        };
        assert!(
            t_both > 1.6 * t_alone && t_both < 2.4 * t_alone,
            "timesharing should roughly double the makespan: alone={t_alone} both={t_both}"
        );
    }

    #[test]
    fn lead_time_delays_execution() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let run = |lead: f64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            let a = colo.add_lane();
            colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), lead);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let base = run(0.0);
        let delayed = run(50_000.0);
        assert!(
            (delayed - base - 50_000.0).abs() < 1e-6,
            "lead must shift completion 1:1: base={base} delayed={delayed}"
        );
    }

    #[test]
    fn run_until_deadline_stops_short() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let a = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        // A deadline far before completion: no outcome, clock at deadline.
        assert!(colo.run_until_ns(10.0).is_none());
        assert!((colo.now_ns() - 10.0).abs() < 1e-9);
        assert!(colo.lane_busy(a));
        // Finish it.
        let (lane, _) = colo.run_until_next_completion().unwrap();
        assert_eq!(lane, a);
        // Idle machine jumps to the deadline.
        let t = colo.now_ns() + 500.0;
        assert!(colo.run_until_ns(t).is_none());
        assert!((colo.now_ns() - t).abs() < 1e-9);
    }

    #[test]
    fn traced_lanes_audit_clean() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        colo.set_tracing(true);
        let a = colo.add_lane();
        let b = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        colo.start_loop(
            b,
            &cores,
            &PlacementPlan::flat(),
            both_home_tasks(24, 2),
            500.0,
        );
        let mut seen = 0;
        while let Some((_, out)) = colo.run_until_next_completion() {
            seen += 1;
            assert!(!out.events.is_empty(), "traced lane must carry events");
            let expect = ilan_trace::AuditExpect {
                migrations: Some(out.migrations),
                latch_releases: Some(out.threads),
                per_node: Some(
                    out.nodes
                        .iter()
                        .map(|n| ilan_trace::NodeTally {
                            tasks: n.tasks,
                            // Sim locality is defined against data homes,
                            // which the placement-plan event log cannot see.
                            local_tasks: None,
                        })
                        .collect(),
                ),
            };
            let audit = ilan_trace::audit(&out.events, &expect);
            assert!(audit.ok(), "audit violations: {audit}");
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn untraced_lanes_carry_no_events() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        let a = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        let (_, out) = colo.run_until_next_completion().unwrap();
        assert!(out.events.is_empty());
    }

    #[test]
    fn slow_node_stretches_the_lane_running_there() {
        use ilan_faults::{FaultConfig, FaultPlan};
        // Find a seed whose plan slows node 0 and stalls nobody.
        let config = FaultConfig {
            max_slow_nodes: 1,
            max_node_slowdown: 4.0,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| p.node_slowdown(0) > 1.5 && p.stalls().is_empty())
            .expect("some seed slows node 0");
        let factor = plan.node_slowdown(0);

        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 200_000.0, 1_000.0),
                0.0,
            );
            colo.run_until_next_completion().unwrap().1
        };
        let healthy = run(None);
        let slowed = run(Some(plan));
        assert_eq!(healthy.tasks_executed(), slowed.tasks_executed());
        // Compute-bound chunks on a dedicated node: makespan scales almost
        // exactly with the slowdown (overheads are unscaled, hence "almost").
        let ratio = slowed.makespan_ns / healthy.makespan_ns;
        assert!(
            ratio > 0.9 * factor && ratio < 1.1 * factor,
            "slowdown x{factor} should stretch the lane ~x{factor}, got x{ratio}"
        );
    }

    #[test]
    fn stalled_worker_delays_completion_but_loses_no_chunks() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            max_worker_stalls: 1,
            max_stall_ns: 500_000,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| p.stalls().len() == 1 && p.slow_nodes().is_empty())
            .expect("some seed stalls one worker");

        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
            colo.run_until_next_completion().unwrap().1
        };
        let healthy = run(None);
        let stalled = run(Some(plan.clone()));
        assert_eq!(healthy.tasks_executed(), stalled.tasks_executed());
        assert!(
            stalled.makespan_ns >= healthy.makespan_ns,
            "losing a worker for a while cannot speed the loop up: healthy={} stalled={}",
            healthy.makespan_ns,
            stalled.makespan_ns
        );
        // Same plan, same seed: the faulty run replays exactly.
        let replay = run(Some(plan));
        assert_eq!(stalled.makespan_ns, replay.makespan_ns);
        assert_eq!(stalled.migrations, replay.migrations);
    }

    #[test]
    #[should_panic(expected = "out of simulation scope")]
    fn permanent_stalls_are_rejected() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            max_worker_stalls: 1,
            permanent_stalls: true,
            max_stall_ns: 1_000,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(FaultPlan::has_permanent_stall)
            .expect("some seed draws a permanent stall");
        let topo = presets::tiny_2x4();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.set_fault_plan(plan);
    }

    #[test]
    #[should_panic(expected = "unknown lane 2: add_lane has handed out 2 lane(s)")]
    fn lane_busy_rejects_unknown_lanes() {
        let topo = presets::tiny_2x4();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.add_lane();
        colo.add_lane();
        colo.lane_busy(2);
    }

    #[test]
    #[should_panic(expected = "unknown lane 0: add_lane has handed out 0 lane(s)")]
    fn start_loop_rejects_unknown_lanes() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.start_loop(0, &cores, &split_plan(8, 2), both_home_tasks(8, 2), 0.0);
    }

    #[test]
    fn deterministic_across_replays() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let replay = |seed: u64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), seed);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(
                a,
                &cores,
                &PlacementPlan::flat(),
                both_home_tasks(40, 2),
                0.0,
            );
            colo.start_loop(
                b,
                &cores,
                &PlacementPlan::flat(),
                both_home_tasks(24, 2),
                1_000.0,
            );
            let mut trace = Vec::new();
            while let Some((lane, out)) = colo.run_until_next_completion() {
                trace.push((lane, out.makespan_ns, colo.now_ns()));
            }
            trace
        };
        assert_eq!(replay(11), replay(11));
        assert_ne!(replay(11), replay(12), "seed must matter under noise");
    }
}
