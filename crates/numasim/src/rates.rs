//! The shared cost model: traffic shaping, congestion and chunk rates.
//!
//! The simulator prices a running chunk in three steps:
//!
//! 1. when the chunk starts, its DRAM traffic is split into per-node
//!    [`FlowRow`]s from the task's [`Locality`](crate::Locality), and
//!    everything about the chunk that does not depend on the rest of the
//!    machine is precomputed into the worker's reusable [`Flow`];
//! 2. on every event, all running chunks' desired bandwidths are aggregated
//!    into a [`CongestionField`] (per-controller demand, per-socket-pair
//!    link demand, per-controller streaming-flow count) and turned into
//!    congestion factors;
//! 3. each chunk's memory time is inflated by the field's congestion
//!    factors along its traffic rows.
//!
//! Steps 2 and 3 run on every event of the one event loop
//! ([`ColoMachine`](crate::ColoMachine)): [`CongestionField::aggregate`]
//! over the workers of every loop in flight, then
//! [`CongestionField::reprice`] over each loop's workers. A chunk therefore
//! slows down identically whether its competitor belongs to the same
//! taskloop or to another tenant's.
//!
//! The refresh is a *dirty-set* update. Demand is re-aggregated in worker
//! order on every event, so each floating-point sum is formed exactly as a
//! full recomputation would form it. But a chunk's rate is recomputed only
//! if the chunk is fresh or one of the congestion factors its rows read
//! changed bit for bit. Every other chunk would recompute the same bits, so
//! it keeps its rate; debug builds recompute it anyway and assert exactly
//! that.
//!
//! The inputs of a chunk's duration that come from the machine rather than
//! from the field (its core's occupancy, its node's slowdown and speed) are
//! pushed into its [`Flow`] by the machine when they change
//! ([`Flow::set_inputs`], which marks the chunk fresh), so a refresh reads
//! no per-chunk lookup.

use crate::exec::{Worker, WorkerState};
use crate::params::MachineParams;
use crate::task::{Locality, TaskSpec};
use ilan_topology::NodeId;

/// One precomputed traffic row of a running chunk.
#[derive(Clone, Copy, Debug)]
struct FlowRow {
    /// The memory controller (node) the row's traffic targets.
    node: u32,
    /// The socket-pair link the row crosses (`a·sockets + b`, `a < b`), or
    /// [`NO_LINK`] if the target node sits on the chunk's own socket.
    link: u32,
    /// Uncontended demand of the row, `desired_bw · fraction` (bytes/ns).
    bw: f64,
    /// Latency-weighted traffic share, `fraction · latency_factor`. The
    /// latency factor damps the topology distance by the access pattern's
    /// latency sensitivity (prefetchers hide part of the latency for
    /// streaming access).
    weight: f64,
}

/// [`FlowRow::link`] of a row that stays on its socket.
const NO_LINK: u32 = u32::MAX;

/// A running chunk's flow: its traffic rows and the machine-independent
/// terms of its duration, filled once when the chunk starts. Each worker
/// owns one, sized for the machine's node count up front, and reuses it
/// across chunks, so starting a chunk does not allocate.
#[derive(Debug)]
pub(crate) struct Flow {
    rows: Vec<FlowRow>,
    /// Node whose controller counts this chunk as a streaming flow.
    stream_node: usize,
    /// Row-buffer weight of the stream (1 for streaming access, less for
    /// scattered gathers).
    stream_weight: f64,
    /// Compute time on this core, `compute_ns / freq`.
    compute_ns: f64,
    /// Uncontended memory time, `effective_bytes / core_bw`.
    mem_ns: f64,
    /// Nodes the rows read, one bit per node (mod 64).
    node_reads: u64,
    /// Links the rows read, one bit per link index (mod 64).
    link_reads: u64,
    /// Whether the chunk needs repricing: it is new, or a pushed input
    /// changed since its rate was set.
    fresh: bool,
    /// Running chunks on the chunk's core (at least 1). A chunk on a core
    /// with occupancy `n` timeshares it: it progresses at `1/n` of its rate
    /// and issues `1/n` of its traffic.
    occupancy: f64,
    /// `1 / occupancy`, the share of its traffic the chunk issues.
    inv_occupancy: f64,
    /// Multiplier stretching the chunk's duration (a slow node under fault
    /// injection; 1 = healthy).
    slowdown: f64,
    /// Speed factor dividing the chunk's duration (an outlier window on its
    /// node; 1 = nominal).
    speed: f64,
}

/// The bit standing for resource `index` in a 64-bit read set. Indices are
/// folded, so two resources may share a bit; that only ever reprices a chunk
/// needlessly, never skips one.
fn bit(index: usize) -> u64 {
    1 << (index % 64)
}

impl Flow {
    /// An empty flow with room for one row per node.
    pub(crate) fn new(num_nodes: usize) -> Self {
        Flow {
            rows: Vec::with_capacity(num_nodes),
            stream_node: 0,
            stream_weight: 0.0,
            compute_ns: 0.0,
            mem_ns: 0.0,
            node_reads: 0,
            link_reads: 0,
            fresh: true,
            occupancy: 1.0,
            inv_occupancy: 1.0,
            slowdown: 1.0,
            speed: 1.0,
        }
    }

    /// Pushes the chunk's machine-side inputs: `running` chunks on its core,
    /// its node's `slowdown` and `speed`. Marks the chunk fresh if any of
    /// them changed.
    pub(crate) fn set_inputs(&mut self, running: usize, slowdown: f64, speed: f64) {
        let occupancy = running.max(1) as f64;
        if occupancy != self.occupancy || slowdown != self.slowdown || speed != self.speed {
            self.occupancy = occupancy;
            self.inv_occupancy = 1.0 / occupancy;
            self.slowdown = slowdown;
            self.speed = speed;
            self.fresh = true;
        }
    }

    /// The machine-side inputs the chunk is priced at, as
    /// [`set_inputs`](Self::set_inputs) took them.
    #[cfg(debug_assertions)]
    pub(crate) fn inputs(&self) -> (f64, f64, f64) {
        (self.occupancy, self.slowdown, self.speed)
    }

    /// Loads chunk `spec`, about to execute on `exec_node` with a core at
    /// frequency factor `freq`.
    pub(crate) fn start(
        &mut self,
        params: &MachineParams,
        spec: &TaskSpec,
        exec_node: usize,
        freq: f64,
    ) {
        let topo = &params.topology;
        let exec = NodeId::new(exec_node);
        let desired_bw = desired_bandwidth(spec, exec, params.core_bw);
        let sens = spec.locality.latency_sensitivity();
        let sockets = topo.num_sockets();
        let s_from = topo.socket_of_node(exec).index();
        self.rows.clear();
        self.node_reads = 0;
        self.link_reads = 0;
        for k in 0..topo.num_nodes() {
            let node = NodeId::new(k);
            let frac = spec
                .locality
                .traffic_fraction(spec.home_node, spec.data_mask, node);
            if frac > 0.0 {
                let lat = 1.0 + sens * (topo.distances().latency_factor(exec, node) - 1.0);
                let s_to = topo.socket_of_node(node).index();
                self.node_reads |= bit(k);
                let link = if s_from == s_to {
                    NO_LINK
                } else {
                    let l = s_from.min(s_to) * sockets + s_from.max(s_to);
                    self.link_reads |= bit(l);
                    l as u32
                };
                self.rows.push(FlowRow {
                    node: k as u32,
                    link,
                    bw: desired_bw * frac,
                    weight: frac * lat,
                });
            }
        }
        self.stream_node = spec.home_node.index();
        self.stream_weight = match spec.locality {
            Locality::Chunked => 1.0,
            Locality::Scattered { spread } => 1.0 - spread,
        };
        self.compute_ns = spec.compute_ns / freq;
        self.mem_ns = spec.effective_bytes(exec) / params.core_bw;
        self.fresh = true;
    }
}

/// The chunk's uncontended DRAM bandwidth demand in bytes/ns: its effective
/// bytes streamed over its ideal duration.
fn desired_bandwidth(spec: &TaskSpec, exec_node: NodeId, core_bw: f64) -> f64 {
    let ideal = spec.ideal_ns(core_bw);
    if ideal > 0.0 {
        spec.effective_bytes(exec_node) / ideal
    } else {
        0.0
    }
}

/// Aggregated bandwidth demand and the congestion factors derived from it.
///
/// Usage per event: [`aggregate`](Self::aggregate) every running chunk on
/// the machine (across *all* loops sharing it, always in the same order),
/// then [`reprice`](Self::reprice) each loop's workers, which yields the
/// time to the next chunk or scheduling-action completion.
pub(crate) struct CongestionField {
    /// Per-node DRAM demand, bytes/ns.
    demand: Vec<f64>,
    /// Per socket-pair link demand (row-major `s × s`, only `i<j` entries
    /// used).
    link_demand: Vec<f64>,
    /// Per-node streaming-flow weight (row-buffer interference).
    streams: Vec<f64>,
    /// Per-node congestion factor.
    node_cong: Vec<f64>,
    /// Per socket-pair link congestion factor.
    link_cong: Vec<f64>,
    /// Nodes whose factor changed in the last finalize (one bit per node,
    /// mod 64).
    changed_nodes: u64,
    /// Links whose factor changed in the last finalize (mod 64).
    changed_links: u64,
}

impl CongestionField {
    pub(crate) fn new(num_nodes: usize, num_sockets: usize) -> Self {
        CongestionField {
            demand: vec![0.0; num_nodes],
            link_demand: vec![0.0; num_sockets * num_sockets],
            streams: vec![0.0; num_nodes],
            node_cong: vec![1.0; num_nodes],
            link_cong: vec![1.0; num_sockets * num_sockets],
            changed_nodes: 0,
            changed_links: 0,
        }
    }

    /// Re-aggregates demand over every running chunk of `crews`, visited
    /// in order, and updates the congestion factors.
    pub(crate) fn aggregate<'a>(
        &mut self,
        params: &MachineParams,
        crews: impl IntoIterator<Item = &'a [Worker]>,
    ) {
        self.demand.iter_mut().for_each(|d| *d = 0.0);
        self.link_demand.iter_mut().for_each(|d| *d = 0.0);
        self.streams.iter_mut().for_each(|d| *d = 0.0);
        for workers in crews {
            for w in workers {
                if matches!(w.state, WorkerState::Running { .. }) {
                    self.add(&w.flow);
                }
            }
        }
        self.finalize(params);
    }

    /// Reprices the running chunks of `workers` that are fresh or read a
    /// factor the last [`aggregate`](Self::aggregate) changed, and returns
    /// the smallest time to completion over the busy workers (`remaining /
    /// rate` of running chunks, the remaining time of scheduling actions;
    /// infinite if none is busy).
    pub(crate) fn reprice(&self, workers: &mut [Worker]) -> f64 {
        let mut dt = f64::INFINITY;
        for w in workers {
            let t = match &mut w.state {
                WorkerState::Overhead { remaining_ns, .. } => *remaining_ns,
                WorkerState::Running {
                    remaining, rate, ..
                } => {
                    let flow = &mut w.flow;
                    if flow.fresh
                        || flow.node_reads & self.changed_nodes != 0
                        || flow.link_reads & self.changed_links != 0
                    {
                        *rate = self.rate(flow);
                        flow.fresh = false;
                    } else {
                        debug_assert_eq!(
                            self.rate(flow).to_bits(),
                            rate.to_bits(),
                            "dirty-set refresh kept a stale rate"
                        );
                    }
                    if *rate > 0.0 {
                        *remaining / *rate
                    } else {
                        f64::INFINITY
                    }
                }
                _ => f64::INFINITY,
            };
            dt = dt.min(t);
        }
        dt
    }

    /// Adds one running chunk's demand, discounted by its core share
    /// (timeshared execution under oversubscription issues proportionally
    /// less traffic; a dedicated core's share is 1).
    fn add(&mut self, flow: &Flow) {
        let scale = flow.inv_occupancy;
        self.streams[flow.stream_node] += flow.stream_weight * scale;
        for row in &flow.rows {
            let bw = row.bw * scale;
            self.demand[row.node as usize] += bw;
            if row.link != NO_LINK {
                self.link_demand[row.link as usize] += bw;
            }
        }
    }

    /// Converts accumulated demand into congestion factors, recording which
    /// factors changed bit for bit.
    fn finalize(&mut self, params: &MachineParams) {
        let beta = params.overload_beta;
        let cong = |demand: f64, bw: f64| -> f64 {
            let util = demand / bw;
            if util <= 1.0 {
                1.0
            } else {
                util * (1.0 + beta * (util - 1.0))
            }
        };
        let kappa = params.stream_kappa;
        let base = params.stream_base;
        self.changed_nodes = 0;
        for (k, (out, (&d, &st))) in self
            .node_cong
            .iter_mut()
            .zip(self.demand.iter().zip(&self.streams))
            .enumerate()
        {
            let stream_factor = 1.0 + kappa * (st - base).max(0.0);
            let c = cong(d, params.node_bw) * stream_factor;
            if c.to_bits() != out.to_bits() {
                self.changed_nodes |= bit(k);
                *out = c;
            }
        }
        self.changed_links = 0;
        for (l, (out, &d)) in self.link_cong.iter_mut().zip(&self.link_demand).enumerate() {
            let c = cong(d, params.link_bw);
            if c.to_bits() != out.to_bits() {
                self.changed_links |= bit(l);
                *out = c;
            }
        }
    }

    /// A chunk's progress rate (fraction of the chunk per ns) against the
    /// current factors. Its memory time is inflated by the
    /// congestion-weighted latency penalty of its rows (never below 1);
    /// cross-socket rows pay the worse of the target controller's and the
    /// link's congestion. The duration is then stretched by the core's
    /// occupancy and the node's slowdown, and shrunk by an outlier window's
    /// speed factor.
    fn rate(&self, flow: &Flow) -> f64 {
        let mut penalty = 0.0;
        for row in &flow.rows {
            let mut c = self.node_cong[row.node as usize];
            if row.link != NO_LINK {
                c = c.max(self.link_cong[row.link as usize]);
            }
            penalty += row.weight * c;
        }
        let duration =
            (flow.compute_ns + flow.mem_ns * penalty.max(1.0)) * flow.occupancy * flow.slowdown
                / flow.speed;
        if duration > 0.0 {
            1.0 / duration
        } else {
            f64::INFINITY
        }
    }
}
