//! Micro-benchmarks of the simulator's event loop itself (real wall time):
//! how fast it retires simulated chunks, for single `SimMachine`
//! invocations under each placement plan and for a two-lane colocation
//! machine. Useful when extending the memory model — regressions
//! here multiply across the whole reproduction harness.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ilan_numasim::{
    ColoMachine, Locality, MachineParams, NodeAssignment, PlacementPlan, SimMachine, TaskSpec,
};
use ilan_topology::{presets, NodeId, NodeMask};
use std::time::Duration;

fn tasks(n: usize, nodes: usize, scattered: bool) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec {
            compute_ns: 20_000.0,
            mem_bytes: 400_000.0,
            home_node: NodeId::new(i * nodes / n),
            locality: if scattered {
                Locality::Scattered { spread: 0.8 }
            } else {
                Locality::Chunked
            },
            data_mask: NodeMask::first_n(nodes),
            cache_reuse: 0.2,
            fits_l3: true,
        })
        .collect()
}

/// ILAN's shape: each chunk queued on its home node, half of each node's
/// queue NUMA-strict and the rest stealable.
fn hierarchical(n: usize, nodes: usize) -> PlacementPlan {
    PlacementPlan::Hierarchical {
        assignments: (0..nodes)
            .map(|node| {
                let tasks: Vec<usize> = (0..n).filter(|i| i * nodes / n == node).collect();
                NodeAssignment {
                    node: NodeId::new(node),
                    strict_count: tasks.len() / 2,
                    tasks,
                }
            })
            .collect(),
    }
}

fn engine_throughput(c: &mut Criterion) {
    let topo = presets::epyc_9354_2s();
    let nodes = topo.num_nodes();
    let mut group = c.benchmark_group("sim-engine");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4));
    for (name, scattered) in [("chunked", false), ("scattered", true)] {
        for chunks in [256usize, 2048] {
            let specs = tasks(chunks, nodes, scattered);
            let plans = [
                ("flat", PlacementPlan::flat()),
                ("hier", hierarchical(chunks, nodes)),
                ("static", PlacementPlan::worksharing()),
            ];
            group.throughput(Throughput::Elements(chunks as u64));
            for (plan_name, plan) in &plans {
                group.bench_function(format!("{name}/{plan_name}/{chunks}-chunks"), |b| {
                    let cores = topo.cpuset_of_mask(topo.all_nodes());
                    b.iter(|| {
                        let mut m =
                            SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
                        m.run_taskloop(&cores, plan, &specs).tasks_executed()
                    })
                });
            }
        }
    }
    group.finish();
}

/// Two lanes on one colocation machine: a chunked hierarchical loop on the
/// whole machine and a scattered flat loop on the first socket, so half the
/// cores are timeshared and both lanes' traffic meets on the shared
/// controllers.
fn colo_throughput(c: &mut Criterion) {
    let topo = presets::epyc_9354_2s();
    let nodes = topo.num_nodes();
    let chunks = 1024;
    let mut group = c.benchmark_group("sim-colo");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4));
    group.throughput(Throughput::Elements(2 * chunks as u64));
    group.bench_function(format!("two-lane/{chunks}-chunks-each"), |b| {
        let all = topo.cpuset_of_mask(topo.all_nodes());
        let socket0 = topo.cpuset_of_mask(NodeMask::first_n(nodes / 2));
        let plan = hierarchical(chunks, nodes);
        b.iter(|| {
            let mut m = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
            let a = m.add_lane();
            let b = m.add_lane();
            m.start_loop(a, &all, &plan, tasks(chunks, nodes, false), 0.0);
            m.start_loop(
                b,
                &socket0,
                &PlacementPlan::flat(),
                tasks(chunks, nodes, true),
                0.0,
            );
            let mut done = 0;
            while let Some((_, out)) = m.run_until_next_completion() {
                done += out.tasks_executed();
            }
            done
        })
    });
    group.finish();
}

criterion_group!(benches, engine_throughput, colo_throughput);
criterion_main!(benches);
