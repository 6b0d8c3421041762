//! Bit-exact golden outcomes of the simulator.
//!
//! The fluid simulator promises byte-identical figures across refactors of the
//! rate machinery, so these tests pin the raw IEEE-754 bits of every float a
//! run reports (`makespan_ns`, `sched_overhead_ns`, per-node `busy_ns`) for
//! fixed seeds. A change that reorders a floating-point sum or reprices a
//! chunk it should not have touched shows up here as a bit difference, long
//! before it would move a rounded figure.
//!
//! If the cost model changes *on purpose*, regenerate the tables: run the
//! failing test and copy the `left` side of the assertion into its table.

use ilan_faults::{FaultConfig, FaultPlan};
use ilan_numasim::{
    ColoMachine, Locality, LoopOutcome, MachineParams, NodeAssignment, NoiseParams, PlacementPlan,
    SimMachine, TaskSpec,
};
use ilan_topology::{presets, CpuSet, NodeId, NodeMask, Topology};

/// Home node of chunk `i` of `n`: a quadratic split that puts most chunks
/// on the low nodes, so stealable plans migrate work.
fn home(i: usize, n: usize, nodes: usize) -> usize {
    i * i * nodes / (n * n)
}

/// Chunks homed by [`home`]; every fourth chunk is three times heavier.
fn tasks(n: usize, nodes: usize, locality: Locality) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let heavy = if i % 4 == 0 { 3.0 } else { 1.0 };
            TaskSpec {
                compute_ns: 8_000.0 * heavy,
                mem_bytes: 300_000.0 * heavy,
                home_node: NodeId::new(home(i, n, nodes)),
                locality,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.25,
                fits_l3: i % 3 != 0,
            }
        })
        .collect()
}

fn hierarchical(n: usize, nodes: usize, strict: bool) -> PlacementPlan {
    PlacementPlan::Hierarchical {
        assignments: (0..nodes)
            .map(|node| {
                let ts: Vec<usize> = (0..n).filter(|&i| home(i, n, nodes) == node).collect();
                let strict_count = if strict { ts.len() } else { ts.len() / 4 };
                NodeAssignment {
                    node: NodeId::new(node),
                    tasks: ts,
                    strict_count,
                }
            })
            .collect(),
    }
}

fn line(label: &str, out: &LoopOutcome) -> String {
    let busy: Vec<String> = out
        .nodes
        .iter()
        .map(|n| format!("{:016x}", n.busy_ns.to_bits()))
        .collect();
    format!(
        "{label} makespan={:016x} overhead={:016x} busy={}",
        out.makespan_ns.to_bits(),
        out.sched_overhead_ns.to_bits(),
        busy.join(",")
    )
}

/// Default noise, plus outlier windows frequent enough that some
/// invocations below run with a slowed node.
fn noisy(topo: &Topology) -> MachineParams {
    let mut params = MachineParams::for_topology(topo);
    params.noise = NoiseParams {
        outlier_prob: 0.5,
        ..NoiseParams::default()
    };
    params
}

fn sim_lines(topo: &Topology, n: usize, seed: u64) -> Vec<String> {
    let nodes = topo.num_nodes();
    let all = topo.cpuset_of_mask(topo.all_nodes());
    // Every node but the last, so flat and static plans leave some homes
    // without a local worker.
    let most = topo.cpuset_of_mask(NodeMask::first_n(nodes - 1));
    let plans = [
        ("flat", PlacementPlan::flat(), &all),
        ("hier-strict", hierarchical(n, nodes, true), &all),
        ("hier-steal", hierarchical(n, nodes, false), &all),
        ("static", PlacementPlan::worksharing(), &all),
        ("flat-partial", PlacementPlan::flat(), &most),
    ];
    let mut m = SimMachine::new(noisy(topo), seed);
    let mut lines = Vec::new();
    for (loc_name, locality) in [
        ("chunked", Locality::Chunked),
        ("scattered", Locality::Scattered { spread: 0.6 }),
    ] {
        let specs = tasks(n, nodes, locality);
        for (plan_name, plan, cores) in &plans {
            let out = m.run_taskloop(cores, plan, &specs);
            lines.push(line(&format!("{loc_name}/{plan_name}"), &out));
        }
    }
    // The traced path prices chunks identically, and its chunk records and
    // event log are pinned by hash.
    let out = m.run_taskloop_traced(&all, &plans[2].1, &tasks(n, nodes, Locality::Chunked));
    lines.push(format!(
        "{} trace={:016x} events={:016x}",
        line("traced/hier-steal", &out),
        trace_hash(&out),
        events_hash(&out)
    ));
    lines
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf29ce484222325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    })
}

/// Hash of the per-chunk records: task, core and the bits of both times.
fn trace_hash(out: &LoopOutcome) -> u64 {
    fnv(out.trace.iter().flat_map(|r| {
        [
            r.task as u64,
            r.core.index() as u64,
            r.start_ns.to_bits(),
            r.end_ns.to_bits(),
        ]
    }))
}

/// Hash of the scheduler event log, every field of every event in order.
fn events_hash(out: &LoopOutcome) -> u64 {
    fnv(out.events.iter().flat_map(|e| {
        let kind = format!("{:?}", e.kind);
        [
            e.seq,
            e.worker as u64,
            e.node as u64,
            e.time_ns,
            fnv(kind.bytes().map(u64::from)),
        ]
    }))
}

const TINY: &[&str] = &[
    "chunked/flat makespan=4114a66ff626aea6 overhead=411a67c381e7684a busy=412ffd82e2827cce,413213979a9244d4",
    "chunked/hier-strict makespan=41236c9da95e32c3 overhead=41426a49aada8cb6 busy=414130a13917fe5e,4117702b764ed37e",
    "chunked/hier-steal makespan=4119ee19488bfc6f overhead=412085f25479145c busy=413619066b709c54,4134df9cfb6ad25c",
    "chunked/static makespan=4122bd6cc354f9e9 overhead=4141bc1fd10b3200 busy=4126aa8559467aeb,413c08dabe9a4631",
    "chunked/flat-partial makespan=41192020704b914b overhead=40f2063acfb2d1d4 busy=4137bfe8c350642f,0000000000000000",
    "scattered/flat makespan=4119ce6d93281581 overhead=4120a44f7a45b3f7 busy=4134dbc8dca0e86b,4135ce548c8c689d",
    "scattered/hier-strict makespan=4114a8303db136b9 overhead=412f59c39f63af38 busy=413222fdce1ce0f8,411b7fab764ed37d",
    "scattered/hier-steal makespan=411054745d560f9d overhead=41165583169846bf busy=412bcd5c1dd9b508,41291887cc32660d",
    "scattered/static makespan=411f78b6dcb37c70 overhead=41348c5938294ddd busy=413bd5faa5a8ec27,412cdf87b7297db2",
    "scattered/flat-partial makespan=411ccb80704b9148 overhead=40ecb0759f65a388 busy=413ba628c350642a,0000000000000000",
    "traced/hier-steal makespan=4117f3dda7577a65 overhead=412e7bddcd455e18 busy=412c7d4ff0f1ac25,4131ca8e6f936fab trace=c52b3b1ba3d1cd41 events=5479f840fe828aa8",
];

const EPYC: &[&str] = &[
    "chunked/flat makespan=415fcb46de29471c overhead=41811877a4274866 busy=418c073da0b5ddae,418ea67bb025a2ed,418ec15179af6b86,418ea0e1d80cd060,418bdb135ecf5d46,418caab2ffc1ac8d,418cdbd866de5057,418eea9d851bd9ce",
    "chunked/hier-strict makespan=411e3a9c7f3c3798 overhead=4171b85bf7b8716d busy=414ab467406a839a,4147418584353d68,41310c435fa0aa91,412bbeb7ee098539,41265ca829da1c64,4125b4bcb582357a,4123346fcdb8c94d,4121edb28399cbaf",
    "chunked/hier-steal makespan=415a4a1fbb399509 overhead=41882beb5123211b busy=4186be06d2a67280,4184ca22ac660065,418702e0e21301ec,4187e4601c7edae3,4189c99c6284d229,4186e44d57b584c7,4186be491ec44883,418763ded20c9806",
    "chunked/static makespan=413948e62d97b103 overhead=418bfe9d68f6a80c busy=4166de6adf6926cc,41693cc5278da486,416668b1d3ddfb6d,4140f951bbf3f92b,41515408c754b303,41343f1490539539,41309c128b90f46d,412ece2b7ea38241",
    "chunked/flat-partial makespan=4155a9e01b638074 overhead=417952d224ec048e busy=418317808dc4d9b8,41850bae1bd54dfe,418411009dcfba99,4183fb4c769dd1d5,418321bf388c9b69,4182aa0b2bf1ea1e,418438780e13d4ba,0000000000000000",
    "scattered/flat makespan=4120e65d510da6cd overhead=4147eac2d876a8b2 busy=414c27f85a2cf1f6,414b095a2ef1f197,414bbe90f1924608,414d7ac45b6d81d4,414e08e99a3b1949,414da81c4076f629,414ec54d017c093a,414d40b18616fff5",
    "scattered/hier-strict makespan=411cb6e3b3e13b0a overhead=41710b6f4f3d1c84 busy=4148d249c9003c5d,4134cc53e2ad4bec,41316ec6afb3cc3a,412d056e6d64bc34,41288301cb336db8,41276869acf08ebf,4135c079480a08f2,4123d7cbd623e46a",
    "scattered/hier-steal makespan=41214930bc416ffa overhead=41598c60f7951000 busy=4149d2884e28548e,414afd4ed1da7fae,414878cc0bfb8243,41493f9becaeeee0,414b5823baa70d0c,414a5cb578254558,414b8de5557752ca,414b55e633fbf50a",
    "scattered/static makespan=411425b7c5bcb58f overhead=414780b46e0313f1 busy=4141d57d1cc18cbe,4143ec683a37f50f,414348e1452928fa,413ddf2bf6eaef07,4141f42614e9db33,4140e3dd8645e192,413e90fc7da37227,413c628a9c9200c5",
    "scattered/flat-partial makespan=411c9edafc162963 overhead=41543f1254226cb7 busy=4143faedbbaf8e02,41451191ca732d53,4143fed374ac6f74,4144b417a2a1b83d,4145342186ddc719,41465daf218f45a0,414609052bf130cd,0000000000000000",
    "traced/hier-steal makespan=4158d609751cd6aa overhead=418098976849643c busy=4186cc7917f216bb,41853770b148d949,41867860f8f7fdba,4186caa943160ed7,4186f50918402082,4186eff6f4600ac4,4186d1872d452e89,418734a2a16efaac trace=c2c35802ba2cc608 events=2612ee47b7e98bf3",
];

const COLO: &[&str] = &[
    "lane0 makespan=412a253d4e842242 overhead=4128534ea3e8e0cb busy=41445a27dfbaf1e6,41472a5714531a6c",
    "now=412a253d4e842242",
    "lane1 makespan=412ee27839cdcc50 overhead=40ea5322827939a0 busy=0000000000000000,414bfe2cafc3e76d",
    "now=412ee27839cdcc50",
    "lane0 makespan=41240ac41bd0e336 overhead=41345d1f4f79e400 busy=413c792821d8d33d,413a52b8fdf0d5a0",
    "now=4139769e2acf57c3",
    "lane1 makespan=412c14a3adef9d2a overhead=4145168e70b61618 busy=4143fa3166f01758,4139801f087219cb",
    "now=413d7b8df3deb4bd",
];

#[test]
fn sim_machine_tiny_2x4_bits() {
    let got = sim_lines(&presets::tiny_2x4(), 48, 0x11A4);
    assert_eq!(got, TINY);
}

#[test]
fn sim_machine_epyc_9354_2s_bits() {
    let got = sim_lines(&presets::epyc_9354_2s(), 256, 0x11A5);
    assert_eq!(got, EPYC);
}

/// Two lanes timesharing cores (occupancy 2 wherever both run: node 1's
/// cores in the first round, every core in the second), one of them
/// starting after a lead, under a `sim_safe` fault plan that slows at least
/// one node and stalls a worker.
#[test]
fn colo_machine_oversubscribed_slow_node_bits() {
    let topo = presets::tiny_2x4();
    let workers = topo.num_cores() as u32;
    let plan = (1..)
        .map(|s| FaultPlan::new(s, workers, topo.num_nodes() as u32, FaultConfig::sim_safe()))
        .find(|p| !p.slow_nodes().is_empty() && !p.stalls().is_empty())
        .expect("some seed slows a node and stalls a worker");
    let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 9);
    colo.set_fault_plan(plan);
    let all = topo.cpuset_of_mask(topo.all_nodes());
    let node1: CpuSet = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));
    let a = colo.add_lane();
    let b = colo.add_lane();
    colo.start_loop(
        a,
        &all,
        &hierarchical(64, 2, false),
        tasks(64, 2, Locality::Chunked),
        0.0,
    );
    colo.start_loop(
        b,
        &node1,
        &PlacementPlan::flat(),
        tasks(40, 2, Locality::Scattered { spread: 0.5 }),
        3_000.0,
    );
    let mut lines = Vec::new();
    while let Some((lane, out)) = colo.run_until_next_completion() {
        lines.push(line(&format!("lane{lane}"), &out));
        lines.push(format!("now={:016x}", colo.now_ns().to_bits()));
        if lines.len() == 4 {
            // Second round: the same lanes again, now both on every core.
            colo.start_loop(
                a,
                &all,
                &PlacementPlan::flat(),
                tasks(32, 2, Locality::Chunked),
                0.0,
            );
            colo.start_loop(
                b,
                &all,
                &PlacementPlan::worksharing(),
                tasks(32, 2, Locality::Scattered { spread: 0.9 }),
                0.0,
            );
        }
    }
    assert_eq!(lines, COLO);
}

const SPARSE: &[&str] = &[
    "lane0 makespan=41119bf12261c0c2 overhead=412b385d3ee5f502 busy=4123c5db1750fcb6,412708f03350114e",
    "now=41119bf12261c0c2",
    "lane2 makespan=4118c4b9f5dab2ec overhead=4113d2145603954f busy=413388f0e059cd9a,0000000000000000",
    "now=4118c4b9f5dab2ec",
    "lane3 makespan=411fe72de5d0f0ed overhead=41230c1fb5f1fafe busy=4139a0921789d0c3,413c0f93d91f139a",
    "now=411fe72de5d0f0ed",
    "lane0 makespan=410d2c59f5839ed0 overhead=412008a4af806a9b busy=4129c6c61e2203a7,411f33fa3ac99ed2",
    "now=4120190f0e91c815",
    "lane5 makespan=412726d700a635a6 overhead=40f2fbc602c56478 busy=0000000000000000,41465f6ed0900a87",
    "now=412726d700a635a6",
];

/// Six lanes, two of them (1 and 4) never started. Loops start on high ids
/// first with staggered leads, and the first low id to finish is restarted
/// while higher ids are still in flight, as the server's retry path does.
#[test]
fn colo_machine_sparse_reused_lanes_bits() {
    let topo = presets::tiny_2x4();
    let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 13);
    let lanes: Vec<usize> = (0..6).map(|_| colo.add_lane()).collect();
    let all = topo.cpuset_of_mask(topo.all_nodes());
    let node0: CpuSet = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
    let node1: CpuSet = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));
    colo.start_loop(
        lanes[5],
        &node1,
        &PlacementPlan::flat(),
        tasks(48, 2, Locality::Chunked),
        2_000.0,
    );
    colo.start_loop(
        lanes[3],
        &all,
        &hierarchical(40, 2, false),
        tasks(40, 2, Locality::Scattered { spread: 0.5 }),
        500.0,
    );
    colo.start_loop(
        lanes[2],
        &node0,
        &PlacementPlan::worksharing(),
        tasks(16, 2, Locality::Chunked),
        4_000.0,
    );
    colo.start_loop(
        lanes[0],
        &all,
        &PlacementPlan::flat(),
        tasks(12, 2, Locality::Scattered { spread: 0.8 }),
        0.0,
    );
    let mut restarted = false;
    let mut lines = Vec::new();
    while let Some((lane, out)) = colo.run_until_next_completion() {
        lines.push(line(&format!("lane{lane}"), &out));
        lines.push(format!("now={:016x}", colo.now_ns().to_bits()));
        if !restarted && lane < lanes[3] {
            assert!(colo.lane_busy(lanes[3]) && colo.lane_busy(lanes[5]));
            colo.start_loop(
                lane,
                &all,
                &hierarchical(24, 2, true),
                tasks(24, 2, Locality::Chunked),
                1_000.0,
            );
            restarted = true;
        }
    }
    assert!(restarted, "a low lane finished while high lanes ran");
    assert!(!colo.lane_busy(lanes[1]) && !colo.lane_busy(lanes[4]));
    assert_eq!(lines, SPARSE);
}
