//! `overhead` — runtime dispatch-overhead microbenchmarks.
//!
//! Measures what the dispatch-arena and targeted-wakeup work actually bought,
//! on the paper's 8-node EPYC preset (oversubscribed on small CI machines —
//! `PinMode::Never`; the *relative* numbers are what matter):
//!
//! 1. **Launch latency vs node-mask width** — a trivial-body hierarchical
//!    taskloop confined to 1/2/4/8 of the 8 nodes, under both wake modes.
//!    [`WakeMode::Broadcast`] is the pre-arena baseline (wake all 64 workers
//!    per launch); [`WakeMode::Targeted`] wakes only the masked workers.
//! 2. **Steal throughput** — single-iteration chunks over the full machine,
//!    [`StealPolicy::Strict`] vs [`StealPolicy::Full`].
//! 3. **Warm vs cold** — first invocation on a fresh pool (arena growth,
//!    ring allocation) vs the steady state the zero-allocation test pins.
//!
//! Writes machine-readable JSON (default `BENCH_runtime_overhead.json`,
//! repo-root relative when run via `cargo run`). Always exits 0 unless the
//! runtime itself panics: this is a measurement, not a gate.
//!
//! ```text
//! cargo run --release -p ilan-bench --bin overhead -- [--quick] [--out PATH]
//! ```

use ilan_bench::obs::percentiles;
use ilan_runtime::{
    ExecMode, Grain, LoopReport, PinMode, PoolConfig, StealPolicy, ThreadPool, WakeMode,
};
use ilan_topology::{presets, NodeMask};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: overhead [--quick] [--out PATH]");
    std::process::exit(2);
}

/// Times `reps` runs of a trivial-body taskloop on a warm pool.
fn time_launches(
    pool: &ThreadPool,
    len: usize,
    grain: Grain,
    mode: &ExecMode,
    reps: usize,
) -> Vec<u64> {
    let sink = AtomicUsize::new(0);
    let body = |r: std::ops::Range<usize>| {
        sink.fetch_add(std::hint::black_box(r.len()), Ordering::Relaxed);
    };
    let mut report = LoopReport::default();
    // Warm-up: reach the arena's steady state before the clock starts.
    for _ in 0..reps.div_ceil(4).max(3) {
        pool.taskloop_into(0..len, grain, mode.clone(), body, &mut report);
    }
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            pool.taskloop_into(0..len, grain, mode.clone(), body, &mut report);
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

struct LatencyRow {
    wake: &'static str,
    mask_nodes: usize,
    workers: usize,
    p10: u64,
    median: u64,
    p90: u64,
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_runtime_overhead.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(p) => out = p,
                None => usage(),
            },
            _ => usage(),
        }
    }
    let reps = if quick { 40 } else { 200 };
    let topo = presets::epyc_9354_2s();
    let num_nodes = topo.num_nodes();
    let cores_per_node = topo.num_cores() / num_nodes;

    // ---- 1. Launch latency vs mask width, Targeted vs Broadcast ----------
    eprintln!(
        "launch latency ({reps} reps per point, {} workers) ...",
        topo.num_cores()
    );
    let mut latency: Vec<LatencyRow> = Vec::new();
    for (wake, name) in [
        (WakeMode::Targeted, "targeted"),
        (WakeMode::Broadcast, "broadcast"),
    ] {
        // inline_threshold(0): the narrow masks use short ranges that would
        // otherwise take the sequential inline path — this section measures
        // the *dispatch* path. The inline path is measured separately below.
        let pool = ThreadPool::new(
            PoolConfig::new(topo.clone())
                .pin(PinMode::Never)
                .wake(wake)
                .inline_threshold(0),
        )
        .expect("pool");
        for width in [1usize, 2, 4, 8] {
            let mode = ExecMode::Hierarchical {
                mask: NodeMask::first_n(width),
                threads: 0,
                strict_fraction: 1.0,
                policy: StealPolicy::Strict,
            };
            // Two chunks per masked worker: enough to occupy everyone the
            // dispatcher wakes, small enough that wakeup cost dominates.
            let len = 2 * width * cores_per_node;
            let mut ns = time_launches(&pool, len, Grain::Size(1), &mode, reps);
            let (p10, median, p90) = percentiles(&mut ns);
            eprintln!("  {name:9} mask={width} median {median} ns");
            latency.push(LatencyRow {
                wake: name,
                mask_nodes: width,
                workers: width * cores_per_node,
                p10,
                median,
                p90,
            });
        }
    }
    let median_of = |wake: &str, width: usize| {
        latency
            .iter()
            .find(|r| r.wake == wake && r.mask_nodes == width)
            .map(|r| r.median)
            .unwrap_or(0)
    };

    // ---- 1b. Inline fast path vs dispatch for a tiny loop ----------------
    eprintln!("inline fast path ...");
    let inline_pool =
        ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
    let dispatch_pool = ThreadPool::new(
        PoolConfig::new(topo.clone())
            .pin(PinMode::Never)
            .inline_threshold(0),
    )
    .expect("pool");
    let tiny_mode = ExecMode::Hierarchical {
        mask: NodeMask::first_n(1),
        threads: 0,
        strict_fraction: 1.0,
        policy: StealPolicy::Strict,
    };
    let mut ns = time_launches(&inline_pool, 16, Grain::Size(4), &tiny_mode, reps);
    let (_, inline_median, _) = percentiles(&mut ns);
    let mut ns = time_launches(&dispatch_pool, 16, Grain::Size(4), &tiny_mode, reps);
    let (_, tiny_dispatch_median, _) = percentiles(&mut ns);
    eprintln!("  inline {inline_median} ns, dispatch {tiny_dispatch_median} ns");

    // ---- 2. Steal throughput, Strict vs Full -----------------------------
    eprintln!("steal throughput ...");
    let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
    let chunks = if quick { 2_048 } else { 8_192 };
    let mut throughput = Vec::new();
    for (policy, name) in [(StealPolicy::Strict, "strict"), (StealPolicy::Full, "full")] {
        let mode = ExecMode::Hierarchical {
            mask: topo.all_nodes(),
            threads: 0,
            strict_fraction: 0.5,
            policy,
        };
        let mut ns = time_launches(&pool, chunks, Grain::Size(1), &mode, reps.div_ceil(4));
        let (_, median, _) = percentiles(&mut ns);
        let per_sec = chunks as f64 / (median as f64 / 1e9);
        eprintln!("  {name:6} {per_sec:.0} chunks/s");
        throughput.push((name, median, per_sec));
    }

    // ---- 3. Warm vs cold -------------------------------------------------
    eprintln!("warm vs cold ...");
    let shape_len = 8 * topo.num_cores();
    let cold_reps = if quick { 3 } else { 8 };
    let mut cold: Vec<u64> = (0..cold_reps)
        .map(|_| {
            let pool =
                ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
            let t = Instant::now();
            pool.taskloop(0..shape_len, 1, ExecMode::Flat, |r| {
                std::hint::black_box(r.len());
            });
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let (_, cold_median, _) = percentiles(&mut cold);
    let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
    let mut warm = time_launches(&pool, shape_len, Grain::Size(1), &ExecMode::Flat, reps);
    let (_, warm_median, _) = percentiles(&mut warm);
    eprintln!("  cold {cold_median} ns, warm {warm_median} ns");

    // ---- JSON ------------------------------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"runtime_overhead\",");
    let _ = writeln!(j, "  \"preset\": \"epyc_9354_2s\",");
    let _ = writeln!(j, "  \"workers\": {},", topo.num_cores());
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"reps\": {reps},");
    let _ = writeln!(j, "  \"launch_latency_ns\": [");
    for (i, r) in latency.iter().enumerate() {
        let comma = if i + 1 < latency.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"wake\": \"{}\", \"mask_nodes\": {}, \"workers_active\": {}, \
             \"p10\": {}, \"median\": {}, \"p90\": {}}}{comma}",
            r.wake, r.mask_nodes, r.workers, r.p10, r.median, r.p90
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"broadcast_over_targeted_latency\": {{");
    for (i, width) in [1usize, 2, 4, 8].iter().enumerate() {
        let t = median_of("targeted", *width).max(1);
        let b = median_of("broadcast", *width);
        let comma = if i < 3 { "," } else { "" };
        let _ = writeln!(j, "    \"mask_{width}\": {:.3}{comma}", b as f64 / t as f64);
    }
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"inline_fast_path_ns\": {{");
    let _ = writeln!(j, "    \"inline_median\": {inline_median},");
    let _ = writeln!(j, "    \"dispatch_median\": {tiny_dispatch_median},");
    let _ = writeln!(
        j,
        "    \"dispatch_over_inline\": {:.3}",
        tiny_dispatch_median as f64 / inline_median.max(1) as f64
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"steal_throughput\": [");
    for (i, (name, median, per_sec)) in throughput.iter().enumerate() {
        let comma = if i + 1 < throughput.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"policy\": \"{name}\", \"chunks\": {chunks}, \
             \"median_ns\": {median}, \"chunks_per_sec\": {per_sec:.1}}}{comma}"
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"warm_vs_cold\": {{");
    let _ = writeln!(j, "    \"cold_first_invocation_ns\": {cold_median},");
    let _ = writeln!(j, "    \"warm_median_ns\": {warm_median},");
    let _ = writeln!(
        j,
        "    \"cold_over_warm\": {:.3}",
        cold_median as f64 / warm_median.max(1) as f64
    );
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");

    if let Err(e) = std::fs::write(&out, &j) {
        eprintln!("overhead: cannot write {out}: {e}");
    } else {
        eprintln!("wrote {out}");
    }
    print!("{j}");
}
