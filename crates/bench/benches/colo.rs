//! Macro-benchmark of the co-scheduling service (real wall time): how fast
//! `ilan-server` serves a small job stream under each sharing policy on the
//! tiny machine, and how the cost per job behaves as the stream grows on
//! the EPYC preset. The colocation engine walks only the loops in flight on
//! every event, so the per-job cost should stay flat with stream length;
//! the `colo-serve-length` rows report it as jobs per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ilan_server::{generate_stream, run_colocation, ServerConfig, SharingPolicy, StreamParams};
use ilan_topology::presets;
use std::time::Duration;

fn serve_stream(c: &mut Criterion) {
    let topo = presets::tiny_2x4();
    let stream = generate_stream(1, &StreamParams::mixed(6, 1e6));
    let mut group = c.benchmark_group("colo-serve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for policy in [
        SharingPolicy::Naive,
        SharingPolicy::StaticEqual,
        SharingPolicy::InterferenceAware,
    ] {
        group.bench_function(policy.name(), |b| {
            b.iter(|| {
                let config = ServerConfig::new(&topo, policy);
                run_colocation(&config, &stream, 1).len()
            })
        });
    }
    group.finish();
}

/// Interference-aware serving of 50- and 200-job streams at 140 jobs/s
/// (quick scale, two steps per job) on the EPYC 9354 preset. Equal
/// jobs-per-second rows mean the per-job cost does not grow with the
/// stream.
fn serve_stream_length(c: &mut Criterion) {
    let topo = presets::epyc_9354_2s();
    let config = ServerConfig::new(&topo, SharingPolicy::InterferenceAware);
    let mut group = c.benchmark_group("colo-serve-length");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));
    for jobs in [50, 200] {
        let params = StreamParams {
            steps: 2,
            ..StreamParams::mixed(jobs, 1e9 / 140.0)
        };
        let stream = generate_stream(1, &params);
        group.throughput(Throughput::Elements(jobs as u64));
        group.bench_function(format!("epyc/interference-aware/{jobs}-jobs"), |b| {
            b.iter(|| run_colocation(&config, &stream, 1).len())
        });
    }
    group.finish();
}

criterion_group!(benches, serve_stream, serve_stream_length);
criterion_main!(benches);
