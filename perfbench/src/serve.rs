//! `serve`: the `ilan-server` colocation loop under an open-loop stream.
//!
//! Each rung of a fixed ladder of offered rates replays `REPLICAS`
//! independent Poisson streams of `JOBS` jobs under interference-aware
//! sharing, on the simulated EPYC 9354 with `ColoExperiment`'s defaults
//! (quick scale, two steps per job, the CG/SP/Matmul mix). At the knee rate
//! the first replica is also served under naive and static-equal sharing.
//! All latencies are simulated and timed from each job's scheduled arrival,
//! so they repeat exactly per seed; host time is what the server costs,
//! each call's scaled to the reference host speed ([`crate::host`]).

use crate::host::Calibrator;
use crate::report::{Metrics, Outcome};
use crate::span::Tracer;
use crate::stats;
use ilan_server::{
    generate_stream, run_colocation_report, JobRecord, JobSpec, ServerConfig, SharingPolicy,
    StreamParams,
};
use ilan_topology::{presets, Topology};
use ilan_workloads::Scale;
use std::hint::black_box;
use std::time::Instant;

/// Offered rates, simulated jobs per second. Interference-aware saturates
/// near 126 jobs/s, so the top rung is a clear overload: at 120 jobs/s the
/// pooled p95 slowdown still ranged 7–21 across seeds and could pass the
/// limit.
pub const RATES: [f64; 4] = [30.0, 60.0, 90.0, 140.0];
/// The under-capacity rung whose latency and ANTT are reported.
const UNDER: usize = 1;
/// The rung near the knee where all three sharing policies run.
const KNEE: usize = 2;
/// Jobs per stream.
pub const JOBS: usize = 200;
/// Independent streams per rung, pooled.
pub const REPLICAS: usize = 6;
/// A rung meets the latency limit when its pooled p95 slowdown (latency
/// over isolated latency) is at most this.
pub const P95_SLOWDOWN_LIMIT: f64 = 8.0;
/// Set-up repetitions before the first pass.
const SETUP_REPS: usize = 11;

/// The seed of replica `k` on rung `r`, derived from the run's seed.
fn stream_seed(seed: u64, r: usize, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((r * REPLICAS + k) as u64 + 1)
}

fn params(rate: f64) -> StreamParams {
    StreamParams {
        steps: 2,
        ..StreamParams::mixed(JOBS, 1e9 / rate)
    }
}

/// Built inputs: every stream of a pass, rung-major.
pub struct Serve {
    topology: Topology,
    seed: u64,
    streams: Vec<Vec<JobSpec>>,
}

/// One `run_colocation` and what was checked about it.
struct Run {
    policy: SharingPolicy,
    rung: usize,
    host_s: f64,
    offered: usize,
    records: Vec<JobRecord>,
    /// Records that violate arrival ≤ admitted ≤ finish.
    invalid: usize,
    admissions: u64,
    warm_starts: u64,
}

impl Run {
    fn failed(&self) -> usize {
        self.offered - self.records.len() + self.invalid
    }
}

/// Reads an unlabelled counter from OpenMetrics text.
fn counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Whether a rung's backlog grows: over all its replicas, the mean
/// admission wait of each stream's last third of arrivals exceeds twice
/// that of its first third plus one mean isolated job latency. A stationary
/// queue fluctuates well inside that slack; an overloaded one grows
/// linearly with arrival time. Pooling the replicas keeps one stream's
/// burst from flagging a stationary rung.
pub fn backlog_grows(replicas: &[&[JobRecord]]) -> bool {
    let (mut first, mut last, mut isolated) = (Vec::new(), Vec::new(), Vec::new());
    for records in replicas {
        let mut by_arrival: Vec<&JobRecord> = records.iter().collect();
        by_arrival.sort_by(|a, b| a.arrival_ns.total_cmp(&b.arrival_ns));
        let third = by_arrival.len() / 3;
        first.extend(by_arrival[..third].iter().map(|r| r.wait_ns()));
        last.extend(
            by_arrival[by_arrival.len() - third..]
                .iter()
                .map(|r| r.wait_ns()),
        );
        isolated.extend(records.iter().map(|r| r.isolated_ns));
    }
    !first.is_empty() && stats::mean(&last) > 2.0 * stats::mean(&first) + stats::mean(&isolated)
}

/// Pooled statistics of one rung (or one policy at the knee).
struct Rung {
    /// Sorted latencies, ms; failed jobs are infinite.
    latency_ms: Vec<f64>,
    /// Sorted slowdowns; failed jobs are infinite.
    slowdown: Vec<f64>,
    grows: bool,
}

impl Rung {
    fn of(runs: &[&Run]) -> Rung {
        let mut latency_ms = Vec::new();
        let mut slowdown = Vec::new();
        for r in runs {
            latency_ms.extend(r.records.iter().map(|j| j.latency_ns() / 1e6));
            slowdown.extend(r.records.iter().map(|j| j.slowdown()));
            let failed = r.offered - r.records.len();
            latency_ms.extend(std::iter::repeat_n(f64::INFINITY, failed));
            slowdown.extend(std::iter::repeat_n(f64::INFINITY, failed));
        }
        stats::sort(&mut latency_ms);
        stats::sort(&mut slowdown);
        Rung {
            latency_ms,
            slowdown,
            grows: backlog_grows(&runs.iter().map(|r| &r.records[..]).collect::<Vec<_>>()),
        }
    }

    fn p95_slowdown(&self) -> f64 {
        stats::percentile(&self.slowdown, 95.0).value
    }

    fn antt(&self) -> f64 {
        stats::mean(&self.slowdown)
    }

    fn meets_limit(&self) -> bool {
        self.p95_slowdown() <= P95_SLOWDOWN_LIMIT && !self.grows
    }
}

/// The highest rate whose rung meets the limit (0 when none does).
pub fn capacity(rates: &[f64], meets: &[bool]) -> f64 {
    rates
        .iter()
        .zip(meets)
        .filter(|(_, &ok)| ok)
        .map(|(&r, _)| r)
        .fold(0.0, f64::max)
}

impl Serve {
    fn generate(seed: u64) -> Vec<Vec<JobSpec>> {
        let mut out = Vec::with_capacity(RATES.len() * REPLICAS);
        for (r, &rate) in RATES.iter().enumerate() {
            for k in 0..REPLICAS {
                out.push(generate_stream(stream_seed(seed, r, k), &params(rate)));
            }
        }
        out
    }

    /// Generates every stream; returns the inputs and `SETUP_REPS + 1`
    /// scaled generation times.
    pub fn setup(seed: u64, cal: &mut Calibrator) -> (Serve, Vec<f64>) {
        let t = Instant::now();
        let streams = Self::generate(seed);
        let first = cal.scale(t.elapsed().as_secs_f64());
        let serve = Serve {
            topology: presets::epyc_9354_2s(),
            seed,
            streams,
        };
        let mut times = vec![first];
        for _ in 0..SETUP_REPS {
            serve.time_setup(&mut times, cal);
        }
        (serve, times)
    }

    /// Generates every stream once more, discarding them. Generation takes
    /// about 0.1 ms while the host's speed drifts over seconds, so the run
    /// repeats this between `run_colocation` calls and reports the median.
    fn time_setup(&self, times: &mut Vec<f64>, cal: &mut Calibrator) {
        let t = Instant::now();
        black_box(Self::generate(self.seed));
        times.push(cal.scale(t.elapsed().as_secs_f64()));
    }

    fn run(&self, policy: SharingPolicy, r: usize, k: usize, tracer: &mut Option<Tracer>) -> Run {
        let stream = &self.streams[r * REPLICAS + k];
        let mut config = ServerConfig::new(&self.topology, policy);
        config.scale = Scale::Quick;
        if let Some(t) = tracer.as_mut() {
            let g = t.new_group();
            t.open("run_colocation", g);
        }
        let t = Instant::now();
        let report = run_colocation_report(&config, stream, stream_seed(self.seed, r, k));
        let host_s = t.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_mut() {
            t.close();
        }
        let invalid = report
            .records
            .iter()
            .filter(|j| {
                let ordered = j.arrival_ns <= j.admitted_ns && j.admitted_ns <= j.finish_ns;
                !(ordered && j.finish_ns.is_finite() && j.isolated_ns > 0.0)
            })
            .count();
        let text = report.metrics_text();
        Run {
            policy,
            rung: r,
            host_s,
            offered: stream.len(),
            invalid,
            admissions: counter(text, "ilan_server_admissions_total").unwrap_or(0),
            warm_starts: counter(text, "ilan_server_warm_starts_total").unwrap_or(0),
            records: report.records,
        }
    }

    /// One pass: the ladder, then the other two policies at the knee.
    /// Returns raw and scaled host seconds (equal when not scaled) and the
    /// runs. When `timing` is given, each run's host time is scaled right
    /// after it, and one set-up sample is taken, outside the timed runs.
    fn pass(
        &self,
        tracer: &mut Option<Tracer>,
        mut timing: Option<(&mut Calibrator, &mut Vec<f64>)>,
    ) -> (f64, f64, Vec<Run>) {
        let mut runs = Vec::new();
        let (mut host_s, mut scaled_s) = (0.0, 0.0);
        let plan = (0..RATES.len())
            .flat_map(|r| (0..REPLICAS).map(move |k| (SharingPolicy::InterferenceAware, r, k)))
            .chain([SharingPolicy::Naive, SharingPolicy::StaticEqual].map(|p| (p, KNEE, 0)));
        for (policy, r, k) in plan {
            let run = self.run(policy, r, k, tracer);
            host_s += run.host_s;
            match timing.as_mut() {
                Some((cal, times)) => {
                    scaled_s += cal.scale(run.host_s);
                    self.time_setup(times, cal);
                }
                None => scaled_s += run.host_s,
            }
            runs.push(run);
        }
        (host_s, scaled_s, runs)
    }

    fn aware(runs: &[Run], rung: usize) -> Vec<&Run> {
        runs.iter()
            .filter(|r| r.rung == rung && r.policy == SharingPolicy::InterferenceAware)
            .collect()
    }

    /// The untraced run: end-to-end metrics.
    pub fn measure(&self, seconds: f64, cal: &mut Calibrator, mut setup: Vec<f64>) -> Outcome {
        let started = Instant::now();
        let (mut raw, mut walls) = (Vec::new(), Vec::new());
        let mut all = Vec::new();
        while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let (host_s, wall, runs) = self.pass(&mut None, Some((&mut *cal, &mut setup)));
            raw.push(host_s);
            walls.push(wall);
            all.push(runs);
        }
        // The simulation is deterministic, so every pass has the same
        // simulated outcome; the first one is reported.
        let runs = &all[0];
        let served: usize = all.iter().flatten().map(|r| r.records.len()).sum();
        let offered: usize = all.iter().flatten().map(|r| r.offered).sum();
        let failed: usize = all.iter().flatten().map(Run::failed).sum();
        let ops = served as f64 / walls.iter().sum::<f64>();
        let rungs: Vec<Rung> = (0..RATES.len())
            .map(|r| Rung::of(&Self::aware(runs, r)))
            .collect();
        let meets: Vec<bool> = rungs.iter().map(Rung::meets_limit).collect();
        let cap = capacity(&RATES, &meets);
        let under = &rungs[UNDER];
        let p50 = stats::percentile(&under.latency_ms, 50.0);
        let tail = stats::tail(&under.latency_ms, 95.0);
        let to_us = |q: stats::Quantile| stats::Quantile {
            value: q.value * 1e3,
            ..q
        };

        let mut m = Metrics::default();
        m.e2e(
            stats::median(&setup),
            stats::median(&walls),
            ops,
            to_us(p50),
            to_us(tail),
            under.antt(),
            cap,
        );
        m.named("serve.wall_s.raw", stats::median(&raw), "s");
        m.named("host.kernel_ms", cal.median_s() * 1e3, "ms");
        m.named("serve.jobs_per_s", ops, "1/s");
        m.named("serve.p50_ms", p50.value, "ms");
        m.named(&format!("serve.p{}_ms", tail.pct), tail.value, "ms");
        m.named("serve.antt", under.antt(), "x");
        m.named("serve.capacity_jobs_per_s", cap, "1/s");
        m.named("serve.under_capacity_rate", RATES[UNDER], "1/s");
        m.named("serve.knee_rate", RATES[KNEE], "1/s");
        m.named("serve.p95_slowdown_limit", P95_SLOWDOWN_LIMIT, "x");
        m.named("serve.passes", walls.len() as f64, "count");
        for (rate, rung) in RATES.iter().zip(&rungs) {
            m.named(
                &format!("serve.rung.{rate}.p95_slowdown"),
                rung.p95_slowdown(),
                "x",
            );
            m.named(&format!("serve.rung.{rate}.antt"), rung.antt(), "x");
            m.named(
                &format!("serve.rung.{rate}.backlog_grows"),
                f64::from(u8::from(rung.grows)),
                "bool",
            );
        }
        let repeat = all.iter().all(|p| same_outcome(p, runs));
        Outcome::new(offered as u64, failed as u64, m).check(repeat)
    }

    /// The traced run: per-layer metrics.
    pub fn trace(&self, _seconds: f64) -> Outcome {
        let (untraced, _, plain) = self.pass(&mut None, None);
        let mut tracer = Some(Tracer::new());
        let t = Instant::now();
        tracer.as_mut().expect("traced").open("serve", 0);
        let (_, _, runs) = self.pass(&mut tracer, None);
        tracer.as_mut().expect("traced").close();
        let traced = t.elapsed().as_secs_f64();

        let mut m = Metrics::default();
        for policy in [
            SharingPolicy::Naive,
            SharingPolicy::StaticEqual,
            SharingPolicy::InterferenceAware,
        ] {
            let run = runs
                .iter()
                .find(|r| r.rung == KNEE && r.policy == policy)
                .expect("every policy runs at the knee");
            let name = match policy {
                SharingPolicy::Naive => "server.run_s.naive-shared",
                SharingPolicy::StaticEqual => "server.run_s.static-equal",
                SharingPolicy::InterferenceAware => "server.run_s.interference-aware",
            };
            m.layer(name, run.host_s);
            let antt = Rung::of(&[run]).antt();
            match policy {
                SharingPolicy::Naive => m.layer("server.antt.naive-shared", antt),
                SharingPolicy::StaticEqual => m.layer("server.antt.static-equal", antt),
                SharingPolicy::InterferenceAware => {
                    m.named("server.antt.interference-aware", antt, "x")
                }
            }
        }
        let knee = Self::aware(&runs, KNEE);
        let mut waits: Vec<f64> = knee
            .iter()
            .flat_map(|r| r.records.iter().map(|j| j.wait_ns() / 1e6))
            .collect();
        stats::sort(&mut waits);
        m.layer("server.wait_ms.p95", stats::percentile(&waits, 95.0).value);
        let warm: u64 = knee.iter().map(|r| r.warm_starts).sum();
        let admitted: u64 = knee.iter().map(|r| r.admissions).sum();
        m.layer(
            "server.warm_share",
            stats::ratio(warm as f64, admitted as f64),
        );
        let overhead: Vec<f64> = knee
            .iter()
            .flat_map(|r| r.records.iter().map(|j| j.sched_overhead_ns / 1e3))
            .collect();
        m.layer("server.sched_overhead_us", stats::mean(&overhead));
        m.layer("bench.trace_overhead", traced / untraced);

        let admissions_match = runs.iter().all(|r| r.admissions == r.records.len() as u64);
        let spans = tracer.take().expect("traced").into_spans();
        let gap_ok = m.spans(spans, traced);
        let offered: usize = runs.iter().map(|r| r.offered).sum();
        let failed: usize = runs.iter().map(Run::failed).sum();
        Outcome::new(offered as u64, failed as u64, m)
            .check(gap_ok && admissions_match && same_outcome(&plain, &runs))
    }
}

/// Whether two passes served every job identically (simulated outcome).
fn same_outcome(a: &[Run], b: &[Run]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.records.len() == y.records.len()
                && x.records.iter().zip(&y.records).all(|(p, q)| {
                    p.id == q.id && p.finish_ns == q.finish_ns && p.admitted_ns == q.admitted_ns
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_server::JobPriority;
    use ilan_workloads::Workload;

    fn job(arrival_ms: f64, wait_ms: f64) -> JobRecord {
        JobRecord {
            id: 0,
            workload: Workload::Cg,
            priority: JobPriority::Normal,
            arrival_ns: arrival_ms * 1e6,
            admitted_ns: (arrival_ms + wait_ms) * 1e6,
            finish_ns: (arrival_ms + wait_ms + 20.0) * 1e6,
            partition_nodes: 2,
            warm_started: false,
            sched_overhead_ns: 0.0,
            isolated_ns: 20e6,
        }
    }

    #[test]
    fn a_stationary_queue_does_not_grow() {
        // Waits fluctuate between 0 and 30 ms with no trend.
        let recs: Vec<_> = (0..90)
            .map(|i| job(i as f64 * 10.0, (i * 7 % 31) as f64))
            .collect();
        assert!(!backlog_grows(&[&recs]));
        assert!(!backlog_grows(&[]));
    }

    #[test]
    fn an_overloaded_queue_grows() {
        // Each arrival waits 5 ms longer than the one before.
        let recs: Vec<_> = (0..90)
            .map(|i| job(i as f64 * 10.0, i as f64 * 5.0))
            .collect();
        assert!(backlog_grows(&[&recs]));
        assert!(backlog_grows(&[&recs, &recs, &recs]));
    }

    #[test]
    fn one_bursty_replica_does_not_flag_a_stationary_rung() {
        // One stream ends in a 60 ms burst; five others stay flat at 2 ms.
        let flat: Vec<_> = (0..90).map(|i| job(i as f64 * 10.0, 2.0)).collect();
        let burst: Vec<_> = (0..90)
            .map(|i| job(i as f64 * 10.0, if i < 60 { 2.0 } else { 60.0 }))
            .collect();
        assert!(backlog_grows(&[&burst]));
        let rung = [&burst[..], &flat, &flat, &flat, &flat, &flat];
        assert!(!backlog_grows(&rung));
    }

    #[test]
    fn growth_needs_more_than_one_isolated_latency_of_slack() {
        // First third waits 1 ms; last third 21 ms < 2·1 + 20: not growing.
        let wait = |i: usize| {
            if i < 30 {
                1.0
            } else if i < 60 {
                10.0
            } else {
                21.0
            }
        };
        let recs: Vec<_> = (0..90).map(|i| job(i as f64, wait(i))).collect();
        assert!(!backlog_grows(&[&recs]));
        let wait = |i: usize| if i < 30 { 1.0 } else { 23.0 };
        let recs: Vec<_> = (0..90).map(|i| job(i as f64, wait(i))).collect();
        assert!(backlog_grows(&[&recs]));
    }

    #[test]
    fn capacity_is_the_highest_rung_meeting_the_limit() {
        assert_eq!(capacity(&RATES, &[true, true, true, false]), 90.0);
        assert_eq!(capacity(&RATES, &[true, false, true, false]), 90.0);
        assert_eq!(capacity(&RATES, &[false; 4]), 0.0);
    }

    #[test]
    fn counters_parse_from_openmetrics_text() {
        let text = "# HELP ilan_server_admissions x\n# TYPE ilan_server_admissions counter\n\
                    ilan_server_admissions_total 12\nilan_server_admissions_total_x 3\n";
        assert_eq!(counter(text, "ilan_server_admissions_total"), Some(12));
        assert_eq!(counter(text, "ilan_server_sheds_total"), None);
    }

    #[test]
    fn stream_seeds_are_distinct_per_rung_and_replica() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..RATES.len() {
            for k in 0..REPLICAS {
                assert!(seen.insert(stream_seed(7, r, k)));
            }
        }
        assert_ne!(stream_seed(7, 0, 0), stream_seed(8, 0, 0));
    }
}
