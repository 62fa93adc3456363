//! `fleet-ingest`: the fleet frontend under paced load and overload.
//!
//! One generator thread runs 50k `DeviceAgent`s over a shared
//! `ObservationPool` and drives the admission protocol of
//! `FleetIngest` (`admit` → `submit` / `account_shed` / agent backoff);
//! the fleet's own workers decode and commit. One round is one 10-minute
//! upload round of every agent. Phase A paces rounds so that records are
//! offered at a fixed rate below capacity; phase B sends rounds back to
//! back (overload, so admission sheds). Each phase ends with `finish`,
//! and the reconciliation identity must hold exactly.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, trim_heap, Args, Outcome};
use bytes::BytesMut;
use mobitrace_collector::{DeviceAgent, DEFAULT_CACHE_CAP};
use mobitrace_fleet::{Admission, FleetConfig, FleetIngest, FleetStats};
use mobitrace_model::{DeviceId, Os, OsVersion, SimTime, Year};
use mobitrace_sim::ObservationPool;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Measured seconds of budget per phase-A + phase-B pair.
const BUDGET_PER_PAIR_S: f64 = 4.0;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Synthetic devices.
    pub devices: usize,
    /// Cohorts (server domains).
    pub cohorts: usize,
    /// Fleet ingest workers.
    pub workers: usize,
    /// Template devices in the observation pool.
    pub templates: usize,
    /// Days simulated per template.
    pub template_days: u32,
    /// Phase-A offered rate, records per second.
    pub paced_rate: f64,
    /// Rounds per phase-A run.
    pub rounds_a: u32,
    /// Rounds per phase-B run.
    pub rounds_b: u32,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seed of the template campaign and agent jitter.
    pub seed: u64,
}

impl FleetBenchConfig {
    /// The benchmark's configuration.
    pub fn bench(seed: u64) -> FleetBenchConfig {
        FleetBenchConfig {
            devices: 50_000,
            cohorts: 4,
            workers: 2,
            templates: 24,
            template_days: 2,
            paced_rate: 100_000.0,
            rounds_a: 8,
            rounds_b: 12,
            setup_reps: 3,
            seed,
        }
    }

    /// Phase-A/phase-B pairs measured for a `seconds` budget: the budget
    /// fixes the work, so two builds compared with the same budget do
    /// the same work.
    pub fn pairs(&self, seconds: f64) -> usize {
        ((seconds / BUDGET_PER_PAIR_S).round() as usize).max(1)
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig { cohorts: self.cohorts, workers: self.workers, ..FleetConfig::default() }
    }
}

fn agents(n: usize) -> Vec<DeviceAgent> {
    (0..n)
        .map(|d| {
            // 1-in-4 iOS, the campaigns' rough mix.
            let (os, v) = if d % 4 == 3 {
                (Os::Ios, OsVersion::new(7, 0))
            } else {
                (Os::Android, OsVersion::new(4, 4))
            };
            DeviceAgent::new(DeviceId(d as u32), os, v).with_cache_cap(DEFAULT_CACHE_CAP)
        })
        .collect()
}

/// What one phase run measured.
pub struct Phase {
    /// First send → queues drained (end of `finish`), seconds.
    pub elapsed_s: f64,
    /// Committed records per second over `elapsed_s`.
    pub records_per_s: f64,
    /// Records the agents made.
    pub made: u64,
    /// Records made but not committed (shed, lost, dropped, pending).
    pub missing: u64,
    /// Enqueue → commit latency quantiles, seconds.
    pub commit_p50_s: f64,
    /// See `commit_p50_s`.
    pub commit_p99_s: f64,
    /// Read the committed records back, (device, seq)-sorted, seconds.
    pub readback_s: f64,
    /// Round start − due per paced round, seconds.
    pub lag: Vec<f64>,
    /// Generator time not spent pacing, seconds.
    pub busy_s: f64,
    /// Committed records.
    pub committed: u64,
    /// Shed records.
    pub shed: u64,
    /// Batches committed.
    pub batches: u64,
}

/// Run one phase: `rounds` upload rounds, paced at `rate` records/s or
/// unpaced.
pub fn phase(
    cfg: &FleetBenchConfig,
    pool: &ObservationPool,
    rate: Option<f64>,
    rounds: u32,
    out: &mut Outcome,
) -> Phase {
    let mut agents = agents(cfg.devices);
    let fleet = FleetIngest::new(cfg.fleet_config());
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xF1EE7);
    let start = Instant::now();
    let mut lag = Vec::new();
    let mut paced_s = 0.0;
    let stats: FleetStats = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let stats;
                {
                    let _root = trace::span("thread.generator");
                    let mut scratch = BytesMut::new();
                    for round in 0..rounds {
                        if let Some(rate) = rate {
                            // Every agent uploads at the round boundary,
                            // so a round arrives as one burst; rounds are
                            // due at a fixed rate.
                            let due = f64::from(round) * cfg.devices as f64 / rate;
                            let now = start.elapsed().as_secs_f64();
                            if now < due {
                                let _idle = trace::span("idle.pace");
                                std::thread::sleep(Duration::from_secs_f64(due - now));
                                paced_s += start.elapsed().as_secs_f64() - now;
                            }
                            lag.push((start.elapsed().as_secs_f64() - due).max(0.0));
                        }
                        // The round span's self time is the agents' own work
                        // (observe, take_stream_into, backoff), outside the
                        // fleet calls it encloses.
                        let _round = trace::span("collector.agent");
                        let now_sim = SimTime::from_minutes(round * 10);
                        let now_s = start.elapsed().as_secs_f64();
                        for (i, agent) in agents.iter_mut().enumerate() {
                            agent.observe(pool.get(i, round as usize));
                            if agent.in_backoff(now_sim) {
                                // Counts the skip; drains nothing.
                                agent.take_stream_into(now_sim, &mut scratch);
                                continue;
                            }
                            let pending = agent.pending() as u32;
                            let decision = trace::time("fleet.admit", || {
                                fleet.admit(DeviceId(i as u32), pending, now_s)
                            });
                            match decision {
                                (cohort, Admission::Admit) => {
                                    let n = agent.take_stream_into(now_sim, &mut scratch);
                                    if n > 0 {
                                        let stream = scratch.split().freeze();
                                        trace::time("fleet.submit", || {
                                            fleet.submit(cohort, n, stream)
                                        });
                                    }
                                }
                                (cohort, Admission::Shed) => {
                                    let n = agent.take_stream_into(now_sim, &mut scratch);
                                    if n > 0 {
                                        trace::time("fleet.account_shed", || {
                                            fleet.account_shed(cohort, n)
                                        });
                                        scratch.clear();
                                    }
                                }
                                (_, Admission::Backpressure) => {
                                    agent.note_server_reject(&mut rng, now_sim);
                                    fleet.note_backpressure();
                                }
                            }
                        }
                    }
                    stats = trace::time("fleet.finish", || fleet.finish());
                }
                trace::flush_thread();
                stats
            })
            .join()
            .expect("generator thread")
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let busy_s = elapsed_s - paced_s;

    let made: u64 = agents.iter().map(|a| a.records_made).sum();
    let pending: u64 = agents.iter().map(|a| a.pending() as u64).sum();
    let dropped: u64 = agents.iter().map(|a| a.dropped_records).sum();
    let accounted = stats.committed
        + stats.duplicates
        + stats.shed_records
        + stats.lost_crash
        + stats.lost_worker
        + pending
        + dropped;
    out.check(accounted == made, || {
        format!("fleet accounting does not reconcile: made {made} != accounted {accounted}")
    });
    out.check(stats.worker_failures.is_empty(), || {
        format!("fleet worker failures: {:?}", stats.worker_failures)
    });
    let (commit_p50_s, commit_p99_s) = (stats.latency_quantile(0.5), stats.latency_quantile(0.99));
    let (committed, shed, batches) = (stats.committed, stats.shed_records, stats.batches);
    let t = Instant::now();
    let records = stats.into_records();
    let readback_s = t.elapsed().as_secs_f64();
    out.check(records.len() as u64 == committed, || {
        format!("read back {} of {committed} committed records", records.len())
    });
    drop((records, agents));
    trim_heap();
    eprintln!(
        "mtbench: fleet phase {}: {:.3}s, {:.0} records/s, made {made}, committed {committed}, shed {shed}, pending {pending}, dropped {dropped}, commit p50 {:.6}s p99 {:.6}s, readback {:.3}s, rss {:.0} MB",
        if rate.is_some() { "A" } else { "B" },
        elapsed_s,
        committed as f64 / elapsed_s,
        commit_p50_s,
        commit_p99_s,
        readback_s,
        peak_rss_mb()
    );
    Phase {
        elapsed_s,
        records_per_s: committed as f64 / elapsed_s,
        made,
        missing: made - committed,
        commit_p50_s,
        commit_p99_s,
        readback_s,
        lag,
        busy_s,
        committed,
        shed,
        batches,
    }
}

/// Run the workload.
pub fn run(cfg: &FleetBenchConfig, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let traced = trace::enabled();
    trace::set_enabled(false);
    let mut setup = Vec::new();
    let mut pool = None;
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        let p = ObservationPool::build(Year::Y2015, cfg.templates, cfg.template_days, cfg.seed);
        std::hint::black_box(agents(cfg.devices).len());
        setup.push(t.elapsed().as_secs_f64());
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    // Warm-up: one unmeasured unpaced phase.
    phase(cfg, &pool, None, cfg.rounds_b, &mut out);
    trace::set_enabled(traced);

    let mut phase_a = Vec::new();
    let mut phase_b = Vec::new();
    for _ in 0..cfg.pairs(args.seconds) {
        phase_a.push(phase(cfg, &pool, Some(cfg.paced_rate), cfg.rounds_a, &mut out));
        phase_b.push(phase(cfg, &pool, None, cfg.rounds_b, &mut out));
    }

    out.print("workload", "fleet-ingest");
    out.print("seed", cfg.seed);
    out.print("scale", "none (synthetic agents)");
    out.print("devices", cfg.devices);
    out.print("days", format!("{} per template", cfg.template_days));
    out.print("cohorts", cfg.cohorts);
    out.print("templates", pool.n_templates());
    out.print("rounds", format!("A {} / B {}", cfg.rounds_a, cfg.rounds_b));
    out.print("records", phase_b[0].made);
    out.print("paced_rate", cfg.paced_rate);
    out.print("threads", format!("generator 1, workers {}", cfg.workers));
    out.print("replays", format!("{}+{}", phase_a.len(), phase_b.len()));

    let col = |ps: &[Phase], f: fn(&Phase) -> f64| -> f64 {
        median(&ps.iter().map(f).collect::<Vec<_>>())
    };
    let all: Vec<&Phase> = phase_a.iter().chain(&phase_b).collect();
    let made: u64 = all.iter().map(|p| p.made).sum();
    let missing: u64 = all.iter().map(|p| p.missing).sum();
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.e2e.insert("failed_share", missing as f64 / made.max(1) as f64);
    out.e2e.insert("reproduce_s", col(&phase_b, |p| p.elapsed_s));
    out.e2e.insert("reload_s", col(&phase_b, |p| p.readback_s));
    out.e2e.insert("records_per_s", col(&phase_b, |p| p.records_per_s));
    // The fleet serves no queries: a record is fresh once committed to
    // its cohort store. Freshness is that wait under overload (phase B),
    // commit latency the same wait at the paced rate (phase A).
    out.e2e.insert("freshness_p50_s", col(&phase_b, |p| p.commit_p50_s));
    out.e2e.insert("freshness_p99_s", col(&phase_b, |p| p.commit_p99_s));
    out.e2e.insert("commit_p50_s", col(&phase_a, |p| p.commit_p50_s));
    out.e2e.insert("commit_p99_s", col(&phase_a, |p| p.commit_p99_s));
    out.attempted = made;
    out.failed = 0;

    let lags: Vec<f64> = phase_a.iter().flat_map(|p| p.lag.iter().copied()).collect();
    let lag_p99 = crate::stats::quantile(&lags, 0.99);
    out.check(lag_p99 <= crate::MAX_GENERATOR_LAG_S, || {
        format!(
            "phase A is invalid: the generator fell behind its schedule (lag p99 {lag_p99:.3}s)"
        )
    });
    eprintln!(
        "mtbench: fleet-ingest phase A lag p99 {:.4}s, commit p99 {:.4}s; phase B {:.0} records/s, shed {:.1}%",
        lag_p99,
        col(&phase_a, |p| p.commit_p99_s),
        col(&phase_b, |p| p.records_per_s),
        100.0 * col(&phase_b, |p| p.shed as f64 / p.made as f64)
    );
    if args.trace {
        let n = all.len() as f64;
        let per = |name: &str| Tracer::total_s(name) / n;
        let l = &mut out.layer;
        l.insert(
            "collector.agent_s".into(),
            Tracer::totals().get("collector.agent").map_or(0.0, |t| t.self_ns as f64 * 1e-9) / n,
        );
        l.insert("fleet.admit_s".into(), per("fleet.admit"));
        l.insert("fleet.submit_s".into(), per("fleet.submit"));
        l.insert("fleet.finish_s".into(), per("fleet.finish"));
        l.insert("fleet.committed".into(), col(&phase_b, |p| p.committed as f64));
        l.insert("fleet.shed".into(), col(&phase_b, |p| p.shed as f64));
        l.insert("fleet.batches".into(), col(&phase_b, |p| p.batches as f64));
        l.insert("bench.generator_lag_p99_s".into(), lag_p99);
        l.insert("bench.generator_busy_s".into(), col(&phase_a, |p| p.busy_s));
        l.insert("bench.traced_main_s".into(), col(&phase_b, |p| p.elapsed_s));
        crate::record_trace_accounting(&mut out);
    }
    out
}
