//! Smoke tests: every workload's checks on a tiny configuration, and the
//! trace accounting of a traced run.

use crate::{fleet, live, paper, trace, Args, Outcome, E2E};
use std::sync::{Mutex, MutexGuard};

/// Workloads and the tracer share process-wide state (the trace switch,
/// the span collection, the work directory); run these tests one at a
/// time.
pub(crate) fn lock() -> MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

fn args(workload: &str, seed: u64, trace: bool) -> Args {
    Args { workload: workload.into(), seed, seconds: 0.1, trace }
}

fn assert_clean(out: &Outcome) {
    assert!(out.check_failures.is_empty(), "checks failed: {:?}", out.check_failures);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    for (name, _) in E2E {
        let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
    for name in ["setup_s", "peak_rss_mb", "reproduce_s", "reload_s", "records_per_s"] {
        assert!(out.e2e[name] > 0.0, "{name} is 0");
    }
}

fn tiny_paper(seed: u64) -> paper::PaperConfig {
    paper::PaperConfig { scale: 0.012, warmup_scale: 0.005, setup_reps: 1, seed }
}

fn tiny_live(seed: u64) -> live::LiveConfig {
    live::LiveConfig { scale: 0.02, days: Some(3), paced_rate: 40_000.0, setup_reps: 2, seed }
}

fn tiny_fleet(seed: u64) -> fleet::FleetBenchConfig {
    fleet::FleetBenchConfig {
        devices: 2_000,
        templates: 20,
        template_days: 1,
        paced_rate: 40_000.0,
        rounds_a: 3,
        rounds_b: 4,
        setup_reps: 1,
        ..fleet::FleetBenchConfig::bench(seed)
    }
}

#[test]
fn paper_batch_checks_pass_on_a_tiny_campaign() {
    let _g = lock();
    trace::set_enabled(false);
    let out = paper::run(&tiny_paper(3), &args("paper-batch", 3, false));
    assert_clean(&out);
    // 35 experiments, rendered from memory and from the pool.
    assert_eq!(out.attempted, 70);
    assert_eq!(out.digests.len(), 70);
    assert_eq!(out.e2e["commit_p50_s"], out.e2e["reproduce_s"]);
}

#[test]
fn live_serve_checks_pass_on_a_tiny_campaign() {
    let _g = lock();
    trace::set_enabled(false);
    let out = live::run(&tiny_live(4), &args("live-serve", 4, false));
    assert_clean(&out);
    assert!(out.e2e["freshness_p99_s"] >= out.e2e["freshness_p50_s"]);
    assert!(out.e2e["freshness_p50_s"] > 0.0);
    let digest = out.fingerprint.iter().find(|(k, _)| *k == "trace_digest");
    assert!(digest.is_some_and(|(_, v)| v.len() == 16));
}

#[test]
fn live_trace_capture_is_deterministic() {
    let _g = lock();
    trace::set_enabled(false);
    let a = live::capture(&tiny_live(5));
    let b = live::capture(&tiny_live(5));
    assert_eq!(a.digest, b.digest);
    assert!(a.records() > 0);
}

#[test]
fn live_replay_check_catches_records_the_tap_never_published() {
    let _g = lock();
    trace::set_enabled(false);
    let mut tr = live::capture(&tiny_live(8));
    tr.duplicate_first_upload();
    let mut out = Outcome::default();
    let path = crate::work_dir().join("live-test-dup.mtpool");
    std::fs::create_dir_all(crate::work_dir()).unwrap();
    let replay = live::replay(&tr, None, &path, &mut out);
    assert!(replay.is_some());
    assert!(
        out.check_failures.iter().any(|f| f.contains("tap published")),
        "{:?}",
        out.check_failures
    );
}

#[test]
fn fleet_ingest_reconciles_on_a_tiny_fleet() {
    let _g = lock();
    trace::set_enabled(false);
    let out = fleet::run(&tiny_fleet(6), &args("fleet-ingest", 6, false));
    assert_clean(&out);
    assert!(out.e2e["failed_share"] < 1.0);
}

#[test]
fn traced_runs_close_their_per_thread_accounts() {
    let _g = lock();
    for (name, run) in [
        (
            "fleet-ingest",
            Box::new(|a: &Args| fleet::run(&tiny_fleet(7), a)) as Box<dyn Fn(&Args) -> Outcome>,
        ),
        ("live-serve", Box::new(|a: &Args| live::run(&tiny_live(7), a))),
        ("paper-batch", Box::new(|a: &Args| paper::run(&tiny_paper(7), a))),
    ] {
        trace::Tracer::reset();
        trace::set_enabled(true);
        let out = run(&args(name, 7, true));
        trace::set_enabled(false);
        assert!(out.check_failures.is_empty(), "{name}: {:?}", out.check_failures);
        let accounts = trace::Tracer::accounting();
        assert!(!accounts.is_empty(), "{name}");
        for a in &accounts {
            let closed = a.layer_s + a.idle_s + a.unattributed_s;
            assert!((closed - a.wall_s).abs() < 1e-6, "{name}: {a:?}");
            assert!(a.unattributed_share() <= crate::TRACE_UNATTRIBUTED_BOUND, "{name}: {a:?}");
        }
        assert!(out.layer["bench.trace_spans"] > 0.0);
        assert!(out.layer["bench.trace_unattributed_max"] <= crate::TRACE_UNATTRIBUTED_BOUND);
        let busy = match name {
            "fleet-ingest" => "fleet.admit_s",
            "live-serve" => "live.ingest_batch_s",
            _ => "sim.simulate_s",
        };
        assert!(out.layer[busy] > 0.0, "{name}: {busy} is 0");
    }
    trace::Tracer::reset();
}
