//! Regression tests for the scan-plan cache in the device hot path: a
//! campaign must keep the association statistics the exact (uncached)
//! scan produced, and plans are pure functions of (world, quantized key),
//! so a campaign must stay bit-identical across thread counts and
//! repeats. The plan's scan-level fidelity to the exact scan is pinned in
//! the `deploy` crate (`plan_sampling_matches_exact_scan_distributions`).

use mobitrace_model::{Dataset, Year};
use mobitrace_sim::{run_campaign, CampaignConfig};

fn run(threads: usize) -> Dataset {
    let mut cfg = CampaignConfig::scaled(Year::Y2014, 0.05).with_seed(4242).with_threads(threads);
    cfg.days = 6;
    run_campaign(&cfg).0
}

/// Association-focused statistics of one dataset.
struct AssocStats {
    assoc_share: f64,
    mean_rssi: f64,
    weak_share: f64,
    mean_n24: f64,
}

fn stats(ds: &Dataset) -> AssocStats {
    let mut assoc = 0usize;
    let mut rssi_sum = 0.0;
    let mut weak = 0usize;
    let mut on_bins = 0usize;
    let mut n24_sum = 0u64;
    for b in &ds.bins {
        if b.wifi.is_on() {
            on_bins += 1;
            n24_sum += u64::from(b.scan.n24_all);
        }
        if let Some(a) = b.wifi.assoc() {
            assoc += 1;
            rssi_sum += a.rssi.as_f64();
            if a.rssi.as_f64() < -70.0 {
                weak += 1;
            }
        }
    }
    assert!(assoc > 500, "too few associated bins ({assoc}) for stable statistics");
    assert!(on_bins > 0);
    AssocStats {
        assoc_share: assoc as f64 / ds.bins.len() as f64,
        mean_rssi: rssi_sum / assoc as f64,
        weak_share: weak as f64 / assoc as f64,
        mean_n24: n24_sum as f64 / on_bins as f64,
    }
}

/// What the exact per-bin `ApWorld::scan_into` path produced for this
/// campaign (2014, scale 0.05, seed 4242, 6 days, 4 workers) before the
/// scan plan became the simulator's only scan path.
const UNCACHED: AssocStats = AssocStats {
    assoc_share: 0.383890,
    mean_rssi: -54.7587,
    weak_share: 0.038370,
    mean_n24: 0.503517,
};

#[test]
fn cached_path_matches_uncached_distributions() {
    let cached = stats(&run(4));
    let uncached = UNCACHED;

    // Association rate: same share of bins end up on WiFi.
    let rel = (cached.assoc_share - uncached.assoc_share).abs() / uncached.assoc_share;
    assert!(
        rel < 0.15,
        "assoc share diverged: cached {} vs uncached {}",
        cached.assoc_share,
        uncached.assoc_share
    );

    // RSSI shape (Fig. 15): mean within 2 dB, weak tail within 5 points.
    assert!(
        (cached.mean_rssi - uncached.mean_rssi).abs() < 2.0,
        "mean assoc RSSI diverged: cached {} vs uncached {}",
        cached.mean_rssi,
        uncached.mean_rssi
    );
    assert!(
        (cached.weak_share - uncached.weak_share).abs() < 0.05,
        "weak share diverged: cached {} vs uncached {}",
        cached.weak_share,
        uncached.weak_share
    );

    // Scan-size distribution: 8σ-pruned plans may drop statistically
    // invisible candidates but must not change what devices actually see.
    let rel = (cached.mean_n24 - uncached.mean_n24).abs() / uncached.mean_n24;
    assert!(
        rel < 0.20,
        "mean 2.4 GHz scan size diverged: cached {} vs uncached {}",
        cached.mean_n24,
        uncached.mean_n24
    );
}

#[test]
fn parallelism_invariant() {
    // Shared-cache races affect timing only: 1 worker and 8 workers must
    // still produce bit-identical datasets.
    let a = run(1);
    let b = run(8);
    assert_eq!(a, b);
}

#[test]
fn cached_run_is_deterministic_across_repeats() {
    let a = run(4);
    let b = run(4);
    assert_eq!(a, b);
}
