//! `paper-batch`: the researcher's path.
//!
//! Simulate the 2013/2014/2015 campaigns, build the analysis contexts,
//! run and render all 35 experiments, and commit the campaign pool
//! (`reproduce_s`); then reopen the pool, rebuild the contexts from its
//! stored index and columns, and render all 35 again (`reload_s`).
//! No live, query or fleet work happens here.

use crate::stats::{digest, median};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, trim_heap, work_dir, Args, Outcome};
use mobitrace_core::AnalysisContext;
use mobitrace_report::{all_experiment_ids, run_experiment, CampaignSet};
use mobitrace_sim::CampaignConfig;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct PaperConfig {
    /// Population scale of the measured campaigns (1.0 = the paper's).
    pub scale: f64,
    /// Population scale of the set-up warm-up campaigns.
    pub warmup_scale: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Seed of the campaigns.
    pub seed: u64,
}

/// Measured seconds of budget per reproduce + reload pass.
const BUDGET_PER_PASS_S: f64 = 20.0;

impl PaperConfig {
    /// Passes measured for a `seconds` budget: the budget fixes the work,
    /// so two builds compared with the same budget do the same work.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / BUDGET_PER_PASS_S).round() as usize).max(1)
    }

    /// The benchmark's configuration: the CLI's default scale.
    pub fn bench(seed: u64) -> PaperConfig {
        PaperConfig { scale: 0.15, warmup_scale: 0.01, setup_reps: 3, seed }
    }
}

/// Span name of each experiment's in-memory render, leaked once so spans
/// can carry `&'static str` names.
fn experiment_span_names() -> &'static [(&'static str, &'static str)] {
    static NAMES: OnceLock<Vec<(&'static str, &'static str)>> = OnceLock::new();
    NAMES.get_or_init(|| {
        all_experiment_ids()
            .into_iter()
            .map(|id| (id, &*Box::leak(format!("core.experiment.{id}").into_boxed_str())))
            .collect()
    })
}

/// A paper-vs-measured comparison misses when the measured value is off
/// the paper's by more than this share.
const MISS_TOLERANCE: f64 = 0.25;

/// Every experiment's render digest (`None` for an experiment that
/// failed to run or rendered nothing), plus the paper-vs-measured
/// comparisons made and missed.
struct Renders {
    digests: Vec<(&'static str, Option<String>)>,
    compared: usize,
    missed: usize,
}

/// Run and render every experiment.
fn render_all(
    set: &CampaignSet,
    ctxs: &[AnalysisContext<'_>; 3],
    per_experiment_spans: bool,
) -> Renders {
    let _s = trace::span(if per_experiment_spans {
        "core.experiments"
    } else {
        "core.experiments_reload"
    });
    let mut out = Renders { digests: Vec::new(), compared: 0, missed: 0 };
    for &(id, span_name) in experiment_span_names() {
        let _e =
            trace::span(if per_experiment_spans { span_name } else { "core.experiment_reload" });
        let report = run_experiment(id, set, ctxs);
        if let Some(r) = &report {
            for e in r.metrics.iter().filter_map(|m| m.rel_error()) {
                out.compared += 1;
                out.missed += usize::from(e.is_nan() || e.abs() > MISS_TOLERANCE);
            }
        }
        let text = report.map(|r| r.render()).filter(|t| !t.is_empty());
        out.digests.push((id, text.map(|t| digest(t.as_bytes()))));
    }
    out
}

/// One reproduce + reload pass.
struct Pass {
    reproduce_s: f64,
    reload_s: f64,
    visible_s: f64,
    bins: usize,
    miss_share: f64,
    pool_bytes: u64,
    renders: usize,
    render_failures: usize,
    mismatches: Vec<&'static str>,
    digests: Vec<(String, String)>,
}

fn pass(cfg: &PaperConfig, out: &mut Outcome) -> Option<Pass> {
    let pool_path = work_dir().join(format!("paper-{}.mtpool", cfg.seed));
    let t0 = Instant::now();
    let set = trace::time("sim.simulate", || CampaignSet::simulate(cfg.scale, cfg.seed));
    let ctxs = trace::time("core.contexts", || set.contexts());
    let first = render_all(&set, &ctxs, true);
    let visible_s = t0.elapsed().as_secs_f64();
    let saved = trace::time("pool.save", || set.save_pool(&pool_path));
    let reproduce_s = t0.elapsed().as_secs_f64();
    if let Err(e) = saved {
        out.check(false, || format!("save_pool failed: {e}"));
        return None;
    }

    let t1 = Instant::now();
    let loaded = trace::time("pool.load", || CampaignSet::load_pool(&pool_path));
    let (back, views) = match loaded {
        Ok(v) => v,
        Err(e) => {
            out.check(false, || format!("load_pool failed: {e}"));
            return None;
        }
    };
    let ctxs2 = trace::time("core.contexts_from_pool", || back.contexts_with(views));
    let second = render_all(&back, &ctxs2, false);
    let reload_s = t1.elapsed().as_secs_f64();

    let _c = trace::span("bench.check");
    out.check(set.years == back.years, || "pool-reloaded datasets differ".into());
    out.check(set.update_2015 == back.update_2015, || "pool-reloaded 2015 variant differs".into());
    for (y, (a, b)) in ctxs.iter().zip(&ctxs2).enumerate() {
        out.check(a.index == b.index, || format!("pool-reloaded index of year {y} differs"));
        out.check(a.cols == b.cols, || format!("pool-reloaded columns of year {y} differ"));
    }
    let mut render_failures = 0;
    let mut mismatches = Vec::new();
    let mut digests = Vec::new();
    for ((id, d1), (_, d2)) in first.digests.iter().zip(&second.digests) {
        match (d1, d2) {
            (Some(a), Some(b)) => {
                if a != b {
                    mismatches.push(*id);
                }
                digests.push((id.to_string(), a.clone()));
                digests.push((format!("{id}.reload"), b.clone()));
            }
            _ => {
                render_failures += usize::from(d1.is_none()) + usize::from(d2.is_none());
                out.check(false, || format!("experiment {id} failed to render"));
            }
        }
    }
    let pool_bytes = std::fs::metadata(&pool_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&pool_path);
    let bins: usize = set.years.iter().map(|d| d.bins.len()).sum();
    Some(Pass {
        reproduce_s,
        reload_s,
        visible_s,
        bins,
        miss_share: first.missed as f64 / first.compared.max(1) as f64,
        pool_bytes,
        renders: first.digests.len() + second.digests.len(),
        render_failures,
        mismatches,
        digests,
    })
}

/// Run the workload.
pub fn run(cfg: &PaperConfig, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        out.check(false, || format!("cannot create the work directory: {e}"));
        return out;
    }
    let mut setup = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        let _ = std::fs::remove_file(work_dir().join(format!("paper-{}.mtpool", cfg.seed)));
        let warm = CampaignSet::simulate(cfg.warmup_scale, cfg.seed ^ 0x5e7_u64);
        black_box(warm.contexts().len());
        drop(warm);
        setup.push(t.elapsed().as_secs_f64());
        trim_heap();
    }

    let mut passes = Vec::new();
    {
        let _root = trace::span("thread.main");
        for _ in 0..cfg.passes(args.seconds) {
            match pass(cfg, &mut out) {
                Some(p) => passes.push(p),
                None => break,
            }
            trace::time("bench.trim_heap", trim_heap);
        }
    }
    trace::flush_thread();

    let sim_cfg = CampaignConfig::scaled(mobitrace_model::Year::Y2015, cfg.scale);
    out.print("workload", "paper-batch");
    out.print("seed", cfg.seed);
    out.print("scale", cfg.scale);
    out.print("devices_2015", sim_cfg.n_users);
    out.print("days_2015", sim_cfg.days);
    out.print("threads", format!("sim {} per year, 3 years at once", sim_cfg.effective_threads()));
    out.print("passes", passes.len());
    let Some(last) = passes.last() else {
        return out;
    };
    out.print("records", last.bins);
    out.print("paced_rate", "none");

    let col = |f: fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let reproduce_s = col(|p| p.reproduce_s);
    let visible_s = col(|p| p.visible_s);
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    // The researcher's failures: paper-vs-measured comparisons that miss
    // the paper by more than `MISS_TOLERANCE`.
    out.e2e.insert("failed_share", col(|p| p.miss_share));
    out.e2e.insert("reproduce_s", reproduce_s);
    out.e2e.insert("reload_s", col(|p| p.reload_s));
    out.e2e.insert("records_per_s", col(|p| p.bins as f64 / p.reproduce_s));
    // A batch result appears all at once: every record becomes visible
    // when the last experiment renders, and durable when the pool commits.
    out.e2e.insert("freshness_p50_s", visible_s);
    out.e2e.insert("freshness_p99_s", visible_s);
    out.e2e.insert("commit_p50_s", reproduce_s);
    out.e2e.insert("commit_p99_s", reproduce_s);

    out.attempted = passes.iter().map(|p| p.renders as u64).sum();
    out.failed = passes.iter().map(|p| p.render_failures as u64).sum();
    out.digests = last.digests.clone();
    let mut varying: Vec<&str> = passes.iter().flat_map(|p| p.mismatches.iter().copied()).collect();
    varying.sort_unstable();
    varying.dedup();
    if !varying.is_empty() {
        eprintln!(
            "mtbench: in-memory and pool-reload renders differ for: {} (known HashMap tie-break defect)",
            varying.join(", ")
        );
    }
    out.print("render_mismatches", if varying.is_empty() { "-".into() } else { varying.join(",") });

    if args.trace {
        let n = passes.len() as f64;
        let per = |name: &str| Tracer::total_s(name) / n;
        let l = &mut out.layer;
        l.insert("sim.simulate_s".into(), per("sim.simulate"));
        l.insert("core.contexts_s".into(), per("core.contexts"));
        l.insert("core.experiments_s".into(), per("core.experiments"));
        for &(id, span_name) in experiment_span_names() {
            l.insert(format!("core.experiment.{id}_s"), per(span_name));
        }
        l.insert("core.contexts_from_pool_s".into(), per("core.contexts_from_pool"));
        l.insert("core.render_mismatches".into(), col(|p| p.mismatches.len() as f64));
        l.insert("pool.save_s".into(), per("pool.save"));
        l.insert("pool.load_s".into(), per("pool.load"));
        l.insert("pool.file_bytes".into(), col(|p| p.pool_bytes as f64));
        l.insert("bench.traced_main_s".into(), reproduce_s);
        crate::record_trace_accounting(&mut out);
    }
    out
}
