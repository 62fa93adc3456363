//! `mtbench`: the mobitrace benchmark.
//!
//! ```text
//! mtbench --workload <paper-batch|live-serve|fleet-ingest> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from the seed, drives the pipeline
//! through the crates' public functions, checks the outputs, and prints
//! one JSON object as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`E2E`]); with
//! `--trace 1` the run records spans around every layer call and the
//! metrics are the per-layer set ([`PER_LAYER`]). See `README.md` for
//! what each metric means on each workload.

mod fleet;
mod live;
mod paper;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "ratio"),
    ("reproduce_s", "s"),
    ("reload_s", "s"),
    ("records_per_s", "1/s"),
    ("freshness_p50_s", "s"),
    ("freshness_p99_s", "s"),
    ("commit_p50_s", "s"),
    ("commit_p99_s", "s"),
];

/// Per-layer metrics of the traced run, without the per-experiment
/// timings (added by [`per_layer_names`]): (name, unit). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.simulate_s", "s"),
    ("core.contexts_s", "s"),
    ("core.experiments_s", "s"),
    ("core.contexts_from_pool_s", "s"),
    ("core.render_mismatches", "count"),
    ("pool.save_s", "s"),
    ("pool.file_bytes", "B"),
    ("pool.load_s", "s"),
    ("pool.append_s", "s"),
    ("pool.append_bytes", "B"),
    ("pool.append_amplification", "ratio"),
    ("collector.ingest_stream_s", "s"),
    ("collector.tap_drain_s", "s"),
    ("collector.tap_overflow", "count"),
    ("live.ingest_batch_s", "s"),
    ("live.fold_s", "s"),
    ("live.compact_s", "s"),
    ("live.compactions", "count"),
    ("live.finish_s", "s"),
    ("live.late_dropped", "count"),
    ("live.late_set_spread", "count"),
    ("live.drain_idle_s", "s"),
    ("query.evaluate_p50_s", "s"),
    ("query.evaluate_p99_s", "s"),
    ("query.refresh_p50_s", "s"),
    ("query.refresh_p99_s", "s"),
    ("query.selected_share", "ratio"),
    ("collector.agent_s", "s"),
    ("fleet.admit_s", "s"),
    ("fleet.submit_s", "s"),
    ("fleet.finish_s", "s"),
    ("fleet.committed", "count"),
    ("fleet.shed", "count"),
    ("fleet.batches", "count"),
    ("bench.generator_lag_p99_s", "s"),
    ("bench.generator_busy_s", "s"),
    ("bench.traced_main_s", "s"),
    ("bench.trace_spans", "count"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.trace_unattributed_max", "ratio"),
];

/// Largest share of a traced thread's wall time that no span may leave
/// unexplained; a traced run over it fails its accounting check.
pub const TRACE_UNATTRIBUTED_BOUND: f64 = 0.05;

/// A paced phase whose generator starts sends later than this after
/// their due time (p99) fell behind its schedule; the run is invalid.
pub const MAX_GENERATOR_LAG_S: f64 = 0.1;

/// Every per-layer metric name with its unit, per-experiment timings
/// (`core.experiment.<id>_s`) included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for id in mobitrace_report::all_experiment_ids() {
        out.push((format!("core.experiment.{id}_s"), "s"));
    }
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks that failed, one line each (empty = correct).
    pub check_failures: Vec<String>,
    /// Units of work offered.
    pub attempted: u64,
    /// Units of work that raised an error.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layer: BTreeMap<String, f64>,
    /// Workload fingerprint: (key, value) pairs.
    pub fingerprint: Vec<(&'static str, String)>,
    /// Per-experiment render digests, where the workload renders.
    pub digests: Vec<(String, String)>,
}

impl Outcome {
    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Record a fingerprint entry.
    pub fn print(&mut self, key: &'static str, value: impl ToString) {
        self.fingerprint.push((key, value.to_string()));
    }
}

/// Close a traced run's books: span count, estimated tracing overhead
/// (calibrated per-span cost × spans, over the traced threads' summed
/// wall time), and the per-thread accounting check against
/// [`TRACE_UNATTRIBUTED_BOUND`].
pub fn record_trace_accounting(out: &mut Outcome) {
    let accounts = trace::Tracer::accounting();
    let spans = trace::Tracer::span_count() as f64;
    let wall: f64 = accounts.iter().map(|a| a.wall_s).sum();
    let per_span = trace::calibrate_span_cost();
    let worst = accounts.iter().map(|a| a.unattributed_share()).fold(0.0, f64::max);
    for a in &accounts {
        eprintln!(
            "mtbench: trace {}: wall {:.3}s = layers {:.3}s + idle {:.3}s + unattributed {:.3}s ({:.2}%)",
            a.role,
            a.wall_s,
            a.layer_s,
            a.idle_s,
            a.unattributed_s,
            100.0 * a.unattributed_share()
        );
        out.check(a.unattributed_share() <= TRACE_UNATTRIBUTED_BOUND, || {
            format!(
                "trace accounting of {} leaves {:.2}% unattributed (bound {:.0}%)",
                a.role,
                100.0 * a.unattributed_share(),
                100.0 * TRACE_UNATTRIBUTED_BOUND
            )
        });
    }
    out.check(!accounts.is_empty(), || "traced run recorded no thread".into());
    out.layer.insert("bench.trace_spans".into(), spans);
    out.layer.insert(
        "bench.trace_overhead_share".into(),
        if wall > 0.0 { spans * per_span / wall } else { 0.0 },
    );
    out.layer.insert("bench.trace_unattributed_max".into(), worst);
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for pools and trace files, inside the benchmark's
/// own directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand freed heap memory back to the OS between repetitions, so the
/// process peak reflects one repetition's working set rather than how
/// much the allocator kept from earlier repetitions.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, only
        // walks the allocator's own free lists under its locks, and may
        // be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Git revision of the source tree, read from `.git` without spawning
/// git; `"none"` outside a repository.
fn git_sha() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "none".into()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Run one workload; the tests call this with small configurations.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-batch" => Ok(paper::run(&paper::PaperConfig::bench(args.seed), args)),
        "live-serve" => Ok(live::run(&live::LiveConfig::bench(args.seed), args)),
        "fleet-ingest" => Ok(fleet::run(&fleet::FleetBenchConfig::bench(args.seed), args)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mtbench: {e}");
            std::process::exit(2);
        }
    };
    trace::set_enabled(args.trace);
    let started = Instant::now();
    let mut out = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mtbench: {e}");
            std::process::exit(2);
        }
    };
    out.print("git_sha", git_sha());
    out.print("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    out.print("trace", u8::from(args.trace));
    if args.trace {
        let trace_path = work_dir().join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match trace::Tracer::write(&trace_path) {
            Ok(()) => eprintln!("mtbench: spans written to {}", trace_path.display()),
            Err(e) => out.check_failures.push(format!("writing the trace failed: {e}")),
        }
    }
    for f in &out.check_failures {
        eprintln!("mtbench: CHECK FAILED: {f}");
    }
    eprintln!("mtbench: {} finished in {:.1}s", args.workload, started.elapsed().as_secs_f64());

    let fp: Vec<String> =
        out.fingerprint.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!("{{\"fingerprint\": {{{}}}}}", fp.join(", "));
    if !out.digests.is_empty() {
        let d: Vec<String> =
            out.digests.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        println!("{{\"render_digests\": {{{}}}}}", d.join(", "));
    }
    let metric = |name: &str, v: f64, unit: &str| {
        format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(name), json_num(v), json_str(unit))
    };
    let metrics: Vec<String> = if args.trace {
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| metric(&name, out.layer.get(&name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, unit)| metric(name, out.e2e.get(name).copied().unwrap_or(f64::NAN), unit))
            .collect()
    };
    let missing_e2e = !args.trace && E2E.iter().any(|(n, _)| !out.e2e.contains_key(n));
    let correct = out.check_failures.is_empty() && !missing_e2e && out.attempted > 0;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
