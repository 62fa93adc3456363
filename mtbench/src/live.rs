//! `live-serve`: the operator's streaming path.
//!
//! Set-up simulates the 2015 campaign once on one simulator thread with
//! an ingest tap attached, and keeps every accepted upload, in upload
//! order, as an `encode_batch` stream. A replay sends those streams from
//! one generator thread into a fresh `CollectionServer::ingest_stream`;
//! the calling thread drains the tap into a `LiveEngine`, and on every
//! compaction appends the snapshot to a pool (`SnapshotPoolSink`) and
//! evaluates three queries on it. The replay ends with `finish` and one
//! more append + evaluate of the final snapshot.
//!
//! Phase A replays at a fixed record rate (open loop: every upload has a
//! due time, and lateness counts from it); phase B replays unpaced. An
//! unmeasured unpaced replay warms up first.

use crate::stats::{median, quantile, Fnv};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, trim_heap, work_dir, Args, Outcome};
use bytes::{Bytes, BytesMut};
use mobitrace_collector::{encode_batch, CollectionServer, TapBatch};
use mobitrace_core::AnalysisContext;
use mobitrace_live::{
    check_convergence, latest_generation, LiveEngine, LiveOptions, SnapshotPoolSink,
};
use mobitrace_model::{CampaignMeta, DeviceInfo, LiveSnapshot, Year};
use mobitrace_query::{evaluate_payload, watermark_minute, CompileOptions, Query, QuerySet};
use mobitrace_sim::{run_campaign_raw, CampaignConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Measured seconds of budget per phase-A + phase-B pair.
const BUDGET_PER_PAIR_S: f64 = 5.0;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Population scale of the 2015 campaign.
    pub scale: f64,
    /// Campaign days (`None` = the year's full campaign).
    pub days: Option<u32>,
    /// Phase-A (paced) rate, records per second.
    pub paced_rate: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Campaign seed.
    pub seed: u64,
}

impl LiveConfig {
    /// The benchmark's configuration.
    pub fn bench(seed: u64) -> LiveConfig {
        LiveConfig { scale: 0.05, days: None, paced_rate: 60_000.0, setup_reps: 3, seed }
    }

    /// Phase-A/phase-B pairs measured for a `seconds` budget: the budget
    /// fixes the work, so two builds compared with the same budget do
    /// the same work.
    pub fn pairs(&self, seconds: f64) -> usize {
        ((seconds / BUDGET_PER_PAIR_S).round() as usize).max(1)
    }
}

/// The captured upload trace.
pub struct Trace {
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    /// One `encode_batch` stream per accepted upload, in upload order.
    streams: Vec<Bytes>,
    /// Device of each stream (an upload carries one device's records).
    stream_device: Vec<u32>,
    /// Sample minutes of each stream's records, flattened.
    minutes: Vec<u32>,
    /// Offsets of each stream's records in `minutes` (len = streams + 1).
    offsets: Vec<usize>,
    /// Digest of the stream bytes in upload order.
    pub digest: String,
}

impl Trace {
    /// Records in the trace.
    pub fn records(&self) -> usize {
        self.minutes.len()
    }

    /// Send the first upload twice: the server stores it once, so the
    /// tap publishes fewer records than the trace offers.
    #[cfg(test)]
    pub fn duplicate_first_upload(&mut self) {
        let n = self.offsets[1];
        self.streams.insert(1, self.streams[0].clone());
        self.stream_device.insert(1, self.stream_device[0]);
        let first: Vec<u32> = self.minutes[..n].to_vec();
        self.minutes.splice(n..n, first);
        let shifted: Vec<usize> = self.offsets[1..].iter().map(|o| o + n).collect();
        self.offsets.truncate(1);
        self.offsets.push(n);
        self.offsets.extend(shifted);
    }
}

/// Simulate the campaign on one thread with a tap attached and capture
/// its uploads.
pub fn capture(cfg: &LiveConfig) -> Trace {
    let mut sim =
        CampaignConfig::scaled(Year::Y2015, cfg.scale).with_seed(cfg.seed).with_threads(1);
    if let Some(d) = cfg.days {
        sim.days = d;
    }
    let mut tap = None;
    let raw = run_campaign_raw(&sim, |server| tap = Some(server.attach_tap()));
    let (meta, devices) = (raw.meta, raw.devices);
    let tap = tap.expect("on_server hook ran");
    let mut batches: Vec<TapBatch> = Vec::new();
    tap.drain_into(&mut batches);
    // One simulator thread runs the devices one after another, so the
    // upload order is device-major; per shard the tap keeps publish
    // order, and a device never spans shards, so a stable sort by device
    // restores the exact upload order. An upload is a run of one
    // device's records within a batch: (device, batch, start, end).
    let mut uploads: Vec<(u32, usize, usize, usize)> = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        let mut start = 0;
        for i in 1..=b.records.len() {
            if i == b.records.len() || b.records[i].device != b.records[start].device {
                uploads.push((b.records[start].device.0, k, start, i));
                start = i;
            }
        }
    }
    uploads.sort_by_key(|u| u.0);
    let mut streams = Vec::with_capacity(uploads.len());
    let mut stream_device = Vec::with_capacity(uploads.len());
    let mut minutes = Vec::new();
    let mut offsets = vec![0];
    let mut h = Fnv::default();
    let mut buf = BytesMut::new();
    for &(device, k, lo, hi) in &uploads {
        let records = &batches[k].records[lo..hi];
        encode_batch(records.iter(), &mut buf);
        let s = buf.split().freeze();
        h.write(&s);
        streams.push(s);
        stream_device.push(device);
        minutes.extend(records.iter().map(|r| r.time.minute));
        offsets.push(minutes.len());
    }
    Trace { meta, devices, streams, stream_device, minutes, offsets, digest: h.hex() }
}

fn queries() -> QuerySet {
    QuerySet {
        queries: vec![
            Query::unfiltered("all"),
            Query::parse("home", "venue=home").expect("query parses"),
            Query::parse("android_day1", "os=android && day>=1").expect("query parses"),
        ],
        opts: CompileOptions::default(),
    }
}

/// One served generation.
struct Generation {
    /// Seconds from replay start to the pool commit of this generation.
    committed_s: f64,
    /// Seconds from replay start to the end of its query evaluation.
    visible_s: f64,
    /// Newest bin minute per device (`None` = no bin yet).
    newest: Vec<Option<u32>>,
}

/// What one replay measured.
pub struct Replay {
    /// Seconds from the first send to the final generation served.
    pub served_s: f64,
    /// Records offered per second over `served_s`.
    pub records_per_s: f64,
    /// Late-dropped share of the offered records.
    pub late_share: f64,
    /// Late-dropped records.
    pub late_dropped: u64,
    /// Due → visible, seconds, per record that became visible.
    pub freshness: Vec<f64>,
    /// Due → pool commit, seconds, per record that became visible.
    pub commit: Vec<f64>,
    /// Records never covered by any generation (cleaned away at a
    /// device's tail).
    pub never_visible: u64,
    /// Send start − due, seconds, per upload (0 when unpaced).
    pub lag: Vec<f64>,
    /// Reopen the pool and evaluate the queries on its newest generation.
    pub reload_s: f64,
    /// Generator time spent inside `ingest_stream`, seconds.
    pub generator_busy_s: f64,
    /// Query evaluation time per generation, seconds.
    pub evaluate_s: Vec<f64>,
    /// Per-query evaluation time, seconds.
    pub refresh_s: Vec<f64>,
    /// Rows selected by the filtered queries over snapshot rows, final
    /// generation.
    pub selected_share: f64,
    /// Compactions.
    pub compactions: u64,
    /// Fold and compaction time reported by the engine, seconds.
    pub fold_s: f64,
    /// Compaction time reported by the engine, seconds.
    pub compact_s: f64,
    /// Tap records that took the spill path.
    pub tap_overflow: u64,
    /// Pool bytes appended over the replay.
    pub append_bytes: u64,
    /// Appended bytes over the final generation's bytes.
    pub append_amplification: f64,
}

fn newest_per_device(snap: &LiveSnapshot, n_devices: usize) -> Vec<Option<u32>> {
    (0..n_devices)
        .map(|d| {
            let range = snap.index.device_range(mobitrace_model::DeviceId(d as u32));
            snap.ds.bins[range].iter().map(|b| b.time.minute).max()
        })
        .collect()
}

/// Replay the trace once. `rate` paces the generator (records/s);
/// `None` sends as fast as ingest takes them.
pub fn replay(
    tr: &Trace,
    rate: Option<f64>,
    pool_path: &Path,
    out: &mut Outcome,
) -> Option<Replay> {
    let n_devices = tr.devices.len();
    let opts = LiveOptions::default();
    let qs = queries();
    let server = CollectionServer::new();
    let tap = server.attach_tap();
    let mut engine = LiveEngine::new(tr.meta.clone(), n_devices, opts);
    let mut sink = match SnapshotPoolSink::create(pool_path) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("cannot create the live pool: {e}"));
            return None;
        }
    };
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut gens: Vec<Generation> = Vec::new();
    let mut evaluate_s = Vec::new();
    let mut refresh_s = Vec::new();
    let mut append_sizes: Vec<u64> = Vec::new();
    let mut last_records = Vec::new();

    let mut serve = |snap: &LiveSnapshot,
                     generation: u64,
                     sink: &mut SnapshotPoolSink,
                     gens: &mut Vec<Generation>| {
        trace::time("pool.append", || sink.append(snap));
        let committed_s = start.elapsed().as_secs_f64();
        append_sizes.push(std::fs::metadata(pool_path).map_or(0, |m| m.len()));
        let t = Instant::now();
        let recs = trace::time("query.evaluate", || {
            qs.evaluate(&snap.ds, &snap.index, &snap.cols, generation, watermark_minute(&snap.cols))
        });
        evaluate_s.push(t.elapsed().as_secs_f64());
        let visible_s = start.elapsed().as_secs_f64();
        refresh_s.extend(recs.iter().map(|r| r.elapsed_s));
        let newest = trace::time("bench.visibility", || newest_per_device(snap, n_devices));
        gens.push(Generation { committed_s, visible_s, newest });
        last_records = recs;
    };

    let (first_send, fin, lag, busy) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut lag = Vec::with_capacity(tr.streams.len());
            let mut busy = 0.0;
            let first;
            {
                let _root = trace::span("thread.generator");
                first = start.elapsed().as_secs_f64();
                for (i, s) in tr.streams.iter().enumerate() {
                    if let Some(rate) = rate {
                        let due = first + tr.offsets[i] as f64 / rate;
                        let now = start.elapsed().as_secs_f64();
                        if now < due {
                            let _idle = trace::span("idle.pace");
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        lag.push((start.elapsed().as_secs_f64() - due).max(0.0));
                    }
                    let t = Instant::now();
                    trace::time("collector.ingest_stream", || server.ingest_stream(s.clone()));
                    busy += t.elapsed().as_secs_f64();
                }
            }
            done.store(true, Ordering::Release);
            trace::flush_thread();
            (first, lag, busy)
        });

        let _root = trace::span("thread.drain");
        let mut batches = Vec::new();
        let mut seen = 0u64;
        loop {
            // Read the flag before draining: everything published before
            // the generator finished is caught by this last drain.
            let stopping = done.load(Ordering::Acquire);
            trace::time("collector.tap_drain", || tap.drain_into(&mut batches));
            let idle = batches.is_empty();
            for b in batches.drain(..) {
                // The span covers releasing the batch too: the consumer
                // frees every record the tap handed over.
                trace::time("live.ingest_batch", || {
                    engine.ingest_batch(&b);
                    drop(b);
                });
            }
            let compactions = engine.stats().compactions;
            if compactions > seen {
                seen = compactions;
                let snap = trace::time("live.snapshot", || engine.snapshot());
                serve(&snap, compactions, &mut sink, &mut gens);
            }
            if stopping {
                break;
            }
            if idle {
                let _idle = trace::span("idle.drain");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        trace::time("live.install_devices", || engine.install_devices(tr.devices.clone()));
        let fin = trace::time("live.finish", || engine.finish());
        serve(&fin.snapshot, fin.stats.compactions, &mut sink, &mut gens);
        drop(_root);
        trace::flush_thread();
        let (first, lag, busy) = generator.join().expect("generator thread");
        (first, fin, lag, busy)
    });
    let served_s = gens.last().map_or(0.0, |g| g.visible_s) - first_send;
    let spool = sink.stats();
    drop(sink);

    // Reload: reopen the spooled pool and answer from its newest generation.
    let t = Instant::now();
    let reloaded = latest_generation(pool_path);
    let reload_answers = match &reloaded {
        Ok(Some(pd)) => {
            Some(qs.evaluate(&pd.ds, &pd.index, &pd.cols, 0, watermark_minute(&pd.cols)))
        }
        _ => None,
    };
    let reload_s = t.elapsed().as_secs_f64();

    // Output checks.
    let offered = tr.records() as u64;
    out.check(spool.error.is_none(), || format!("pool spool degraded: {:?}", spool.error));
    out.check(tap.published() == offered, || {
        format!("tap published {} of {} replayed records", tap.published(), offered)
    });
    out.check(fin.stats.records_seen == offered, || {
        format!("engine saw {} of {} records", fin.stats.records_seen, offered)
    });
    match &reloaded {
        Ok(Some(pd)) => out.check(
            pd.ds == fin.snapshot.ds
                && pd.index == fin.snapshot.index
                && pd.cols == fin.snapshot.cols,
            || "reloaded pool generation differs from the final snapshot".into(),
        ),
        Ok(None) => out.check(false, || "live pool holds no generation".into()),
        Err(e) => out.check(false, || format!("reopening the live pool failed: {e}")),
    }
    let served_payload =
        last_records.iter().find(|r| r.filter.is_empty()).map(|r| r.metrics.clone());
    let batch_payload = evaluate_payload(&AnalysisContext::new(&fin.snapshot.ds));
    out.check(served_payload.as_ref() == Some(&batch_payload), || {
        "final unfiltered payload differs from the batch payload".into()
    });
    if let Some(ans) = &reload_answers {
        out.check(
            ans.iter().map(|r| &r.metrics).eq(last_records.iter().map(|r| &r.metrics)),
            || "answers from the reloaded pool differ from the served answers".into(),
        );
    }
    let tap_overflow = tap.overflow();
    drop(tap);
    let records = server.into_records();
    if let Err(why) = check_convergence(&fin, &records, opts.clean) {
        out.check(false, || format!("live snapshot diverged from batch: {why}"));
    }

    // Freshness and commit latency, per record.
    let mut freshness = Vec::with_capacity(tr.records());
    let mut commit = Vec::with_capacity(tr.records());
    let mut never_visible = 0u64;
    for (i, &dev) in tr.stream_device.iter().enumerate() {
        let due = match rate {
            Some(r) => first_send + tr.offsets[i] as f64 / r,
            None => first_send,
        };
        let g0 = gens.partition_point(|g| g.visible_s < due);
        for &minute in &tr.minutes[tr.offsets[i]..tr.offsets[i + 1]] {
            let hit =
                gens[g0..].iter().find(|g| g.newest[dev as usize].is_some_and(|m| m >= minute));
            match hit {
                Some(g) => {
                    freshness.push(g.visible_s - due);
                    commit.push((g.committed_s - due).max(0.0));
                }
                None => never_visible += 1,
            }
        }
    }
    let final_bytes =
        append_sizes.len().checked_sub(2).map_or(append_sizes.last().copied().unwrap_or(0), |i| {
            append_sizes[i + 1] - append_sizes[i]
        });
    let append_bytes = append_sizes.last().copied().unwrap_or(0);
    let rows = last_records.iter().find(|r| r.filter.is_empty()).map_or(0, |r| r.rows);
    let filtered: Vec<f64> = last_records
        .iter()
        .filter(|r| !r.filter.is_empty())
        .map(|r| r.rows as f64 / rows.max(1) as f64)
        .collect();
    let _ = std::fs::remove_file(pool_path);
    drop(records);
    trim_heap();
    eprintln!(
        "mtbench: live replay {}: served in {:.3}s ({:.0} records/s), {} generations, late {}, reload {:.3}s, freshness p50 {:.3}s p99 {:.3}s, peak rss {:.0} MB",
        if rate.is_some() { "A" } else { "B" },
        served_s,
        offered as f64 / served_s,
        gens.len(),
        fin.stats.late_dropped,
        reload_s,
        crate::stats::quantile(&freshness, 0.5),
        crate::stats::quantile(&freshness, 0.99),
        peak_rss_mb(),
    );
    Some(Replay {
        served_s,
        records_per_s: offered as f64 / served_s,
        late_share: fin.stats.late_dropped as f64 / offered.max(1) as f64,
        late_dropped: fin.stats.late_dropped,
        freshness,
        commit,
        never_visible,
        lag,
        reload_s,
        generator_busy_s: busy,
        evaluate_s,
        refresh_s,
        selected_share: filtered.iter().sum::<f64>() / filtered.len().max(1) as f64,
        compactions: fin.stats.compactions,
        fold_s: fin.stats.fold_nanos as f64 * 1e-9,
        compact_s: fin.stats.compact_nanos as f64 * 1e-9,
        tap_overflow,
        append_bytes,
        append_amplification: append_bytes as f64 / final_bytes.max(1) as f64,
    })
}

/// Run the workload.
pub fn run(cfg: &LiveConfig, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        out.check(false, || format!("cannot create the work directory: {e}"));
        return out;
    }
    let pool_path = work_dir().join(format!("live-{}.mtpool", cfg.seed));
    let traced = trace::enabled();
    trace::set_enabled(false);

    let mut setup = Vec::new();
    let mut tr = None;
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        let captured = capture(cfg);
        setup.push(t.elapsed().as_secs_f64());
        trim_heap();
        if let Some(prev) = &tr {
            let prev: &Trace = prev;
            out.check(prev.digest == captured.digest, || {
                "captured upload trace differs between set-up repetitions".into()
            });
        }
        tr = Some(captured);
    }
    let tr = tr.expect("at least one set-up");
    eprintln!("mtbench: live set-up done, peak rss {:.0} MB", peak_rss_mb());

    // Warm-up: one unmeasured unpaced replay.
    let warm = replay(&tr, None, &pool_path, &mut out);
    trace::set_enabled(traced);

    let mut phase_a = Vec::new();
    let mut phase_b = Vec::new();
    for _ in 0..cfg.pairs(args.seconds) {
        let Some(a) = replay(&tr, Some(cfg.paced_rate), &pool_path, &mut out) else { break };
        phase_a.push(a);
        let Some(b) = replay(&tr, None, &pool_path, &mut out) else { break };
        phase_b.push(b);
    }
    let all: Vec<&Replay> = phase_a.iter().chain(&phase_b).collect();
    // Known defect: the engine's late set depends on drain timing, so it
    // can differ between replays of the same upload order. Reported, not
    // gated: `check_convergence` compares against the engine's own late
    // set, so every replay still converges.
    let late: Vec<u64> = warm.iter().chain(all.iter().copied()).map(|r| r.late_dropped).collect();
    let (late_min, late_max) =
        (late.iter().copied().min().unwrap_or(0), late.iter().copied().max().unwrap_or(0));
    if late_min != late_max {
        eprintln!(
            "mtbench: late set varies across replays of one trace: {late_min}..{late_max} records (known drain-timing defect)"
        );
    }

    out.print("workload", "live-serve");
    out.print("seed", cfg.seed);
    out.print("scale", cfg.scale);
    out.print("devices", tr.devices.len());
    out.print("days", tr.meta.days);
    out.print("uploads", tr.streams.len());
    out.print("records", tr.records());
    out.print("paced_rate", cfg.paced_rate);
    out.print("threads", "sim 1 (set-up), generator 1, drain 1");
    out.print("trace_digest", &tr.digest);
    out.print("replays", format!("{}+{}", phase_a.len(), phase_b.len()));
    if phase_a.is_empty() || phase_b.is_empty() {
        out.check(false, || "no complete phase-A/phase-B replay pair".into());
        return out;
    }

    let col = |rs: &[Replay], f: fn(&Replay) -> f64| -> f64 {
        median(&rs.iter().map(f).collect::<Vec<_>>())
    };
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.e2e.insert("failed_share", col(&phase_b, |r| r.late_share));
    out.e2e.insert("reproduce_s", col(&phase_b, |r| r.served_s));
    // Every replay ends on the same final snapshot, so every replay's
    // reload does the same work: take the median over all of them.
    out.e2e.insert("reload_s", median(&all.iter().map(|r| r.reload_s).collect::<Vec<_>>()));
    out.e2e.insert("records_per_s", col(&phase_b, |r| r.records_per_s));
    out.e2e.insert("freshness_p50_s", col(&phase_a, |r| quantile(&r.freshness, 0.5)));
    out.e2e.insert("freshness_p99_s", col(&phase_a, |r| quantile(&r.freshness, 0.99)));
    out.e2e.insert("commit_p50_s", col(&phase_a, |r| quantile(&r.commit, 0.5)));
    out.e2e.insert("commit_p99_s", col(&phase_a, |r| quantile(&r.commit, 0.99)));
    out.attempted = all.len() as u64 * tr.records() as u64;
    out.failed = 0;
    out.print("never_visible", phase_b[0].never_visible);
    out.print("late_dropped", format!("{late_min}..{late_max}"));

    let lag_p99 = col(&phase_a, |r| quantile(&r.lag, 0.99));
    out.check(lag_p99 <= crate::MAX_GENERATOR_LAG_S, || {
        format!(
            "phase A is invalid: the generator fell behind its schedule (lag p99 {lag_p99:.3}s)"
        )
    });
    eprintln!(
        "mtbench: live-serve phase A lag p99 {:.4}s, phase B {:.0} records/s",
        lag_p99,
        col(&phase_b, |r| r.records_per_s)
    );
    if args.trace {
        let n = all.len() as f64;
        let per = |name: &str| Tracer::total_s(name) / n;
        let l = &mut out.layer;
        l.insert("pool.append_s".into(), per("pool.append"));
        l.insert("pool.append_bytes".into(), col(&phase_b, |r| r.append_bytes as f64));
        l.insert("pool.append_amplification".into(), col(&phase_b, |r| r.append_amplification));
        l.insert("collector.ingest_stream_s".into(), per("collector.ingest_stream"));
        l.insert("collector.tap_drain_s".into(), per("collector.tap_drain"));
        l.insert("collector.tap_overflow".into(), col(&phase_b, |r| r.tap_overflow as f64));
        l.insert("live.ingest_batch_s".into(), per("live.ingest_batch"));
        l.insert("live.fold_s".into(), col(&phase_b, |r| r.fold_s));
        l.insert("live.compact_s".into(), col(&phase_b, |r| r.compact_s));
        l.insert("live.compactions".into(), col(&phase_b, |r| r.compactions as f64));
        l.insert("live.finish_s".into(), per("live.finish"));
        l.insert("live.late_dropped".into(), col(&phase_b, |r| r.late_dropped as f64));
        l.insert("live.late_set_spread".into(), (late_max - late_min) as f64);
        l.insert("live.drain_idle_s".into(), per("idle.drain"));
        let evals: Vec<f64> = all.iter().flat_map(|r| r.evaluate_s.iter().copied()).collect();
        let refresh: Vec<f64> = all.iter().flat_map(|r| r.refresh_s.iter().copied()).collect();
        l.insert("query.evaluate_p50_s".into(), quantile(&evals, 0.5));
        l.insert("query.evaluate_p99_s".into(), quantile(&evals, 0.99));
        l.insert("query.refresh_p50_s".into(), quantile(&refresh, 0.5));
        l.insert("query.refresh_p99_s".into(), quantile(&refresh, 0.99));
        l.insert("query.selected_share".into(), col(&phase_b, |r| r.selected_share));
        l.insert("bench.generator_lag_p99_s".into(), lag_p99);
        l.insert("bench.generator_busy_s".into(), col(&phase_a, |r| r.generator_busy_s));
        l.insert("bench.traced_main_s".into(), col(&phase_b, |r| r.served_s));
        crate::record_trace_accounting(&mut out);
    }
    out
}
