//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span is a (name, thread, start, end, parent) record. Spans nest per
//! thread: the span open on a thread when another one starts is its
//! parent. Every span's duration and self time (duration minus the time
//! its children cover) is folded into per-name totals as it closes, so
//! the per-layer numbers stay exact even when the per-thread record
//! buffer is full and later spans are no longer kept individually.
//!
//! Each benchmark thread runs inside a root span named `thread.<role>`;
//! time that thread spends waiting on purpose (pacing sleeps, empty-queue
//! polls) is recorded as `idle.*` spans. [`Tracer::accounting`] then
//! checks, per thread, that layer self times plus idle cover the root's
//! wall time: the root's own self time is the part no span explains.
//!
//! With tracing off, [`span`] returns an inert guard after one relaxed
//! atomic load, so untraced runs pay nothing measurable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span records kept per thread; later spans are folded into the totals
/// but not kept individually.
const RECORD_CAP_PER_THREAD: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (dotted, `layer.call`).
    pub name: &'static str,
    /// Benchmark thread number (order of first span on the thread).
    pub thread: u32,
    /// Span number within its thread, in opening order.
    pub id: u64,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// `id` of the parent span on the same thread, `None` for a root.
    pub parent: Option<u64>,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Per-thread accounting of a root span.
#[derive(Debug, Clone)]
pub struct ThreadAccount {
    /// Root span name (`thread.<role>`).
    pub role: &'static str,
    /// Root span duration, seconds.
    pub wall_s: f64,
    /// Self time of all non-idle spans below the root, seconds.
    pub layer_s: f64,
    /// Time in `idle.*` spans, seconds.
    pub idle_s: f64,
    /// Root self time: wall time no span explains, seconds.
    pub unattributed_s: f64,
}

impl ThreadAccount {
    /// Share of the wall time no span explains.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.unattributed_s / self.wall_s
        } else {
            0.0
        }
    }
}

struct Open {
    name: &'static str,
    ordinal: u64,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadBuf {
    thread: u32,
    opened: u64,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, SpanTotals>,
    /// (name, duration ns, self ns) of each closed root span.
    roots: Vec<(&'static str, u64, u64)>,
}

/// What every thread flushed.
#[derive(Default)]
struct Shared {
    records: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, SpanTotals>,
    accounts: Vec<ThreadAccount>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn shared() -> &'static Mutex<Shared> {
    static SHARED: OnceLock<Mutex<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(Shared::default()))
}

thread_local! {
    static BUF: RefCell<Option<ThreadBuf>> = const { RefCell::new(None) };
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switch tracing on or off for the whole process. Call before any
/// thread opens a span.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Span {
    live: bool,
}

/// Open a span named `name` on the current thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { live: false };
    }
    let start_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let buf = b.get_or_insert_with(|| ThreadBuf {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            ..ThreadBuf::default()
        });
        let ordinal = buf.opened;
        buf.opened += 1;
        buf.stack.push(Open { name, ordinal, start_ns, child_ns: 0 });
    });
    Span { live: true }
}

/// Run `f` inside a span named `name`.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end_ns = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let Some(buf) = b.as_mut() else { return };
            let Some(open) = buf.stack.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = buf.stack.last_mut().map(|p| {
                p.child_ns += dur;
                p.ordinal
            });
            let t = buf.totals.entry(open.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
            if parent.is_none() {
                buf.roots.push((open.name, dur, dur.saturating_sub(open.child_ns)));
            }
            if buf.records.len() < RECORD_CAP_PER_THREAD {
                buf.records.push(SpanRecord {
                    name: open.name,
                    thread: buf.thread,
                    id: open.ordinal,
                    start_ns: open.start_ns,
                    end_ns,
                    parent,
                });
            }
        });
    }
}

/// Hand the current thread's spans to the process-wide collection. Call
/// after each root span closes (the accounting assumes one root per
/// flush), at the latest before the thread ends.
pub fn flush_thread() {
    let Some(buf) = BUF.with(|b| b.borrow_mut().take()) else { return };
    let mut idle_ns = 0u64;
    let mut layer_ns = 0u64;
    let root_names: Vec<&str> = buf.roots.iter().map(|r| r.0).collect();
    for (name, t) in &buf.totals {
        if root_names.contains(name) {
            continue;
        }
        if name.starts_with("idle.") {
            idle_ns += t.total_ns;
        } else {
            layer_ns += t.self_ns;
        }
    }
    let mut sh = shared().lock().expect("trace collection lock");
    for &(role, dur, root_self) in &buf.roots {
        sh.accounts.push(ThreadAccount {
            role,
            wall_s: dur as f64 * 1e-9,
            layer_s: layer_ns as f64 * 1e-9,
            idle_s: idle_ns as f64 * 1e-9,
            unattributed_s: root_self as f64 * 1e-9,
        });
    }
    sh.records.extend(buf.records);
    for (name, t) in buf.totals {
        let s = sh.totals.entry(name).or_default();
        s.count += t.count;
        s.total_ns += t.total_ns;
        s.self_ns += t.self_ns;
    }
}

/// Everything flushed so far.
pub struct Tracer;

impl Tracer {
    /// Per-name totals.
    pub fn totals() -> BTreeMap<&'static str, SpanTotals> {
        shared().lock().expect("trace collection lock").totals.clone()
    }

    /// Summed duration of spans named `name`, seconds.
    pub fn total_s(name: &str) -> f64 {
        Tracer::totals().get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9)
    }

    /// Per-thread accounting, one entry per root span.
    pub fn accounting() -> Vec<ThreadAccount> {
        shared().lock().expect("trace collection lock").accounts.clone()
    }

    /// Spans closed in total.
    pub fn span_count() -> u64 {
        Tracer::totals().values().map(|t| t.count).sum()
    }

    /// Write every kept span as one tab-separated line:
    /// `thread id name start_ns end_ns parent`.
    pub fn write(path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let sh = shared().lock().expect("trace collection lock");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread\tid\tname\tstart_ns\tend_ns\tparent")?;
        for r in &sh.records {
            let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.thread, r.id, r.name, r.start_ns, r.end_ns, parent
            )?;
        }
        w.flush()
    }

    /// Forget everything collected (tests run several traced workloads
    /// in one process).
    #[cfg(test)]
    pub fn reset() {
        *shared().lock().expect("trace collection lock") = Shared::default();
    }
}

/// Cost of opening and closing one span on this machine, seconds —
/// the per-span tracing overhead estimate. Measured on a scratch thread
/// so the calibration spans do not enter the collected trace.
pub fn calibrate_span_cost() -> f64 {
    std::thread::spawn(|| {
        const N: u32 = 20_000;
        let t0 = Instant::now();
        {
            let _root = span("calibrate");
            for _ in 0..N {
                drop(span("calibrate.inner"));
            }
        }
        let per = t0.elapsed().as_secs_f64() / f64::from(N);
        BUF.with(|b| b.borrow_mut().take());
        per
    })
    .join()
    .expect("span calibration thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;

    #[test]
    fn self_times_and_idle_close_the_thread_wall_time() {
        let _g = lock();
        set_enabled(true);
        Tracer::reset();
        std::thread::spawn(|| {
            {
                let _root = span("thread.test");
                {
                    let _a = span("layer.outer");
                    std::thread::sleep(std::time::Duration::from_millis(4));
                    time("layer.inner", || std::thread::sleep(std::time::Duration::from_millis(3)));
                }
                time("idle.wait", || std::thread::sleep(std::time::Duration::from_millis(2)));
            }
            flush_thread();
        })
        .join()
        .unwrap();
        let acc = Tracer::accounting();
        assert_eq!(acc.len(), 1);
        let a = &acc[0];
        assert_eq!(a.role, "thread.test");
        assert!(a.idle_s >= 0.002);
        assert!(a.layer_s >= 0.007);
        let closed = a.layer_s + a.idle_s + a.unattributed_s;
        assert!((closed - a.wall_s).abs() < 1e-6, "{a:?}");
        assert!(a.unattributed_share() < 0.2, "{a:?}");
        let totals = Tracer::totals();
        let outer = totals["layer.outer"];
        let inner = totals["layer.inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        set_enabled(false);
        Tracer::reset();
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_enabled(false);
        Tracer::reset();
        time("layer.x", || ());
        flush_thread();
        assert_eq!(Tracer::span_count(), 0);
    }
}
