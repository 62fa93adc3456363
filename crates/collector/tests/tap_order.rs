//! The ingest tap keeps each shard's publish order under concurrent load:
//! with producers publishing and a consumer draining at the same time,
//! every device's records leave the tap in the order they were stored.
//! The live engine's watermark depends on it — a newer record overtaking
//! older ones pushes the watermark past them and they are dropped as late.

use mobitrace_collector::CollectionServer;
use mobitrace_model::{
    CellId, CounterSnapshot, DeviceId, Os, OsVersion, Record, ScanSummary, SimTime, WifiState,
};
use std::sync::atomic::{AtomicBool, Ordering};

const PRODUCERS: u32 = 8;
const PER_PRODUCER: u32 = 40_000;

fn record(device: u32, seq: u32) -> Record {
    Record {
        device: DeviceId(device),
        os: Os::Android,
        seq,
        time: SimTime::from_minutes(seq * 10),
        boot_epoch: 0,
        counters: CounterSnapshot::default(),
        wifi: WifiState::Off,
        scan: ScanSummary::default(),
        apps: vec![],
        geo: CellId::new(0, 0),
        battery_pct: 50,
        tethering: false,
        os_version: OsVersion::new(4, 4),
    }
}

/// Eight producers, one device each, all on one shard, against a drainer
/// that never stops draining: each device's seqs come out 0, 1, 2, …
#[test]
fn concurrent_drain_keeps_per_device_publish_order() {
    let server = CollectionServer::with_shards(1);
    let tap = server.attach_tap();
    let stop = AtomicBool::new(false);

    // Checked as it drains, so the test holds one drain's worth of
    // batches rather than all 320k.
    let (next, out_of_order) = std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            let mut next = vec![0u32; PRODUCERS as usize];
            let mut out_of_order = Vec::new();
            let mut batches = Vec::new();
            loop {
                // Read the flag before draining so the last drain runs
                // after every producer has finished publishing.
                let stopping = stop.load(Ordering::Acquire);
                tap.drain_into(&mut batches);
                for r in batches.drain(..).flat_map(|b| b.records) {
                    let d = r.device.0 as usize;
                    if r.seq != next[d] {
                        out_of_order.push((r.device.0, next[d], r.seq));
                    }
                    next[d] = r.seq + 1;
                }
                if stopping {
                    return (next, out_of_order);
                }
            }
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|d| {
                let server = &server;
                s.spawn(move || {
                    for q in 0..PER_PRODUCER {
                        server.store_batch(vec![record(d, q)]);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer thread");
        }
        stop.store(true, Ordering::Release);
        drainer.join().expect("drain thread")
    });

    assert!(
        out_of_order.is_empty(),
        "{} records left the tap out of order; first (device, expected, got): {:?}",
        out_of_order.len(),
        &out_of_order[..out_of_order.len().min(5)]
    );
    assert_eq!(next, vec![PER_PRODUCER; PRODUCERS as usize], "every device drained to its end");
    assert_eq!(tap.published(), u64::from(PRODUCERS * PER_PRODUCER));
}
