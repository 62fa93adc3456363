//! Fleet-scale synthetic observation source.
//!
//! A million-device stress run cannot afford a million [`DeviceSim`]s —
//! persona sampling, per-device chaos schedules and appmix state are
//! sized for paper-scale campaigns (thousands of devices). What the fleet
//! frontend actually needs is a cheap, *realistic* stream of per-bin
//! [`Observation`]s to feed each device's agent. This module builds one
//! by running a small scan-plan-cached template campaign once and
//! inverting its records back into per-bin observations: the cumulative
//! counter deltas between consecutive records of one template device are
//! exactly what that device's agent observed in that bin (reboots reset
//! the counters, so an epoch change makes the delta the raw value).
//!
//! Fleet devices then replay the templates round-robin: device `d` plays
//! template `d % templates`, stepping one observation per upload round.
//! Because the [`DeviceAgent`](mobitrace_collector::DeviceAgent) stamps
//! its own device id and sequence number into every record, thousands of
//! devices can share one template without their streams colliding.
//!
//! [`DeviceSim`]: crate::DeviceSim

use crate::campaign::run_campaign_raw;
use crate::config::CampaignConfig;
use mobitrace_collector::Observation;
use mobitrace_model::{Record, Year};

/// A pool of per-bin observation traces, one per template device.
#[derive(Debug)]
pub struct ObservationPool {
    templates: Vec<Vec<Observation>>,
}

impl ObservationPool {
    /// Build the pool from a template campaign of roughly `templates`
    /// devices over `days` days. Deterministic for a given seed.
    pub fn build(year: Year, templates: usize, days: u32, seed: u64) -> ObservationPool {
        // `scaled` floors at 20 users; scale against the paper's ~1600.
        let mut cfg = CampaignConfig::scaled(year, templates as f64 / 1600.0);
        cfg.days = days.max(1);
        cfg.seed = seed;
        let raw = run_campaign_raw(&cfg, |_| {});
        let mut out: Vec<Vec<Observation>> = Vec::new();
        let records = &raw.records;
        let mut i = 0;
        while i < records.len() {
            let device = records[i].device;
            let mut j = i;
            while j < records.len() && records[j].device == device {
                j += 1;
            }
            let trace: Vec<Observation> =
                records[i..j].windows(2).map(|w| observation_between(Some(&w[0]), &w[1])).collect();
            // The first record has no predecessor; its cumulative counters
            // are its own deltas.
            let mut full = vec![observation_between(None, &records[i])];
            full.extend(trace);
            if !full.is_empty() {
                out.push(full);
            }
            i = j;
        }
        assert!(!out.is_empty(), "template campaign produced no records");
        ObservationPool { templates: out }
    }

    /// Number of template traces in the pool.
    pub fn n_templates(&self) -> usize {
        self.templates.len()
    }

    /// The observation fleet device `device_index` plays at upload round
    /// `step` (templates and steps wrap).
    pub fn get(&self, device_index: usize, step: usize) -> &Observation {
        let trace = &self.templates[device_index % self.templates.len()];
        &trace[step % trace.len()]
    }

    /// Total observations across all templates.
    pub fn total_observations(&self) -> usize {
        self.templates.iter().map(Vec::len).sum()
    }
}

/// Invert one record into the observation that produced it: the delta of
/// the cumulative counters against the previous record of the same boot
/// epoch (a reboot resets the counters, so the raw value *is* the delta).
/// App detail is dropped — fleet agents re-accumulate their own counters,
/// and per-app volumes do not change frame-path cost materially.
fn observation_between(prev: Option<&Record>, cur: &Record) -> Observation {
    let delta = |c: u64, p: u64| c.saturating_sub(p);
    let base = prev.filter(|p| p.boot_epoch == cur.boot_epoch);
    let (p3, pl, pw) = match base {
        Some(p) => (p.counters.cell3g, p.counters.lte, p.counters.wifi),
        None => Default::default(),
    };
    Observation {
        time: cur.time,
        rx_3g: delta(cur.counters.cell3g.rx_bytes, p3.rx_bytes),
        tx_3g: delta(cur.counters.cell3g.tx_bytes, p3.tx_bytes),
        rx_lte: delta(cur.counters.lte.rx_bytes, pl.rx_bytes),
        tx_lte: delta(cur.counters.lte.tx_bytes, pl.tx_bytes),
        rx_wifi: delta(cur.counters.wifi.rx_bytes, pw.rx_bytes),
        tx_wifi: delta(cur.counters.wifi.tx_bytes, pw.tx_bytes),
        wifi: cur.wifi.clone(),
        scan: cur.scan,
        apps: Vec::new(),
        geo: cur.geo,
        charging: false,
        tethering: cur.tethering,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_collector::DeviceAgent;
    use mobitrace_model::{DeviceId, Os, OsVersion};

    #[test]
    fn pool_is_deterministic_and_replayable() {
        let a = ObservationPool::build(Year::Y2015, 20, 2, 7);
        let b = ObservationPool::build(Year::Y2015, 20, 2, 7);
        assert_eq!(a.n_templates(), b.n_templates());
        assert!(a.n_templates() >= 1);
        assert!(a.total_observations() > 100);
        for t in 0..a.n_templates() {
            for s in 0..8 {
                assert_eq!(a.get(t, s), b.get(t, s));
            }
        }
        // Wrapping: any device index and step resolve to an observation.
        let _ = a.get(1_000_000, 10_000);
    }

    #[test]
    fn agents_replaying_templates_produce_valid_streams() {
        let pool = ObservationPool::build(Year::Y2015, 20, 1, 9);
        let mut agent = DeviceAgent::new(DeviceId(123), Os::Android, OsVersion::new(4, 4));
        for step in 0..10 {
            agent.observe(pool.get(123, step));
        }
        assert_eq!(agent.pending(), 10);
        assert_eq!(agent.records_made, 10);
    }
}
