//! AP density maps (Fig. 10): unique associated APs per 5 km cell, by
//! venue class.

use crate::apclass::{ApClass, ApClassification};
use mobitrace_model::{CellId, Dataset};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;

/// One density map: cell → number of unique associated APs of a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ApDensityMap {
    /// Per-cell AP counts.
    pub cells: HashMap<CellId, u32>,
}

impl ApDensityMap {
    /// Number of cells with at least `n` APs (the paper compares cells
    /// with ≥1 and ≥100 APs across years).
    pub fn cells_with_at_least(&self, n: u32) -> usize {
        self.cells.values().filter(|&&v| v >= n).count()
    }

    /// The maximum cell count.
    pub fn max_cell(&self) -> u32 {
        self.cells.values().copied().max().unwrap_or(0)
    }
}

/// The cell an AP's associations were most often reported from; a tie
/// goes to the smallest [`CellId`], so the answer never depends on the
/// vote map's iteration order. `None` for an empty vote map.
pub fn modal_cell(votes: &HashMap<CellId, u32>) -> Option<CellId> {
    votes.iter().max_by_key(|&(&c, &n)| (n, Reverse(c))).map(|(&c, _)| c)
}

/// Compute Fig. 10's maps for home and public APs. An AP is attributed to
/// the cell where its associations were most often reported.
pub fn density_maps(ds: &Dataset, cls: &ApClassification) -> (ApDensityMap, ApDensityMap) {
    // Most-frequent report cell per AP.
    let mut cell_votes: HashMap<usize, HashMap<CellId, u32>> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            *cell_votes.entry(a.ap.index()).or_default().entry(b.geo).or_default() += 1;
        }
    }
    let mut home = ApDensityMap::default();
    let mut public = ApDensityMap::default();
    for (idx, votes) in cell_votes {
        let cell = modal_cell(&votes).expect("votes nonempty");
        match cls.class_of[idx] {
            ApClass::Home => *home.cells.entry(cell).or_default() += 1,
            ApClass::Public => *public.cells.entry(cell).or_default() += 1,
            _ => {}
        }
    }
    (home, public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    #[test]
    fn aps_attributed_to_modal_cell() {
        let aps = vec![
            ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("0000carrier-a") },
            ApEntry { bssid: Bssid::from_u64(2), essid: Essid::new("7SPOT") },
        ];
        let mut bins = Vec::new();
        let mut push = |t: u32, ap: u32, cell: CellId| {
            bins.push(BinRecord {
                device: DeviceId(0),
                time: SimTime::from_minutes(t * 10),
                rx_3g: 0,
                tx_3g: 0,
                rx_lte: 0,
                tx_lte: 0,
                rx_wifi: 0,
                tx_wifi: 0,
                wifi: WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(ap),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-60),
                }),
                scan: ScanSummary::default(),
                apps: vec![],
                geo: cell,
                os_version: OsVersion::new(4, 4),
            });
        };
        let downtown = CellId::new(10, 10);
        let edge = CellId::new(11, 10);
        push(0, 0, downtown);
        push(1, 0, downtown);
        push(2, 0, edge); // minority report
        push(3, 1, downtown);
        let ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: vec![DeviceInfo {
                device: DeviceId(0),
                os: Os::Android,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: None,
            }],
            aps,
            bins,
        };
        let cls = crate::apclass::classify(&ds);
        let (home, public) = density_maps(&ds, &cls);
        assert_eq!(public.cells.get(&downtown), Some(&2));
        assert_eq!(public.cells.get(&edge), None);
        assert_eq!(home.cells.len(), 0);
        assert_eq!(public.cells_with_at_least(1), 1);
        assert_eq!(public.cells_with_at_least(3), 0);
        assert_eq!(public.max_cell(), 2);
    }

    #[test]
    fn modal_cell_tie_goes_to_smallest_cell() {
        let (small, large) = (CellId::new(3, 7), CellId::new(4, 0));
        // Every fresh map gets its own hash seed, so repeating covers many
        // iteration orders as well as both insertion orders.
        for _ in 0..32 {
            for order in [[small, large], [large, small]] {
                let votes: HashMap<CellId, u32> = order.iter().map(|&c| (c, 2)).collect();
                assert_eq!(modal_cell(&votes), Some(small));
            }
        }
        let votes: HashMap<CellId, u32> = [(small, 2), (large, 3)].into_iter().collect();
        assert_eq!(modal_cell(&votes), Some(large), "more votes beat a smaller id");
        assert_eq!(modal_cell(&HashMap::new()), None);
    }
}
