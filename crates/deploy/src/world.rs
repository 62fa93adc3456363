//! The deployed AP world of one campaign year.

use crate::ap::{Ap, ApId, Radio, Venue};
use crate::evolution::DeployParams;
use crate::scanplan::{PlanEntry, PlanKey, ScanPlan, PLAN_QUANT_M, PRUNE_SIGMA};
use crate::spatial::SpatialIndex;
use mobitrace_geo::{DensitySurface, GeoPoint, Grid};
use mobitrace_model::{Band, Bssid, Channel, Dbm, Essid, PublicProvider};
use mobitrace_radio::{ChannelPolicy, PathLossModel};
use rand::Rng;
use std::collections::HashMap;

/// Scan sensitivity: radios whose sampled RSSI is below this are invisible.
pub const SCAN_FLOOR: Dbm = Dbm::new(-85);

/// Maximum geometric distance considered for detection (metres). Beyond
/// this the path loss puts any radio under the scan floor.
pub const SCAN_RADIUS_M: f64 = 180.0;

/// Specification for generating a world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Year parameters.
    pub params: DeployParams,
    /// Homes of participants that own a home AP: (participant index, home).
    pub participant_homes: Vec<(u32, GeoPoint)>,
    /// Sites of offices that deploy a BYOD-accessible AP.
    pub office_sites: Vec<GeoPoint>,
    /// Points of interest around which public/shop APs cluster (stations,
    /// shopping streets). Shared with the mobility model so people and
    /// public APs meet.
    pub pois: mobitrace_geo::PoiSet,
    /// Number of participants (scales public/shop/background counts).
    pub n_participants: usize,
    /// Share of participant home APs that announce the FON public ESSID
    /// instead of a private name (the paper's home-FON exception).
    pub fon_home_share: f64,
}

/// One observation from a WiFi scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanObs {
    /// Which AP.
    pub ap: ApId,
    /// Radio index within the AP.
    pub radio: u8,
    /// Band of the heard beacon.
    pub band: Band,
    /// Channel of the heard beacon.
    pub channel: Channel,
    /// Sampled RSSI.
    pub rssi: Dbm,
}

/// The AP world: all deployed APs plus spatial and ownership indexes.
#[derive(Debug, Clone)]
pub struct ApWorld {
    /// Year parameters the world was generated from.
    pub params: DeployParams,
    /// All APs.
    pub aps: Vec<Ap>,
    /// Participant index → their home AP.
    pub participant_home_ap: HashMap<u32, ApId>,
    /// Office-site APs, parallel to `WorldSpec::office_sites`.
    pub office_aps: Vec<ApId>,
    spatial: SpatialIndex,
    path_loss: PathLossModel,
}

impl ApWorld {
    /// Generate the world for a campaign year.
    pub fn generate<R: Rng + ?Sized>(spec: &WorldSpec, rng: &mut R) -> ApWorld {
        let grid = Grid::greater_tokyo();
        let mut w = ApWorld {
            params: spec.params.clone(),
            aps: Vec::new(),
            participant_home_ap: HashMap::new(),
            office_aps: Vec::new(),
            spatial: SpatialIndex::new(grid.origin, 200.0),
            path_loss: PathLossModel::default_ap(),
        };
        let n = spec.n_participants as f64;

        // Participant home APs (positions known exactly).
        for &(participant, home) in &spec.participant_homes {
            let fon = rng.gen_range(0.0..1.0) < spec.fon_home_share;
            let essid = if fon {
                Essid::new(PublicProvider::Fon.essid())
            } else {
                Essid::new(home_essid(rng))
            };
            let id = w.push_home_ap(rng, Some(participant), home, essid);
            w.participant_home_ap.insert(participant, id);
        }

        // Background (non-participant) home APs fill residential scans.
        let residential = DensitySurface::residential();
        let n_background = (spec.params.background_homes_per_user * n).round() as usize;
        for _ in 0..n_background {
            let pos = residential.sample_point(rng);
            let essid = Essid::new(home_essid(rng));
            w.push_home_ap(rng, None, pos, essid);
        }

        // Public provider APs cluster around POIs: a station or shopping
        // street hosts radios of several providers within ~60 m.
        let n_public = (spec.params.public_aps_per_user * n).round() as usize;
        for k in 0..n_public {
            let provider = PublicProvider::ALL[k % PublicProvider::ALL.len()];
            let poi = spec.pois.sample_point(rng);
            let pos = jitter_around(rng, poi, 60.0);
            let dual = rng.gen_range(0.0..1.0) < spec.params.public_5ghz_share;
            w.push_ap(
                rng,
                Venue::Public(provider),
                pos,
                Essid::new(provider.essid()),
                ChannelPolicy::PlannedOrthogonal,
                dual,
            );
        }

        // Office APs at the given sites.
        for &site in &spec.office_sites {
            let dual = rng.gen_range(0.0..1.0) < spec.params.office_5ghz_share;
            let essid = Essid::new(office_essid(rng));
            let id =
                w.push_ap(rng, Venue::Office, site, essid, ChannelPolicy::AutoLeastCongested, dual);
            w.office_aps.push(id);
        }

        // Shop / hotel open APs, also around POIs but more spread out.
        let n_shop = (spec.params.shop_aps_per_user * n).round() as usize;
        for _ in 0..n_shop {
            let poi = spec.pois.sample_point(rng);
            let pos = jitter_around(rng, poi, 150.0);
            let dual = rng.gen_range(0.0..1.0) < spec.params.public_5ghz_share * 0.5;
            let essid = Essid::new(shop_essid(rng));
            w.push_ap(rng, Venue::Shop, pos, essid, ChannelPolicy::ManualUniform, dual);
        }

        w
    }

    fn push_home_ap<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        participant: Option<u32>,
        pos: GeoPoint,
        essid: Essid,
    ) -> ApId {
        let policy = self.params.sample_home_policy(rng);
        let dual = rng.gen_range(0.0..1.0) < self.params.home_5ghz_share;
        self.push_ap(rng, Venue::Home { participant }, pos, essid, policy, dual)
    }

    fn push_ap<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        venue: Venue,
        pos: GeoPoint,
        essid: Essid,
        policy: ChannelPolicy,
        dual_band: bool,
    ) -> ApId {
        let id = ApId(self.aps.len() as u32);
        // Channel selection against the already-placed neighbourhood.
        let mut neighbour_channels = Vec::new();
        self.spatial.candidates_within(pos, 120.0, |i| {
            let ap = &self.aps[i as usize];
            if ap.pos.distance_km(pos) * 1000.0 <= 120.0 {
                neighbour_channels.extend(ap.radios.iter().map(|r| r.channel));
            }
        });
        let mut radios = vec![Radio {
            bssid: next_bssid(rng),
            band: Band::Ghz24,
            channel: policy.select(rng, Band::Ghz24, &neighbour_channels),
        }];
        if dual_band {
            radios.push(Radio {
                bssid: next_bssid(rng),
                band: Band::Ghz5,
                channel: policy.select(rng, Band::Ghz5, &neighbour_channels),
            });
        }
        self.aps.push(Ap { id, essid, venue, pos, radios });
        self.spatial.insert(id.0, pos);
        id
    }

    /// Look up an AP.
    pub fn ap(&self, id: ApId) -> &Ap {
        &self.aps[id.index()]
    }

    /// Perform a WiFi scan at a position: every radio of every AP within
    /// range whose sampled RSSI clears the scan floor.
    ///
    /// For APs essentially co-located with the device (its own home/office
    /// AP), the geometric distance collapses to ~0; we then draw a
    /// venue-typical indoor distance instead, which is what produces the
    /// paper's Fig. 15 RSSI distributions.
    pub fn scan<R: Rng + ?Sized>(&self, pos: GeoPoint, rng: &mut R) -> Vec<ScanObs> {
        let mut out = Vec::new();
        self.scan_into(pos, rng, &mut out);
        out
    }

    /// [`scan`](Self::scan) into a caller-owned buffer (cleared first) so
    /// the per-bin hot path allocates nothing after warm-up.
    pub fn scan_into<R: Rng + ?Sized>(&self, pos: GeoPoint, rng: &mut R, out: &mut Vec<ScanObs>) {
        out.clear();
        self.spatial.candidates_within(pos, SCAN_RADIUS_M, |i| {
            let ap = &self.aps[i as usize];
            let geom_m = ap.pos.distance_km(pos) * 1000.0;
            if geom_m > SCAN_RADIUS_M {
                return;
            }
            let env = ap.venue.environment();
            let near_m = env.distance_range_m().0;
            for (ri, radio) in ap.radios.iter().enumerate() {
                let d = if geom_m < near_m {
                    self.path_loss.sample_distance_m(rng, env)
                } else {
                    geom_m
                };
                let rssi = self.path_loss.sample_rssi(rng, env, radio.band, d);
                if rssi >= SCAN_FLOOR {
                    out.push(ScanObs {
                        ap: ap.id,
                        radio: ri as u8,
                        band: radio.band,
                        channel: radio.channel,
                        rssi,
                    });
                }
            }
        });
    }

    /// Quantized scan-plan key for a position: `PLAN_QUANT_M`-metre grid
    /// cell indexes keyed off the spatial-index origin.
    pub fn plan_key(&self, pos: GeoPoint) -> PlanKey {
        let (east_m, north_m) = pos.metres_from(self.spatial.origin());
        ((east_m / PLAN_QUANT_M).floor() as i32, (north_m / PLAN_QUANT_M).floor() as i32)
    }

    /// Centre of a plan cell. Plans are always built here — a pure
    /// function of the key — so every thread derives the identical plan.
    pub fn plan_cell_centre(&self, key: PlanKey) -> GeoPoint {
        let east_km = (f64::from(key.0) + 0.5) * PLAN_QUANT_M / 1000.0;
        let north_km = (f64::from(key.1) + 0.5) * PLAN_QUANT_M / 1000.0;
        self.spatial.origin().offset_km(east_km, north_km)
    }

    /// Build the deterministic scan plan for a position: the same
    /// candidate walk as [`scan`](Self::scan), but emitting precomputed
    /// (mean, span, σ) coefficients instead of sampling. Radios whose
    /// best-case mean sits `PRUNE_SIGMA`·σ under the scan floor are
    /// dropped — they cannot produce a visible observation in practice.
    pub fn build_scan_plan(&self, pos: GeoPoint) -> ScanPlan {
        let mut plan = ScanPlan::default();
        self.spatial.candidates_within(pos, SCAN_RADIUS_M, |i| {
            let ap = &self.aps[i as usize];
            let geom_m = ap.pos.distance_km(pos) * 1000.0;
            if geom_m > SCAN_RADIUS_M {
                return;
            }
            let env = ap.venue.environment();
            let public = ap.venue.is_public();
            for (ri, radio) in ap.radios.iter().enumerate() {
                let c = self.path_loss.coeffs(env, radio.band);
                let (mean_db, span_db) = if geom_m < env.distance_range_m().0 {
                    (c.indoor_near_db, c.indoor_span_db)
                } else {
                    (c.mean_db_at(geom_m), 0.0)
                };
                if mean_db - span_db + PRUNE_SIGMA * c.sigma_db < SCAN_FLOOR.as_f64() {
                    continue;
                }
                plan.push(PlanEntry {
                    ap: ap.id,
                    radio: ri as u8,
                    band: radio.band,
                    channel: radio.channel,
                    public,
                    sigma_db: c.sigma_db,
                    mean_db,
                    span_db,
                });
            }
        });
        plan
    }

    /// Background (non-participant) home APs within `radius_m` of a point
    /// — the pool a user's friends and relatives live in.
    pub fn background_homes_near(&self, pos: GeoPoint, radius_m: f64) -> Vec<ApId> {
        let mut out = Vec::new();
        self.background_homes_near_into(pos, radius_m, &mut out);
        out
    }

    /// [`background_homes_near`](Self::background_homes_near) into a
    /// caller-owned buffer (cleared first), sorted by AP id for
    /// deterministic downstream sampling.
    pub fn background_homes_near_into(&self, pos: GeoPoint, radius_m: f64, out: &mut Vec<ApId>) {
        out.clear();
        self.spatial.candidates_within(pos, radius_m, |i| {
            let ap = &self.aps[i as usize];
            if matches!(ap.venue, Venue::Home { participant: None })
                && ap.pos.distance_km(pos) * 1000.0 <= radius_m
            {
                out.push(ap.id);
            }
        });
        out.sort_by_key(|id| id.0);
    }

    /// Count APs by a venue predicate.
    pub fn count_venue(&self, pred: impl Fn(Venue) -> bool) -> usize {
        self.aps.iter().filter(|a| pred(a.venue)).count()
    }
}

/// Gaussian jitter of `sigma_m` metres around a centre point.
fn jitter_around<R: Rng + ?Sized>(rng: &mut R, centre: GeoPoint, sigma_m: f64) -> GeoPoint {
    let gauss = |rng: &mut R| {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let (dx, dy) = (gauss(rng) * sigma_m / 1000.0, gauss(rng) * sigma_m / 1000.0);
    centre.offset_km(dx, dy)
}

fn next_bssid<R: Rng + ?Sized>(rng: &mut R) -> Bssid {
    Bssid::from_u64(rng.gen_range(0..1u64 << 40))
}

fn home_essid<R: Rng + ?Sized>(rng: &mut R) -> String {
    const VENDORS: [&str; 5] = ["aterm", "Buffalo-G", "rt500k", "WARPSTAR", "elecom"];
    format!("{}-{:06x}", VENDORS[rng.gen_range(0..VENDORS.len())], rng.gen_range(0..0x1000000u32))
}

fn office_essid<R: Rng + ?Sized>(rng: &mut R) -> String {
    format!("corp-{:04x}", rng.gen_range(0..0x10000u32))
}

fn shop_essid<R: Rng + ?Sized>(rng: &mut R) -> String {
    const KINDS: [&str; 3] = ["shop_free", "hotel-wifi", "cafe-guest"];
    format!("{}-{:04x}", KINDS[rng.gen_range(0..KINDS.len())], rng.gen_range(0..0x10000u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::{is_public_essid, Year};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_spec() -> WorldSpec {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let res = DensitySurface::residential();
        let office = DensitySurface::office();
        let participant_homes: Vec<(u32, GeoPoint)> =
            (0..40).map(|k| (k, res.sample_point(&mut rng))).collect();
        let office_sites: Vec<GeoPoint> = (0..8).map(|_| office.sample_point(&mut rng)).collect();
        WorldSpec {
            params: DeployParams::for_year(Year::Y2015),
            participant_homes,
            office_sites,
            pois: mobitrace_geo::PoiSet::generate(40, &mut rng),
            n_participants: 50,
            fon_home_share: 0.03,
        }
    }

    #[test]
    fn world_counts_match_spec() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = ApWorld::generate(&spec, &mut rng);
        assert_eq!(w.participant_home_ap.len(), 40);
        assert_eq!(w.office_aps.len(), 8);
        let publics = w.count_venue(|v| v.is_public());
        assert_eq!(publics, (9.5f64 * 50.0).round() as usize);
        let homes = w.count_venue(|v| v.is_home());
        assert_eq!(homes, 40 + (30.0f64 * 50.0).round() as usize);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let w1 = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(7));
        let w2 = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(w1.aps.len(), w2.aps.len());
        for (a, b) in w1.aps.iter().zip(&w2.aps) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn public_aps_have_wellknown_essids() {
        let spec = small_spec();
        let w = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(2));
        for ap in &w.aps {
            match ap.venue {
                Venue::Public(_) => assert!(is_public_essid(ap.essid.as_str())),
                Venue::Office | Venue::Shop => {
                    assert!(!is_public_essid(ap.essid.as_str()), "{}", ap.essid)
                }
                Venue::Home { .. } => {} // may be FON
                Venue::MobileRouter => {}
            }
        }
    }

    #[test]
    fn scan_at_home_hears_own_ap() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let w = ApWorld::generate(&spec, &mut rng);
        let (participant, home) = spec.participant_homes[0];
        let own = w.participant_home_ap[&participant];
        // Scans are stochastic (shadowing); the own AP should be heard in
        // the vast majority of bins.
        let mut heard = 0;
        for _ in 0..50 {
            if w.scan(home, &mut rng).iter().any(|o| o.ap == own) {
                heard += 1;
            }
        }
        assert!(heard >= 45, "own home AP heard only {heard}/50 scans");
    }

    #[test]
    fn scan_hears_nothing_in_empty_countryside() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let w = ApWorld::generate(&spec, &mut rng);
        // Far corner of the grid: nothing deployed nearby.
        let nowhere = GeoPoint::new(35.12, 138.92);
        let obs = w.scan(nowhere, &mut rng);
        assert!(obs.len() <= 1, "unexpectedly heard {} APs", obs.len());
    }

    #[test]
    fn dual_band_share_tracks_params() {
        let spec = small_spec();
        let w = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(5));
        let publics: Vec<&Ap> = w.aps.iter().filter(|a| a.venue.is_public()).collect();
        let dual = publics.iter().filter(|a| a.has_5ghz()).count() as f64;
        let share = dual / publics.len() as f64;
        assert!((share - 0.60).abs() < 0.12, "public 5GHz share {share}");
        let homes: Vec<&Ap> = w.aps.iter().filter(|a| a.venue.is_home()).collect();
        let dual_home = homes.iter().filter(|a| a.has_5ghz()).count() as f64 / homes.len() as f64;
        assert!(dual_home < 0.30, "home 5GHz share {dual_home}");
    }

    #[test]
    fn public_radios_use_orthogonal_channels() {
        let spec = small_spec();
        let w = ApWorld::generate(&spec, &mut ChaCha8Rng::seed_from_u64(6));
        for ap in w.aps.iter().filter(|a| a.venue.is_public()) {
            let r24 = ap.radio_on(Band::Ghz24).unwrap();
            assert!(Channel::GHZ24_ORTHOGONAL.contains(&r24.channel));
        }
    }

    #[test]
    fn scan_into_matches_scan() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let w = ApWorld::generate(&spec, &mut rng);
        let (_, home) = spec.participant_homes[3];
        let fresh = w.scan(home, &mut ChaCha8Rng::seed_from_u64(21));
        // Dirty, oversized buffer: scan_into must clear and refill it.
        let mut buf = vec![
            ScanObs {
                ap: ApId(999),
                radio: 7,
                band: Band::Ghz5,
                channel: Channel(1),
                rssi: Dbm::new(-20)
            };
            40
        ];
        w.scan_into(home, &mut ChaCha8Rng::seed_from_u64(21), &mut buf);
        assert_eq!(fresh, buf);
    }

    #[test]
    fn background_homes_into_matches_alloc_variant() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let w = ApWorld::generate(&spec, &mut rng);
        let (_, home) = spec.participant_homes[5];
        let fresh = w.background_homes_near(home, 2500.0);
        let mut buf = vec![ApId(12345); 3];
        w.background_homes_near_into(home, 2500.0, &mut buf);
        assert_eq!(fresh, buf);
        assert!(!fresh.is_empty(), "expected background homes within 2.5 km");
    }

    /// Sample a plan repeatedly, collecting RSSI of one (ap, band) entry.
    fn plan_samples(w: &ApWorld, pos: GeoPoint, ap: ApId, band: Band, n: usize) -> Vec<f64> {
        use mobitrace_radio::GaussianPair;
        let plan = w.build_scan_plan(pos);
        assert!(
            plan.entries().any(|e| e.ap == ap && e.band == band),
            "target radio missing from plan"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut gauss = GaussianPair::new();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            plan.sample(&mut rng, &mut gauss, |e, rssi| {
                if e.ap == ap && e.band == band {
                    out.push(rssi.as_f64());
                }
            });
        }
        out
    }

    #[test]
    fn cached_plan_reproduces_home_rssi_distribution() {
        // Fig. 15 shape through the plan path: home ≈ −54 dBm, few < −70.
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let w = ApWorld::generate(&spec, &mut rng);
        let (participant, home) = spec.participant_homes[0];
        let own = w.participant_home_ap[&participant];
        let pos = w.plan_cell_centre(w.plan_key(home));
        let samples = plan_samples(&w, pos, own, Band::Ghz24, 4000);
        assert!(samples.len() > 3800, "own AP mostly heard, got {}", samples.len());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let weak = samples.iter().filter(|&&r| r < -70.0).count() as f64 / samples.len() as f64;
        assert!((-58.0..=-50.0).contains(&mean), "home mean {mean}");
        assert!((0.005..=0.06).contains(&weak), "home weak share {weak}");
    }

    #[test]
    fn cached_plan_reproduces_public_rssi_distribution() {
        // Fig. 15 shape through the plan path: public ≈ −60 dBm, ~12% < −70.
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let w = ApWorld::generate(&spec, &mut rng);
        let ap = w.aps.iter().find(|a| a.venue.is_public()).expect("a public AP");
        let pos = w.plan_cell_centre(w.plan_key(ap.pos));
        let samples = plan_samples(&w, pos, ap.id, Band::Ghz24, 4000);
        assert!(samples.len() > 3600, "public AP mostly heard, got {}", samples.len());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let weak = samples.iter().filter(|&&r| r < -70.0).count() as f64 / samples.len() as f64;
        assert!((-64.0..=-56.0).contains(&mean), "public mean {mean}");
        assert!((0.07..=0.18).contains(&weak), "public weak share {weak}");
    }

    /// Scan statistics the simulator's association logic depends on:
    /// mean and weak (< −70 dBm) share of each scan's strongest radio —
    /// the one a device would join — and the mean 2.4 GHz scan size.
    struct ScanStats {
        mean_best: f64,
        weak_best: f64,
        mean_n24: f64,
    }

    fn scan_stats(scans: &[Vec<(Band, f64)>]) -> ScanStats {
        let best: Vec<f64> =
            scans.iter().filter_map(|s| s.iter().map(|&(_, r)| r).max_by(f64::total_cmp)).collect();
        assert!(best.len() > 500, "too few non-empty scans ({})", best.len());
        let n24 = scans.iter().flatten().filter(|(b, _)| *b == Band::Ghz24).count();
        ScanStats {
            mean_best: best.iter().sum::<f64>() / best.len() as f64,
            weak_best: best.iter().filter(|&&r| r < -70.0).count() as f64 / best.len() as f64,
            mean_n24: n24 as f64 / scans.len() as f64,
        }
    }

    #[test]
    fn plan_sampling_matches_exact_scan_distributions() {
        use mobitrace_radio::GaussianPair;
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let w = ApWorld::generate(&spec, &mut rng);
        // Where devices spend their bins: homes, offices, public hotspots.
        let positions: Vec<GeoPoint> = spec
            .participant_homes
            .iter()
            .map(|&(_, p)| p)
            .chain(spec.office_sites.iter().copied())
            .chain(w.aps.iter().filter(|a| a.venue.is_public()).take(20).map(|a| a.pos))
            .collect();
        let (mut planned, mut exact) = (Vec::new(), Vec::new());
        let mut gauss = GaussianPair::new();
        let mut buf = Vec::new();
        for &pos in &positions {
            // The simulator's path: the plan of the position's cell.
            let plan = w.build_scan_plan(w.plan_cell_centre(w.plan_key(pos)));
            for _ in 0..40 {
                let mut scan = Vec::new();
                plan.sample(&mut rng, &mut gauss, |e, rssi| scan.push((e.band, rssi.as_f64())));
                planned.push(scan);
                w.scan_into(pos, &mut rng, &mut buf);
                exact.push(buf.iter().map(|o| (o.band, o.rssi.as_f64())).collect());
            }
        }
        let (p, e) = (scan_stats(&planned), scan_stats(&exact));
        assert!(
            (p.mean_best - e.mean_best).abs() < 2.0,
            "mean best RSSI diverged: plan {} vs exact {}",
            p.mean_best,
            e.mean_best
        );
        assert!(
            (p.weak_best - e.weak_best).abs() < 0.05,
            "weak share diverged: plan {} vs exact {}",
            p.weak_best,
            e.weak_best
        );
        // 8σ-pruned plans may drop statistically invisible candidates but
        // must not change what devices actually hear.
        let rel = (p.mean_n24 - e.mean_n24).abs() / e.mean_n24;
        assert!(
            rel < 0.20,
            "mean 2.4 GHz scan size diverged: plan {} vs exact {}",
            p.mean_n24,
            e.mean_n24
        );
    }

    #[test]
    fn plan_five_ghz_means_attenuate_more() {
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let w = ApWorld::generate(&spec, &mut rng);
        let mut checked = 0;
        for ap in w.aps.iter().filter(|a| a.has_5ghz()) {
            let plan = w.build_scan_plan(ap.pos);
            let mean_on = |band: Band| {
                plan.entries().find(|e| e.ap == ap.id && e.band == band).map(|e| e.mean_db)
            };
            if let (Some(m24), Some(m5)) = (mean_on(Band::Ghz24), mean_on(Band::Ghz5)) {
                assert!(m24 > m5 + 4.0, "ap {:?}: 2.4GHz {m24} vs 5GHz {m5}", ap.id);
                checked += 1;
            }
        }
        assert!(checked > 10, "only {checked} dual-band APs checked");
    }

    #[test]
    fn plan_covers_every_scanned_radio() {
        // Safety net: nothing the exact scan can hear may be pruned
        // from the plan built at the same position.
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let w = ApWorld::generate(&spec, &mut rng);
        for &(_, home) in spec.participant_homes.iter().take(10) {
            let plan = w.build_scan_plan(home);
            for _ in 0..10 {
                for obs in w.scan(home, &mut rng) {
                    assert!(
                        plan.entries().any(|e| e.ap == obs.ap && e.radio == obs.radio),
                        "scanned radio {:?}/{} missing from plan",
                        obs.ap,
                        obs.radio
                    );
                }
            }
        }
    }

    #[test]
    fn plan_cache_is_pure_and_shares_arcs() {
        use crate::scanplan::ScanPlanCache;
        use std::sync::Arc;
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let w = ApWorld::generate(&spec, &mut rng);
        let key = w.plan_key(spec.participant_homes[1].1);
        let (c1, c2) = (ScanPlanCache::new(), ScanPlanCache::new());
        // Independent caches derive the identical plan for a key …
        assert_eq!(c1.plan(&w, key), c2.plan(&w, key));
        // … and a repeat hit returns the same shared allocation.
        assert!(Arc::ptr_eq(&c1.plan(&w, key), &c1.plan(&w, key)));
        assert_eq!(c1.len(), 1);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_at_capacity() {
        use crate::scanplan::ScanPlanCache;
        let spec = small_spec();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let w = ApWorld::generate(&spec, &mut rng);
        let (a, b, c) = ((0, 0), (7, 7), (14, 14));

        let cache = ScanPlanCache::with_capacity(2);
        cache.plan(&w, a);
        cache.plan(&w, b);
        cache.plan(&w, a); // refresh a: b is now the LRU entry
        cache.plan(&w, c); // at capacity → evicts b, not a
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(a) && cache.contains(c) && !cache.contains(b));
        assert_eq!(cache.evictions(), 1);

        // Eviction never changes content: a rebuilt-after-eviction plan
        // equals the one a fresh cache derives for the same key.
        let fresh = ScanPlanCache::new();
        assert_eq!(cache.plan(&w, b), fresh.plan(&w, b));

        // The bound holds under sustained pressure.
        for i in 0..50 {
            cache.plan(&w, (i, -i));
            assert!(cache.len() <= cache.capacity());
        }
    }
}
