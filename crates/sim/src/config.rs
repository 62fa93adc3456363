//! Campaign configuration.

use mobitrace_behavior::BehaviorParams;
use mobitrace_cellular::CapPolicy;
use mobitrace_collector::{ChaosProfile, FaultPlan};
use mobitrace_deploy::DeployParams;
use mobitrace_model::Year;

/// Full configuration of one simulated campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign year.
    pub year: Year,
    /// Number of recruited participants.
    pub n_users: usize,
    /// Measured days. The 2013/2014 campaigns ran 15 days; 2015 runs 25 so
    /// the two-week iOS-update window after March 10 fits (Table 1 lists
    /// 25 Feb – 25 Mar for 2015).
    pub days: u32,
    /// Master seed.
    pub seed: u64,
    /// Upload-channel fault plan.
    pub faults: FaultPlan,
    /// Chaos-episode profile layered over the fault plan: seeded bursty
    /// link-down / congestion windows per device plus campaign-global
    /// server outages. `None` keeps faults i.i.d. (the default). The
    /// behavioural simulation is invariant to this setting — chaos only
    /// perturbs *delivery*, and the cleaner's gap counters account for
    /// every loss (see the collector's convergence harness).
    pub chaos: Option<ChaosProfile>,
    /// Population behaviour parameters.
    pub behavior: BehaviorParams,
    /// AP deployment parameters.
    pub deploy: DeployParams,
    /// Share of participant home APs announcing the FON public ESSID.
    pub fon_home_share: f64,
    /// Per-day probability of a device reboot (exercises counter resets).
    pub reboot_per_day: f64,
    /// Share of users who occasionally tether.
    pub tether_users: f64,
    /// Override the per-carrier soft-cap policy for every carrier (what-if
    /// experiments; `None` = each carrier's historical policy).
    pub cap_override: Option<CapPolicy>,
    /// Device-simulation worker threads. `None` picks the `MOBITRACE_THREADS`
    /// environment override, falling back to the available parallelism.
    /// The produced dataset is identical for every thread count (each
    /// device has its own RNG stream and ingest order is irrelevant).
    pub n_threads: Option<usize>,
}

impl CampaignConfig {
    /// Full-scale canonical campaign for a year (Table 1 populations).
    pub fn for_year(year: Year) -> CampaignConfig {
        let n_users = match year {
            Year::Y2013 => 1755,
            Year::Y2014 => 1676,
            Year::Y2015 => 1616,
        };
        let days = match year {
            Year::Y2013 | Year::Y2014 => 15,
            Year::Y2015 => 25,
        };
        CampaignConfig {
            year,
            n_users,
            days,
            seed: 20151028, // IMC'15 opening day
            faults: FaultPlan::mobile(),
            chaos: None,
            behavior: BehaviorParams::for_year(year),
            deploy: DeployParams::for_year(year),
            fon_home_share: 0.03,
            reboot_per_day: 0.015,
            tether_users: 0.025,
            cap_override: None,
            n_threads: None,
        }
    }

    /// A down-scaled campaign (population × `scale`) for tests, examples
    /// and benches. Statistics are scale-invariant because AP deployments
    /// are expressed per participant.
    pub fn scaled(year: Year, scale: f64) -> CampaignConfig {
        let mut c = CampaignConfig::for_year(year);
        c.n_users = ((c.n_users as f64 * scale).round() as usize).max(20);
        c
    }

    /// Same campaign with another seed.
    pub fn with_seed(mut self, seed: u64) -> CampaignConfig {
        self.seed = seed;
        self
    }

    /// Same campaign with an explicit worker-thread count.
    pub fn with_threads(mut self, n: usize) -> CampaignConfig {
        self.n_threads = Some(n);
        self
    }

    /// Same campaign with a chaos-episode profile layered over the faults.
    pub fn with_chaos(mut self, profile: ChaosProfile) -> CampaignConfig {
        self.chaos = Some(profile);
        self
    }

    /// The worker-thread count the campaign will actually run with:
    /// explicit [`n_threads`](Self::n_threads) first, then the
    /// `MOBITRACE_THREADS` environment variable, then the machine's
    /// available parallelism (capped at 8).
    pub fn effective_threads(&self) -> usize {
        if let Some(n) = self.n_threads {
            return n.clamp(1, 256);
        }
        if let Some(n) = std::env::var("MOBITRACE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n.min(256);
        }
        std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_populations_match_table1() {
        assert_eq!(CampaignConfig::for_year(Year::Y2013).n_users, 1755);
        assert_eq!(CampaignConfig::for_year(Year::Y2014).n_users, 1676);
        assert_eq!(CampaignConfig::for_year(Year::Y2015).n_users, 1616);
    }

    #[test]
    fn update_window_fits_2015() {
        let c = CampaignConfig::for_year(Year::Y2015);
        // Release on day 10; two full weeks remain.
        assert!(c.days >= 10 + 14);
    }

    #[test]
    fn scaling_floors_at_20() {
        let c = CampaignConfig::scaled(Year::Y2013, 0.001);
        assert_eq!(c.n_users, 20);
        let c = CampaignConfig::scaled(Year::Y2013, 0.1);
        assert_eq!(c.n_users, 176);
    }

    #[test]
    fn explicit_thread_count_wins_and_is_clamped() {
        assert_eq!(CampaignConfig::for_year(Year::Y2014).with_threads(3).effective_threads(), 3);
        assert_eq!(CampaignConfig::for_year(Year::Y2014).with_threads(0).effective_threads(), 1);
        assert!(CampaignConfig::for_year(Year::Y2014).effective_threads() >= 1);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = CampaignConfig::for_year(Year::Y2014);
        let b = CampaignConfig::for_year(Year::Y2014).with_seed(99);
        assert_eq!(a.n_users, b.n_users);
        assert_ne!(a.seed, b.seed);
    }
}
