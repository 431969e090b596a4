//! Workflow-manager configuration.

use simcore::SimDuration;

/// Tunables of the workflow manager.
///
/// These are the knobs §4.4 describes as user-configurable: the resource
/// split across scales, the prepared-simulation buffers ("sets of CG and AA
/// simulations are kept prepared in anticipation … a trade-off between
/// readiness for availability of resources and simulating stale
/// configurations"), the polling cadence, and the feedback interval.
#[derive(Debug, Clone)]
pub struct WmConfig {
    /// Fraction of GPUs dedicated to CG simulations ("a typical run used
    /// 60%–80% of the total GPUs for CG whereas the remaining were
    /// assigned to AA").
    pub cg_gpu_fraction: f64,
    /// Prepared-but-not-running CG systems to keep buffered.
    pub cg_ready_buffer: usize,
    /// Prepared-but-not-running AA systems to keep buffered.
    pub aa_ready_buffer: usize,
    /// How often the WM scans jobs and replaces finished ones.
    pub poll_interval: SimDuration,
    /// How often a feedback iteration runs (target <10 min per iteration).
    pub feedback_interval: SimDuration,
    /// How often the profiler samples occupancy (the paper used 10 min).
    pub profile_interval: SimDuration,
    /// Submission throttle (jobs/minute; the campaign used ~100).
    pub submit_rate_per_min: u64,
    /// Target virtual runtime of one CG simulation.
    pub cg_sim_runtime: SimDuration,
    /// Target virtual runtime of one AA simulation.
    pub aa_sim_runtime: SimDuration,
    /// Virtual runtime of a createsim job (~1.5 h in the campaign).
    pub cg_setup_runtime: SimDuration,
    /// Virtual runtime of a backmapping job (~2 h in the campaign).
    pub aa_setup_runtime: SimDuration,
    /// Probability that any job fails and must be resubmitted.
    pub job_failure_prob: f64,
    /// Resubmission budget per payload (failures and timeouts both spend
    /// it); beyond it the payload is abandoned with a terminal
    /// `wm.gave_up` event instead of looping forever.
    pub max_resubmits: u32,
    /// Job-timeout watchdog: a placed job that has run longer than this
    /// multiple of its submitted runtime is presumed hung, canceled, and
    /// resubmitted (§4.4 "jobs may hang"). `0.0` disables the watchdog.
    /// Use a value `> 1` so healthy jobs always finish first.
    pub job_timeout_grace: f64,
    /// Record selector mutation histories for exact replay on restart
    /// (§4.4). Costs memory proportional to live candidates; large
    /// campaign simulations that manage restart state themselves turn
    /// this off.
    pub record_history: bool,
    /// Root seed for the WM's stochastic components.
    pub seed: u64,
}

impl Default for WmConfig {
    fn default() -> Self {
        WmConfig {
            cg_gpu_fraction: 0.7,
            cg_ready_buffer: 16,
            aa_ready_buffer: 8,
            poll_interval: SimDuration::from_mins(2),
            feedback_interval: SimDuration::from_mins(10),
            profile_interval: SimDuration::from_mins(10),
            submit_rate_per_min: 100,
            cg_sim_runtime: SimDuration::from_hours(24),
            aa_sim_runtime: SimDuration::from_hours(24),
            cg_setup_runtime: SimDuration::from_mins(90),
            aa_setup_runtime: SimDuration::from_mins(120),
            job_failure_prob: 0.01,
            max_resubmits: 3,
            job_timeout_grace: 0.0,
            record_history: true,
            seed: 1,
        }
    }
}

impl WmConfig {
    /// A configuration shrunk for fast tests: minutes-scale jobs, small
    /// buffers, frequent polling.
    pub fn test_scale() -> WmConfig {
        WmConfig {
            cg_gpu_fraction: 0.7,
            cg_ready_buffer: 4,
            aa_ready_buffer: 2,
            poll_interval: SimDuration::from_secs(30),
            feedback_interval: SimDuration::from_mins(5),
            profile_interval: SimDuration::from_mins(5),
            submit_rate_per_min: 600,
            cg_sim_runtime: SimDuration::from_mins(30),
            aa_sim_runtime: SimDuration::from_mins(20),
            cg_setup_runtime: SimDuration::from_mins(5),
            aa_setup_runtime: SimDuration::from_mins(8),
            job_failure_prob: 0.0,
            max_resubmits: 3,
            job_timeout_grace: 0.0,
            record_history: true,
            seed: 7,
        }
    }

    /// GPU targets (cg, aa) for a machine with `total_gpus`.
    pub fn gpu_targets(&self, total_gpus: u64) -> (u64, u64) {
        let cg = (total_gpus as f64 * self.cg_gpu_fraction).round() as u64;
        (cg.min(total_gpus), total_gpus - cg.min(total_gpus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_split_covers_all_gpus() {
        let cfg = WmConfig::default();
        let (cg, aa) = cfg.gpu_targets(6000);
        assert_eq!(cg + aa, 6000);
        assert_eq!(cg, 4200);
    }

    #[test]
    fn extreme_fractions_clamp() {
        let cfg = WmConfig {
            cg_gpu_fraction: 1.5,
            ..WmConfig::default()
        };
        let (cg, aa) = cfg.gpu_targets(100);
        assert_eq!((cg, aa), (100, 0));
    }
}
