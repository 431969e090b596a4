//! The six workloads. Each module exposes `run` (the timed body, used
//! by both passes; spans are recorded only when the recorder is
//! enabled) and `layers` (the per-layer drives of the traced pass).

use std::path::PathBuf;

pub mod campaigns;
pub mod farm_tenants;
pub mod sched_policy_churn;
pub mod store;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed body measures (a unit of work that has
    /// started is always finished).
    pub seconds: f64,
    /// Scratch directory inside the checkout (WAL files, span dumps).
    pub out_dir: PathBuf,
    /// Set up once instead of repeatedly: the traced pass reports no
    /// `setup_s`, so it does not pay for a steady median of it.
    pub set_up_once: bool,
}

/// What one pass over a workload's timed body measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations attempted (replay, policy pass, campaign, store request).
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// One entry per set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed body.
    pub body_s: f64,
    /// Work units completed in the body (ops, or keys for the store).
    pub work: f64,
    /// Work per second of each repetition, where the body repeats one
    /// unit (an engine lifetime) with pauses between them that are not
    /// part of `body_s`; `work_per_s` is then their median.
    pub unit_rates: Vec<f64>,
    /// One client-edge latency per request (ms).
    pub latencies_ms: Vec<f64>,
    /// Simulated statistics (virtual time, simulated counts): they repeat
    /// bit for bit for a given seed, on any host.
    pub exact: Vec<(String, f64)>,
    /// Counts that depend on how far the run got or on host interleaving.
    pub counts: Vec<(String, f64)>,
}

impl Measured {
    /// Books a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Host seconds per unit of work.
    pub fn s_per_work(&self) -> f64 {
        self.body_s / self.work.max(1e-12)
    }

    /// Looks up a simulated statistic by name.
    pub fn exact(&self, name: &str) -> f64 {
        self.exact
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Named per-layer values produced by the traced pass.
pub type Layers = Vec<(String, f64)>;
