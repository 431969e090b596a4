//! `summit_full` and `table1_chain`: the batch replay path.
//!
//! Both replay a whole campaign through `campaign::Campaign` from one
//! thread (closed loop, one client): the next replay starts when the
//! previous one returns. `summit_full` is the paper's headline scale —
//! one 4,608-node allocation, 27,648 concurrent GPU jobs, first-match +
//! asynchronous Q↔R — and after its load phase nothing turns over, so
//! WM poll/maintain over the tracked jobs and driver data generation do
//! the work. `table1_chain` is the paper's own Table 1 as a 17-leg
//! checkpoint→restore chain at mixed widths under the campaign-era
//! defaults (exhaustive low-ID matching, synchronous Q↔R, node and job
//! failures on): it uses the matcher, the checkpoint text round trip
//! and the failure process the way `summit_full` never does.

use campaign::{Campaign, CampaignConfig, RunReport};
use resources::MachineSpec;

use super::{Ctx, Measured};
use crate::clock;
use crate::spans::Recorder;

/// Nodes of the full-Summit rung.
pub const SUMMIT_NODES: u32 = 4608;
/// Virtual hours of the one `summit_full` allocation.
pub const SUMMIT_HOURS: u64 = 16;
/// The reduced Table 1 schedule: `(nodes, hours, runs)`, 17 legs.
pub const TABLE1: [(u32, u64, u32); 5] = [
    (100, 3, 5),
    (100, 6, 3),
    (500, 6, 3),
    (1000, 12, 5),
    (4000, 12, 1),
];
/// The warm-up both workloads run during set-up: the 1/64 rung.
const WARMUP: (u32, u64) = (72, 12);

/// Which of the two campaign workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SummitFull,
    Table1Chain,
}

impl Kind {
    pub fn config(self, seed: u64) -> CampaignConfig {
        let base = match self {
            Kind::SummitFull => CampaignConfig::scale_rung(SUMMIT_NODES),
            Kind::Table1Chain => CampaignConfig::default(),
        };
        CampaignConfig { seed, ..base }
    }

    fn legs(self) -> Vec<(u32, u64)> {
        match self {
            Kind::SummitFull => vec![(SUMMIT_NODES, SUMMIT_HOURS)],
            Kind::Table1Chain => TABLE1
                .iter()
                .flat_map(|&(n, h, runs)| (0..runs).map(move |_| (n, h)))
                .collect(),
        }
    }
}

/// One allocation leg as the harness saw it.
#[derive(Debug, Clone)]
pub struct Leg {
    pub wall_s: f64,
    pub placed: u64,
    pub driver_iterations: u64,
    pub peak_gpu_jobs: u64,
    /// Mean GPU occupancy (%) over the last third of the leg, in
    /// virtual time.
    pub steady_gpu_pct: f64,
    /// The recorded job stream (CSV) when the config asked for one.
    pub job_log: Option<String>,
}

/// One whole replay: every leg plus the invariant violations found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub legs: Vec<Leg>,
    pub violations: Vec<String>,
}

impl Replay {
    pub fn wall_s(&self) -> f64 {
        self.legs.iter().map(|l| l.wall_s).sum()
    }
    pub fn placed(&self) -> u64 {
        self.legs.iter().map(|l| l.placed).sum()
    }
    pub fn driver_iterations(&self) -> u64 {
        self.legs.iter().map(|l| l.driver_iterations).sum()
    }
    pub fn peak_gpu_jobs(&self) -> u64 {
        self.legs.iter().map(|l| l.peak_gpu_jobs).max().unwrap_or(0)
    }
    /// Mean over legs of the steady-state GPU occupancy.
    pub fn steady_gpu_pct(&self) -> f64 {
        self.legs.iter().map(|l| l.steady_gpu_pct).sum::<f64>() / self.legs.len().max(1) as f64
    }
    /// The simulated statistics that must repeat bit-for-bit.
    fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.placed(),
            self.driver_iterations(),
            self.peak_gpu_jobs(),
            self.steady_gpu_pct().to_bits(),
        )
    }
}

/// Invariants of one leg's report; simulated statistics are reported,
/// never compared with goldens.
fn violations(leg: usize, r: &RunReport) -> Vec<String> {
    let mut out: Vec<String> = r
        .ledger
        .check()
        .into_iter()
        .map(|v| format!("leg {leg}: ledger: {v}"))
        .collect();
    if r.forced_advances > 0 {
        out.push(format!(
            "leg {leg}: {} forced clock advances",
            r.forced_advances
        ));
    }
    out
}

/// Replays `legs` through a fresh campaign, one span per layer call.
pub fn replay(
    cfg: &CampaignConfig,
    legs: &[(u32, u64)],
    rec: &mut Recorder,
    request: u64,
) -> Replay {
    replay_with(cfg, legs, rec, request, |_| ())
}

/// [`replay`] with a hook on the fresh campaign (to attach a tracer).
pub fn replay_with(
    cfg: &CampaignConfig,
    legs: &[(u32, u64)],
    rec: &mut Recorder,
    request: u64,
    prepare: impl FnOnce(&mut Campaign),
) -> Replay {
    let root = rec.enter("bench.replay", request);
    let mut campaign = rec.span("campaign.new", request, || Campaign::new(cfg.clone()));
    prepare(&mut campaign);
    let mut out = Replay::default();
    for (i, &(nodes, hours)) in legs.iter().enumerate() {
        let seen = campaign.profiler().samples().len();
        let span = rec.enter("campaign.execute_run_on", request);
        let (report, wall_s) =
            clock::time(|| campaign.execute_run_on(MachineSpec::summit_allocation(nodes), hours));
        rec.exit(span);
        out.violations.extend(violations(i, &report));
        // Samples are stamped in the leg's own virtual time from zero.
        let from = simcore::SimTime::from_hours(hours).as_micros() / 3 * 2;
        let steady: Vec<f64> = campaign.profiler().samples()[seen..]
            .iter()
            .filter(|s| s.at.as_micros() >= from)
            .map(|s| s.gpu_pct())
            .collect();
        out.legs.push(Leg {
            wall_s,
            placed: report.placed,
            driver_iterations: report.driver_iterations,
            peak_gpu_jobs: report.peak_gpu_jobs,
            steady_gpu_pct: steady.iter().sum::<f64>() / steady.len().max(1) as f64,
            job_log: report.job_log,
        });
    }
    rec.exit(root);
    out
}

/// Set-up: build the configuration and warm the process (allocator,
/// lazily initialised tables, the loop's code) on the 1/64 rung. The
/// warm-up takes the serial loop: the vendored `rayon::join` starts a
/// thread per fork, so there is no pool to warm, and at this width the
/// forks' wake-up latency (which follows the host, 4 to 55 ms of a
/// 28 to 80 ms warm-up within one minute) was most of `setup_s`.
fn set_up(kind: Kind, seed: u64) -> CampaignConfig {
    let cfg = kind.config(seed);
    let mut warm = Campaign::new(CampaignConfig {
        serial_loop: true,
        ..cfg.clone()
    });
    std::hint::black_box(warm.execute_run(WARMUP.0, WARMUP.1));
    cfg
}

/// The timed body: replay the campaign, same seed, until the time is up.
pub fn run(kind: Kind, ctx: &Ctx, rec: &mut Recorder) -> (Measured, Vec<Replay>) {
    let mut m = Measured::default();
    let cfg = crate::repeat_set_up(ctx, &mut m, || set_up(kind, ctx.seed), drop);
    let legs = kind.legs();
    let mut replays: Vec<Replay> = Vec::new();
    let t0 = clock::now();
    while replays.is_empty() || crate::fits(t0, ctx.seconds, replays.len() as u64) {
        let r = replay(&cfg, &legs, rec, replays.len() as u64);
        m.attempted += 1;
        if !r.violations.is_empty() {
            m.fail(format!(
                "replay {}: {}",
                replays.len(),
                r.violations.join("; ")
            ));
        } else if replays
            .first()
            .is_some_and(|first| first.fingerprint() != r.fingerprint())
        {
            m.fail(format!(
                "replay {} is not a repeat of replay 0 (same seed, different statistics)",
                replays.len()
            ));
        }
        m.latencies_ms.push(r.wall_s() * 1e3);
        replays.push(r);
    }
    m.body_s = clock::secs_since(t0);
    m.work = replays.len() as f64;
    let first = &replays[0];
    m.exact = vec![
        ("campaign.gpu_occupancy_pct".into(), first.steady_gpu_pct()),
        (
            "campaign.driver_iterations".into(),
            first.driver_iterations() as f64,
        ),
        ("campaign.placed".into(), first.placed() as f64),
        (
            "campaign.peak_gpu_jobs".into(),
            first.peak_gpu_jobs() as f64,
        ),
    ];
    (m, replays)
}
