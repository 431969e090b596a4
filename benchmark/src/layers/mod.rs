//! The traced pass: per-layer numbers.
//!
//! Two sources feed them. Spans recorded around the calls the workload
//! body makes (engine calls in `sched_policy_churn`, client calls in the
//! store workloads, client-edge event stamps in `farm_tenants`, legs in
//! the campaign workloads) give the numbers of the layers the body calls
//! directly. Layers that sit below a product call the harness cannot see
//! into are driven on their own, at the scale the workload uses them,
//! by the drives in [`batch`] and [`service`]. Until spans exist inside
//! the product crates these numbers *bound* each layer's cost; they do
//! not sum to the wall time.
//!
//! A workload's traced run reports the layers on its own path; a layer
//! it bypasses is reported as bypassed.

pub mod batch;
pub mod service;

use crate::stats;

/// Median nanoseconds per call over `(seconds, calls)` samples.
pub fn per_call_ns(samples: &[(f64, usize)]) -> f64 {
    let per: Vec<f64> = samples
        .iter()
        .filter(|&&(_, calls)| calls > 0)
        .map(|&(s, calls)| s * 1e9 / calls as f64)
        .collect();
    stats::median(&per)
}

use campaign::{CampaignConfig, StoreBackend};
use trace::Tracer;

use crate::clock;
use crate::spans::{self, Recorder};
use crate::workloads::campaigns::{self, Kind};
use crate::workloads::{farm_tenants, sched_policy_churn, store, Ctx, Layers, Measured};

/// What the traced pass of one workload produced.
pub struct Traced {
    /// Operations attempted over both bodies, and why any failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every per-layer value this workload's path produced.
    pub layers: Layers,
    /// The spans of the traced body, to be written out at exit.
    pub spans: Recorder,
    /// Latency samples of the four bodies, and the percentile
    /// `bench.latency_tail_ms` is.
    pub latency_samples: usize,
    pub tail_pct: u32,
}

/// Runs a workload's body four times, each for a fifth of the run's
/// seconds (the layer drives take the rest): spans off, on, on, off.
/// The first body in a process pays for growing the heap and later ones
/// keep getting a little faster, so a plain off-then-on pair would
/// credit that drift to the spans; the mirrored order cancels it. The
/// span overhead compares the mean cost per unit of work of the two
/// inner bodies with that of the two outer ones. Returns the first
/// untraced and the first traced body (whose spans are kept).
fn both_bodies<T>(
    ctx: &Ctx,
    body: impl Fn(&Ctx, &mut Recorder) -> (Measured, T),
) -> ((Measured, T), (Measured, T), Traced) {
    let part = Ctx {
        seconds: ctx.seconds / 5.0,
        set_up_once: true,
        ..ctx.clone()
    };
    let run = |spans_on: bool| {
        let mut rec = Recorder::new(spans_on, clock::now());
        (body(&part, &mut rec), rec)
    };
    let (untraced, _) = run(false);
    // The high-water mark of one body: the later ones only add what the
    // allocator fails to reuse.
    let peak_rss_mib = crate::record::peak_rss_mib();
    let (traced, rec) = run(true);
    let ((traced_again, _), _) = run(true);
    let ((untraced_again, _), _) = run(false);

    let cost = |a: &Measured, b: &Measured| (a.s_per_work() + b.s_per_work()) / 2.0;
    let overhead =
        (cost(&traced.0, &traced_again) / cost(&untraced.0, &untraced_again) - 1.0) * 100.0;
    let self_ns = spans::self_times_ns(rec.spans());
    let (mut harness, mut rooted) = (0u64, 0u64);
    for (s, own) in rec.spans().iter().zip(&self_ns) {
        if s.name.starts_with("bench.") {
            harness += own;
            if s.parent.is_none() {
                rooted += s.duration_ns();
            }
        }
    }
    let bodies = [&untraced.0, &traced.0, &traced_again, &untraced_again];
    // A body of this pass is a fifth of a run: the four together have the
    // samples for a percentile, and spans cost them next to nothing.
    let mut latencies: Vec<f64> = bodies
        .iter()
        .flat_map(|m| m.latencies_ms.iter().copied())
        .collect();
    stats::sort(&mut latencies);
    let (tail_pct, tail_ms) = stats::tail(&latencies);
    let out = Traced {
        attempted: bodies.iter().map(|m| m.attempted).sum(),
        failures: bodies
            .iter()
            .flat_map(|m| m.failures.iter().cloned())
            .collect(),
        layers: vec![
            ("bench.latency_p50_ms".into(), stats::median(&latencies)),
            ("bench.latency_tail_ms".into(), tail_ms),
            ("bench.peak_rss_mib".into(), peak_rss_mib),
            ("bench.span_overhead_pct".into(), overhead),
            (
                "bench.harness_self_pct".into(),
                100.0 * harness as f64 / rooted.max(1) as f64,
            ),
        ],
        spans: rec,
        latency_samples: latencies.len(),
        tail_pct,
    };
    (untraced, traced, out)
}

/// The 1/8-Summit rung, replayed once: `(wall seconds, replay)`.
fn rung_1_8(seed: u64, edit: impl FnOnce(&mut CampaignConfig)) -> (f64, campaigns::Replay) {
    let mut cfg = CampaignConfig {
        seed,
        ..CampaignConfig::scale_rung(576)
    };
    edit(&mut cfg);
    let r = campaigns::replay(
        &cfg,
        &[(576, 16)],
        &mut Recorder::new(false, clock::now()),
        0,
    );
    (r.wall_s(), r)
}

/// Loopback store backend over the in-process one, on the 1/8 rung.
fn loopback_over_inprocess(seed: u64) -> f64 {
    let (inproc, _) = rung_1_8(seed, |_| ());
    let (loopback, _) = rung_1_8(seed, |c| c.store_backend = StoreBackend::Loopback);
    loopback / inproc
}

/// Traced pass of `summit_full` / `table1_chain`.
pub fn campaign(kind: Kind, ctx: &Ctx) -> Traced {
    let ((u, u_replays), (_, t_replays), mut out) =
        both_bodies(ctx, |c, rec| campaigns::run(kind, c, rec));
    let l = &mut out.layers;
    l.extend(u.exact.iter().cloned());
    let leg_s: Vec<f64> = out
        .spans
        .durations_ns("campaign.execute_run_on")
        .iter()
        .map(|ns| ns / 1e9)
        .collect();
    l.push(("campaign.leg_wall_s_p50".into(), stats::median(&leg_s)));
    l.push((
        "campaign.leg_wall_s_max".into(),
        leg_s.iter().copied().fold(0.0, f64::max),
    ));

    let seed = ctx.seed;
    l.extend(batch::resources(seed));
    l.extend(batch::dynim(seed));
    l.extend(batch::trace_emit());
    match kind {
        Kind::SummitFull => {
            let walls: Vec<f64> = u_replays
                .iter()
                .chain(&t_replays)
                .map(|r| r.wall_s())
                .collect();
            let default_s = stats::median(&walls);
            let iterations = u.exact("campaign.driver_iterations");
            l.push((
                "campaign.us_per_iteration.summit_full".into(),
                default_s * 1e6 / iterations,
            ));
            let (small_s, small) = rung_1_8(seed, |_| ());
            l.push((
                "campaign.us_per_iteration.rung_1_8".into(),
                small_s * 1e6 / small.driver_iterations() as f64,
            ));

            let cfg = kind.config(seed);
            let legs = [(campaigns::SUMMIT_NODES, campaigns::SUMMIT_HOURS)];
            let off = &mut Recorder::new(false, clock::now());
            let serial = CampaignConfig {
                serial_loop: true,
                ..cfg.clone()
            };
            l.push((
                "campaign.serial_over_default_x".into(),
                campaigns::replay(&serial, &legs, off, 0).wall_s() / default_s,
            ));
            let with_tracer =
                campaigns::replay_with(&cfg, &legs, off, 0, |c| c.set_tracer(Tracer::enabled()));
            l.push((
                "trace.campaign_overhead_pct".into(),
                (with_tracer.wall_s() / default_s - 1.0) * 100.0,
            ));

            // The recorded job stream of the 1/8 rung feeds the trace
            // parser (the full-scale log would cost one more replay).
            let (_, mut recorded) = rung_1_8(seed, |c| c.record_jobs = true);
            let log = recorded.legs[0]
                .job_log
                .take()
                .expect("record_jobs was set");
            l.extend(batch::workload(&log));
            l.extend(batch::mummi_core(seed, campaigns::SUMMIT_NODES, 8));
        }
        Kind::Table1Chain => {
            l.push((
                "campaign.loopback_over_inprocess_x".into(),
                loopback_over_inprocess(seed),
            ));
            l.extend(batch::mummi_core(seed, 1000, 8));
            l.extend(batch::simcore(seed));
        }
    }
    out
}

/// Traced pass of `sched_policy_churn`: the `sched` numbers come from
/// the spans around every engine call of the first traced sweep.
pub fn churn(ctx: &Ctx) -> Traced {
    let (_, (t, passes), mut out) = both_bodies(ctx, sched_policy_churn::run);
    let l = &mut out.layers;
    for (i, pass) in passes.iter().enumerate() {
        let advance_s: f64 = out
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "sched.advance" && s.request == i as u64)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum();
        l.push((format!("sched.advance_s.{}", pass.policy), advance_s));
        if pass.policy != "fcfs" {
            l.push((
                format!("sched.wait_p99_virt_s.{}", pass.policy),
                pass.wait_p99_virt_s,
            ));
        }
    }
    l.push((
        "sched.submit_ns".into(),
        stats::median(&out.spans.durations_ns("sched.submit")),
    ));
    l.push((
        "sched.next_wakeup_ns".into(),
        stats::median(&out.spans.durations_ns("sched.next_wakeup")),
    ));
    let sum = |f: fn(&sched_policy_churn::Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    l.push(("sched.placed".into(), sum(|p| p.placed)));
    l.push(("sched.match_misses".into(), sum(|p| p.match_misses)));
    l.push(("sched.backfills".into(), sum(|p| p.backfills)));
    l.push((
        "sched.queue_depth_max".into(),
        passes.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
    ));
    l.push((
        "sched.visited_per_placement".into(),
        sum(|p| p.visited) / sum(|p| p.placed).max(1.0),
    ));
    l.extend(t.exact.iter().cloned());
    l.extend(batch::resources(ctx.seed));
    out
}

/// Traced pass of `farm_tenants`: client-edge stage stamps, the
/// in-process floor, and the store path the legs ride.
pub fn farm(ctx: &Ctx) -> Traced {
    let (_, (t, (stages, counts)), mut out) = both_bodies(ctx, |c, rec| {
        let (m, stages, counts) = farm_tenants::run(c, rec);
        (m, (stages, counts))
    });
    let l = &mut out.layers;
    l.push((
        "farm.ping_rtt_ms".into(),
        stats::median(&counts.ping_rtt_ms),
    ));
    for stage in ["submit_rtt", "admit", "first_placement_in_leg", "leg"] {
        let samples = stages.ms(&format!("farm.{stage}"));
        l.push((format!("farm.{stage}_ms"), stats::median(samples)));
    }
    let floor: Vec<f64> = (0..5)
        .map(|i| farm_tenants::inproc_campaign_s(ctx.seed + i) * 1e3)
        .collect();
    l.push(("farm.inproc_campaign_ms".into(), stats::median(&floor)));
    l.extend(t.counts.iter().cloned());
    l.push((
        "campaign.loopback_over_inprocess_x".into(),
        loopback_over_inprocess(ctx.seed),
    ));
    l.extend(service::datastore());
    l.extend(service::storeserver_codec(ctx.seed));
    out
}

/// Traced pass of `store_durable_write`.
pub fn store_durable(ctx: &Ctx) -> Traced {
    // Recovery time and log size come from the body that ran spans off.
    let ((u, reopen), _, mut out) = both_bodies(ctx, store::run_durable);
    let l = &mut out.layers;
    l.push((
        "storeserver.recovery_s".into(),
        stats::median(&reopen.recovery_s),
    ));
    l.extend(u.counts.iter().cloned());
    l.push((
        "storeserver.wal_syncs_per_ack".into(),
        reopen.wal_syncs as f64 / reopen.acked_requests.max(1) as f64,
    ));
    l.extend(service::kvstore(ctx.seed));
    l.extend(service::storeserver_codec(ctx.seed));
    l.extend(service::storeserver_wal(
        ctx.seed,
        &ctx.out_dir
            .join(format!("wal-layer-{}", std::process::id())),
    ));
    out
}

/// Traced pass of `store_read_scan`.
pub fn store_read(ctx: &Ctx) -> Traced {
    let (_, _, mut out) = both_bodies(ctx, |c, rec| (store::run_read(c, rec), ()));
    out.layers.extend(service::kvstore(ctx.seed));
    out.layers.extend(service::storeserver_codec(ctx.seed));
    out
}
