//! `sched_policy_churn`: the scheduler policy zoo under a saturating
//! stream, with nothing else in the way.
//!
//! A bare `sched::SchedEngine` over a 576-node Summit allocation
//! (first-match, asynchronous Q↔R, campaign service costs) is fed one
//! job every 800 virtual milliseconds — more than the machine can turn
//! over, so the queue deepens for the whole horizon — once under each
//! queue policy. `fcfs` is the bypass: it never looks past the head, so
//! a change to the policy layer predicts no move on its pass. Campaign,
//! WM, store and farm do nothing here; `try_alloc_range` (the
//! hierarchical children) is exercised by no other workload.
//!
//! One driver thread, closed loop: the next pass starts when the
//! previous one has drained.

use resources::{MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobEvent, JobId, SchedEngine, SchedPolicy};
use simcore::{SimDuration, SimTime};
use workload::WorkloadJob;

use super::{Ctx, Measured};
use crate::spans::Recorder;
use crate::{clock, gen, stats};

/// The 1/8-Summit rung.
pub const NODES: u32 = 576;
/// Virtual minutes of arrivals.
pub const MINUTES: u64 = 64;
/// Virtual gap between arrivals.
pub const GAP_MS: u64 = 800;
/// Jobs in the stream: one per gap over the horizon.
pub const JOBS: usize = (MINUTES * 60_000 / GAP_MS) as usize;

/// What one policy's pass over the stream produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub policy: &'static str,
    /// Host seconds from first arrival to the horizon.
    pub wall_s: f64,
    pub placed: u64,
    pub match_misses: u64,
    pub backfills: u64,
    pub queue_depth_max: u64,
    pub visited: u64,
    /// p99 of virtual queue wait (s) over all submitted jobs, jobs still
    /// queued at the horizon censored at `horizon - submit`.
    pub wait_p99_virt_s: f64,
    pub violations: Vec<String>,
}

fn engine(policy: SchedPolicy) -> SchedEngine {
    let graph = ResourceGraph::new(MachineSpec::summit_allocation(NODES));
    let mut e = SchedEngine::new(
        graph,
        MatchPolicy::FirstMatch,
        Coupling::Asynchronous,
        Costs::summit_campaign(),
    );
    e.set_sched_policy(policy);
    e
}

/// Runs `stream` through a fresh engine under `policy`, event-driven:
/// the clock jumps to the earlier of the next arrival and the engine's
/// own next wakeup. Every engine call is one span.
pub fn pass(policy: SchedPolicy, stream: &[WorkloadJob], rec: &mut Recorder, request: u64) -> Pass {
    let horizon = SimTime::from_mins(MINUTES);
    let mut out = Pass {
        policy: policy.name(),
        ..Pass::default()
    };
    let root = rec.enter("bench.policy_pass", request);
    let mut e = rec.span("sched.new", request, || engine(policy));
    let mut submitted: Vec<(JobId, SimTime)> = Vec::with_capacity(stream.len());
    let mut placed_at: Vec<Option<SimTime>> = vec![None; stream.len()];
    let note = |events: &[JobEvent], placed_at: &mut Vec<Option<SimTime>>| {
        for ev in events {
            if let JobEvent::Placed { id, at } = *ev {
                // Ids are dense from zero in submission order.
                placed_at[id.0 as usize] = Some(at);
            }
        }
    };
    let mut next_job = 0usize;
    let t0 = clock::now();
    loop {
        let wake = rec.span("sched.next_wakeup", request, || e.next_wakeup());
        let arrival = stream.get(next_job).map(|j| j.at);
        let Some(next) = [wake, arrival].into_iter().flatten().min() else {
            break;
        };
        if next > horizon {
            break;
        }
        let events = rec.span("sched.advance", request, || e.advance(next));
        note(&events, &mut placed_at);
        while let Some(job) = stream.get(next_job).filter(|j| j.at <= next) {
            let id = rec.span("sched.submit", request, || {
                e.submit(job.spec.clone(), job.at)
            });
            submitted.push((id, job.at));
            next_job += 1;
        }
        out.queue_depth_max = out.queue_depth_max.max(e.totals().1);
    }
    let events = rec.span("sched.advance", request, || e.advance(horizon));
    note(&events, &mut placed_at);
    out.wall_s = clock::secs_since(t0);

    let st = e.stats();
    out.placed = st.placed;
    out.match_misses = st.match_misses;
    out.backfills = st.backfills;
    out.visited = e.graph().visited_total();
    let (mut waits, mut censored) = (Vec::new(), Vec::new());
    for &(id, at) in &submitted {
        match placed_at[id.0 as usize] {
            Some(p) => waits.push(p.since(at).as_secs_f64()),
            None => censored.push(horizon.since(at).as_secs_f64()),
        }
    }
    out.wait_p99_virt_s = stats::censored_percentile(&waits, &censored, 99.0);

    // Invariants: nothing double-booked while loaded, and once the
    // queue is cancelled and the running jobs have finished the machine
    // is empty again.
    let (gpus, gpu_total) = e.graph().gpu_usage();
    let (cpus, cpu_total) = e.graph().cpu_usage();
    if gpus > gpu_total || cpus > cpu_total {
        out.violations.push(format!(
            "over-booked: {gpus}/{gpu_total} GPUs, {cpus}/{cpu_total} cores"
        ));
    }
    if let Err(err) = e.graph().validate_index() {
        out.violations
            .push(format!("free index diverged under load: {err}"));
    }
    if submitted.len() != stream.len() {
        out.violations.push(format!(
            "{} of {} jobs submitted",
            submitted.len(),
            stream.len()
        ));
    }
    for &(id, _) in &submitted {
        if placed_at[id.0 as usize].is_none() {
            e.cancel(id);
        }
    }
    let drained = horizon + SimDuration::from_hours(2);
    while let Some(t) = e.next_wakeup().filter(|&t| t <= drained) {
        e.advance(t);
    }
    e.advance(drained);
    let ((gpus, _), (cpus, _), (running, pending)) =
        (e.graph().gpu_usage(), e.graph().cpu_usage(), e.totals());
    if gpus != 0 || cpus != 0 || running != 0 || pending != 0 {
        out.violations.push(format!(
            "machine not empty at drain: {gpus} GPUs, {cpus} cores, {running} running, {pending} pending"
        ));
    }
    if let Err(err) = e.graph().validate_index() {
        out.violations
            .push(format!("free index diverged at drain: {err}"));
    }
    let st = e.stats();
    if st.submitted != st.completed + st.failed + st.canceled {
        out.violations.push(format!("ledger: {st:?}"));
    }
    rec.exit(root);
    out
}

/// Set-up: generate the stream and warm the engine code on the cheap
/// FCFS pass.
fn set_up(seed: u64) -> Vec<WorkloadJob> {
    let stream = gen::churn_stream(seed, JOBS, SimDuration::from_millis(GAP_MS));
    let mut off = Recorder::new(false, clock::now());
    std::hint::black_box(pass(SchedPolicy::Fcfs, &stream, &mut off, 0));
    stream
}

/// The timed body: sweep the five policies over the stream until the
/// time is up. Returns the passes of the first sweep for the layer
/// metrics.
pub fn run(ctx: &Ctx, rec: &mut Recorder) -> (Measured, Vec<Pass>) {
    let mut m = Measured::default();
    let stream = crate::repeat_set_up(ctx, &mut m, || set_up(ctx.seed), drop);
    let mut first: Vec<Pass> = Vec::new();
    let mut sweeps = 0u64;
    let t0 = clock::now();
    while sweeps == 0 || crate::fits(t0, ctx.seconds, sweeps) {
        let mut sweep_s = 0.0;
        for (i, policy) in SchedPolicy::ALL.into_iter().enumerate() {
            let p = pass(policy, &stream, rec, sweeps * 5 + i as u64);
            m.attempted += 1;
            sweep_s += p.wall_s;
            if !p.violations.is_empty() {
                m.fail(format!("{}: {}", p.policy, p.violations.join("; ")));
            } else if let Some(f) = first.get(i) {
                if (f.placed, f.wait_p99_virt_s.to_bits())
                    != (p.placed, p.wait_p99_virt_s.to_bits())
                {
                    m.fail(format!(
                        "{}: sweep {sweeps} is not a repeat of sweep 0",
                        p.policy
                    ));
                }
            }
            if sweeps == 0 {
                first.push(p);
            }
        }
        m.latencies_ms.push(sweep_s * 1e3);
        sweeps += 1;
    }
    m.body_s = clock::secs_since(t0);
    m.work = m.attempted as f64;
    let worst = first.iter().map(|p| p.wait_p99_virt_s).fold(0.0, f64::max);
    m.exact.push(("sched.wait_p99_virt_s.worst".into(), worst));
    (m, first)
}
