//! `farm_tenants`: the full service path — wire submit → fair-share
//! admission → campaign leg → scheduler/WM → store codec.
//!
//! An in-process `farm::FarmServer` on `127.0.0.1:0` with two workers
//! and a seeded two-kill `chaos::WorkerKillPlan` serves two client
//! connections (one thread each, closed loop). Each client alternates
//! between two tenant names, submits a batch of four two-leg campaigns
//! over the loopback store backend, follows every campaign's event
//! stream to `completed` (one passive listener connection per campaign,
//! so an event is stamped when it arrives, not when the client gets
//! round to it), checks the final status, and submits the next batch.
//! It is the only workload that runs `RemoteDataStore` over
//! `LoopbackTransport` and the farm's fair-share admission. The farm
//! itself has no host clock: every latency here is stamped at the
//! client edge.

use std::net::SocketAddr;
use std::thread;
use std::time::Instant;

use chaos::WorkerKillPlan;
use farm::{Farm, FarmClient, FarmServer};
use trace::Json;

use super::{Ctx, Measured};
use crate::clock;
use crate::spans::Recorder;

/// Farm worker threads.
pub const WORKERS: usize = 2;
/// Client connections (one thread each).
pub const CLIENTS: usize = 2;
/// Campaigns a client keeps in flight.
pub const BATCH: usize = 4;
/// Worker kills planned per run.
pub const KILLS: usize = 2;
/// The legs of every campaign: `(nodes, hours)`.
pub const LEGS: [(u32, u64); 2] = [(72, 12), (72, 12)];
/// Legs the set-up's warm-up campaign completes before the body starts.
const WARM_LEGS: u64 = LEGS.len() as u64;

/// The chaos suite's small-but-busy configuration (`farm_bench`'s),
/// routed through the store tier's loopback transport.
fn submit_line(tenant: &str, seed: u64) -> String {
    let legs: Vec<String> = LEGS.iter().map(|(n, h)| format!("[{n}, {h}]")).collect();
    format!(
        concat!(
            r#"{{"op": "submit", "tenant": "{}", "schedule": [{}], "config": {{"#,
            r#""patches_per_snapshot": 6, "frames_per_sim_per_min": 0.05, "#,
            r#""cg_target_us": 0.2, "aa_target_ns": [5, 8], "queue_cap": 500, "#,
            r#""policy": "first_match", "coupling": "async", "#,
            r#""submit_rate_per_min": 600, "job_timeout_grace": 1.5, "#,
            r#""node_failures_per_day": 0, "job_failure_prob": 0, "#,
            r#""store": "loopback", "seed": {}}}}}"#
        ),
        tenant,
        legs.join(", "),
        seed
    )
}

/// The same campaign through `campaign::Campaign` directly — the floor
/// the service path sits on.
pub fn inproc_campaign_s(seed: u64) -> f64 {
    let spec = match farm::Request::decode(&submit_line("floor", seed)) {
        Ok(farm::Request::Submit(spec)) => spec,
        other => panic!("the benchmark's own submit line did not decode: {other:?}"),
    };
    let ((), s) = clock::time(|| {
        let mut c = campaign::Campaign::new(spec.cfg.clone());
        for &(nodes, hours) in &spec.schedule {
            std::hint::black_box(c.execute_run(nodes, hours));
        }
    });
    s
}

/// Client-edge stamps of one campaign.
#[derive(Debug, Clone)]
pub struct Stamps {
    pub id: u64,
    pub sent: Instant,
    pub acked: Instant,
    /// `(kind, received)` for every streamed event.
    pub events: Vec<(String, Instant)>,
}

impl Stamps {
    fn first(&self, kind: &str) -> Option<Instant> {
        self.events.iter().find(|(k, _)| k == kind).map(|&(_, t)| t)
    }

    /// The campaign's stages as `(stage, from, to)` intervals between
    /// client-edge stamps.
    fn stages(&self) -> Vec<(&'static str, Instant, Instant)> {
        let mut out = vec![("farm.submit_rtt", self.sent, self.acked)];
        if let Some(start) = self.first("leg.start") {
            out.push(("farm.admit", self.acked, start));
        }
        let mut leg_start = None;
        for (kind, at) in &self.events {
            match (kind.as_str(), leg_start) {
                ("leg.start", _) => leg_start = Some(*at),
                ("first_placement", Some(start)) => {
                    out.push(("farm.first_placement", self.sent, *at));
                    out.push(("farm.first_placement_in_leg", start, *at));
                }
                ("leg.done", Some(start)) => out.push(("farm.leg", start, *at)),
                _ => {}
            }
        }
        out
    }
}

/// Per-stage client-edge latencies (ms), by stage name.
#[derive(Debug, Clone, Default)]
pub struct Stages(std::collections::BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    /// The samples of one stage (empty when it never happened).
    pub fn ms(&self, stage: &str) -> &[f64] {
        self.0.get(stage).map_or(&[], Vec::as_slice)
    }
}

struct ClientOut {
    stamps: Vec<Stamps>,
    attempted: u64,
    failures: Vec<String>,
    rec: Recorder,
}

fn expected(status: &Json, key: &str, want: f64) -> bool {
    status.get(key).and_then(Json::as_f64) == Some(want)
}

/// One client connection: batches of [`BATCH`] campaigns until the time
/// is up.
fn client(
    id: usize,
    addr: SocketAddr,
    seed: u64,
    t0: Instant,
    seconds: f64,
    mut rec: Recorder,
) -> ClientOut {
    let root = rec.enter("bench.client", id as u64);
    let mut out = client_loop(id, addr, seed, t0, seconds, &mut rec);
    rec.exit(root);
    for st in &out.stamps {
        for (stage, from, to) in st.stages() {
            rec.closed(stage, st.id, from, to);
        }
    }
    out.rec = rec;
    out
}

fn client_loop(
    id: usize,
    addr: SocketAddr,
    seed: u64,
    t0: Instant,
    seconds: f64,
    rec: &mut Recorder,
) -> ClientOut {
    let mut out = ClientOut {
        stamps: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        rec: Recorder::new(false, t0),
    };
    let mut conn = match FarmClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(format!("client {id}: connect: {e}"));
            return out;
        }
    };
    let mut batches = 0u64;
    while batches == 0 || crate::fits(t0, seconds, batches) {
        let mut pending: Vec<Stamps> = Vec::new();
        for k in 0..BATCH {
            let n = batches * BATCH as u64 + k as u64;
            let tenant = format!("tenant-{}", id * 2 + k % 2);
            let line = submit_line(
                &tenant,
                seed.wrapping_mul(1_000_003) + (id as u64) * 100_000 + n,
            );
            out.attempted += 1;
            let sent = clock::now();
            match rec.span("farm.submit_line", n, || conn.submit_line(&line)) {
                Ok(cid) => pending.push(Stamps {
                    id: cid,
                    sent,
                    acked: clock::now(),
                    events: Vec::new(),
                }),
                Err(e) => out.failures.push(format!("client {id}: submit: {e}")),
            }
        }
        let conn_ref = &conn;
        let listening = rec.enter("farm.stream_until", batches);
        let listened: Vec<(Stamps, Result<bool, String>)> = thread::scope(|s| {
            // lint: allow(L8: one passive listener per in-flight campaign, blocked in read; they only stamp events as they arrive)
            let handles: Vec<_> = pending
                .into_iter()
                .map(|mut st| {
                    s.spawn(move || {
                        let r = conn_ref.stream_until(st.id, 0, |ev| {
                            let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("");
                            st.events.push((kind.to_string(), clock::now()));
                            false
                        });
                        (st, r.map(|(_, done)| done))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("listener thread panicked"))
                .collect()
        });
        rec.exit(listening);
        for (st, streamed) in listened {
            let cid = st.id;
            let mut why = Vec::new();
            if streamed != Ok(true) {
                why.push(format!("stream ended early: {streamed:?}"));
            }
            if st.first("completed").is_none() {
                why.push("no `completed` event".to_string());
            }
            match rec.span("farm.status", cid, || conn.status(cid)) {
                Err(e) => why.push(format!("status: {e}")),
                Ok(status) => {
                    if status.get("state").and_then(Json::as_str) != Some("completed") {
                        why.push(format!("state {:?}", status.get("state")));
                    }
                    if status.get("ledger_ok") != Some(&Json::Bool(true)) {
                        why.push("ledger_ok is false".to_string());
                    }
                    if !expected(&status, "legs_done", LEGS.len() as f64) {
                        why.push(format!("legs_done {:?}", status.get("legs_done")));
                    }
                    let killed = st
                        .events
                        .iter()
                        .filter(|(k, _)| k == "worker.killed")
                        .count();
                    if !expected(&status, "recoveries", killed as f64) {
                        why.push(format!(
                            "recoveries {:?} after {killed} kills",
                            status.get("recoveries")
                        ));
                    }
                }
            }
            if !why.is_empty() {
                out.failures
                    .push(format!("campaign {cid}: {}", why.join("; ")));
            }
            out.stamps.push(st);
        }
        batches += 1;
    }
    out
}

/// The seeded kill plan. Its triggers count completed legs farm-wide:
/// they start after the warm-up campaign (a kill must not land in the
/// set-up being timed) and end within what even a short or slow run
/// completes — every run finishes at least one batch per client, and a
/// second of body is good for four more legs on a host four times
/// slower than the reference.
fn kill_plan(seed: u64, seconds: f64) -> WorkerKillPlan {
    let sure = (CLIENTS * BATCH * LEGS.len()) as u64;
    let horizon = sure.max((seconds * 4.0) as u64).min(48);
    let mut plan = WorkerKillPlan::generate(seed, WORKERS, horizon, KILLS);
    for kill in &mut plan.kills {
        kill.after_legs += WARM_LEGS;
    }
    plan
}

/// Set-up: the farm, its server, and one warm-up campaign through the
/// whole service path.
fn set_up(seed: u64, seconds: f64) -> FarmServer {
    let farm = Farm::new(WORKERS, kill_plan(seed, seconds));
    let server = FarmServer::start(farm, "127.0.0.1:0").expect("bind loopback");
    let mut warm = FarmClient::connect(server.addr()).expect("connect");
    warm.ping().expect("ping");
    let id = warm
        .submit_line(&submit_line("warm-up", seed))
        .expect("warm-up submit");
    warm.wait_done(id).expect("warm-up campaign");
    server
}

/// What the farm's own counters said once the run had drained.
#[derive(Debug, Clone, Default)]
pub struct FarmCounts {
    pub completed: f64,
    pub kills_fired: f64,
    pub kills_mid_leg: f64,
    pub recoveries: f64,
    pub ping_rtt_ms: Vec<f64>,
}

/// The timed body: both clients submit and follow batches until the
/// time is up.
pub fn run(ctx: &Ctx, rec: &mut Recorder) -> (Measured, Stages, FarmCounts) {
    let mut m = Measured::default();
    let server = crate::repeat_set_up(
        ctx,
        &mut m,
        || set_up(ctx.seed, ctx.seconds),
        FarmServer::stop,
    );
    let addr = server.addr();

    let (seed, seconds) = (ctx.seed, ctx.seconds);
    let t0 = clock::now();
    let outs: Vec<ClientOut> = thread::scope(|s| {
        // lint: allow(L8: the two load-generating client connections of the closed-loop farm workload)
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let rec = Recorder::new(rec.is_enabled(), rec.epoch());
                s.spawn(move || client(id, addr, seed, t0, seconds, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("farm client thread panicked"))
            .collect()
    });
    m.body_s = clock::secs_since(t0);

    let mut stages = Stages::default();
    for out in outs {
        m.attempted += out.attempted;
        m.failures.extend(out.failures);
        for st in &out.stamps {
            if st.first("completed").is_some() {
                m.work += 1.0;
            }
            for (stage, from, to) in st.stages() {
                let ms = to.saturating_duration_since(from).as_secs_f64() * 1e3;
                stages.0.entry(stage).or_default().push(ms);
            }
        }
        rec.merge(out.rec);
    }
    m.latencies_ms = stages.ms("farm.first_placement").to_vec();

    let mut counts = FarmCounts::default();
    match FarmClient::connect(addr) {
        Err(e) => m.fail(format!("admin connect: {e}")),
        Ok(mut admin) => {
            for _ in 0..20 {
                let (r, s) = clock::time(|| admin.ping());
                match r {
                    Ok(()) => counts.ping_rtt_ms.push(s * 1e3),
                    Err(e) => m.fail(format!("ping: {e}")),
                }
            }
            match admin.stats() {
                Err(e) => m.fail(format!("stats: {e}")),
                Ok(stats) => {
                    let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
                    // The warm-up campaign of the set-up completed too.
                    counts.completed = get("completed") - 1.0;
                    counts.kills_fired = get("kills_fired");
                    counts.kills_mid_leg = get("kills_mid_leg");
                    counts.recoveries = get("recoveries");
                    if counts.completed != m.work {
                        m.fail(format!(
                            "farm completed {} campaigns, clients saw {}",
                            counts.completed, m.work
                        ));
                    }
                    if counts.kills_fired != KILLS as f64 {
                        m.fail(format!(
                            "{} of {KILLS} planned kills fired",
                            counts.kills_fired
                        ));
                    }
                    if counts.recoveries != counts.kills_mid_leg {
                        m.fail(format!(
                            "{} recoveries after {} mid-leg kills",
                            counts.recoveries, counts.kills_mid_leg
                        ));
                    }
                }
            }
        }
    }
    server.stop();
    m.counts
        .push(("farm.kills_mid_leg".into(), counts.kills_mid_leg));
    m.counts.push(("farm.recoveries".into(), counts.recoveries));
    (m, stages, counts)
}
