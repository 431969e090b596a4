//! Shell-level service tests: the farm's external contract over real
//! threads and sockets. The decisions behind them are pinned without a
//! wall clock in `core.rs`.
//!
//! The load-bearing one is byte-identity — a campaign submitted over TCP
//! must produce the exact trace the batch binary would, pinning the
//! determinism boundary at the service edge. The rest covers the
//! operational surface: pause/resume over the wire within the declared
//! crash–restore tolerances, resume at a new width, a seeded kill plan on
//! the threaded pool with conserved ledgers, strict rejection of invalid
//! submissions, the line framing (one write per line, no delayed-ACK
//! stalls, bounded request lines and nesting) and shutdown by decoded
//! op.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use campaign::Campaign;
use chaos::WorkerKillPlan;
use common::{assert_first_placement_shape, cfg, event_kind};
use farm::{EntryState, Farm, FarmClient, FarmEvent, FarmServer, SubmitSpec};
use trace::{Json, Tracer};

/// The same configuration as a wire `config` override object.
fn cfg_wire(seed: u64) -> String {
    format!(
        concat!(
            r#"{{"patches_per_snapshot": 6, "frames_per_sim_per_min": 0.05, "#,
            r#""cg_target_us": 0.2, "aa_target_ns": [5, 8], "queue_cap": 500, "#,
            r#""policy": "first_match", "coupling": "async", "#,
            r#""submit_rate_per_min": 600, "job_timeout_grace": 1.5, "#,
            r#""node_failures_per_day": 0, "job_failure_prob": 0, "seed": {}}}"#
        ),
        seed
    )
}

fn start_server(workers: usize, plan: WorkerKillPlan) -> (Farm, FarmServer, FarmClient) {
    let farm = Farm::new(workers, plan);
    let server = FarmServer::start(farm.clone(), "127.0.0.1:0").expect("bind");
    let client = FarmClient::connect(server.addr()).expect("connect");
    (farm, server, client)
}

fn events_of(farm: &Farm, id: u64) -> Vec<Json> {
    let (events, terminal) = farm.events_since(id, 0).expect("campaign exists");
    assert!(terminal);
    events.iter().map(FarmEvent::to_value).collect()
}

#[test]
fn farm_run_is_byte_identical_to_batch() {
    let batch = {
        let mut c = Campaign::new(cfg(4242));
        c.set_tracer(Tracer::enabled());
        c.execute_run(10, 4);
        c.execute_run(10, 2);
        c.tracer().to_jsonl()
    };
    let (_farm, server, mut client) = start_server(2, WorkerKillPlan::empty());
    let id = client
        .submit_line(&format!(
            r#"{{"op": "submit", "tenant": "alice", "trace": true, "schedule": [[10, 4], [10, 2]], "config": {}}}"#,
            cfg_wire(4242)
        ))
        .expect("submit");
    client.wait_done(id).expect("stream to completion");
    let farm_trace = client.trace(id).expect("trace");
    assert!(!batch.is_empty());
    assert_eq!(
        farm_trace, batch,
        "a farm-run campaign must trace byte-identically to the batch path"
    );
    server.stop();
}

#[test]
fn wire_resume_equivalence_stays_within_declared_tolerances() {
    // The uninterrupted baseline, in-process.
    let base = {
        let mut c = Campaign::new(cfg(20201214));
        c.execute_run(20, 12)
    };

    // Over the wire: same campaign with a scheduled drain window at hour
    // 6, then a resume. The stitched outcome must stay inside the
    // crash–restore tolerances (campaign/tests/chaos.rs): the resumed
    // leg reseeds its WM like any restart-chain leg.
    let (_farm, server, mut client) = start_server(2, WorkerKillPlan::empty());
    let id = client
        .submit_line(&format!(
            r#"{{"op": "submit", "tenant": "alice", "schedule": [[20, 12]], "pause_at_hours": 6, "config": {}}}"#,
            cfg_wire(20201214)
        ))
        .expect("submit");
    let paused = client.wait_event(id, "paused").expect("pause fires");
    assert_eq!(paused.get("at_hours").and_then(Json::as_f64), Some(6.0));
    let status = client.status(id).expect("status");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("paused"));
    let remaining = status.get("remaining").and_then(Json::as_arr).unwrap();
    assert_eq!(
        remaining[0].as_arr().and_then(|r| r[1].as_f64()),
        Some(6.0),
        "6 of the 12 hours remain after the drain window"
    );
    client.resume(id, None).expect("resume");
    client.wait_done(id).expect("completion");

    let done = client.status(id).expect("status");
    assert_eq!(done.get("state").and_then(Json::as_str), Some("completed"));
    assert_eq!(done.get("ledger_ok"), Some(&Json::Bool(true)));
    assert_eq!(
        done.get("node_hours").and_then(Json::as_f64),
        Some(240.0),
        "20 nodes x 12 executed hours, exactly"
    );
    let stitched = done.get("sims_completed").and_then(Json::as_f64).unwrap();
    let rel =
        (base.sims_completed as f64 - stitched).abs() / (base.sims_completed as f64).max(1e-9);
    assert!(
        rel < 0.25,
        "sims completed diverged: {} vs {stitched}",
        base.sims_completed
    );
    server.stop();
}

#[test]
fn wire_resume_at_a_different_rung_rescales_the_remainder() {
    let (_farm, server, mut client) = start_server(1, WorkerKillPlan::empty());
    let id = client
        .submit_line(&format!(
            r#"{{"op": "submit", "tenant": "bob", "schedule": [[20, 8]], "pause_at_hours": 4, "config": {}}}"#,
            cfg_wire(77)
        ))
        .expect("submit");
    client.wait_event(id, "paused").expect("pause fires");
    client.resume(id, Some(32)).expect("resume at 32 nodes");
    client.wait_done(id).expect("completion");
    let done = client.status(id).expect("status");
    assert_eq!(
        done.get("node_hours").and_then(Json::as_f64),
        Some((20 * 4 + 32 * 4) as f64),
        "4 hours at the old width, 4 at the new"
    );
    assert_eq!(done.get("ledger_ok"), Some(&Json::Bool(true)));
    server.stop();
}

#[test]
fn worker_kills_recover_from_checkpoints_with_conserved_ledgers() {
    // A seeded kill plan against three two-leg campaigns on three worker
    // threads. Every campaign must still complete everything it promised,
    // with every kept leg's ledger reconciled. (A kill aimed after a
    // leg's first_placement is pinned without host timing in core.rs.)
    let plan = WorkerKillPlan::generate(7, 3, 6, 2);
    assert_eq!(plan.kills.len(), 2);
    let farm = Farm::new(3, plan);
    let mut ids = Vec::new();
    for (tenant, seed) in [("a", 1u64), ("b", 2), ("c", 3)] {
        let id = farm
            .submit(SubmitSpec {
                tenant: tenant.to_string(),
                cfg: cfg(seed),
                schedule: vec![(10, 4), (10, 4)],
                trace: false,
                pause_at_hours: None,
            })
            .expect("submit");
        ids.push(id);
    }
    for id in &ids {
        let s = farm.wait_until(*id, |s| s.terminal()).expect("completion");
        assert_eq!(s.state, EntryState::Completed);
        assert_eq!(s.legs_done, 2, "campaign {id} completed its full schedule");
        assert!(s.remaining.is_empty());
        assert!(s.ledger_ok, "campaign {id} kept a non-reconciling leg");
        assert_first_placement_shape(&events_of(&farm, *id));
    }
    let stats = farm.stats();
    assert_eq!(stats.kills_fired, 2, "the plan fired");
    assert_eq!(
        stats.workers_spawned,
        3 + stats.kills_fired,
        "every kill spawned a replacement"
    );
    assert_eq!(stats.completed, 3);
    assert_eq!(
        stats.kills_mid_leg + stats.kills_idle,
        stats.kills_fired,
        "every kill landed mid-leg or on an idle worker"
    );
    assert_eq!(
        stats.recoveries, stats.kills_mid_leg,
        "every mid-leg kill owed exactly one checkpoint recovery"
    );
    farm.shutdown();
}

#[test]
fn two_tenants_under_fair_share_report_per_class_queue_waits() {
    // Two tenants on the fair-share scheduler policy: the wire status and
    // farm-wide stats must both carry the per-class queue-wait
    // aggregates the engine collected, so operators can see which class
    // a policy is starving without reading traces.
    let (_farm, server, mut client) = start_server(2, WorkerKillPlan::empty());
    let mut ids = Vec::new();
    for (tenant, seed) in [("alice", 11u64), ("bob", 12)] {
        let id = client
            .submit_line(&format!(
                r#"{{"op": "submit", "tenant": "{tenant}", "schedule": [[10, 4]], "config": {}}}"#,
                cfg_wire(seed).replacen('{', r#"{"sched_policy": "fair-share", "#, 1)
            ))
            .expect("submit");
        ids.push(id);
    }
    let mut total_count = 0.0;
    for id in ids {
        client.wait_done(id).expect("completion");
        let status = client.status(id).expect("status");
        assert_eq!(status.get("ledger_ok"), Some(&Json::Bool(true)));
        let waits = status
            .get("class_waits")
            .and_then(Json::as_obj)
            .expect("status carries class_waits");
        assert!(!waits.is_empty(), "fair-share run placed nothing");
        for (class, row) in waits {
            let count = row.get("count").and_then(Json::as_f64).unwrap();
            let mean = row.get("mean_wait_us").and_then(Json::as_f64).unwrap();
            let max = row.get("max_wait_us").and_then(Json::as_f64).unwrap();
            assert!(count > 0.0, "{class}: empty aggregate row");
            assert!(mean <= max, "{class}: mean wait exceeds max");
            total_count += count;
        }
        // The WM stream always carries its continuum job and CG sims.
        assert!(waits.contains_key("continuum"), "continuum wait missing");
        assert!(waits.contains_key("cg-sim"), "cg-sim wait missing");
    }

    // Farm-wide stats merge both tenants' aggregates.
    let stats = client.stats().expect("stats");
    let merged = stats
        .get("class_waits")
        .and_then(Json::as_obj)
        .expect("stats carries class_waits");
    let merged_count: f64 = merged
        .values()
        .map(|row| row.get("count").and_then(Json::as_f64).unwrap())
        .sum();
    assert_eq!(
        merged_count, total_count,
        "farm stats must sum both tenants' placements"
    );
    server.stop();
}

#[test]
fn service_smoke_and_strict_wire_rejection() {
    let (farm, server, mut client) = start_server(2, WorkerKillPlan::empty());
    client.ping().expect("ping");

    // Invalid configs bounce at the wire with the typed message.
    let e = client
        .submit_line(r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"ready_buffer_divisor": 0}}"#)
        .unwrap_err();
    assert!(e.contains("ready_buffer_divisor"), "{e}");
    let e = client
        .submit_line(r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"ready_buffer_cap": 7}}"#)
        .unwrap_err();
    assert!(e.contains("ready_buffer_cap"), "{e}");
    // So do typos and unknown ops.
    let e = client
        .submit_line(r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "trase": true}"#)
        .unwrap_err();
    assert!(e.contains("unknown submit field"), "{e}");
    assert!(client.call(r#"{"op": "tickle"}"#).is_err());

    // A valid submission runs to completion and shows up everywhere.
    let id = client
        .submit_line(&format!(
            r#"{{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {}}}"#,
            cfg_wire(5)
        ))
        .expect("submit");
    let events = client.wait_done(id).expect("completion");
    assert_eq!(
        events.last().map(event_kind),
        Some("completed"),
        "stream carries the completion event"
    );
    assert_first_placement_shape(&events);
    // The snapshot op and the stream encode events identically.
    let snapshot = client
        .call(&format!(r#"{{"op": "events", "id": {id}}}"#))
        .expect("events");
    assert_eq!(
        snapshot.get("events").and_then(Json::as_arr),
        Some(&events[..])
    );
    assert_eq!(client.list().expect("list").len(), 1);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("completed").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("kills_fired").and_then(Json::as_f64), Some(0.0));

    // Wire shutdown drains the farm; later submissions bounce.
    client.shutdown().expect("shutdown");
    assert!(farm.is_shutdown());
    assert!(farm
        .submit(SubmitSpec {
            tenant: "late".to_string(),
            cfg: cfg(1),
            schedule: vec![(5, 2)],
            trace: false,
            pause_at_hours: None,
        })
        .is_err());
    server.stop();
}

#[test]
fn a_line_is_one_write_and_no_request_waits_out_a_delayed_ack() {
    let (_farm, server, mut client) = start_server(1, WorkerKillPlan::empty());

    // 200 request/response round trips on one connection. With a line
    // split over two writes on a Nagle socket each one waits ~88 ms
    // (17.6 s in all); framed as one write with nodelay they take ~10 ms.
    let t0 = Instant::now(); // lint: allow(L1) a delayed-ACK stall is only visible as host time, read here at the client edge
    for _ in 0..200 {
        client.ping().expect("ping");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 pings took {elapsed:?}: the wire path is stalling on delayed ACKs"
    );

    // A foreign client — one `write` per request, Nagle left on — gets
    // the documented bytes back, each response a complete line.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut replies = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    raw.write_all(b"{\"op\": \"ping\"}\n").expect("write");
    replies.read_line(&mut line).expect("read");
    assert_eq!(line, "{\"ok\": true, \"pong\": true}\n");
    line.clear();
    raw.write_all(b"{\"op\": \"tickle\"}\n").expect("write");
    replies.read_line(&mut line).expect("read");
    assert_eq!(
        line,
        "{\"error\": \"unknown op \\\"tickle\\\"\", \"ok\": false}\n"
    );
    server.stop();
}

#[test]
fn an_unterminated_request_line_is_refused_at_the_cap() {
    let (_farm, server, mut client) = start_server(1, WorkerKillPlan::empty());
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    // Exactly the cap, no newline: the server has read every byte sent,
    // so its close is orderly and the refusal is readable.
    let flood = vec![b'x'; farm::proto::MAX_REQUEST_LINE as usize];
    raw.write_all(&flood).expect("write");
    let mut reply = String::new();
    raw.read_to_string(&mut reply)
        .expect("one line, then the server closes");
    assert_eq!(
        reply,
        "{\"error\": \"request line too long\", \"ok\": false}\n"
    );
    // The refusal is per connection; the service is unharmed.
    client.ping().expect("ping");
    server.stop();
}

#[test]
fn a_line_nested_past_the_parser_limit_is_an_error_not_an_abort() {
    let (_farm, server, mut client) = start_server(1, WorkerKillPlan::empty());
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut replies = BufReader::new(raw.try_clone().expect("clone"));
    // One line just under the cap, all `[`: parsed by unbounded
    // recursion it would overflow the connection thread's stack and
    // abort the whole server.
    let mut deep = vec![b'['; farm::proto::MAX_REQUEST_LINE as usize - 1];
    deep.push(b'\n');
    raw.write_all(&deep).expect("write");
    let mut line = String::new();
    replies.read_line(&mut line).expect("read");
    let reply = Json::parse(line.trim()).expect("a JSON reply");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("nesting deeper than"), "{error}");
    // The same connection, and every other, is still served.
    line.clear();
    raw.write_all(b"{\"op\": \"ping\"}\n").expect("write");
    replies.read_line(&mut line).expect("read");
    assert_eq!(line, "{\"ok\": true, \"pong\": true}\n");
    client.ping().expect("ping");
    server.stop();
}

#[test]
fn only_a_shutdown_request_ends_the_connection_of_a_draining_farm() {
    let (farm, server, mut client) = start_server(1, WorkerKillPlan::empty());
    client
        .ping()
        .expect("the connection is accepted before the drain");
    farm.shutdown();
    // A tenant may be called anything; the op decides, not the text.
    let e = client
        .submit_line(r#"{"op": "submit", "tenant": "shutdown", "schedule": [[5, 2]]}"#)
        .unwrap_err();
    assert!(e.contains("shut down"), "{e}");
    client.ping().expect("the connection is still served");
    client.shutdown().expect("shutdown");
    assert!(
        client.ping().is_err(),
        "the shutdown op closes its connection"
    );
    server.stop();
}
