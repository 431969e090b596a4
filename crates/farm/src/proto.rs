//! The farm wire protocol: JSON objects, one per line, over TCP.
//!
//! Requests are objects with an `"op"` discriminator; responses always
//! carry `"ok"`. Parsing is *strict*: an unknown op, an unknown field in
//! a submission, or an unknown config-override key is a wire error, not
//! a silent default — a tenant typo ("readybuffer_cap") must bounce at
//! submission, not run a campaign with a config the tenant did not ask
//! for. Config overrides go through [`CampaignConfig::validate`] before
//! admission, so the farm rejects invalid configs at the wire instead of
//! panicking a worker.
//!
//! Framing: every line either side sends goes through [`write_lines`] —
//! one buffer, one `write`, on a socket with `TCP_NODELAY` set. A line
//! split over two writes on a Nagle socket parks its tail behind the
//! peer's delayed ACK (~44 ms each way on Linux loopback).

use std::collections::BTreeMap;
use std::io::Write;

use campaign::{CampaignConfig, StoreBackend};
use resources::MatchPolicy;
use sched::{Coupling, SchedPolicy};
use trace::Json;
use workload::WorkloadSpec;

/// A parsed campaign submission.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Tenant identity used by fair-share admission.
    pub tenant: String,
    /// Campaign configuration (defaults plus wire overrides), validated.
    pub cfg: CampaignConfig,
    /// Allocation legs to run, in order: `(nodes, hours)`.
    pub schedule: Vec<(u32, u64)>,
    /// Record a JSONL trace (retrievable with the `trace` op).
    pub trace: bool,
    /// Schedule a cooperative pause this many virtual hours into the
    /// first leg (rounded up to the whole hour by the pause-point rule).
    pub pause_at_hours: Option<u64>,
}

/// A request decoded from one wire line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a campaign (boxed: the config dwarfs every other variant).
    Submit(Box<SubmitSpec>),
    /// One campaign's status.
    Status(u64),
    /// All campaigns' statuses.
    List,
    /// Request a cooperative pause (lands on the next whole hour).
    Pause(u64),
    /// Resume a paused campaign, optionally rewriting the width of the
    /// remaining legs.
    Resume(u64, Option<u32>),
    /// Rewrite the width of the remaining legs mid-flight (pauses the
    /// running leg at the next hour and auto-requeues at the new width).
    Rescale(u64, u32),
    /// Events from sequence number `from` (non-blocking snapshot).
    Events(u64, u64),
    /// Stream events from `from` until the campaign is terminal
    /// (blocking; the server writes one line per event batch).
    Stream(u64, u64),
    /// The completed campaign's JSONL trace.
    Trace(u64),
    /// Farm-wide counters.
    Stats,
    /// Stop accepting work, drain workers, stop the server.
    Shutdown,
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn opt_u64_field(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(|f| Some(f as u64))
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

/// Applies one config override. Numbers arrive as f64 (the JSON number
/// type); integral fields truncate. Unknown keys are errors.
fn apply_override(cfg: &mut CampaignConfig, key: &str, v: &Json) -> Result<(), String> {
    let num = || {
        v.as_f64()
            .ok_or_else(|| format!("config.{key} must be a number"))
    };
    let string = || {
        v.as_str()
            .ok_or_else(|| format!("config.{key} must be a string"))
    };
    match key {
        "seed" => cfg.seed = num()? as u64,
        "cg_fraction" => cfg.cg_fraction = num()?,
        "patches_per_snapshot" => cfg.patches_per_snapshot = num()? as usize,
        "frames_per_sim_per_min" => cfg.frames_per_sim_per_min = num()?,
        "cg_target_us" => cfg.cg_target_us = num()?,
        "aa_target_ns" => {
            let arr = v
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("config.{key} must be a [lo, hi] pair"))?;
            let lo = arr[0].as_f64().ok_or("aa_target_ns.0 must be a number")?;
            let hi = arr[1].as_f64().ok_or("aa_target_ns.1 must be a number")?;
            cfg.aa_target_ns = (lo, hi);
        }
        "submit_rate_per_min" => cfg.submit_rate_per_min = num()? as u64,
        "queue_cap" => cfg.queue_cap = num()? as usize,
        "job_failure_prob" => cfg.job_failure_prob = num()?,
        "node_failures_per_day" => cfg.node_failures_per_day = num()?,
        "planned_hours" => cfg.planned_hours = num()?,
        "job_timeout_grace" => cfg.job_timeout_grace = num()?,
        "ready_buffer_divisor" => cfg.ready_buffer_divisor = num()? as u64,
        "ready_buffer_cap" => cfg.ready_buffer_cap = num()? as usize,
        "policy" => {
            cfg.policy = match string()? {
                "first_match" => MatchPolicy::FirstMatch,
                "low_id_exhaustive" => MatchPolicy::LowIdExhaustive,
                other => return Err(format!("unknown policy {other:?}")),
            }
        }
        "coupling" => {
            cfg.coupling = match string()? {
                "async" => Coupling::Asynchronous,
                "sync" => Coupling::Synchronous,
                other => return Err(format!("unknown coupling {other:?}")),
            }
        }
        "store" => {
            cfg.store_backend = StoreBackend::parse(string()?)
                .ok_or_else(|| format!("unknown store backend {:?}", string().unwrap()))?
        }
        "sched_policy" => {
            cfg.sched_policy = SchedPolicy::parse(string()?)
                .ok_or_else(|| format!("unknown sched_policy {:?}", string().unwrap()))?
        }
        "workload" => {
            cfg.workload = Some(
                WorkloadSpec::parse(string()?)
                    .ok_or_else(|| format!("unknown workload {:?}", string().unwrap()))?,
            )
        }
        other => return Err(format!("unknown config key {other:?}")),
    }
    Ok(())
}

fn parse_submit(obj: &Json) -> Result<SubmitSpec, String> {
    let Json::Obj(fields) = obj else {
        return Err("request must be a JSON object".into());
    };
    for key in fields.keys() {
        if !matches!(
            key.as_str(),
            "op" | "tenant" | "schedule" | "trace" | "pause_at_hours" | "config"
        ) {
            return Err(format!("unknown submit field {key:?}"));
        }
    }
    let tenant = obj
        .get("tenant")
        .and_then(Json::as_str)
        .ok_or("submit needs a string \"tenant\"")?
        .to_string();
    let rows = obj
        .get("schedule")
        .and_then(Json::as_arr)
        .ok_or("submit needs a \"schedule\" array of [nodes, hours] rows")?;
    let mut schedule = Vec::with_capacity(rows.len());
    for row in rows {
        let pair = row
            .as_arr()
            .filter(|r| r.len() == 2)
            .ok_or("each schedule row must be a [nodes, hours] pair")?;
        let nodes = pair[0].as_f64().ok_or("schedule nodes must be a number")? as u32;
        let hours = pair[1].as_f64().ok_or("schedule hours must be a number")? as u64;
        if nodes == 0 || hours == 0 {
            return Err("schedule rows need nodes >= 1 and hours >= 1".into());
        }
        schedule.push((nodes, hours));
    }
    if schedule.is_empty() {
        return Err("schedule must contain at least one leg".into());
    }
    let trace = match obj.get("trace") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("field \"trace\" must be a boolean".into()),
    };
    let pause_at_hours = opt_u64_field(obj, "pause_at_hours")?;
    let mut cfg = CampaignConfig::default();
    if let Some(overrides) = obj.get("config") {
        let Json::Obj(map) = overrides else {
            return Err("field \"config\" must be an object".into());
        };
        for (key, v) in map {
            apply_override(&mut cfg, key, v)?;
        }
    }
    cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
    Ok(SubmitSpec {
        tenant,
        cfg,
        schedule,
        trace,
        pause_at_hours,
    })
}

impl Request {
    /// Decodes one wire line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "submit" => parse_submit(&v).map(|s| Request::Submit(Box::new(s))),
            "status" => Ok(Request::Status(u64_field(&v, "id")?)),
            "list" => Ok(Request::List),
            "pause" => Ok(Request::Pause(u64_field(&v, "id")?)),
            "resume" => Ok(Request::Resume(
                u64_field(&v, "id")?,
                opt_u64_field(&v, "nodes")?.map(|n| n as u32),
            )),
            "rescale" => Ok(Request::Rescale(
                u64_field(&v, "id")?,
                u64_field(&v, "nodes")? as u32,
            )),
            "events" => Ok(Request::Events(
                u64_field(&v, "id")?,
                opt_u64_field(&v, "from")?.unwrap_or(0),
            )),
            "stream" => Ok(Request::Stream(
                u64_field(&v, "id")?,
                opt_u64_field(&v, "from")?.unwrap_or(0),
            )),
            "trace" => Ok(Request::Trace(u64_field(&v, "id")?)),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Longest request line the server reads before refusing the connection.
pub const MAX_REQUEST_LINE: u64 = 1 << 20;

/// Sends `lines`, each terminated by `\n`, in a single write.
pub fn write_lines(w: &mut impl Write, lines: &[impl AsRef<str>]) -> std::io::Result<()> {
    let mut buf = String::with_capacity(lines.iter().map(|l| l.as_ref().len() + 1).sum());
    for line in lines {
        buf.push_str(line.as_ref());
        buf.push('\n');
    }
    w.write_all(buf.as_bytes())
}

/// Builds an `{"ok": true, ...}` response line from field pairs.
pub fn ok_response(fields: &[(&str, Json)]) -> String {
    let mut map = BTreeMap::new();
    map.insert("ok".to_string(), Json::Bool(true));
    for (k, v) in fields {
        map.insert((*k).to_string(), v.clone());
    }
    Json::Obj(map).to_json()
}

/// Builds an `{"ok": false, "error": ...}` response line.
pub fn err_response(error: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("ok".to_string(), Json::Bool(false));
    map.insert("error".to_string(), Json::Str(error.to_string()));
    Json::Obj(map).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_schedule_and_overrides() {
        let line = r#"{"op": "submit", "tenant": "alice", "trace": true,
                       "schedule": [[20, 6], [32, 4]], "pause_at_hours": 3,
                       "config": {"seed": 7, "policy": "first_match",
                                  "coupling": "async", "aa_target_ns": [5, 8],
                                  "store": "loopback"}}"#;
        let Request::Submit(spec) = Request::decode(&line.replace('\n', " ")).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.schedule, vec![(20, 6), (32, 4)]);
        assert!(spec.trace);
        assert_eq!(spec.pause_at_hours, Some(3));
        assert_eq!(spec.cfg.seed, 7);
        assert_eq!(spec.cfg.policy, MatchPolicy::FirstMatch);
        assert_eq!(spec.cfg.coupling, Coupling::Asynchronous);
        assert_eq!(spec.cfg.aa_target_ns, (5.0, 8.0));
        assert_eq!(spec.cfg.store_backend, StoreBackend::Loopback);
    }

    #[test]
    fn sched_policy_and_workload_overrides_round_trip() {
        let line = r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]],
                       "config": {"sched_policy": "fair-share", "workload": "bursty"}}"#;
        let Request::Submit(spec) = Request::decode(&line.replace('\n', " ")).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(spec.cfg.sched_policy, SchedPolicy::FairShare);
        assert_eq!(spec.cfg.workload, Some(WorkloadSpec::Bursty));

        let line = r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]],
                       "config": {"workload": "trace:runs/day1.csv"}}"#;
        let Request::Submit(spec) = Request::decode(&line.replace('\n', " ")).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(
            spec.cfg.workload,
            Some(WorkloadSpec::Trace("runs/day1.csv".into()))
        );
    }

    #[test]
    fn unknown_sched_policy_and_workload_bounce() {
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"sched_policy": "sjf"}}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown sched_policy \"sjf\""), "{e}");
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"workload": "tsunami"}}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown workload \"tsunami\""), "{e}");
    }

    #[test]
    fn unknown_store_backend_bounces() {
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"store": "memcached"}}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown store backend"), "{e}");
    }

    #[test]
    fn unknown_fields_and_keys_bounce() {
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "scheddule": 1}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown submit field"), "{e}");
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"readybuffer_cap": 9}}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown config key"), "{e}");
        let e = Request::decode(r#"{"op": "tickle"}"#).unwrap_err();
        assert!(e.contains("unknown op"), "{e}");
    }

    #[test]
    fn invalid_configs_are_rejected_at_decode_time() {
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"ready_buffer_divisor": 0}}"#,
        )
        .unwrap_err();
        assert!(e.contains("ready_buffer_divisor"), "{e}");
        let e = Request::decode(
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 2]], "config": {"ready_buffer_cap": 7}}"#,
        )
        .unwrap_err();
        assert!(e.contains("ready_buffer_cap"), "{e}");
    }

    #[test]
    fn degenerate_schedules_bounce() {
        for bad in [
            r#"{"op": "submit", "tenant": "a", "schedule": []}"#,
            r#"{"op": "submit", "tenant": "a", "schedule": [[0, 2]]}"#,
            r#"{"op": "submit", "tenant": "a", "schedule": [[5, 0]]}"#,
            r#"{"op": "submit", "tenant": "a", "schedule": [[5]]}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn write_lines_frames_a_batch_into_one_write() {
        /// Counts `write` calls; accepts everything offered.
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(Vec::new(), 0);
        write_lines(&mut w, &["{\"a\": 1}", "{\"b\": 2}"]).unwrap();
        assert_eq!(w.0, b"{\"a\": 1}\n{\"b\": 2}\n");
        assert_eq!(w.1, 1, "a batch of lines is one write");
    }

    #[test]
    fn response_builders_emit_stable_json() {
        assert_eq!(
            ok_response(&[("id", Json::Num(3.0))]),
            r#"{"id": 3, "ok": true}"#
        );
        assert_eq!(err_response("nope"), r#"{"error": "nope", "ok": false}"#);
    }
}
