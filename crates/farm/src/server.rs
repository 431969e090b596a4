//! JSON-lines-over-TCP front end for a [`Farm`].
//!
//! One request object per line, one response object per line — except
//! the `stream` op, which writes an `{"event": ...}` line per farm event
//! as they happen and finishes with `{"done": true, "ok": true}` once
//! the campaign is terminal. Connections are handled thread-per-client
//! (the workspace is std-only by design; the farm's concurrency budget
//! is the worker pool, not the listener). Every line leaves through
//! [`write_lines`] on a `TCP_NODELAY` socket, the events of one wakeup
//! batched into one write; a request line longer than
//! [`MAX_REQUEST_LINE`] is refused and the connection closed.
//!
//! Shutdown: the wire `shutdown` op (or [`FarmServer::stop`]) drains the
//! farm, then pokes the listener with a throwaway connection so the
//! accept loop observes the flag and exits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use sched::{ClassWait, JobClass};
use trace::Json;

use crate::core::{CampaignStatus, FarmEvent, FarmStats};
use crate::farm::Farm;
use crate::proto::{err_response, ok_response, write_lines, Request, MAX_REQUEST_LINE};

/// A listening farm front end.
pub struct FarmServer {
    farm: Farm,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Wire form of a campaign status.
fn status_json(s: &CampaignStatus) -> Json {
    let mut map = BTreeMap::new();
    map.insert("id".into(), Json::Num(s.id as f64));
    map.insert("tenant".into(), Json::Str(s.tenant.clone()));
    map.insert("state".into(), Json::Str(s.state.name().into()));
    map.insert("legs_total".into(), Json::Num(s.legs_total as f64));
    map.insert("legs_done".into(), Json::Num(s.legs_done as f64));
    map.insert(
        "remaining".into(),
        Json::Arr(
            s.remaining
                .iter()
                .map(|(n, h)| Json::Arr(vec![Json::Num(*n as f64), Json::Num(*h as f64)]))
                .collect(),
        ),
    );
    map.insert("placed".into(), Json::Num(s.placed as f64));
    map.insert("sims_completed".into(), Json::Num(s.sims_completed as f64));
    map.insert("node_hours".into(), Json::Num(s.node_hours as f64));
    map.insert("recoveries".into(), Json::Num(s.recoveries as f64));
    map.insert("ledger_ok".into(), Json::Bool(s.ledger_ok));
    map.insert("traced".into(), Json::Bool(s.traced));
    map.insert("events".into(), Json::Num(s.events as f64));
    map.insert("class_waits".into(), class_waits(&s.class_waits));
    Json::Obj(map)
}

/// Wire form of per-class queue-wait aggregates, keyed by class label.
fn class_waits(waits: &[(JobClass, ClassWait)]) -> Json {
    let mut out = BTreeMap::new();
    for (class, w) in waits {
        let mut row = BTreeMap::new();
        row.insert("count".into(), Json::Num(w.count as f64));
        row.insert("mean_wait_us".into(), Json::Num(w.mean_us() as f64));
        row.insert("max_wait_us".into(), Json::Num(w.max_us as f64));
        out.insert(class.label().to_string(), Json::Obj(row));
    }
    Json::Obj(out)
}

fn stats_json(s: &FarmStats) -> Json {
    let mut map = BTreeMap::new();
    map.insert("submitted".into(), Json::Num(s.submitted as f64));
    map.insert("completed".into(), Json::Num(s.completed as f64));
    map.insert("legs_completed".into(), Json::Num(s.legs_completed as f64));
    map.insert("kills_fired".into(), Json::Num(s.kills_fired as f64));
    map.insert("kills_mid_leg".into(), Json::Num(s.kills_mid_leg as f64));
    map.insert("kills_idle".into(), Json::Num(s.kills_idle as f64));
    map.insert("recoveries".into(), Json::Num(s.recoveries as f64));
    map.insert(
        "workers_spawned".into(),
        Json::Num(s.workers_spawned as f64),
    );
    map.insert("workers_alive".into(), Json::Num(s.workers_alive as f64));
    map.insert("class_waits".into(), class_waits(&s.class_waits));
    Json::Obj(map)
}

impl FarmServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `farm`.
    pub fn start(farm: Farm, addr: &str) -> std::io::Result<FarmServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let accept_farm = farm.clone();
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_farm.is_shutdown() {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let conn_farm = accept_farm.clone();
                let local = local;
                thread::spawn(move || {
                    let _ = handle_connection(conn_farm, stream, local);
                });
            }
        });
        Ok(FarmServer {
            farm,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the farm down and stops the accept loop.
    pub fn stop(mut self) {
        self.farm.shutdown();
        poke(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Wakes a blocked `accept` so it can observe the shutdown flag.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn handle_connection(farm: Farm, stream: TcpStream, local: SocketAddr) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = (&mut reader).take(MAX_REQUEST_LINE).read_line(&mut line)?;
        if n == 0 {
            return Ok(()); // client hung up
        }
        if n as u64 == MAX_REQUEST_LINE && !line.ends_with('\n') {
            return write_lines(&mut writer, &[err_response("request line too long")]);
        }
        if line.trim().is_empty() {
            continue;
        }
        let req = Request::decode(line.trim());
        let shutdown = matches!(req, Ok(Request::Shutdown));
        let response = match req {
            Err(e) => err_response(&e),
            Ok(Request::Stream(id, from)) => {
                stream_events(&farm, &mut writer, id, from)?;
                continue;
            }
            Ok(req) => respond(&farm, req),
        };
        write_lines(&mut writer, &[response])?;
        if shutdown {
            poke(local);
            return Ok(());
        }
    }
}

fn stream_events(
    farm: &Farm,
    writer: &mut TcpStream,
    id: u64,
    mut from: u64,
) -> std::io::Result<()> {
    loop {
        let (events, terminal) = match farm.wait_events(id, from) {
            Ok(batch) => batch,
            Err(e) => return write_lines(writer, &[err_response(&e)]),
        };
        from += events.len() as u64;
        let mut lines: Vec<String> = events
            .iter()
            .map(|ev| format!("{{\"event\": {}}}", ev.to_json()))
            .collect();
        // The closing line, if this wakeup ends the stream, rides in the
        // same write as the events that preceded it.
        let closing = if terminal {
            Some(ok_response(&[("done", Json::Bool(true))]))
        } else if farm.is_shutdown() {
            Some(err_response("farm is shut down"))
        } else {
            None
        };
        let finished = closing.is_some();
        lines.extend(closing);
        write_lines(writer, &lines)?;
        if finished {
            return Ok(());
        }
    }
}

fn respond(farm: &Farm, req: Request) -> String {
    match req {
        Request::Ping => ok_response(&[("pong", Json::Bool(true))]),
        Request::Submit(spec) => match farm.submit(*spec) {
            Ok(id) => ok_response(&[("id", Json::Num(id as f64))]),
            Err(e) => err_response(&e),
        },
        Request::Status(id) => match farm.status(id) {
            Some(s) => ok_response(&[("status", status_json(&s))]),
            None => err_response("no such campaign"),
        },
        Request::List => ok_response(&[(
            "campaigns",
            Json::Arr(farm.list().iter().map(status_json).collect()),
        )]),
        Request::Pause(id) => simple(farm.pause(id)),
        Request::Resume(id, nodes) => simple(farm.resume(id, nodes)),
        Request::Rescale(id, nodes) => simple(farm.rescale(id, nodes)),
        Request::Events(id, from) => match farm.events_since(id, from) {
            Some((events, terminal)) => {
                let events = events.iter().map(FarmEvent::to_value).collect();
                ok_response(&[
                    ("events", Json::Arr(events)),
                    ("done", Json::Bool(terminal)),
                ])
            }
            None => err_response("no such campaign"),
        },
        Request::Stream(..) => unreachable!("stream handled by the connection loop"),
        Request::Trace(id) => match farm.trace_jsonl(id) {
            Ok(jsonl) => ok_response(&[("jsonl", Json::Str(jsonl))]),
            Err(e) => err_response(&e),
        },
        Request::Stats => ok_response(&[("stats", stats_json(&farm.stats()))]),
        Request::Shutdown => {
            farm.shutdown();
            ok_response(&[("shutdown", Json::Bool(true))])
        }
    }
}

fn simple(r: Result<(), String>) -> String {
    match r {
        Ok(()) => ok_response(&[]),
        Err(e) => err_response(&e),
    }
}
