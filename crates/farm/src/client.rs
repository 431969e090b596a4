//! A small blocking client for the farm wire protocol, used by the
//! integration tests and `benchmark/`.
//!
//! One [`FarmClient`] holds one request/response connection. Event
//! streaming ([`FarmClient::stream_until`]) opens a dedicated connection
//! per stream, because a streaming server thread writes until the
//! campaign is terminal and cannot serve other ops meanwhile. Every
//! connection sets `TCP_NODELAY` and sends each request as one write
//! ([`write_lines`]), the same framing rule the server follows.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};

use trace::Json;

use crate::proto::write_lines;

/// Blocking wire client.
pub struct FarmClient {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn open(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

/// Reads one response line and unwraps the `ok` envelope.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read failed: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection".to_string());
    }
    let v = Json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))?;
    match v.get("ok") {
        Some(Json::Bool(true)) => Ok(v),
        _ => Err(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response")
            .to_string()),
    }
}

impl FarmClient {
    /// Connects to a running [`crate::FarmServer`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<FarmClient> {
        let (reader, writer) = open(addr)?;
        Ok(FarmClient {
            addr,
            reader,
            writer,
        })
    }

    /// Sends one raw request line and returns the decoded response.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        write_lines(&mut self.writer, &[line]).map_err(|e| format!("write failed: {e}"))?;
        read_response(&mut self.reader)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        self.call(r#"{"op": "ping"}"#).map(|_| ())
    }

    /// Submits a raw submission line (must be a complete `submit`
    /// request object) and returns the assigned campaign id.
    pub fn submit_line(&mut self, line: &str) -> Result<u64, String> {
        let v = self.call(line)?;
        v.get("id")
            .and_then(Json::as_f64)
            .map(|f| f as u64)
            .ok_or("response missing id".to_string())
    }

    /// One campaign's status object.
    pub fn status(&mut self, id: u64) -> Result<Json, String> {
        let v = self.call(&format!(r#"{{"op": "status", "id": {id}}}"#))?;
        v.get("status")
            .cloned()
            .ok_or("response missing status".to_string())
    }

    /// All campaigns' status objects.
    pub fn list(&mut self) -> Result<Vec<Json>, String> {
        let v = self.call(r#"{"op": "list"}"#)?;
        Ok(v.get("campaigns")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec())
    }

    /// Requests a cooperative pause.
    pub fn pause(&mut self, id: u64) -> Result<(), String> {
        self.call(&format!(r#"{{"op": "pause", "id": {id}}}"#))
            .map(|_| ())
    }

    /// Resumes a paused campaign, optionally at a new width.
    pub fn resume(&mut self, id: u64, nodes: Option<u32>) -> Result<(), String> {
        let line = match nodes {
            Some(n) => format!(r#"{{"op": "resume", "id": {id}, "nodes": {n}}}"#),
            None => format!(r#"{{"op": "resume", "id": {id}}}"#),
        };
        self.call(&line).map(|_| ())
    }

    /// Rewrites the remaining legs' width mid-flight.
    pub fn rescale(&mut self, id: u64, nodes: u32) -> Result<(), String> {
        self.call(&format!(
            r#"{{"op": "rescale", "id": {id}, "nodes": {nodes}}}"#
        ))
        .map(|_| ())
    }

    /// The completed campaign's JSONL trace.
    pub fn trace(&mut self, id: u64) -> Result<String, String> {
        let v = self.call(&format!(r#"{{"op": "trace", "id": {id}}}"#))?;
        v.get("jsonl")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("response missing jsonl".to_string())
    }

    /// Farm-wide counters.
    pub fn stats(&mut self) -> Result<Json, String> {
        let v = self.call(r#"{"op": "stats"}"#)?;
        v.get("stats")
            .cloned()
            .ok_or("response missing stats".to_string())
    }

    /// Drains and stops the farm (and, as a side effect, the server).
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call(r#"{"op": "shutdown"}"#).map(|_| ())
    }

    /// Opens a dedicated stream connection for campaign `id` starting at
    /// event `from`, collecting events until `stop` returns true for one
    /// or the campaign is terminal. Returns the collected events and
    /// whether the terminal `done` marker was reached.
    pub fn stream_until(
        &self,
        id: u64,
        from: u64,
        mut stop: impl FnMut(&Json) -> bool,
    ) -> Result<(Vec<Json>, bool), String> {
        let (mut reader, mut writer) =
            open(self.addr).map_err(|e| format!("stream connect failed: {e}"))?;
        let request = format!(r#"{{"op": "stream", "id": {id}, "from": {from}}}"#);
        write_lines(&mut writer, &[request]).map_err(|e| format!("stream write failed: {e}"))?;
        let mut events = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("stream read failed: {e}"))?;
            if n == 0 {
                return Err("stream closed early".to_string());
            }
            let v = Json::parse(line.trim()).map_err(|e| format!("bad stream JSON: {e}"))?;
            if let Some(ev) = v.get("event") {
                let hit = stop(ev);
                events.push(ev.clone());
                if hit {
                    return Ok((events, false));
                }
                continue;
            }
            return match v.get("ok") {
                Some(Json::Bool(true)) => Ok((events, true)),
                _ => Err(v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed stream line")
                    .to_string()),
            };
        }
    }

    /// Blocks until the campaign completes, returning its full event log.
    pub fn wait_done(&self, id: u64) -> Result<Vec<Json>, String> {
        let (events, done) = self.stream_until(id, 0, |_| false)?;
        if !done {
            return Err("stream ended before completion".to_string());
        }
        Ok(events)
    }

    /// Blocks until an event of `kind` is logged (from the start of the
    /// log). Errors if the campaign completes without one.
    pub fn wait_event(&self, id: u64, kind: &str) -> Result<Json, String> {
        let (events, done) = self.stream_until(id, 0, |e| {
            e.get("kind").and_then(Json::as_str) == Some(kind)
        })?;
        if done {
            return Err(format!("campaign completed without a {kind:?} event"));
        }
        events.last().cloned().ok_or("empty stream".to_string())
    }
}
