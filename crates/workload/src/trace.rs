//! External trace replay: CSV arrival–shape–duration records.
//!
//! The record format is one job per line, alibaba-trace style:
//!
//! ```text
//! at_us,class,nodes,cores,gpus,affinity,runtime_us,outcome
//! 0,continuum,2,24,0,cores,86400000000,ok
//! 600000,cg-sim,1,3,1,gpu,3600000000,ok
//! ```
//!
//! `class` ∈ the [`JobClass`] labels, `affinity` ∈ `none|gpu|cores`,
//! `outcome` ∈ `ok|fail`. Arrivals must be non-decreasing. Malformed
//! lines are typed [`TraceError`]s with pinned messages — a workload is
//! an input boundary, and silent coercion there is how a benchmark lies.

use resources::{Affinity, JobShape};
use sched::{JobClass, JobOutcome, JobSpec};
use simcore::{SimDuration, SimTime};

use crate::{WorkloadJob, WorkloadSource};

/// The CSV header line (written by [`TraceFile::to_csv`], skipped on
/// parse).
const CSV_HEADER: &str = "at_us,class,nodes,cores,gpus,affinity,runtime_us,outcome";

/// A typed trace-parse failure. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Wrong number of CSV fields.
    Arity {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse.
    Field {
        /// 1-based line number.
        line: usize,
        /// Which field.
        field: &'static str,
        /// The offending text.
        value: String,
    },
    /// Arrival times went backwards.
    Order {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Arity { line, got } => {
                write!(f, "trace line {line}: expected 8 fields, got {got}")
            }
            TraceError::Field { line, field, value } => {
                write!(f, "trace line {line}: bad {field} '{value}'")
            }
            TraceError::Order { line } => {
                write!(f, "trace line {line}: arrivals must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace: job arrivals in non-decreasing time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFile {
    jobs: Vec<WorkloadJob>,
}

impl TraceFile {
    /// The parsed arrivals.
    pub fn jobs(&self) -> &[WorkloadJob] {
        &self.jobs
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Builds a trace from the submissions a recording engine logged
    /// (`SchedEngine::take_log`). This is the record half of the §4.4
    /// record → replay loop: run a campaign with recording on, convert
    /// its log, and the replayed trace drives a fresh engine to identical
    /// placements.
    pub fn from_submissions(log: &[(SimTime, JobSpec)]) -> TraceFile {
        let jobs = log
            .iter()
            .map(|(at, spec)| WorkloadJob {
                at: *at,
                spec: spec.clone(),
            })
            .collect();
        TraceFile { jobs }
    }

    /// Parses the CSV form. Empty lines, `#` comments, and the header
    /// line are skipped.
    pub fn parse(text: &str) -> Result<TraceFile, TraceError> {
        let mut jobs: Vec<WorkloadJob> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let l = raw.trim();
            if l.is_empty() || l.starts_with('#') || l == CSV_HEADER {
                continue;
            }
            let job = parse_line(line, l)?;
            if jobs.last().is_some_and(|prev| prev.at > job.at) {
                return Err(TraceError::Order { line });
            }
            jobs.push(job);
        }
        Ok(TraceFile { jobs })
    }

    /// Serializes to the CSV form (header + one line per job).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for job in &self.jobs {
            let aff = match job.spec.shape.affinity {
                Affinity::None => "none",
                Affinity::PackNearGpu => "gpu",
                Affinity::PackCores => "cores",
            };
            let outcome = match job.spec.outcome {
                JobOutcome::Success => "ok",
                JobOutcome::Failure => "fail",
            };
            out.push_str(&format!(
                "{},{},{},{},{},{aff},{},{outcome}\n",
                job.at.as_micros(),
                job.spec.class.label(),
                job.spec.shape.nodes,
                job.spec.shape.cores_per_node,
                job.spec.shape.gpus_per_node,
                job.spec.runtime.as_micros(),
            ));
        }
        out
    }

    /// Consumes the trace into a replaying [`WorkloadSource`].
    pub fn into_replayer(self) -> TraceReplayer {
        TraceReplayer {
            jobs: self.jobs.into_iter(),
            peeked: None,
        }
    }
}

/// Parses one CSV record (line number `line`, for error messages).
fn parse_line(line: usize, l: &str) -> Result<WorkloadJob, TraceError> {
    let fields: Vec<&str> = l.split(',').collect();
    let &[at, class, nodes, cores, gpus, affinity, runtime, outcome] = fields.as_slice() else {
        return Err(TraceError::Arity {
            line,
            got: fields.len(),
        });
    };
    let bad = |field: &'static str, value: &str| TraceError::Field {
        line,
        field,
        value: value.to_string(),
    };
    let at_us: u64 = at.parse().map_err(|_| bad("at_us", at))?;
    let class = JobClass::from_label(class).ok_or_else(|| bad("class", class))?;
    let shape = JobShape {
        // A zero-node request holds nothing and would "place" on any
        // machine, however full: not a job a trace can describe.
        nodes: nodes
            .parse()
            .ok()
            .filter(|&n: &u32| n > 0)
            .ok_or_else(|| bad("nodes", nodes))?,
        cores_per_node: cores.parse().map_err(|_| bad("cores", cores))?,
        gpus_per_node: gpus.parse().map_err(|_| bad("gpus", gpus))?,
        affinity: match affinity {
            "none" => Affinity::None,
            "gpu" => Affinity::PackNearGpu,
            "cores" => Affinity::PackCores,
            other => return Err(bad("affinity", other)),
        },
    };
    let runtime_us: u64 = runtime.parse().map_err(|_| bad("runtime_us", runtime))?;
    let mut spec = JobSpec::new(class, shape, SimDuration::from_micros(runtime_us));
    match outcome {
        "ok" => {}
        "fail" => spec = spec.failing(),
        other => return Err(bad("outcome", other)),
    }
    Ok(WorkloadJob {
        at: SimTime::from_micros(at_us),
        spec,
    })
}

/// Replays a [`TraceFile`] as a [`WorkloadSource`].
#[derive(Debug)]
pub struct TraceReplayer {
    jobs: std::vec::IntoIter<WorkloadJob>,
    peeked: Option<WorkloadJob>,
}

impl TraceReplayer {
    fn peek(&mut self) -> Option<&WorkloadJob> {
        if self.peeked.is_none() {
            self.peeked = self.jobs.next();
        }
        self.peeked.as_ref()
    }
}

impl WorkloadSource for TraceReplayer {
    fn next_at(&self) -> Option<SimTime> {
        // `peeked` is filled by pop_due's peek; before the first pop the
        // iterator itself holds the head.
        self.peeked
            .as_ref()
            .map(|j| j.at)
            .or_else(|| self.jobs.as_slice().first().map(|j| j.at))
    }

    fn pop_due(&mut self, now: SimTime) -> Option<WorkloadJob> {
        if self.peek().is_some_and(|j| j.at <= now) {
            self.peeked.take()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_CSV: &str = "\
at_us,class,nodes,cores,gpus,affinity,runtime_us,outcome
0,continuum,2,24,0,cores,86400000000,ok
600000,cg-sim,1,3,1,gpu,3600000000,ok
# a comment
1200000,cg-setup,1,24,0,cores,300000000,fail
";

    #[test]
    fn csv_parses_and_roundtrips() {
        let t = TraceFile::parse(SAMPLE_CSV).expect("parses");
        assert_eq!(t.len(), 3);
        assert_eq!(t.jobs()[0].spec.class, JobClass::Continuum);
        assert_eq!(t.jobs()[1].at, SimTime::from_micros(600_000));
        assert_eq!(t.jobs()[2].spec.outcome, JobOutcome::Failure);
        let csv = t.to_csv();
        let again = TraceFile::parse(&csv).expect("reparses");
        assert_eq!(again, t);
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_pinned_messages() {
        let cases: &[(&str, &str)] = &[
            (
                "0,cg-sim,1,3,1,gpu,100",
                "trace line 1: expected 8 fields, got 7",
            ),
            (
                "0,warp-drive,1,3,1,gpu,100,ok",
                "trace line 1: bad class 'warp-drive'",
            ),
            (
                "0,cg-sim,1,3,1,sideways,100,ok",
                "trace line 1: bad affinity 'sideways'",
            ),
            (
                "0,cg-sim,1,3,1,gpu,100,maybe",
                "trace line 1: bad outcome 'maybe'",
            ),
            (
                "zero,cg-sim,1,3,1,gpu,100,ok",
                "trace line 1: bad at_us 'zero'",
            ),
            (
                "5,cg-sim,1,3,1,gpu,100,ok\n1,cg-sim,1,3,1,gpu,100,ok",
                "trace line 2: arrivals must be non-decreasing",
            ),
        ];
        for (text, msg) in cases {
            let err = TraceFile::parse(text).expect_err("must fail");
            assert_eq!(err.to_string(), *msg, "for input {text:?}");
        }
    }

    #[test]
    fn zero_node_records_are_rejected() {
        let err = TraceFile::parse("0,cg-sim,0,3,1,gpu,100,ok").expect_err("must fail");
        assert_eq!(
            err,
            TraceError::Field {
                line: 1,
                field: "nodes",
                value: "0".into()
            }
        );
        assert_eq!(err.to_string(), "trace line 1: bad nodes '0'");
    }

    #[test]
    fn replayer_is_cadence_invariant() {
        let t = TraceFile::parse(SAMPLE_CSV).expect("parses");
        let bulk = t.clone().into_replayer().drain_all();
        assert_eq!(bulk.len(), 3);
        let mut stepped = t.into_replayer();
        let mut out = Vec::new();
        for us in [0u64, 100, 600_000, 600_001, 2_000_000] {
            while let Some(j) = stepped.pop_due(SimTime::from_micros(us)) {
                out.push(j);
            }
        }
        assert_eq!(out, bulk);
        assert_eq!(stepped.next_at(), None);
    }
}
