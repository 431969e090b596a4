//! The job-log CSV is the one file form of a scheduler submission record:
//! `TraceFile::from_submissions(..).to_csv()` writes it and
//! `TraceFile::parse` reads it back. Every job class, affinity, outcome
//! and shape must round-trip exactly, and a record with one field replaced
//! by garbage must come back as a typed error naming its line, never a
//! panic and never a silently coerced job.

use proptest::prelude::*;
use resources::{Affinity, JobShape};
use sched::{JobClass, JobOutcome, JobSpec};
use simcore::{SimDuration, SimTime};
use workload::{TraceError, TraceFile};

const CLASSES: [JobClass; 6] = [
    JobClass::Continuum,
    JobClass::CgSetup,
    JobClass::CgSim,
    JobClass::AaSetup,
    JobClass::AaSim,
    JobClass::Other,
];
const AFFINITIES: [Affinity; 3] = [Affinity::None, Affinity::PackNearGpu, Affinity::PackCores];
const FIELDS: [&str; 8] = [
    "at_us",
    "class",
    "nodes",
    "cores",
    "gpus",
    "affinity",
    "runtime_us",
    "outcome",
];

fn arb_job() -> impl Strategy<Value = (u64, JobSpec)> {
    (
        (any::<u64>(), 0..CLASSES.len(), 1..=u32::MAX, any::<u32>()),
        (
            any::<u32>(),
            0..AFFINITIES.len(),
            any::<u64>(),
            any::<bool>(),
        ),
    )
        .prop_map(|((at, class, nodes, cores), (gpus, aff, runtime, fails))| {
            let spec = JobSpec {
                class: CLASSES[class],
                shape: JobShape {
                    nodes,
                    cores_per_node: cores,
                    gpus_per_node: gpus,
                    affinity: AFFINITIES[aff],
                },
                runtime: SimDuration::from_micros(runtime),
                outcome: if fails {
                    JobOutcome::Failure
                } else {
                    JobOutcome::Success
                },
            };
            (at, spec)
        })
}

/// A recorded log's submissions in arrival order, as the job log holds
/// them; at least `min` of them.
fn arb_trace(min: usize) -> impl Strategy<Value = TraceFile> {
    proptest::collection::vec(arb_job(), min..24).prop_map(|mut jobs| {
        jobs.sort_by_key(|(at, _)| *at);
        let log: Vec<_> = jobs
            .into_iter()
            .map(|(at, spec)| (SimTime::from_micros(at), spec))
            .collect();
        TraceFile::from_submissions(&log)
    })
}

/// Text no field accepts: a symbol inside a word, an out-of-range
/// number, a negative number, or nothing. None contains a comma, a space
/// or a leading `#`, so the record keeps its arity and is not a comment.
fn garbage() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9]{0,4}[!?~@][a-z0-9]{0,4}",
        Just("18446744073709551616".to_string()),
        Just("-1".to_string()),
        Just(String::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn csv_round_trips_every_record_kind(trace in arb_trace(0)) {
        let csv = trace.to_csv();
        let back = TraceFile::parse(&csv).expect("written trace parses");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_csv(), csv);
    }

    fn one_garbage_field_names_its_line(
        trace in arb_trace(1),
        pick in any::<usize>(),
        field in 0..FIELDS.len(),
        junk in garbage(),
    ) {
        let csv = trace.to_csv();
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        // Line 1 is the header; records start on line 2.
        let line = 2 + pick % trace.len();
        let mut fields: Vec<&str> = lines[line - 1].split(',').collect();
        fields[field] = &junk;
        lines[line - 1] = fields.join(",");
        let err = TraceFile::parse(&lines.join("\n")).expect_err("garbage is rejected");
        prop_assert_eq!(
            err,
            TraceError::Field { line, field: FIELDS[field], value: junk.clone() }
        );
    }
}
