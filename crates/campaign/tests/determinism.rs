//! Determinism regression: the whole coordination stack is a pure
//! function of (config, seed). Two campaigns driven with the same seed
//! must produce bit-identical event traces — any divergence means an
//! unordered container, an unseeded RNG, or a wall-clock read sneaked
//! back onto a decision path (exactly what `mummi-lint` guards against
//! statically; this test is the dynamic witness).

use campaign::{Campaign, CampaignConfig, RunReport};
use resources::MatchPolicy;
use sched::Coupling;
use simcore::SimDuration;
use trace::Tracer;

/// A compact, fully ordered fingerprint of everything a run observed.
fn trace(c: &mut Campaign, nodes: u32, hours: u64) -> (Vec<String>, RunReport) {
    let r = c.execute_run(nodes, hours);
    let mut lines = Vec::new();
    for p in r.cg_timeline.points() {
        lines.push(format!(
            "cg {} {} {}",
            p.at.as_secs_f64().to_bits(),
            p.running,
            p.pending
        ));
    }
    for p in r.aa_timeline.points() {
        lines.push(format!(
            "aa {} {} {}",
            p.at.as_secs_f64().to_bits(),
            p.running,
            p.pending
        ));
    }
    for v in c.cg_lengths() {
        lines.push(format!("cg-len {}", v.to_bits()));
    }
    for v in c.aa_lengths() {
        lines.push(format!("aa-len {}", v.to_bits()));
    }
    let (a, b, d) = c.data_counts();
    lines.push(format!("data {a} {b} {d}"));
    (lines, r)
}

#[test]
fn same_seed_campaigns_produce_identical_event_traces() {
    let cfg = CampaignConfig {
        seed: 424242,
        ..CampaignConfig::default()
    };
    let run = |cfg: CampaignConfig| {
        let mut c = Campaign::new(cfg);
        trace(&mut c, 100, 4)
    };
    let (trace_a, report_a) = run(cfg.clone());
    let (trace_b, report_b) = run(cfg);

    assert_eq!(trace_a.len(), trace_b.len(), "trace lengths diverge");
    for (i, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
        assert_eq!(a, b, "trace diverges at entry {i}");
    }
    assert_eq!(report_a.placed, report_b.placed);
    assert_eq!(report_a.sims_completed, report_b.sims_completed);
    assert_eq!(
        report_a.gpu_mean_occupancy.to_bits(),
        report_b.gpu_mean_occupancy.to_bits(),
        "occupancy must match to the last bit"
    );
    assert_eq!(report_a.load_time, report_b.load_time);
    assert_eq!(report_a.peak_gpu_jobs, report_b.peak_gpu_jobs);
    assert_eq!(report_a.nodes_failed, report_b.nodes_failed);
    assert_eq!(report_a.jobs_crashed, report_b.jobs_crashed);
}

#[test]
fn different_seeds_actually_diverge() {
    // Guard against the test above passing vacuously (e.g. a campaign
    // that ignores its seed entirely).
    let run = |seed: u64| {
        let cfg = CampaignConfig {
            seed,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg);
        trace(&mut c, 100, 4).0
    };
    assert_ne!(run(1), run(2), "distinct seeds must change the trace");
}

mod traced {
    //! The same determinism contract, witnessed through `mummi-trace`:
    //! a same-seed campaign re-run must serialize to a byte-identical
    //! JSONL trace, and the figure series derived from that trace must
    //! equal the live collectors integer for integer.

    use campaign::{Campaign, CampaignConfig};
    use trace::{derive, Tracer};

    fn traced_campaign(seed: u64) -> Campaign {
        let cfg = CampaignConfig {
            seed,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg);
        c.set_tracer(Tracer::enabled());
        c
    }

    #[test]
    fn same_seed_traces_are_byte_identical() {
        let run = |seed: u64| {
            let mut c = traced_campaign(seed);
            c.execute_run(100, 4);
            c.execute_run(100, 2); // restart leg included in the contract
            c.tracer().to_jsonl()
        };
        let a = run(424242);
        assert!(!a.is_empty(), "traced campaign produced no output");
        assert_eq!(
            a,
            run(424242),
            "same-seed campaigns must serialize byte-identical traces"
        );
        assert_ne!(a, run(7), "distinct seeds must change the trace");
    }

    #[test]
    fn figure5_occupancy_rebuilds_exactly_from_trace() {
        let mut c = traced_campaign(11);
        c.execute_run(100, 4);
        let events = c.tracer().events();
        let derived = derive::occupancy_profiler(&events);
        assert!(!derived.samples().is_empty());
        assert_eq!(
            derived.samples(),
            c.profiler().samples(),
            "trace-derived occupancy must equal the live profiler"
        );
        assert_eq!(derived.gpu_series(), c.profiler().gpu_series());

        // The series must survive the JSONL round trip too: what a
        // `--trace` file holds is enough to regenerate Figure 5.
        let reparsed = derive::events_from_jsonl(&c.tracer().to_jsonl());
        let from_file = derive::occupancy_profiler(&reparsed);
        assert_eq!(from_file.samples(), c.profiler().samples());
    }

    #[test]
    fn figure6_timelines_rebuild_exactly_from_trace() {
        let mut c = traced_campaign(23);
        let report = c.execute_run(100, 4);
        let events = derive::events_from_jsonl(&c.tracer().to_jsonl());
        let cg = derive::timeline(&events, "cg");
        let aa = derive::timeline(&events, "aa");
        assert!(!cg.points().is_empty());
        assert_eq!(
            cg.points(),
            report.cg_timeline.points(),
            "trace-derived CG timeline must equal the run report"
        );
        assert_eq!(aa.points(), report.aa_timeline.points());
    }

    #[test]
    fn placement_series_matches_the_placed_counter() {
        let mut c = traced_campaign(31);
        c.execute_run(100, 4);
        let events = c.tracer().events();
        let series = derive::jobs_per_minute(&events);
        let placed_from_series: u64 = series.iter().map(|&(_, n)| n).sum();
        assert!(placed_from_series > 0);
        let snap = c.tracer().metrics_snapshot();
        let placed_counter = snap
            .counters
            .iter()
            .find(|(name, _)| name == "sched.placed")
            .map(|&(_, v)| v);
        assert_eq!(
            Some(placed_from_series),
            placed_counter,
            "every job.placed event must be mirrored by the counter"
        );
    }

    #[test]
    fn restart_chain_occupancy_aggregates_across_runs() {
        let mut c = traced_campaign(47);
        c.execute_run(100, 2);
        c.execute_run(100, 2);
        let derived = derive::occupancy_profiler(&c.tracer().events());
        assert_eq!(
            derived.samples(),
            c.profiler().samples(),
            "merged Figure 5 profile must match across a restart chain"
        );
    }
}

#[test]
fn restart_chains_are_deterministic_too() {
    // The paper's campaign survived across many allocations via
    // checkpoints; a restart chain must replay identically as well.
    let run = |seed: u64| {
        let cfg = CampaignConfig {
            seed,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg);
        let first = trace(&mut c, 100, 2).0;
        let second = trace(&mut c, 100, 2).0;
        (first, second)
    };
    let (a1, a2) = run(7);
    let (b1, b2) = run(7);
    assert_eq!(a1, b1, "first allocation diverged");
    assert_eq!(a2, b2, "second allocation diverged");
}

/// The fixed engine of §5.2 (first-match, asynchronous Q↔R) on a small,
/// busy allocation — the other corner from `CampaignConfig::default()`.
fn busy_cfg() -> CampaignConfig {
    CampaignConfig {
        patches_per_snapshot: 6,
        frames_per_sim_per_min: 0.05,
        cg_target_us: 0.5,
        aa_target_ns: (5.0, 8.0),
        queue_cap: 500,
        policy: MatchPolicy::FirstMatch,
        coupling: Coupling::Asynchronous,
        submit_rate_per_min: 600,
        ..CampaignConfig::default()
    }
}

#[test]
fn failure_history_invariant_to_snapshot_interval() {
    // The regression test for the per-tick Bernoulli coupling: failure
    // draws used to be made once per driver pass, so changing how often
    // the driver woke reshuffled every one of them. The (time, node)
    // history lives on its own seed stream, so the realised failure
    // count is identical across snapshot cadences, which do move the
    // driver's wakeups.
    let run = |snapshot_secs: u64| {
        let mut c = Campaign::new(CampaignConfig {
            node_failures_per_day: 8.0,
            snapshot_interval: SimDuration::from_secs(snapshot_secs),
            ..busy_cfg()
        });
        let r = c.execute_run(20, 24);
        (r.nodes_failed, r.driver_iterations)
    };
    let (reference, passes) = run(90);
    assert!(reference > 0, "attrition at 8/day over 24h must fire");
    for (secs, what) in [(45, "finer snapshots"), (600, "coarser snapshots")] {
        let (failed, other_passes) = run(secs);
        assert_ne!(
            passes, other_passes,
            "{what} must move the driver's wakeups"
        );
        assert_eq!(reference, failed, "{what}");
    }
}

#[test]
fn busy_same_seed_trace_is_byte_identical() {
    let trace_of = || {
        let mut c = Campaign::new(busy_cfg());
        c.set_tracer(Tracer::enabled());
        c.execute_run(10, 8);
        c.tracer().to_jsonl()
    };
    let a = trace_of();
    assert!(!a.is_empty());
    assert_eq!(a, trace_of(), "same-seed traces must be byte-identical");
}
