//! Helpers shared by the farm suites: the small campaign configuration
//! and the `first_placement` shape every completed campaign must have.

use campaign::CampaignConfig;
use resources::MatchPolicy;
use sched::Coupling;
use trace::Json;

/// The chaos suite's small-but-busy configuration (attrition off, short
/// CG targets so sims turn over inside a leg).
pub fn cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        patches_per_snapshot: 6,
        frames_per_sim_per_min: 0.05,
        cg_target_us: 0.2,
        aa_target_ns: (5.0, 8.0),
        queue_cap: 500,
        policy: MatchPolicy::FirstMatch,
        coupling: Coupling::Asynchronous,
        submit_rate_per_min: 600,
        job_timeout_grace: 1.5,
        node_failures_per_day: 0.0,
        job_failure_prob: 0.0,
        seed,
        ..CampaignConfig::default()
    }
}

/// An event object's `kind`.
pub fn event_kind(e: &Json) -> &str {
    e.get("kind").and_then(Json::as_str).unwrap_or("")
}

/// The `first_placement` contract over one completed campaign's log:
/// exactly one, logged between a `leg.start` and that leg's `leg.done`
/// (or the `worker.killed` that discarded it), stamped with a run-local
/// virtual time strictly inside the leg.
pub fn assert_first_placement_shape(events: &[Json]) {
    let logged: Vec<usize> = (0..events.len())
        .filter(|&i| event_kind(&events[i]) == "first_placement")
        .collect();
    let &[at] = &logged[..] else {
        panic!("first_placement is once per campaign, logged at {logged:?}");
    };
    let start = events[..at]
        .iter()
        .rfind(|e| matches!(event_kind(e), "leg.start" | "leg.done" | "worker.killed"))
        .expect("first_placement follows a leg.start");
    assert_eq!(event_kind(start), "leg.start", "emitted inside an open leg");
    let close = events[at..]
        .iter()
        .find(|e| matches!(event_kind(e), "leg.start" | "leg.done" | "worker.killed"))
        .expect("the leg closes after its first_placement");
    assert_ne!(
        event_kind(close),
        "leg.start",
        "emitted before its leg closes"
    );
    let hours = start.get("hours").and_then(Json::as_f64).unwrap();
    let at_virt_s = events[at].get("at_virt_s").and_then(Json::as_f64).unwrap();
    assert!(
        (0.0..hours * 3600.0).contains(&at_virt_s),
        "at_virt_s {at_virt_s} outside a {hours} h leg"
    );
    assert!(events[at].get("placed").and_then(Json::as_f64).unwrap() > 0.0);
}
