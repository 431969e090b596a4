//! Seeded fault plans: the seed and shape are the reproduction recipe.

use datastore::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sched::JobClass;
use simcore::{SeedStream, SimDuration, SimTime};

/// One typed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A compute node fails: the scheduler drains it and every resident
    /// job crashes (resubmitted by the trackers).
    NodeFail {
        /// Node index within the allocation (applied modulo its size).
        node: u32,
    },
    /// A datastore fault window opens: for `duration`, every `period`-th
    /// call of `op` fails with an injected error, and every call of `op`
    /// is slowed by `extra_latency` (virtual I/O degradation).
    StoreFaults {
        /// The targeted operation.
        op: Op,
        /// Fail every `period`-th targeted call inside the window
        /// (0 = latency only, no failures).
        period: u64,
        /// Window length.
        duration: SimDuration,
        /// Virtual latency added to each targeted call in the window.
        extra_latency: SimDuration,
    },
    /// The lowest-id running job of `class` hangs: it holds its resources
    /// but never completes, until the WM timeout path cancels and
    /// resubmits it.
    JobHang {
        /// Which job class to hang.
        class: JobClass,
    },
    /// The workflow manager crashes mid-run: checkpoint state survives,
    /// everything else (live jobs, selectors, trackers) is lost, and a
    /// fresh WM restores from the checkpoint and continues.
    WmCrash,
}

impl FaultKind {
    /// Stable tag used in the printed plan and in chaos trace events.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::NodeFail { .. } => "fail-node",
            FaultKind::StoreFaults { .. } => "store",
            FaultKind::JobHang { .. } => "hang",
            FaultKind::WmCrash => "crash",
        }
    }
}

/// One scheduled fault: a kind stamped at a virtual time (relative to the
/// start of the run the plan is applied to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// How many faults of each type [`FaultPlan::generate`] schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Node failures.
    pub node_fails: usize,
    /// Datastore fault windows.
    pub store_windows: usize,
    /// Job hangs.
    pub hangs: usize,
    /// WM crash points.
    pub crashes: usize,
}

impl Default for PlanShape {
    fn default() -> Self {
        PlanShape {
            node_fails: 2,
            store_windows: 1,
            hangs: 2,
            crashes: 1,
        }
    }
}

/// A seeded schedule of typed faults, applied by the
/// campaign driver to one run's virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (recorded so a plan names its
    /// own reproduction recipe).
    pub seed: u64,
    /// Faults in application order (non-decreasing `at`).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sorts events by time, keeping same-time events in insertion order
    /// so application order is well-defined.
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Generates a random plan over `[0, horizon)` for an allocation of
    /// `nodes` nodes. Same `(seed, horizon, nodes, shape)` always yields
    /// the same plan.
    pub fn generate(seed: u64, horizon: SimDuration, nodes: u32, shape: PlanShape) -> FaultPlan {
        let seeds = SeedStream::new(seed).fork("fault-plan");
        let mut rng = StdRng::seed_from_u64(seeds.seed_for("events"));
        let horizon_us = horizon.as_micros().max(1);
        // Keep faults away from the very start and very end of the run so
        // every fault lands on a warmed-up campaign.
        let at = |rng: &mut StdRng| {
            SimTime::from_micros(rng.gen_range(horizon_us / 10..horizon_us * 9 / 10))
        };
        let mut events = Vec::new();
        for _ in 0..shape.node_fails {
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::NodeFail {
                    node: rng.gen_range(0..nodes.max(1)),
                },
            });
        }
        for _ in 0..shape.store_windows {
            let ops = [Op::Write, Op::Read, Op::MoveNs, Op::Delete, Op::Flush];
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::StoreFaults {
                    op: ops[rng.gen_range(0..ops.len())],
                    period: rng.gen_range(2..5),
                    duration: SimDuration::from_micros(horizon_us / 10),
                    extra_latency: SimDuration::from_millis(rng.gen_range(1..50)),
                },
            });
        }
        for _ in 0..shape.hangs {
            let classes = [JobClass::CgSim, JobClass::AaSim];
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::JobHang {
                    class: classes[rng.gen_range(0..classes.len())],
                },
            });
        }
        for _ in 0..shape.crashes {
            events.push(FaultEvent {
                at: at(&mut rng),
                kind: FaultKind::WmCrash,
            });
        }
        let mut plan = FaultPlan { seed, events };
        plan.normalize();
        plan
    }

    /// The CI smoke plan: one fault of each of the four types inside
    /// `horizon`, with seed-varied parameters. Small enough to run in
    /// seconds, broad enough to cross every recovery path.
    pub fn smoke(seed: u64, horizon: SimDuration, nodes: u32) -> FaultPlan {
        let seeds = SeedStream::new(seed).fork("fault-plan-smoke");
        let mut rng = StdRng::seed_from_u64(seeds.seed_for("params"));
        let h = horizon.as_micros().max(100);
        let events = vec![
            FaultEvent {
                at: SimTime::from_micros(h / 4),
                kind: FaultKind::NodeFail {
                    node: rng.gen_range(0..nodes.max(1)),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(h * 35 / 100),
                kind: FaultKind::StoreFaults {
                    op: Op::Read,
                    period: rng.gen_range(2..4),
                    duration: SimDuration::from_micros(h / 8),
                    extra_latency: SimDuration::from_millis(5),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(h * 55 / 100),
                kind: FaultKind::JobHang {
                    class: JobClass::CgSim,
                },
            },
            FaultEvent {
                at: SimTime::from_micros(h * 7 / 10),
                kind: FaultKind::WmCrash,
            },
        ];
        FaultPlan { seed, events }
    }

    /// Renders the plan for display (`table1 --chaos` prints it): a
    /// `plan <seed>` header, one line per event, and an `end <count>`
    /// footer. Nothing parses it back; a plan is rebuilt from its seed.
    pub fn to_text(&self) -> String {
        let mut out = format!("plan {}\n", self.seed);
        for ev in &self.events {
            let t = ev.at.as_micros();
            match ev.kind {
                FaultKind::NodeFail { node } => {
                    out.push_str(&format!("fail-node {t} {node}\n"));
                }
                FaultKind::StoreFaults {
                    op,
                    period,
                    duration,
                    extra_latency,
                } => {
                    out.push_str(&format!(
                        "store {t} {} {period} {} {}\n",
                        op.label(),
                        duration.as_micros(),
                        extra_latency.as_micros(),
                    ));
                }
                FaultKind::JobHang { class } => {
                    out.push_str(&format!("hang {t} {}\n", class.label()));
                }
                FaultKind::WmCrash => {
                    out.push_str(&format!("crash {t}\n"));
                }
            }
        }
        out.push_str(&format!("end {}\n", self.events.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let h = SimDuration::from_hours(6);
        let a = FaultPlan::generate(42, h, 20, PlanShape::default());
        let b = FaultPlan::generate(42, h, 20, PlanShape::default());
        assert_eq!(a, b);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let c = FaultPlan::generate(43, h, 20, PlanShape::default());
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn smoke_covers_all_four_fault_types() {
        let plan = FaultPlan::smoke(7, SimDuration::from_hours(4), 10);
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::NodeFail { .. })));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::StoreFaults { .. })));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::JobHang { .. })));
        assert!(plan
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WmCrash)));
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn printed_plan_pins_one_line_per_event_kind() {
        let plan = FaultPlan {
            seed: 5,
            events: vec![
                FaultEvent {
                    at: SimTime::from_micros(10),
                    kind: FaultKind::NodeFail { node: 3 },
                },
                FaultEvent {
                    at: SimTime::from_micros(20),
                    kind: FaultKind::StoreFaults {
                        op: Op::MoveNs,
                        period: 2,
                        duration: SimDuration::from_micros(300),
                        extra_latency: SimDuration::from_millis(4),
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(30),
                    kind: FaultKind::JobHang {
                        class: JobClass::AaSim,
                    },
                },
                FaultEvent {
                    at: SimTime::from_micros(40),
                    kind: FaultKind::WmCrash,
                },
            ],
        };
        assert_eq!(
            plan.to_text(),
            "plan 5\n\
             fail-node 10 3\n\
             store 20 move_ns 2 300 4000\n\
             hang 30 aa-sim\n\
             crash 40\n\
             end 4\n"
        );
        assert_eq!(FaultPlan::empty().to_text(), "plan 0\nend 0\n");
    }
}
