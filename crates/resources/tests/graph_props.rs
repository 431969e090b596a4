//! Property-based invariants of the resource graph.

use proptest::prelude::*;
use resources::{JobShape, MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};

fn arb_shape() -> impl Strategy<Value = JobShape> {
    prop_oneof![
        Just(JobShape::sim_standard()),
        Just(JobShape::sim(3)),
        Just(JobShape::setup()),
        Just(JobShape::sim_bundled(6, 2)),
        (1u32..4).prop_map(JobShape::continuum),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of allocations and releases keeps the usage
    /// counters equal to the sum of outstanding allocations and never
    /// exceeds the machine totals.
    fn usage_counters_are_conserved(
        ops in prop::collection::vec((arb_shape(), any::<bool>(), 0usize..8), 1..60),
        policy in prop_oneof![Just(MatchPolicy::FirstMatch), Just(MatchPolicy::LowIdExhaustive)],
    ) {
        let spec = MachineSpec::custom("prop", 6, NodeSpec::summit());
        let total_gpus = spec.total_gpus();
        let total_cores = spec.total_cores();
        let mut graph = ResourceGraph::new(spec);
        let mut held = Vec::new();
        for (shape, release_first, release_idx) in ops {
            if release_first && !held.is_empty() {
                let idx = release_idx % held.len();
                let alloc: resources::Alloc = held.swap_remove(idx);
                graph.release(&alloc);
            }
            if let Some(alloc) = graph.try_alloc(&shape, policy) {
                prop_assert_eq!(alloc.gpus(), shape.total_gpus());
                prop_assert_eq!(alloc.cores(), shape.total_cores());
                held.push(alloc);
            }
            let (gu, gt) = graph.gpu_usage();
            let (cu, ct) = graph.cpu_usage();
            prop_assert_eq!(gt, total_gpus);
            prop_assert_eq!(ct, total_cores);
            let held_gpus: u64 = held.iter().map(|a| a.gpus()).sum();
            let held_cores: u64 = held.iter().map(|a| a.cores()).sum();
            prop_assert_eq!(gu, held_gpus);
            prop_assert_eq!(cu, held_cores);
            prop_assert!(gu <= gt && cu <= ct);
        }
        // Releasing everything restores a pristine machine.
        for alloc in held.drain(..) {
            graph.release(&alloc);
        }
        prop_assert_eq!(graph.gpu_usage().0, 0);
        prop_assert_eq!(graph.cpu_usage().0, 0);
    }

    /// No two outstanding allocations ever share a core or a GPU.
    fn allocations_never_overlap(
        shapes in prop::collection::vec(arb_shape(), 1..40),
        policy in prop_oneof![Just(MatchPolicy::FirstMatch), Just(MatchPolicy::LowIdExhaustive)],
    ) {
        let mut graph = ResourceGraph::new(MachineSpec::custom("prop", 4, NodeSpec::summit()));
        let mut core_claims: std::collections::HashMap<u32, u64> = Default::default();
        let mut gpu_claims: std::collections::HashMap<u32, u8> = Default::default();
        for shape in shapes {
            if let Some(alloc) = graph.try_alloc(&shape, policy) {
                for s in &alloc.slices {
                    let cores = core_claims.entry(s.node).or_default();
                    prop_assert_eq!(*cores & s.core_mask, 0, "core overlap on node {}", s.node);
                    *cores |= s.core_mask;
                    let gpus = gpu_claims.entry(s.node).or_default();
                    prop_assert_eq!(*gpus & s.gpu_mask, 0, "gpu overlap on node {}", s.node);
                    *gpus |= s.gpu_mask;
                }
            }
        }
    }

    /// First-match and exhaustive agree on *feasibility* for a single
    /// request on identical graphs (they may pick different nodes).
    fn policies_agree_on_feasibility(
        prefill in prop::collection::vec(arb_shape(), 0..30),
        probe in arb_shape(),
    ) {
        let build = |policy| {
            let mut g = ResourceGraph::new(MachineSpec::custom("p", 3, NodeSpec::summit()));
            // Identical prefill placements (same policy ordering for both
            // graphs) so the states match exactly.
            for s in &prefill {
                let _ = g.try_alloc(s, MatchPolicy::FirstMatch);
            }

            g.try_alloc(&probe, policy).is_some()
        };
        prop_assert_eq!(
            build(MatchPolicy::FirstMatch),
            build(MatchPolicy::LowIdExhaustive)
        );
    }
}
