//! Property tests for the resource matcher's allocation invariants.
//!
//! Four families of properties over arbitrary seeded op sequences
//! (allocations of all four MuMMI job shapes, releases, drains,
//! undrains) on a Summit-shaped machine:
//!
//! 1. **No double-booking** — every core/GPU bit is held by at most one
//!    outstanding allocation, and the graph's free masks equal the full
//!    machine minus the union of outstanding grants.
//! 2. **Claim+release round-trips** — releasing an allocation restores
//!    the *exact* prior free set, bit for bit.
//! 3. **Indexed ≡ linear (differential oracle)** — the segment-tree
//!    matcher picks the same node set, reports the same visit counts,
//!    and leaves the same state as [`LinearRef`], a plain lowest-ID-first
//!    walk with its own scan hints written here against the public API,
//!    for both match policies.
//! 4. **Range ≡ drained whole machine** — a match restricted to
//!    `[lo, hi)` picks exactly what whole-machine first-match picks once
//!    every node outside the range is drained, and charges the visits a
//!    lowest-ID-first walk of the range would.
//!
//! The free-count index (`validate_index`) is additionally checked
//! against the node table after every operation. That check, not 3,
//! covers the index leaves: `LinearRef` reads each node through a
//! one-leaf descent of the same index.

use std::collections::HashMap;

use proptest::prelude::*;
use resources::{Alloc, JobShape, MachineSpec, MatchPolicy, ResourceGraph};

const NODES: u32 = 12;

/// Which resource request an `Op::Alloc` issues. Mirrors the four MuMMI
/// job types (continuum scaled down to the toy machine).
#[derive(Debug, Clone, Copy)]
enum Shape {
    SimStandard,
    SimWide,
    Bundled,
    Setup,
    Continuum,
}

impl Shape {
    fn shape(self) -> JobShape {
        match self {
            Shape::SimStandard => JobShape::sim_standard(),
            Shape::SimWide => JobShape::sim(5),
            Shape::Bundled => JobShape::sim_bundled(6, 5),
            Shape::Setup => JobShape::setup(),
            Shape::Continuum => JobShape::continuum(3),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Try to place a job of the given shape under the given policy.
    Alloc(Shape, MatchPolicy),
    /// Release the k-th outstanding allocation (mod the live count).
    Release(usize),
    /// Drain node `k mod NODES`.
    Drain(u32),
    /// Undrain node `k mod NODES`.
    Undrain(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof!` is unweighted; duplicating the
    // alloc arm skews sequences toward placements so graphs actually fill.
    let shape = prop_oneof![
        Just(Shape::SimStandard),
        Just(Shape::SimStandard),
        Just(Shape::SimWide),
        Just(Shape::Bundled),
        Just(Shape::Setup),
        Just(Shape::Continuum),
    ];
    let policy = prop_oneof![
        Just(MatchPolicy::FirstMatch),
        Just(MatchPolicy::LowIdExhaustive),
    ];
    let alloc = (shape, policy).prop_map(|(s, p)| Op::Alloc(s, p));
    prop_oneof![
        alloc.clone(),
        alloc.clone(),
        alloc,
        any::<usize>().prop_map(Op::Release),
        any::<usize>().prop_map(Op::Release),
        (0..NODES).prop_map(Op::Drain),
        (0..NODES).prop_map(Op::Undrain),
    ]
}

fn machine() -> MachineSpec {
    MachineSpec::summit_allocation(NODES)
}

/// Full free masks of an untouched machine, in node-ID order.
fn full_masks(spec: &MachineSpec) -> Vec<(u64, u8)> {
    let cores = (1u64 << spec.node.cores()) - 1;
    let gpus = ((1u16 << spec.node.gpus) - 1) as u8;
    vec![(cores, gpus); spec.nodes as usize]
}

/// The free masks implied by a set of outstanding allocations, plus a
/// double-booking check: panics if any two grants overlap.
fn expected_masks(spec: &MachineSpec, outstanding: &[Alloc]) -> Vec<(u64, u8)> {
    let mut masks = full_masks(spec);
    for a in outstanding {
        for s in &a.slices {
            let (free_c, free_g) = masks[s.node as usize];
            assert_eq!(
                free_c & s.core_mask,
                s.core_mask,
                "core double-booking on node {}",
                s.node
            );
            assert_eq!(
                free_g & s.gpu_mask,
                s.gpu_mask,
                "gpu double-booking on node {}",
                s.node
            );
            masks[s.node as usize] = (free_c & !s.core_mask, free_g & !s.gpu_mask);
        }
    }
    masks
}

/// The reference matcher: a straight O(n) walk of the node table from a
/// per-shape scan hint, with the hint arithmetic and visit accounting of
/// the modeled Flux traversal kept here rather than in the product. It
/// holds its grants on a graph of its own. Whether node `id` can host one
/// slice of a shape is asked of a throwaway clone of that graph with a
/// one-node match confined to `[id, id + 1)`; a chosen node is committed
/// with the same call on the graph itself. That call descends the free
/// index over one leaf, so a leaf count that hides or shows a node is
/// wrong here too: the leaves are checked by `validate_index`, not by
/// this differential.
struct LinearRef {
    g: ResourceGraph,
    /// First node not yet known infeasible, per shape (first-match only).
    hints: HashMap<JobShape, usize>,
    visited_last: u64,
    visited_total: u64,
}

impl LinearRef {
    fn new() -> LinearRef {
        LinearRef {
            g: ResourceGraph::new(machine()),
            hints: HashMap::new(),
            visited_last: 0,
            visited_total: 0,
        }
    }

    fn try_alloc(&mut self, shape: &JobShape, policy: MatchPolicy) -> Option<Alloc> {
        let want = shape.nodes as usize;
        let exhaustive = policy == MatchPolicy::LowIdExhaustive;
        let one = JobShape { nodes: 1, ..*shape };
        // First-match starts at the shape's hint; exhaustive low-ID walks
        // the whole machine every time.
        let start = if exhaustive {
            0
        } else {
            *self.hints.get(shape).unwrap_or(&0)
        };
        let mut found = Vec::new();
        let mut visited = 0u64;
        for id in start..NODES as usize {
            if !exhaustive && found.len() == want {
                break;
            }
            visited += 1;
            if found.len() < want {
                if self
                    .g
                    .clone()
                    .try_alloc_range(&one, policy, id, id + 1)
                    .is_some()
                {
                    found.push(id);
                } else if !exhaustive && found.is_empty() {
                    // Everything up to here is infeasible for this shape
                    // until a release or an undrain says otherwise.
                    self.hints.insert(*shape, id + 1);
                }
            }
        }
        self.visited_last = visited;
        self.visited_total += visited;
        if found.len() < want {
            return None;
        }
        let slices = found
            .into_iter()
            .flat_map(|id| {
                let a = self.g.try_alloc_range(&one, policy, id, id + 1);
                a.expect("probed feasible").slices
            })
            .collect();
        Some(Alloc { slices })
    }

    /// Lowers every hint to `node`: capacity there may fit any shape.
    fn lower_hints(&mut self, node: usize) {
        for hint in self.hints.values_mut() {
            *hint = (*hint).min(node);
        }
    }

    fn release(&mut self, a: &Alloc) {
        if let Some(lowest) = a.slices.iter().map(|s| s.node as usize).min() {
            self.lower_hints(lowest);
        }
        self.g.release(a);
    }

    fn undrain(&mut self, n: u32) {
        self.g.undrain(n);
        self.lower_hints(n as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No core or GPU is ever granted twice, and the graph's free set is
    /// exactly the machine minus the union of outstanding grants.
    fn no_double_booking(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut g = ResourceGraph::new(machine());
        let mut outstanding: Vec<Alloc> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(s, p) => {
                    if let Some(a) = g.try_alloc(&s.shape(), p) {
                        outstanding.push(a);
                    }
                }
                Op::Release(k) => {
                    if !outstanding.is_empty() {
                        let a = outstanding.remove(k % outstanding.len());
                        g.release(&a);
                    }
                }
                Op::Drain(n) => g.drain(n),
                Op::Undrain(n) => g.undrain(n),
            }
            prop_assert_eq!(g.free_masks(), expected_masks(g.spec(), &outstanding));
            prop_assert!(g.validate_index().is_ok(), "{:?}", g.validate_index());
        }
        // Usage counters agree with the grants we hold.
        let held_gpus: u64 = outstanding.iter().map(|a| a.gpus()).sum();
        let held_cores: u64 = outstanding.iter().map(|a| a.cores()).sum();
        prop_assert_eq!(g.gpu_usage().0, held_gpus);
        prop_assert_eq!(g.cpu_usage().0, held_cores);
    }

    /// Claim + release restores the exact prior free set, from any
    /// reachable intermediate state.
    fn claim_release_round_trips(
        ops in proptest::collection::vec(arb_op(), 0..40),
        probe in prop_oneof![
            Just(Shape::SimStandard),
            Just(Shape::SimWide),
            Just(Shape::Bundled),
            Just(Shape::Setup),
            Just(Shape::Continuum),
        ],
        policy in prop_oneof![
            Just(MatchPolicy::FirstMatch),
            Just(MatchPolicy::LowIdExhaustive),
        ],
    ) {
        let mut g = ResourceGraph::new(machine());
        let mut outstanding: Vec<Alloc> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(s, p) => {
                    if let Some(a) = g.try_alloc(&s.shape(), p) {
                        outstanding.push(a);
                    }
                }
                Op::Release(k) => {
                    if !outstanding.is_empty() {
                        let a = outstanding.remove(k % outstanding.len());
                        g.release(&a);
                    }
                }
                Op::Drain(n) => g.drain(n),
                Op::Undrain(n) => g.undrain(n),
            }
        }
        let before = g.free_masks();
        if let Some(a) = g.try_alloc(&probe.shape(), policy) {
            prop_assert_ne!(g.free_masks(), before.clone());
            g.release(&a);
        }
        prop_assert_eq!(g.free_masks(), before);
        prop_assert!(g.validate_index().is_ok());
    }

    /// The indexed matcher is observationally identical to the linear
    /// reference: same grants, same visit counts, same end state.
    fn indexed_matches_linear_oracle(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut indexed = ResourceGraph::new(machine());
        let mut linear = LinearRef::new();
        let mut outstanding: Vec<Alloc> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(s, p) => {
                    let a_idx = indexed.try_alloc(&s.shape(), p);
                    let a_lin = linear.try_alloc(&s.shape(), p);
                    prop_assert_eq!(&a_idx, &a_lin, "matchers diverged on {:?}", op);
                    prop_assert_eq!(
                        indexed.visited_last(),
                        linear.visited_last,
                        "visit counts diverged on {:?}",
                        op
                    );
                    if let Some(a) = a_idx {
                        outstanding.push(a);
                    }
                }
                Op::Release(k) => {
                    if !outstanding.is_empty() {
                        let a = outstanding.remove(k % outstanding.len());
                        indexed.release(&a);
                        linear.release(&a);
                    }
                }
                Op::Drain(n) => {
                    indexed.drain(n);
                    linear.g.drain(n);
                }
                Op::Undrain(n) => {
                    indexed.undrain(n);
                    linear.undrain(n);
                }
            }
            prop_assert_eq!(indexed.free_masks(), linear.g.free_masks());
            prop_assert!(indexed.validate_index().is_ok());
        }
        prop_assert_eq!(indexed.visited_total(), linear.visited_total);
        prop_assert_eq!(indexed.gpu_usage(), linear.g.gpu_usage());
        prop_assert_eq!(indexed.cpu_usage(), linear.g.cpu_usage());
    }

    /// A range match is whole-machine first-match with the outside of
    /// the range drained: same grant from any reachable state, for both
    /// policies and any `[lo, hi)` (empty and inverted ranges included),
    /// and its visit charge is the range walk's — through the last node
    /// picked under first-match, the whole range on a miss or under
    /// exhaustive low-ID.
    fn range_match_equals_first_match_with_the_outside_drained(
        ops in proptest::collection::vec(arb_op(), 0..60),
        probes in proptest::collection::vec(
            (
                prop_oneof![
                    Just(Shape::SimStandard),
                    Just(Shape::SimWide),
                    Just(Shape::Bundled),
                    Just(Shape::Setup),
                    Just(Shape::Continuum),
                ],
                prop_oneof![
                    Just(MatchPolicy::FirstMatch),
                    Just(MatchPolicy::LowIdExhaustive),
                ],
                0..=NODES as usize + 2,
                0..=NODES as usize + 2,
            ),
            1..12,
        ),
    ) {
        let mut g = ResourceGraph::new(machine());
        let mut outstanding: Vec<Alloc> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(s, p) => {
                    if let Some(a) = g.try_alloc(&s.shape(), p) {
                        outstanding.push(a);
                    }
                }
                Op::Release(k) => {
                    if !outstanding.is_empty() {
                        let a = outstanding.remove(k % outstanding.len());
                        g.release(&a);
                    }
                }
                Op::Drain(n) => g.drain(n),
                Op::Undrain(n) => g.undrain(n),
            }
        }
        for (s, policy, lo, hi) in probes {
            let shape = s.shape();
            let mut fenced = g.clone();
            for n in 0..NODES {
                if !(lo..hi).contains(&(n as usize)) {
                    fenced.drain(n);
                }
            }
            let want = fenced.try_alloc(&shape, MatchPolicy::FirstMatch);
            let got = g.try_alloc_range(&shape, policy, lo, hi);
            prop_assert_eq!(&got, &want, "range [{}, {}) {:?} {:?}", lo, hi, s, policy);
            let span = hi.min(NODES as usize).saturating_sub(lo) as u64;
            let charged = match &got {
                Some(a) if policy == MatchPolicy::FirstMatch => {
                    a.slices.last().expect("nodes > 0").node as u64 - lo as u64 + 1
                }
                _ => span,
            };
            prop_assert_eq!(g.visited_last(), charged, "range [{}, {}) {:?} {:?}", lo, hi, s, policy);
            if let Some(a) = got {
                outstanding.push(a);
            }
            prop_assert!(g.validate_index().is_ok());
        }
        prop_assert_eq!(g.free_masks(), expected_masks(g.spec(), &outstanding));
    }
}
