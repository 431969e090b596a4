//! The resource graph: allocation state and matching policies.

use std::collections::HashMap;

use crate::shape::{Affinity, JobShape};
use crate::topology::MachineSpec;
use crate::NodeId;

/// How the matcher selects among feasible resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchPolicy {
    /// Score *every* node for feasibility, then take the lowest-ID feasible
    /// set — the "low resource ID first" policy MuMMI configured in Flux,
    /// whose full-graph traversal became the 4000-node bottleneck.
    LowIdExhaustive,
    /// Stop at the first feasible node set, greedily — the fix the paper
    /// reports as a 670× matcher improvement.
    FirstMatch,
}

/// Resources granted to one job on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAlloc {
    /// Which node.
    pub node: NodeId,
    /// Bitmask of allocated cores (bit i = core i).
    pub core_mask: u64,
    /// Bitmask of allocated GPUs (bit i = GPU i).
    pub gpu_mask: u8,
}

/// A complete allocation: one [`NodeAlloc`] per requested node-slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alloc {
    /// Per-node grants.
    pub slices: Vec<NodeAlloc>,
}

impl Alloc {
    /// Total GPUs held.
    pub fn gpus(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.gpu_mask.count_ones() as u64)
            .sum()
    }

    /// Total cores held.
    pub fn cores(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.core_mask.count_ones() as u64)
            .sum()
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    /// Bitmask of *free* cores.
    free_cores: u64,
    /// Bitmask of *free* GPUs.
    free_gpus: u8,
    /// Drained nodes accept no new work (existing jobs keep running).
    drained: bool,
}

/// Segment tree over node IDs holding per-segment maxima of free-GPU and
/// free-core *counts*. `first_candidate` descends left-first to the lowest
/// node ID at or above a cursor whose counts satisfy a shape's demand —
/// O(log n) against the linear matcher's O(n) rescan. Counts are necessary
/// but not sufficient (affinity can still fail on a fragmented node), so
/// callers re-verify candidates with the full per-node matcher. Drained
/// nodes are recorded as (0, 0) so the descent skips them wholesale.
#[derive(Debug, Clone)]
struct FreeIndex {
    /// Number of leaves (next power of two ≥ node count; padding is zero).
    leaves: usize,
    /// Max free-GPU count per segment; entry 1 is the root, leaf `i` lives
    /// at `leaves + i`.
    gpus: Vec<u8>,
    /// Max free-core count per segment (node cores ≤ 64 fits in u8).
    cores: Vec<u8>,
    /// Sums of the leaf counts: free GPUs and cores over undrained nodes.
    total_gpus: u64,
    total_cores: u64,
}

impl FreeIndex {
    fn build(per_node: impl ExactSizeIterator<Item = (u8, u8)>) -> FreeIndex {
        let leaves = per_node.len().next_power_of_two().max(1);
        let mut gpus = vec![0u8; 2 * leaves];
        let mut cores = vec![0u8; 2 * leaves];
        for (i, (g, c)) in per_node.enumerate() {
            gpus[leaves + i] = g;
            cores[leaves + i] = c;
        }
        for i in (1..leaves).rev() {
            gpus[i] = gpus[2 * i].max(gpus[2 * i + 1]);
            cores[i] = cores[2 * i].max(cores[2 * i + 1]);
        }
        let total = |v: &[u8]| v[leaves..].iter().map(|&x| u64::from(x)).sum();
        FreeIndex {
            leaves,
            total_gpus: total(&gpus),
            total_cores: total(&cores),
            gpus,
            cores,
        }
    }

    /// Point-updates leaf `id` and recomputes aggregates up to the root.
    fn set(&mut self, id: usize, gpus: u8, cores: u8) {
        let mut i = self.leaves + id;
        self.total_gpus = self.total_gpus - u64::from(self.gpus[i]) + u64::from(gpus);
        self.total_cores = self.total_cores - u64::from(self.cores[i]) + u64::from(cores);
        self.gpus[i] = gpus;
        self.cores[i] = cores;
        while i > 1 {
            i /= 2;
            self.gpus[i] = self.gpus[2 * i].max(self.gpus[2 * i + 1]);
            self.cores[i] = self.cores[2 * i].max(self.cores[2 * i + 1]);
        }
    }

    /// Lowest leaf ID in `[from, to)` with at least `gpus` free GPUs
    /// *and* `cores` free cores, by count. `None` if no leaf qualifies.
    fn first_candidate(&self, from: usize, to: usize, gpus: u8, cores: u8) -> Option<usize> {
        if from >= to.min(self.leaves) {
            return None;
        }
        self.descend(1, (0, self.leaves), (from, to), gpus, cores)
    }

    /// Left-first descent of segment `node`, which covers leaves
    /// `[lo, hi)`, pruning segments outside `bound` or short of the
    /// demand.
    fn descend(
        &self,
        node: usize,
        (lo, hi): (usize, usize),
        bound: (usize, usize),
        g: u8,
        c: u8,
    ) -> Option<usize> {
        if hi <= bound.0 || lo >= bound.1 || self.gpus[node] < g || self.cores[node] < c {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = lo.midpoint(hi);
        self.descend(2 * node, (lo, mid), bound, g, c)
            .or_else(|| self.descend(2 * node + 1, (mid, hi), bound, g, c))
    }
}

/// Allocation state for a whole machine plus matcher instrumentation.
#[derive(Debug, Clone)]
pub struct ResourceGraph {
    spec: MachineSpec,
    nodes: Vec<NodeState>,
    used_cores: u64,
    used_gpus: u64,
    visited_last: u64,
    visited_total: u64,
    /// Per-shape scan cursor for [`MatchPolicy::FirstMatch`]: every node
    /// below the cursor is known infeasible for that shape until a release
    /// touches it. This is the pruning that makes greedy first-match fast
    /// even on a nearly-full 4000-node graph.
    scan_hints: HashMap<JobShape, usize>,
    /// Count index over free resources, kept in sync with `nodes` on every
    /// commit/release/drain/undrain.
    index: FreeIndex,
    /// How many nodes are drained.
    drained: usize,
    /// When set, `try_alloc` uses the retained O(n) linear matcher instead
    /// of the segment-tree descent. Property-test reference only: the
    /// linear matcher is the differential oracle for the index
    /// (`tests/alloc_props.rs` in `sched`) and nothing else sets this;
    /// both paths pick the same nodes and report the same virtual visit
    /// counts.
    linear_scan: bool,
}

impl ResourceGraph {
    /// Builds an all-free graph for `spec`.
    ///
    /// # Panics
    /// Panics if a node has more than 64 cores or 8 GPUs (bitmask limits).
    pub fn new(spec: MachineSpec) -> ResourceGraph {
        assert!(spec.node.cores() <= 64, "core bitmask limit is 64");
        assert!(spec.node.gpus <= 8, "gpu bitmask limit is 8");
        let all_cores = mask_lo_u64(spec.node.cores());
        let all_gpus = mask_lo_u8(spec.node.gpus);
        let nodes = vec![
            NodeState {
                free_cores: all_cores,
                free_gpus: all_gpus,
                drained: false,
            };
            spec.nodes as usize
        ];
        let index = FreeIndex::build(nodes.iter().map(|n| {
            (
                n.free_gpus.count_ones() as u8,
                n.free_cores.count_ones() as u8,
            )
        }));
        ResourceGraph {
            nodes,
            spec,
            used_cores: 0,
            used_gpus: 0,
            visited_last: 0,
            visited_total: 0,
            scan_hints: HashMap::new(),
            index,
            drained: 0,
            linear_scan: false,
        }
    }

    /// Selects the retained O(n) linear matcher (`true`) or the indexed
    /// matcher (`false`, the default). Both produce identical allocations,
    /// visit counts, and scan-hint state. Not configuration: the toggle
    /// exists only so `alloc_props.rs` can compare the two at the same
    /// seed, and no campaign, service or binary reaches it.
    #[doc(hidden)]
    pub fn set_linear_scan(&mut self, on: bool) {
        self.linear_scan = on;
    }

    /// Per-node `(free core mask, free GPU mask)` snapshot, in node-ID
    /// order — the ground truth that claim/release round-trip tests and
    /// the index validator compare against.
    pub fn free_masks(&self) -> Vec<(u64, u8)> {
        self.nodes
            .iter()
            .map(|n| (n.free_cores, n.free_gpus))
            .collect()
    }

    /// Checks every segment-tree aggregate against the node table.
    /// Diagnostic for property tests; `Err` names the first mismatch.
    pub fn validate_index(&self) -> Result<(), String> {
        for (id, n) in self.nodes.iter().enumerate() {
            let (want_g, want_c) = if n.drained {
                (0u8, 0u8)
            } else {
                (
                    n.free_gpus.count_ones() as u8,
                    n.free_cores.count_ones() as u8,
                )
            };
            let leaf = self.index.leaves + id;
            if self.index.gpus[leaf] != want_g || self.index.cores[leaf] != want_c {
                return Err(format!(
                    "leaf {id}: index ({}, {}) != node ({want_g}, {want_c})",
                    self.index.gpus[leaf], self.index.cores[leaf]
                ));
            }
        }
        let leaf_sum = |v: &[u8]| v[self.index.leaves..].iter().map(|&x| u64::from(x)).sum();
        let drained = self.nodes.iter().filter(|n| n.drained).count();
        if (self.index.total_gpus, self.index.total_cores, self.drained)
            != (
                leaf_sum(&self.index.gpus),
                leaf_sum(&self.index.cores),
                drained,
            )
        {
            return Err("stale free totals".into());
        }
        for i in 1..self.index.leaves {
            let g = self.index.gpus[2 * i].max(self.index.gpus[2 * i + 1]);
            let c = self.index.cores[2 * i].max(self.index.cores[2 * i + 1]);
            if self.index.gpus[i] != g || self.index.cores[i] != c {
                return Err(format!("segment {i}: stale aggregate"));
            }
        }
        Ok(())
    }

    /// Re-derives node `id`'s leaf in the free index from its masks.
    fn reindex(&mut self, id: usize) {
        let n = &self.nodes[id];
        let (g, c) = if n.drained {
            (0, 0)
        } else {
            (
                n.free_gpus.count_ones() as u8,
                n.free_cores.count_ones() as u8,
            )
        };
        self.index.set(id, g, c);
    }

    /// The machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// (used, total) GPUs.
    pub fn gpu_usage(&self) -> (u64, u64) {
        (self.used_gpus, self.spec.total_gpus())
    }

    /// (used, total) cores.
    pub fn cpu_usage(&self) -> (u64, u64) {
        (self.used_cores, self.spec.total_cores())
    }

    /// Nodes inspected by the most recent `try_alloc` call.
    pub fn visited_last(&self) -> u64 {
        self.visited_last
    }

    /// Nodes inspected across all `try_alloc` calls (the ablation metric).
    pub fn visited_total(&self) -> u64 {
        self.visited_total
    }

    /// Marks a node as drained: running jobs continue, new placements skip
    /// it. This is Flux's node-failure response the paper leans on.
    pub fn drain(&mut self, node: NodeId) {
        let n = &mut self.nodes[node as usize];
        self.drained += usize::from(!n.drained);
        n.drained = true;
        self.reindex(node as usize);
    }

    /// Returns a drained node to service.
    pub fn undrain(&mut self, node: NodeId) {
        let n = &mut self.nodes[node as usize];
        self.drained -= usize::from(n.drained);
        n.drained = false;
        self.reindex(node as usize);
        for hint in self.scan_hints.values_mut() {
            *hint = (*hint).min(node as usize);
        }
    }

    /// Whether a node is drained.
    pub fn is_drained(&self, node: NodeId) -> bool {
        self.nodes[node as usize].drained
    }

    /// Attempts to allocate `shape` under `policy`. Returns `None` when the
    /// request cannot currently be satisfied (nothing is held in that case).
    ///
    /// The matcher is the segment-tree descent; a property test can swap
    /// in the retained linear scan as its reference
    /// (`ResourceGraph::set_linear_scan`). Both select the lowest-ID
    /// feasible nodes and charge the *policy's* visit cost — for
    /// [`MatchPolicy::LowIdExhaustive`] that is always the full node count
    /// (the modeled Flux traversal), for [`MatchPolicy::FirstMatch`] the
    /// span actually scanned — so virtual-time traces do not depend on
    /// which one ran.
    pub fn try_alloc(&mut self, shape: &JobShape, policy: MatchPolicy) -> Option<Alloc> {
        if shape.nodes == 0 {
            return self.empty_alloc();
        }
        if self.linear_scan {
            self.try_alloc_linear(shape, policy)
        } else {
            self.try_alloc_indexed(shape, policy)
        }
    }

    /// The retained pre-index matcher: a straight O(nodes) scan. Kept as
    /// the differential oracle for the segment-tree path
    /// (`alloc_props.rs::indexed_matches_linear_oracle`), nothing else.
    fn try_alloc_linear(&mut self, shape: &JobShape, policy: MatchPolicy) -> Option<Alloc> {
        let want = shape.nodes as usize;
        let exhaustive = policy == MatchPolicy::LowIdExhaustive;
        // First-match starts at the shape's scan cursor; the exhaustive
        // low-ID policy always walks the whole graph (the modeled Flux
        // traversal cost).
        let start = if exhaustive {
            0
        } else {
            *self.scan_hints.get(shape).unwrap_or(&0)
        };
        let mut found: Vec<NodeAlloc> = Vec::with_capacity(want);
        let mut visited = 0u64;
        for id in start..self.nodes.len() {
            if !exhaustive && found.len() == want {
                break;
            }
            visited += 1;
            if found.len() < want {
                if let Some(slice) = self.match_node(id as NodeId, shape) {
                    found.push(slice);
                } else if !exhaustive && found.is_empty() {
                    // Everything up to here is infeasible for this shape;
                    // remember that until a release invalidates it.
                    self.scan_hints.insert(*shape, id + 1);
                }
            }
        }
        self.visited_last = visited;
        self.visited_total += visited;
        self.commit_all(shape, found)
    }

    /// Indexed matcher: the [`ResourceGraph::match_span`] descent over
    /// the whole machine from the shape's scan hint. Selection order is
    /// identical to the linear scan — lowest feasible IDs first — and the
    /// reported visit counts and final scan-hint values reproduce the
    /// linear scan's arithmetic exactly, which is what keeps same-seed
    /// traces byte-identical across engines.
    fn try_alloc_indexed(&mut self, shape: &JobShape, policy: MatchPolicy) -> Option<Alloc> {
        let exhaustive = policy == MatchPolicy::LowIdExhaustive;
        let len = self.nodes.len();
        let start = if exhaustive {
            0
        } else {
            *self.scan_hints.get(shape).unwrap_or(&0)
        };
        let found = self.match_span(shape, exhaustive, start, len);
        if !exhaustive {
            // The linear scan bumps the hint past every leading infeasible
            // node; its final value is the first feasible ID (or the node
            // count when nothing matched at all).
            match found.first().map(|s| s.node as usize) {
                Some(f) if f > start => {
                    self.scan_hints.insert(*shape, f);
                }
                None if len > start => {
                    self.scan_hints.insert(*shape, len);
                }
                _ => {}
            }
        }
        self.commit_all(shape, found)
    }

    /// The one matcher body: segment-tree descent to each successive
    /// candidate in `[start, end)`, re-verified by the full per-node
    /// matcher (counts can pass while affinity fails on a fragmented
    /// node), until the shape's node count is met. Returns the slices
    /// found (lowest IDs first), committing none of them.
    ///
    /// It charges the policy's modeled traversal cost, not the
    /// descent's: exhaustive low-ID pays the whole span; first-match pays
    /// the span a lowest-ID-first walk from `start` would have covered
    /// (through the last node picked, or all of it on a miss).
    fn match_span(
        &mut self,
        shape: &JobShape,
        exhaustive: bool,
        start: usize,
        end: usize,
    ) -> Vec<NodeAlloc> {
        let want = shape.nodes as usize;
        let need_gpus = shape.gpus_per_node.min(255) as u8;
        let need_cores = shape.cores_per_node.min(255) as u8;
        let mut found: Vec<NodeAlloc> = Vec::with_capacity(want);
        let mut cursor = start;
        while found.len() < want {
            let Some(id) = self
                .index
                .first_candidate(cursor, end, need_gpus, need_cores)
            else {
                break;
            };
            if let Some(slice) = self.match_node(id as NodeId, shape) {
                found.push(slice);
            }
            cursor = id + 1;
        }
        let visited = match found.last() {
            Some(last) if !exhaustive && found.len() == want => last.node as usize - start + 1,
            _ => end.saturating_sub(start),
        } as u64;
        self.visited_last = visited;
        self.visited_total += visited;
        found
    }

    /// Commits `found` if it covers `shape`; a short match holds nothing.
    fn commit_all(&mut self, shape: &JobShape, found: Vec<NodeAlloc>) -> Option<Alloc> {
        if found.len() < shape.nodes as usize {
            return None;
        }
        for slice in &found {
            self.commit(slice);
        }
        Some(Alloc { slices: found })
    }

    /// A zero-node request holds nothing and inspects nothing.
    fn empty_alloc(&mut self) -> Option<Alloc> {
        self.visited_last = 0;
        Some(Alloc { slices: vec![] })
    }

    /// Aggregate free capacity over *undrained* nodes:
    /// `(nodes, gpus, cores)`. This is the optimistic resource profile the
    /// scheduler's backfill reservation estimator starts from — counts are
    /// necessary but not sufficient for a placement (fragmentation and
    /// affinity can still fail), so an estimate built on them is a lower
    /// bound on any real fit time. O(1): the free index keeps the sums.
    pub fn free_totals(&self) -> (u64, u64, u64) {
        (
            (self.nodes.len() - self.drained) as u64,
            self.index.total_gpus,
            self.index.total_cores,
        )
    }

    /// Attempts to allocate `shape` using only nodes in `[lo, hi)` — the
    /// placement primitive for hierarchical scheduling, where a parent
    /// instance partitions the machine across child schedulers and each
    /// child matches inside its own node range (Flux-style instances).
    ///
    /// It is the same segment-tree descent as [`ResourceGraph::try_alloc`],
    /// bounded to the range and always starting at `lo`: the per-shape
    /// scan hints describe the whole machine, so a range match neither
    /// reads nor writes them. It charges the span a lowest-ID-first walk
    /// of the range would inspect (the full range under
    /// [`MatchPolicy::LowIdExhaustive`], mirroring the modeled Flux
    /// traversal of a child instance's graph).
    pub fn try_alloc_range(
        &mut self,
        shape: &JobShape,
        policy: MatchPolicy,
        lo: usize,
        hi: usize,
    ) -> Option<Alloc> {
        if shape.nodes == 0 {
            return self.empty_alloc();
        }
        let hi = hi.min(self.nodes.len());
        let exhaustive = policy == MatchPolicy::LowIdExhaustive;
        let found = self.match_span(shape, exhaustive, lo, hi);
        self.commit_all(shape, found)
    }

    /// Releases an allocation obtained from [`ResourceGraph::try_alloc`].
    ///
    /// # Panics
    /// Panics (in debug builds) when resources are released twice.
    pub fn release(&mut self, alloc: &Alloc) {
        // Freed capacity may make low nodes feasible again for any shape.
        if let Some(lowest) = alloc.slices.iter().map(|s| s.node as usize).min() {
            for hint in self.scan_hints.values_mut() {
                *hint = (*hint).min(lowest);
            }
        }
        for s in &alloc.slices {
            let node = &mut self.nodes[s.node as usize];
            debug_assert_eq!(node.free_cores & s.core_mask, 0, "double release of cores");
            debug_assert_eq!(node.free_gpus & s.gpu_mask, 0, "double release of gpus");
            node.free_cores |= s.core_mask;
            node.free_gpus |= s.gpu_mask;
            self.used_cores -= s.core_mask.count_ones() as u64;
            self.used_gpus -= s.gpu_mask.count_ones() as u64;
            self.reindex(s.node as usize);
        }
    }

    fn commit(&mut self, s: &NodeAlloc) {
        let node = &mut self.nodes[s.node as usize];
        node.free_cores &= !s.core_mask;
        node.free_gpus &= !s.gpu_mask;
        self.used_cores += s.core_mask.count_ones() as u64;
        self.used_gpus += s.gpu_mask.count_ones() as u64;
        self.reindex(s.node as usize);
    }

    /// Tries to carve one node-slice of `shape` out of node `id`.
    fn match_node(&self, id: NodeId, shape: &JobShape) -> Option<NodeAlloc> {
        let st = &self.nodes[id as usize];
        if st.drained {
            return None;
        }
        if st.free_gpus.count_ones() < shape.gpus_per_node
            || st.free_cores.count_ones() < shape.cores_per_node
        {
            return None;
        }
        match shape.affinity {
            Affinity::None => {
                let gpu_mask = lowest_bits_u8(st.free_gpus, shape.gpus_per_node)?;
                let core_mask = lowest_bits_u64(st.free_cores, shape.cores_per_node)?;
                Some(NodeAlloc {
                    node: id,
                    core_mask,
                    gpu_mask,
                })
            }
            Affinity::PackCores => {
                // Deliberate placement (§4.3): CPU-only jobs spread evenly
                // across sockets and take the *highest* core IDs, keeping
                // the PCIe-adjacent low cores of every socket free so no
                // GPU is stranded on nodes that host setup/continuum work.
                let sockets = self.spec.node.sockets;
                let mut core_mask = 0u64;
                let mut need = shape.cores_per_node;
                let per_socket = need.div_ceil(sockets);
                for s in 0..sockets {
                    if need == 0 {
                        break;
                    }
                    let avail = st.free_cores & socket_mask(&self.spec, s);
                    let take = per_socket.min(need).min(avail.count_ones());
                    if take > 0 {
                        core_mask |= highest_bits_u64(avail, take).expect("count checked");
                        need -= take;
                    }
                }
                // Second pass: any remainder from wherever it fits.
                for s in 0..sockets {
                    if need == 0 {
                        break;
                    }
                    let avail = st.free_cores & socket_mask(&self.spec, s) & !core_mask;
                    let take = need.min(avail.count_ones());
                    if take > 0 {
                        core_mask |= highest_bits_u64(avail, take).expect("count checked");
                        need -= take;
                    }
                }
                if need > 0 {
                    return None;
                }
                Some(NodeAlloc {
                    node: id,
                    core_mask,
                    gpu_mask: 0,
                })
            }
            Affinity::PackNearGpu => {
                // Allocate each GPU with cores on its own socket; cores are
                // the lowest free IDs on that socket (nearest PCIe).
                let mut free_cores = st.free_cores;
                let mut free_gpus = st.free_gpus;
                let mut core_mask = 0u64;
                let mut gpu_mask = 0u8;
                let cores_per_gpu = shape.cores_per_node / shape.gpus_per_node.max(1);
                let mut remainder = shape.cores_per_node % shape.gpus_per_node.max(1);
                for _ in 0..shape.gpus_per_node {
                    let want = cores_per_gpu + if remainder > 0 { 1 } else { 0 };
                    remainder = remainder.saturating_sub(1);
                    let mut placed = false;
                    for g in 0..self.spec.node.gpus {
                        if free_gpus & (1 << g) == 0 {
                            continue;
                        }
                        let sm = socket_mask(&self.spec, self.spec.node.socket_of_gpu(g));
                        let avail = free_cores & sm;
                        if avail.count_ones() >= want {
                            let cm = lowest_bits_u64(avail, want).expect("count checked");
                            free_gpus &= !(1 << g);
                            free_cores &= !cm;
                            gpu_mask |= 1 << g;
                            core_mask |= cm;
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        return None;
                    }
                }
                Some(NodeAlloc {
                    node: id,
                    core_mask,
                    gpu_mask,
                })
            }
        }
    }
}

/// Bitmask of the cores on `socket`.
fn socket_mask(spec: &MachineSpec, socket: u32) -> u64 {
    let r = spec.node.cores_on_socket(socket);
    mask_lo_u64(r.end) & !mask_lo_u64(r.start)
}

fn mask_lo_u64(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn mask_lo_u8(n: u32) -> u8 {
    if n >= 8 {
        u8::MAX
    } else {
        (1u8 << n) - 1
    }
}

/// Picks the `count` lowest set bits of `mask`, or `None` if too few.
fn lowest_bits_u64(mask: u64, count: u32) -> Option<u64> {
    if mask.count_ones() < count {
        return None;
    }
    let mut out = 0u64;
    let mut m = mask;
    for _ in 0..count {
        let b = m & m.wrapping_neg();
        out |= b;
        m &= !b;
    }
    Some(out)
}

/// Picks the `count` lowest set bits of an 8-bit mask.
fn lowest_bits_u8(mask: u8, count: u32) -> Option<u8> {
    lowest_bits_u64(mask as u64, count).map(|m| m as u8)
}

/// Picks the `count` highest set bits of `mask`, or `None` if too few.
fn highest_bits_u64(mask: u64, count: u32) -> Option<u64> {
    if mask.count_ones() < count {
        return None;
    }
    let mut out = 0u64;
    let mut m = mask;
    for _ in 0..count {
        let b = 63 - m.leading_zeros();
        out |= 1u64 << b;
        m &= !(1u64 << b);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn small(nodes: u32) -> ResourceGraph {
        ResourceGraph::new(MachineSpec::custom("test", nodes, NodeSpec::summit()))
    }

    #[test]
    fn sim_jobs_fill_node_gpu_by_gpu() {
        let mut g = small(1);
        let mut allocs = Vec::new();
        for _ in 0..6 {
            allocs.push(
                g.try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
                    .unwrap(),
            );
        }
        assert_eq!(g.gpu_usage(), (6, 6));
        // 7th sim does not fit (no GPUs).
        assert!(g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .is_none());
        // Each sim got 2 cores, packed near its GPU's socket.
        assert_eq!(g.cpu_usage().0, 12);
        for a in &allocs {
            g.release(a);
        }
        assert_eq!(g.gpu_usage().0, 0);
        assert_eq!(g.cpu_usage().0, 0);
    }

    #[test]
    fn near_gpu_cores_share_the_gpus_socket() {
        let mut g = small(1);
        let a = g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .unwrap();
        let slice = a.slices[0];
        let gpu = slice.gpu_mask.trailing_zeros();
        let socket = NodeSpec::summit().socket_of_gpu(gpu);
        let r = NodeSpec::summit().cores_on_socket(socket);
        for c in 0..64 {
            if slice.core_mask & (1 << c) != 0 {
                assert!(r.contains(&(c as u32)), "core {c} not on socket {socket}");
            }
        }
    }

    #[test]
    fn setup_jobs_leave_gpus_untouched() {
        let mut g = small(1);
        let a = g
            .try_alloc(&JobShape::setup(), MatchPolicy::FirstMatch)
            .unwrap();
        assert_eq!(a.gpus(), 0);
        assert_eq!(a.cores(), 24);
        assert_eq!(g.gpu_usage().0, 0);
    }

    #[test]
    fn multi_node_continuum_job() {
        let mut g = small(200);
        let a = g
            .try_alloc(&JobShape::continuum(150), MatchPolicy::FirstMatch)
            .unwrap();
        assert_eq!(a.slices.len(), 150);
        assert_eq!(a.cores(), 3600);
        let nodes: std::collections::HashSet<NodeId> = a.slices.iter().map(|s| s.node).collect();
        assert_eq!(nodes.len(), 150, "slices must land on distinct nodes");
    }

    #[test]
    fn insufficient_resources_hold_nothing() {
        let mut g = small(2);
        let before = g.cpu_usage().0;
        assert!(g
            .try_alloc(&JobShape::continuum(3), MatchPolicy::FirstMatch)
            .is_none());
        assert_eq!(g.cpu_usage().0, before, "failed alloc must not leak");
    }

    #[test]
    fn first_match_visits_fewer_nodes_than_exhaustive() {
        let mut g = small(1000);
        g.try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .unwrap();
        let fm = g.visited_last();
        g.try_alloc(&JobShape::sim_standard(), MatchPolicy::LowIdExhaustive)
            .unwrap();
        let ex = g.visited_last();
        assert_eq!(fm, 1);
        assert_eq!(ex, 1000);
    }

    #[test]
    fn drained_nodes_are_skipped() {
        let mut g = small(2);
        g.drain(0);
        let a = g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .unwrap();
        assert_eq!(a.slices[0].node, 1);
        g.undrain(0);
        let b = g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .unwrap();
        assert_eq!(b.slices[0].node, 0);
    }

    #[test]
    fn draining_whole_machine_blocks_allocation() {
        let mut g = small(3);
        for n in 0..3 {
            g.drain(n);
        }
        assert!(g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .is_none());
        assert!(g.is_drained(2));
    }

    #[test]
    fn bundled_job_takes_all_gpus_of_a_node() {
        let mut g = small(1);
        let a = g
            .try_alloc(&JobShape::sim_bundled(6, 5), MatchPolicy::FirstMatch)
            .unwrap();
        assert_eq!(a.gpus(), 6);
        assert!(g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .is_none());
        g.release(&a);
    }

    #[test]
    fn mixed_setup_and_sim_jobs_coexist_on_a_node() {
        // A 24-core setup job takes 12 high cores from each socket, so
        // every socket keeps 10 low (PCIe-adjacent) cores and all six GPUs
        // can still host 2-core sims — the paper's "reserving all GPUs for
        // simulations" placement.
        let mut g = small(1);
        let setup = g
            .try_alloc(&JobShape::setup(), MatchPolicy::FirstMatch)
            .unwrap();
        let mut sims = 0;
        while g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .is_some()
        {
            sims += 1;
        }
        assert_eq!(sims, 6, "no GPU may be stranded by a setup job");
        let _ = setup;
    }

    #[test]
    fn pack_cores_takes_high_ids_balanced_across_sockets() {
        let mut g = small(1);
        let a = g
            .try_alloc(&JobShape::setup(), MatchPolicy::FirstMatch)
            .unwrap();
        let mask = a.slices[0].core_mask;
        let spec = NodeSpec::summit();
        for s in 0..2 {
            let r = spec.cores_on_socket(s);
            let on_socket = (r.clone()).filter(|&c| mask & (1u64 << c) != 0).count();
            assert_eq!(on_socket, 12, "12 cores per socket");
            // The lowest cores of each socket (near PCIe) stay free.
            assert_eq!(mask & (1u64 << r.start), 0);
            // The highest core of each socket is taken.
            assert_ne!(mask & (1u64 << (r.end - 1)), 0);
        }
    }

    #[test]
    fn lowest_bits_helpers() {
        assert_eq!(lowest_bits_u64(0b1011, 2), Some(0b0011));
        assert_eq!(lowest_bits_u64(0b1000, 2), None);
        assert_eq!(lowest_bits_u8(0b110, 1), Some(0b010));
    }

    #[test]
    fn free_totals_track_usage_and_drains() {
        let mut g = small(3);
        let spec = NodeSpec::summit();
        let per_node_cores = spec.cores() as u64;
        assert_eq!(g.free_totals(), (3, 18, 3 * per_node_cores));
        let a = g
            .try_alloc(&JobShape::sim_standard(), MatchPolicy::FirstMatch)
            .unwrap();
        let (n, gp, c) = g.free_totals();
        assert_eq!((n, gp), (3, 17));
        assert_eq!(c, 3 * per_node_cores - 2);
        g.drain(2);
        let (n, gp, _) = g.free_totals();
        assert_eq!((n, gp), (2, 11), "drained node drops out wholesale");
        g.release(&a);
        assert_eq!(g.free_totals().1, 12);
    }

    #[test]
    fn range_alloc_stays_inside_its_partition() {
        let mut g = small(4);
        // The [2, 4) child owns the high nodes: six sims fill node 2, the
        // seventh lands on node 3, and nodes 0-1 stay untouched.
        let mut allocs = Vec::new();
        for _ in 0..7 {
            allocs.push(
                g.try_alloc_range(&JobShape::sim_standard(), MatchPolicy::FirstMatch, 2, 4)
                    .unwrap(),
            );
        }
        assert!(allocs[..6].iter().all(|a| a.slices[0].node == 2));
        assert_eq!(allocs[6].slices[0].node, 3);
        // A 3-node shape cannot fit in a 2-node partition even though the
        // whole machine could host it.
        assert!(g
            .try_alloc_range(&JobShape::continuum(3), MatchPolicy::FirstMatch, 2, 4)
            .is_none());
        assert_eq!(
            g.free_totals().1,
            24 - 7,
            "nothing held by the failed range match"
        );
        // The other child's range is still all-free.
        let b = g
            .try_alloc_range(&JobShape::continuum(2), MatchPolicy::FirstMatch, 0, 2)
            .unwrap();
        assert_eq!(b.slices.len(), 2);
        assert!(b.slices.iter().all(|s| s.node < 2));
    }

    #[test]
    fn range_alloc_visit_accounting() {
        let mut g = small(10);
        g.try_alloc_range(&JobShape::sim_standard(), MatchPolicy::FirstMatch, 4, 10)
            .unwrap();
        assert_eq!(g.visited_last(), 1, "first-match stops at node 4");
        g.try_alloc_range(
            &JobShape::sim_standard(),
            MatchPolicy::LowIdExhaustive,
            4,
            10,
        )
        .unwrap();
        assert_eq!(g.visited_last(), 6, "exhaustive walks the whole range");
        g.drain(4);
        g.try_alloc_range(&JobShape::sim_standard(), MatchPolicy::FirstMatch, 4, 10)
            .unwrap();
        assert_eq!(g.visited_last(), 2, "drained node is visited but skipped");
    }

    #[test]
    fn zero_node_requests_charge_no_visits() {
        let empty = JobShape {
            nodes: 0,
            ..JobShape::sim_standard()
        };
        for linear in [false, true] {
            let mut g = small(10);
            g.set_linear_scan(linear);
            g.try_alloc(&JobShape::sim_standard(), MatchPolicy::LowIdExhaustive)
                .unwrap();
            assert_eq!(g.visited_last(), 10);
            let a = g.try_alloc(&empty, MatchPolicy::LowIdExhaustive).unwrap();
            assert!(a.slices.is_empty());
            assert_eq!(g.visited_last(), 0, "linear={linear}: stale visit count");
            assert_eq!(g.visited_total(), 10);
        }
    }

    #[test]
    fn visited_total_accumulates() {
        let mut g = small(100);
        g.try_alloc(&JobShape::sim_standard(), MatchPolicy::LowIdExhaustive)
            .unwrap();
        g.try_alloc(&JobShape::sim_standard(), MatchPolicy::LowIdExhaustive)
            .unwrap();
        assert_eq!(g.visited_total(), 200);
    }
}
