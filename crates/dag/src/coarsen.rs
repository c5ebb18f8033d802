//! Acyclicity-preserving DAG coarsening: cascades and funnels (§4).
//!
//! A *cascade* (Definition 4.2) is a vertex set `U` in which every vertex
//! with an incoming cut edge can reach (within `U`) every vertex with an
//! outgoing cut edge. Proposition 4.3: coarsening a DAG along a partition
//! into cascades preserves acyclicity. The paper's practical subcategory is
//! the *funnel* (Definition 4.4): a cascade with at most one vertex having an
//! outgoing (in-funnel) or incoming (out-funnel) cut edge; in-funnels are
//! found greedily by Algorithm 4.1.
//!
//! The property-based tests of this module check Proposition 4.3 directly:
//! every partition produced here consists of funnels, and the coarsened
//! graph is always acyclic.
//!
//! **Cost.** Growing one funnel costs O(part + edges on its growth side)
//! plus the heap operations of its queue, with no hashing: absorption
//! counts live in one dense array reset through a touched list, and parts
//! are renumbered by one O(n) sweep in ID order, not by a sort.
//! [`coarsen`] costs O(n + edges) plus sorting each coarse parent list; a
//! per-part stamp drops duplicate parents as they are found. The cascade
//! and funnel checkers are test and debugging aids, not on this path.

use crate::graph::SolveDag;
use crate::topo::topological_sort;
use std::collections::BinaryHeap;

/// Growth direction of the funnel search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunnelDirection {
    /// In-funnels: grow from a vertex towards its ancestors (Algorithm 4.1).
    In,
    /// Out-funnels: the mirror image, grown towards descendants.
    Out,
}

/// Options for [`funnel_partition`].
#[derive(Debug, Clone)]
pub struct FunnelOptions {
    /// Direction of growth.
    pub direction: FunnelDirection,
    /// Maximum total vertex weight of one part. Without a bound, a DAG with a
    /// single sink would collapse into one vertex (§4.2); the paper applies a
    /// size/weight constraint for the same reason.
    pub max_part_weight: u64,
}

impl Default for FunnelOptions {
    fn default() -> Self {
        FunnelOptions { direction: FunnelDirection::In, max_part_weight: 1 << 12 }
    }
}

/// A partition of the vertex set together with the part membership map.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// `part_of[v]` — the part (coarse vertex) containing `v`.
    pub part_of: Vec<usize>,
    /// Vertices of each part, sorted by vertex ID. Part IDs are assigned in
    /// increasing order of the part's smallest vertex, so coarse IDs inherit
    /// the locality of the original numbering (important for GrowLocal's
    /// ID-based selection, §3).
    pub parts: Vec<Vec<usize>>,
}

impl Coarsening {
    /// Number of parts (vertices of the coarse DAG).
    pub fn n_parts(&self) -> usize {
        self.parts.len()
    }

    /// The identity (singleton) coarsening of an `n`-vertex DAG.
    pub fn identity(n: usize) -> Coarsening {
        Coarsening { part_of: (0..n).collect(), parts: (0..n).map(|v| vec![v]).collect() }
    }
}

/// Runs funnel coarsening (Algorithm 4.1, plus the out-funnel mirror) and
/// returns the partition.
pub fn funnel_partition(dag: &SolveDag, options: &FunnelOptions) -> Coarsening {
    let order = topological_sort(dag).expect("funnel coarsening requires an acyclic graph");
    let n = dag.n();
    // The part each vertex joined, numbered in growth order.
    let mut grown_of = vec![usize::MAX; n];
    let mut n_grown = 0usize;
    // Count of the seed-side neighbours already absorbed into the current
    // part; a vertex may join once *all* of them are in (so the part keeps
    // the funnel shape: only the seed has cut edges on its far side).
    let mut absorbed = vec![0usize; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut queue: BinaryHeap<usize> = BinaryHeap::new();

    // Iterate seeds in reverse topological order for in-funnels (sinks
    // first), forward order for out-funnels.
    let seed_iter: Box<dyn Iterator<Item = usize>> = match options.direction {
        FunnelDirection::In => Box::new(order.iter().rev().copied()),
        FunnelDirection::Out => Box::new(order.iter().copied()),
    };

    for seed in seed_iter {
        if grown_of[seed] != usize::MAX {
            continue;
        }
        let mut part_weight = 0u64;
        queue.push(seed);
        while let Some(w) = queue.pop() {
            // The seed is always accepted even if it alone exceeds the weight
            // cap — otherwise an over-weight vertex could never be assigned.
            if grown_of[w] != usize::MAX
                || (w != seed
                    && part_weight.saturating_add(dag.weight(w)) > options.max_part_weight)
            {
                continue;
            }
            grown_of[w] = n_grown;
            part_weight += dag.weight(w);
            let frontier = match options.direction {
                FunnelDirection::In => dag.parents(w),
                FunnelDirection::Out => dag.children(w),
            };
            for &u in frontier {
                if absorbed[u] == 0 {
                    touched.push(u);
                }
                absorbed[u] += 1;
                let gate = match options.direction {
                    FunnelDirection::In => dag.out_degree(u),
                    FunnelDirection::Out => dag.in_degree(u),
                };
                if absorbed[u] == gate {
                    queue.push(u);
                }
            }
        }
        for u in touched.drain(..) {
            absorbed[u] = 0;
        }
        n_grown += 1;
    }

    // Renumber parts by their smallest member for locality: a sweep in ID
    // order meets each part first at that member.
    let mut part_of_grown = vec![usize::MAX; n_grown];
    let mut part_of = vec![0usize; n];
    let mut parts: Vec<Vec<usize>> = Vec::with_capacity(n_grown);
    for v in 0..n {
        let grown = grown_of[v];
        if part_of_grown[grown] == usize::MAX {
            part_of_grown[grown] = parts.len();
            parts.push(Vec::new());
        }
        part_of[v] = part_of_grown[grown];
        parts[part_of[v]].push(v);
    }
    Coarsening { part_of, parts }
}

/// Builds the coarsened graph `G // P` (Definition 4.1): one vertex per part
/// with summed weights, one edge per pair of parts connected by at least one
/// original edge, self-loops removed.
pub fn coarsen(dag: &SolveDag, coarsening: &Coarsening) -> SolveDag {
    let n_parts = coarsening.n_parts();
    let weights: Vec<u64> =
        coarsening.parts.iter().map(|part| part.iter().map(|&v| dag.weight(v)).sum()).collect();
    let mut parent_ptr = Vec::with_capacity(n_parts + 1);
    let mut parent_idx = Vec::new();
    parent_ptr.push(0);
    // `listed[q] == p`: part q is already a parent of coarse vertex p.
    let mut listed = vec![usize::MAX; n_parts];
    for (pv, part) in coarsening.parts.iter().enumerate() {
        let start = parent_idx.len();
        for &v in part {
            for &u in dag.parents(v) {
                let pu = coarsening.part_of[u];
                if pu != pv && listed[pu] != pv {
                    listed[pu] = pv;
                    parent_idx.push(pu);
                }
            }
        }
        parent_idx[start..].sort_unstable();
        parent_ptr.push(parent_idx.len());
    }
    SolveDag::from_parents(n_parts, parent_ptr, parent_idx, weights)
}

/// Checks Definition 4.2 directly: every vertex of `set` with an incoming cut
/// edge can reach, inside `set`, every vertex with an outgoing cut edge.
/// Exposed for tests and debugging; `O(|set|·|E(set)|)`.
pub fn is_cascade(dag: &SolveDag, set: &[usize]) -> bool {
    let members: std::collections::HashSet<usize> = set.iter().copied().collect();
    let entries: Vec<usize> = set
        .iter()
        .copied()
        .filter(|&v| dag.parents(v).iter().any(|p| !members.contains(p)))
        .collect();
    let exits: Vec<usize> = set
        .iter()
        .copied()
        .filter(|&v| dag.children(v).iter().any(|c| !members.contains(c)))
        .collect();
    for &entry in &entries {
        // BFS within the set.
        let mut reachable = std::collections::HashSet::new();
        reachable.insert(entry);
        let mut stack = vec![entry];
        while let Some(v) = stack.pop() {
            for &c in dag.children(v) {
                if members.contains(&c) && reachable.insert(c) {
                    stack.push(c);
                }
            }
        }
        if exits.iter().any(|e| !reachable.contains(e)) {
            return false;
        }
    }
    true
}

/// Checks Definition 4.4: `set` is a cascade with at most one vertex having a
/// cut edge on the closing side (outgoing for in-funnels, incoming for
/// out-funnels).
pub fn is_funnel(dag: &SolveDag, set: &[usize], direction: FunnelDirection) -> bool {
    if !is_cascade(dag, set) {
        return false;
    }
    let members: std::collections::HashSet<usize> = set.iter().copied().collect();
    let cut_count = set
        .iter()
        .filter(|&&v| {
            let far_side = match direction {
                FunnelDirection::In => dag.children(v),
                FunnelDirection::Out => dag.parents(v),
            };
            far_side.iter().any(|u| !members.contains(u))
        })
        .count();
    cut_count <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::is_acyclic;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The hash-map implementations: one absorption map per part, and one
    /// parent `Vec` per coarse vertex sorted and deduplicated by
    /// `SolveDag::from_edges`. The dense versions must match them exactly.
    mod oracle {
        use super::*;
        use std::collections::HashMap;

        pub(super) fn funnel_partition(dag: &SolveDag, options: &FunnelOptions) -> Coarsening {
            let order = topological_sort(dag).expect("acyclic");
            let n = dag.n();
            let mut visited = vec![false; n];
            let mut raw_parts: Vec<Vec<usize>> = Vec::new();
            let seed_iter: Box<dyn Iterator<Item = usize>> = match options.direction {
                FunnelDirection::In => Box::new(order.iter().rev().copied()),
                FunnelDirection::Out => Box::new(order.iter().copied()),
            };
            for seed in seed_iter {
                if visited[seed] {
                    continue;
                }
                let mut part = Vec::new();
                let mut part_weight = 0u64;
                let mut absorbed: HashMap<usize, usize> = HashMap::new();
                let mut queue: BinaryHeap<usize> = BinaryHeap::new();
                queue.push(seed);
                while let Some(w) = queue.pop() {
                    if visited[w]
                        || (!part.is_empty()
                            && part_weight.saturating_add(dag.weight(w)) > options.max_part_weight)
                    {
                        continue;
                    }
                    visited[w] = true;
                    part.push(w);
                    part_weight += dag.weight(w);
                    let frontier = match options.direction {
                        FunnelDirection::In => dag.parents(w),
                        FunnelDirection::Out => dag.children(w),
                    };
                    for &u in frontier {
                        let cnt = absorbed.entry(u).or_insert(0);
                        *cnt += 1;
                        let gate = match options.direction {
                            FunnelDirection::In => dag.out_degree(u),
                            FunnelDirection::Out => dag.in_degree(u),
                        };
                        if *cnt == gate {
                            queue.push(u);
                        }
                    }
                }
                part.sort_unstable();
                raw_parts.push(part);
            }
            raw_parts.sort_unstable_by_key(|p| p[0]);
            let mut part_of = vec![usize::MAX; n];
            for (pid, part) in raw_parts.iter().enumerate() {
                for &v in part {
                    part_of[v] = pid;
                }
            }
            Coarsening { part_of, parts: raw_parts }
        }

        pub(super) fn coarsen(dag: &SolveDag, coarsening: &Coarsening) -> SolveDag {
            let weights: Vec<u64> = coarsening
                .parts
                .iter()
                .map(|part| part.iter().map(|&v| dag.weight(v)).sum())
                .collect();
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for v in 0..dag.n() {
                let pv = coarsening.part_of[v];
                for &u in dag.parents(v) {
                    let pu = coarsening.part_of[u];
                    if pu != pv {
                        edges.push((pu, pv));
                    }
                }
            }
            SolveDag::from_edges(coarsening.n_parts(), &edges, weights)
        }
    }

    /// The part-weight caps the oracle comparison sweeps: 0 (singletons,
    /// except that zero-weight vertices still join), 16, and the automatic
    /// cap `sptrsv_core::auto_part_weight_cap` picks for two cores — a
    /// 64th of a core's fair share, clamped to `16..=65536`.
    fn caps(dag: &SolveDag) -> [u64; 3] {
        [0, 16, (dag.total_weight() / 2 / 64).clamp(16, 1 << 16)]
    }

    fn assert_matches_oracle(dag: &SolveDag, what: &str) {
        for direction in [FunnelDirection::In, FunnelDirection::Out] {
            for max_part_weight in caps(dag) {
                let opts = FunnelOptions { direction, max_part_weight };
                let ctx = format!("{what}, {direction:?}, cap={max_part_weight}");
                let fast = funnel_partition(dag, &opts);
                let slow = oracle::funnel_partition(dag, &opts);
                assert_eq!(fast.part_of, slow.part_of, "part_of differs: {ctx}");
                assert_eq!(fast.parts, slow.parts, "parts differ: {ctx}");
                let coarse = coarsen(dag, &fast);
                assert_eq!(coarse, oracle::coarsen(dag, &slow), "coarse DAG differs: {ctx}");
                assert!(is_acyclic(&coarse), "coarse DAG has a cycle: {ctx}");
            }
        }
    }

    /// A random DAG on `n` vertices whose IDs are shuffled, so the natural
    /// order need not be topological: each `u < v` of a hidden order is an
    /// edge with probability `p`; weights in `0..4`, zero weights included.
    fn random_dag(n: usize, p: f64, seed: u64) -> SolveDag {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut id: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            id.swap(i, rng.gen_range(0..i + 1));
        }
        let mut edges = Vec::new();
        for v in 0..n {
            for u in 0..v {
                if rng.gen_bool(p) {
                    edges.push((id[u], id[v]));
                }
            }
        }
        let weight = (0..n).map(|_| rng.gen_range(0..4u64)).collect();
        SolveDag::from_edges(n, &edges, weight)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dense_coarsening_matches_the_hash_map_oracle(
            n in 0usize..120,
            density in 0.0f64..0.15,
            seed in any::<u64>(),
        ) {
            let dag = random_dag(n, density, seed);
            assert_matches_oracle(&dag, &format!("random n={n} p={density} seed={seed}"));
        }

        #[test]
        fn dense_coarsening_matches_the_oracle_on_narrow_band_operands(
            n in 1usize..600,
            bandwidth in 1.0f64..12.0,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let l = sptrsv_sparse::gen::narrow_band::narrow_band_lower(n, 0.5, bandwidth, &mut rng);
            let dag = SolveDag::from_lower_triangular(&l);
            assert_matches_oracle(&dag, &format!("narrow band n={n} B={bandwidth}"));
        }
    }

    #[test]
    fn dense_coarsening_matches_the_oracle_on_grids() {
        use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
        for (w, h, stencil) in [
            (40, 40, Stencil2D::FivePoint),
            (9, 23, Stencil2D::NinePoint),
            (1, 30, Stencil2D::FivePoint),
        ] {
            let l = grid2d_laplacian(w, h, stencil, 0.5).lower_triangle().unwrap();
            let dag = SolveDag::from_lower_triangular(&l);
            assert_matches_oracle(&dag, &format!("grid {w}x{h}"));
            let reduced = crate::transitive::approximate_transitive_reduction(&dag);
            assert_matches_oracle(&reduced, &format!("reduced grid {w}x{h}"));
        }
    }

    fn chain(n: usize) -> SolveDag {
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        SolveDag::from_edges(n, &edges, vec![1; n])
    }

    /// In-tree: 0 <- 1, 0 <- 2; i.e. edges (1,0)? No — in-funnel example:
    /// two sources feeding one sink: 0 -> 2, 1 -> 2.
    fn in_tree() -> SolveDag {
        SolveDag::from_edges(3, &[(0, 2), (1, 2)], vec![1; 3])
    }

    #[test]
    fn in_tree_collapses_to_one_part() {
        let c = funnel_partition(&in_tree(), &FunnelOptions::default());
        assert_eq!(c.n_parts(), 1);
        assert!(is_funnel(&in_tree(), &c.parts[0], FunnelDirection::In));
    }

    #[test]
    fn weight_cap_limits_parts() {
        let g = chain(10);
        let opts = FunnelOptions { direction: FunnelDirection::In, max_part_weight: 3 };
        let c = funnel_partition(&g, &opts);
        assert!(c.n_parts() >= 4);
        for part in &c.parts {
            let w: u64 = part.iter().map(|&v| g.weight(v)).sum();
            assert!(w <= 3);
            assert!(is_funnel(&g, part, FunnelDirection::In));
        }
        let coarse = coarsen(&g, &c);
        assert!(is_acyclic(&coarse));
    }

    #[test]
    fn out_direction_mirrors_in() {
        // Out-tree: 0 -> 1, 0 -> 2 is a single out-funnel.
        let g = SolveDag::from_edges(3, &[(0, 1), (0, 2)], vec![1; 3]);
        let opts = FunnelOptions { direction: FunnelDirection::Out, max_part_weight: 100 };
        let c = funnel_partition(&g, &opts);
        assert_eq!(c.n_parts(), 1);
        assert!(is_funnel(&g, &c.parts[0], FunnelDirection::Out));
    }

    #[test]
    fn diamond_is_not_one_in_funnel() {
        // Diamond 0 -> {1, 2} -> 3: the set {1, 2, 3} is not a cascade lift
        // issue; the full set {0,1,2,3} *is* a cascade, but Algorithm 4.1
        // grows from the sink 3 and absorbs 1, 2 only when all their children
        // are in; then 0 joins too (both children absorbed) — so the diamond
        // does collapse. Verify the result is a funnel either way.
        let g = SolveDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], vec![1; 4]);
        let c = funnel_partition(&g, &FunnelOptions::default());
        for part in &c.parts {
            assert!(is_funnel(&g, part, FunnelDirection::In), "part {part:?} not a funnel");
        }
        assert!(is_acyclic(&coarsen(&g, &c)));
    }

    #[test]
    fn shared_child_blocks_merge() {
        // 0 -> 1, 0 -> 2 with seeds at sinks 1, 2 (in-funnels): 0 has two
        // children in different parts, so it can join neither via the gate
        // condition and becomes its own part.
        let g = SolveDag::from_edges(3, &[(0, 1), (0, 2)], vec![1; 3]);
        let c = funnel_partition(&g, &FunnelOptions::default());
        assert_eq!(c.n_parts(), 3);
        let coarse = coarsen(&g, &c);
        assert_eq!(coarse.n_edges(), 2);
        assert!(is_acyclic(&coarse));
    }

    #[test]
    fn coarse_weights_sum() {
        let g = in_tree();
        let c = funnel_partition(&g, &FunnelOptions::default());
        let coarse = coarsen(&g, &c);
        assert_eq!(coarse.total_weight(), g.total_weight());
    }

    #[test]
    fn cascade_checker_rejects_non_cascades() {
        // 0 -> 1, 2 -> 3, and 1 -> 2 outside: take set {1, 2}: 1 has incoming
        // cut edge (0,1) — wait, we need a set where an entry cannot reach an
        // exit. Use 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 4 and set {1, 2}: both have
        // incoming and outgoing cut edges but no internal edges, and 1 cannot
        // reach 2.
        let g = SolveDag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)], vec![1; 5]);
        assert!(!is_cascade(&g, &[1, 2]));
        assert!(is_cascade(&g, &[1]));
        assert!(is_cascade(&g, &[0, 1, 2, 3, 4]));
    }

    #[test]
    fn identity_coarsening_is_isomorphic() {
        let g = in_tree();
        let c = Coarsening::identity(3);
        let coarse = coarsen(&g, &c);
        assert_eq!(coarse.n(), g.n());
        assert_eq!(coarse.n_edges(), g.n_edges());
        assert_eq!(coarse.total_weight(), g.total_weight());
    }

    #[test]
    fn part_ids_preserve_locality() {
        let g = chain(9);
        let opts = FunnelOptions { direction: FunnelDirection::In, max_part_weight: 3 };
        let c = funnel_partition(&g, &opts);
        // Parts along a chain must be consecutive runs, numbered left to right.
        for pid in 1..c.n_parts() {
            assert!(c.parts[pid][0] > *c.parts[pid - 1].last().unwrap());
        }
    }
}
