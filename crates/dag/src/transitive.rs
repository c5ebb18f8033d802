//! Approximate transitive reduction: "remove all long edges in triangles".
//!
//! From SpMP [PSSD14, §2.3], also used by the paper before Funnel coarsening
//! (§4.2): an edge `(u, w)` is redundant for scheduling whenever some vertex
//! `v` forms a triangle `u → v → w`, because the dependency is implied
//! transitively. Removing only these triangle edges costs
//! `O(Σ_v deg(v)²)` and removes most of the transitively redundant edges in
//! practice, without the full (expensive) transitive reduction.

use crate::graph::SolveDag;
use std::cell::Cell;

thread_local! {
    /// Calls to [`approximate_transitive_reduction`] made on this thread.
    static INVOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Number of [`approximate_transitive_reduction`] calls made **on the
/// calling thread** so far.
///
/// Instrumentation for reuse guarantees: plan construction is
/// single-threaded, so a test can take the count before and after building a
/// plan and assert how many reductions the build performed (e.g. exactly one
/// for an `spmp@async` plan: the planner's reduction of its wait DAG). Being
/// thread-local, concurrent tests cannot disturb each other's deltas.
pub fn reduction_invocations() -> usize {
    INVOCATIONS.with(|c| c.get())
}

/// Mark probes [`approximate_transitive_reduction`] makes on `dag`:
/// Σ_v `in_degree(v) · out_degree(v)`, one probe per parent of `v` for each
/// child of `v`. Costs O(n) over the degree arrays, so a caller can price
/// the reduction before paying for it.
pub fn reduction_probes(dag: &SolveDag) -> u64 {
    (0..dag.n()).map(|v| dag.in_degree(v) as u64 * dag.out_degree(v) as u64).sum()
}

/// Removes every edge `(u, w)` for which a two-edge path `u → v → w` exists.
///
/// Weights are preserved: transitive reduction changes the precedence
/// structure used for scheduling, not the work of the kernel (the solve still
/// reads every stored non-zero).
pub fn approximate_transitive_reduction(dag: &SolveDag) -> SolveDag {
    INVOCATIONS.with(|c| c.set(c.get() + 1));
    let n = dag.n();
    let mut keep_ptr = Vec::with_capacity(n + 1);
    let mut keep_idx = Vec::new();
    keep_ptr.push(0);
    // `mark[u] = w` means u is a (direct) parent of the vertex w currently
    // being processed; epoch-style marking avoids clearing.
    let mut mark = vec![usize::MAX; n];
    for w in 0..n {
        let parents = dag.parents(w);
        for &u in parents {
            mark[u] = w;
        }
        for &v in parents {
            // Edge (u, w) is a "long edge in a triangle" iff u is a parent of
            // both v and w. Scan v's parents and unmark those u.
            for &u in dag.parents(v) {
                if mark[u] == w {
                    mark[u] = usize::MAX;
                }
            }
        }
        for &u in parents {
            if mark[u] == w {
                keep_idx.push(u);
            }
        }
        keep_ptr.push(keep_idx.len());
    }
    SolveDag::from_parents(n, keep_ptr, keep_idx, dag.weights().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::is_acyclic;
    use crate::wavefront::wavefronts;

    #[test]
    fn triangle_edge_removed() {
        // 0 -> 1 -> 2 plus the long edge 0 -> 2.
        let g = SolveDag::from_edges(3, &[(0, 1), (1, 2), (0, 2)], vec![1; 3]);
        let r = approximate_transitive_reduction(&g);
        assert_eq!(r.n_edges(), 2);
        assert!(r.has_edge(0, 1));
        assert!(r.has_edge(1, 2));
        assert!(!r.has_edge(0, 2));
    }

    #[test]
    fn long_chains_with_skip_edges_keep_chain() {
        // Chain 0->1->2->3 with skips (0,2), (1,3): both skips are triangle
        // edges and must go; the path edge set stays intact.
        let g = SolveDag::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)], vec![1; 4]);
        let r = approximate_transitive_reduction(&g);
        assert_eq!(r.n_edges(), 3);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            assert!(r.has_edge(u, v));
        }
    }

    #[test]
    fn distance_three_edges_survive() {
        // (0, 3) skips two vertices: not a triangle edge, so the approximate
        // reduction keeps it (only a full reduction would remove it).
        let g = SolveDag::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)], vec![1; 4]);
        let r = approximate_transitive_reduction(&g);
        assert!(r.has_edge(0, 3));
        assert_eq!(r.n_edges(), 4);
    }

    #[test]
    fn reduction_preserves_wavefronts_and_acyclicity() {
        // Removing transitive edges never changes reachability, hence the
        // level structure is identical.
        let g = SolveDag::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4), (1, 4), (2, 5), (0, 5)],
            vec![1; 6],
        );
        let r = approximate_transitive_reduction(&g);
        assert!(is_acyclic(&r));
        assert_eq!(wavefronts(&g).level, wavefronts(&r).level);
        assert!(r.n_edges() < g.n_edges());
    }

    #[test]
    fn probes_count_parent_scans_per_child() {
        // 0 -> 1 -> 2 with 0 -> 2: only vertex 1 has both a parent and a
        // child; a chain of n probes n - 2; a dense triangle Σ v(n-1-v).
        let g = SolveDag::from_edges(3, &[(0, 1), (1, 2), (0, 2)], vec![1; 3]);
        assert_eq!(reduction_probes(&g), 1);
        let chain: Vec<(usize, usize)> = (1..10).map(|v| (v - 1, v)).collect();
        assert_eq!(reduction_probes(&SolveDag::from_edges(10, &chain, vec![1; 10])), 8);
        let n = 8;
        let dense: Vec<(usize, usize)> = (0..n).flat_map(|w| (0..w).map(move |u| (u, w))).collect();
        let g = SolveDag::from_edges(n, &dense, vec![1; n]);
        assert_eq!(reduction_probes(&g), (0..n as u64).map(|v| v * (n as u64 - 1 - v)).sum());
        assert_eq!(reduction_probes(&SolveDag::from_edges(0, &[], vec![])), 0);
    }

    #[test]
    fn weights_preserved() {
        let g = SolveDag::from_edges(3, &[(0, 1), (1, 2), (0, 2)], vec![5, 7, 9]);
        let r = approximate_transitive_reduction(&g);
        assert_eq!(r.weights(), &[5, 7, 9]);
    }
}
