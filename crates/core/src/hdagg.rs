//! HDagg-style scheduler \[ZCL+22\].
//!
//! HDagg glues consecutive wavefronts into one superstep as long as a
//! balanced workload can be maintained. Our rendition follows the published
//! algorithm's structure:
//!
//! 1. starting at the current wavefront, grow a window of consecutive
//!    wavefronts one level at a time;
//! 2. the vertices of the window are grouped into connected components of
//!    the window-induced sub-DAG (components never share an edge, so placing
//!    each component on one core yields a valid superstep);
//! 3. components are bin-packed onto cores (largest-first onto the least
//!    loaded core); the window keeps growing while the resulting imbalance
//!    `max_p Ω_p / avg_p Ω_p` stays below a threshold;
//! 4. the last balanced window is emitted as a superstep.
//!
//! Like the original, this glues aggressively on bushy DAGs but falls back to
//! near-wavefront behaviour when components are coarse or unbalanced — the
//! behaviour GrowLocal improves on (Tables 7.1 and 7.2).
//!
//! Growing a window by one level costs only that level plus one packing: the
//! level's vertices join a union-find that accumulates component weights at
//! the roots, its intra-window parent edges are merged, and the LPT packing
//! runs over the window's current component roots, kept heaviest-first from
//! the previous trial. With `c` components (at most the size of the window's
//! first front) on `p` cores, one trial extension costs
//! `O(|front| + |parent edges of front| + c·p)` plus a re-sort of a list that
//! only the merged components disturbed. Each emitted superstep rebuilds its
//! window's union-find once more (after the rejected trial) to assign cores,
//! `O(window size + window edges)`. No trial re-gathers the window's members,
//! so a long window of few components costs time linear in its length.

use crate::schedule::Schedule;
use crate::Scheduler;
use sptrsv_dag::wavefront::wavefronts;
use sptrsv_dag::SolveDag;

/// The HDagg-style scheduler.
#[derive(Debug, Clone)]
pub struct HDagg {
    /// Maximum tolerated imbalance `max/avg` of a glued superstep
    /// (default 1.15, mirroring HDagg's balanced-window criterion).
    pub balance_threshold: f64,
}

impl Default for HDagg {
    fn default() -> Self {
        HDagg { balance_threshold: 1.15 }
    }
}

/// Union-find over vertex IDs (path halving + union by size), carrying
/// each component's total vertex weight at its root.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u32>,
    weight: Vec<u64>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), size: vec![1; n], weight: vec![0; n] }
    }

    /// Makes `v` a singleton component of weight `w`.
    fn reset(&mut self, v: usize, w: u64) {
        self.parent[v] = v;
        self.size[v] = 1;
        self.weight[v] = w;
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.parent[v] != v {
            self.parent[v] = self.parent[self.parent[v]];
            v = self.parent[v];
        }
        v
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.weight[ra] += self.weight[rb];
    }
}

/// The window `fronts[lo..hi]` under construction: its connected components
/// and their packing onto cores, grown one front at a time.
struct Window {
    uf: UnionFind,
    /// `(weight, root)` of the window's components, heaviest first as of
    /// the last [`Window::pack`]. Vertices added since then sit at the end;
    /// entries that stopped being roots are dropped at the next packing.
    comps: Vec<(u64, usize)>,
    /// Per-core load of the last packing (scratch).
    load: Vec<u64>,
    /// Core of each component root, as of the last packing.
    core_of_root: Vec<usize>,
}

impl Window {
    fn new(n: usize, n_cores: usize) -> Self {
        Window {
            uf: UnionFind::new(n),
            comps: Vec::new(),
            load: vec![0; n_cores],
            core_of_root: vec![0; n],
        }
    }

    /// Restarts the window as the consecutive levels `fronts`, the first of
    /// which is level `lo`.
    fn rebuild(&mut self, dag: &SolveDag, fronts: &[Vec<usize>], level: &[usize], lo: usize) {
        self.comps.clear();
        for front in fronts {
            self.add_front(dag, front, level, lo);
        }
    }

    /// Adds `front` to a window starting at level `lo`: its vertices become
    /// singleton components, then merge along their intra-window parent
    /// edges (parents at level `>= lo`).
    fn add_front(&mut self, dag: &SolveDag, front: &[usize], level: &[usize], lo: usize) {
        for &v in front {
            self.uf.reset(v, dag.weight(v));
            self.comps.push((0, v));
        }
        for &v in front {
            for &u in dag.parents(v) {
                if level[u] >= lo {
                    self.uf.union(u, v);
                }
            }
        }
    }

    /// Bin-packs the window's components largest-first onto the least
    /// loaded core (ties: lower root ID first, lower core first) and returns
    /// the imbalance `max_p Ω_p / avg_p Ω_p`.
    fn pack(&mut self) -> f64 {
        let uf = &self.uf;
        self.comps.retain_mut(|(w, r)| {
            *w = uf.weight[*r];
            uf.parent[*r] == *r
        });
        // One extension changes few components, so the list is nearly in
        // order already; the stable sort finishes such input in close to
        // linear time (and roots are unique, so it orders like any sort).
        self.comps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let load = &mut self.load;
        load.fill(0);
        for &(w, root) in &self.comps {
            let core = (0..load.len()).min_by_key(|&p| load[p]).expect("n_cores > 0");
            load[core] += w;
            self.core_of_root[root] = core;
        }
        let total: u64 = load.iter().sum();
        let max = load.iter().copied().max().unwrap_or(0);
        if total == 0 {
            1.0
        } else {
            max as f64 / (total as f64 / load.len() as f64)
        }
    }
}

impl Scheduler for HDagg {
    fn name(&self) -> &'static str {
        "HDagg"
    }

    fn schedule(&self, dag: &SolveDag, n_cores: usize) -> Schedule {
        assert!(n_cores > 0);
        let n = dag.n();
        let wf = wavefronts(dag);
        let fronts = &wf.fronts;
        let mut core_of = vec![0usize; n];
        let mut step_of = vec![0usize; n];
        let mut step = 0usize;
        let mut lo = 0usize;
        let mut win = Window::new(n, n_cores);
        while lo < fronts.len() {
            // A window of one level is always accepted; grow it while the
            // packing of the extended window stays balanced.
            win.rebuild(dag, &fronts[lo..=lo], &wf.level, lo);
            let mut hi = lo + 1;
            while hi < fronts.len() {
                win.add_front(dag, &fronts[hi], &wf.level, lo);
                if win.pack() <= self.balance_threshold {
                    hi += 1;
                } else {
                    break;
                }
            }
            // A rejected trial (the loop stopped before the last level)
            // merged front `hi` into the components: rebuild the accepted
            // window once (same union order, so the same roots), then pack
            // it for its core assignment.
            if hi < fronts.len() {
                win.rebuild(dag, &fronts[lo..hi], &wf.level, lo);
            }
            win.pack();
            for front in &fronts[lo..hi] {
                for &v in front {
                    core_of[v] = win.core_of_root[win.uf.find(v)];
                    step_of[v] = step;
                }
            }
            step += 1;
            lo = hi;
        }
        Schedule::new(n_cores, core_of, step_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The from-scratch packing: every extension re-gathers the whole window
    /// into per-window maps and re-packs it, quadratic in the window length
    /// but free of incremental state. The incremental [`Window`] must match
    /// it bit for bit.
    mod oracle {
        use super::*;
        use std::collections::HashMap;

        struct UnionFind {
            parent: Vec<usize>,
            size: Vec<u32>,
        }

        impl UnionFind {
            fn find(&mut self, mut v: usize) -> usize {
                while self.parent[v] != v {
                    self.parent[v] = self.parent[self.parent[v]];
                    v = self.parent[v];
                }
                v
            }

            fn union(&mut self, a: usize, b: usize) {
                let (mut ra, mut rb) = (self.find(a), self.find(b));
                if ra == rb {
                    return;
                }
                if self.size[ra] < self.size[rb] {
                    std::mem::swap(&mut ra, &mut rb);
                }
                self.parent[rb] = ra;
                self.size[ra] += self.size[rb];
            }
        }

        struct WindowPacking {
            core_of_window: Vec<(usize, usize)>,
            imbalance: f64,
        }

        fn pack_window(
            dag: &SolveDag,
            fronts: &[Vec<usize>],
            level: &[usize],
            lo: usize,
            hi: usize,
            uf: &mut UnionFind,
            n_cores: usize,
        ) -> WindowPacking {
            for &v in &fronts[hi - 1] {
                for &u in dag.parents(v) {
                    if level[u] >= lo {
                        uf.union(u, v);
                    }
                }
            }
            let mut comp_weight: HashMap<usize, u64> = HashMap::new();
            let members: Vec<usize> = fronts[lo..hi].iter().flatten().copied().collect();
            for &v in &members {
                *comp_weight.entry(uf.find(v)).or_insert(0) += dag.weight(v);
            }
            let mut comps: Vec<(usize, u64)> = comp_weight.into_iter().collect();
            comps.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut load = vec![0u64; n_cores];
            let mut core_of_root: HashMap<usize, usize> = HashMap::new();
            for (root, w) in comps {
                let core = (0..n_cores).min_by_key(|&p| load[p]).unwrap();
                load[core] += w;
                core_of_root.insert(root, core);
            }
            let total: u64 = load.iter().sum();
            let max = load.iter().copied().max().unwrap_or(0);
            let imbalance =
                if total == 0 { 1.0 } else { max as f64 / (total as f64 / n_cores as f64) };
            let core_of_window = members.iter().map(|&v| (v, core_of_root[&uf.find(v)])).collect();
            WindowPacking { core_of_window, imbalance }
        }

        pub(super) fn schedule(h: &HDagg, dag: &SolveDag, n_cores: usize) -> Schedule {
            let n = dag.n();
            let wf = wavefronts(dag);
            let fronts = &wf.fronts;
            let mut core_of = vec![0usize; n];
            let mut step_of = vec![0usize; n];
            let mut step = 0usize;
            let mut lo = 0usize;
            let mut uf = UnionFind { parent: (0..n).collect(), size: vec![1; n] };
            while lo < fronts.len() {
                let mut accepted =
                    pack_window(dag, fronts, &wf.level, lo, lo + 1, &mut uf, n_cores);
                let mut hi = lo + 1;
                while hi < fronts.len() {
                    let cand = pack_window(dag, fronts, &wf.level, lo, hi + 1, &mut uf, n_cores);
                    if cand.imbalance <= h.balance_threshold {
                        accepted = cand;
                        hi += 1;
                    } else {
                        break;
                    }
                }
                for &(v, core) in &accepted.core_of_window {
                    core_of[v] = core;
                    step_of[v] = step;
                }
                for front in &fronts[lo..(hi + 1).min(fronts.len())] {
                    for &v in front {
                        uf.parent[v] = v;
                        uf.size[v] = 1;
                    }
                }
                step += 1;
                lo = hi;
            }
            Schedule::new(n_cores, core_of, step_of)
        }
    }

    /// The balance thresholds the oracle comparison sweeps: the tightest
    /// legal value, the default and a loose one.
    const BALANCES: [f64; 3] = [1.0, 1.15, 2.5];

    fn assert_matches_oracle(dag: &SolveDag, n_cores: usize, what: &str) {
        for balance_threshold in BALANCES {
            let h = HDagg { balance_threshold };
            let fast = h.schedule(dag, n_cores);
            let slow = oracle::schedule(&h, dag, n_cores);
            let ctx = format!("{what}, cores={n_cores}, balance={balance_threshold}");
            assert_eq!(fast.cores(), slow.cores(), "cores differ: {ctx}");
            assert_eq!(fast.steps(), slow.steps(), "steps differ: {ctx}");
            assert!(fast.validate(dag).is_ok(), "invalid schedule: {ctx}");
        }
    }

    /// A random DAG on `n` vertices: each `u < v` is an edge with
    /// probability `p`; weights in `0..4` (zero weights included, so empty
    /// components meet the packing's ties).
    fn random_dag(n: usize, p: f64, seed: u64) -> SolveDag {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..n {
            for u in 0..v {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        let weight = (0..n).map(|_| rng.gen_range(0..4u64)).collect();
        SolveDag::from_edges(n, &edges, weight)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_packing_matches_the_from_scratch_oracle(
            n in 0usize..90,
            density in 0.0f64..0.2,
            seed in any::<u64>(),
            n_cores in 1usize..9,
        ) {
            let dag = random_dag(n, density, seed);
            assert_matches_oracle(&dag, n_cores, &format!("random n={n} p={density} seed={seed}"));
            // Many more cores than rows.
            assert_matches_oracle(&dag, n + 16, &format!("random n={n} seed={seed}, cores >> rows"));
        }

        #[test]
        fn incremental_packing_matches_the_oracle_on_narrow_band_operands(
            n in 1usize..400,
            bandwidth in 1.0f64..12.0,
            seed in any::<u64>(),
            n_cores in 1usize..9,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let l = sptrsv_sparse::gen::narrow_band::narrow_band_lower(n, 0.5, bandwidth, &mut rng);
            let dag = SolveDag::from_lower_triangular(&l);
            assert_matches_oracle(&dag, n_cores, &format!("narrow band n={n} B={bandwidth}"));
        }
    }

    #[test]
    fn incremental_packing_matches_the_oracle_on_grids_and_edge_cases() {
        use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
        for (w, h, stencil) in [
            (16, 16, Stencil2D::FivePoint),
            (9, 23, Stencil2D::NinePoint),
            (1, 30, Stencil2D::FivePoint),
        ] {
            let l = grid2d_laplacian(w, h, stencil, 0.5).lower_triangle().unwrap();
            let dag = SolveDag::from_lower_triangular(&l);
            for n_cores in [1, 2, 3, 8, 1000] {
                assert_matches_oracle(&dag, n_cores, &format!("grid {w}x{h}"));
            }
        }
        let chain: Vec<(usize, usize)> = (1..40).map(|v| (v - 1, v)).collect();
        let cases = [
            ("n = 0", SolveDag::from_edges(0, &[], vec![])),
            ("n = 1", SolveDag::from_edges(1, &[], vec![3])),
            ("diagonal only", SolveDag::from_edges(25, &[], (0..25).map(|v| v % 5).collect())),
            ("zero weights", SolveDag::from_edges(12, &[(0, 5), (1, 5), (5, 9)], vec![0; 12])),
            ("one chain", SolveDag::from_edges(40, &chain, vec![1; 40])),
        ];
        for (what, dag) in &cases {
            for n_cores in [1, 2, 7, 64] {
                assert_matches_oracle(dag, n_cores, what);
            }
        }
    }

    #[test]
    fn independent_chains_glue_fully() {
        // k independent chains: components = chains, perfectly packable, so
        // the whole DAG becomes one superstep.
        let mut edges = Vec::new();
        for c in 0..4 {
            for i in 1..10 {
                edges.push((c * 10 + i - 1, c * 10 + i));
            }
        }
        let g = SolveDag::from_edges(40, &edges, vec![1; 40]);
        let s = HDagg::default().schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.n_supersteps(), 1, "4 equal chains on 4 cores glue to one superstep");
    }

    #[test]
    fn single_chain_cannot_glue_balanced() {
        // One chain on 2 cores: gluing puts everything in one component on
        // one core → imbalance 2.0 > threshold, so windows stay at one level
        // … except the first glue attempt (2 levels, one component) already
        // fails. Result: one superstep per wavefront is NOT required — the
        // window of one level is always accepted, so we get n supersteps.
        let g = SolveDag::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], vec![1; 6]);
        let s = HDagg::default().schedule(&g, 2);
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.n_supersteps(), 6);
    }

    #[test]
    fn valid_on_a_grid_and_fewer_steps_than_wavefront() {
        let a = sptrsv_sparse::gen::grid::grid2d_laplacian(
            16,
            16,
            sptrsv_sparse::gen::grid::Stencil2D::FivePoint,
            0.5,
        );
        let g = SolveDag::from_lower_triangular(&a.lower_triangle().unwrap());
        let s = HDagg::default().schedule(&g, 2);
        assert!(s.validate(&g).is_ok());
        let wf_steps = 31; // 16 + 16 - 1 anti-diagonals
        assert!(s.n_supersteps() <= wf_steps);
    }

    #[test]
    fn looser_threshold_glues_more() {
        let a = sptrsv_sparse::gen::grid::grid2d_laplacian(
            16,
            16,
            sptrsv_sparse::gen::grid::Stencil2D::FivePoint,
            0.5,
        );
        let g = SolveDag::from_lower_triangular(&a.lower_triangle().unwrap());
        let tight = HDagg { balance_threshold: 1.05 }.schedule(&g, 2);
        let loose = HDagg { balance_threshold: 2.5 }.schedule(&g, 2);
        assert!(loose.n_supersteps() <= tight.n_supersteps());
        assert!(loose.validate(&g).is_ok());
    }
}
