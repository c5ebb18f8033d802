//! The GrowLocal scheduler (§3, Algorithm 3.1).
//!
//! GrowLocal forms supersteps one by one, each through several *iterations*
//! with a growing length parameter `α`:
//!
//! 1. assign up to `α` ready vertices to core 1, giving weight `Ω₁`;
//! 2. fill every further core up to weight `Ω₁`;
//! 3. score the iteration with `β = Σ_p Ω_p / (max_p Ω_p + L)`, where `L`
//!    is the synchronization-barrier penalty;
//! 4. if `β` is at least `0.97×` the best score seen in this superstep, the
//!    iteration is *worthy*: undo it, grow `α ← 1.5·α`, and try again;
//!    otherwise finalize the last worthy iteration as the superstep.
//!
//! Vertex selection follows **Rule I**: first vertices that are executable
//! *only on this core* in the current superstep (because a parent was just
//! assigned here — the idea borrowed from \[PAKY24\]), then simply the smallest
//! vertex ID. The ID-based choice is what gives the schedule its locality:
//! cores receive near-consecutive blocks of rows (§3, discussion after
//! Algorithm 3.1).
//!
//! **Cost.** One iteration costs O(assigned + children touched + cores),
//! with no hashing and no allocation: the per-vertex assigned-parent
//! counts, per-core weights and exclusive queues are allocated once per
//! `schedule()` call and reset through the list of entries the previous
//! iteration touched. Core 0 fills first and alone, so its first `α` picks
//! are the same in every iteration of a superstep: a longer iteration
//! rewinds the later cores' edits through an undo log, resumes core 0
//! where it stopped and re-runs only the later cores. The ready set is a
//! sorted `Vec`; an iteration reads a prefix of it, and finalizing a
//! superstep drops that prefix and merges in the newly ready vertices
//! once.

use crate::schedule::Schedule;
use crate::Scheduler;
use sptrsv_dag::SolveDag;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Vertex-selection rule used when picking the next vertex for a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexPriority {
    /// Rule I of the paper: core-exclusive vertices first, then smallest ID.
    CoreExclusiveThenId,
    /// Ablation: ignore the exclusivity preference and always take the
    /// globally smallest executable ID (exclusive vertices still may only run
    /// on their own core).
    IdOnly,
}

/// Tuning parameters of GrowLocal. `Default` reproduces the paper's setting.
#[derive(Debug, Clone)]
pub struct GrowLocalParams {
    /// Initial superstep length `α` (paper: 20).
    pub alpha_init: usize,
    /// Growth factor for `α` between iterations (paper: 1.5).
    pub growth: f64,
    /// A new iteration is worthy if `β ≥ accept_ratio · β_best` (App. B: 0.97).
    pub accept_ratio: f64,
    /// Barrier penalty `L` in the parallelization score (paper: 500,
    /// from synchronization cycles on current architectures, App. C.2).
    pub sync_cost: u64,
    /// Vertex-selection rule (Rule I by default).
    pub priority: VertexPriority,
}

impl Default for GrowLocalParams {
    fn default() -> Self {
        GrowLocalParams {
            alpha_init: 20,
            growth: 1.5,
            accept_ratio: 0.97,
            sync_cost: 500,
            priority: VertexPriority::CoreExclusiveThenId,
        }
    }
}

/// The GrowLocal scheduler.
#[derive(Debug, Clone, Default)]
pub struct GrowLocal {
    /// Tuning parameters.
    pub params: GrowLocalParams,
}

impl GrowLocal {
    /// GrowLocal with the paper's default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// GrowLocal with explicit parameters.
    pub fn with_params(params: GrowLocalParams) -> Self {
        GrowLocal { params }
    }
}

/// Result of one speculative iteration (one candidate superstep). Its
/// `(vertex, core)` assignments go to a buffer the caller lends.
struct Iteration {
    /// Parallelization score β.
    beta: f64,
    /// How many assignments came from the ready list: its first
    /// `from_ready` entries, since every core takes ready vertices through
    /// one shared cursor in ID order.
    from_ready: usize,
}

/// Working memory of the speculative iterations, allocated once per
/// `schedule()` call and lent to every iteration.
struct Scratch {
    /// Per vertex: parents assigned in the current iteration, and the one
    /// core they all went to ([`SEVERAL`] once they span more than one).
    /// Only the vertices on `touched` have a non-zero count.
    local_parents: Vec<(usize, usize)>,
    touched: Vec<usize>,
    /// Per-core weight Ω_p of the current iteration.
    omegas: Vec<u64>,
    /// Per-core queues of vertices that became executable exclusively on
    /// that core during the current iteration (min-ID order).
    excl: Vec<BinaryHeap<Reverse<usize>>>,
    /// Core 0's picks in this superstep so far.
    core0: Vec<usize>,
    /// Ready-list cursor and `touched` length where core 0 stopped.
    core0_cursor: usize,
    core0_touched: usize,
    /// The `local_parents` entries the later cores changed, with their
    /// values at core 0's stop.
    undo: Vec<(usize, (usize, usize))>,
}

/// The `local_parents` core of a vertex whose assigned parents span
/// several cores: it is not executable in this superstep.
const SEVERAL: usize = usize::MAX;

impl Scratch {
    fn new(n: usize, k: usize) -> Self {
        Scratch {
            local_parents: vec![(0, SEVERAL); n],
            touched: Vec::new(),
            omegas: vec![0; k],
            excl: (0..k).map(|_| BinaryHeap::new()).collect(),
            core0: Vec::new(),
            core0_cursor: 0,
            core0_touched: 0,
            undo: Vec::new(),
        }
    }

    /// Forgets the previous iteration in O(touched + cores): the start of
    /// a superstep.
    fn reset(&mut self) {
        for v in self.touched.drain(..) {
            self.local_parents[v].0 = 0;
        }
        self.omegas.fill(0);
        self.excl.iter_mut().for_each(BinaryHeap::clear);
        self.core0.clear();
        self.core0_cursor = 0;
        self.undo.clear();
    }

    /// Rewinds the previous iteration to where its core 0 stopped, in
    /// O(later cores' edits + cores).
    fn rewind(&mut self) {
        for (v, entry) in self.undo.drain(..).rev() {
            self.local_parents[v] = entry;
        }
        self.touched.truncate(self.core0_touched);
        self.omegas[1..].fill(0);
        self.excl[1..].iter_mut().for_each(BinaryHeap::clear);
    }
}

/// Mutable scheduling state shared across supersteps.
struct State {
    /// Unfinalized-parent count per vertex.
    remaining: Vec<usize>,
    /// Vertices ready at the last barrier (all parents finalized), sorted
    /// by ID.
    ready: Vec<usize>,
    core_of: Vec<usize>,
    step_of: Vec<usize>,
}

impl GrowLocal {
    /// Runs one speculative iteration with length parameter `alpha`,
    /// writing its assignments to `assigned`. With `resume`, core 0 goes on
    /// from the previous iteration of this superstep, whose `alpha` was
    /// smaller.
    fn run_iteration(
        &self,
        dag: &SolveDag,
        alpha: usize,
        resume: bool,
        state: &State,
        scratch: &mut Scratch,
        assigned: &mut Vec<(usize, usize)>,
    ) -> Iteration {
        if resume {
            scratch.rewind();
        } else {
            scratch.reset();
        }
        assigned.clear();
        let Scratch {
            local_parents,
            touched,
            omegas,
            excl,
            core0,
            core0_cursor,
            core0_touched,
            undo,
        } = scratch;
        // Vertices ready since the last barrier, consumed in ID order by the
        // cores in turn. Ready vertices never appear in `excl` (they have no
        // parents assigned in this superstep), so one shared cursor suffices.
        let ready = &state.ready;
        let mut cursor = *core0_cursor;

        for p in 0..omegas.len() {
            let mut count = if p == 0 { core0.len() } else { 0 };
            loop {
                // Stopping rule: core 0 takes up to `alpha` vertices; later
                // cores fill until they reach core 0's weight Ω₁.
                if p == 0 {
                    if count >= alpha {
                        break;
                    }
                } else if omegas[p] >= omegas[0] {
                    break;
                }
                let from_excl = match (excl[p].peek(), ready.get(cursor)) {
                    (None, None) => break,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (Some(&Reverse(e)), Some(&b)) => match self.params.priority {
                        VertexPriority::CoreExclusiveThenId => true,
                        // Smallest executable ID overall.
                        VertexPriority::IdOnly => e < b,
                    },
                };
                let v = if from_excl {
                    excl[p].pop().expect("peeked").0
                } else {
                    cursor += 1;
                    ready[cursor - 1]
                };
                if p == 0 {
                    core0.push(v);
                } else {
                    assigned.push((v, p));
                }
                omegas[p] += dag.weight(v);
                count += 1;
                for &c in dag.children(v) {
                    let entry = &mut local_parents[c];
                    if p > 0 {
                        undo.push((c, *entry));
                    }
                    if entry.0 == 0 {
                        touched.push(c);
                        entry.1 = p;
                    } else if entry.1 != p {
                        entry.1 = SEVERAL;
                    }
                    entry.0 += 1;
                    if entry.0 == state.remaining[c] && entry.1 == p {
                        // All outstanding parents of c are now on core p:
                        // c is executable exclusively on p this superstep.
                        excl[p].push(Reverse(c));
                    }
                }
            }
            if p == 0 {
                *core0_cursor = cursor;
                *core0_touched = touched.len();
            }
        }
        assigned.extend(core0.iter().map(|&v| (v, 0)));
        let total: u64 = omegas.iter().sum();
        let max = omegas.iter().copied().max().unwrap_or(0);
        let beta = total as f64 / (max + self.params.sync_cost) as f64;
        Iteration { beta, from_ready: cursor }
    }
}

/// Writes the merge of two sorted, disjoint lists to `out`.
fn merge_sorted(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl Scheduler for GrowLocal {
    fn name(&self) -> &'static str {
        match self.params.priority {
            VertexPriority::CoreExclusiveThenId => "GrowLocal",
            VertexPriority::IdOnly => "GrowLocal(id-only)",
        }
    }

    fn schedule(&self, dag: &SolveDag, n_cores: usize) -> Schedule {
        assert!(n_cores > 0, "need at least one core");
        let n = dag.n();
        let mut state = State {
            remaining: (0..n).map(|v| dag.in_degree(v)).collect(),
            ready: (0..n).filter(|&v| dag.in_degree(v) == 0).collect(),
            core_of: vec![usize::MAX; n],
            step_of: vec![usize::MAX; n],
        };
        let mut scratch = Scratch::new(n, n_cores);
        // The last worthy iteration's assignments and the candidate's.
        let mut best = Vec::new();
        let mut cand = Vec::new();
        // Vertices made ready by the superstep being finalized, and the
        // merge target of the next ready list.
        let mut fresh = Vec::new();
        let mut merged = Vec::new();
        let mut n_finalized = 0usize;
        let mut step = 0usize;
        while n_finalized < n {
            assert!(
                !state.ready.is_empty(),
                "no ready vertices but {} unscheduled — the graph has a cycle",
                n - n_finalized
            );
            // Grow the superstep: α-iterations until the score degrades.
            let mut alpha = self.params.alpha_init.max(1);
            let first = self.run_iteration(dag, alpha, false, &state, &mut scratch, &mut best);
            let (mut best_beta, mut from_ready) = (first.beta, first.from_ready);
            loop {
                let next_alpha =
                    ((alpha as f64 * self.params.growth).ceil() as usize).min(n).max(alpha + 1);
                let it = self.run_iteration(dag, next_alpha, true, &state, &mut scratch, &mut cand);
                if cand.len() <= best.len() {
                    break; // the DAG frontier is exhausted; growing is futile
                }
                if it.beta >= self.params.accept_ratio * best_beta {
                    best_beta = best_beta.max(it.beta);
                    alpha = next_alpha;
                    from_ready = it.from_ready;
                    std::mem::swap(&mut best, &mut cand);
                } else {
                    break; // parallelism degraded: keep the last worthy one
                }
            }
            debug_assert!(!best.is_empty(), "a superstep must make progress");
            // Finalize the superstep.
            for &(v, p) in &best {
                state.core_of[v] = p;
                state.step_of[v] = step;
            }
            for &(v, _) in &best {
                for &c in dag.children(v) {
                    state.remaining[c] -= 1;
                    if state.remaining[c] == 0 && state.step_of[c] == usize::MAX {
                        fresh.push(c);
                    }
                }
            }
            // The next ready list: the unconsumed suffix merged with the
            // fresh vertices, once per superstep.
            fresh.sort_unstable();
            merge_sorted(&state.ready[from_ready..], &fresh, &mut merged);
            std::mem::swap(&mut state.ready, &mut merged);
            fresh.clear();
            n_finalized += best.len();
            step += 1;
        }
        Schedule::new(n_cores, state.core_of, state.step_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sptrsv_dag::wavefront::wavefronts;

    /// The hash-map implementation: every speculative iteration re-runs
    /// every core from a fresh map of assigned-parent counts and fresh
    /// heaps, and the ready set is a `BTreeSet` edited one vertex at a
    /// time. The dense, resuming scheduler must match it bit for bit.
    mod oracle {
        use super::*;
        use std::collections::{BTreeSet, HashMap};

        struct Iteration {
            assigned: Vec<(usize, usize)>,
            beta: f64,
        }

        struct State {
            remaining: Vec<usize>,
            ready_base: BTreeSet<usize>,
            core_of: Vec<usize>,
            step_of: Vec<usize>,
        }

        fn run_iteration(
            params: &GrowLocalParams,
            dag: &SolveDag,
            k: usize,
            alpha: usize,
            state: &State,
        ) -> Iteration {
            let mut assigned: Vec<(usize, usize)> = Vec::new();
            let mut omegas = vec![0u64; k];
            let mut excl: Vec<BinaryHeap<Reverse<usize>>> =
                (0..k).map(|_| BinaryHeap::new()).collect();
            let mut local_parents: HashMap<usize, (usize, Option<usize>)> = HashMap::new();
            let mut base_iter = state.ready_base.iter().copied().peekable();
            for p in 0..k {
                let mut count = 0usize;
                loop {
                    if p == 0 {
                        if count >= alpha {
                            break;
                        }
                    } else if omegas[p] >= omegas[0] {
                        break;
                    }
                    let v = match params.priority {
                        VertexPriority::CoreExclusiveThenId => match excl[p].pop() {
                            Some(Reverse(v)) => Some(v),
                            None => base_iter.next(),
                        },
                        VertexPriority::IdOnly => {
                            match (excl[p].peek().map(|r| r.0), base_iter.peek().copied()) {
                                (Some(e), Some(b)) => {
                                    if e < b {
                                        excl[p].pop().map(|r| r.0)
                                    } else {
                                        base_iter.next()
                                    }
                                }
                                (Some(_), None) => excl[p].pop().map(|r| r.0),
                                (None, _) => base_iter.next(),
                            }
                        }
                    };
                    let Some(v) = v else { break };
                    assigned.push((v, p));
                    omegas[p] += dag.weight(v);
                    count += 1;
                    for &c in dag.children(v) {
                        let entry = local_parents.entry(c).or_insert((0, Some(p)));
                        entry.0 += 1;
                        if entry.1 != Some(p) {
                            entry.1 = None;
                        }
                        if entry.0 == state.remaining[c] && entry.1 == Some(p) {
                            excl[p].push(Reverse(c));
                        }
                    }
                }
            }
            let total: u64 = omegas.iter().sum();
            let max = omegas.iter().copied().max().unwrap_or(0);
            let beta = total as f64 / (max + params.sync_cost) as f64;
            Iteration { assigned, beta }
        }

        pub(super) fn schedule(params: &GrowLocalParams, dag: &SolveDag, k: usize) -> Schedule {
            let n = dag.n();
            let mut state = State {
                remaining: (0..n).map(|v| dag.in_degree(v)).collect(),
                ready_base: (0..n).filter(|&v| dag.in_degree(v) == 0).collect(),
                core_of: vec![usize::MAX; n],
                step_of: vec![usize::MAX; n],
            };
            let mut n_finalized = 0usize;
            let mut step = 0usize;
            while n_finalized < n {
                let mut alpha = params.alpha_init.max(1);
                let mut best = run_iteration(params, dag, k, alpha, &state);
                let mut best_beta = best.beta;
                loop {
                    let next_alpha =
                        ((alpha as f64 * params.growth).ceil() as usize).min(n).max(alpha + 1);
                    let cand = run_iteration(params, dag, k, next_alpha, &state);
                    if cand.assigned.len() <= best.assigned.len() {
                        break;
                    }
                    if cand.beta >= params.accept_ratio * best_beta {
                        best_beta = best_beta.max(cand.beta);
                        alpha = next_alpha;
                        best = cand;
                    } else {
                        break;
                    }
                }
                for &(v, p) in &best.assigned {
                    state.core_of[v] = p;
                    state.step_of[v] = step;
                    state.ready_base.remove(&v);
                }
                for &(v, _) in &best.assigned {
                    for &c in dag.children(v) {
                        state.remaining[c] -= 1;
                        if state.remaining[c] == 0 && state.step_of[c] == usize::MAX {
                            state.ready_base.insert(c);
                        }
                    }
                }
                n_finalized += best.assigned.len();
                step += 1;
            }
            Schedule::new(k, state.core_of, state.step_of)
        }
    }

    /// The parameter sets the oracle comparison sweeps: the paper's default
    /// and non-default `alpha` / `growth` / `accept` / `sync` values, each
    /// under Rule I and the ID-only ablation.
    fn param_sweep() -> Vec<GrowLocalParams> {
        let shapes = [
            GrowLocalParams::default(),
            GrowLocalParams { alpha_init: 1, growth: 2.0, ..Default::default() },
            GrowLocalParams {
                alpha_init: 7,
                accept_ratio: 0.8,
                sync_cost: 0,
                ..Default::default()
            },
            GrowLocalParams { alpha_init: 50, growth: 1.1, sync_cost: 5000, ..Default::default() },
        ];
        let mut sweep = Vec::new();
        for shape in shapes {
            for priority in [VertexPriority::CoreExclusiveThenId, VertexPriority::IdOnly] {
                sweep.push(GrowLocalParams { priority, ..shape.clone() });
            }
        }
        sweep
    }

    fn assert_matches_oracle(dag: &SolveDag, n_cores: usize, what: &str) {
        for params in param_sweep() {
            let fast = GrowLocal::with_params(params.clone()).schedule(dag, n_cores);
            let slow = oracle::schedule(&params, dag, n_cores);
            let ctx = format!("{what}, cores={n_cores}, {params:?}");
            assert_eq!(fast.cores(), slow.cores(), "cores differ: {ctx}");
            assert_eq!(fast.steps(), slow.steps(), "steps differ: {ctx}");
            assert!(fast.validate(dag).is_ok(), "invalid schedule: {ctx}");
        }
    }

    /// A random DAG on `n` vertices: each `u < v` is an edge with
    /// probability `p`; weights in `0..4`, zero weights included.
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
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dense_iterations_match_the_hash_map_oracle(
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
        fn dense_iterations_match_the_oracle_on_narrow_band_operands(
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
    fn dense_iterations_match_the_oracle_on_grids() {
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
    }

    fn chain(n: usize) -> SolveDag {
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
        SolveDag::from_edges(n, &edges, vec![1; n])
    }

    fn independent(n: usize) -> SolveDag {
        SolveDag::from_edges(n, &[], vec![1; n])
    }

    #[test]
    fn chain_stays_on_one_core_one_superstep() {
        // A pure chain has no parallelism; Rule I keeps every newly-exclusive
        // vertex on the same core, so the whole chain should fit in very few
        // supersteps (each of size up to the final α) on core 0.
        let g = chain(200);
        let s = GrowLocal::new().schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
        assert!(
            s.n_supersteps() <= 8,
            "chain of 200 used {} supersteps — exclusivity growth is broken",
            s.n_supersteps()
        );
        // All on one core (no reason to migrate a chain).
        assert!(s.cores().iter().all(|&c| c == s.core_of(0)));
    }

    #[test]
    fn independent_work_is_few_supersteps_balanced() {
        let g = independent(1000);
        let s = GrowLocal::new().schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
        // α-growth rounding can leave a small remainder superstep, but fully
        // independent work must not fragment further.
        assert!(s.n_supersteps() <= 2, "{} supersteps for independent work", s.n_supersteps());
        let stats = s.stats(&g);
        assert!(stats.work_efficiency(4) > 0.9, "efficiency {}", stats.work_efficiency(4));
    }

    #[test]
    fn id_based_selection_gives_contiguity() {
        // With independent vertices every (superstep, core) cell must be a
        // contiguous ID range — the locality property of Rule I(ii).
        let g = independent(400);
        let s = GrowLocal::new().schedule(&g, 4);
        for (step, row) in s.cells().iter().enumerate() {
            for (core, cell) in row.iter().enumerate() {
                if let (Some(&first), Some(&last)) = (cell.first(), cell.last()) {
                    assert_eq!(
                        last - first + 1,
                        cell.len(),
                        "cell (step {step}, core {core}) is not contiguous"
                    );
                }
            }
        }
    }

    #[test]
    fn fewer_barriers_than_wavefronts_on_grid() {
        // Block-shuffled numbering: realistic multi-source DAG (see
        // sptrsv_sparse::gen::shuffle). On such inputs GrowLocal's private
        // regions collide and barriers are inserted — the regular regime.
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let a = sptrsv_sparse::gen::grid::grid2d_laplacian(
            30,
            30,
            sptrsv_sparse::gen::grid::Stencil2D::FivePoint,
            0.5,
        );
        let p = sptrsv_sparse::gen::shuffle::block_shuffle_permutation(900, 32, &mut rng);
        let l = a.symmetric_permute(&p).unwrap().lower_triangle().unwrap();
        let g = SolveDag::from_lower_triangular(&l);
        let s = GrowLocal::new().schedule(&g, 4);
        assert!(s.validate(&g).is_ok());
        assert!(s.n_supersteps() > 1, "shuffled grid should need barriers");
        let wf = wavefronts(&g);
        assert!(
            s.n_supersteps() * 3 < wf.n_fronts(),
            "GrowLocal used {} supersteps vs {} wavefronts",
            s.n_supersteps(),
            wf.n_fronts()
        );
    }

    #[test]
    fn single_core_is_serial_like() {
        let g = chain(50);
        let s = GrowLocal::new().schedule(&g, 1);
        assert!(s.validate(&g).is_ok());
        assert!(s.cores().iter().all(|&c| c == 0));
        // With one core every iteration scores β = Ω/(Ω+L) which grows with
        // α, so supersteps keep growing: barrier count must be tiny.
        assert!(s.n_supersteps() <= 3, "{} supersteps on one core", s.n_supersteps());
    }

    #[test]
    fn id_only_ablation_is_valid() {
        let g = chain(100);
        let gl = GrowLocal::with_params(GrowLocalParams {
            priority: VertexPriority::IdOnly,
            ..Default::default()
        });
        let s = gl.schedule(&g, 3);
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn empty_dag() {
        let g = independent(0);
        let s = GrowLocal::new().schedule(&g, 2);
        assert_eq!(s.n_vertices(), 0);
        assert_eq!(s.n_supersteps(), 0);
    }

    #[test]
    fn weighted_balance() {
        // Heavy + light vertices, all independent: the per-core weights in
        // the single superstep should be within a factor ~1.5.
        let weights: Vec<u64> = (0..300).map(|i| 1 + (i % 10) as u64).collect();
        let g = SolveDag::from_edges(300, &[], weights);
        let s = GrowLocal::new().schedule(&g, 3);
        assert!(s.validate(&g).is_ok());
        let stats = s.stats(&g);
        assert!(stats.average_imbalance() < 1.5, "imbalance {}", stats.average_imbalance());
    }
}
