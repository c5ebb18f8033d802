//! Flat, executor-ready schedule layout.
//!
//! [`Schedule`] stores per-vertex assignments (`π`, `σ`) — the natural form
//! for schedulers and validation. Executors need the transposed view: *the
//! vertices of each `(superstep, core)` cell, in execution order*. The seed
//! implementation materialized that view as a nested
//! `Vec<Vec<Vec<usize>>>` ([`Schedule::cells`]) — one heap allocation per
//! cell, pointer-chasing on the hot path, and a full re-materialization in
//! every consumer (barrier executor, multi-RHS executor, async executor,
//! simulator, reordering).
//!
//! [`CompiledSchedule`] is the CSR-style replacement: one flat vertex-order
//! array (cells concatenated superstep-major, cores in order, ascending IDs
//! within a cell — exactly the §5 locality-reordering enumeration) plus one
//! offset array indexing it. Both arrays are `u32` (half the memory traffic
//! of the seed's `usize` cells), and the build reads the schedule's
//! assignment arrays exactly once: a single fused pass computes each
//! vertex's cell key and the cell histogram together, and the scatter pass
//! then consumes the cached keys.

use crate::schedule::Schedule;

/// A [`Schedule`] compiled to the flat cell layout executors consume.
///
/// Layout: `order` is every vertex exactly once, grouped by
/// `(superstep, core)` with supersteps outermost; `cell_ptr[s·k + p]..
/// cell_ptr[s·k + p + 1]` delimits cell `(s, p)`. Vertices within a cell
/// ascend in ID (the order a core executes them, see
/// [`Schedule::validate`]). Vertex IDs and offsets are `u32`; schedules are
/// capped at `u32::MAX` vertices (asserted at build).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSchedule {
    n_cores: usize,
    n_supersteps: usize,
    order: Vec<u32>,
    cell_ptr: Vec<u32>,
}

impl CompiledSchedule {
    /// Compiles a schedule by counting sort over `(superstep, core)` keys.
    ///
    /// The schedule's `steps`/`cores` arrays are read in one fused pass that
    /// computes each vertex's `u32` cell key, validates the core range and
    /// accumulates the cell histogram; the scatter then replays the cached
    /// keys, and the offset array doubles as the scatter cursor (shifted
    /// back afterwards), so no separate cursor array is allocated. Scanning
    /// vertices in increasing ID makes every cell ascend in ID without a
    /// sort.
    pub fn from_schedule(schedule: &Schedule) -> CompiledSchedule {
        let n = schedule.n_vertices();
        let k = schedule.n_cores();
        let s = schedule.n_supersteps();
        let n_cells = s * k;
        assert!(n <= u32::MAX as usize, "compiled schedules cap at u32::MAX vertices");
        assert!(n_cells < u32::MAX as usize, "superstep×core grid overflows u32 keys");
        // Fused pass: cell key per vertex + histogram + core bound check (the
        // seed's nested `cells()` panicked on out-of-range cores — a counting
        // sort would silently misfile instead). Writing the cached keys
        // through `iter_mut` instead of `push` keeps the loop free of
        // capacity checks.
        let mut keys: Vec<u32> = vec![0; n];
        let mut cell_ptr = vec![0u32; n_cells + 1];
        let pairs = schedule.steps().iter().zip(schedule.cores());
        for (slot, (&step, &core)) in keys.iter_mut().zip(pairs) {
            assert!(core < k, "schedule assigns a core >= n_cores ({k})");
            let key = (step * k + core) as u32;
            *slot = key;
            cell_ptr[key as usize + 1] += 1;
        }
        for c in 0..n_cells {
            cell_ptr[c + 1] += cell_ptr[c];
        }
        // Scatter, using cell_ptr itself as the cursor. The cursor ranges
        // partition `0..n`, so every `order` slot is written exactly once —
        // writing through the spare capacity skips the zero-fill a
        // `vec![0; n]` would pay.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let spare = order.spare_capacity_mut();
        for (v, &key) in keys.iter().enumerate() {
            let slot = cell_ptr[key as usize];
            spare[slot as usize].write(v as u32);
            cell_ptr[key as usize] = slot + 1;
        }
        // SAFETY: the histogram counts each vertex once and the prefix sum
        // makes the cursor ranges disjoint and exhaustive, so the scatter
        // initialized every element in 0..n.
        unsafe {
            order.set_len(n);
        }
        // …then shift it back: after the scatter, cell_ptr[c] is the *end*
        // of cell c, i.e. the start of cell c + 1.
        for c in (1..=n_cells).rev() {
            cell_ptr[c] = cell_ptr[c - 1];
        }
        if let Some(first) = cell_ptr.first_mut() {
            *first = 0;
        }
        CompiledSchedule { n_cores: k, n_supersteps: s, order, cell_ptr }
    }

    /// Number of scheduled vertices.
    pub fn n_vertices(&self) -> usize {
        self.order.len()
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of supersteps.
    pub fn n_supersteps(&self) -> usize {
        self.n_supersteps
    }

    /// Number of synchronization barriers a barrier execution pays (one
    /// between each pair of consecutive supersteps).
    pub fn n_barriers(&self) -> usize {
        self.n_supersteps.saturating_sub(1)
    }

    /// The vertices of cell `(step, core)`, ascending in ID.
    #[inline]
    pub fn cell(&self, step: usize, core: usize) -> &[u32] {
        let c = step * self.n_cores + core;
        &self.order[self.cell_ptr[c] as usize..self.cell_ptr[c + 1] as usize]
    }

    /// The cells of one superstep, one slice per core.
    pub fn step_cells(&self, step: usize) -> impl Iterator<Item = &[u32]> {
        (0..self.n_cores).map(move |p| self.cell(step, p))
    }

    /// All vertices in execution-plan order (supersteps outermost, then
    /// cores, ascending IDs within a cell) — the §5 reordering enumeration.
    pub fn vertex_order(&self) -> &[u32] {
        &self.order
    }

    /// The per-vertex core assignment, recovered from the layout (one pass
    /// over the cells). Consumers that only hold the compiled form — the
    /// asynchronous executor and simulator — use this instead of carrying
    /// the originating [`Schedule`] around.
    pub fn core_assignment(&self) -> Vec<u32> {
        let mut core_of = vec![0u32; self.order.len()];
        for step in 0..self.n_supersteps {
            for core in 0..self.n_cores {
                for &v in self.cell(step, core) {
                    core_of[v as usize] = core as u32;
                }
            }
        }
        core_of
    }

    /// Consumes the compiled schedule, returning the plan-order array.
    pub fn into_vertex_order(self) -> Vec<u32> {
        self.order
    }

    /// Expands back to the nested representation of [`Schedule::cells`]
    /// (round-trip check in tests; executors never call this).
    pub fn to_cells(&self) -> Vec<Vec<Vec<usize>>> {
        (0..self.n_supersteps)
            .map(|s| {
                (0..self.n_cores)
                    .map(|p| self.cell(s, p).iter().map(|&v| v as usize).collect())
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_nested_cells() {
        // 2 cores, 3 supersteps, interleaved assignment.
        let core_of = vec![0, 1, 0, 1, 0, 1, 0];
        let step_of = vec![0, 0, 1, 1, 2, 2, 2];
        let s = Schedule::new(2, core_of, step_of);
        let c = CompiledSchedule::from_schedule(&s);
        assert_eq!(c.to_cells(), s.cells());
        assert_eq!(c.n_vertices(), 7);
        assert_eq!(c.cell(2, 0), &[4, 6]);
        assert_eq!(c.cell(2, 1), &[5]);
        assert_eq!(c.n_barriers(), 2);
    }

    #[test]
    fn cells_ascend_in_id() {
        let core_of: Vec<usize> = (0..100).map(|v| v % 3).collect();
        let step_of: Vec<usize> = (0..100).map(|v| (v / 10) % 4).collect();
        let s = Schedule::new(3, core_of, step_of);
        let c = CompiledSchedule::from_schedule(&s);
        for step in 0..c.n_supersteps() {
            for cell in c.step_cells(step) {
                assert!(cell.windows(2).all(|w| w[0] < w[1]), "cell not ascending: {cell:?}");
            }
        }
    }

    #[test]
    fn vertex_order_is_a_permutation_in_plan_order() {
        let s = Schedule::new(2, vec![0, 1, 0, 1], vec![0, 0, 1, 1]);
        let c = CompiledSchedule::from_schedule(&s);
        assert_eq!(c.vertex_order(), &[0, 1, 2, 3]);
        let mut seen = [false; 4];
        for &v in c.vertex_order() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn core_assignment_round_trips() {
        let core_of = vec![0usize, 2, 1, 0, 2, 1, 0];
        let step_of = vec![0usize, 0, 0, 1, 1, 2, 2];
        let s = Schedule::new(3, core_of.clone(), step_of);
        let c = CompiledSchedule::from_schedule(&s);
        let recovered: Vec<usize> = c.core_assignment().iter().map(|&p| p as usize).collect();
        assert_eq!(recovered, core_of);
    }

    #[test]
    fn empty_and_serial_schedules() {
        let empty = CompiledSchedule::from_schedule(&Schedule::new(2, vec![], vec![]));
        assert_eq!(empty.n_vertices(), 0);
        assert_eq!(empty.n_supersteps(), 0);
        assert_eq!(empty.n_barriers(), 0);
        let serial = CompiledSchedule::from_schedule(&Schedule::serial(5));
        assert_eq!(serial.cell(0, 0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "core >= n_cores")]
    fn out_of_range_core_rejected() {
        let s = Schedule::new(2, vec![0, 2, 0], vec![0, 0, 1]);
        let _ = CompiledSchedule::from_schedule(&s);
    }

    #[test]
    fn empty_cells_are_empty_slices() {
        // Core 1 idles in step 1.
        let s = Schedule::new(2, vec![0, 1, 0], vec![0, 0, 1]);
        let c = CompiledSchedule::from_schedule(&s);
        assert_eq!(c.cell(1, 1), &[] as &[u32]);
        assert_eq!(c.cell(1, 0), &[2]);
    }
}
