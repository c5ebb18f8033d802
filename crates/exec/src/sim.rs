//! Calibrated multicore machine model.
//!
//! The paper's speed-up numbers come from 22–64-core machines, an order of
//! magnitude more cores than the 2-vCPU machines this reproduction is
//! measured on, so the modeled speed-up experiments run against a machine
//! model instead; wall-clock speed-ups are measured separately (drift-bench,
//! `benchmark/`). The model charges, per vertex `v` (row `i` of the matrix):
//!
//! * `cycles_per_row` — loop, division and store overhead;
//! * `cycles_per_nnz · nnz(i)` — multiply-add plus streaming of the row's
//!   values/indices, scaled by a bandwidth-saturation factor when several
//!   cores are active;
//! * `cycles_per_miss` per miss of the per-core data cache, simulated with
//!   an exact LRU over 64-byte lines of the `x`/`b` vectors — this is where
//!   the §5 locality reordering and GrowLocal's ID-contiguity pay off;
//!
//! plus `barrier_cycles` per superstep barrier (the `L` of §3 scaled to a
//! full `k`-core barrier), or point-to-point wait costs in the asynchronous
//! (SpMP) mode. Three presets mirror the paper's machines (§6.3). Absolute
//! numbers are model units; only relative shapes are meaningful.
//!
//! The cache and coherence state is dense and preallocated per call, so
//! charging a stored non-zero is a few array reads: the tuner simulates
//! every candidate, which puts this loop on the `auto` planning path.
//!
//! The [`ExecPolicy`] dimensions are modeled too (§8): `sync=full` waits on
//! every solve-DAG edge instead of the reduction (more point-to-point
//! checks), and `backoff=yield` charges `yield_resume_cycles` — the OS
//! re-scheduling latency — whenever a wait actually blocks (a spinning
//! waiter observes the flag at flag-propagation latency; a yielding waiter
//! must first be re-scheduled). The `cores=N` policy key reaches the
//! simulator through the schedule itself: the plan/CLI/harness resolve it
//! into the scheduling core count, so the [`CompiledSchedule`] handed to
//! `simulate_*` already has `N` cores (capped by the profile's
//! `max_cores`, like any other core count).
//!
//! `fastmath=on` is modeled as a post-hoc compute discount in
//! [`simulate_model`]: the kernel plan's dense blocks fuse the per-row
//! loop/divide/store overhead of all rows after the first of each block
//! (the dense kernel runs one packed loop nest and multiplies by
//! precomputed reciprocals instead of dividing), so each block credits
//! `(rows − 1) · cycles_per_row / 2` cycles back.

use crate::executor::wait_dag;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{Backoff, ExecModel, ExecPolicy};
use sptrsv_core::CompiledSchedule;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::CsrMatrix;

/// Doubles per 64-byte cache line.
const LINE: usize = 8;

/// Cost of checking an already-set ready flag (async mode, cache-hot load).
const CHECK_HIT_CYCLES: f64 = 2.0;

/// A simulated machine.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Physical cores available (caps `Schedule::n_cores`).
    pub max_cores: usize,
    /// Cycles per stored non-zero (FMA + streaming of values/indices).
    pub cycles_per_nnz: f64,
    /// Cycles of per-row overhead (loop, divide, store).
    pub cycles_per_row: f64,
    /// Per-core data cache capacity in 64-byte lines.
    pub cache_lines: usize,
    /// Penalty per cache miss on the x/b vectors.
    pub cycles_per_miss: f64,
    /// Cost of one global synchronization barrier.
    pub barrier_cycles: f64,
    /// Async mode: overhead per awaited cross-core dependency.
    pub p2p_check_cycles: f64,
    /// OS re-scheduling latency charged per *blocking* wait under the
    /// `backoff=yield` policy (a yielded thread must be re-scheduled before
    /// it observes the flag).
    pub yield_resume_cycles: f64,
    /// Number of cores that saturate the memory bandwidth; beyond this,
    /// streaming cost scales up linearly with the active core count.
    pub bandwidth_cores: f64,
}

impl MachineProfile {
    /// Intel Xeon Gold 6238T-like profile (22 cores, §6.3).
    pub fn intel_xeon_22() -> Self {
        MachineProfile {
            name: "Intel x86 (22 cores)",
            max_cores: 22,
            cycles_per_nnz: 2.0,
            cycles_per_row: 10.0,
            // 32 KiB modeled per-core cache: the paper's machines pair ~1 MiB
            // private L2 with 4–33 MiB solution vectors; our scaled-down data
            // sets keep the same vector/cache ratio with a scaled-down cache.
            cache_lines: 512,
            cycles_per_miss: 70.0,
            barrier_cycles: 1800.0,
            p2p_check_cycles: 120.0,
            yield_resume_cycles: 6000.0,
            bandwidth_cores: 9.0,
        }
    }

    /// AMD EPYC 7763-like profile (64 cores, §6.3).
    pub fn amd_epyc_64() -> Self {
        MachineProfile {
            name: "AMD x86 (64 cores)",
            max_cores: 64,
            cycles_per_nnz: 2.0,
            cycles_per_row: 10.0,
            cache_lines: 384, // 24 KiB (scaled, see intel profile comment)
            cycles_per_miss: 85.0,
            barrier_cycles: 3200.0, // larger, chiplet-crossing barrier
            p2p_check_cycles: 160.0,
            yield_resume_cycles: 8000.0,
            bandwidth_cores: 11.0,
        }
    }

    /// Huawei Kunpeng 920-like profile (48 ARM cores, §6.3).
    pub fn kunpeng_920_48() -> Self {
        MachineProfile {
            name: "Huawei ARM (48 cores)",
            max_cores: 48,
            cycles_per_nnz: 2.2,
            cycles_per_row: 11.0,
            cache_lines: 448, // 28 KiB (scaled, see intel profile comment)
            cycles_per_miss: 75.0,
            barrier_cycles: 2200.0,
            p2p_check_cycles: 130.0,
            yield_resume_cycles: 7000.0,
            bandwidth_cores: 10.0,
        }
    }

    /// The three paper machines.
    pub fn all() -> Vec<MachineProfile> {
        vec![Self::intel_xeon_22(), Self::amd_epyc_64(), Self::kunpeng_920_48()]
    }

    /// Streaming-cost multiplier when `active` cores run concurrently.
    fn bandwidth_factor(&self, active: usize) -> f64 {
        (active as f64 / self.bandwidth_cores).max(1.0)
    }
}

/// Outcome of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total modeled cycles (makespan).
    pub cycles: f64,
    /// Cycles spent in row compute + streaming (critical path share).
    pub compute_cycles: f64,
    /// Cycles spent in barriers / point-to-point waiting overhead
    /// (critical path share, so never more than `cycles`).
    pub sync_cycles: f64,
    /// Total cache misses across all cores.
    pub cache_misses: u64,
}

impl SimReport {
    /// Speed-up of this run relative to a baseline (usually the serial run).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.cycles / self.cycles
    }
}

/// Per-core LRU cache over vector lines, with MESI-style invalidation: an
/// entry is stale (and re-touching it is a coherence miss) when another
/// core has written the line since it was loaded. Cross-core value
/// transfer therefore always costs a miss — the physical effect
/// GrowLocal's private regions and the §5 reordering minimize.
///
/// Exact LRU over dense state: a slot index per line of `x` (4 bytes per
/// line per core) and at most `capacity` slots on a circular,
/// doubly-linked recency list, so a touch and an eviction are O(1)
/// without hashing.
struct LruCache {
    capacity: usize,
    /// line -> index of the slot holding it in `slots` (0: not cached).
    slot_of: Vec<u32>,
    /// Slot 0 is the list's sentinel: its `next` is the most recently
    /// touched line, its `prev` the least recently touched one.
    slots: Vec<Slot>,
}

/// One cached line on the recency list.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    line: u32,
    prev: u32,
    next: u32,
    /// The line version this core holds.
    held: u64,
}

/// Global coherence directory: the latest version of each line of `x`
/// (0 if never written).
struct CoherenceDirectory {
    version_counter: u64,
    line_version: Vec<u64>,
}

/// Cache lines spanned by the `x`/`b` vectors of `matrix`.
fn n_lines(matrix: &CsrMatrix) -> usize {
    matrix.n_rows().max(matrix.n_cols()).div_ceil(LINE)
}

impl CoherenceDirectory {
    fn new(n_lines: usize) -> Self {
        CoherenceDirectory { version_counter: 0, line_version: vec![0; n_lines] }
    }

    /// Registers a write of `line`; returns the new version.
    fn record_write(&mut self, line: usize) -> u64 {
        self.version_counter += 1;
        self.line_version[line] = self.version_counter;
        self.version_counter
    }

    /// Current version of `line` (0 if never written).
    fn version(&self, line: usize) -> u64 {
        self.line_version[line]
    }
}

impl LruCache {
    /// An empty cache of `capacity` lines over a vector of `n_lines` lines.
    fn new(capacity: usize, n_lines: usize) -> Self {
        // No more distinct lines than the vector has can ever be cached.
        let mut slots = Vec::with_capacity(capacity.min(n_lines) + 1);
        slots.push(Slot::default());
        LruCache { capacity: capacity.max(1), slot_of: vec![0; n_lines], slots }
    }

    /// Touches a line whose current global version is `version`; returns
    /// `true` on a miss (absent, evicted, or invalidated by a newer write).
    fn touch(&mut self, line: usize, version: u64) -> bool {
        let s = self.slot_of[line] as usize;
        if s != 0 {
            let slot = &mut self.slots[s];
            let miss = slot.held < version;
            slot.held = version;
            if self.slots[0].next as usize != s {
                self.unlink(s);
                self.push_front(s);
            }
            return miss;
        }
        let s = if self.slots.len() <= self.capacity {
            self.slots.push(Slot::default());
            self.slots.len() - 1
        } else {
            let lru = self.slots[0].prev as usize;
            self.slot_of[self.slots[lru].line as usize] = 0;
            self.unlink(lru);
            lru
        };
        self.slots[s].line = line as u32;
        self.slots[s].held = version;
        self.slot_of[line] = s as u32;
        self.push_front(s);
        true
    }

    fn unlink(&mut self, s: usize) {
        let Slot { prev, next, .. } = self.slots[s];
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
    }

    fn push_front(&mut self, s: usize) {
        let head = self.slots[0].next;
        self.slots[s].prev = 0;
        self.slots[s].next = head;
        self.slots[head as usize].prev = s as u32;
        self.slots[0].next = s as u32;
    }
}

/// Cost of computing row `i` against a core's cache and the coherence
/// directory (the final write of `x[i]` invalidates the line for every
/// other core).
fn row_cost(
    matrix: &CsrMatrix,
    i: usize,
    cache: &mut LruCache,
    directory: &mut CoherenceDirectory,
    profile: &MachineProfile,
    bandwidth_factor: f64,
    misses: &mut u64,
) -> f64 {
    let (cols, _) = matrix.row(i);
    let mut cost =
        profile.cycles_per_row + profile.cycles_per_nnz * bandwidth_factor * cols.len() as f64;
    // x-vector accesses: all referenced columns; a read of a line last
    // written by another core is always a coherence miss.
    // Misses are DRAM (or cross-core) traffic, so they contend for memory
    // bandwidth exactly like the streaming of the matrix itself.
    for &c in cols {
        let line = c / LINE;
        if cache.touch(line, directory.version(line)) {
            cost += profile.cycles_per_miss * bandwidth_factor;
            *misses += 1;
        }
    }
    // The write of x[i] takes ownership of its line.
    let own = i / LINE;
    let version = directory.record_write(own);
    cache.touch(own, version);
    cost
}

/// Routes a compiled schedule to the simulator matching `model` — the one
/// place the [`ExecModel`]-to-simulator mapping lives. Its callers are
/// [`SolvePlan::simulate`](crate::plan::SolvePlan::simulate), the route of
/// the CLI's `simulate` command and the examples, and the bench harness.
///
/// Asynchronous execution waits on `sync_dag` when given (callers that
/// already hold a synchronization DAG — e.g. a plan's cached copy, already
/// shaped by its policy — pass it to avoid rebuilding); with `None` the DAG
/// is derived here by [`wait_dag`], the rule every plan follows: the full
/// solve DAG under `sync=full`, or its approximate transitive reduction.
/// `policy.backoff` charges OS re-scheduling latency on blocking waits
/// under `yield` (per-barrier in the barrier model, per-blocking-wait in
/// the async model). Under `policy.fastmath` the dense-block discount reads
/// `kernel` when given (a plan's own detection over the same operand and
/// layout); with `None` it detects here.
pub fn simulate_model(
    matrix: &CsrMatrix,
    compiled: &CompiledSchedule,
    model: ExecModel,
    sync_dag: Option<&SolveDag>,
    kernel: Option<&KernelPlan>,
    profile: &MachineProfile,
    policy: ExecPolicy,
) -> SimReport {
    let mut report = simulate_model_exact(matrix, compiled, model, sync_dag, profile, policy);
    if policy.fastmath {
        // Dense blocks fuse the loop/divide/store overhead of every row
        // after a block's first into one packed kernel invocation (the
        // divides become reciprocal multiplies amortized over the block);
        // credit half the per-row overhead of those fused rows back. The
        // executors run the same kernel plan, so the model detects the
        // same blocks the real solve would.
        let detected;
        let kernel = match kernel {
            Some(plan) => plan,
            None => {
                detected = KernelPlan::detect(matrix, compiled);
                &detected
            }
        };
        let fused: f64 = kernel.blocks().iter().map(|blk| (blk.rows - 1) as f64).sum();
        let discount = (fused * profile.cycles_per_row * 0.5).min(report.compute_cycles * 0.5);
        report.compute_cycles -= discount;
        report.cycles -= discount;
    }
    report
}

/// The exact-arithmetic (`fastmath=off`) routing behind [`simulate_model`].
fn simulate_model_exact(
    matrix: &CsrMatrix,
    compiled: &CompiledSchedule,
    model: ExecModel,
    sync_dag: Option<&SolveDag>,
    profile: &MachineProfile,
    policy: ExecPolicy,
) -> SimReport {
    match model {
        ExecModel::Barrier => {
            let mut report = simulate_barrier(matrix, compiled, profile);
            if policy.backoff == Backoff::Yield {
                // Every barrier release re-schedules the yielded waiters.
                let extra = profile.yield_resume_cycles * compiled.n_barriers() as f64;
                report.sync_cycles += extra;
                report.cycles += extra;
            }
            report
        }
        ExecModel::Serial => simulate_serial(matrix, profile),
        ExecModel::Async => {
            let built;
            let sync = match sync_dag {
                Some(dag) => dag,
                None => {
                    let full = || SolveDag::from_lower_triangular(matrix);
                    built = wait_dag(model, policy.sync, full).expect("async executions wait");
                    &built
                }
            };
            simulate_async(matrix, compiled, sync, profile, policy.backoff)
        }
    }
}

/// Simulates a serial execution (one core, no synchronization).
pub fn simulate_serial(matrix: &CsrMatrix, profile: &MachineProfile) -> SimReport {
    let lines = n_lines(matrix);
    let mut cache = LruCache::new(profile.cache_lines, lines);
    let mut directory = CoherenceDirectory::new(lines);
    let mut misses = 0u64;
    let mut compute = 0.0;
    for i in 0..matrix.n_rows() {
        compute += row_cost(matrix, i, &mut cache, &mut directory, profile, 1.0, &mut misses);
    }
    SimReport { cycles: compute, compute_cycles: compute, sync_cycles: 0.0, cache_misses: misses }
}

/// Simulates a barrier (BSP) execution of a compiled schedule.
///
/// Per superstep the makespan is the maximum per-thread time; one barrier
/// is charged between consecutive supersteps. Each thread keeps a private
/// cache that persists across supersteps; schedule cores beyond the
/// profile's core cap wrap around (`c mod k`, matching the executors'
/// striding). Taking the [`CompiledSchedule`] lets repeated simulations of
/// one plan reuse the plan's own compiled layout (see
/// [`crate::plan::SolvePlan::simulate`]) instead of rebuilding it per
/// call.
pub fn simulate_barrier(
    matrix: &CsrMatrix,
    compiled: &CompiledSchedule,
    profile: &MachineProfile,
) -> SimReport {
    let k = compiled.n_cores().min(profile.max_cores);
    let lines = n_lines(matrix);
    let mut caches: Vec<LruCache> =
        (0..k).map(|_| LruCache::new(profile.cache_lines, lines)).collect();
    let mut directory = CoherenceDirectory::new(lines);
    let mut misses = 0u64;
    let mut compute = 0.0;
    let mut thread_time = vec![0.0f64; k];
    for step in 0..compiled.n_supersteps() {
        let active = k.min(compiled.step_cells(step).filter(|cell| !cell.is_empty()).count());
        let bw = profile.bandwidth_factor(active.max(1));
        thread_time.fill(0.0);
        for (c, cell) in compiled.step_cells(step).enumerate() {
            let t = c % k;
            for &v in cell {
                thread_time[t] += row_cost(
                    matrix,
                    v as usize,
                    &mut caches[t],
                    &mut directory,
                    profile,
                    bw,
                    &mut misses,
                );
            }
        }
        compute += thread_time.iter().copied().fold(0.0f64, f64::max);
    }
    let sync = profile.barrier_cycles * compiled.n_barriers() as f64;
    SimReport {
        cycles: compute + sync,
        compute_cycles: compute,
        sync_cycles: sync,
        cache_misses: misses,
    }
}

/// Simulates an asynchronous (point-to-point) execution, SpMP-style.
///
/// Every core walks its cells of the compiled schedule in order; a vertex
/// starts at the maximum of its core's clock and the finish times of its
/// cross-core parents in `sync_dag` (plus a per-wait check overhead; a
/// *blocking* wait under `backoff = yield` additionally pays the OS
/// re-scheduling latency). No barriers. Like [`simulate_barrier`], the
/// compiled layout is taken by reference so plan-based callers reuse their
/// shared `Arc`.
pub fn simulate_async(
    matrix: &CsrMatrix,
    compiled: &CompiledSchedule,
    sync_dag: &SolveDag,
    profile: &MachineProfile,
    backoff: Backoff,
) -> SimReport {
    let n = matrix.n_rows();
    let k = compiled.n_cores().min(profile.max_cores);
    let lines = n_lines(matrix);
    let mut caches: Vec<LruCache> =
        (0..k).map(|_| LruCache::new(profile.cache_lines, lines)).collect();
    let mut directory = CoherenceDirectory::new(lines);
    let mut finish = vec![0.0f64; n];
    let mut core_time = vec![0.0f64; k];
    // Per core: the part of its clock spent waiting.
    let mut core_sync = vec![0.0f64; k];
    let mut misses = 0u64;
    let bw = profile.bandwidth_factor(k);
    let core_of = compiled.core_assignment();
    // Processing cells in (superstep, core) order is consistent with each
    // core's own program order and guarantees parents are processed first
    // (same-step parents share the core and precede in ID order).
    for step in 0..compiled.n_supersteps() {
        for (p, cell) in compiled.step_cells(step).enumerate() {
            let p = p.min(k - 1);
            for &v in cell {
                let v = v as usize;
                let mut start = core_time[p];
                for &u in sync_dag.parents(v) {
                    if (core_of[u] as usize).min(k - 1) != p {
                        if finish[u] > start {
                            // Actually waiting: idle until the producer
                            // finishes, plus the flag-propagation latency —
                            // and, for a yielded waiter, the OS
                            // re-scheduling latency before it runs again.
                            let resume = match backoff {
                                Backoff::Spin => 0.0,
                                Backoff::Yield => profile.yield_resume_cycles,
                            };
                            core_sync[p] += (finish[u] - start) + profile.p2p_check_cycles + resume;
                            start = finish[u] + profile.p2p_check_cycles + resume;
                        } else {
                            // Flag already set: one cheap acquire load.
                            start += CHECK_HIT_CYCLES;
                            core_sync[p] += CHECK_HIT_CYCLES;
                        }
                    }
                }
                let cost =
                    row_cost(matrix, v, &mut caches[p], &mut directory, profile, bw, &mut misses);
                finish[v] = start + cost;
                core_time[p] = finish[v];
            }
        }
    }
    // As in `simulate_barrier`, sync is the critical path's share: the
    // waiting of the core that finishes last (the first such core on a
    // tie), not the sum over cores.
    let (cycles, sync) = core_time
        .iter()
        .zip(&core_sync)
        .fold((0.0f64, 0.0f64), |last, (&t, &w)| if t > last.0 { (t, w) } else { last });
    SimReport { cycles, compute_cycles: cycles - sync, sync_cycles: sync, cache_misses: misses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sptrsv_core::registry::SyncPolicy;
    use sptrsv_core::{GrowLocal, Scheduler, SpMp, WavefrontScheduler};
    use sptrsv_dag::transitive::approximate_transitive_reduction;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};

    /// A grid with a realistic (block-shuffled) row numbering: locally
    /// contiguous, many DAG sources — see `sptrsv_sparse::gen::shuffle`.
    fn grid_problem(w: usize, h: usize) -> (CsrMatrix, SolveDag) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let a = grid2d_laplacian(w, h, Stencil2D::FivePoint, 0.5);
        let p = sptrsv_sparse::gen::shuffle::block_shuffle_permutation(a.n_rows(), 32, &mut rng);
        let l = a.symmetric_permute(&p).unwrap().lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        (l, dag)
    }

    #[test]
    fn lru_cache_behaviour() {
        let mut c = LruCache::new(2, 4);
        assert!(c.touch(1, 0));
        assert!(c.touch(2, 0));
        assert!(!c.touch(1, 0)); // hit
        assert!(c.touch(3, 0)); // evicts 2 (LRU)
        assert!(!c.touch(1, 0));
        assert!(c.touch(2, 0)); // 2 was evicted
    }

    #[test]
    fn coherence_invalidation_forces_miss() {
        let mut dir = CoherenceDirectory::new(8);
        let mut c0 = LruCache::new(8, 8);
        let mut c1 = LruCache::new(8, 8);
        // Core 0 loads line 5, then core 1 writes it: core 0 must miss.
        assert!(c0.touch(5, dir.version(5)));
        assert!(!c0.touch(5, dir.version(5)));
        let v = dir.record_write(5);
        c1.touch(5, v);
        assert!(c0.touch(5, dir.version(5)), "stale line must be a coherence miss");
        assert!(!c1.touch(5, dir.version(5)), "the writer keeps ownership");
    }

    #[test]
    fn serial_cost_scales_with_nnz() {
        let (small, _) = grid_problem(10, 10);
        let (large, _) = grid_problem(20, 20);
        let p = MachineProfile::intel_xeon_22();
        let a = simulate_serial(&small, &p);
        let b = simulate_serial(&large, &p);
        assert!(b.cycles > 3.0 * a.cycles, "{} vs {}", b.cycles, a.cycles);
    }

    #[test]
    fn parallel_schedule_beats_serial_on_parallel_dag() {
        let (l, dag) = grid_problem(60, 60);
        let p = MachineProfile::intel_xeon_22();
        let serial = simulate_serial(&l, &p);
        let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 8));
        let par = simulate_barrier(&l, &s, &p);
        assert!(par.speedup_over(&serial) > 1.5, "speedup {} too low", par.speedup_over(&serial));
    }

    #[test]
    fn growlocal_beats_wavefront_in_model() {
        // The wavefront schedule pays a barrier per anti-diagonal; GrowLocal
        // pays a handful. On a machine with expensive barriers the model must
        // reflect the paper's core claim.
        let (l, dag) = grid_problem(40, 40);
        let p = MachineProfile::intel_xeon_22();
        let gl = simulate_barrier(
            &l,
            &CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 8)),
            &p,
        );
        let wf = simulate_barrier(
            &l,
            &CompiledSchedule::from_schedule(&WavefrontScheduler.schedule(&dag, 8)),
            &p,
        );
        assert!(gl.cycles < wf.cycles, "GrowLocal {} vs wavefront {} cycles", gl.cycles, wf.cycles);
    }

    #[test]
    fn async_mode_avoids_barrier_costs() {
        let (l, dag) = grid_problem(30, 30);
        let p = MachineProfile::intel_xeon_22();
        let s = CompiledSchedule::from_schedule(&SpMp.schedule(&dag, 8));
        let reduced = approximate_transitive_reduction(&dag);
        let barrier = simulate_barrier(&l, &s, &p);
        let asynchronous = simulate_async(&l, &s, &reduced, &p, Backoff::Spin);
        assert!(
            asynchronous.cycles < barrier.cycles,
            "async {} vs barrier {}",
            asynchronous.cycles,
            barrier.cycles
        );
    }

    #[test]
    fn yield_backoff_costs_more_when_waits_block() {
        let (l, dag) = grid_problem(30, 30);
        let p = MachineProfile::intel_xeon_22();
        let s = CompiledSchedule::from_schedule(&SpMp.schedule(&dag, 8));
        let reduced = approximate_transitive_reduction(&dag);
        let spin = simulate_async(&l, &s, &reduced, &p, Backoff::Spin);
        let yielded = simulate_async(&l, &s, &reduced, &p, Backoff::Yield);
        assert!(
            yielded.cycles >= spin.cycles,
            "yield {} must not beat spin {}",
            yielded.cycles,
            spin.cycles
        );
        // The barrier model charges re-scheduling per barrier.
        let policy_spin = ExecPolicy { backoff: Backoff::Spin, ..ExecPolicy::default() };
        let policy_yield = ExecPolicy { backoff: Backoff::Yield, ..ExecPolicy::default() };
        let b_spin = simulate_model(&l, &s, ExecModel::Barrier, None, None, &p, policy_spin);
        let b_yield = simulate_model(&l, &s, ExecModel::Barrier, None, None, &p, policy_yield);
        assert_eq!(b_yield.cycles - b_spin.cycles, p.yield_resume_cycles * s.n_barriers() as f64);
    }

    #[test]
    fn full_sync_dag_waits_on_more_edges_than_reduced() {
        let (l, dag) = grid_problem(30, 30);
        let p = MachineProfile::intel_xeon_22();
        let s = CompiledSchedule::from_schedule(&SpMp.schedule(&dag, 8));
        let full = ExecPolicy { sync: SyncPolicy::Full, ..ExecPolicy::default() };
        let reduced = ExecPolicy { sync: SyncPolicy::Reduced, ..ExecPolicy::default() };
        let r_full = simulate_model(&l, &s, ExecModel::Async, None, None, &p, full);
        let r_reduced = simulate_model(&l, &s, ExecModel::Async, None, None, &p, reduced);
        // Fewer awaited edges ⇒ no more synchronization overhead; both are
        // deterministic and distinct policies produce distinct wait DAGs.
        assert!(
            r_reduced.sync_cycles <= r_full.sync_cycles,
            "reduced sync {} vs full {}",
            r_reduced.sync_cycles,
            r_full.sync_cycles
        );
        assert_eq!(r_full, simulate_model(&l, &s, ExecModel::Async, None, None, &p, full));
    }

    #[test]
    fn fastmath_discount_shrinks_cycles_on_blocky_operands() {
        // A supernodal operand detects dense blocks, so the fastmath model
        // must charge strictly fewer cycles; fastmath never charges more.
        let l = sptrsv_sparse::gen::supernodal_spd(24, 8, 2, 0.5).lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 4));
        let p = MachineProfile::intel_xeon_22();
        let exact = ExecPolicy::default();
        let fast = ExecPolicy { fastmath: true, ..ExecPolicy::default() };
        for model in [ExecModel::Serial, ExecModel::Barrier, ExecModel::Async] {
            let base = simulate_model(&l, &s, model, None, None, &p, exact);
            let fm = simulate_model(&l, &s, model, None, None, &p, fast);
            assert!(fm.cycles < base.cycles, "{model}: {} !< {}", fm.cycles, base.cycles);
            assert_eq!(fm.sync_cycles, base.sync_cycles, "{model}: discount is compute-only");
            // Deterministic, like every other report.
            assert_eq!(fm, simulate_model(&l, &s, model, None, None, &p, fast));
        }
        // The discount never increases cycles, whatever is detected.
        let (grid, gdag) = grid_problem(12, 12);
        let gs = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&gdag, 4));
        let base = simulate_model(&grid, &gs, ExecModel::Barrier, None, None, &p, exact);
        let fm = simulate_model(&grid, &gs, ExecModel::Barrier, None, None, &p, fast);
        assert!(fm.cycles <= base.cycles);
    }

    #[test]
    fn reports_are_deterministic() {
        let (l, dag) = grid_problem(15, 15);
        let p = MachineProfile::kunpeng_920_48();
        let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 4));
        assert_eq!(simulate_barrier(&l, &s, &p), simulate_barrier(&l, &s, &p));
    }

    /// The hash-map implementation: a `HashMap` LRU with lazily evicted
    /// `VecDeque` stamps and a `HashMap` coherence directory, with the
    /// serial, barrier and asynchronous simulations over them. The dense
    /// state must reproduce it bit for bit.
    mod oracle {
        use super::*;
        use std::collections::{HashMap, VecDeque};

        pub struct LruCache {
            capacity: usize,
            stamp: u64,
            /// line -> (LRU stamp, line version held by this core).
            entries: HashMap<usize, (u64, u64)>,
            queue: VecDeque<(usize, u64)>,
        }

        impl LruCache {
            pub fn new(capacity: usize) -> Self {
                LruCache {
                    capacity: capacity.max(1),
                    stamp: 0,
                    entries: HashMap::new(),
                    queue: VecDeque::new(),
                }
            }

            pub fn touch(&mut self, line: usize, version: u64) -> bool {
                self.stamp += 1;
                let miss = match self.entries.insert(line, (self.stamp, version)) {
                    Some((_, held)) => held < version,
                    None => true,
                };
                self.queue.push_back((line, self.stamp));
                while self.entries.len() > self.capacity {
                    let (cand, stamp) = self.queue.pop_front().expect("queue tracks population");
                    if self.entries.get(&cand).is_some_and(|&(s, _)| s == stamp) {
                        self.entries.remove(&cand);
                    }
                }
                miss
            }
        }

        #[derive(Default)]
        pub struct CoherenceDirectory {
            version_counter: u64,
            /// line -> (writing core, version).
            line_version: HashMap<usize, (usize, u64)>,
        }

        impl CoherenceDirectory {
            pub fn record_write(&mut self, line: usize, core: usize) -> u64 {
                self.version_counter += 1;
                self.line_version.insert(line, (core, self.version_counter));
                self.version_counter
            }

            pub fn version(&self, line: usize) -> u64 {
                self.line_version.get(&line).map_or(0, |&(_, v)| v)
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn row_cost(
            matrix: &CsrMatrix,
            i: usize,
            core: usize,
            cache: &mut LruCache,
            directory: &mut CoherenceDirectory,
            profile: &MachineProfile,
            bandwidth_factor: f64,
            misses: &mut u64,
        ) -> f64 {
            let (cols, _) = matrix.row(i);
            let mut cost = profile.cycles_per_row
                + profile.cycles_per_nnz * bandwidth_factor * cols.len() as f64;
            for &c in cols {
                let line = c / LINE;
                if cache.touch(line, directory.version(line)) {
                    cost += profile.cycles_per_miss * bandwidth_factor;
                    *misses += 1;
                }
            }
            let own = i / LINE;
            let version = directory.record_write(own, core);
            cache.touch(own, version);
            cost
        }

        pub fn simulate_serial(matrix: &CsrMatrix, profile: &MachineProfile) -> SimReport {
            let mut cache = LruCache::new(profile.cache_lines);
            let mut directory = CoherenceDirectory::default();
            let mut misses = 0u64;
            let mut compute = 0.0;
            for i in 0..matrix.n_rows() {
                compute +=
                    row_cost(matrix, i, 0, &mut cache, &mut directory, profile, 1.0, &mut misses);
            }
            SimReport {
                cycles: compute,
                compute_cycles: compute,
                sync_cycles: 0.0,
                cache_misses: misses,
            }
        }

        pub fn simulate_barrier(
            matrix: &CsrMatrix,
            compiled: &CompiledSchedule,
            profile: &MachineProfile,
        ) -> SimReport {
            let k = compiled.n_cores().min(profile.max_cores);
            let mut caches: Vec<LruCache> =
                (0..k).map(|_| LruCache::new(profile.cache_lines)).collect();
            let mut directory = CoherenceDirectory::default();
            let mut misses = 0u64;
            let mut compute = 0.0;
            let mut thread_time = vec![0.0f64; k];
            for step in 0..compiled.n_supersteps() {
                let active =
                    k.min(compiled.step_cells(step).filter(|cell| !cell.is_empty()).count());
                let bw = profile.bandwidth_factor(active.max(1));
                thread_time.fill(0.0);
                for (c, cell) in compiled.step_cells(step).enumerate() {
                    let t = c % k;
                    for &v in cell {
                        thread_time[t] += row_cost(
                            matrix,
                            v as usize,
                            t,
                            &mut caches[t],
                            &mut directory,
                            profile,
                            bw,
                            &mut misses,
                        );
                    }
                }
                compute += thread_time.iter().copied().fold(0.0f64, f64::max);
            }
            let sync = profile.barrier_cycles * compiled.n_barriers() as f64;
            SimReport {
                cycles: compute + sync,
                compute_cycles: compute,
                sync_cycles: sync,
                cache_misses: misses,
            }
        }

        pub fn simulate_async(
            matrix: &CsrMatrix,
            compiled: &CompiledSchedule,
            sync_dag: &SolveDag,
            profile: &MachineProfile,
            backoff: Backoff,
        ) -> SimReport {
            let n = matrix.n_rows();
            let k = compiled.n_cores().min(profile.max_cores);
            let mut caches: Vec<LruCache> =
                (0..k).map(|_| LruCache::new(profile.cache_lines)).collect();
            let mut directory = CoherenceDirectory::default();
            let mut finish = vec![0.0f64; n];
            let mut core_time = vec![0.0f64; k];
            let mut core_sync = vec![0.0f64; k];
            let mut misses = 0u64;
            let bw = profile.bandwidth_factor(k);
            let core_of = compiled.core_assignment();
            for step in 0..compiled.n_supersteps() {
                for (p, cell) in compiled.step_cells(step).enumerate() {
                    let p = p.min(k - 1);
                    for &v in cell {
                        let v = v as usize;
                        let mut start = core_time[p];
                        for &u in sync_dag.parents(v) {
                            if (core_of[u] as usize).min(k - 1) != p {
                                if finish[u] > start {
                                    let resume = match backoff {
                                        Backoff::Spin => 0.0,
                                        Backoff::Yield => profile.yield_resume_cycles,
                                    };
                                    core_sync[p] +=
                                        (finish[u] - start) + profile.p2p_check_cycles + resume;
                                    start = finish[u] + profile.p2p_check_cycles + resume;
                                } else {
                                    start += CHECK_HIT_CYCLES;
                                    core_sync[p] += CHECK_HIT_CYCLES;
                                }
                            }
                        }
                        let cost = row_cost(
                            matrix,
                            v,
                            p,
                            &mut caches[p],
                            &mut directory,
                            profile,
                            bw,
                            &mut misses,
                        );
                        finish[v] = start + cost;
                        core_time[p] = finish[v];
                    }
                }
            }
            // The waiting of the first core to reach the makespan.
            let cycles = core_time.iter().copied().fold(0.0f64, f64::max);
            let sync = core_time.iter().position(|&t| t == cycles).map_or(0.0, |p| core_sync[p]);
            SimReport {
                cycles,
                compute_cycles: cycles - sync,
                sync_cycles: sync,
                cache_misses: misses,
            }
        }
    }

    /// Runs every model on `l` under `s` and requires the oracle's report,
    /// bit for bit (`SimReport`'s `PartialEq` would equate `0.0` and
    /// `-0.0`).
    fn assert_matches_oracle(l: &CsrMatrix, s: &CompiledSchedule, p: &MachineProfile, what: &str) {
        let bits = |r: &SimReport| {
            [
                r.cycles.to_bits(),
                r.compute_cycles.to_bits(),
                r.sync_cycles.to_bits(),
                r.cache_misses,
            ]
        };
        let full = SolveDag::from_lower_triangular(l);
        let reduced = approximate_transitive_reduction(&full);
        assert_eq!(
            bits(&simulate_serial(l, p)),
            bits(&oracle::simulate_serial(l, p)),
            "{what}: serial"
        );
        assert_eq!(
            bits(&simulate_barrier(l, s, p)),
            bits(&oracle::simulate_barrier(l, s, p)),
            "{what}: barrier"
        );
        for dag in [&full, &reduced] {
            for backoff in [Backoff::Spin, Backoff::Yield] {
                assert_eq!(
                    bits(&simulate_async(l, s, dag, p, backoff)),
                    bits(&oracle::simulate_async(l, s, dag, p, backoff)),
                    "{what}: async, {backoff:?}"
                );
            }
        }
    }

    #[test]
    fn edge_cases_match_the_oracle() {
        use sptrsv_core::Schedule;
        let intel = MachineProfile::intel_xeon_22();
        // n = 0 and n = 1, on one core and on more cores than rows.
        for n in [0, 1] {
            let mut coo = sptrsv_sparse::CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 2.0).unwrap();
            }
            let l = coo.to_csr();
            for k in [1, 4] {
                let s = CompiledSchedule::from_schedule(&Schedule::new(k, vec![0; n], vec![0; n]));
                assert_matches_oracle(&l, &s, &intel, &format!("n={n}, {k} cores"));
            }
        }
        let (grid, dag) = grid_problem(24, 24);
        let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 4));
        // A one-line cache: every line change evicts.
        let one_line = MachineProfile { cache_lines: 1, ..MachineProfile::intel_xeon_22() };
        assert_matches_oracle(&grid, &s, &one_line, "cache_lines = 1");
        // More schedule cores than the profile has: barrier cells wrap
        // (`c % k`), async cells clamp onto the last core.
        let wide = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 30));
        assert!(wide.n_cores() > intel.max_cores);
        assert_matches_oracle(&grid, &wide, &intel, "30 cores on a 22-core profile");
        let three = MachineProfile { max_cores: 3, cache_lines: 16, ..intel };
        assert_matches_oracle(&grid, &s, &three, "4 cores on a 3-core profile");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random reads and writes by two cores: the dense caches and
        // directory report the oracle's miss sequence touch for touch.
        #[test]
        fn dense_lru_matches_the_hash_map_oracle(
            seed in any::<u64>(),
            n_lines in 1usize..160,
            n_ops in 0usize..600,
        ) {
            use rand::{Rng, SeedableRng};
            for capacity in [1, 2, 3, 64] {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let mut dense =
                    [LruCache::new(capacity, n_lines), LruCache::new(capacity, n_lines)];
                let mut dir = CoherenceDirectory::new(n_lines);
                let mut hashed = [oracle::LruCache::new(capacity), oracle::LruCache::new(capacity)];
                let mut odir = oracle::CoherenceDirectory::default();
                for step in 0..n_ops {
                    let core = rng.gen_range(0usize..2);
                    let line = rng.gen_range(0..n_lines);
                    let (miss, expected) = if rng.gen_bool(0.3) {
                        let v = dir.record_write(line);
                        let ov = odir.record_write(line, core);
                        prop_assert_eq!(v, ov);
                        (dense[core].touch(line, v), hashed[core].touch(line, ov))
                    } else {
                        (
                            dense[core].touch(line, dir.version(line)),
                            hashed[core].touch(line, odir.version(line)),
                        )
                    };
                    prop_assert_eq!(
                        miss,
                        expected,
                        "capacity {}, touch {} of core {} on line {}",
                        capacity,
                        step,
                        core,
                        line
                    );
                }
            }
        }

        // Whole simulations on small random operands and schedules,
        // against the oracle, with caches far smaller than the vectors.
        #[test]
        fn simulations_match_the_oracle_on_random_operands(
            n in 1usize..300,
            density in 0.0f64..0.05,
            seed in any::<u64>(),
            n_cores in 1usize..7,
            cache_lines in 1usize..12,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let l = sptrsv_sparse::gen::erdos_renyi::erdos_renyi_lower(n, density, &mut rng);
            let dag = SolveDag::from_lower_triangular(&l);
            let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, n_cores));
            let p = MachineProfile { cache_lines, max_cores: 4, ..MachineProfile::amd_epyc_64() };
            assert_matches_oracle(&l, &s, &p, &format!("n={n} p={density} seed={seed}"));
        }
    }

    /// The golden operands: a block-shuffled grid, a narrow band, an
    /// Erdős–Rényi and a supernodal operand, each larger than every
    /// profile's cache so LRU eviction and coherence misses both occur.
    fn golden_operands() -> Vec<(&'static str, CsrMatrix)> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        vec![
            ("grid", grid_problem(72, 72).0),
            (
                "narrow-band",
                sptrsv_sparse::gen::narrow_band::narrow_band_lower(5000, 0.5, 8.0, &mut rng),
            ),
            (
                "erdos-renyi",
                sptrsv_sparse::gen::erdos_renyi::erdos_renyi_lower(5000, 6.0 / 5000.0, &mut rng),
            ),
            (
                "supernodal",
                sptrsv_sparse::gen::supernodal_spd(600, 8, 2, 0.5).lower_triangle().unwrap(),
            ),
        ]
    }

    /// Every report of serial/barrier/async × the three profiles ×
    /// `fastmath` off/on over the golden operands, labelled, as raw bits.
    fn golden_reports() -> Vec<(String, [u64; 4])> {
        let mut out = Vec::new();
        for (name, l) in golden_operands() {
            let dag = SolveDag::from_lower_triangular(&l);
            let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 4));
            for p in MachineProfile::all() {
                for model in [ExecModel::Serial, ExecModel::Barrier, ExecModel::Async] {
                    for fastmath in [false, true] {
                        let policy = ExecPolicy { fastmath, ..ExecPolicy::default() };
                        let r = simulate_model(&l, &s, model, None, None, &p, policy);
                        out.push((
                            format!("{name}/{}/{model}/fastmath={fastmath}", p.name),
                            [
                                r.cycles.to_bits(),
                                r.compute_cycles.to_bits(),
                                r.sync_cycles.to_bits(),
                                r.cache_misses,
                            ],
                        ));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn sync_stays_within_the_makespan_on_many_cores() {
        // With 64 simulated cores most of them wait at any time; the
        // reported sync is the makespan core's, so it never exceeds the
        // cycles and the fastmath discount never adds cycles.
        let amd = MachineProfile::amd_epyc_64();
        for (name, l) in golden_operands() {
            let dag = SolveDag::from_lower_triangular(&l);
            let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 64));
            for model in [ExecModel::Serial, ExecModel::Barrier, ExecModel::Async] {
                let [off, on] = [false, true].map(|fastmath| {
                    let policy = ExecPolicy { fastmath, ..ExecPolicy::default() };
                    simulate_model(&l, &s, model, None, None, &amd, policy)
                });
                for r in [&off, &on] {
                    assert!(
                        0.0 <= r.sync_cycles && r.sync_cycles <= r.cycles,
                        "{name}/{model}: sync {} of {} cycles",
                        r.sync_cycles,
                        r.cycles
                    );
                }
                assert!(on.cycles <= off.cycles, "{name}/{model}: fastmath added cycles");
            }
        }
    }

    #[test]
    fn reports_match_the_golden_bits() {
        let actual = golden_reports();
        let table: String = actual
            .iter()
            .map(|(_, b)| format!("[{:#x}, {:#x}, {:#x}, {}],\n", b[0], b[1], b[2], b[3]))
            .collect();
        assert_eq!(actual.len(), GOLDEN.len(), "golden table:\n{table}");
        for ((label, bits), golden) in actual.iter().zip(GOLDEN.iter()) {
            assert_eq!(bits, golden, "{label}; golden table:\n{table}");
        }
    }

    /// `SimReport` bits (`cycles`, `compute_cycles`, `sync_cycles`,
    /// `cache_misses`) of [`golden_reports`], recorded with the hash-map
    /// LRU and coherence directory that [`oracle`] keeps.
    const GOLDEN: [[u64; 4]; 72] = [
        [0x41002a5000000000, 0x41002a5000000000, 0x0, 711],
        [0x41002a5000000000, 0x41002a5000000000, 0x0, 711],
        [0x40e8558000000000, 0x40e4d18000000000, 0x40bc200000000000, 1004],
        [0x40e8558000000000, 0x40e4d18000000000, 0x40bc200000000000, 1004],
        [0x40e4590000000000, 0x40e3088000000000, 0x40a5080000000000, 1004],
        [0x40e4590000000000, 0x40e3088000000000, 0x40a5080000000000, 1004],
        [0x4102b65800000000, 0x4102b65800000000, 0x0, 831],
        [0x4102b65800000000, 0x4102b65800000000, 0x0, 831],
        [0x40ed3e6000000000, 0x40e6fe6000000000, 0x40c9000000000000, 1004],
        [0x40ed3e6000000000, 0x40e6fe6000000000, 0x40c9000000000000, 1004],
        [0x40e65c0000000000, 0x40e4d5c000000000, 0x40a8640000000000, 1004],
        [0x40e65c0000000000, 0x40e4d5c000000000, 0x40a8640000000000, 1004],
        [0x410209dccccccd2f, 0x410209dccccccd2f, 0x0, 758],
        [0x410209dccccccd2f, 0x410209dccccccd2f, 0x0, 758],
        [0x40eae8333333332b, 0x40e69c333333332b, 0x40c1300000000000, 1004],
        [0x40eae8333333332b, 0x40e69c333333332b, 0x40c1300000000000, 1004],
        [0x40e60d1333333335, 0x40e4b24000000019, 0x40a5ad33333331c0, 1004],
        [0x40e60d1333333335, 0x40e4b24000000019, 0x40a5ad33333331c0, 1004],
        [0x4101e73000000000, 0x4101e73000000000, 0x0, 625],
        [0x4101e73000000000, 0x4101e73000000000, 0x0, 625],
        [0x41021cd000000000, 0x4101e49000000000, 0x409c200000000000, 632],
        [0x41021cd000000000, 0x4101e49000000000, 0x409c200000000000, 632],
        [0x4101e5a000000000, 0x4101e49000000000, 0x4041000000000000, 632],
        [0x4101e5a000000000, 0x4101e49000000000, 0x4041000000000000, 632],
        [0x41030c2800000000, 0x41030c2800000000, 0x0, 625],
        [0x41030c2800000000, 0x41030c2800000000, 0x0, 625],
        [0x41036d8800000000, 0x4103098800000000, 0x40a9000000000000, 632],
        [0x41036d8800000000, 0x4103098800000000, 0x40a9000000000000, 632],
        [0x41030a9800000000, 0x4103098800000000, 0x4041000000000000, 632],
        [0x41030a9800000000, 0x4103098800000000, 0x4041000000000000, 632],
        [0x41038a7199999992, 0x41038a7199999992, 0x0, 625],
        [0x41038a7199999992, 0x41038a7199999992, 0x0, 625],
        [0x4103cc4e6666666c, 0x4103878e6666666c, 0x40a1300000000000, 632],
        [0x4103cc4e6666666c, 0x4103878e6666666c, 0x40a1300000000000, 632],
        [0x4103889e6666665d, 0x4103878e6666665d, 0x4041000000000000, 632],
        [0x4103889e6666665d, 0x4103878e6666665d, 0x4041000000000000, 632],
        [0x4104c60000000000, 0x4104c60000000000, 0x0, 1144],
        [0x4104c60000000000, 0x4104c60000000000, 0x0, 1144],
        [0x4100c3c000000000, 0x40ff550000000000, 0x40c1940000000000, 5047],
        [0x4100c3c000000000, 0x40ff550000000000, 0x40c1940000000000, 5047],
        [0x40fe27c000000000, 0x40fd114000000000, 0x40b1680000000000, 5047],
        [0x40fe27c000000000, 0x40fd114000000000, 0x40b1680000000000, 5047],
        [0x4114b08000000000, 0x4114b08000000000, 0x0, 2928],
        [0x4114b08000000000, 0x4114b08000000000, 0x0, 2928],
        [0x4108121800000000, 0x41061e1800000000, 0x40cf400000000000, 6364],
        [0x4108121800000000, 0x41061e1800000000, 0x40cf400000000000, 6364],
        [0x4105185800000000, 0x41048d1800000000, 0x40b1680000000000, 6364],
        [0x4105185800000000, 0x41048d1800000000, 0x40b1680000000000, 6364],
        [0x410d4844ccccccfe, 0x410d4844ccccccfe, 0x0, 1877],
        [0x410d4844ccccccfe, 0x410d4844ccccccfe, 0x0, 1877],
        [0x410394bb33333332, 0x41023cfb33333332, 0x40c57c0000000000, 5636],
        [0x410394bb33333332, 0x41023cfb33333332, 0x40c57c0000000000, 5636],
        [0x4101979000000007, 0x41010c5000000007, 0x40b1680000000000, 5636],
        [0x4101979000000007, 0x41010c5000000007, 0x40b1680000000000, 5636],
        [0x4102998000000000, 0x4102998000000000, 0x0, 600],
        [0x4100094000000000, 0x4100094000000000, 0x0, 600],
        [0x4102998000000000, 0x4102998000000000, 0x0, 600],
        [0x4100094000000000, 0x4100094000000000, 0x0, 600],
        [0x4102998000000000, 0x4102998000000000, 0x0, 600],
        [0x4100094000000000, 0x4100094000000000, 0x0, 600],
        [0x4103b2c000000000, 0x4103b2c000000000, 0x0, 600],
        [0x4101228000000000, 0x4101228000000000, 0x0, 600],
        [0x4103b2c000000000, 0x4103b2c000000000, 0x0, 600],
        [0x4101228000000000, 0x4101228000000000, 0x0, 600],
        [0x4103b2c000000000, 0x4103b2c000000000, 0x0, 600],
        [0x4101228000000000, 0x4101228000000000, 0x0, 600],
        [0x4104502666666695, 0x4104502666666695, 0x0, 600],
        [0x41017e4666666695, 0x41017e4666666695, 0x0, 600],
        [0x4104502666666695, 0x4104502666666695, 0x0, 600],
        [0x41017e4666666695, 0x41017e4666666695, 0x0, 600],
        [0x4104502666666695, 0x4104502666666695, 0x0, 600],
        [0x41017e4666666695, 0x41017e4666666695, 0x0, 600],
    ];
}
