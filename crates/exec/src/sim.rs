//! Calibrated multicore machine model.
//!
//! The paper's speed-up numbers come from 22–64-core machines; this
//! environment has one core, so the speed-up experiments run against a
//! machine model instead (DESIGN.md, substitution 3). The model charges,
//! per vertex `v` (row `i` of the matrix):
//!
//! * `cycles_per_row` — loop, division and store overhead;
//! * `cycles_per_nnz · nnz(i)` — multiply-add plus streaming of the row's
//!   values/indices, scaled by a bandwidth-saturation factor when several
//!   cores are active;
//! * `cycles_per_miss` per miss of the per-core data cache, simulated with
//!   an LRU over 64-byte lines of the `x`/`b` vectors — this is where the §5
//!   locality reordering and GrowLocal's ID-contiguity pay off;
//!
//! plus `barrier_cycles` per superstep barrier (the `L` of §3 scaled to a
//! full `k`-core barrier), or point-to-point wait costs in the asynchronous
//! (SpMP) mode. Three presets mirror the paper's machines (§6.3). Absolute
//! numbers are model units; only relative shapes are meaningful, as the
//! reproduction brief allows.
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

use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::{Backoff, ExecModel, ExecPolicy, SyncPolicy};
use sptrsv_core::CompiledSchedule;
use sptrsv_dag::transitive::approximate_transitive_reduction;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::CsrMatrix;
use std::collections::{HashMap, VecDeque};

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
            // sets keep the same vector/cache ratio with a scaled-down cache
            // (DESIGN.md, substitution 3/4).
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
    /// Cycles spent in barriers / point-to-point waiting overhead.
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

/// Per-core LRU cache over vector lines, with lazy (timestamped) eviction
/// and MESI-style invalidation: an entry is stale (and re-touching it is a
/// coherence miss) when another core has written the line since it was
/// loaded. Cross-core value transfer therefore always costs a miss — the
/// physical effect GrowLocal's private regions and the §5 reordering
/// minimize.
struct LruCache {
    capacity: usize,
    stamp: u64,
    /// line -> (LRU stamp, line version held by this core).
    entries: HashMap<usize, (u64, u64)>,
    queue: VecDeque<(usize, u64)>,
}

/// Global coherence directory: the latest version of each written line.
#[derive(Default)]
struct CoherenceDirectory {
    version_counter: u64,
    /// line -> (writing core, version).
    line_version: HashMap<usize, (usize, u64)>,
}

impl CoherenceDirectory {
    /// Registers a write of `line` by `core`; returns the new version.
    fn record_write(&mut self, line: usize, core: usize) -> u64 {
        self.version_counter += 1;
        self.line_version.insert(line, (core, self.version_counter));
        self.version_counter
    }

    /// Current version of `line` (0 if never written).
    fn version(&self, line: usize) -> u64 {
        self.line_version.get(&line).map_or(0, |&(_, v)| v)
    }
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            stamp: 0,
            entries: HashMap::with_capacity(capacity * 2),
            queue: VecDeque::with_capacity(capacity * 2),
        }
    }

    /// Touches a line whose current global version is `version`; returns
    /// `true` on a miss (absent, evicted, or invalidated by a newer write).
    fn touch(&mut self, line: usize, version: u64) -> bool {
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

/// Cost of computing row `i` on `core`, charged against the core's cache and
/// the coherence directory (the final write of `x[i]` invalidates the line
/// for every other core).
#[allow(clippy::too_many_arguments)] // the cost model's state is irreducibly wide
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
    let version = directory.record_write(own, core);
    cache.touch(own, version);
    cost
}

/// Routes a compiled schedule to the simulator matching `model` — the one
/// place the [`ExecModel`]-to-simulator mapping lives (the CLI, the bench
/// harness, the examples and [`crate::plan::SolvePlan::simulate`] all call
/// this).
///
/// Asynchronous execution waits on `sync_dag` when given (callers that
/// already hold a synchronization DAG — e.g. a plan's cached copy, already
/// shaped by its policy — pass it to avoid rebuilding); with `None` the DAG
/// is built here per `policy.sync`: the full solve DAG, or its approximate
/// transitive reduction. `policy.backoff` charges OS re-scheduling latency
/// on blocking waits under `yield` (per-barrier in the barrier model,
/// per-blocking-wait in the async model).
pub fn simulate_model(
    matrix: &CsrMatrix,
    compiled: &CompiledSchedule,
    model: ExecModel,
    sync_dag: Option<&SolveDag>,
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
        let kernel = KernelPlan::detect(matrix, compiled);
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
                    let full = SolveDag::from_lower_triangular(matrix);
                    built = match policy.sync {
                        SyncPolicy::Full => full,
                        SyncPolicy::Reduced => approximate_transitive_reduction(&full),
                    };
                    &built
                }
            };
            simulate_async(matrix, compiled, sync, profile, policy.backoff)
        }
    }
}

/// Simulates a serial execution (one core, no synchronization).
pub fn simulate_serial(matrix: &CsrMatrix, profile: &MachineProfile) -> SimReport {
    let mut cache = LruCache::new(profile.cache_lines);
    let mut directory = CoherenceDirectory::default();
    let mut misses = 0u64;
    let mut compute = 0.0;
    for i in 0..matrix.n_rows() {
        compute += row_cost(matrix, i, 0, &mut cache, &mut directory, profile, 1.0, &mut misses);
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
    let mut caches: Vec<LruCache> = (0..k).map(|_| LruCache::new(profile.cache_lines)).collect();
    let mut directory = CoherenceDirectory::default();
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
    let mut caches: Vec<LruCache> = (0..k).map(|_| LruCache::new(profile.cache_lines)).collect();
    let mut directory = CoherenceDirectory::default();
    let mut finish = vec![0.0f64; n];
    let mut core_time = vec![0.0f64; k];
    let mut misses = 0u64;
    let mut sync = 0.0;
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
                            sync += (finish[u] - start) + profile.p2p_check_cycles + resume;
                            start = finish[u] + profile.p2p_check_cycles + resume;
                        } else {
                            // Flag already set: one cheap acquire load.
                            start += CHECK_HIT_CYCLES;
                            sync += CHECK_HIT_CYCLES;
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
    let cycles = core_time.iter().copied().fold(0.0f64, f64::max);
    SimReport { cycles, compute_cycles: cycles - sync, sync_cycles: sync, cache_misses: misses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_core::{GrowLocal, Scheduler, SpMp, WavefrontScheduler};
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
        let mut c = LruCache::new(2);
        assert!(c.touch(1, 0));
        assert!(c.touch(2, 0));
        assert!(!c.touch(1, 0)); // hit
        assert!(c.touch(3, 0)); // evicts 2 (LRU)
        assert!(!c.touch(1, 0));
        assert!(c.touch(2, 0)); // 2 was evicted
    }

    #[test]
    fn coherence_invalidation_forces_miss() {
        let mut dir = CoherenceDirectory::default();
        let mut c0 = LruCache::new(8);
        let mut c1 = LruCache::new(8);
        // Core 0 loads line 5, then core 1 writes it: core 0 must miss.
        assert!(c0.touch(5, dir.version(5)));
        assert!(!c0.touch(5, dir.version(5)));
        let v = dir.record_write(5, 1);
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
        let reduced = SpMp.reduced_dag(&dag);
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
        let reduced = SpMp.reduced_dag(&dag);
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
        let b_spin = simulate_model(&l, &s, ExecModel::Barrier, None, &p, policy_spin);
        let b_yield = simulate_model(&l, &s, ExecModel::Barrier, None, &p, policy_yield);
        assert_eq!(b_yield.cycles - b_spin.cycles, p.yield_resume_cycles * s.n_barriers() as f64);
    }

    #[test]
    fn full_sync_dag_waits_on_more_edges_than_reduced() {
        let (l, dag) = grid_problem(30, 30);
        let p = MachineProfile::intel_xeon_22();
        let s = CompiledSchedule::from_schedule(&SpMp.schedule(&dag, 8));
        let full = ExecPolicy { sync: SyncPolicy::Full, ..ExecPolicy::default() };
        let reduced = ExecPolicy { sync: SyncPolicy::Reduced, ..ExecPolicy::default() };
        let r_full = simulate_model(&l, &s, ExecModel::Async, None, &p, full);
        let r_reduced = simulate_model(&l, &s, ExecModel::Async, None, &p, reduced);
        // Fewer awaited edges ⇒ no more synchronization overhead; both are
        // deterministic and distinct policies produce distinct wait DAGs.
        assert!(
            r_reduced.sync_cycles <= r_full.sync_cycles,
            "reduced sync {} vs full {}",
            r_reduced.sync_cycles,
            r_full.sync_cycles
        );
        assert_eq!(r_full, simulate_model(&l, &s, ExecModel::Async, None, &p, full));
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
            let base = simulate_model(&l, &s, model, None, &p, exact);
            let fm = simulate_model(&l, &s, model, None, &p, fast);
            assert!(fm.cycles < base.cycles, "{model}: {} !< {}", fm.cycles, base.cycles);
            assert_eq!(fm.sync_cycles, base.sync_cycles, "{model}: discount is compute-only");
            // Deterministic, like every other report.
            assert_eq!(fm, simulate_model(&l, &s, model, None, &p, fast));
        }
        // The discount never increases cycles, whatever is detected.
        let (grid, gdag) = grid_problem(12, 12);
        let gs = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&gdag, 4));
        let base = simulate_model(&grid, &gs, ExecModel::Barrier, None, &p, exact);
        let fm = simulate_model(&grid, &gs, ExecModel::Barrier, None, &p, fast);
        assert!(fm.cycles <= base.cycles);
    }

    #[test]
    fn reports_are_deterministic() {
        let (l, dag) = grid_problem(15, 15);
        let p = MachineProfile::kunpeng_920_48();
        let s = CompiledSchedule::from_schedule(&GrowLocal::new().schedule(&dag, 4));
        assert_eq!(simulate_barrier(&l, &s, &p), simulate_barrier(&l, &s, &p));
    }
}
