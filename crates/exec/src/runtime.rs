//! The process-wide execution runtime: one shared pool of worker threads
//! from which every solve **leases** cores.
//!
//! # Why leases
//!
//! The paper's schedulers assume they own the machine; a production service
//! does not. PR 3's per-executor `WorkerPool` spawned `cores − 1` threads
//! *per plan*, so N live plans oversubscribed the hardware N-fold. This
//! module inverts the ownership: a [`SolverRuntime`] sized to the hardware
//! owns all worker threads, and an executor acquires a [`CoreLease`] for
//! the duration of one solve. The accounting invariant is strict — **the
//! sum of all outstanding lease widths never exceeds the runtime's
//! capacity** — so concurrent plans coexist without oversubscription:
//!
//! * a lease is granted as soon as at least one core is free, for
//!   `min(requested, free)` cores, and keeps that width until it drops —
//!   under contention a solve **degrades gracefully** to fewer cores, down
//!   to fully serial (a width-1 lease runs inline on the caller), instead
//!   of piling threads on the machine;
//! * when the runtime is fully leased, [`SolverRuntime::lease`] blocks
//!   until a core is released ([`SolverRuntime::try_lease`] never blocks
//!   and degrades straight to width 1 — what the `rayon` bridge uses so
//!   schedule-time parallelism can never deadlock against solves);
//! * leases release **deterministically on panic**: [`CoreLease::run`]
//!   always waits for every leased worker to retire (even when the
//!   leader's share unwinds), and the lease's `Drop` returns the cores.
//!
//! Executors run a schedule compiled for `n` cores on a lease of width
//! `k ≤ n` by **striding**: lease thread `t` executes schedule cores
//! `t, t+k, t+2k, …` in superstep-major order. Within a superstep the
//! cells of different schedule cores are independent (Definition 2.1
//! forbids intra-superstep cross-core edges), and a thread finishes all
//! its cells of superstep `s` before touching `s+1`, so both the barrier
//! and the async done-flag safety arguments carry over verbatim — and the
//! per-row arithmetic order is unchanged, so the solution is bit-identical
//! at every width.
//!
//! # Examples
//!
//! Embedding with an explicit capacity (tests and host applications that
//! own their thread budget); plans lease from the runtime per solve:
//!
//! ```
//! use sptrsv_exec::{PlanBuilder, SolverRuntime};
//! use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
//! use std::sync::Arc;
//!
//! let l = grid2d_laplacian(12, 12, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
//! let runtime = Arc::new(SolverRuntime::new(2)); // 2 cores, not hardware-sized
//! let plan = PlanBuilder::new(&l).cores(4).runtime(Arc::clone(&runtime)).build()?;
//! let b = vec![1.0; l.n_rows()];
//! let x = plan.solve(&b); // leases ≤ 2 cores; bit-identical to any width
//! assert!(sptrsv_sparse::linalg::relative_residual(&l, &x, &b) < 1e-12);
//! assert_eq!(runtime.cores_in_use(), 0); // released at solve end
//! # Ok::<(), sptrsv_exec::PlanError>(())
//! ```
//!
//! Leasing directly (the executor-facing API):
//!
//! ```
//! use sptrsv_core::registry::Backoff;
//! use sptrsv_exec::SolverRuntime;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let runtime = SolverRuntime::new(4);
//! // The sole lessee gets everything it asks for.
//! let mut lease = runtime.lease(4);
//! assert_eq!(lease.size(), 4);
//! let hits = AtomicUsize::new(0);
//! lease.run(Backoff::Spin, &|_thread| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 4);
//! ```
//!
//! # Dispatch protocol
//!
//! Each worker owns a private job slot driven by an **epoch counter** (a
//! sense-reversing barrier generalized from one bit to a counter, doubling
//! as the job sequence number). Because a worker is owned by at most one
//! lease at a time, no cross-lease synchronization is needed beyond the
//! free-list mutex:
//!
//! 1. The leaseholder (the thread calling [`CoreLease::run`], which
//!    executes lease thread 0 itself) writes a type-erased job into each
//!    leased worker's slot, publishes epoch `e+1` with a `Release`-or-
//!    stronger store and wakes the worker if it is parked.
//! 2. The worker observes the epoch change (`Acquire`, pairing with the
//!    publish), runs the job for its lease-thread index, and retires by
//!    storing the epoch into its *done* slot.
//! 3. The leaseholder runs thread 0's share, then waits (under the
//!    configured [`Backoff`]) until every leased worker's done slot
//!    reaches the epoch.
//!
//! Between jobs a worker spins briefly on its epoch and then parks on its
//! own condvar; publishers and retirement-waiters only touch the condvar
//! mutex when the `sleepers` counter says someone is actually parked, so a
//! hot solve loop never blocks on it.
//!
//! # Placement
//!
//! The kernel may wake a parked worker on its leaseholder's own CPU while
//! another CPU sits idle (seen on a 2-vCPU VM after a long stretch of
//! single-threaded work). The two threads then time-share one CPU, so
//! every barrier costs a context switch, until the load balancer moves
//! one of them, which took up to seconds. The leaseholder therefore
//! publishes its CPU with each job, and a worker that starts a job on
//! that CPU moves itself: it narrows its affinity to its other allowed
//! CPUs, which makes the kernel migrate it at once, and then restores the
//! affinity so later wake-ups stay free to place it.
//!
//! # Safety argument
//!
//! A job is a raw `(fn, *const ())` pair pointing at a caller-stack
//! closure, which is sound because [`CoreLease::run`] does not return (or
//! unwind) before every leased worker has retired the epoch: the
//! retirement / completion-wait pairs order all worker accesses to the
//! closure (and to the solution vector behind it) before `run` returns,
//! the lease owns its workers exclusively until `Drop` (which runs after
//! `run`), and the free-list mutex orders a release before the next
//! acquisition. Worker panics are caught, flagged, retired and re-raised
//! on the leaseholder after all retirements; a leader panic is caught and
//! re-raised only after the completion wait. A job whose threads *wait on
//! each other* must additionally propagate its own abort (poison the
//! [`SenseBarrier`], raise a flag the done-flag waits check) so sibling
//! threads unwind instead of waiting forever on a panicked one.

use sptrsv_core::registry::Backoff;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Spins a worker performs on its epoch before parking on the condvar.
const PARK_AFTER_SPINS: u32 = 1 << 12;

/// In `spin` mode, one OS yield every this many spins — a progress valve
/// for machines with fewer hardware threads than runtime cores. Kept
/// short: on a dedicated multicore machine real waits resolve within the
/// first handful of spins and the valve never fires, while on an
/// oversubscribed machine the waited-on thread *cannot* run until we
/// yield, so the sooner the valve opens the closer the runtime gets to
/// futex-grade cooperative scheduling.
const SPIN_VALVE: u32 = 1 << 7;

/// In `yield` mode, spins before the loop starts yielding.
const YIELD_AFTER_SPINS: u32 = 1 << 5;

/// Locks a mutex ignoring poisoning: all runtime invariants live in the
/// guarded data itself (a free list and counters that are restored by
/// `CoreLease::drop` even when a solve panics), so later solves must keep
/// working after a panic unwound through a lock scope.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One step of a wait loop under `backoff`; `spins` is the caller's loop
/// counter (start it at 0 per wait).
#[inline]
pub(crate) fn backoff_wait(backoff: Backoff, spins: &mut u32) {
    *spins = spins.wrapping_add(1);
    match backoff {
        Backoff::Spin => {
            std::hint::spin_loop();
            if spins.is_multiple_of(SPIN_VALVE) {
                std::thread::yield_now();
            }
        }
        Backoff::Yield => {
            if *spins < YIELD_AFTER_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Hardware threads available to this process (cached once).
pub(crate) fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Backoff steps a waiter takes before parking on a condvar. Zero when the
/// participant count oversubscribes the hardware: a spinning waiter then
/// *occupies the CPU the waited-on thread needs*, so the only useful move
/// is to get off it immediately — parking makes the runtime degrade to
/// futex-grade cooperative scheduling instead of burning quanta.
fn park_threshold(backoff: Backoff, participants: usize) -> u32 {
    if participants > hardware_threads() {
        return 0;
    }
    match backoff {
        Backoff::Spin => 1 << 10,
        Backoff::Yield => 1 << 6,
    }
}

/// Sense-reversing centralized barrier for in-solve supersteps.
///
/// Fresh per solve (a handful of words on the leaseholder's stack —
/// nothing is allocated); every participant keeps a local sense flag
/// starting at `false`. The last arriver of a phase resets the count and
/// flips the shared sense with a `Release` store; everyone else waits for
/// the flip with `Acquire` loads, which orders all pre-barrier writes of
/// every participant before any post-barrier read — the happens-before
/// edge the barrier executor's safety argument needs.
///
/// The wait is **hybrid**: a bounded backoff phase (spinning per the
/// [`Backoff`] policy) followed by parking on a condvar. On a dedicated
/// multicore machine the flip lands within the spin phase and the slow
/// path never runs; on an oversubscribed machine (fewer hardware threads
/// than participants) the waited-on thread cannot progress until waiters
/// get off the CPU, and parking matches the efficiency of an OS barrier.
/// A waiter registers in the sleeper count (under the lock) before
/// re-checking the sense and sleeping; the releaser flips the sense first
/// and only takes the lock to notify when sleepers are registered —
/// `SeqCst` on both sides closes the missed-wake-up window without
/// charging the spin-only common case a mutex round-trip per superstep.
///
/// [`SenseBarrier::poison`] aborts a solve whose participant panicked:
/// every current and future waiter panics instead of waiting for an
/// arrival that will never come (the runtime catches those panics and the
/// leaseholder re-raises).
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    poisoned: AtomicBool,
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    bell: Condvar,
}

impl SenseBarrier {
    /// A barrier for `n` participants, initial shared sense `false`.
    pub fn new(n: usize) -> SenseBarrier {
        assert!(n > 0, "a barrier needs at least one participant");
        SenseBarrier {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    /// Panics if the barrier was poisoned by a panicking sibling.
    #[inline]
    fn check_poison(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("parallel solve aborted: a sibling core panicked");
        }
    }

    /// Wakes every parked waiter, but only pays the lock when someone is
    /// actually registered asleep. `SeqCst` pairs with the waiter side: a
    /// waiter registers in `sleepers` (under the lock) *before* its final
    /// state re-check, so whichever of {state write, sleeper registration}
    /// comes first in the total order, either the waiter sees the new
    /// state and never sleeps, or the releaser sees the sleeper and
    /// notifies.
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _gate = lock_ignore_poison(&self.gate);
            self.bell.notify_all();
        }
    }

    /// Aborts the solve: every current and future [`SenseBarrier::wait`]
    /// panics instead of waiting. Called by a participant that caught a
    /// panic in its share of the work, so siblings blocked on its arrival
    /// unwind too (and the runtime reports the panic on the leaseholder).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_sleepers();
    }

    /// Blocks until all `n` participants have arrived. `local_sense` is
    /// the participant's phase flag (initialize to `false`, pass the same
    /// variable every phase).
    ///
    /// Panics if the barrier is [poisoned](SenseBarrier::poison).
    pub fn wait(&self, local_sense: &mut bool, backoff: Backoff) {
        let target = !*local_sense;
        *local_sense = target;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::SeqCst);
            self.wake_sleepers();
        } else {
            let mut spins = 0;
            let threshold = park_threshold(backoff, self.n);
            while self.sense.load(Ordering::Acquire) != target {
                self.check_poison();
                if spins < threshold {
                    backoff_wait(backoff, &mut spins);
                } else {
                    let mut gate = lock_ignore_poison(&self.gate);
                    self.sleepers.fetch_add(1, Ordering::SeqCst);
                    while self.sense.load(Ordering::SeqCst) != target
                        && !self.poisoned.load(Ordering::SeqCst)
                    {
                        gate =
                            self.bell.wait(gate).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    self.sleepers.fetch_sub(1, Ordering::SeqCst);
                    drop(gate);
                    self.check_poison();
                    break;
                }
            }
        }
    }
}

/// A type-erased job entry point: `f(ctx, thread)` runs the published
/// closure for one lease-thread index.
type JobFn = unsafe fn(*const (), usize);

/// A type-erased job: `call(ctx, thread)` runs the leaseholder's closure
/// for one lease-thread index.
#[derive(Clone, Copy)]
struct WorkerJob {
    call: JobFn,
    ctx: *const (),
    /// The lease-thread index this worker plays (1-based; the leaseholder
    /// is thread 0).
    thread: usize,
    /// The CPU the leaseholder ran on when it published the job, if known.
    leader_cpu: Option<usize>,
}

/// One worker's private dispatch slot.
struct WorkerSlot {
    /// The published job. Written by the owning leaseholder strictly
    /// before the epoch store that announces it; read by the worker
    /// strictly after observing that epoch.
    job: UnsafeCell<Option<WorkerJob>>,
    /// Job sequence number for this worker.
    epoch: AtomicUsize,
    /// The last epoch this worker completed.
    done: AtomicUsize,
    /// Set when this worker's job panicked (re-raised by the leaseholder).
    panicked: AtomicBool,
    /// Threads parked on `bell` (the idle worker, or a leaseholder
    /// awaiting retirement); lets the other side skip the lock when nobody
    /// is asleep — see [`SenseBarrier::wake_sleepers`] for the ordering
    /// argument.
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    bell: Condvar,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            job: UnsafeCell::new(None),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
        }
    }

    /// See [`SenseBarrier::wake_sleepers`].
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _gate = lock_ignore_poison(&self.gate);
            self.bell.notify_all();
        }
    }
}

// SAFETY: the raw job pointer is only dereferenced between the epoch
// publish and the matching retirement, during which the leaseholder keeps
// the pointee alive (see the module-level safety argument). All other
// state is atomics and sync primitives.
unsafe impl Send for WorkerSlot {}
unsafe impl Sync for WorkerSlot {}

/// State shared between the runtime handle and its worker threads.
struct RuntimeShared {
    slots: Vec<WorkerSlot>,
    shutdown: AtomicBool,
    /// More runtime cores than hardware threads: every wait parks promptly.
    oversubscribed: bool,
}

/// Core-leasing bookkeeping, guarded by [`SolverRuntime::state`].
struct LeaseState {
    /// Indices of workers not currently owned by a lease.
    free: Vec<usize>,
    /// Total cores leased out (leaseholder threads included).
    in_use: usize,
    /// Recycled worker-index buffers, so steady-state leasing allocates
    /// nothing (a buffer is taken at acquisition and returned at release).
    spare_bufs: Vec<Vec<usize>>,
}

/// A process-wide pool of persistent worker threads from which executors
/// lease cores per solve (see the module docs for the protocol).
///
/// Use [`SolverRuntime::global`] for the hardware-sized process runtime
/// (what plans use by default), or [`SolverRuntime::new`] for an
/// explicitly sized runtime to embed or test against
/// ([`PlanBuilder::runtime`](crate::plan::PlanBuilder::runtime)).
pub struct SolverRuntime {
    capacity: usize,
    shared: Arc<RuntimeShared>,
    state: Mutex<LeaseState>,
    /// Wakes blocked [`SolverRuntime::lease`] callers on release.
    lessee_bell: Condvar,
    handles: Vec<JoinHandle<()>>,
}

impl SolverRuntime {
    /// A runtime serving `capacity` cores: `capacity − 1` worker threads
    /// are spawned immediately (leaseholders supply the remaining thread),
    /// parked until leased work arrives.
    pub fn new(capacity: usize) -> SolverRuntime {
        assert!(capacity > 0, "a runtime needs at least one core");
        let n_workers = capacity - 1;
        let shared = Arc::new(RuntimeShared {
            slots: (0..n_workers).map(|_| WorkerSlot::new()).collect(),
            shutdown: AtomicBool::new(false),
            oversubscribed: capacity > hardware_threads(),
        });
        let handles = (0..n_workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sptrsv-runtime-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("failed to spawn runtime worker")
            })
            .collect();
        SolverRuntime {
            capacity,
            shared,
            state: Mutex::new(LeaseState {
                free: (0..n_workers).collect(),
                in_use: 0,
                spare_bufs: Vec::new(),
            }),
            lessee_bell: Condvar::new(),
            handles,
        }
    }

    /// The process-wide runtime, created on first use and sized to the
    /// hardware ([`std::thread::available_parallelism`]). Every plan built
    /// without an explicit
    /// [`PlanBuilder::runtime`](crate::plan::PlanBuilder::runtime) handle
    /// leases from it.
    pub fn global() -> &'static Arc<SolverRuntime> {
        static GLOBAL: OnceLock<Arc<SolverRuntime>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            // The bridge leases from this runtime, so it is installed only
            // once the runtime exists: a process that solves on explicit
            // runtimes alone never starts a second pool for scheduling.
            install_rayon_bridge();
            Arc::new(SolverRuntime::new(hardware_threads()))
        })
    }

    /// Total cores this runtime serves (leaseholder threads included).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cores currently leased out across all plans (instrumentation; the
    /// value is a snapshot and may be stale by the time it is read).
    pub fn cores_in_use(&self) -> usize {
        lock_ignore_poison(&self.state).in_use
    }

    /// Leases `min(requested, free)` cores, **blocking** until at least
    /// one core is free. Under contention a lease degrades gracefully
    /// toward width 1 (serial) and keeps its granted width until it drops;
    /// the accounting invariant is that the widths of all outstanding
    /// leases never sum past [`SolverRuntime::capacity`].
    pub fn lease(&self, requested: usize) -> CoreLease<'_> {
        let mut state = lock_ignore_poison(&self.state);
        while self.capacity == state.in_use {
            state = self.lessee_bell.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        self.grant(state, requested)
    }

    /// Non-blocking lease: takes whatever is free right now (possibly
    /// nothing — the returned lease then has width 1, runs entirely on the
    /// caller, and is **not** counted against the capacity, so it can
    /// never deadlock a full runtime). Used by the schedule-time `rayon`
    /// bridge, which must never wait on solve traffic.
    pub fn try_lease(&self, requested: usize) -> CoreLease<'_> {
        let state = lock_ignore_poison(&self.state);
        if self.capacity == state.in_use {
            return CoreLease { runtime: self, workers: Vec::new(), counted: 0 };
        }
        self.grant(state, requested)
    }

    /// Grants `min(max(requested, 1), capacity − in_use)` cores; the
    /// caller has verified at least one is free.
    fn grant(
        &self,
        mut state: std::sync::MutexGuard<'_, LeaseState>,
        requested: usize,
    ) -> CoreLease<'_> {
        let granted = requested.max(1).min(self.capacity - state.in_use);
        let mut workers = state.spare_bufs.pop().unwrap_or_default();
        // in_use counts every leaseholder thread, so free workers always
        // cover the remainder (granted − 1 ≤ capacity − in_use − 1 ≤
        // free).
        for _ in 1..granted {
            workers.push(state.free.pop().expect("lease accounting invariant"));
        }
        state.in_use += granted;
        CoreLease { runtime: self, workers, counted: granted }
    }
}

impl std::fmt::Debug for SolverRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRuntime")
            .field("capacity", &self.capacity)
            .field("cores_in_use", &self.cores_in_use())
            .finish_non_exhaustive()
    }
}

impl Drop for SolverRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.shared.slots {
            let _gate = lock_ignore_poison(&slot.gate);
            slot.bell.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker: wait for the next epoch on the private slot (spin, then
/// park), run the job for the lease-thread index it carries, retire the
/// epoch; exit on shutdown.
fn worker_loop(shared: &RuntimeShared, index: usize) {
    let slot = &shared.slots[index];
    let park_after = if shared.oversubscribed { 1 << 5 } else { PARK_AFTER_SPINS };
    // Oversubscribed, lease threads must share CPUs anyway.
    let allowed = if shared.oversubscribed { None } else { placement::allowed() };
    let mut seen = 0usize;
    loop {
        let mut spins = 0u32;
        let epoch = loop {
            let epoch = slot.epoch.load(Ordering::Acquire);
            if epoch != seen {
                break epoch;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < park_after {
                std::hint::spin_loop();
            } else {
                // Park; registering in `sleepers` under the lock before the
                // re-check closes the missed-wake-up window (see
                // `SenseBarrier::wake_sleepers`).
                let mut gate = lock_ignore_poison(&slot.gate);
                slot.sleepers.fetch_add(1, Ordering::SeqCst);
                while slot.epoch.load(Ordering::SeqCst) == seen
                    && !shared.shutdown.load(Ordering::SeqCst)
                {
                    gate = slot.bell.wait(gate).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                slot.sleepers.fetch_sub(1, Ordering::SeqCst);
                break slot.epoch.load(Ordering::Acquire);
            }
        };
        if epoch == seen {
            continue; // shutdown observed with no new job
        }
        // SAFETY: observing the new epoch (Acquire) orders this read after
        // the leaseholder's job write (Release); the slot is always Some
        // once an epoch has been published.
        let job = unsafe { (*slot.job.get()).expect("published epoch carries a job") };
        if let (Some(allowed), Some(leader)) = (&allowed, job.leader_cpu) {
            if placement::current_cpu() == Some(leader) {
                placement::avoid(allowed, leader);
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: per the module-level argument, the context outlives
            // this call.
            unsafe { (job.call)(job.ctx, job.thread) }
        }));
        if result.is_err() {
            slot.panicked.store(true, Ordering::Release);
        }
        seen = epoch;
        slot.done.store(epoch, Ordering::SeqCst);
        slot.wake_sleepers();
    }
}

/// Type-erased entry point for a published job closure.
unsafe fn job_entry<F: Fn(usize)>(ctx: *const (), thread: usize) {
    // SAFETY: `ctx` is the `&F` published by the lease, alive until the
    // worker retires (module-level safety argument).
    unsafe { (*(ctx as *const F))(thread) }
}

/// Publishes one job to a worker the publisher owns exclusively: every
/// prior job on the slot has retired (the previous dispatch waited), so
/// the epoch cannot move under us and nothing reads the slot while the
/// job is written; the epoch store publishes it.
fn publish_job(slot: &WorkerSlot, job: WorkerJob) {
    let epoch = slot.epoch.load(Ordering::Relaxed) + 1;
    // SAFETY: exclusive ownership, see above.
    unsafe {
        *slot.job.get() = Some(job);
    }
    slot.epoch.store(epoch, Ordering::SeqCst);
    slot.wake_sleepers();
}

/// Waits (spin per `backoff` up to `threshold`, then park) until the
/// worker has retired its latest published epoch; returns whether its job
/// panicked (clearing the flag).
fn await_retirement(slot: &WorkerSlot, threshold: u32, backoff: Backoff) -> bool {
    let target = slot.epoch.load(Ordering::Relaxed);
    let mut spins = 0;
    while slot.done.load(Ordering::Acquire) < target {
        if spins < threshold {
            backoff_wait(backoff, &mut spins);
        } else {
            // Parking frees the CPU for the worker being awaited; its
            // retirement rings the slot's bell.
            let mut gate = lock_ignore_poison(&slot.gate);
            slot.sleepers.fetch_add(1, Ordering::SeqCst);
            while slot.done.load(Ordering::SeqCst) < target {
                gate = slot.bell.wait(gate).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            slot.sleepers.fetch_sub(1, Ordering::SeqCst);
            break;
        }
    }
    slot.panicked.swap(false, Ordering::AcqRel)
}

/// An exclusive claim on `width` cores of a [`SolverRuntime`] — the
/// caller's thread plus `width − 1` leased workers. Dropping the lease
/// returns the cores (and wakes blocked lessees); `Drop` runs on unwind,
/// so cores are released deterministically when a solve panics.
pub struct CoreLease<'rt> {
    runtime: &'rt SolverRuntime,
    /// Leased worker indices (lease thread `i + 1` runs on worker
    /// `workers[i]`).
    workers: Vec<usize>,
    /// Cores charged against the runtime's capacity (0 for a degraded
    /// [`SolverRuntime::try_lease`] that found nothing free).
    counted: usize,
}

impl CoreLease<'_> {
    /// The lease width: how many threads [`CoreLease::run`] will use,
    /// the calling thread included.
    pub fn size(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(thread)` for every lease thread `0..size`, thread 0 on the
    /// calling thread, and returns when **all** threads have finished.
    /// `backoff` drives the completion wait.
    ///
    /// Panics if any thread's `f` panicked — always after every leased
    /// worker has retired, so the caller's borrows were honored and the
    /// runtime stays usable. A job whose threads wait on each other must
    /// propagate its own abort (poison the [`SenseBarrier`], raise a flag
    /// the waits check) so sibling threads unwind instead of waiting
    /// forever on a panicked one.
    pub fn run<F: Fn(usize) + Sync>(&mut self, backoff: Backoff, f: &F) {
        if self.workers.is_empty() {
            f(0);
            return;
        }
        let slots = &self.runtime.shared.slots;
        let ctx = f as *const F as *const ();
        let leader_cpu = placement::current_cpu();
        for (i, &w) in self.workers.iter().enumerate() {
            let job = WorkerJob { call: job_entry::<F>, ctx, thread: i + 1, leader_cpu };
            publish_job(&slots[w], job);
        }
        // The leaseholder's own share must not unwind past the completion
        // wait: workers still hold the raw pointer to `f` (and through it
        // the caller's buffers) until they retire.
        let leader_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let threshold = self.retirement_threshold(backoff);
        let mut worker_panicked = false;
        for &w in &self.workers {
            worker_panicked |= await_retirement(&slots[w], threshold, backoff);
        }
        if let Err(panic) = leader_result {
            std::panic::resume_unwind(panic);
        }
        if worker_panicked {
            panic!("a runtime worker panicked while executing a solve");
        }
    }

    /// Spins the completion wait performs before parking.
    fn retirement_threshold(&self, backoff: Backoff) -> u32 {
        if self.runtime.shared.oversubscribed {
            0
        } else {
            park_threshold(backoff, self.size())
        }
    }

    /// Runs a **superstep-structured** job on the lease, with the
    /// inter-superstep barrier owned by the runtime: every lease thread
    /// executes `body(thread, width, step)` for each superstep
    /// `0..n_steps`, separated by one [`SenseBarrier`] over the lease
    /// width. `body` must partition its work by striding: thread `t` of
    /// width `w` owns schedule cores `t, t + w, t + 2w, …` of the
    /// superstep. A width-1 lease runs every step inline, unsynchronized.
    ///
    /// `_unused` is always `None`: the parameter is kept only for the
    /// four-argument call in the drift benchmark's runtime probe
    /// (`benchmark/`), and goes when that caller drops it.
    ///
    /// Panic containment matches [`CoreLease::run`]: a panicking thread
    /// poisons the barrier so siblings unwind instead of waiting forever,
    /// every worker retires, and the panic is re-raised on the caller.
    pub fn run_supersteps<F: Fn(usize, usize, usize) + Sync>(
        &mut self,
        backoff: Backoff,
        n_steps: usize,
        _unused: Option<std::convert::Infallible>,
        body: &F,
    ) {
        let width = self.size();
        if width == 1 {
            for step in 0..n_steps {
                body(0, 1, step);
            }
            return;
        }
        let barrier = SenseBarrier::new(width);
        self.run(backoff, &|thread| {
            let mut sense = false;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for step in 0..n_steps {
                    if step > 0 {
                        barrier.wait(&mut sense, backoff);
                    }
                    body(thread, width, step);
                }
            }));
            if let Err(panic) = result {
                barrier.poison();
                std::panic::resume_unwind(panic);
            }
        });
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        let mut state = lock_ignore_poison(&self.runtime.state);
        // Drain back into the free list, then recycle the (now empty,
        // still allocated) buffer so steady-state leasing allocates
        // nothing.
        while let Some(w) = self.workers.pop() {
            state.free.push(w);
        }
        state.in_use -= self.counted;
        // Bounded recycling: at most `capacity` buffers can be useful at
        // once (one per concurrent lease), and degraded `try_lease`s bring
        // buffers of their own that must not accumulate forever.
        if state.spare_bufs.len() < self.runtime.capacity {
            state.spare_bufs.push(std::mem::take(&mut self.workers));
        }
        drop(state);
        self.runtime.lessee_bell.notify_all();
    }
}

/// A runtime reference as stored by executors: an explicit handle, or the
/// lazily materialized process-wide runtime. Plans are frequently built
/// for inspection, simulation or serial execution, so the global runtime
/// (and its threads) is only touched on the first parallel solve.
#[derive(Clone, Default)]
pub(crate) struct RuntimeHandle {
    explicit: Option<Arc<SolverRuntime>>,
}

impl RuntimeHandle {
    /// A handle pinned to an explicitly constructed runtime.
    pub(crate) fn explicit(runtime: Arc<SolverRuntime>) -> RuntimeHandle {
        RuntimeHandle { explicit: Some(runtime) }
    }

    /// The runtime to lease from (materializing the global one if the
    /// handle is not pinned).
    pub(crate) fn get(&self) -> &Arc<SolverRuntime> {
        self.explicit.as_ref().unwrap_or_else(|| SolverRuntime::global())
    }
}

/// Routes the `rayon` stand-in's `join`/`par_iter` through the global
/// runtime, so schedule-time parallelism (`block-gl`'s per-block
/// scheduling) gets real threads without a second thread pool. Tasks are
/// leased **non-blockingly** ([`SolverRuntime::try_lease`]): when the
/// runtime is busy solving, scheduling degrades to sequential instead of
/// deadlocking or oversubscribing.
///
/// [`SolverRuntime::global`] installs it when it creates the global
/// runtime, and the CLI at start-up. A process that solves only on
/// explicit runtimes never installs it, so it schedules sequentially
/// (bit-identical: `par_iter` collects in order) on one pool.
///
/// NOTE (compat-only): this bridge exists because `crates/compat/rayon`
/// is an offline stand-in. When the workspace swaps back to crates.io
/// `rayon` (one line in the workspace manifest), delete this function and
/// its call sites — real rayon manages its own pool.
pub fn install_rayon_bridge() {
    rayon::install_parallel_bridge(|n_tasks, task| {
        if n_tasks <= 1 {
            for t in 0..n_tasks {
                task(t);
            }
            return;
        }
        let runtime = SolverRuntime::global();
        let mut lease = runtime.try_lease(n_tasks.min(runtime.capacity()));
        let width = lease.size();
        if width <= 1 {
            for t in 0..n_tasks {
                task(t);
            }
            return;
        }
        lease.run(Backoff::default(), &|thread| {
            let mut t = thread;
            while t < n_tasks {
                task(t);
                t += width;
            }
        });
    });
}

/// Which CPU a thread runs on, and moving a worker off its leaseholder's
/// CPU (module docs, "Placement"). Linux only; elsewhere the CPU is
/// unknown and nothing moves.
mod placement {
    /// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(C)]
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    pub(super) struct CpuSet([u64; 16]);

    impl CpuSet {
        /// Whether `cpu` is in the set.
        #[cfg(test)]
        pub(super) fn contains(&self, cpu: usize) -> bool {
            cpu < 1024 && self.0[cpu / 64] & (1 << (cpu % 64)) != 0
        }

        /// The set without `cpu`.
        #[cfg(target_os = "linux")]
        fn without(mut self, cpu: usize) -> CpuSet {
            if cpu < 1024 {
                self.0[cpu / 64] &= !(1 << (cpu % 64));
            }
            self
        }
    }

    #[cfg(target_os = "linux")]
    mod sys {
        use super::CpuSet;

        extern "C" {
            pub(super) fn sched_getcpu() -> i32;
            pub(super) fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
            pub(super) fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        }
    }

    /// The CPU the calling thread is running on.
    #[cfg(target_os = "linux")]
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sys::sched_getcpu() }).ok()
    }

    /// The CPUs the calling thread may run on.
    #[cfg(target_os = "linux")]
    pub(super) fn allowed() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Moves the calling thread off `cpu` to another CPU of `allowed`,
    /// then restores `allowed` as its affinity. Does nothing when `cpu` is
    /// the only one.
    #[cfg(target_os = "linux")]
    pub(super) fn avoid(allowed: &CpuSet, cpu: usize) {
        let set = allowed.without(cpu);
        if set.0.iter().all(|&word| word == 0) {
            return;
        }
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: both sets are readable `cpu_set_t`s of the size passed;
        // pid 0 is the calling thread. The kernel migrates the thread
        // before the first call returns, and the second leaves it where it
        // is. A failure leaves the thread where it was, which is safe.
        unsafe {
            if sys::sched_setaffinity(0, size, &set) == 0 {
                sys::sched_setaffinity(0, size, allowed);
            }
        }
    }

    /// Restricts the calling thread to `cpu` alone.
    #[cfg(all(test, target_os = "linux"))]
    pub(super) fn pin(cpu: usize) {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: as in `avoid`.
        let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        assert_eq!(rc, 0, "pin to cpu {cpu}");
    }

    #[cfg(not(target_os = "linux"))]
    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    #[cfg(not(target_os = "linux"))]
    pub(super) fn allowed() -> Option<CpuSet> {
        None
    }

    #[cfg(not(target_os = "linux"))]
    pub(super) fn avoid(_allowed: &CpuSet, _cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn a_thread_that_avoids_its_cpu_leaves_it_and_keeps_its_affinity() {
        // On a thread of its own, so the pin dies with it.
        std::thread::spawn(|| {
            let allowed = placement::allowed().expect("affinity readable");
            let Some(here) = (0..1024).find(|&c| allowed.contains(c)) else { return };
            // Pinned, so nothing but `avoid` can move it off `here`.
            placement::pin(here);
            assert_eq!(placement::current_cpu(), Some(here));
            let pinned = placement::allowed().unwrap();
            placement::avoid(&allowed, here);
            let moved = placement::current_cpu().unwrap();
            assert_eq!(placement::allowed(), Some(allowed));
            if (0..1024).filter(|&c| allowed.contains(c)).count() == 1 {
                // The only CPU: staying put beats having none.
                assert_eq!(moved, here);
            } else {
                assert_ne!(moved, here);
            }
            // Only `cpu` allowed: nothing to move to, nothing changes.
            placement::avoid(&pinned, here);
            assert_eq!(placement::allowed(), Some(allowed));
        })
        .join()
        .unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn workers_run_jobs_off_the_leaseholders_cpu() {
        let allowed = placement::allowed().expect("affinity readable");
        let Some(leader_cpu) = (0..1024).find(|&c| allowed.contains(c)) else { return };
        if (0..1024).filter(|&c| allowed.contains(c)).count() < 2 {
            return; // one CPU: every thread shares it
        }
        // The leaseholder pinned to one CPU on a thread of its own, so its
        // worker has somewhere else to go and the pin dies with the thread.
        std::thread::spawn(move || {
            // Workers inherit their creator's affinity: spawn them first.
            let runtime = SolverRuntime::new(2);
            if runtime.shared.oversubscribed {
                return;
            }
            placement::pin(leader_cpu);
            let mut lease = runtime.lease(2);
            // Put the worker on the leaseholder's CPU, as a wake-up can.
            lease.run(Backoff::Spin, &|thread| {
                if thread == 1 {
                    placement::pin(leader_cpu);
                }
            });
            for _ in 0..20 {
                let worker_cpu = AtomicUsize::new(usize::MAX);
                lease.run(Backoff::Spin, &|thread| {
                    if thread == 1 {
                        worker_cpu.store(placement::current_cpu().unwrap(), Ordering::Relaxed);
                    }
                });
                assert_eq!(placement::current_cpu(), Some(leader_cpu));
                assert_ne!(worker_cpu.load(Ordering::Relaxed), leader_cpu);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn every_lease_thread_runs_exactly_once_per_dispatch() {
        let runtime = SolverRuntime::new(4);
        let mut lease = runtime.lease(4);
        assert_eq!(lease.size(), 4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        lease.run(Backoff::Spin, &|thread| {
            hits[thread].fetch_add(1, Ordering::Relaxed);
        });
        for (thread, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "thread {thread}");
        }
    }

    #[test]
    fn leases_are_reusable_across_many_dispatches() {
        let runtime = SolverRuntime::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            let mut lease = runtime.lease(3);
            lease.run(Backoff::Spin, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn single_core_runtime_runs_inline() {
        let runtime = SolverRuntime::new(1);
        assert_eq!(runtime.capacity(), 1);
        let mut lease = runtime.lease(8);
        assert_eq!(lease.size(), 1, "a 1-core runtime only ever grants serial leases");
        let ran = AtomicUsize::new(0);
        lease.run(Backoff::Yield, &|thread| {
            assert_eq!(thread, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn yield_backoff_completes() {
        let runtime = SolverRuntime::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..20 {
            let mut lease = runtime.lease(4);
            lease.run(Backoff::Yield, &|thread| {
                total.fetch_add(thread + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 20 * (1 + 2 + 3 + 4));
    }

    #[test]
    fn workers_park_and_wake_between_solves() {
        let runtime = SolverRuntime::new(3);
        let total = AtomicUsize::new(0);
        runtime.lease(3).run(Backoff::Spin, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        // Long enough for both workers to exhaust PARK_AFTER_SPINS and
        // park.
        std::thread::sleep(std::time::Duration::from_millis(30));
        runtime.lease(3).run(Backoff::Spin, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn lease_accounting_never_exceeds_capacity() {
        // The acceptance invariant: with C = 4, concurrent leases from
        // many threads never sum past 4 runnable threads, every lease has
        // width >= 1, and everything is returned at the end.
        let runtime = SolverRuntime::new(4);
        let runtime = &runtime;
        std::thread::scope(|scope| {
            for caller in 0..6 {
                scope.spawn(move || {
                    for round in 0..50 {
                        let mut lease = runtime.lease(1 + (caller + round) % 4);
                        assert!(lease.size() >= 1);
                        let in_use = runtime.cores_in_use();
                        assert!(
                            (1..=runtime.capacity()).contains(&in_use),
                            "in_use {in_use} escaped 1..=4 while holding a lease"
                        );
                        lease.run(Backoff::Spin, &|_| {
                            std::hint::spin_loop();
                        });
                    }
                });
            }
        });
        assert_eq!(runtime.cores_in_use(), 0, "cores leaked after all leases dropped");
        assert_eq!(runtime.lease(4).size(), 4, "full width unavailable after the stress");
    }

    #[test]
    fn contended_leases_degrade_to_fewer_cores() {
        let runtime = SolverRuntime::new(4);
        let big = runtime.lease(3);
        assert_eq!(big.size(), 3);
        // 1 core left: a request for 4 degrades to 1 (serial).
        let small = runtime.lease(4);
        assert_eq!(small.size(), 1);
        assert_eq!(runtime.cores_in_use(), 4);
        // Nothing left: try_lease degrades to an uncounted inline lease.
        let inline = runtime.try_lease(2);
        assert_eq!(inline.size(), 1);
        assert_eq!(runtime.cores_in_use(), 4);
        drop(big);
        assert_eq!(runtime.cores_in_use(), 1);
        assert_eq!(runtime.lease(4).size(), 3);
    }

    #[test]
    fn degraded_try_leases_do_not_accumulate_spare_buffers() {
        // A fully leased runtime hands out uncounted width-1 try_leases;
        // their drops must not grow the recycled-buffer list without
        // bound (it is capped at one buffer per possibly-concurrent
        // lease).
        let runtime = SolverRuntime::new(2);
        let hold = runtime.lease(2);
        for _ in 0..100 {
            let lease = runtime.try_lease(2);
            assert_eq!(lease.size(), 1);
        }
        drop(hold);
        let spare = lock_ignore_poison(&runtime.state).spare_bufs.len();
        assert!(spare <= runtime.capacity(), "{spare} spare buffers accumulated");
    }

    #[test]
    fn full_runtime_blocks_lessees_until_release() {
        let runtime = Arc::new(SolverRuntime::new(2));
        let lease = runtime.lease(2);
        assert_eq!(runtime.cores_in_use(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                let lease = runtime.lease(2);
                tx.send(lease.size()).unwrap();
            })
        };
        // The waiter must be blocked while we hold everything.
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(100)).is_err(),
            "lease granted while the runtime was fully leased"
        );
        drop(lease);
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), 2);
        waiter.join().unwrap();
    }

    #[test]
    fn panicking_solve_releases_every_core() {
        let runtime = SolverRuntime::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = runtime.lease(4);
            lease.run(Backoff::Spin, &|thread| {
                if thread == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "worker panic was swallowed");
        assert_eq!(runtime.cores_in_use(), 0, "panicked lease leaked cores");
        // The runtime remains fully serviceable at full width.
        let ok = AtomicUsize::new(0);
        runtime.lease(4).run(Backoff::Spin, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn leader_panic_still_waits_for_workers() {
        // The leaseholder's share panicking must not unwind past the
        // completion wait: workers still hold the job pointer. Observable
        // contract: the panic surfaces after every worker retired, the
        // cores come back, and the runtime stays usable.
        let runtime = SolverRuntime::new(3);
        let workers_done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = runtime.lease(3);
            lease.run(Backoff::Spin, &|thread| {
                if thread == 0 {
                    panic!("leader boom");
                }
                workers_done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "leader panic was swallowed");
        assert_eq!(workers_done.load(Ordering::Relaxed), 2, "workers did not all retire");
        assert_eq!(runtime.cores_in_use(), 0);
        let ok = AtomicUsize::new(0);
        runtime.lease(3).run(Backoff::Spin, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn poisoned_barrier_releases_stranded_waiters() {
        // A thread that panics before arriving at the barrier must not
        // strand its siblings: poisoning makes every waiter unwind, all
        // workers retire, and the leaseholder re-raises.
        let runtime = SolverRuntime::new(4);
        let barrier = SenseBarrier::new(4);
        let barrier = &barrier;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = runtime.lease(4);
            lease.run(Backoff::Spin, &|thread| {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if thread == 1 {
                        panic!("worker boom before the barrier");
                    }
                    let mut sense = false;
                    barrier.wait(&mut sense, Backoff::Spin); // would deadlock unpoisoned
                }));
                if let Err(panic) = run {
                    barrier.poison();
                    std::panic::resume_unwind(panic);
                }
            });
        }));
        assert!(result.is_err(), "solve abort was swallowed");
        // The runtime survives the aborted solve.
        let ok = AtomicUsize::new(0);
        runtime.lease(4).run(Backoff::Spin, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sense_barrier_orders_phases() {
        let runtime = SolverRuntime::new(4);
        let barrier = SenseBarrier::new(4);
        let phases = 50usize;
        let counter = AtomicUsize::new(0);
        runtime.lease(4).run(Backoff::Spin, &|_thread| {
            let mut sense = false;
            for phase in 0..phases {
                counter.fetch_add(1, Ordering::Relaxed);
                barrier.wait(&mut sense, Backoff::Spin);
                // After the barrier every participant of this phase has
                // incremented: the count is a full multiple of 4.
                let seen = counter.load(Ordering::Relaxed);
                assert!(seen >= (phase + 1) * 4, "phase {phase}: saw {seen}");
                barrier.wait(&mut sense, Backoff::Spin);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), phases * 4);
    }

    #[test]
    fn two_leases_run_concurrently_on_disjoint_workers() {
        // With capacity 4, two width-2 leases must be able to run at the
        // same time (this deadlocks if dispatch were serialized through a
        // single job slot): each lease's run blocks until the *other*
        // lease has also started.
        let runtime = SolverRuntime::new(4);
        let runtime = &runtime;
        let started = AtomicUsize::new(0);
        let started = &started;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let mut lease = runtime.lease(2);
                    assert_eq!(lease.size(), 2);
                    lease.run(Backoff::Spin, &|thread| {
                        if thread == 0 {
                            started.fetch_add(1, Ordering::SeqCst);
                            // Wait until both leases' leaders are inside
                            // their jobs simultaneously.
                            let mut spins = 0;
                            while started.load(Ordering::SeqCst) < 2 {
                                backoff_wait(Backoff::Spin, &mut spins);
                            }
                        }
                    });
                });
            }
        });
        assert_eq!(started.load(Ordering::SeqCst), 2);
        assert_eq!(runtime.cores_in_use(), 0);
    }

    #[test]
    fn rayon_bridge_runs_every_task_in_order_preserving_slots() {
        install_rayon_bridge();
        use rayon::prelude::*;
        let items: Vec<usize> = (0..257).collect();
        let mapped: Vec<usize> = items.par_iter().map(|&x| x * 3 + 1).collect();
        for (i, &m) in mapped.iter().enumerate() {
            assert_eq!(m, i * 3 + 1);
        }
        let (a, b) = rayon::join(|| items.iter().sum::<usize>(), || items.len());
        assert_eq!(a, 257 * 256 / 2);
        assert_eq!(b, 257);
        // The bridge leases non-blockingly: with the global runtime fully
        // leased it degrades to sequential instead of deadlocking.
        let global = SolverRuntime::global();
        let leases: Vec<CoreLease<'_>> = (0..global.capacity()).map(|_| global.lease(1)).collect();
        assert_eq!(global.cores_in_use(), global.capacity());
        let under_pressure: Vec<usize> = items.par_iter().map(|&x| x + 7).collect();
        assert_eq!(under_pressure[200], 207);
        drop(leases);
        assert_eq!(global.cores_in_use(), 0);
    }

    #[test]
    fn run_supersteps_covers_every_cell_exactly_once() {
        // The runtime-owned barrier protocol must execute each
        // (superstep, schedule core) cell exactly once, with supersteps
        // strictly ordered.
        let n_cores = 5;
        let n_steps = 20;
        let runtime = SolverRuntime::new(3);
        let mut lease = runtime.lease(3);
        assert_eq!(lease.size(), 3);
        let hits: Vec<AtomicUsize> = (0..n_steps * n_cores).map(|_| AtomicUsize::new(0)).collect();
        let done_steps = AtomicUsize::new(0);
        lease.run_supersteps(Backoff::Spin, n_steps, None, &|thread, width, step| {
            // All prior supersteps are fully retired (barrier ordering).
            assert!(done_steps.load(Ordering::SeqCst) >= step * n_cores, "superstep overlap");
            let mut core = thread;
            while core < n_cores {
                hits[step * n_cores + core].fetch_add(1, Ordering::SeqCst);
                done_steps.fetch_add(1, Ordering::SeqCst);
                core += width;
            }
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "cell {i} not executed exactly once");
        }
    }

    #[test]
    fn panicking_superstep_job_poisons_the_barrier_and_releases_every_core() {
        // A thread panicking mid-solve never arrives at the next barrier:
        // the poison must unwind its siblings, every worker retires, the
        // panic reaches the caller and the cores come back.
        let runtime = SolverRuntime::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = runtime.lease(4);
            lease.run_supersteps(Backoff::Spin, 200, None, &|thread, _width, step| {
                if thread == 1 && step == 100 {
                    panic!("superstep boom");
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed");
        assert_eq!(runtime.cores_in_use(), 0, "panicked lease leaked cores");
        // Fully serviceable afterwards.
        let ok = AtomicUsize::new(0);
        runtime.lease(4).run(Backoff::Spin, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn global_runtime_is_hardware_sized_and_shared() {
        let a = SolverRuntime::global();
        let b = SolverRuntime::global();
        assert!(Arc::ptr_eq(a, b), "global runtime rebuilt");
        assert_eq!(a.capacity(), hardware_threads());
    }
}
