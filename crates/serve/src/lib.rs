//! Batching solve-as-a-service front-end over a [`SolvePlan`].
//!
//! The execution layers beneath this crate already amortize everything a
//! *single* caller pays per solve — schedules compile once, workers
//! persist, steady-state solves are allocation-free. What nothing
//! amortizes is the cost of *many* callers: each concurrent client
//! driving its own closed-loop `solve_into` pays one dispatch, one core
//! lease and one full traversal of the operand per right-hand side. A
//! [`SolveServer`] closes that gap the way SpMP sparsifies
//! synchronization and HDagg aggregates wavefronts — by amortizing the
//! per-unit overhead across units:
//!
//! * **Submission queue per plan** — clients [`SolveServer::submit`] one
//!   right-hand side and get a [`SolveHandle`] back immediately;
//! * **Coalescing combiner** — queued requests are fused into one
//!   multi-RHS solve through the plan's borrowed-RHS entry point
//!   ([`SolvePlan::solve_batch_in_place`]): one dispatch, one lease and
//!   one matrix traversal serve up to [`ServeBuilder::max_batch`]
//!   requests. Whoever needs a result runs the batch (flat combining,
//!   Hendler et al., SPAA 2010): a [`SolveHandle::wait`] that finds the
//!   combiner free drains the queue and solves on its own thread, with no
//!   linger and no thread handoff, completing every request it fused. A
//!   background batcher thread is only the fallback for requests nobody
//!   waits on (async submitters, [`SolveHandle::is_ready`] pollers,
//!   dropped handles, the shutdown drain); for those the
//!   [`ServeBuilder::batch_wait`] linger bounds how long a request waits
//!   for company before a partial batch dispatches;
//! * **Admission control** — when the queue is full (depth implies the
//!   latency budget is blown) a submit either blocks
//!   ([`Admission::Block`]) or is shed with its buffer returned
//!   ([`Admission::Shed`]), so goodput degrades predictably instead of
//!   latency collapsing;
//! * **Timing breakdown** — every response carries queued / solve /
//!   total durations and the batch width it rode in
//!   ([`RequestTiming`]).
//!
//! Batching changes *grouping*, never per-column arithmetic: a fused
//! request goes through the identical per-row operation sequence as a
//! standalone solve, so results are **bit-identical** to solving each
//! request alone (under the default `fastmath=off` policy; `fastmath=on`
//! keeps its documented `1e-12` tolerance). The warm serving path —
//! submit, batch, solve, wait — performs **no heap allocation**: slots
//! recycle through a pool, the queue and batch buffers are bounded and
//! pre-sized, and the fused solve writes each solution straight into its
//! request's own buffer.
//!
//! ```
//! use sptrsv_exec::PlanBuilder;
//! use sptrsv_serve::ServeBuilder;
//! use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
//! use std::time::Duration;
//!
//! let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
//! let plan = PlanBuilder::new(&l).scheduler("growlocal").build()?;
//! // The batch width and linger are the server's own settings.
//! let server = ServeBuilder::new(plan)
//!     .max_batch(8)
//!     .batch_wait(Duration::from_micros(100))
//!     .start();
//! let handle = server.submit(vec![1.0; l.n_rows()]).unwrap();
//! let response = handle.wait();
//! assert!(sptrsv_sparse::linalg::relative_residual(&l, &response.x, &vec![1.0; l.n_rows()]) < 1e-12);
//! server.shutdown();
//! # Ok::<(), sptrsv_exec::PlanError>(())
//! ```

#![warn(missing_docs)]

use sptrsv_exec::{BatchWorkspace, SolvePlan};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batch width applied when [`ServeBuilder::max_batch`] is not called.
pub const DEFAULT_MAX_BATCH: usize = 8;

/// Linger bound applied when [`ServeBuilder::batch_wait`] is not called.
pub const DEFAULT_BATCH_WAIT: Duration = Duration::from_micros(100);

/// Largest queue depth [`ServeBuilder::latency_budget`] derives. A budget
/// many batch-solve estimates long (a tiny estimate, say) would otherwise
/// size the pre-allocated queue and slot pool past any real memory; this
/// many queued requests already hold tens of thousands of right-hand
/// sides, so a deeper queue could never drain within a meaningful budget.
pub const MAX_BUDGET_DEPTH: usize = 1 << 16;

/// What a full queue does to the next submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Block the submitter until a combiner frees queue space (closed-loop
    /// clients; no request is ever lost).
    #[default]
    Block,
    /// Reject immediately with [`SubmitError::QueueFull`], handing the
    /// buffer back (open-loop clients; sheds load instead of letting the
    /// queue — and hence every queued request's latency — grow without
    /// bound).
    Shed,
}

/// Per-request timing breakdown, reported with every [`SolveResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Submission to batch formation: time spent waiting in the queue.
    /// A request whose waiter combined it queues only until `wait` ran;
    /// one nobody waits on also spends the batcher's linger here.
    pub queued: Duration,
    /// Duration of the fused multi-RHS solve the request rode in.
    pub solve: Duration,
    /// Submission to result availability (`queued` + batch assembly +
    /// `solve`).
    pub total: Duration,
    /// How many requests were fused into the request's batch (1 ..= the
    /// server's `max_batch`).
    pub batch_width: usize,
}

/// A completed request: the solution and its timing breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// The solution, in the user's numbering. The vector is the same
    /// buffer the request was submitted with (solved in place), so a
    /// closed-loop client can recycle it for its next submission.
    pub x: Vec<f64>,
    /// The request's queued / solve / total / batch-width breakdown.
    pub timing: RequestTiming,
}

/// Why a submission was not accepted. Every variant hands the right-hand
/// side buffer back so the caller can retry or recycle it.
pub enum SubmitError {
    /// The queue is at depth and the server sheds ([`Admission::Shed`]).
    QueueFull {
        /// The rejected right-hand side, returned to the caller.
        b: Vec<f64>,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown {
        /// The rejected right-hand side, returned to the caller.
        b: Vec<f64>,
    },
    /// The right-hand side's length does not match the plan's dimension.
    WrongSize {
        /// The rejected right-hand side, returned to the caller.
        b: Vec<f64>,
        /// The plan's dimension.
        expected: usize,
    },
}

impl fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { b } => write!(f, "QueueFull {{ b: [f64; {}] }}", b.len()),
            SubmitError::ShuttingDown { b } => {
                write!(f, "ShuttingDown {{ b: [f64; {}] }}", b.len())
            }
            SubmitError::WrongSize { b, expected } => {
                write!(f, "WrongSize {{ b: [f64; {}], expected: {expected} }}", b.len())
            }
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { .. } => write!(f, "submission shed: queue at depth"),
            SubmitError::ShuttingDown { .. } => write!(f, "submission rejected: shutting down"),
            SubmitError::WrongSize { b, expected } => {
                write!(f, "right-hand side has {} entries, the plan solves {expected}", b.len())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl SubmitError {
    /// The rejected right-hand side, recovered from any variant.
    pub fn into_buffer(self) -> Vec<f64> {
        match self {
            SubmitError::QueueFull { b }
            | SubmitError::ShuttingDown { b }
            | SubmitError::WrongSize { b, .. } => b,
        }
    }
}

/// Lifecycle of one request, guarded by its slot's mutex.
enum SlotState {
    /// In the pool, awaiting reuse.
    Idle,
    /// Queued: the right-hand side awaits a combiner. `awaited` is set
    /// while a [`SolveHandle::wait`] sleeps on the slot, so a combiner
    /// releasing the role knows whom to hand it to.
    Pending { b: Vec<f64>, awaited: bool },
    /// Drained from the queue into a batch; the solve is running.
    InFlight,
    /// Solved: the solution awaits [`SolveHandle::wait`].
    Done { x: Vec<f64>, timing: RequestTiming },
}

/// One request's rendezvous cell: the submitter parks the right-hand side
/// here, a combiner swaps in the solution, the handle takes it out.
struct Slot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot { state: Mutex::new(SlotState::Idle), done: Condvar::new() })
    }
}

/// The queue proper, guarded by one mutex: slots in submission order plus
/// the shutdown latch.
struct QueueState {
    /// Queued requests with their submission instants (kept beside the
    /// slot so the batcher's linger math never locks slot states).
    slots: VecDeque<(Arc<Slot>, Instant)>,
    shutting_down: bool,
}

/// Monotonic serving counters (relaxed atomics; exact because every
/// transition increments exactly one).
struct Counters {
    submitted: AtomicUsize,
    completed: AtomicUsize,
    shed: AtomicUsize,
    batches: AtomicUsize,
    /// `widths[k]` counts batches that fused exactly `k` requests
    /// (index 0 unused).
    widths: Vec<AtomicUsize>,
}

/// The combiner role and its reusable batch buffers, pre-sized for
/// `max_batch` in [`ServeBuilder::start`] so a warm combine never
/// allocates. Whoever holds the lock drains and solves ([`combine`]).
///
/// Lock order: `combiner` → `queue` → slot. A thread holding a slot lock
/// (a waiter checking its request) only ever `try_lock`s the combiner, so
/// it can never wait on a combiner that is waiting on that slot.
struct Combiner {
    batch: Vec<(Arc<Slot>, Instant)>,
    bufs: Vec<Vec<f64>>,
    workspace: BatchWorkspace,
}

/// State shared by clients, the batcher thread and handles.
struct Shared {
    queue: Mutex<QueueState>,
    combiner: Mutex<Combiner>,
    /// Signals the batcher: work arrived or shutdown began.
    work: Condvar,
    /// Signals blocked submitters: queue space freed or shutdown began.
    space: Condvar,
    /// Recycled slots; bounded so a warm pool never reallocates.
    pool: Mutex<Vec<Arc<Slot>>>,
    pool_cap: usize,
    counters: Counters,
    plan: Arc<SolvePlan>,
    max_batch: usize,
    batch_wait: Duration,
    queue_depth: usize,
    admission: Admission,
}

/// A snapshot of a server's counters ([`SolveServer::stats`]; also
/// returned by [`SolveServer::shutdown`] after the queue drained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub submitted: usize,
    /// Requests solved and completed.
    pub completed: usize,
    /// Requests rejected by [`Admission::Shed`] backpressure.
    pub shed: usize,
    /// Fused multi-RHS solves dispatched.
    pub batches: usize,
    /// `widths[k]` = number of batches that fused exactly `k` requests
    /// (`widths[0]` unused; length `max_batch + 1`).
    pub widths: Vec<usize>,
}

impl ServerStats {
    /// Mean achieved batch width (`completed / batches`), 0.0 before any
    /// batch dispatched.
    pub fn mean_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// Configures and starts a [`SolveServer`]; see the module docs.
///
/// The batch width and linger are set here and nowhere else; unset, they
/// are [`DEFAULT_MAX_BATCH`] and [`DEFAULT_BATCH_WAIT`].
pub struct ServeBuilder {
    plan: Arc<SolvePlan>,
    max_batch: usize,
    batch_wait: Duration,
    queue_depth: Option<usize>,
    admission: Admission,
}

impl ServeBuilder {
    /// A builder serving `plan` with the defaults: batch width 8, linger
    /// 100 µs, queue depth `4 × batch width`, blocking admission.
    pub fn new(plan: SolvePlan) -> ServeBuilder {
        ServeBuilder::from_arc(Arc::new(plan))
    }

    /// A builder over an already-shared plan. The server holds the `Arc`
    /// directly, so a plan pulled out of a warm-start
    /// [`PlanCache`](sptrsv_exec::PlanCache) — or one other components
    /// still reference — is served without cloning or rebuilding any of
    /// its compiled artifacts.
    pub fn from_arc(plan: Arc<SolvePlan>) -> ServeBuilder {
        ServeBuilder {
            plan,
            max_batch: DEFAULT_MAX_BATCH,
            batch_wait: DEFAULT_BATCH_WAIT,
            queue_depth: None,
            admission: Admission::default(),
        }
    }

    /// Maximum requests fused into one multi-RHS solve. Batching changes
    /// grouping, never per-column arithmetic, so fused results stay
    /// bit-identical to per-request solves.
    pub fn max_batch(mut self, max_batch: usize) -> ServeBuilder {
        assert!(max_batch > 0, "a batch fuses at least one request");
        self.max_batch = max_batch;
        self
    }

    /// How long a request nobody waits on lingers for company before the
    /// batcher dispatches it in a partial batch (zero = dispatch
    /// immediately). A request whose handle is in [`SolveHandle::wait`]
    /// never pays it: the waiter solves the batch itself.
    pub fn batch_wait(mut self, batch_wait: Duration) -> ServeBuilder {
        self.batch_wait = batch_wait;
        self
    }

    /// Queue depth at which admission control engages.
    pub fn queue_depth(mut self, queue_depth: usize) -> ServeBuilder {
        assert!(queue_depth > 0, "a server needs room for at least one request");
        self.queue_depth = Some(queue_depth);
        self
    }

    /// Full-queue behavior: block the submitter or shed the request.
    pub fn admission(mut self, admission: Admission) -> ServeBuilder {
        self.admission = admission;
        self
    }

    /// Sizes the queue depth from a latency budget: with batches of up to
    /// `max_batch` requests taking about `est_batch_solve` each, a request
    /// admitted behind `d` queued ones waits about
    /// `ceil(d / max_batch) × est_batch_solve` — the depth is the largest
    /// `d` that keeps the estimate within `budget` (at least 1, at most
    /// [`MAX_BUDGET_DEPTH`]). Requests beyond that depth would blow the
    /// budget, so they block or shed at admission instead of queueing
    /// doomed work.
    pub fn latency_budget(self, budget: Duration, est_batch_solve: Duration) -> ServeBuilder {
        assert!(
            !est_batch_solve.is_zero(),
            "a batch solve takes time: the estimate must be nonzero"
        );
        let width = self.max_batch;
        let batches_in_budget =
            usize::try_from(budget.as_nanos() / est_batch_solve.as_nanos()).unwrap_or(usize::MAX);
        let depth = batches_in_budget.saturating_mul(width).clamp(1, MAX_BUDGET_DEPTH);
        self.queue_depth(depth)
    }

    /// Starts the fallback batcher thread and returns the running server
    /// once that thread runs.
    pub fn start(self) -> SolveServer {
        let (max_batch, batch_wait) = (self.max_batch, self.batch_wait);
        let queue_depth = self.queue_depth.unwrap_or(4 * max_batch);
        // Warm slots cycle queue -> batch -> pool: depth + one full batch
        // in flight bounds the live population, headroom absorbs handles
        // held briefly past completion.
        let pool_cap = max_batch
            .checked_mul(2)
            .and_then(|batches| batches.checked_add(queue_depth))
            .expect("queue depth plus two batches of slots overflows usize");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                slots: VecDeque::with_capacity(queue_depth),
                shutting_down: false,
            }),
            combiner: Mutex::new(Combiner {
                batch: Vec::with_capacity(max_batch),
                bufs: Vec::with_capacity(max_batch),
                workspace: self.plan.batch_workspace(max_batch),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            pool: Mutex::new(Vec::with_capacity(pool_cap)),
            pool_cap,
            counters: Counters {
                submitted: AtomicUsize::new(0),
                completed: AtomicUsize::new(0),
                shed: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
                widths: (0..=max_batch).map(|_| AtomicUsize::new(0)).collect(),
            },
            plan: self.plan,
            max_batch,
            batch_wait,
            queue_depth,
            admission: self.admission,
        });
        let batcher_shared = Arc::clone(&shared);
        // Return only once the batcher runs: waiters never need it, so
        // without this its one-time thread start-up allocations could
        // land in the middle of a warm, allocation-free round trip.
        let started = Arc::new(Barrier::new(2));
        let batcher_started = Arc::clone(&started);
        let batcher = std::thread::Builder::new()
            .name("sptrsv-serve-batcher".to_string())
            .spawn(move || {
                batcher_started.wait();
                batcher_loop(&batcher_shared)
            })
            .expect("spawning the batcher thread");
        started.wait();
        SolveServer { shared, batcher: Some(batcher) }
    }
}

/// A running batching front-end over one [`SolvePlan`]; see the module
/// docs. One server per plan — start several to serve several plans from
/// the same shared `SolverRuntime`.
pub struct SolveServer {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
}

impl SolveServer {
    /// Starts a server over `plan` with the default batch width, linger,
    /// depth and admission (equivalent to `SolveServer::builder(plan).start()`).
    pub fn start(plan: SolvePlan) -> SolveServer {
        ServeBuilder::new(plan).start()
    }

    /// A [`ServeBuilder`] over `plan` for non-default batching, depth and
    /// admission settings.
    pub fn builder(plan: SolvePlan) -> ServeBuilder {
        ServeBuilder::new(plan)
    }

    /// The plan this server solves with (e.g. to compute reference
    /// solutions or inspect its execution policy).
    pub fn plan(&self) -> &SolvePlan {
        &self.shared.plan
    }

    /// The batch width in effect.
    pub fn max_batch(&self) -> usize {
        self.shared.max_batch
    }

    /// The linger bound in effect.
    pub fn batch_wait(&self) -> Duration {
        self.shared.batch_wait
    }

    /// The queue depth at which admission control engages.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Submits one right-hand side. On success the buffer is owned by the
    /// server until the returned [`SolveHandle`] yields it back (solved in
    /// place) — on rejection every error variant returns it immediately.
    ///
    /// With [`Admission::Block`] a full queue blocks the caller until a
    /// combiner frees space; with [`Admission::Shed`] it returns
    /// [`SubmitError::QueueFull`]. Steady-state submissions are
    /// allocation-free: slots recycle through the server's pool.
    ///
    /// ```
    /// use sptrsv_exec::PlanBuilder;
    /// use sptrsv_serve::{SolveServer, SubmitError};
    /// use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    ///
    /// let l = grid2d_laplacian(12, 12, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    /// let n = l.n_rows();
    /// let server = SolveServer::start(PlanBuilder::new(&l).scheduler("growlocal").build()?);
    ///
    /// // A wrong-sized right-hand side is rejected with the buffer returned.
    /// match server.submit(vec![1.0; n + 1]) {
    ///     Err(SubmitError::WrongSize { b, expected }) => {
    ///         assert_eq!((b.len(), expected), (n + 1, n));
    ///     }
    ///     other => panic!("expected WrongSize, got {other:?}"),
    /// }
    ///
    /// // A well-formed submission yields a handle; `wait` returns the
    /// // solution in the same buffer, solved in place.
    /// let response = server.submit(vec![1.0; n]).unwrap().wait();
    /// assert!(sptrsv_sparse::linalg::relative_residual(&l, &response.x, &vec![1.0; n]) < 1e-12);
    /// assert!(response.timing.batch_width >= 1);
    /// server.shutdown();
    /// # Ok::<(), sptrsv_exec::PlanError>(())
    /// ```
    pub fn submit(&self, b: Vec<f64>) -> Result<SolveHandle, SubmitError> {
        let shared = &self.shared;
        let n = shared.plan.internal_matrix().n_rows();
        if b.len() != n {
            return Err(SubmitError::WrongSize { b, expected: n });
        }
        let mut queue = shared.queue.lock().unwrap();
        if queue.shutting_down {
            return Err(SubmitError::ShuttingDown { b });
        }
        while queue.slots.len() >= shared.queue_depth {
            match shared.admission {
                Admission::Shed => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::QueueFull { b });
                }
                Admission::Block => {
                    queue = shared.space.wait(queue).unwrap();
                    if queue.shutting_down {
                        return Err(SubmitError::ShuttingDown { b });
                    }
                }
            }
        }
        let slot = shared.pool.lock().unwrap().pop().unwrap_or_else(Slot::new);
        *slot.state.lock().unwrap() = SlotState::Pending { b, awaited: false };
        queue.slots.push_back((Arc::clone(&slot), Instant::now()));
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        shared.work.notify_one();
        Ok(SolveHandle { slot, shared: Arc::clone(shared) })
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            widths: c.widths.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Stops accepting submissions, drains every queued request
    /// (outstanding [`SolveHandle`]s stay redeemable), waits out any
    /// combine a waiter is running, joins the batcher thread and returns
    /// the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        if let Some(batcher) = self.batcher.take() {
            batcher.join().expect("the batcher thread never panics");
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut queue = self.shared.queue.lock().unwrap();
        queue.shutting_down = true;
        drop(queue);
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }
}

impl Drop for SolveServer {
    fn drop(&mut self) {
        if let Some(batcher) = self.batcher.take() {
            self.begin_shutdown();
            batcher.join().expect("the batcher thread never panics");
        }
    }
}

impl fmt::Debug for SolveServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveServer")
            .field("max_batch", &self.shared.max_batch)
            .field("batch_wait", &self.shared.batch_wait)
            .field("queue_depth", &self.shared.queue_depth)
            .field("admission", &self.shared.admission)
            .finish()
    }
}

/// Redeems one submitted request; returned by [`SolveServer::submit`].
///
/// Dropping a handle without calling [`SolveHandle::wait`] abandons the
/// result (the solve still happens — a later waiter's combine or the
/// batcher after its linger runs it; the slot is simply not recycled).
pub struct SolveHandle {
    slot: Arc<Slot>,
    shared: Arc<Shared>,
}

impl SolveHandle {
    /// Blocks until the request is solved and returns the solution (in
    /// the buffer the request was submitted with) plus its timing
    /// breakdown.
    ///
    /// A waiter whose request is still queued takes the combiner role if
    /// nobody holds it: it drains up to `max_batch` queued requests
    /// (oldest first, its own among them or ahead of it), solves them as
    /// one batch on the calling thread and completes them all, repeating
    /// until its own request is done. Otherwise it sleeps until the
    /// current combiner either completes the request or hands the role on.
    pub fn wait(self) -> SolveResponse {
        let shared = &self.shared;
        let mut state = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *state, SlotState::Idle) {
                SlotState::Done { x, timing } => {
                    drop(state);
                    // Recycle the slot; a saturated pool lets it drop.
                    let mut pool = shared.pool.lock().unwrap();
                    if pool.len() < shared.pool_cap {
                        pool.push(Arc::clone(&self.slot));
                    }
                    return SolveResponse { x, timing };
                }
                SlotState::Pending { b, .. } => match shared.combiner.try_lock() {
                    Ok(combiner) => {
                        *state = SlotState::Pending { b, awaited: false };
                        drop(state);
                        combine_and_hand_off(shared, combiner);
                        state = self.slot.state.lock().unwrap();
                    }
                    Err(TryLockError::WouldBlock) => {
                        *state = SlotState::Pending { b, awaited: true };
                        state = self.slot.done.wait(state).unwrap();
                    }
                    Err(TryLockError::Poisoned(_)) => panic!("a combiner panicked mid-solve"),
                },
                other => {
                    *state = other;
                    state = self.slot.done.wait(state).unwrap();
                }
            }
        }
    }

    /// Whether the result is ready (i.e. [`SolveHandle::wait`] would
    /// return without blocking).
    pub fn is_ready(&self) -> bool {
        matches!(*self.slot.state.lock().unwrap(), SlotState::Done { .. })
    }
}

impl fmt::Debug for SolveHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveHandle").field("ready", &self.is_ready()).finish()
    }
}

/// The fallback batcher thread: lingers for company, then takes the
/// combiner role. It dispatches only what no waiter has combined first —
/// requests nobody waits on, and the shutdown drain.
fn batcher_loop(shared: &Shared) {
    loop {
        let mut queue = shared.queue.lock().unwrap();
        loop {
            if queue.slots.is_empty() {
                if queue.shutting_down {
                    drop(queue);
                    // Outlast a waiter's in-flight combine so shutdown
                    // returns final counters.
                    drop(shared.combiner.lock().unwrap());
                    return;
                }
                queue = shared.work.wait(queue).unwrap();
                continue;
            }
            // Dispatch when the batch is full, shutdown is draining, or
            // the oldest request's linger expired; otherwise wait out the
            // remaining linger (re-checking on every wake).
            if queue.slots.len() >= shared.max_batch || queue.shutting_down {
                break;
            }
            let waited = queue.slots.front().expect("non-empty").1.elapsed();
            if waited >= shared.batch_wait {
                break;
            }
            queue = shared.work.wait_timeout(queue, shared.batch_wait - waited).unwrap().0;
        }
        drop(queue);
        combine_and_hand_off(shared, shared.combiner.lock().unwrap());
    }
}

/// Runs one [`combine`] as the role's holder, releases the role, and — if
/// requests are still queued — wakes the waiter sleeping on the oldest of
/// them that has one, so it retries the role instead of depending on the
/// batcher's linger (requests nobody waits on are skipped: they are the
/// batcher's).
fn combine_and_hand_off(shared: &Shared, mut combiner: MutexGuard<'_, Combiner>) {
    combine(shared, &mut combiner);
    drop(combiner);
    let queue = shared.queue.lock().unwrap();
    for (slot, _) in &queue.slots {
        let state = slot.state.lock().unwrap();
        if matches!(*state, SlotState::Pending { awaited: true, .. }) {
            slot.done.notify_one();
            return;
        }
    }
}

/// One combining pass: drain up to `max_batch` queued requests (FIFO),
/// fuse them into one multi-RHS solve and complete each — allocation-free
/// once `combiner`'s buffers have seen `max_batch`. Returns without
/// solving when the queue is empty (a previous combiner got there first).
fn combine(shared: &Shared, combiner: &mut Combiner) {
    let Combiner { batch, bufs, workspace } = combiner;
    let mut queue = shared.queue.lock().unwrap();
    let width = queue.slots.len().min(shared.max_batch);
    if width == 0 {
        return;
    }
    batch.extend(queue.slots.drain(..width));
    drop(queue);
    // Freed queue space: admit blocked submitters.
    shared.space.notify_all();

    let formed = Instant::now();
    for (slot, _) in batch.iter() {
        let mut state = slot.state.lock().unwrap();
        match std::mem::replace(&mut *state, SlotState::InFlight) {
            SlotState::Pending { b, .. } => bufs.push(b),
            _ => unreachable!("queued slots are pending until a combiner drains them"),
        }
    }
    let solve_start = Instant::now();
    shared.plan.solve_batch_in_place(bufs, workspace);
    let solve = solve_start.elapsed();

    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared.counters.widths[width].fetch_add(1, Ordering::Relaxed);
    let done = Instant::now();
    for ((slot, submitted), x) in batch.drain(..).zip(bufs.drain(..)) {
        let timing = RequestTiming {
            queued: formed.duration_since(submitted),
            solve,
            total: done.duration_since(submitted),
            batch_width: width,
        };
        *slot.state.lock().unwrap() = SlotState::Done { x, timing };
        slot.done.notify_all();
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}
