//! Solving with a plan: its accessors, single and batched solves in the
//! user's numbering with their reusable workspaces, and simulation.

use super::{CacheOutcome, SolvePlan};
use crate::engine::{SharedPtr, UserOperands};
use crate::executor::Executor;
use crate::sim::{simulate_model, MachineProfile, SimReport};
use sptrsv_core::registry::{ExecModel, ExecPolicy};
use sptrsv_core::serialize::PlanFingerprint;
use sptrsv_core::{CompiledSchedule, Schedule};
use sptrsv_dag::SolveDag;
use sptrsv_sparse::CsrMatrix;
use std::sync::Arc;

/// Reusable buffer for [`SolvePlan::solve_into`]: the solution in the
/// plan's internal numbering, which later rows read while each row also
/// stores its value straight into the caller's `x`. Plans whose
/// permutation is the identity solve in the caller's `x` directly and
/// leave it empty.
#[derive(Debug, Default, Clone)]
pub struct SolveWorkspace {
    px: Vec<f64>,
}

/// Reusable buffers for [`SolvePlan::solve_batch_in_place`]: the
/// borrowed-RHS entry point of the multi-RHS executor. Holds the batch's
/// solution in internal numbering (`n × width`, which later rows read)
/// and the addresses of the caller's columns, which each row reads and
/// overwrites through the permutation. Size it once with
/// [`SolvePlan::batch_workspace`] for the widest batch the caller fuses;
/// batches up to that width then solve without heap allocation.
#[derive(Debug, Default, Clone)]
pub struct BatchWorkspace {
    px: Vec<f64>,
    columns: Vec<SharedPtr>,
}

impl SolvePlan {
    /// The schedule driving the executor (internal numbering).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The compiled execution layout.
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.executor.engine.compiled
    }

    /// The execution model the plan runs under.
    pub fn exec_model(&self) -> ExecModel {
        self.executor.model()
    }

    /// The execution policy (the spec's `sync=`/`backoff=`/`cores=`/
    /// `fastmath=` keys) the plan runs under.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.executor.engine.policy
    }

    /// The synchronization DAG an asynchronous plan waits on (`None` for
    /// barrier/serial plans): the final operand's full DAG under
    /// `sync=full`, a sparsified one under `sync=reduced`.
    pub fn sync_dag(&self) -> Option<&SolveDag> {
        self.sync_dag.as_ref()
    }

    /// The executor `solve_into`/`solve_batch_in_place` run on; its
    /// `solve` and `solve_multi` take [`SolvePlan::internal_matrix`] and
    /// operands in internal numbering.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The internal (possibly permuted) lower-triangular operand: the
    /// executor's own, so `executor().solve(internal_matrix(), …)` passes
    /// its operand check by pointer.
    pub fn internal_matrix(&self) -> &CsrMatrix {
        self.executor.operand()
    }

    /// Fresh reusable buffers sized for this plan.
    pub fn workspace(&self) -> SolveWorkspace {
        let n = if self.permuted { self.internal_matrix().n_rows() } else { 0 };
        SolveWorkspace { px: vec![0.0; n] }
    }

    /// Solves for one right-hand side into `x` (user numbering), reusing
    /// `workspace`: steady-state calls are allocation-free. A plan whose
    /// permutation is the identity runs exactly `executor().solve`; any
    /// other plan's row kernels read `b` and write `x` through the
    /// permutation (no separate gather or scatter pass).
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], workspace: &mut SolveWorkspace) {
        let n = self.internal_matrix().n_rows();
        assert_eq!(b.len(), n, "right-hand side length");
        assert_eq!(x.len(), n, "solution length");
        if !self.permuted {
            return self.executor.solve(self.internal_matrix(), b, x);
        }
        workspace.px.resize(n, 0.0);
        let user = UserOperands::one(b, x, &mut workspace.px);
        self.executor.solve_user(&self.to_internal, user);
    }

    /// Solves for one right-hand side, returning the solution in the user's
    /// original numbering (allocating convenience over
    /// [`SolvePlan::solve_into`]).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        let mut workspace = self.workspace();
        self.solve_into(b, &mut x, &mut workspace);
        x
    }

    /// Fresh batch buffers pre-sized for up to `max_r` fused right-hand
    /// sides (see [`SolvePlan::solve_batch_in_place`]).
    pub fn batch_workspace(&self, max_r: usize) -> BatchWorkspace {
        let n = self.internal_matrix().n_rows();
        BatchWorkspace { px: Vec::with_capacity(n * max_r), columns: Vec::with_capacity(max_r) }
    }

    /// Solves every right-hand side in `rhs` as **one** multi-RHS solve,
    /// in place: on entry each `rhs[j]` is a full-length right-hand side in
    /// the user's numbering, on exit it holds the corresponding solution.
    /// The batch shares one core lease and one traversal of `L`; each row
    /// holds up to 8 of its values at a time in register accumulators.
    ///
    /// This is the borrowed-RHS entry point the serving layer's combiner
    /// uses: no copy into a packed caller-owned buffer, no per-request
    /// output allocation, and no gather or scatter pass — every row reads
    /// its right-hand sides from the borrowed columns and writes its
    /// solutions back into them through the plan's permutation, once per
    /// batch. A batch of one runs the single-RHS kernels. Steady-state
    /// calls are allocation-free once `workspace` has seen the batch width
    /// ([`SolvePlan::batch_workspace`] pre-sizes it).
    ///
    /// Each column goes through the exact per-row operation sequence of a
    /// standalone [`SolvePlan::solve_into`] — batching changes grouping,
    /// never arithmetic — so results are bit-identical to solving each
    /// request alone (under the default `fastmath=off` policy; `fastmath`
    /// kernels keep the documented `1e-12` tolerance instead).
    pub fn solve_batch_in_place(&self, rhs: &mut [Vec<f64>], workspace: &mut BatchWorkspace) {
        let n = self.internal_matrix().n_rows();
        let k = rhs.len();
        if k == 0 {
            return;
        }
        for (j, b) in rhs.iter().enumerate() {
            assert_eq!(b.len(), n, "right-hand side {j} has the wrong length");
        }
        // Every row writes its internal values before any row reads them,
        // so the buffer only grows: shrinking it for a narrower batch would
        // make the next wider one zero-fill the difference.
        if workspace.px.len() < n * k {
            workspace.px.resize(n * k, 0.0);
        }
        let px = &mut workspace.px[..n * k];
        let user = UserOperands::in_place(rhs, px, &mut workspace.columns);
        self.executor.solve_user(&self.to_internal, user);
    }

    /// Simulates this plan's execution on a machine profile, under the
    /// plan's execution model and policy, reusing the plan's shared
    /// compiled layout, (for async plans) the executor's synchronization
    /// DAG and (under `fastmath=on`) the detected kernel plan — no per-call
    /// re-compilation, re-reduction or re-detection.
    pub fn simulate(&self, profile: &MachineProfile) -> SimReport {
        simulate_model(
            self.internal_matrix(),
            self.compiled(),
            self.exec_model(),
            self.sync_dag.as_ref(),
            self.executor.engine.kernel().map(Arc::as_ref),
            profile,
            self.exec_policy(),
        )
    }

    /// The warm-start fingerprint of this plan: a stable content hash over
    /// the operand's structure and the schedule-relevant build key.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.fingerprint
    }

    /// How this plan's schedule was obtained: computed, or served by the
    /// in-process / on-disk plan cache.
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.cache_outcome
    }
}
