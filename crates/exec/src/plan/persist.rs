//! Persisting a plan: the in-process cache entry it publishes, plan files
//! ([`SolvePlan::save`] and loading one back into [`Parts`]), the
//! removed-edge witness check that makes a saved reduced wait DAG safe to
//! reload, and the plan-cache file path.

use super::{Parts, PlanError, Run, SolvePlan};
use crate::executor::wait_dag;
use sptrsv_core::kernel::KernelPlan;
use sptrsv_core::registry::SyncPolicy;
use sptrsv_core::serialize::{
    write_plan_file, CachedPlan, PlanFingerprint, SavedPlan, SerializeError,
};
use sptrsv_core::CompiledSchedule;
use sptrsv_dag::SolveDag;
use sptrsv_sparse::{CsrMatrix, Permutation};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

impl Parts {
    /// From a plan file: skip scheduling and reordering, but check that
    /// the file belongs to this build, re-validate its schedule against
    /// the operand's DAG and re-compile it — disk content is untrusted, and
    /// a damaged or foreign file must fail, never mis-solve.
    pub(super) fn saved(
        saved: SavedPlan,
        lower: CsrMatrix,
        base_perm: Permutation,
        fingerprint: PlanFingerprint,
        run: &Run,
    ) -> Result<Parts, PlanError> {
        if saved.fingerprint != fingerprint {
            return Err(PlanError::Cache(SerializeError::FingerprintMismatch {
                expected: fingerprint,
                found: saved.fingerprint,
            }));
        }
        let n = lower.n_rows();
        if saved.schedule.n_vertices() != n {
            return Err(PlanError::Cache(SerializeError::Parse(format!(
                "plan file covers {} vertices, operand has {n} rows",
                saved.schedule.n_vertices()
            ))));
        }
        let (matrix, to_internal) = match &saved.reorder_perm {
            Some(perm) => {
                if perm.len() != n {
                    return Err(PlanError::Cache(SerializeError::Parse(format!(
                        "plan file reorder permutation covers {} vertices, operand has {n} rows",
                        perm.len()
                    ))));
                }
                let permuted = lower.symmetric_permute(perm).map_err(PlanError::Matrix)?;
                (permuted, perm.compose(&base_perm))
            }
            None => (lower, base_perm),
        };
        let final_dag = SolveDag::from_lower_triangular(&matrix);
        // The load-bearing safety check: any schedule that validates
        // against the operand's DAG solves it correctly, so a forged or
        // stale-but-well-formed file is either rejected here or harmless.
        saved.schedule.validate(&final_dag).map_err(PlanError::Schedule)?;
        let compiled = Arc::new(CompiledSchedule::from_schedule(&saved.schedule));
        // Replay the saved kernel verdict when the file carries one —
        // `from_verdict` re-validates every op against the compiled cells,
        // so a damaged section errors instead of mis-planning. Files
        // without the section re-detect at assembly.
        let kernel = match (&saved.kernel, run.policy.fastmath) {
            (Some(ops), true) => {
                Some(Arc::new(KernelPlan::from_verdict(&matrix, &compiled, ops).map_err(|e| {
                    PlanError::Cache(SerializeError::Parse(format!("kernel section: {e}")))
                })?))
            }
            _ => None,
        };
        let sync_dag = match &saved.removed_sync_edges {
            // Reconstruct reduced = full − removed, after checking every
            // removed edge keeps a two-path witness in the full DAG (the
            // asynchronous executor's safety argument); a file that fails
            // the check errors out.
            Some(removed) if run.waits_reduced() => Some(
                reconstruct_reduced_dag(&final_dag, removed)
                    .map_err(|e| PlanError::Cache(SerializeError::Parse(e)))?,
            ),
            _ => wait_dag(run.model, run.policy.sync, || final_dag),
        };
        Ok(Parts {
            matrix: Arc::new(matrix),
            to_internal,
            schedule: saved.schedule,
            compiled,
            reorder_perm: saved.reorder_perm,
            kernel,
            sync_dag,
        })
    }
}

impl SolvePlan {
    /// The [`CachedPlan`] entry publishing this plan's artifacts, tagged
    /// with the pre-reorder value digest the inserting build saw.
    pub(super) fn cache_entry(&self, values_digest: u64) -> CachedPlan {
        CachedPlan {
            schedule: self.schedule.clone(),
            compiled: Arc::clone(&self.executor.engine.compiled),
            reorder_perm: self.reorder_perm.clone(),
            matrix: Arc::clone(self.executor.operand()),
            values_digest,
            kernel: self.executor.engine.kernel().cloned(),
            reduced_sync_dag: self.reduced_sync_dag().cloned(),
        }
    }

    /// The wait DAG of an asynchronous plan under `sync=reduced`.
    fn reduced_sync_dag(&self) -> Option<&SolveDag> {
        self.sync_dag.as_ref().filter(|_| self.exec_policy().sync == SyncPolicy::Reduced)
    }

    /// Saves this plan's scheduling artifact (schedule + reorder
    /// permutation, under its fingerprint) to `path` in the versioned plan
    /// format, for [`PlanBuilder::load_plan`](super::PlanBuilder::load_plan)
    /// or a [`PlanBuilder::plan_cache`](super::PlanBuilder::plan_cache)
    /// directory to pick up later.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PlanError> {
        // Persist the derived artifacts too: the kernel verdict (replayed
        // on load instead of re-detecting) and, for reduced-sync async
        // plans, the edges the transitive reduction removed (so a warm
        // load reconstructs the reduced DAG without re-reducing).
        let removed_sync_edges = self.reduced_sync_dag().map(|reduced| {
            let full = SolveDag::from_lower_triangular(self.internal_matrix());
            removed_edges(&full, reduced)
        });
        let saved = SavedPlan {
            fingerprint: self.fingerprint,
            key: self.schedule_key.clone(),
            schedule: self.schedule.clone(),
            reorder_perm: self.reorder_perm.clone(),
            kernel: self.executor.engine.kernel().map(|k| k.verdict()),
            removed_sync_edges,
        };
        write_plan_file(&saved, path).map_err(PlanError::Cache)
    }
}

/// The canonical location of a fingerprint's plan file under a cache
/// directory.
pub(super) fn plan_cache_path(dir: &Path, fingerprint: &PlanFingerprint) -> PathBuf {
    dir.join(format!("{fingerprint}.plan"))
}

/// The edges present in `full` but absent from `reduced` — what a
/// transitive reduction removed, in deterministic (target, source) scan
/// order. This is the payload [`SolvePlan::save`] persists for
/// reduced-sync asynchronous plans.
fn removed_edges(full: &SolveDag, reduced: &SolveDag) -> Vec<(usize, usize)> {
    let mut removed = Vec::new();
    for w in 0..full.n() {
        for &u in full.parents(w) {
            if !reduced.has_edge(u, w) {
                removed.push((u, w));
            }
        }
    }
    removed
}

/// Rebuilds a reduced wait DAG as `full` minus `removed`, validating that
/// every removed edge (a) exists in the full DAG and (b) has a two-path
/// witness `u → x → w` in the full DAG. The witness condition is what makes
/// the reconstruction safe: if every removed edge is covered by a two-path
/// in the full DAG, reachability is preserved even when witness edges are
/// themselves removed (induction on topological span — the witness path's
/// edges span strictly fewer levels, so they are reachable by shorter
/// removed-edge detours that the induction already covers). A file whose
/// edge set fails either check is corrupt or foreign and must error, never
/// produce a DAG the asynchronous executor under-waits on.
fn reconstruct_reduced_dag(
    full: &SolveDag,
    removed: &[(usize, usize)],
) -> Result<SolveDag, String> {
    let n = full.n();
    let mut removed_set: HashSet<(usize, usize)> = HashSet::with_capacity(removed.len());
    for &(u, w) in removed {
        if u >= n || w >= n {
            return Err(format!("removed sync edge ({u}, {w}) out of range for {n} vertices"));
        }
        if !full.has_edge(u, w) {
            return Err(format!("removed sync edge ({u}, {w}) is not in the full DAG"));
        }
        let witnessed = full.children(u).iter().any(|&x| x != w && full.has_edge(x, w));
        if !witnessed {
            return Err(format!(
                "removed sync edge ({u}, {w}) has no two-path witness; \
                 dropping it would lose a dependency"
            ));
        }
        if !removed_set.insert((u, w)) {
            return Err(format!("removed sync edge ({u}, {w}) listed twice"));
        }
    }
    let mut edges = Vec::with_capacity(full.n_edges() - removed_set.len());
    for w in 0..n {
        for &u in full.parents(w) {
            if !removed_set.contains(&(u, w)) {
                edges.push((u, w));
            }
        }
    }
    Ok(SolveDag::from_edges(n, &edges, full.weights().to_vec()))
}
