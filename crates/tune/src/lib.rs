//! # sptrsv-tune — the `spec=auto` decision layer
//!
//! The registry enumerates 7 schedulers × 3 execution models × 9 policy
//! keys, and the calibrated simulator can rank them — this crate is the
//! piece that *chooses*. It sits between `sptrsv-datasets`'
//! [`MatrixStats`](sptrsv_datasets::MatrixStats) and
//! [`PlanBuilder`]:
//!
//! ```text
//! matrix ──► features ──► candidates ──► prune ──► simulate ──► measure ──► verdict
//!            (structure)  (registry)    (rules)   (TuneBudget)  (opt-in)    (cached)
//! ```
//!
//! * [`TuneFeatures`] — structural signals (wavefront depth/width
//!   profile, row-length variance, bandwidth, source count, supernode
//!   density) extracted once per matrix;
//! * [`candidates::generate`] — every supported (scheduler, model) pair
//!   from [`registry::list()`](sptrsv_core::registry::list), dominated or
//!   degenerate combinations pruned by cheap structural rules;
//! * [`Tuner`] — builds each surviving candidate's schedule (bounded by
//!   [`TuneBudget`]) and ranks modeled cycles via the existing simulate
//!   paths; `measure=on` refines the top-K with real timed first-solves;
//! * [`verdict`] — the winner persisted in a versioned, checksummed
//!   on-disk cache keyed by the structure-only
//!   [`PlanFingerprint`], so the
//!   tuning cost amortizes across warm starts (corruption is an error,
//!   never a wrong pick).
//!
//! Everywhere a spec string is accepted, `"auto"` now works too:
//! `auto`, `auto:budget=8`, `auto:measure=on,cache=DIR`, `auto@barrier`
//! (restrict the search to one model), and any execution-policy key
//! (`auto:cores=4,fastmath=off`) passes through to the winning spec.
//! [`resolve_spec`] is the single entry point consumers (CLI, serve,
//! benches) call: non-auto specs pass through untouched.
//!
//! # Examples
//!
//! ```
//! use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
//! use sptrsv_tune::{AutoPlanBuilder, Tuner};
//! use sptrsv_exec::PlanBuilder;
//!
//! let l = grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
//! let report = Tuner::new(&l).cores(4).run()?;
//! println!("auto picked: {}", report.winner);
//!
//! // Or in one step: a PlanBuilder pre-configured with the winner.
//! let plan = PlanBuilder::auto(&l)?.build()?;
//! let b = vec![1.0; l.n_rows()];
//! let x = plan.solve(&b);
//! assert!(sptrsv_sparse::linalg::relative_residual(&l, &x, &b) < 1e-8);
//! # Ok::<(), sptrsv_tune::TuneError>(())
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod features;
pub mod verdict;

pub use candidates::{CandidateSet, Pruned};
pub use features::TuneFeatures;

use sptrsv_core::registry::{resolve_exec_policy, ExecModel, RegistryError, SchedulerSpec};
use sptrsv_core::serialize::PlanFingerprint;
use sptrsv_exec::{MachineProfile, PlanBuilder, PlanError};
use sptrsv_sparse::CsrMatrix;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// Everything that can go wrong while tuning.
#[derive(Debug)]
pub enum TuneError {
    /// The `auto:…` spec text is malformed (unknown key, bad value).
    Spec(String),
    /// A candidate spec failed registry resolution (a bug: candidates are
    /// generated from the registry).
    Registry(RegistryError),
    /// Building or scoring a candidate plan failed.
    Plan(PlanError),
    /// The on-disk verdict cache is corrupt (version, checksum,
    /// fingerprint, or a winner that fails revalidation).
    Cache(String),
    /// Reading or writing the verdict cache failed.
    Io(std::io::Error),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Spec(msg) => write!(f, "bad auto spec: {msg}"),
            TuneError::Registry(e) => write!(f, "registry: {e}"),
            TuneError::Plan(e) => write!(f, "candidate plan: {e}"),
            TuneError::Cache(msg) => write!(f, "{msg}"),
            TuneError::Io(e) => write!(f, "verdict cache I/O: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<RegistryError> for TuneError {
    fn from(e: RegistryError) -> TuneError {
        TuneError::Registry(e)
    }
}

impl From<PlanError> for TuneError {
    fn from(e: PlanError) -> TuneError {
        TuneError::Plan(e)
    }
}

impl From<std::io::Error> for TuneError {
    fn from(e: std::io::Error) -> TuneError {
        TuneError::Io(e)
    }
}

/// Bounds on how much work one tuning run may do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneBudget {
    /// Maximum candidates that get *scheduled* (the expensive step).
    /// Survivors beyond the bound are dropped from the tail of the
    /// most-promising-first candidate order.
    pub max_candidates: usize,
    /// Refine the top-K with real timed first-solves (`measure=on`).
    pub measure: bool,
    /// How many leaders the measured refinement re-ranks.
    pub top_k: usize,
}

impl Default for TuneBudget {
    fn default() -> TuneBudget {
        TuneBudget { max_candidates: 12, measure: false, top_k: 3 }
    }
}

/// What the verdict cache did for this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory configured.
    Off,
    /// The verdict was served from a valid cached file — no candidate was
    /// scheduled.
    Hit,
    /// Tuning ran and the verdict was written for next time.
    Stored,
}

impl CacheStatus {
    /// Stable text for greppable CLI output.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Off => "off",
            CacheStatus::Hit => "hit",
            CacheStatus::Stored => "stored",
        }
    }
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct TuneEntry {
    /// The candidate spec (passthrough policy keys applied).
    pub spec: SchedulerSpec,
    /// Modeled cycles of one solve on the tuning machine profile.
    pub modeled_cycles: f64,
    /// Supersteps of the candidate's schedule.
    pub n_supersteps: usize,
    /// Measured first-solve wall time (median of three), when the
    /// measured refinement ran for this entry.
    pub measured_ms: Option<f64>,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The extracted features the pruner saw.
    pub features: TuneFeatures,
    /// Scored candidates, best modeled first. Empty on a cache hit.
    pub ranked: Vec<TuneEntry>,
    /// Structurally pruned pairs with reasons. Empty on a cache hit.
    pub pruned: Vec<Pruned>,
    /// Survivors dropped by the [`TuneBudget::max_candidates`] bound.
    pub budget_dropped: usize,
    /// The winning spec — what `auto` resolves to.
    pub winner: SchedulerSpec,
    /// What the verdict cache did.
    pub cache: CacheStatus,
    /// Wall time the tuning run took (features + scheduling + scoring).
    pub tuning_seconds: f64,
}

/// The tuning pipeline, configured for one matrix.
#[derive(Debug, Clone)]
pub struct Tuner<'m> {
    matrix: &'m CsrMatrix,
    n_cores: Option<usize>,
    budget: TuneBudget,
    profile: MachineProfile,
    cache_dir: Option<PathBuf>,
    model: Option<ExecModel>,
    passthrough: Vec<(String, String)>,
}

/// Execution-policy keys `auto:` passes through to the winner: the
/// registry's seven policy keys except `sync=`, which is matched by value
/// (pinned by `passthrough_keys_mirror_the_registry_policy_keys`).
const POLICY_KEYS: &[&str] =
    &["backoff", "cores", "fastmath", "batch", "batch_wait_us", "plan_cache"];

impl<'m> Tuner<'m> {
    /// A tuner for `matrix` (the lower-triangular operand) with default
    /// budget, profile and no verdict cache.
    pub fn new(matrix: &'m CsrMatrix) -> Tuner<'m> {
        Tuner {
            matrix,
            n_cores: None,
            budget: TuneBudget::default(),
            profile: MachineProfile::intel_xeon_22(),
            cache_dir: None,
            model: None,
            passthrough: Vec::new(),
        }
    }

    /// Builds a tuner from an `auto[:key=…][@model]` spec string.
    ///
    /// Returns `Ok(None)` when the spec does not name `auto` (callers
    /// pass their spec through unchanged). Auto-scope keys: `budget=N`
    /// (max candidates scheduled), `measure=on|off` (timed refinement),
    /// `cache=DIR` (verdict cache directory). Any execution-policy key
    /// passes through to the winner; anything else is an error.
    pub fn from_spec(matrix: &'m CsrMatrix, spec: &str) -> Result<Option<Tuner<'m>>, TuneError> {
        let parsed: SchedulerSpec = spec.parse()?;
        if parsed.name() != "auto" {
            return Ok(None);
        }
        let mut tuner = Tuner::new(matrix);
        tuner.model = parsed.exec_model();
        for (key, value) in parsed.params() {
            match key.as_str() {
                "budget" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => tuner.budget.max_candidates = n,
                    _ => {
                        return Err(TuneError::Spec(format!(
                            "budget={value} (expected a positive integer)"
                        )))
                    }
                },
                "measure" => match value.as_str() {
                    "on" => tuner.budget.measure = true,
                    "off" => tuner.budget.measure = false,
                    _ => {
                        return Err(TuneError::Spec(format!(
                            "measure={value} (expected on or off)"
                        )))
                    }
                },
                "cache" => {
                    if value.trim().is_empty() {
                        return Err(TuneError::Spec("cache= (expected a directory path)".into()));
                    }
                    tuner.cache_dir = Some(PathBuf::from(value));
                }
                "sync" if value == "full" || value == "reduced" => {
                    tuner.passthrough.push((key.clone(), value.clone()));
                }
                k if POLICY_KEYS.contains(&k) => {
                    tuner.passthrough.push((key.clone(), value.clone()));
                }
                _ => {
                    return Err(TuneError::Spec(format!(
                        "unknown auto key `{key}` (expected budget=, measure=, cache=, \
                         or an execution-policy key)"
                    )))
                }
            }
        }
        // Validate the passthrough values now (bad `cores=0` etc. should
        // fail at parse time, not on the first candidate build).
        let mut probe = SchedulerSpec::new("auto");
        for (k, v) in &tuner.passthrough {
            probe = probe.with(k.clone(), v.clone());
        }
        resolve_exec_policy(&probe)?;
        Ok(Some(tuner))
    }

    /// Core count the candidates are scheduled and scored for (defaults
    /// to a `cores=` passthrough key, then 8 — the planner's default).
    pub fn cores(mut self, n_cores: usize) -> Self {
        self.n_cores = Some(n_cores);
        self
    }

    /// Replaces the [`TuneBudget`].
    pub fn budget(mut self, budget: TuneBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides just the candidate bound (the CLI's `--budget` flag,
    /// layered over whatever the spec's scope keys set).
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.budget.max_candidates = n;
        self
    }

    /// Overrides just the measured-refinement switch (the CLI's
    /// `--measure` flag).
    pub fn measure(mut self, on: bool) -> Self {
        self.budget.measure = on;
        self
    }

    /// Machine profile the simulator scores against (default
    /// [`MachineProfile::intel_xeon_22`]).
    pub fn profile(mut self, profile: MachineProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Persist (and look up) the verdict under this directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Restrict the search to one execution model (`auto@model`).
    pub fn model(mut self, model: ExecModel) -> Self {
        self.model = Some(model);
        self
    }

    /// The effective core count (typed setting, then `cores=` key, then
    /// the planner default of 8).
    pub fn effective_cores(&self) -> usize {
        self.n_cores
            .or_else(|| {
                self.passthrough
                    .iter()
                    .rev()
                    .find(|(k, _)| k == "cores")
                    .and_then(|(_, v)| v.parse().ok())
            })
            .unwrap_or(8)
    }

    /// The structure-only identity of this tuning question: every knob
    /// that can change the verdict, hashed together with the sparsity
    /// pattern into the cache key.
    fn tune_key(&self) -> String {
        let mut pass = String::new();
        for (k, v) in &self.passthrough {
            pass.push_str(&format!("{k}={v},"));
        }
        format!(
            "tune|v1|cores={}|budget={}|measure={}|top_k={}|model={}|profile={}|pass={}",
            self.effective_cores(),
            self.budget.max_candidates,
            if self.budget.measure { "on" } else { "off" },
            self.budget.top_k,
            self.model.map_or("any".to_string(), |m| m.to_string()),
            self.profile.name,
            pass,
        )
    }

    /// The verdict-cache key of this tuner (exposed for tests and the
    /// CLI's cache diagnostics).
    pub fn fingerprint(&self) -> PlanFingerprint {
        PlanFingerprint::compute(self.matrix, &self.tune_key())
    }

    /// Runs the pipeline: features → candidates → prune → simulate →
    /// (measure) → verdict, consulting and updating the verdict cache
    /// when one is configured.
    pub fn run(&self) -> Result<TuneReport, TuneError> {
        let started = Instant::now();
        let n_cores = self.effective_cores();
        let features = TuneFeatures::extract_with_dag(
            self.matrix,
            &sptrsv_dag::SolveDag::from_lower_triangular(self.matrix),
        );

        // A valid cached verdict short-circuits the whole pipeline; a
        // corrupt one is an error (never a silent re-tune: the operator
        // asked for a cache and should learn it is broken).
        let fingerprint = self.fingerprint();
        if let Some(dir) = &self.cache_dir {
            let path = verdict::verdict_path(dir, &fingerprint);
            if path.exists() {
                let text = std::fs::read_to_string(&path)?;
                let winner = verdict::read_verdict(&text, &fingerprint)?;
                return Ok(TuneReport {
                    features,
                    ranked: Vec::new(),
                    pruned: Vec::new(),
                    budget_dropped: 0,
                    winner,
                    cache: CacheStatus::Hit,
                    tuning_seconds: started.elapsed().as_secs_f64(),
                });
            }
        }

        let fastmath_pinned = self.passthrough.iter().any(|(k, _)| k == "fastmath");
        let set = candidates::generate(&features, self.model, !fastmath_pinned);
        let mut survivors = set.survivors;
        let budget_dropped = survivors.len().saturating_sub(self.budget.max_candidates);
        survivors.truncate(self.budget.max_candidates);

        // Score: build each candidate's schedule and rank modeled cycles.
        // Passthrough policy keys are applied *before* scoring so a
        // pinned `fastmath=off` or `sync=full` changes the model — but
        // `plan_cache` is held back until the winner is known (scoring
        // must not litter the plan cache with losers).
        let mut scored: Vec<(TuneEntry, sptrsv_exec::SolvePlan)> = Vec::new();
        for candidate in survivors {
            let mut spec = candidate;
            for (k, v) in &self.passthrough {
                if k != "plan_cache" {
                    spec = spec.with(k.clone(), v.clone());
                }
            }
            let plan =
                PlanBuilder::new(self.matrix).scheduler(spec.to_string()).cores(n_cores).build()?;
            let report = plan.simulate(&self.profile);
            let entry = TuneEntry {
                spec,
                modeled_cycles: report.cycles,
                n_supersteps: plan.schedule().n_supersteps(),
                measured_ms: None,
            };
            scored.push((entry, plan));
        }
        if scored.is_empty() {
            return Err(TuneError::Spec("no candidate survived pruning under this budget".into()));
        }
        // Stable sort: ties keep the most-promising-first candidate order,
        // so the verdict is deterministic for a fixed matrix + budget.
        scored.sort_by(|a, b| a.0.modeled_cycles.total_cmp(&b.0.modeled_cycles));

        // Optional measured refinement: real first-solves of the top-K.
        let mut winner_idx = 0;
        if self.budget.measure {
            let b: Vec<f64> = (0..self.matrix.n_rows()).map(|i| 1.0 + (i % 7) as f64).collect();
            let k = self.budget.top_k.max(1).min(scored.len());
            let mut best = f64::INFINITY;
            for (idx, (entry, plan)) in scored.iter_mut().take(k).enumerate() {
                let mut x = vec![0.0; self.matrix.n_rows()];
                let mut ws = plan.workspace();
                let mut samples = [0.0f64; 3];
                for s in &mut samples {
                    let t = Instant::now();
                    plan.solve_into(&b, &mut x, &mut ws);
                    *s = t.elapsed().as_secs_f64() * 1e3;
                }
                samples.sort_by(f64::total_cmp);
                entry.measured_ms = Some(samples[1]);
                if samples[1] < best {
                    best = samples[1];
                    winner_idx = idx;
                }
            }
        }

        let ranked: Vec<TuneEntry> = scored.into_iter().map(|(e, _)| e).collect();
        let mut winner = ranked[winner_idx].spec.clone();
        if let Some((k, v)) = self.passthrough.iter().rev().find(|(k, _)| k == "plan_cache") {
            winner = winner.with(k.clone(), v.clone());
        }

        let mut cache = CacheStatus::Off;
        if let Some(dir) = &self.cache_dir {
            std::fs::create_dir_all(dir)?;
            let path = verdict::verdict_path(dir, &fingerprint);
            std::fs::write(&path, verdict::write_verdict(&fingerprint, &winner))?;
            cache = CacheStatus::Stored;
        }

        Ok(TuneReport {
            features,
            ranked,
            pruned: set.pruned,
            budget_dropped,
            winner,
            cache,
            tuning_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// A resolved spec: what to actually build, plus the tuning report when
/// `auto` ran.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The concrete spec text to hand to `PlanBuilder::scheduler` (the
    /// input unchanged when it was not `auto`).
    pub spec: String,
    /// The tuning report, when the input was an `auto` spec.
    pub report: Option<TuneReport>,
}

/// The single entry point consumers call on any user-provided spec
/// string: `auto[:…]` resolves through the tuner, anything else passes
/// through untouched. `cores`, when known from a typed setting or flag,
/// keeps the tuner scoring the same width the plan will run at.
pub fn resolve_spec(
    matrix: &CsrMatrix,
    spec: &str,
    cores: Option<usize>,
) -> Result<Resolved, TuneError> {
    match Tuner::from_spec(matrix, spec)? {
        None => Ok(Resolved { spec: spec.to_string(), report: None }),
        Some(mut tuner) => {
            if let Some(n) = cores {
                tuner = tuner.cores(n);
            }
            let report = tuner.run()?;
            Ok(Resolved { spec: report.winner.to_string(), report: Some(report) })
        }
    }
}

/// True when a spec string names the auto-tuner (cheap syntactic check;
/// malformed specs return `false` and fail later with a proper error).
pub fn is_auto_spec(spec: &str) -> bool {
    spec.parse::<SchedulerSpec>().map(|s| s.name() == "auto").unwrap_or(false)
}

/// The typed `auto` entry point `PlanBuilder` grows: implemented here as
/// an extension trait because the decision layer sits *above* the
/// execution crate in the dependency order.
pub trait AutoPlanBuilder<'m>: Sized {
    /// A `PlanBuilder` pre-configured with the auto-picked spec for
    /// `matrix` (default tuner: modeled scoring, no verdict cache).
    fn auto(matrix: &'m CsrMatrix) -> Result<Self, TuneError>;

    /// Like [`AutoPlanBuilder::auto`], but with an explicitly configured
    /// [`Tuner`] (budget, cache, profile, model restriction).
    fn auto_with(tuner: &Tuner<'m>) -> Result<Self, TuneError>;
}

impl<'m> AutoPlanBuilder<'m> for PlanBuilder<'m> {
    fn auto(matrix: &'m CsrMatrix) -> Result<PlanBuilder<'m>, TuneError> {
        Self::auto_with(&Tuner::new(matrix))
    }

    fn auto_with(tuner: &Tuner<'m>) -> Result<PlanBuilder<'m>, TuneError> {
        let report = tuner.run()?;
        Ok(PlanBuilder::new(tuner.matrix)
            .scheduler(report.winner.to_string())
            .cores(tuner.effective_cores()))
    }
}

/// Renders the ranked table the CLI prints (kept here so the bench and
/// CLI agree on one format).
pub fn render_table(report: &TuneReport) -> String {
    let mut out = String::new();
    let f = &report.features;
    out.push_str(&format!(
        "features: n={} nnz={} sources={} wavefronts={} (avg {:.1}, max {}) \
         width p25/p50/p90 {}/{}/{} row-var {:.1} bandwidth {} dense {:.0}%\n",
        f.stats.n,
        f.stats.nnz,
        f.stats.n_sources,
        f.stats.n_wavefronts,
        f.stats.avg_wavefront,
        f.stats.max_wavefront,
        f.width_quantiles[0],
        f.width_quantiles[1],
        f.width_quantiles[2],
        f.stats.row_len_variance,
        f.stats.bandwidth,
        f.dense_coverage * 100.0,
    ));
    if report.cache == CacheStatus::Hit {
        return out;
    }
    out.push_str(&format!(
        "{:<34} {:>14} {:>6} {:>10}\n",
        "candidate", "modeled cycles", "steps", "solve ms"
    ));
    for entry in &report.ranked {
        let measured = entry.measured_ms.map_or("-".to_string(), |ms| format!("{ms:.3}"));
        out.push_str(&format!(
            "{:<34} {:>14.0} {:>6} {:>10}\n",
            entry.spec.to_string(),
            entry.modeled_cycles,
            entry.n_supersteps,
            measured,
        ));
    }
    for p in &report.pruned {
        out.push_str(&format!("pruned: {:<26} ({})\n", p.spec, p.reason));
    }
    if report.budget_dropped > 0 {
        out.push_str(&format!(
            "budget: {} survivor(s) not scheduled (budget=N raises the bound)\n",
            report.budget_dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_core::registry;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};

    fn grid() -> CsrMatrix {
        grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap()
    }

    #[test]
    fn auto_resolution_is_deterministic_and_registered() {
        let l = grid();
        let a = Tuner::new(&l).cores(4).run().unwrap();
        let b = Tuner::new(&l).cores(4).run().unwrap();
        assert_eq!(a.winner.to_string(), b.winner.to_string());
        let ra: Vec<String> = a.ranked.iter().map(|e| e.spec.to_string()).collect();
        let rb: Vec<String> = b.ranked.iter().map(|e| e.spec.to_string()).collect();
        assert_eq!(ra, rb);
        // The winner parses, is registered, and uses a supported model.
        let spec: SchedulerSpec = a.winner.to_string().parse().unwrap();
        let info = registry::info(spec.name()).unwrap();
        let model = registry::resolve_model(&spec).unwrap();
        assert!(info.exec_models.contains(&model));
    }

    #[test]
    fn winner_beats_every_scored_candidate_by_model() {
        let l = grid();
        let report = Tuner::new(&l).cores(4).run().unwrap();
        let best = report.ranked[0].modeled_cycles;
        for entry in &report.ranked {
            assert!(entry.modeled_cycles >= best);
        }
        assert_eq!(report.winner.to_string(), report.ranked[0].spec.to_string());
    }

    #[test]
    fn from_spec_parses_scope_and_passthrough_keys() {
        let l = grid();
        assert!(Tuner::from_spec(&l, "growlocal").unwrap().is_none());
        let t = Tuner::from_spec(&l, "auto:budget=4,measure=off,cores=2").unwrap().unwrap();
        assert_eq!(t.budget.max_candidates, 4);
        assert!(!t.budget.measure);
        assert_eq!(t.effective_cores(), 2);
        assert!(Tuner::from_spec(&l, "auto:bogus=1").is_err());
        assert!(Tuner::from_spec(&l, "auto:budget=0").is_err());
        assert!(Tuner::from_spec(&l, "auto:cores=0").is_err());
    }

    #[test]
    fn budget_bounds_scheduled_candidates() {
        let l = grid();
        let report = Tuner::new(&l)
            .cores(4)
            .budget(TuneBudget { max_candidates: 3, measure: false, top_k: 3 })
            .run()
            .unwrap();
        assert_eq!(report.ranked.len(), 3);
        assert!(report.budget_dropped > 0);
    }

    #[test]
    fn model_restriction_holds() {
        let l = grid();
        let report = Tuner::from_spec(&l, "auto@serial").unwrap().unwrap().run().unwrap();
        assert_eq!(report.winner.to_string(), "wavefront@serial");
    }

    #[test]
    fn verdict_cache_hits_and_detects_corruption() {
        let l = grid();
        let dir = std::env::temp_dir().join(format!("sptrsv-tune-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let first = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        assert_eq!(first.cache, CacheStatus::Stored);
        let second = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(second.winner.to_string(), first.winner.to_string());
        assert!(second.ranked.is_empty(), "a hit schedules nothing");

        // A different budget is a different question: its own cache slot.
        let other = Tuner::new(&l)
            .cores(4)
            .cache_dir(&dir)
            .budget(TuneBudget { max_candidates: 3, measure: false, top_k: 3 })
            .run()
            .unwrap();
        assert_eq!(other.cache, CacheStatus::Stored);

        // Corrupt the stored verdict: an error, never a wrong pick.
        let tuner = Tuner::new(&l).cores(4).cache_dir(&dir);
        let path = verdict::verdict_path(&dir, &tuner.fingerprint());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("winner ", "winner x")).unwrap();
        assert!(matches!(tuner.run(), Err(TuneError::Cache(_))));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_spec_passes_non_auto_through() {
        let l = grid();
        let r = resolve_spec(&l, "growlocal:alpha=8@async", Some(4)).unwrap();
        assert_eq!(r.spec, "growlocal:alpha=8@async");
        assert!(r.report.is_none());
        let r = resolve_spec(&l, "auto:budget=4", Some(4)).unwrap();
        assert!(r.report.is_some());
        assert!(is_auto_spec("auto:budget=4"));
        assert!(!is_auto_spec("growlocal"));
    }

    #[test]
    fn auto_plan_builder_builds_a_working_plan() {
        let l = grid();
        let plan = PlanBuilder::auto(&l).unwrap().build().unwrap();
        let b = vec![1.0; l.n_rows()];
        let x = plan.solve(&b);
        assert!(sptrsv_sparse::linalg::relative_residual(&l, &x, &b) < 1e-8);
    }

    #[test]
    fn passthrough_policy_reaches_the_winner() {
        let l = grid();
        let report =
            Tuner::from_spec(&l, "auto:fastmath=off,cores=2").unwrap().unwrap().run().unwrap();
        let winner = report.winner.to_string();
        assert!(winner.contains("fastmath=off"), "got {winner}");
        assert!(winner.contains("cores=2"), "got {winner}");
        // Pinned fastmath suppresses generated fastmath variants.
        for e in &report.ranked {
            assert!(!e.spec.to_string().contains("fastmath=on"));
        }
    }

    #[test]
    fn passthrough_keys_mirror_the_registry_policy_keys() {
        // The registry strips exactly its policy keys from a schedule
        // identity: every passthrough key (plus `sync=`) must be one of
        // them, and `grant=`/`elastic=`/`shrink=` are not.
        let mut spec = SchedulerSpec::new("growlocal").with("sync", "full");
        for key in POLICY_KEYS {
            let value = if *key == "backoff" { "yield" } else { "1" };
            spec = spec.with(*key, value);
        }
        assert_eq!(sptrsv_core::registry::schedule_identity(&spec), "growlocal");
        let l = grid();
        for key in ["grant", "elastic", "shrink"] {
            let err = Tuner::from_spec(&l, &format!("auto:{key}=on")).unwrap_err();
            assert!(matches!(&err, TuneError::Spec(m) if m.contains(key)), "{key}: {err}");
        }
    }
}
