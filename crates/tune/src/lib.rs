//! # sptrsv-tune — the `spec=auto` decision layer
//!
//! The registry enumerates 7 schedulers × 3 execution models × 4 policy
//! keys; this crate is the piece that *chooses*, by timing a few of them on
//! the operand itself rather than by modeling them. It sits between
//! `sptrsv-datasets`' [`MatrixStats`](sptrsv_datasets::MatrixStats) and
//! [`PlanBuilder`]:
//!
//! ```text
//! matrix ──► features ──► entrants ──► build ──► race ──► verdict
//!            (structure)  (≤ 3, fixed  (run's    (wall    (cached)
//!                          order)      PlanCache) clock)
//! ```
//!
//! * [`TuneFeatures`] — structural signals (wavefront depth/width
//!   profile, row-length variance, bandwidth, source count) extracted once
//!   per matrix;
//! * [`candidates::entrants`] — a fixed list, `funnel-gl@barrier`,
//!   `hdagg@barrier`, then `wavefront@serial` on narrow fronts or
//!   `growlocal@barrier`, which the features and the [`TuneBudget`] can
//!   only shrink;
//! * [`Tuner`] — builds each entrant through a plan cache private to the
//!   run, warms each one, times interleaved rounds of real solves on a
//!   runtime private to the run, and picks the lowest median (ties keep
//!   the entrant order);
//! * [`verdict`] — the winner persisted in a versioned, checksummed
//!   on-disk cache keyed by the structure-only [`PlanFingerprint`], so the
//!   tuning cost amortizes across warm starts (corruption is an error,
//!   never a wrong pick).
//!
//! Everywhere a spec string is accepted, `"auto"` works too: `auto`,
//! `auto:budget=2`, `auto:cache=DIR`, `auto@barrier` (map every entrant to
//! one model), and any execution-policy key (`auto:cores=4,fastmath=on`)
//! passes through to every entrant and so to the winner. [`resolve_spec`]
//! is the single entry point consumers (the CLI) call: non-auto specs pass
//! through untouched.
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
//! // Or in one step: a PlanBuilder pre-configured with the winner, whose
//! // build reuses the plan the race built.
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

pub use features::TuneFeatures;

use sptrsv_core::registry::{
    is_exec_policy_param, resolve_exec_policy, ExecModel, RegistryError, SchedulerSpec,
};
use sptrsv_core::serialize::PlanFingerprint;
use sptrsv_exec::{PlanBuilder, PlanCache, PlanError, SolvePlan, SolverRuntime};
use sptrsv_sparse::CsrMatrix;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Untimed solves per entrant before the timed rounds: without them,
/// first-touch costs decide the race.
const WARM_UP: usize = 2;
/// Timed rounds; each solves every entrant once, in entrant order.
const ROUNDS: usize = 5;

/// Everything that can go wrong while tuning.
#[derive(Debug)]
pub enum TuneError {
    /// The `auto:…` spec text is malformed (unknown key, bad value).
    Spec(String),
    /// An entrant spec failed registry resolution (a bug: entrants are
    /// registered schedulers).
    Registry(RegistryError),
    /// Building an entrant's plan failed.
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
            TuneError::Plan(e) => write!(f, "entrant plan: {e}"),
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
    /// Maximum entrants that get built and raced (the expensive steps).
    /// The entrant list is truncated from its tail.
    pub max_candidates: usize,
}

impl Default for TuneBudget {
    fn default() -> TuneBudget {
        TuneBudget { max_candidates: 3 }
    }
}

/// What the verdict cache did for this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache directory configured.
    Off,
    /// The verdict was served from a valid cached file — no entrant was
    /// built.
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

/// One entrant of the race.
#[derive(Debug, Clone)]
pub struct TuneEntry {
    /// The entrant spec (passthrough policy keys applied).
    pub spec: SchedulerSpec,
    /// Median wall time of one `solve_into` over the race's timed rounds,
    /// in microseconds; `None` when the entrant ran alone (a list of one
    /// is not raced).
    pub race_median_us: Option<f64>,
    /// Supersteps of the entrant's schedule.
    pub n_supersteps: usize,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The extracted features the entrant list was cut with.
    pub features: TuneFeatures,
    /// The entrants in race order, which is also the tie-break order.
    /// Empty on a cache hit.
    pub ranked: Vec<TuneEntry>,
    /// The winning spec — what `auto` resolves to: the entrant with the
    /// lowest race median.
    pub winner: SchedulerSpec,
    /// What the verdict cache did.
    pub cache: CacheStatus,
    /// The plan cache the entrants were built through (empty on a verdict
    /// hit). Wire it into the winner's [`PlanBuilder::cached`] at the
    /// tuner's core count and the winner builds as a memory hit.
    pub plans: Arc<PlanCache>,
    /// Wall time the tuning run took (features + builds + race).
    pub tuning_seconds: f64,
}

/// The tuning pipeline, configured for one matrix.
#[derive(Debug, Clone)]
pub struct Tuner<'m> {
    matrix: &'m CsrMatrix,
    n_cores: Option<usize>,
    budget: TuneBudget,
    cache_dir: Option<PathBuf>,
    model: Option<ExecModel>,
    passthrough: Vec<(String, String)>,
}

impl<'m> Tuner<'m> {
    /// A tuner for `matrix` (the lower-triangular operand) with the default
    /// budget and no verdict cache.
    pub fn new(matrix: &'m CsrMatrix) -> Tuner<'m> {
        Tuner {
            matrix,
            n_cores: None,
            budget: TuneBudget::default(),
            cache_dir: None,
            model: None,
            passthrough: Vec::new(),
        }
    }

    /// Builds a tuner from an `auto[:key=…][@model]` spec string.
    ///
    /// Returns `Ok(None)` when the spec does not name `auto` (callers
    /// pass their spec through unchanged). Auto-scope keys: `budget=N`
    /// (max entrants raced) and `cache=DIR` (verdict cache directory). Any
    /// execution-policy key passes through to every entrant; anything else
    /// is an error.
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
                "cache" => {
                    if value.trim().is_empty() {
                        return Err(TuneError::Spec("cache= (expected a directory path)".into()));
                    }
                    tuner.cache_dir = Some(PathBuf::from(value));
                }
                k if is_exec_policy_param(k, value) => {
                    tuner.passthrough.push((key.clone(), value.clone()));
                }
                _ => {
                    return Err(TuneError::Spec(format!(
                        "unknown auto key `{key}` (expected budget=, cache=, \
                         or an execution-policy key)"
                    )))
                }
            }
        }
        // Validate the passthrough values now (bad `cores=0` etc. should
        // fail at parse time, not on the first entrant build).
        let mut probe = SchedulerSpec::new("auto");
        for (k, v) in &tuner.passthrough {
            probe = probe.with(k.clone(), v.clone());
        }
        resolve_exec_policy(&probe)?;
        Ok(Some(tuner))
    }

    /// Core count the entrants are scheduled for and raced at (defaults
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

    /// Overrides just the entrant bound (the CLI's `--budget` flag,
    /// layered over whatever the spec's scope keys set).
    pub fn max_candidates(mut self, n: usize) -> Self {
        self.budget.max_candidates = n;
        self
    }

    /// Persist (and look up) the verdict under this directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Map every entrant to one execution model (`auto@model`).
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
            "tune|v2|cores={}|budget={}|model={}|pass={}",
            self.effective_cores(),
            self.budget.max_candidates,
            self.model.map_or("any".to_string(), |m| m.to_string()),
            pass,
        )
    }

    /// The verdict-cache key of this tuner (exposed for tests and the
    /// CLI's cache diagnostics).
    pub fn fingerprint(&self) -> PlanFingerprint {
        PlanFingerprint::compute(self.matrix, &self.tune_key())
    }

    /// Runs the pipeline: features → entrants → build → race → verdict,
    /// consulting and updating the verdict cache when one is configured.
    pub fn run(&self) -> Result<TuneReport, TuneError> {
        let started = Instant::now();
        let n_cores = self.effective_cores();
        let features = TuneFeatures::extract(self.matrix);
        let entrants = candidates::entrants(&features, self.model, self.budget.max_candidates);
        let plans = Arc::new(PlanCache::new(entrants.len().max(1)));

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
                    winner,
                    cache: CacheStatus::Hit,
                    plans,
                    tuning_seconds: started.elapsed().as_secs_f64(),
                });
            }
        }
        if entrants.is_empty() {
            return Err(TuneError::Spec("budget=0 races no entrant".into()));
        }

        // Build every entrant with the passthrough policy keys applied, so
        // each races as it will run. The run's private runtime (dropped
        // with the entrants when the run ends) keeps a process that solves
        // on explicit runtimes from starting the global pool.
        let runtime = Arc::new(race_runtime(n_cores));
        let mut built: Vec<(SchedulerSpec, SolvePlan)> = Vec::new();
        for mut spec in entrants {
            for (k, v) in &self.passthrough {
                spec = spec.with(k.clone(), v.clone());
            }
            let plan = PlanBuilder::new(self.matrix)
                .scheduler(spec.to_string())
                .cores(n_cores)
                .runtime(Arc::clone(&runtime))
                .cached(&plans)
                .build()?;
            built.push((spec, plan));
        }
        // The lowest median wins; a tie keeps the entrant order.
        let medians = race(self.matrix.n_rows(), &built);
        let mut winner_idx = 0;
        for (idx, median) in medians.iter().enumerate() {
            if median < &medians[winner_idx] {
                winner_idx = idx;
            }
        }
        let ranked: Vec<TuneEntry> = built
            .into_iter()
            .zip(medians)
            .map(|((spec, plan), race_median_us)| TuneEntry {
                spec,
                race_median_us,
                n_supersteps: plan.schedule().n_supersteps(),
            })
            .collect();
        let winner = ranked[winner_idx].spec.clone();

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
            winner,
            cache,
            plans,
            tuning_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// The runtime a run races on: `n_cores` wide, capped by the hardware, so
/// `cores=64` on a small machine spawns no more threads than it has.
fn race_runtime(n_cores: usize) -> SolverRuntime {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    SolverRuntime::new(n_cores.min(hardware))
}

/// Times the entrants on one right-hand side of length `n`: [`WARM_UP`]
/// untimed solves each, then [`ROUNDS`] interleaved rounds. Returns each
/// entrant's median solve time in microseconds, or `None` for a list of
/// one, which is not raced.
fn race(n: usize, entrants: &[(SchedulerSpec, SolvePlan)]) -> Vec<Option<f64>> {
    if entrants.len() < 2 {
        return vec![None; entrants.len()];
    }
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut lanes: Vec<_> = entrants
        .iter()
        .map(|(_, plan)| (plan, plan.workspace(), vec![0.0; n], Vec::new()))
        .collect();
    for (plan, ws, x, _) in &mut lanes {
        for _ in 0..WARM_UP {
            plan.solve_into(&b, x, ws);
        }
    }
    for _ in 0..ROUNDS {
        for (plan, ws, x, samples) in &mut lanes {
            let t = Instant::now();
            plan.solve_into(&b, x, ws);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    lanes
        .into_iter()
        .map(|(.., mut samples)| {
            samples.sort_by(f64::total_cmp);
            Some(samples[ROUNDS / 2])
        })
        .collect()
}

/// A resolved spec: what to actually build, plus the tuning report when
/// `auto` ran.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The concrete spec text to hand to `PlanBuilder::scheduler` (the
    /// input unchanged when it was not `auto`).
    pub spec: String,
    /// The tuning report, when the input was an `auto` spec. Its
    /// [`TuneReport::plans`] holds the winner's plan for the builder.
    pub report: Option<TuneReport>,
}

/// The single entry point consumers call on any user-provided spec
/// string: `auto[:…]` resolves through the tuner, anything else passes
/// through untouched. `cores`, when known from a typed setting or flag,
/// keeps the tuner racing the same width the plan will run at.
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
    /// `matrix` (default tuner: no verdict cache).
    fn auto(matrix: &'m CsrMatrix) -> Result<Self, TuneError>;

    /// Like [`AutoPlanBuilder::auto`], but with an explicitly configured
    /// [`Tuner`] (budget, cache, model restriction).
    fn auto_with(tuner: &Tuner<'m>) -> Result<Self, TuneError>;
}

impl<'m> AutoPlanBuilder<'m> for PlanBuilder<'m> {
    fn auto(matrix: &'m CsrMatrix) -> Result<PlanBuilder<'m>, TuneError> {
        Self::auto_with(&Tuner::new(matrix))
    }

    /// The builder is wired to the run's plan cache, so the winner the
    /// race built is not scheduled a second time.
    fn auto_with(tuner: &Tuner<'m>) -> Result<PlanBuilder<'m>, TuneError> {
        let report = tuner.run()?;
        Ok(PlanBuilder::new(tuner.matrix)
            .scheduler(report.winner.to_string())
            .cores(tuner.effective_cores())
            .cached(&report.plans))
    }
}

/// Renders the race table the CLI prints.
pub fn render_table(report: &TuneReport) -> String {
    let mut out = String::new();
    let f = &report.features;
    out.push_str(&format!(
        "features: n={} nnz={} sources={} wavefronts={} (avg {:.1}, max {}) \
         width p25/p50/p90 {}/{}/{} row-var {:.1} bandwidth {}\n",
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
    ));
    if report.cache == CacheStatus::Hit {
        return out;
    }
    out.push_str(&format!("{:<34} {:>15} {:>6}\n", "entrant", "race median us", "steps"));
    for entry in &report.ranked {
        let median = entry.race_median_us.map_or("not raced".to_string(), |us| format!("{us:.1}"));
        out.push_str(&format!(
            "{:<34} {:>15} {:>6}\n",
            entry.spec.to_string(),
            median,
            entry.n_supersteps,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_core::registry;
    use sptrsv_exec::CacheOutcome;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    use sptrsv_sparse::CooMatrix;

    fn grid() -> CsrMatrix {
        grid2d_laplacian(16, 16, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap()
    }

    fn specs(report: &TuneReport) -> Vec<String> {
        report.ranked.iter().map(|e| e.spec.to_string()).collect()
    }

    /// A verdict-cache directory of its own for one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sptrsv-tune-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn auto_resolution_is_deterministic_and_registered() {
        // A timed pick is not deterministic; what is: the entrants and
        // their order, the winner's membership, and a cached verdict.
        let l = grid();
        let a = Tuner::new(&l).cores(4).run().unwrap();
        let b = Tuner::new(&l).cores(4).run().unwrap();
        assert_eq!(specs(&a), specs(&b));
        assert!(specs(&a).contains(&a.winner.to_string()), "{} is no entrant", a.winner);
        let dir = scratch_dir("determinism");
        let stored = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        let hit = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        assert_eq!((stored.cache, hit.cache), (CacheStatus::Stored, CacheStatus::Hit));
        assert_eq!(hit.winner.to_string(), stored.winner.to_string());
        std::fs::remove_dir_all(&dir).ok();
        // The winner parses, is registered, and uses a supported model.
        let spec: SchedulerSpec = a.winner.to_string().parse().unwrap();
        let info = registry::info(spec.name()).unwrap();
        let model = registry::resolve_model(&spec).unwrap();
        assert!(info.exec_models.contains(&model));
    }

    #[test]
    fn shared_schedules_score_exactly_like_cold_builds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let operands = [
            ("grid", grid(), "auto"),
            (
                "narrow band",
                sptrsv_sparse::gen::narrow_band::narrow_band_lower(300, 0.3, 6.0, &mut rng),
                "auto:fastmath=on",
            ),
            (
                "erdos-renyi",
                sptrsv_sparse::gen::erdos_renyi::erdos_renyi_lower(300, 0.02, &mut rng),
                "auto@async",
            ),
        ];
        for (what, l, spec) in &operands {
            let report = Tuner::from_spec(l, spec).unwrap().unwrap().cores(2).run().unwrap();
            assert!(report.ranked.len() > 1, "{what}: nothing raced");
            for entry in &report.ranked {
                let cold =
                    PlanBuilder::new(l).scheduler(entry.spec.to_string()).cores(2).build().unwrap();
                assert_eq!(entry.n_supersteps, cold.schedule().n_supersteps(), "{what}");
                let warm = PlanBuilder::new(l)
                    .scheduler(entry.spec.to_string())
                    .cores(2)
                    .cached(&report.plans)
                    .build()
                    .unwrap();
                assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit, "{what}: {}", entry.spec);
                assert_eq!(warm.schedule(), cold.schedule(), "{what}: {}", entry.spec);
            }
            // One cold schedule per identity: the run's cache holds exactly
            // the distinct identities.
            let identities: std::collections::HashSet<String> =
                report.ranked.iter().map(|e| registry::schedule_identity(&e.spec)).collect();
            assert_eq!(report.plans.len(), identities.len(), "{what}");
        }
    }

    #[test]
    fn winner_has_the_lowest_race_median() {
        let l = grid();
        let report = Tuner::new(&l).cores(2).run().unwrap();
        let medians: Vec<f64> =
            report.ranked.iter().map(|e| e.race_median_us.expect("every entrant raced")).collect();
        let best = medians.iter().copied().fold(f64::INFINITY, f64::min);
        // The first entrant at the lowest median: a tie keeps the order.
        let first_best = medians.iter().position(|&m| m == best).unwrap();
        assert_eq!(report.winner.to_string(), report.ranked[first_best].spec.to_string());
        assert!(render_table(&report).contains(&report.winner.to_string()));
    }

    #[test]
    fn race_runtime_is_capped_by_the_hardware() {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n_cores in [1, 2, 64] {
            assert_eq!(race_runtime(n_cores).capacity(), n_cores.min(hardware));
        }
    }

    #[test]
    fn near_sequential_operand_is_not_raced() {
        let n = 200;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, 1.0).unwrap();
            }
        }
        let l = coo.to_csr();
        let report = Tuner::new(&l).cores(2).run().unwrap();
        assert_eq!(specs(&report), ["wavefront@serial"]);
        assert_eq!(report.ranked[0].race_median_us, None);
        assert!(render_table(&report).contains("not raced"));
    }

    #[test]
    fn from_spec_parses_scope_and_passthrough_keys() {
        let l = grid();
        assert!(Tuner::from_spec(&l, "growlocal").unwrap().is_none());
        let t = Tuner::from_spec(&l, "auto:budget=2,cores=2").unwrap().unwrap();
        assert_eq!(t.budget.max_candidates, 2);
        assert_eq!(t.effective_cores(), 2);
        assert!(Tuner::from_spec(&l, "auto:bogus=1").is_err());
        assert!(Tuner::from_spec(&l, "auto:budget=0").is_err());
        assert!(Tuner::from_spec(&l, "auto:cores=0").is_err());
        // The removed timed-refinement knob fails by name.
        let err = Tuner::from_spec(&l, "auto:measure=on").unwrap_err();
        assert!(matches!(&err, TuneError::Spec(m) if m.contains("measure")), "{err}");
    }

    #[test]
    fn budget_bounds_scheduled_candidates() {
        let l = grid();
        for max_candidates in 1..=4 {
            let report =
                Tuner::new(&l).cores(4).budget(TuneBudget { max_candidates }).run().unwrap();
            assert_eq!(report.ranked.len(), max_candidates.min(3));
        }
    }

    #[test]
    fn model_restriction_holds() {
        let l = grid();
        let report = Tuner::from_spec(&l, "auto@serial").unwrap().unwrap().run().unwrap();
        assert_eq!(specs(&report), ["wavefront@serial"], "auto@serial has one entrant");
        assert_eq!(report.winner.to_string(), "wavefront@serial");
        let report = Tuner::from_spec(&l, "auto@async").unwrap().unwrap().cores(2).run().unwrap();
        assert_eq!(specs(&report), ["spmp@async", "funnel-gl@async", "hdagg@async"]);
    }

    #[test]
    fn verdict_cache_hits_and_detects_corruption() {
        let l = grid();
        let dir = scratch_dir("verdict");

        let first = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        assert_eq!(first.cache, CacheStatus::Stored);
        let second = Tuner::new(&l).cores(4).cache_dir(&dir).run().unwrap();
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(second.winner.to_string(), first.winner.to_string());
        assert!(second.ranked.is_empty(), "a hit builds nothing");
        assert!(second.plans.is_empty(), "a hit builds nothing");

        // A different budget is a different question: its own cache slot.
        let other = Tuner::new(&l)
            .cores(4)
            .cache_dir(&dir)
            .budget(TuneBudget { max_candidates: 2 })
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
    fn the_auto_builder_reuses_the_raced_plan() {
        let l = grid();
        let b: Vec<f64> = (0..l.n_rows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let plan = PlanBuilder::auto(&l).unwrap().build().unwrap();
        assert_eq!(plan.cache_outcome(), CacheOutcome::MemoryHit);
        // With one entrant the winner is known: the reused plan solves
        // bit-identically to a cold build of it.
        let warm =
            PlanBuilder::auto_with(&Tuner::new(&l).cores(2).max_candidates(1)).unwrap().build();
        let warm = warm.unwrap();
        let cold = PlanBuilder::new(&l).scheduler("funnel-gl@barrier").cores(2).build().unwrap();
        assert_eq!(warm.cache_outcome(), CacheOutcome::MemoryHit);
        assert_eq!(warm.schedule(), cold.schedule());
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(warm.solve(&b)), bits(cold.solve(&b)));
    }

    #[test]
    fn passthrough_policy_reaches_the_winner() {
        let l = grid();
        let report =
            Tuner::from_spec(&l, "auto:fastmath=off,cores=2").unwrap().unwrap().run().unwrap();
        let winner = report.winner.to_string();
        assert!(winner.contains("fastmath=off"), "got {winner}");
        assert!(winner.contains("cores=2"), "got {winner}");
        // `auto` never adds fastmath on its own; the passthrough key
        // reaches every entrant.
        for e in &report.ranked {
            assert!(e.spec.to_string().contains("fastmath=off"), "{}", e.spec);
        }
        for e in &Tuner::new(&l).cores(2).run().unwrap().ranked {
            assert!(!e.spec.to_string().contains("fastmath"), "{}", e.spec);
        }
    }

    #[test]
    fn passthrough_keys_mirror_the_registry_policy_keys() {
        // `auto:` passes every row of the registry's policy table through
        // to the winner, and nothing else: removed keys, and `growlocal`'s
        // numeric `sync`, are unknown auto keys named in the error.
        let l = grid();
        for row in registry::exec_policy_keys() {
            let value = if row.key == "cores" { "2" } else { row.default };
            let tuner = Tuner::from_spec(&l, &format!("auto:{}={value}", row.key)).unwrap();
            let passthrough = tuner.unwrap().passthrough;
            assert_eq!(passthrough, [(row.key.to_string(), value.to_string())]);
        }
        for (key, value) in [
            ("grant", "on"),
            ("elastic", "on"),
            ("shrink", "on"),
            ("batch", "8"),
            ("batch_wait_us", "0"),
            ("plan_cache", "/tmp/x"),
            ("sync", "2000"),
            ("measure", "on"),
        ] {
            let err = Tuner::from_spec(&l, &format!("auto:{key}={value}")).unwrap_err();
            assert!(matches!(&err, TuneError::Spec(m) if m.contains(key)), "{key}: {err}");
        }
    }
}
