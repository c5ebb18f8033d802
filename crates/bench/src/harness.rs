//! End-to-end evaluation of one (dataset, pipeline) pair.
//!
//! A [`Pipeline`] is a registry spec string (v2 grammar, `@model` suffix
//! included) plus a display label and the §5-reordering toggle — the
//! harness keeps **no** scheduler or execution-model enumeration of its
//! own. The spec resolves through `sptrsv_core::registry`, and the
//! execution model resolved from the spec routes the simulation (barrier /
//! async / serial machine model).

use crate::statistics::quartiles;
use sptrsv_core::registry::{self, ExecModel, ExecPolicy, SchedulerSpec, SyncPolicy};
use sptrsv_core::{reorder_for_locality, CompiledSchedule, Schedule};
use sptrsv_dag::transitive::approximate_transitive_reduction;
use sptrsv_dag::SolveDag;
use sptrsv_datasets::Dataset;
use sptrsv_exec::{simulate_model, simulate_serial, MachineProfile, SimReport};
use sptrsv_sparse::CsrMatrix;
use std::time::Instant;

/// Nominal clock used to convert measured scheduling seconds into the model's
/// cycle units for the amortization threshold (Eq. (7.1)).
pub const CALIBRATION_HZ: f64 = 2.5e9;

/// One evaluated configuration: a registry spec, a table label, and whether
/// the §5 locality reordering is part of the pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    spec: String,
    label: String,
    reorder: bool,
}

impl Pipeline {
    /// A pipeline scheduling with `spec` (any v2 registry spec, `@model`
    /// suffix included), labeled by the spec itself, without reordering.
    pub fn new(spec: impl Into<String>) -> Pipeline {
        let spec = spec.into();
        Pipeline { label: spec.clone(), spec, reorder: false }
    }

    /// Enables the §5 schedule-order locality reordering.
    pub fn reordered(mut self) -> Pipeline {
        self.reorder = true;
        self
    }

    /// Overrides the display label used in tables.
    pub fn labeled(mut self, label: impl Into<String>) -> Pipeline {
        self.label = label.into();
        self
    }

    /// The registry spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The display label used in tables.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Everything the experiment tables need from one evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Pipeline label.
    pub algo: String,
    /// Dataset name.
    pub dataset: String,
    /// Modeled speed-up over the serial execution of the *original* matrix.
    pub speedup: f64,
    /// Number of supersteps of the schedule.
    pub n_supersteps: usize,
    /// Number of wavefronts of the DAG (barrier baseline, Table 7.2).
    pub n_wavefronts: usize,
    /// Wall-clock seconds spent computing the schedule (and reordering).
    pub sched_seconds: f64,
    /// Modeled parallel execution cycles.
    pub parallel_cycles: f64,
    /// Modeled serial execution cycles (original ordering).
    pub serial_cycles: f64,
    /// Full simulation report of the parallel run.
    pub sim: SimReport,
}

impl EvalOutcome {
    /// Amortization threshold (Eq. (7.1)): how many solves pay off the
    /// scheduling time. `f64::INFINITY` when the parallel run is not faster.
    pub fn amortization_threshold(&self) -> f64 {
        let gain = self.serial_cycles - self.parallel_cycles;
        if gain <= 0.0 {
            return f64::INFINITY;
        }
        self.sched_seconds * CALIBRATION_HZ / gain
    }
}

/// Runs `pipeline` on `dataset` for `n_cores` cores of `profile`, timing
/// the scheduling phase once (see [`evaluate_timed`]).
///
/// `n_cores` is an explicit caller setting, so — matching the precedence
/// everywhere else in the workspace (typed `PlanBuilder::cores`, explicit
/// CLI `--cores`) — it wins over a `cores=` execution-policy key in the
/// pipeline's spec; the key only fills in where a consumer has no explicit
/// count.
pub fn evaluate(
    dataset: &Dataset,
    pipeline: &Pipeline,
    profile: &MachineProfile,
    n_cores: usize,
) -> EvalOutcome {
    evaluate_timed(dataset, pipeline, profile, n_cores, 1)
}

/// [`evaluate`] with the scheduling phase run `timing_repeats` times (at
/// least once): `sched_seconds` is the median, so one slow timing does not
/// set a printed cell. Schedulers are deterministic, so every repeat yields
/// the same schedule; the first one is simulated.
pub fn evaluate_timed(
    dataset: &Dataset,
    pipeline: &Pipeline,
    profile: &MachineProfile,
    n_cores: usize,
    timing_repeats: usize,
) -> EvalOutcome {
    let dag = dataset.dag();
    let serial = simulate_serial(&dataset.lower, profile);

    let mut seconds = Vec::with_capacity(timing_repeats.max(1));
    let mut prepared = None;
    for _ in 0..timing_repeats.max(1) {
        let started = Instant::now();
        let p = prepare(dataset, &dag, pipeline, n_cores);
        seconds.push(started.elapsed().as_secs_f64());
        prepared.get_or_insert(p);
    }
    let (_, sched_seconds, _) = quartiles(&seconds);
    let Prepared { schedule, reordered_matrix, sync_dag, model, policy } =
        prepared.expect("the scheduling phase runs at least once");

    let matrix = reordered_matrix.as_ref().unwrap_or(&dataset.lower);
    let compiled = CompiledSchedule::from_schedule(&schedule);
    let sim = simulate_model(matrix, &compiled, model, sync_dag.as_ref(), None, profile, policy);
    EvalOutcome {
        algo: pipeline.label.clone(),
        dataset: dataset.name.clone(),
        speedup: serial.cycles / sim.cycles,
        n_supersteps: schedule.n_supersteps(),
        n_wavefronts: dataset.stats.n_wavefronts,
        sched_seconds,
        parallel_cycles: sim.cycles,
        serial_cycles: serial.cycles,
        sim,
    }
}

/// What the timed scheduling phase of one evaluation produces.
struct Prepared {
    schedule: Schedule,
    reordered_matrix: Option<CsrMatrix>,
    sync_dag: Option<SolveDag>,
    model: ExecModel,
    policy: ExecPolicy,
}

/// The scheduling phase: resolve the spec, schedule, reorder (when part of
/// the pipeline) and build the async model's sync DAG.
fn prepare(dataset: &Dataset, dag: &SolveDag, pipeline: &Pipeline, n_cores: usize) -> Prepared {
    let spec: SchedulerSpec =
        pipeline.spec.parse().expect("harness specs follow the registry grammar");
    let model = registry::resolve_model(&spec).expect("harness specs name supported models");
    let policy =
        registry::resolve_exec_policy(&spec).expect("harness specs carry valid policy keys");
    let scheduler =
        registry::build(&spec, dag, n_cores).expect("harness specs name registered schedulers");
    let schedule: Schedule = scheduler.schedule(dag, n_cores);

    // Reordering (when part of the pipeline) produces a permuted problem,
    // simulated as-is (the permuted system is equivalent, §5).
    let (reordered_matrix, schedule): (Option<CsrMatrix>, Schedule) = if pipeline.reorder {
        let r =
            reorder_for_locality(&dataset.lower, &schedule).expect("schedule order is topological");
        (Some(r.matrix), r.schedule)
    } else {
        (None, schedule)
    };
    let matrix = reordered_matrix.as_ref().unwrap_or(&dataset.lower);
    // Async execution waits on the policy's DAG of the simulated operand —
    // building it is scheduling-preparation work, so it counts toward the
    // amortization threshold like the schedule itself. As in the plan
    // layer, `sync=reduced` waits on the approximate transitive reduction.
    let sync_dag = match model {
        ExecModel::Async => {
            let full = SolveDag::from_lower_triangular(matrix);
            Some(match policy.sync {
                SyncPolicy::Full => full,
                SyncPolicy::Reduced => approximate_transitive_reduction(&full),
            })
        }
        ExecModel::Barrier | ExecModel::Serial => None,
    };
    Prepared { schedule, reordered_matrix, sync_dag, model, policy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_datasets::{load_suite, Scale, SuiteKind};

    #[test]
    fn evaluate_produces_consistent_outcome() {
        let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 1);
        let profile = MachineProfile::intel_xeon_22();
        let out = evaluate(&suite[0], &Pipeline::new("growlocal").reordered(), &profile, 4);
        assert!(out.speedup > 0.0);
        assert!(out.n_supersteps >= 1);
        assert!(out.sched_seconds >= 0.0);
        assert!((out.speedup - out.serial_cycles / out.parallel_cycles).abs() < 1e-9);
    }

    #[test]
    fn every_registered_scheduler_and_model_evaluates() {
        // The harness enumerates nothing: every (scheduler × model) pair of
        // the registry must evaluate through a single spec string.
        let suite = load_suite(SuiteKind::NarrowBandwidth, Scale::Test, 1);
        let profile = MachineProfile::intel_xeon_22();
        for info in registry::list() {
            for &model in info.exec_models {
                for reorder in [false, true] {
                    let mut p = Pipeline::new(format!("{}@{model}", info.name));
                    if reorder {
                        p = p.reordered();
                    }
                    let out = evaluate(&suite[0], &p, &profile, 4);
                    assert!(
                        out.speedup.is_finite() && out.speedup > 0.0,
                        "{} produced a broken speedup",
                        out.algo
                    );
                }
            }
        }
    }

    #[test]
    fn execution_model_routes_the_simulation() {
        let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 2);
        let profile = MachineProfile::intel_xeon_22();
        // Serial execution of the unpermuted operand is the baseline itself.
        let serial = evaluate(&suite[0], &Pipeline::new("growlocal@serial"), &profile, 4);
        assert!((serial.speedup - 1.0).abs() < 1e-12);
        assert_eq!(serial.sim.sync_cycles, 0.0);
        // The barrier run of the same schedule pays barrier cycles.
        let barrier = evaluate(&suite[0], &Pipeline::new("growlocal@barrier"), &profile, 4);
        assert!(barrier.sim.sync_cycles > 0.0);
    }

    #[test]
    fn amortization_threshold_semantics() {
        let suite = load_suite(SuiteKind::SuiteSparse, Scale::Test, 1);
        let profile = MachineProfile::intel_xeon_22();
        let mut out = evaluate(&suite[0], &Pipeline::new("growlocal").reordered(), &profile, 8);
        out.sched_seconds = 1.0 / CALIBRATION_HZ; // exactly one cycle
        if out.serial_cycles > out.parallel_cycles {
            let t = out.amortization_threshold();
            assert!(t > 0.0 && t.is_finite());
        }
        out.parallel_cycles = out.serial_cycles + 1.0;
        assert!(out.amortization_threshold().is_infinite());
    }
}
