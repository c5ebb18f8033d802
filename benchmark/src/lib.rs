//! Drift-cancelling benchmark of the sptrsv crates.
//!
//! Every time-based end-to-end metric is a ratio against the frozen
//! reference kernel ([`reference::RefCsr`]), timed immediately before each
//! measured call on the same operand, so machine drift between runs
//! cancels. The benchmark reaches the program only through public
//! functions of `sptrsv-datasets`, `sptrsv-dag`, `sptrsv-core`,
//! `sptrsv-exec`, `sptrsv-tune` and `sptrsv-serve`. Every plan is built
//! for `nproc` cores on a private runtime of `nproc` cores; one client
//! thread drives all load and never spin-waits.
//!
//! An untraced run ([`Config::trace`] off) reports the end-to-end metrics;
//! a traced run re-runs the same calls inside spans ([`trace::Tracer`]) and
//! derives the per-layer metrics from them.

pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

mod meta;
mod serve;
mod solve;
mod traced;

use reference::RefCsr;
use sptrsv_datasets::Scale;
use sptrsv_exec::{PlanBuilder, SolvePlan, SolverRuntime};
use sptrsv_sparse::CsrMatrix;
use sptrsv_tune::Tuner;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Input, Workload};

/// The scheduler specs every workload plans and solves with. `auto`
/// resolves through `sptrsv-tune`.
pub const SPECS: [&str; 6] = ["growlocal", "funnel-gl", "hdagg", "spmp", "wavefront", "auto"];

/// Specs whose cold plan cost is an end-to-end metric.
const PLAN_XREF_SPECS: [&str; 4] = ["growlocal", "funnel-gl", "hdagg", "auto"];

/// Cold set-ups of an untraced run; `setup_s` and `plan_xref.*` are their
/// medians.
const SETUP_ROUNDS: usize = 3;

/// Reference solves timed before each cold build.
const PLAN_REF_SOLVES: usize = 5;

/// Largest tolerated `max|x − x_ref| / max|x_ref|`: §5 reordering changes
/// the summation order, so outputs agree to rounding, not bit for bit.
pub const DEVIATION_TOL: f64 = 1e-9;

/// Largest tolerated componentwise backward error
/// ([`reference::RefCsr::backward_error`]).
pub const BACKWARD_TOL: f64 = 1e-12;

/// Fingerprints of every workload's matrices at Medium scale (lines
/// `workload hex`).
pub const RECORDED_FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which inputs.
    pub workload: Workload,
    /// Seed of the right-hand sides (the matrices are fixed per workload,
    /// see [`workload::MATRIX_SEED`]).
    pub seed: u64,
    /// Measured seconds (set-up excluded).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size; the benchmark proper runs at `Medium`.
    pub scale: Scale,
    /// Where the traced run writes its spans (`None`: not written).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output checked matched the reference.
    pub correct: bool,
    /// Operations attempted: plan builds, solves, served requests.
    pub attempted: u64,
    /// Operations that failed: plan errors, wrong solutions, refused
    /// requests.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Run metadata (`key`, `value`).
    pub meta: Vec<(String, String)>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Whether a higher value of metric `name` is better.
    pub fn higher_is_better(name: &str) -> bool {
        [
            "speedup.",
            "serve_xref.",
            "core.work_eff.",
            "exec.serial_gbps",
            "serve.mean_width.",
            "exec.sim_spearman",
        ]
        .iter()
        .any(|p| name.starts_with(p))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The metadata line.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "")))
            .collect();
        format!("{{\"run_meta\": {{{}}}}}", fields.join(", "))
    }
}

/// Failure accounting shared by every phase.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Largest deviation and backward error seen (for the headroom report).
    max_deviation: f64,
    max_backward: f64,
}

impl Tally {
    pub(crate) fn ok(&mut self) {
        self.attempted += 1;
    }

    pub(crate) fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Counts one check of `x` against the reference solution `x_ref`.
    pub(crate) fn check(&mut self, what: impl FnOnce() -> String, x: &[f64], x_ref: &[f64]) {
        let dev = reference::relative_deviation(x, x_ref);
        self.max_deviation = self.max_deviation.max(dev);
        if dev <= DEVIATION_TOL {
            self.ok();
        } else {
            self.fail(format!("{}: deviation {dev:e}", what()));
        }
    }

    /// Counts one backward-error check of `x` for `L x = b`.
    pub(crate) fn check_backward(
        &mut self,
        what: impl FnOnce() -> String,
        l: &RefCsr,
        x: &[f64],
        b: &[f64],
    ) {
        let err = l.backward_error(x, b);
        self.max_backward = self.max_backward.max(err);
        if err <= BACKWARD_TOL {
            self.ok();
        } else {
            self.fail(format!("{}: backward error {err:e}", what()));
        }
    }
}

/// A generated operand with its right-hand side, reference solution and
/// plans.
pub(crate) struct Operand {
    pub(crate) name: String,
    pub(crate) lower: CsrMatrix,
    /// The frozen reference's copy of `lower`.
    pub(crate) reference: RefCsr,
    pub(crate) b: Vec<f64>,
    /// The reference solution of `lower x = b`.
    pub(crate) x_ref: Vec<f64>,
    /// One plan per entry of [`SPECS`].
    pub(crate) plans: Vec<Arc<SolvePlan>>,
}

/// A deterministic right-hand side in `[0.5, 1.5)`.
pub(crate) fn rhs(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut state = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// The operand with its reference solution, no plans yet.
pub(crate) fn operand(seed: u64, index: usize, input: Input) -> Operand {
    let reference = RefCsr::copy_of(&input.lower);
    let b = rhs(seed, index as u64, reference.n());
    let mut x_ref = vec![0.0; reference.n()];
    reference.solve(&b, &mut x_ref);
    Operand { name: input.name, lower: input.lower, reference, b, x_ref, plans: Vec::new() }
}

/// Runs the tuner behind `auto` for `nproc` cores: the winning spec and
/// how many candidates it scored.
pub(crate) fn tune(lower: &CsrMatrix, nproc: usize) -> Result<(String, usize), String> {
    let report = Tuner::new(lower).cores(nproc).run().map_err(|e| format!("auto tuner: {e}"))?;
    Ok((report.winner.to_string(), report.ranked.len()))
}

/// Builds the plan for a concrete `spec` on `nproc` cores of `runtime`.
pub(crate) fn build(
    lower: &CsrMatrix,
    spec: &str,
    nproc: usize,
    runtime: &Arc<SolverRuntime>,
) -> Result<SolvePlan, String> {
    PlanBuilder::new(lower)
        .scheduler(spec)
        .cores(nproc)
        .runtime(Arc::clone(runtime))
        .build()
        .map_err(|e| format!("plan {spec}: {e}"))
}

/// A cold plan for any entry of [`SPECS`] (`auto`: tuner, then build).
fn build_plan(
    lower: &CsrMatrix,
    spec: &str,
    nproc: usize,
    runtime: &Arc<SolverRuntime>,
) -> Result<SolvePlan, String> {
    if spec == "auto" {
        build(lower, &tune(lower, nproc)?.0, nproc, runtime)
    } else {
        build(lower, spec, nproc, runtime)
    }
}

/// Times one call of `f`, in seconds.
pub(crate) fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// The untraced set-up: generate the inputs, build every plan cold
/// ([`PLAN_REF_SOLVES`] reference solves timed before each build), warm
/// every plan up.
pub(crate) struct Setup {
    pub(crate) ops: Vec<Operand>,
    pub(crate) seconds: f64,
    /// `[operand][PLAN_XREF_SPECS index]`: build time over reference time.
    pub(crate) plan_xref: Vec<Vec<f64>>,
}

fn set_up(
    cfg: &Config,
    nproc: usize,
    runtime: &Arc<SolverRuntime>,
    tally: &mut Tally,
) -> Result<Setup, String> {
    let start = Instant::now();
    let inputs = cfg.workload.generate(cfg.scale);
    let mut ops = Vec::with_capacity(inputs.len());
    let mut plan_xref = Vec::with_capacity(inputs.len());
    for (k, input) in inputs.into_iter().enumerate() {
        let mut op = operand(cfg.seed, k, input);
        let mut scratch = vec![0.0; op.reference.n()];
        let mut ref_s = Vec::new();
        let mut build_s = Vec::new();
        for spec in SPECS {
            for _ in 0..PLAN_REF_SOLVES {
                ref_s.push(time(|| op.reference.solve(&op.b, &mut scratch)).1);
            }
            let (built, secs) = time(|| build_plan(&op.lower, spec, nproc, runtime));
            match built {
                Ok(plan) => {
                    tally.ok();
                    op.plans.push(Arc::new(plan));
                    build_s.push((spec, secs));
                }
                Err(e) => {
                    tally.fail(format!("{}: {e}", op.name));
                    return Err(e);
                }
            }
        }
        let t_ref = stats::median(&ref_s);
        plan_xref.push(
            PLAN_XREF_SPECS
                .iter()
                .map(|s| build_s.iter().find(|(n, _)| n == s).expect("every spec built").1 / t_ref)
                .collect(),
        );
        // Warm-up: first-touch the workspaces and wake the runtime.
        let mut x = vec![0.0; op.reference.n()];
        for plan in &op.plans {
            let mut ws = plan.workspace();
            for _ in 0..3 {
                plan.solve_into(&op.b, &mut x, &mut ws);
            }
            tally.check(|| format!("{} warm-up", op.name), &x, &op.x_ref);
        }
        ops.push(op);
    }
    Ok(Setup { ops, seconds: start.elapsed().as_secs_f64(), plan_xref })
}

/// What the measured phase collected.
pub(crate) struct Measured {
    pub(crate) solves: solve::SolveSamples,
    pub(crate) served: Option<serve::Served>,
}

/// The measured phase: solve rounds and serving chunks interleaved over
/// `budget`, serving taking `serve_share` of the time (none when 0), so
/// every metric samples the whole run rather than one stretch of it.
/// Runs past `budget` until there are three solve rounds and, when
/// serving, [`serve::MIN_REQUESTS`] per window.
pub(crate) fn measure(
    ops: &[Operand],
    seed: u64,
    budget: Duration,
    serve_share: f64,
    executor_lanes: bool,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut solves = solve::SolveLoop::new(ops, executor_lanes);
    let serve_op = &ops[serve_operand(ops)];
    let mut serve =
        (serve_share > 0.0).then(|| serve::ServeLoop::new(serve_op, &serve_op.plans[0], seed));
    let start = Instant::now();
    let mut serving = Duration::ZERO;
    loop {
        let elapsed = start.elapsed();
        let over = elapsed >= budget;
        let serve_next = serve.as_ref().is_some_and(|s| {
            if over {
                !s.enough()
            } else {
                serving.as_secs_f64() < serve_share * elapsed.as_secs_f64()
            }
        });
        if over && !serve_next && solves.rounds() >= 3 {
            break;
        }
        match serve.as_mut().filter(|_| serve_next) {
            Some(s) => {
                let t = Instant::now();
                s.chunks(tracer.as_deref_mut(), tally)?;
                serving += t.elapsed();
            }
            None => solves.round(ops, tracer.as_deref_mut(), tally),
        }
    }
    Ok(Measured { solves: solves.finish(ops, tally), served: serve.map(serve::ServeLoop::finish) })
}

/// Index of the operand the serving phase uses.
pub(crate) fn serve_operand(ops: &[Operand]) -> usize {
    ops.iter().position(|o| o.name == workload::SERVE_OPERAND).unwrap_or(0)
}

/// Checks the workload's matrices against the recorded fingerprint, so an
/// edit to a generator cannot silently change a workload. Returns the
/// fingerprint.
fn input_guard(cfg: &Config, ops: &[Operand]) -> Result<u64, String> {
    let fp = workload::workload_fingerprint(ops.iter().map(|o| (o.name.as_str(), &o.lower)));
    if cfg.scale != Scale::Medium {
        return Ok(fp);
    }
    match workload::recorded_fingerprint(RECORDED_FINGERPRINTS, cfg.workload) {
        Some(recorded) if recorded == fp => Ok(fp),
        Some(recorded) => Err(format!(
            "input guard: {} matrices fingerprint {fp:016x}, recorded {recorded:016x}; \
             a generator changed the workload",
            cfg.workload.name()
        )),
        None => Err(format!("input guard: no recorded fingerprint for {}", cfg.workload.name())),
    }
}

/// Runs one invocation.
pub fn run(cfg: &Config) -> Report {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runtime = Arc::new(SolverRuntime::new(nproc));
    let mut tally = Tally::default();
    let mut report = Report {
        meta: meta::collect(nproc).into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ..Report::default()
    };
    report.meta.push(("workload".into(), cfg.workload.name().into()));
    report.meta.push(("seed".into(), cfg.seed.to_string()));
    report.meta.push(("trace".into(), cfg.trace.to_string()));

    let outcome = if cfg.trace {
        traced::run(cfg, nproc, &runtime, &mut tally, &mut report)
    } else {
        run_untraced(cfg, nproc, &runtime, &mut tally, &mut report)
    };
    if let Err(e) = outcome {
        tally.errors.push(e);
    }
    report.attempted = tally.attempted.max(1);
    report.failed = tally.failed;
    report.correct = tally.errors.is_empty()
        && tally.failed == 0
        && report.metrics.iter().all(|m| m.value.is_finite());
    report.meta.push(("max_deviation".into(), format!("{:e}", tally.max_deviation)));
    report.meta.push(("max_backward_error".into(), format!("{:e}", tally.max_backward)));
    if !tally.errors.is_empty() {
        report.meta.push(("errors".into(), tally.errors.join("; ")));
    }
    report
}

fn run_untraced(
    cfg: &Config,
    nproc: usize,
    runtime: &Arc<SolverRuntime>,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut plan_xref: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        // Drop the previous round's plans first so every round starts cold.
        drop(last.take());
        let round = set_up(cfg, nproc, runtime, tally)?;
        setup_s.push(round.seconds);
        plan_xref.push(round.plan_xref.clone());
        last = Some(round);
    }
    let setup = last.expect("at least one set-up round");
    // [operand][spec]: median over the set-up rounds.
    let plan_xref: Vec<Vec<f64>> = (0..setup.ops.len())
        .map(|k| {
            (0..PLAN_XREF_SPECS.len())
                .map(|j| stats::median(&plan_xref.iter().map(|r| r[k][j]).collect::<Vec<_>>()))
                .collect()
        })
        .collect();
    let fp = input_guard(cfg, &setup.ops)?;
    report.meta.push(("inputs_fnv".into(), format!("{fp:016x}")));
    for op in &setup.ops {
        report.meta.push((
            format!("fnv.{}", op.name),
            format!("{:016x}", workload::fingerprint(&op.lower)),
        ));
    }

    let budget = Duration::from_secs_f64(cfg.seconds);
    let measured =
        measure(&setup.ops, cfg.seed, budget, workload::SERVE_SHARE, false, None, tally)?;
    let (solves, served) = (measured.solves, measured.served.expect("serving was on"));

    for (k, op) in setup.ops.iter().enumerate() {
        let lanes: Vec<String> =
            (0..=SPECS.len()).map(|v| format!("{:.3}", solves.speedup(k, v))).collect();
        let plans: Vec<String> = plan_xref[k].iter().map(|x| format!("{x:.1}")).collect();
        eprintln!(
            "operand {:<20} speedup {} plan_xref {}",
            op.name,
            lanes.join(" "),
            plans.join(" ")
        );
    }
    report.push("setup_s", stats::median(&setup_s), "s");
    for (v, name) in std::iter::once("serial").chain(SPECS).enumerate() {
        let per_op: Vec<f64> =
            setup.ops.iter().enumerate().map(|(k, _)| solves.speedup(k, v)).collect();
        report.push(format!("speedup.{name}"), stats::geomean(&per_op), "x");
    }
    for (j, spec) in PLAN_XREF_SPECS.iter().enumerate() {
        let per_op: Vec<f64> = plan_xref.iter().map(|row| row[j]).collect();
        report.push(format!("plan_xref.{spec}"), stats::geomean(&per_op), "ref_solves");
    }
    for (i, window) in served.windows.iter().enumerate() {
        report.push(format!("serve_xref.w{}", i + 1), window.xref(), "1/ref_solve");
    }
    report.meta.push(("setup_s_rounds".into(), format!("{setup_s:?}")));
    report.meta.push(("solve_rounds".into(), solves.rounds.to_string()));
    for w in [1, 2] {
        report
            .meta
            .push((format!("served.w{w}"), served.windows[w - 1].latency_us.len().to_string()));
    }
    Ok(())
}
