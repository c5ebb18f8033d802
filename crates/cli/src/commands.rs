//! CLI subcommands.
//!
//! Scheduler selection goes through `sptrsv_core::registry`: `--algo` takes
//! a full spec string in the v2 grammar (`growlocal`,
//! `growlocal:alpha=8,sync=2000`, `funnel-gl:gl.alpha=8,cap=auto`,
//! `growlocal@async`, …) and `sptrsv algos` prints the registry listing —
//! the CLI itself hardcodes no scheduler names and no execution models; the
//! `@model` suffix routes `solve` and `simulate` through the matching
//! executor/simulation mode.

use crate::args::Args;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv_core::registry::{self, SchedulerSpec};
use sptrsv_dag::{wavefronts, SolveDag};
use sptrsv_exec::{
    backward_error, simulate_serial, CacheOutcome, MachineProfile, PlanBuilder, PlanCache,
    PreOrder, BACKWARD_ERROR_TOL,
};
use sptrsv_serve::{Admission, ServeBuilder, SubmitError};
use sptrsv_sparse::csr::Triangle;
use sptrsv_sparse::gen;
use sptrsv_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use sptrsv_sparse::linalg::relative_residual;
use sptrsv_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: sptrsv <command> [args]

commands:
  generate <grid2d|grid3d|er|nb> [--width W --height H --depth D]
           [--n N --rate R --prob P --band B] [--seed S] -o <file.mtx>
  info     <file.mtx>
  algos    list schedulers and their spec parameters
  schedule <file.mtx> [--algo SPEC] [--cores K] [-o <file.sched>]
  solve    <file.mtx> [--algo SPEC] [--cores K] [--no-reorder true]
           [--pre-order rcm|min-degree|nested-dissection] [--coarsen true]
           [--repeat N] [--plan-cache DIR]
  plan     <file.mtx> [--algo SPEC] [--cores K] [--no-reorder true]
           [--pre-order rcm|min-degree|nested-dissection] [--coarsen true]
           [--save <file.plan>] [--load <file.plan>] [--plan-cache DIR]
  simulate <file.mtx> [--algo SPEC] [--cores K] [--machine intel|amd|arm]
  tune     <file.mtx> [--algo auto[:key=...][@model]] [--cores K]
           [--budget N] [--cache DIR]
  serve-bench <file.mtx> [--algo SPEC] [--cores K] [--batch N]
           [--batch-wait-us U] [--clients C] [--requests R] [--depth D]
           [--admission block|shed] [--plan-cache DIR]

--algo takes a scheduler spec in the grammar name[:key=value,...][@model]:
a name from `sptrsv algos`, optional parameters (scoped keys like gl.alpha
reach a composite scheduler's inner GrowLocal; the execution-policy keys
sync=full|reduced, backoff=spin|yield, cores=N and fastmath=on|off are
valid on any scheduler, see `sptrsv algos`) and an optional execution
model, e.g. growlocal:alpha=8,sync=2000, funnel-gl:gl.alpha=8,cap=auto,
growlocal:sync=full@async or spmp:backoff=yield. --cores K (a positive
integer) overrides the spec's cores= key. A command rejects any flag it
does not take.
Parallel solves lease their threads per solve from the process-wide solver
runtime (sized to the hardware), so concurrent solves never oversubscribe
the machine — a solve wider than the free capacity degrades gracefully to
fewer cores and keeps that width until it finishes.
fastmath=on routes the solve through detected dense-block / lane-unrolled
row kernels with precomputed diagonal reciprocals: the one policy that can
change results (agreement with the exact path to 1e-12 relative tolerance
instead of bit-for-bit).
--repeat N runs N steady-state solves on one plan (leases dispatch onto
already-running runtime workers without re-spawning threads) and checks
they are bit-identical.
serve-bench starts a batching solve server over the plan (the sptrsv-serve
front-end): C closed-loop clients each submit R single right-hand sides,
a waiting client fuses up to --batch N queued requests (default 8) into
one multi-RHS solve on its own thread (the --batch-wait-us linger, default
100, only delays requests nobody waits on), and admission control engages
at queue depth D (block stalls submitters, shed bounces them). Every
response is verified against the standalone solve, then the achieved
batch widths, latency percentiles and goodput are printed.
--plan-cache DIR enables warm starts: a cold build saves its compiled
schedule to DIR under a content fingerprint of (matrix structure,
scheduler spec, cores, coarsen, reorder); later runs with the same key
load the file and skip scheduling entirely. A stale, truncated or
mismatched file is rejected with an error, never silently mis-solved.
solve, plan and serve-bench print the outcome as a `plan cache:` line
(one of uncached, miss (stored), memory hit, disk hit). `plan` builds
and verifies one plan without the full solve report; --save writes its
scheduling artifact to an explicit file and --load builds from one (the
file must match the matrix and build flags, enforced by the
fingerprint).
--algo auto turns scheduler selection over to the tuner on any command
that takes a spec: it builds at most three entrants (funnel-gl@barrier,
hdagg@barrier, then wavefront@serial on narrow fronts or
growlocal@barrier; a near-sequential matrix gets the serial sweep
alone), races them in wall-clock time on the matrix itself, and builds
the fastest (printed as an `auto picked:` line). Scope keys parameterize
it — auto:budget=N races at most N entrants, auto:cache=DIR persists the
verdict under the matrix's structure fingerprint so later runs skip
tuning (a corrupt or foreign verdict file is an error, never a wrong
pick) — and any execution-policy key (auto:cores=4,fastmath=on) passes
through to every entrant; auto@model maps the entrants to one model.
`sptrsv tune` runs the same pipeline standalone and prints the race
table; its --budget/--cache flags override the spec keys.";

/// Dispatches a full argv (after the program name).
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        return Err(format!("no command given\n{USAGE}"));
    };
    let args = Args::parse(&argv[1..])?;
    if let Some(known) = known_flags(command) {
        if let Some(flag) = args.flag_names().find(|flag| !known.contains(flag)) {
            return Err(format!("`{command}` takes no flag --{flag} (see `sptrsv help`)"));
        }
    }
    match command.as_str() {
        "generate" => generate(&args),
        "info" => info(&args),
        "algos" => algos(),
        "schedule" => schedule(&args),
        "solve" => solve(&args),
        "plan" => plan_cmd(&args),
        "simulate" => simulate(&args),
        "tune" => tune(&args),
        "serve-bench" => serve_bench(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// The flags `command` reads, or `None` for an unknown command.
fn known_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["seed", "width", "height", "depth", "n", "rate", "prob", "band", "output"],
        "info" | "algos" | "help" | "--help" | "-h" => &[],
        "schedule" => &["algo", "cores", "output"],
        "solve" => &["algo", "cores", "no-reorder", "pre-order", "coarsen", "repeat", "plan-cache"],
        "plan" => {
            &["algo", "cores", "no-reorder", "pre-order", "coarsen", "plan-cache", "save", "load"]
        }
        "simulate" => &["algo", "cores", "machine"],
        "tune" => &["algo", "cores", "budget", "cache"],
        "serve-bench" => &[
            "algo",
            "cores",
            "clients",
            "requests",
            "depth",
            "admission",
            "batch",
            "batch-wait-us",
            "plan-cache",
        ],
        _ => return None,
    })
}

/// Loads a matrix and extracts its lower triangle (reporting what happened).
fn load_lower(path: &str) -> Result<CsrMatrix, String> {
    let m = read_matrix_market_file(path).map_err(|e| format!("{path}: {e}"))?;
    if m.is_lower_triangular() {
        m.validate_triangular(Triangle::Lower).map_err(|e| e.to_string())?;
        Ok(m)
    } else {
        eprintln!("note: {path} is not lower triangular; using its lower triangle");
        let l = m.lower_triangle().map_err(|e| e.to_string())?;
        l.validate_triangular(Triangle::Lower).map_err(|e| e.to_string())?;
        Ok(l)
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let kind = args.require_positional(0, "generator kind")?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let matrix = match kind {
        "grid2d" => {
            let w = positive_dim(args, "width", 64)?;
            let h = positive_dim(args, "height", 64)?;
            gen::grid::grid2d_laplacian(w, h, gen::grid::Stencil2D::FivePoint, 0.5)
        }
        "grid3d" => {
            let w = positive_dim(args, "width", 16)?;
            let h = positive_dim(args, "height", 16)?;
            let d = positive_dim(args, "depth", 16)?;
            gen::grid::grid3d_laplacian(w, h, d, gen::grid::Stencil3D::SevenPoint, 0.5)
        }
        "er" => {
            let n: usize = args.get_parse("n", 10_000)?;
            let rate: f64 = args.get_parse("rate", 10.0)?;
            if n == 0 {
                return Err("bad value for --n: er needs at least one row".into());
            }
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(format!("bad value for --rate: {rate} is not a finite rate >= 0"));
            }
            // One row has no strictly-lower entries to draw.
            let p = if n == 1 { 0.0 } else { (2.0 * rate / (n as f64 - 1.0)).min(1.0) };
            gen::erdos_renyi::erdos_renyi_lower(n, p, &mut rng)
        }
        "nb" => {
            let n: usize = args.get_parse("n", 10_000)?;
            let p: f64 = args.get_parse("prob", 0.14)?;
            let b: f64 = args.get_parse("band", 10.0)?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("bad value for --prob: {p} is not a probability in (0, 1]"));
            }
            if !(b.is_finite() && b > 0.0) {
                return Err(format!("bad value for --band: {b} is not a finite bandwidth > 0"));
            }
            gen::narrow_band::narrow_band_lower(n, p, b, &mut rng)
        }
        other => return Err(format!("unknown generator `{other}`")),
    };
    let out = args.get("output").ok_or("missing -o <file.mtx>")?;
    write_matrix_market_file(&matrix, out).map_err(|e| e.to_string())?;
    println!("wrote {} ({} rows, {} non-zeros)", out, matrix.n_rows(), matrix.nnz());
    Ok(())
}

/// A grid dimension flag, which must be at least 1.
fn positive_dim(args: &Args, key: &str, default: usize) -> Result<usize, String> {
    match args.get_parse(key, default)? {
        0 => Err(format!("bad value for --{key}: grid dimensions must be at least 1")),
        dim => Ok(dim),
    }
}

fn info(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let m = read_matrix_market_file(path).map_err(|e| format!("{path}: {e}"))?;
    println!("file:        {path}");
    println!("dimensions:  {} x {}", m.n_rows(), m.n_cols());
    println!("non-zeros:   {}", m.nnz());
    println!(
        "shape:       {}",
        if m.is_lower_triangular() {
            "lower triangular"
        } else if m.is_upper_triangular() {
            "upper triangular"
        } else {
            "general"
        }
    );
    let lower = if m.is_lower_triangular() {
        m.clone()
    } else {
        m.lower_triangle().map_err(|e| e.to_string())?
    };
    if lower.has_nonzero_diagonal() {
        let dag = SolveDag::from_lower_triangular(&lower);
        let a = sptrsv_dag::analyze(&dag);
        println!("solve DAG:   {} edges, {} sources, {} sinks", a.n_edges, a.n_sources, a.n_sinks);
        println!(
            "wavefronts:  {} (average size {:.1}, max {})",
            a.n_wavefronts, a.avg_wavefront, a.max_wavefront
        );
        println!("degrees:     max in {} / max out {}", a.max_in_degree, a.max_out_degree);
        println!("ideal speed-up bound (critical path): {:.1}x", a.ideal_speedup());
        println!("solve flops: {}", lower.solve_flops());
    } else {
        println!("solve DAG:   n/a (zero diagonal entries)");
    }
    Ok(())
}

fn algos() -> Result<(), String> {
    println!("schedulers (use as --algo, parameters as name:key=value,key=value):\n");
    print!("{}", registry::help_text());
    Ok(())
}

/// The `--algo` spec of a command and its core count. An
/// `auto[:…][@model]` spec runs the tuner against the loaded operand and
/// becomes the concrete winning spec (printing the greppable `auto
/// picked:` line), so `--algo auto` works uniformly on every spec-taking
/// command. The core count is `--cores` (a positive integer), else the
/// spec's `cores=` execution-policy key, else `default`. When the tuner
/// ran, the third value is the plan cache it built its entrants through.
fn algo_and_cores(
    args: &Args,
    lower: &CsrMatrix,
    default: usize,
) -> Result<(String, usize, Option<Arc<PlanCache>>), String> {
    let flag = positive_flag(args, "cores")?;
    let mut algo = args.get("algo").unwrap_or("growlocal").to_string();
    let mut plans = None;
    if sptrsv_tune::is_auto_spec(&algo) {
        let resolved = sptrsv_tune::resolve_spec(lower, &algo, flag).map_err(|e| e.to_string())?;
        if let Some(report) = resolved.report {
            println!("verdict cache:     {}", report.cache.as_str());
            println!("tuning time:       {:.1} ms", report.tuning_seconds * 1e3);
            plans = Some(report.plans);
        }
        println!("auto picked:       {}", resolved.spec);
        algo = resolved.spec;
    }
    let cores = match flag {
        Some(cores) => cores,
        None => {
            let spec: SchedulerSpec =
                algo.parse().map_err(|e: registry::RegistryError| e.to_string())?;
            let policy = registry::resolve_exec_policy(&spec).map_err(|e| e.to_string())?;
            policy.cores.unwrap_or(default)
        }
    };
    Ok((algo, cores, plans))
}

/// The plan `solve`, `plan` and `serve-bench` build: `algo` at `cores`
/// cores, shaped by whichever of `--pre-order`, `--no-reorder`,
/// `--coarsen`, `--plan-cache` and `--load` the command takes. `plans`
/// is the tuner's cache from [`algo_and_cores`].
fn plan_builder<'m>(
    args: &Args,
    lower: &'m CsrMatrix,
    algo: &str,
    cores: usize,
    plans: Option<Arc<PlanCache>>,
) -> Result<PlanBuilder<'m>, String> {
    let pre_order = match args.get("pre-order") {
        None | Some("natural") => PreOrder::Natural,
        Some("rcm") => PreOrder::Rcm,
        Some("min-degree") => PreOrder::MinDegree,
        Some("nested-dissection") => PreOrder::NestedDissection,
        Some(other) => return Err(format!("unknown pre-order `{other}`")),
    };
    // Every flag takes a value (see `Args::parse`), so parse the booleans —
    // `--coarsen false` must not silently enable coarsening.
    let mut builder = PlanBuilder::new(lower)
        .scheduler(algo)
        .cores(cores)
        .pre_order(pre_order)
        .coarsen(args.get_parse("coarsen", false)?)
        .reorder(!args.get_parse("no-reorder", false)?);
    if let Some(dir) = args.get("plan-cache") {
        builder = builder.plan_cache(dir);
    } else if let Some(plans) = &plans {
        // The tuner already built the winner; with no plan-cache directory
        // to fill, reuse it.
        builder = builder.cached(plans);
    }
    if let Some(load) = args.get("load") {
        builder = builder.load_plan(load);
    }
    Ok(builder)
}

fn schedule(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let lower = load_lower(path)?;
    let (algo, cores, _) = algo_and_cores(args, &lower, 8)?;
    let dag = SolveDag::from_lower_triangular(&lower);
    let sched = registry::resolve(&algo, &dag, cores).map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let s = sched.schedule(&dag, cores);
    let elapsed = started.elapsed();
    s.validate(&dag).map_err(|e| format!("scheduler bug: {e}"))?;
    let stats = s.stats(&dag);
    let wf = wavefronts(&dag);
    println!("algorithm:      {} (spec: {algo})", sched.name());
    println!("cores:          {cores}");
    println!("supersteps:     {} ({} barriers)", s.n_supersteps(), s.n_barriers());
    println!(
        "barrier reduction vs wavefronts: {:.2}x",
        wf.n_fronts() as f64 / s.n_supersteps() as f64
    );
    println!("work efficiency: {:.3}", stats.work_efficiency(cores));
    println!("avg imbalance:   {:.3}", stats.average_imbalance());
    println!("scheduling time: {:.2} ms", elapsed.as_secs_f64() * 1e3);
    if let Some(out) = args.get("output") {
        sptrsv_core::write_schedule_file(&s, out).map_err(|e| e.to_string())?;
        println!("schedule saved to {out}");
    }
    Ok(())
}

fn solve(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let lower = load_lower(path)?;
    let (algo, cores, plans) = algo_and_cores(args, &lower, 8)?;
    let repeat: usize = args.get_parse("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat needs at least one solve".into());
    }
    let plan =
        plan_builder(args, &lower, &algo, cores, plans)?.build().map_err(|e| e.to_string())?;
    let b = vec![1.0; lower.n_rows()];
    let mut x = vec![0.0; lower.n_rows()];
    let mut workspace = plan.workspace();
    let started = std::time::Instant::now();
    plan.solve_into(&b, &mut x, &mut workspace);
    let first_elapsed = started.elapsed();
    let residual = relative_residual(&lower, &x, &b);
    let backward = backward_error(&lower, &x, &b);
    println!("algorithm:         {algo}");
    println!("execution model:   {}", plan.exec_model());
    println!(
        "execution policy:  sync={} backoff={} fastmath={}",
        plan.exec_policy().sync,
        plan.exec_policy().backoff,
        if plan.exec_policy().fastmath { "on" } else { "off" }
    );
    if plan.cache_outcome() != CacheOutcome::Uncached {
        println!("plan cache:        {}", plan.cache_outcome());
    }
    let plan_cores = plan.compiled().n_cores();
    if plan_cores > 1 && plan.exec_model() != registry::ExecModel::Serial {
        // The parallel solve above already materialized the process
        // runtime, so reporting its capacity is free; serial plans never
        // touch it and should not spawn its workers just for this line.
        println!(
            "cores:             {plan_cores} (leased per solve from the {}-core process runtime)",
            sptrsv_exec::SolverRuntime::global().capacity()
        );
    } else {
        println!("cores:             {plan_cores}");
    }
    println!("supersteps:        {}", plan.schedule().n_supersteps());
    println!(
        "solve wall time:   {:.3} ms (first solve, runtime spin-up included)",
        first_elapsed.as_secs_f64() * 1e3
    );
    if repeat > 1 {
        // Steady state: the plan's worker pool is warm, buffers are
        // allocated — repeated solves must be bit-identical to the first.
        let reference = x.clone();
        let started = std::time::Instant::now();
        for round in 1..repeat {
            plan.solve_into(&b, &mut x, &mut workspace);
            if x != reference {
                return Err(format!("solve {round} of {repeat} diverged bitwise — nondeterminism"));
            }
        }
        let per_solve = started.elapsed().as_secs_f64() / (repeat - 1) as f64;
        println!(
            "steady-state:      {:.3} ms/solve over {} pooled solves (bit-identical)",
            per_solve * 1e3,
            repeat - 1
        );
    }
    println!("relative residual: {residual:.3e}");
    println!("backward error:    {backward:.3e} (componentwise)");
    if backward > BACKWARD_ERROR_TOL {
        return Err("backward error too large — solve failed".into());
    }
    Ok(())
}

fn plan_cmd(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let lower = load_lower(path)?;
    let (algo, cores, plans) = algo_and_cores(args, &lower, 8)?;
    let builder = plan_builder(args, &lower, &algo, cores, plans)?;
    let started = Instant::now();
    let plan = builder.build().map_err(|e| e.to_string())?;
    let built = started.elapsed();
    println!("algorithm:       {algo}");
    println!("execution model: {}", plan.exec_model());
    println!("cores:           {}", plan.compiled().n_cores());
    println!("supersteps:      {}", plan.schedule().n_supersteps());
    println!("fingerprint:     {}", plan.fingerprint());
    println!("plan cache:      {}", plan.cache_outcome());
    println!("build time:      {:.3} ms", built.as_secs_f64() * 1e3);
    // One verifying solve: a plan that cannot solve is not worth saving,
    // and a loaded plan proves here that the revalidated schedule works.
    let b = vec![1.0; lower.n_rows()];
    let x = plan.solve(&b);
    let backward = backward_error(&lower, &x, &b);
    println!("backward error:  {backward:.3e} (one verifying solve)");
    if backward > BACKWARD_ERROR_TOL {
        return Err("backward error too large — refusing a plan that cannot solve".into());
    }
    if let Some(out) = args.get("save") {
        plan.save(out).map_err(|e| e.to_string())?;
        println!("plan saved to {out}");
    }
    Ok(())
}

fn simulate(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let lower = load_lower(path)?;
    let (algo, cores, _) = algo_and_cores(args, &lower, 22)?;
    let profile = match args.get("machine").unwrap_or("intel") {
        "intel" => MachineProfile::intel_xeon_22(),
        "amd" => MachineProfile::amd_epyc_64(),
        "arm" => MachineProfile::kunpeng_920_48(),
        other => return Err(format!("unknown machine `{other}`")),
    };
    // The operand as given: without the §5 reordering, the plan simulates
    // the schedule on the same numbering as the serial baseline.
    let plan = PlanBuilder::new(&lower)
        .scheduler(&algo)
        .cores(cores)
        .reorder(false)
        .build()
        .map_err(|e| e.to_string())?;
    let spec: SchedulerSpec = algo.parse().map_err(|e: registry::RegistryError| e.to_string())?;
    let name = registry::display_name(&spec).map_err(|e| e.to_string())?;
    let (model, policy) = (plan.exec_model(), plan.exec_policy());
    let serial = simulate_serial(&lower, &profile);
    let parallel = plan.simulate(&profile);
    println!("machine:          {}", profile.name);
    println!("algorithm:        {name} (spec: {algo})");
    println!("execution model:  {model}");
    println!(
        "execution policy: sync={} backoff={} fastmath={}",
        policy.sync,
        policy.backoff,
        if policy.fastmath { "on" } else { "off" }
    );
    println!("serial cycles:    {:.3e}", serial.cycles);
    println!("parallel cycles:  {:.3e}", parallel.cycles);
    println!("modeled speed-up: {:.2}x", parallel.speedup_over(&serial));
    println!("sync share:       {:.1}%", 100.0 * parallel.sync_cycles / parallel.cycles);
    println!("cache misses:     {}", parallel.cache_misses);
    Ok(())
}

fn tune(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let algo = args.get("algo").unwrap_or("auto");
    let lower = load_lower(path)?;
    let mut tuner = sptrsv_tune::Tuner::from_spec(&lower, algo)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("`sptrsv tune` needs an auto spec, got `{algo}`"))?;
    if let Some(cores) = positive_flag(args, "cores")? {
        tuner = tuner.cores(cores);
    }
    if let Some(budget) = positive_flag(args, "budget")? {
        tuner = tuner.max_candidates(budget);
    }
    if let Some(dir) = args.get("cache") {
        tuner = tuner.cache_dir(dir);
    }
    let report = tuner.run().map_err(|e| e.to_string())?;
    print!("{}", sptrsv_tune::render_table(&report));
    println!("verdict cache: {}", report.cache.as_str());
    println!("tuning time:   {:.1} ms", report.tuning_seconds * 1e3);
    println!("auto picked: {}", report.winner);
    Ok(())
}

/// An optional positive-integer flag (serving knobs reject zero).
fn positive_flag(args: &Args, name: &str) -> Result<Option<usize>, String> {
    match args.get(name) {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(x) if x > 0 => Ok(Some(x)),
            _ => Err(format!("bad value for --{name}: `{v}` (expected a positive integer)")),
        },
    }
}

/// The `q`-th percentile (0.0 ..= 1.0) of an unsorted latency sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn serve_bench(args: &Args) -> Result<(), String> {
    let path = args.require_positional(0, "matrix file")?;
    let lower = load_lower(path)?;
    let (algo, cores, plans) = algo_and_cores(args, &lower, 8)?;
    let clients: usize = args.get_parse("clients", 4)?;
    let requests: usize = args.get_parse("requests", 32)?;
    if clients == 0 || requests == 0 {
        return Err("serve-bench needs at least one client and one request".into());
    }
    let depth = positive_flag(args, "depth")?;
    let admission = match args.get("admission") {
        None | Some("block") => Admission::Block,
        Some("shed") => Admission::Shed,
        Some(other) => {
            return Err(format!("bad value for --admission: `{other}` (expected block or shed)"))
        }
    };
    let batch = positive_flag(args, "batch")?;
    let batch_wait_us = match args.get("batch-wait-us") {
        None => None,
        Some(us) => Some(us.parse::<u64>().map_err(|_| {
            format!("bad value for --batch-wait-us: `{us}` (expected microseconds)")
        })?),
    };
    let plan =
        plan_builder(args, &lower, &algo, cores, plans)?.build().map_err(|e| e.to_string())?;
    let fastmath = plan.exec_policy().fastmath;
    println!("algorithm:         {algo}");
    println!("execution model:   {}", plan.exec_model());
    if plan.cache_outcome() != CacheOutcome::Uncached {
        println!("plan cache:        {}", plan.cache_outcome());
    }
    let mut serve = ServeBuilder::new(plan).admission(admission);
    if let Some(batch) = batch {
        serve = serve.max_batch(batch);
    }
    if let Some(us) = batch_wait_us {
        serve = serve.batch_wait(Duration::from_micros(us));
    }
    if let Some(depth) = depth {
        serve = serve.queue_depth(depth);
    }
    let server = serve.start();
    println!(
        "serving policy:    batch={} batch_wait={}us depth={} admission={}",
        server.max_batch(),
        server.batch_wait().as_micros(),
        server.queue_depth(),
        match admission {
            Admission::Block => "block",
            Admission::Shed => "shed",
        }
    );
    println!("load:              {clients} closed-loop clients x {requests} requests");
    let n = lower.n_rows();
    let started = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let (server, lower) = (&server, &lower);
                scope.spawn(move || -> Result<Vec<Duration>, String> {
                    let mut samples = Vec::with_capacity(requests);
                    let mut b: Vec<f64> =
                        (0..n).map(|i| ((i * 7 + client * 13) % 23) as f64 - 11.0).collect();
                    for round in 0..requests {
                        let rhs = b.clone();
                        // Bit-identity against a standalone solve holds on
                        // the exact path; fastmath keeps its documented
                        // 1e-12 agreement, checked through the backward error.
                        let expected = (!fastmath).then(|| server.plan().solve(&rhs));
                        let mut pending = b;
                        let handle = loop {
                            match server.submit(pending) {
                                Ok(handle) => break handle,
                                Err(SubmitError::QueueFull { b }) => {
                                    // Shed admission: back off and retry.
                                    pending = b;
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(e) => return Err(e.to_string()),
                            }
                        };
                        let response = handle.wait();
                        if let Some(expected) = expected {
                            if response.x != expected {
                                return Err(format!(
                                    "client {client} round {round}: fused solve diverged \
                                     bitwise from the standalone solve"
                                ));
                            }
                        }
                        let backward = backward_error(lower, &response.x, &rhs);
                        if backward > BACKWARD_ERROR_TOL {
                            return Err(format!(
                                "client {client} round {round}: backward error {backward:.3e}"
                            ));
                        }
                        samples.push(response.timing.total);
                        // Recycle the solved buffer as the next right-hand
                        // side, perturbed so every request differs.
                        b = response.x;
                        for v in &mut b {
                            *v = (*v * 3.0 + round as f64).rem_euclid(23.0) - 11.0;
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("serve-bench clients never panic"))
            .collect::<Result<Vec<_>, String>>()
            .map(|per_client| per_client.into_iter().flatten().collect())
    })?;
    let wall = started.elapsed();
    let stats = server.shutdown();
    latencies.sort_unstable();
    let widths: Vec<String> = stats
        .widths
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(width, count)| format!("{width}x{count}"))
        .collect();
    println!("completed:         {} requests in {} batches", stats.completed, stats.batches);
    println!(
        "mean batch width:  {:.2} (batches by width: {})",
        stats.mean_width(),
        widths.join(" ")
    );
    println!("shed:              {}", stats.shed);
    println!(
        "latency:           p50 {:.3} ms / p99 {:.3} ms (request submit -> result)",
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3
    );
    println!(
        "goodput:           {:.0} solves/s over {:.3} s wall",
        stats.completed as f64 / wall.as_secs_f64(),
        wall.as_secs_f64()
    );
    if stats.completed != clients * requests {
        return Err(format!(
            "served {} of {} requests — the queue leaked work",
            stats.completed,
            clients * requests
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&["frobnicate".to_string()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn generate_rejects_bad_generator_parameters() {
        let out = std::env::temp_dir().join("sptrsv-cli-bad-generate.mtx");
        let out = out.to_str().unwrap();
        std::fs::remove_file(out).ok();
        for (kind, flag, value, expected) in [
            ("er", "n", "0", "--n"),
            ("er", "rate", "-5", "--rate"),
            ("er", "rate", "NaN", "--rate"),
            ("er", "rate", "inf", "--rate"),
            ("nb", "prob", "-0.1", "--prob"),
            ("nb", "prob", "0", "--prob"),
            ("nb", "prob", "1.5", "--prob"),
            ("nb", "prob", "NaN", "--prob"),
            ("nb", "band", "0", "--band"),
            ("nb", "band", "-3", "--band"),
            ("nb", "band", "NaN", "--band"),
            ("nb", "band", "inf", "--band"),
            ("grid2d", "width", "0", "--width"),
            ("grid2d", "height", "0", "--height"),
            ("grid3d", "depth", "0", "--depth"),
        ] {
            let argv: Vec<String> = ["generate", kind, &format!("--{flag}"), value, "-o", out]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = dispatch(&argv).expect_err(&format!("{kind} --{flag} {value} accepted"));
            assert!(err.contains(expected), "{kind} --{flag} {value}: {err}");
        }
        assert!(!std::path::Path::new(out).exists(), "a rejected generate wrote {out}");
        // The boundary values stay accepted: one row, rate 0, prob 1.
        for argv in [
            ["generate", "er", "--n", "1", "--rate", "0", "-o", out],
            ["generate", "nb", "--n", "30", "--prob", "1", "-o", out],
        ] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            dispatch(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        }
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn end_to_end_generate_info_schedule_solve() {
        let dir = std::env::temp_dir().join("sptrsv-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        let sched_file = dir.join("g.sched");
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&[
            "generate",
            "grid2d",
            "--width",
            "12",
            "--height",
            "12",
            "-o",
            mtx.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&sv(&["info", mtx.to_str().unwrap()])).unwrap();
        dispatch(&sv(&["algos"])).unwrap();
        dispatch(&sv(&[
            "schedule",
            mtx.to_str().unwrap(),
            "--cores",
            "4",
            "--algo",
            "growlocal:alpha=8",
            "-o",
            sched_file.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(sched_file.exists());
        // The saved schedule must load back and cover the matrix.
        let s = sptrsv_core::read_schedule_file(&sched_file).unwrap();
        assert_eq!(s.n_vertices(), 144);
        dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--cores", "2"])).unwrap();
        dispatch(&sv(&[
            "solve",
            mtx.to_str().unwrap(),
            "--cores",
            "2",
            "--algo",
            "funnel-gl:cap=auto",
            "--pre-order",
            "rcm",
        ]))
        .unwrap();
        dispatch(&sv(&[
            "simulate",
            mtx.to_str().unwrap(),
            "--machine",
            "arm",
            "--algo",
            "hdagg:balance=1.3",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_execution_model_is_spec_addressable_through_the_cli() {
        let dir = std::env::temp_dir().join("sptrsv-cli-exec-models");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&[
            "generate",
            "grid2d",
            "--width",
            "10",
            "--height",
            "10",
            "-o",
            mtx.to_str().unwrap(),
        ]))
        .unwrap();
        for info in registry::list() {
            for &model in info.exec_models {
                let spec = format!("{}@{model}", info.name);
                dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--cores", "2", "--algo", &spec]))
                    .unwrap_or_else(|e| panic!("solve --algo {spec}: {e}"));
                dispatch(&sv(&[
                    "simulate",
                    mtx.to_str().unwrap(),
                    "--cores",
                    "4",
                    "--algo",
                    &spec,
                ]))
                .unwrap_or_else(|e| panic!("simulate --algo {spec}: {e}"));
            }
        }
        // Scoped keys flow through unchanged.
        dispatch(&sv(&[
            "solve",
            mtx.to_str().unwrap(),
            "--cores",
            "2",
            "--algo",
            "funnel-gl:gl.alpha=8,cap=auto@async",
        ]))
        .unwrap();
        // Execution-policy keys are spec-addressable on any scheduler…
        for spec in ["growlocal:sync=full@async", "spmp:backoff=yield@async"] {
            dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--cores", "2", "--algo", spec]))
                .unwrap_or_else(|e| panic!("solve --algo {spec}: {e}"));
            dispatch(&sv(&["simulate", mtx.to_str().unwrap(), "--cores", "4", "--algo", spec]))
                .unwrap_or_else(|e| panic!("simulate --algo {spec}: {e}"));
        }
        // There is no grant/elastic/shrink policy: the spec keys and the
        // flags are rejected by name, never ignored.
        for key in ["grant", "elastic", "shrink"] {
            let spec = format!("growlocal:{key}=on@barrier");
            let err =
                dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--algo", &spec])).unwrap_err();
            assert!(err.contains(&format!("no parameter `{key}`")), "{spec}: {err}");
            for command in ["solve", "simulate", "serve-bench"] {
                let flag = format!("--{key}");
                let err =
                    dispatch(&sv(&[command, mtx.to_str().unwrap(), &flag, "on"])).unwrap_err();
                assert!(err.contains(&format!("takes no flag --{key}")), "{command} {flag}: {err}");
            }
        }
        // Fastmath is a spec key on every execution model; bad values and
        // a `--fastmath` flag are rejected.
        for spec in [
            "growlocal:fastmath=on@barrier",
            "growlocal:fastmath=on@serial",
            "spmp:fastmath=on@async",
        ] {
            dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--cores", "2", "--algo", spec]))
                .unwrap_or_else(|e| panic!("solve --algo {spec}: {e}"));
        }
        dispatch(&sv(&[
            "simulate",
            mtx.to_str().unwrap(),
            "--cores",
            "4",
            "--algo",
            "growlocal:fastmath=on",
        ]))
        .unwrap();
        for command in ["solve", "simulate", "serve-bench"] {
            let err =
                dispatch(&sv(&[command, mtx.to_str().unwrap(), "--fastmath", "on"])).unwrap_err();
            assert!(err.contains("takes no flag --fastmath"), "{command}: {err}");
        }
        assert!(dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--algo", "growlocal:fastmath=1"]))
            .is_err());
        // …and repeated pooled solves are bit-stable.
        dispatch(&sv(&[
            "solve",
            mtx.to_str().unwrap(),
            "--cores",
            "3",
            "--algo",
            "spmp@async",
            "--repeat",
            "20",
        ]))
        .unwrap();
        assert!(dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--repeat", "0"])).is_err());
        assert!(dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--algo", "spmp:backoff=fast"]))
            .is_err());
        // Unknown models and scopes are rejected with registry errors.
        assert!(
            dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--algo", "growlocal@warp"])).is_err()
        );
        assert!(dispatch(&sv(&["solve", mtx.to_str().unwrap(), "--algo", "growlocal:gl.alpha=8"]))
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_bench_is_spec_and_flag_addressable() {
        let dir = std::env::temp_dir().join("sptrsv-cli-serve-bench");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let mtx = mtx.to_str().unwrap();
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&["generate", "grid2d", "--width", "10", "--height", "10", "-o", mtx]))
            .unwrap();
        // The batch width and linger are server flags.
        dispatch(&sv(&[
            "serve-bench",
            mtx,
            "--cores",
            "2",
            "--batch",
            "4",
            "--batch-wait-us",
            "200",
            "--clients",
            "3",
            "--requests",
            "5",
        ]))
        .unwrap();
        // Flag form, shed admission, a tiny queue and zero linger.
        dispatch(&sv(&[
            "serve-bench",
            mtx,
            "--cores",
            "2",
            "--batch",
            "4",
            "--batch-wait-us",
            "0",
            "--clients",
            "2",
            "--requests",
            "4",
            "--depth",
            "4",
            "--admission",
            "shed",
        ]))
        .unwrap();
        // Serving composes with the rest of the policy surface.
        dispatch(&sv(&[
            "serve-bench",
            mtx,
            "--cores",
            "2",
            "--algo",
            "spmp:fastmath=on@async",
            "--clients",
            "2",
            "--requests",
            "3",
        ]))
        .unwrap();
        // Bad values bounce with errors, not panics.
        for bad in [
            ["--batch", "0"],
            ["--batch", "many"],
            ["--batch-wait-us", "soon"],
            ["--admission", "maybe"],
            ["--depth", "0"],
            ["--clients", "0"],
            ["--requests", "0"],
            ["--algo", "growlocal:batch=4"],
            ["--algo", "growlocal:batch_wait_us=0"],
        ] {
            assert!(
                dispatch(&sv(&["serve-bench", mtx, bad[0], bad[1]])).is_err(),
                "{} {} should be rejected",
                bad[0],
                bad[1]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_cache_and_save_load_flow_through_the_cli() {
        let dir = std::env::temp_dir().join("sptrsv-cli-plan-cache");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let mtx = mtx.to_str().unwrap();
        let cache = dir.join("cache");
        let cache = cache.to_str().unwrap();
        let plan_file = dir.join("m.plan");
        let plan_file = plan_file.to_str().unwrap();
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&["generate", "grid2d", "--width", "12", "--height", "12", "-o", mtx]))
            .unwrap();
        // First cached solve populates the directory, second loads from it.
        dispatch(&sv(&["solve", mtx, "--cores", "2", "--plan-cache", cache])).unwrap();
        assert_eq!(
            std::fs::read_dir(cache).unwrap().count(),
            1,
            "one plan file under the cache directory"
        );
        dispatch(&sv(&["solve", mtx, "--cores", "2", "--plan-cache", cache])).unwrap();
        // The directory is a flag, not a spec key.
        let spec = format!("growlocal:plan_cache={cache}");
        let err = dispatch(&sv(&["solve", mtx, "--cores", "2", "--algo", &spec])).unwrap_err();
        assert!(err.contains("no parameter `plan_cache`"), "{err}");
        assert!(dispatch(&sv(&["solve", mtx, "--algo", "growlocal:plan_cache="])).is_err());
        // plan --save writes an explicit file; --load builds from it, and
        // serve-bench warms from the populated cache directory.
        dispatch(&sv(&["plan", mtx, "--cores", "2", "--save", plan_file])).unwrap();
        assert!(std::path::Path::new(plan_file).exists());
        dispatch(&sv(&["plan", mtx, "--cores", "2", "--load", plan_file])).unwrap();
        dispatch(&sv(&[
            "serve-bench",
            mtx,
            "--cores",
            "2",
            "--plan-cache",
            cache,
            "--clients",
            "2",
            "--requests",
            "3",
        ]))
        .unwrap();
        // Mismatched build flags change the fingerprint: loading the saved
        // plan under different settings errors instead of mis-solving.
        assert!(dispatch(&sv(&["plan", mtx, "--cores", "3", "--load", plan_file])).is_err());
        assert!(dispatch(&sv(&[
            "plan",
            mtx,
            "--cores",
            "2",
            "--coarsen",
            "true",
            "--load",
            plan_file
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_cores_is_an_error_naming_the_flag() {
        let dir = std::env::temp_dir().join("sptrsv-cli-zero-cores");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let mtx = mtx.to_str().unwrap();
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&["generate", "grid2d", "--width", "6", "--height", "6", "-o", mtx])).unwrap();
        for argv in [
            &["solve", mtx][..],
            &["plan", mtx],
            &["schedule", mtx],
            &["simulate", mtx],
            &["serve-bench", mtx],
            &["solve", mtx, "--algo", "auto"],
        ] {
            let mut argv = sv(argv);
            argv.extend(sv(&["--cores", "0"]));
            let err = dispatch(&argv).expect_err(&format!("{argv:?} accepted --cores 0"));
            assert!(err.contains("--cores"), "{argv:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_and_auto_specs_flow_through_the_cli() {
        let dir = std::env::temp_dir().join("sptrsv-cli-tune");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("m.mtx");
        let mtx = mtx.to_str().unwrap();
        let cache = dir.join("verdicts");
        let cache = cache.to_str().unwrap();
        let sv = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        dispatch(&sv(&["generate", "grid2d", "--width", "12", "--height", "12", "-o", mtx]))
            .unwrap();
        // The standalone tuner: default spec, flag form, spec-key form.
        dispatch(&sv(&["tune", mtx, "--cores", "2"])).unwrap();
        dispatch(&sv(&["tune", mtx, "--cores", "2", "--budget", "2"])).unwrap();
        dispatch(&sv(&["tune", mtx, "--algo", "auto:budget=4,cores=2@barrier"])).unwrap();
        // The verdict cache: first run stores, second hits.
        dispatch(&sv(&["tune", mtx, "--cores", "2", "--cache", cache])).unwrap();
        assert_eq!(std::fs::read_dir(cache).unwrap().count(), 1, "one verdict file");
        dispatch(&sv(&["tune", mtx, "--cores", "2", "--cache", cache])).unwrap();
        // auto as an --algo value on every spec-taking command.
        dispatch(&sv(&["solve", mtx, "--cores", "2", "--algo", "auto"])).unwrap();
        dispatch(&sv(&["simulate", mtx, "--cores", "4", "--algo", "auto"])).unwrap();
        dispatch(&sv(&["plan", mtx, "--cores", "2", "--algo", "auto:budget=5"])).unwrap();
        dispatch(&sv(&[
            "serve-bench",
            mtx,
            "--cores",
            "2",
            "--algo",
            "auto",
            "--clients",
            "2",
            "--requests",
            "3",
        ]))
        .unwrap();
        // A non-auto spec on tune and a bad scope key are errors.
        assert!(dispatch(&sv(&["tune", mtx, "--algo", "growlocal"])).is_err());
        assert!(dispatch(&sv(&["tune", mtx, "--algo", "auto:warp=9"])).is_err());
        // The removed timed-refinement knob fails by name, flag and key.
        let err = dispatch(&sv(&["tune", mtx, "--measure", "on"])).unwrap_err();
        assert!(err.contains("--measure"), "{err}");
        let err = dispatch(&sv(&["tune", mtx, "--algo", "auto:measure=on"])).unwrap_err();
        assert!(err.contains("measure"), "{err}");
        assert!(dispatch(&sv(&["solve", mtx, "--algo", "auto:budget=0"])).is_err());
        // A corrupt verdict file is an error, never a silent wrong pick.
        let verdict = std::fs::read_dir(cache).unwrap().next().unwrap().unwrap().path();
        std::fs::write(&verdict, "sptrsv-verdict v1\ngarbage\n").unwrap();
        assert!(dispatch(&sv(&["tune", mtx, "--cores", "2", "--cache", cache])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_registered_scheduler_resolves_through_the_cli_path() {
        // The CLI derives its scheduler set from the registry; this pins the
        // absence of a second hardcoded list (the seed's `scheduler_by_name`
        // and its duplicated `bench` enumeration could silently drift).
        let dag = SolveDag::from_edges(3, &[(0, 1)], vec![1; 3]);
        for info in registry::list() {
            assert!(registry::resolve(info.name, &dag, 2).is_ok(), "{} missing", info.name);
            for example in info.examples {
                assert!(registry::resolve(example, &dag, 2).is_ok(), "{example} broken");
            }
        }
        assert!(registry::resolve("nope", &dag, 2).is_err());
    }
}
