//! The traced run: the same public calls as the untraced run, each inside
//! a span, plus a re-run of the plan pipeline's public stages so plan time
//! can be attributed to layers. Every per-layer metric is derived from the
//! spans (or from counts taken at the same call sites).

use crate::trace::Tracer;
use crate::{build, measure, operand, solve, stats, tune, workload, Config, Report, Tally, SPECS};
use sptrsv_core::registry::{self, SchedulerSpec};
use sptrsv_core::{reorder_for_locality, CompiledSchedule};
use sptrsv_dag::{approximate_transitive_reduction, wavefronts, SolveDag};
use sptrsv_exec::{MachineProfile, SolverRuntime};
use std::sync::Arc;
use std::time::Duration;

/// Repetitions of each runtime micro-operation.
const RUNTIME_REPS: usize = 200;

/// Empty supersteps per `run_supersteps` call.
const BARRIER_STEPS: usize = 500;

pub(crate) fn run(
    cfg: &Config,
    nproc: usize,
    runtime: &Arc<SolverRuntime>,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let inputs = tr.span("sparse.gen", "", 0, |_| cfg.workload.generate(cfg.scale));
    let mut ops: Vec<_> =
        inputs.into_iter().enumerate().map(|(k, i)| operand(cfg.seed, k, i)).collect();
    let n_ops = ops.len() as f64;

    // Plan pipeline, stage by stage, then the real cold build per spec.
    let mut request = 0u64;
    let mut fronts = 0usize;
    let mut barriers = vec![0usize; SPECS.len()];
    let mut work_eff = vec![0.0; SPECS.len()];
    let mut sync_edges = 0usize;
    let mut candidates = 0usize;
    for op in &mut ops {
        request += 1;
        let dag = SolveDag::from_lower_triangular(&op.lower);
        fronts += wavefronts(&dag).fronts.len();
        tr.span("dag.tr", "", request, |_| approximate_transitive_reduction(&dag));
        for spec in SPECS {
            request += 1;
            let id = tr.open("exec.plan", spec, request);
            let concrete = if spec == "auto" {
                let (winner, scored) =
                    tr.span("tune.run", "", request, |_| tune(&op.lower, nproc))?;
                candidates += scored;
                winner
            } else {
                spec.to_string()
            };
            staged_pipeline(&mut tr, &op.lower, spec, &concrete, nproc, request)?;
            tr.close(id);
            let plan = tr
                .span("exec.build", spec, request, |_| build(&op.lower, &concrete, nproc, runtime));
            let plan = match plan {
                Ok(p) => {
                    tally.ok();
                    p
                }
                Err(e) => {
                    tally.fail(e.clone());
                    return Err(e);
                }
            };
            op.plans.push(Arc::new(plan));
        }
        for (j, plan) in op.plans.iter().enumerate() {
            let final_dag = SolveDag::from_lower_triangular(plan.internal_matrix());
            let st = plan.schedule().stats(&final_dag);
            barriers[j] += st.n_barriers;
            work_eff[j] += st.work_efficiency(plan.compiled().n_cores()) / n_ops;
            if SPECS[j] == "spmp" {
                sync_edges += plan.sync_dag().map_or(0, |d| d.n_edges());
            }
        }
        let mut x = vec![0.0; op.reference.n()];
        for plan in &op.plans {
            let mut ws = plan.workspace();
            for _ in 0..3 {
                plan.solve_into(&op.b, &mut x, &mut ws);
            }
        }
    }

    runtime_micro(&mut tr, runtime, nproc);

    // Solves untraced, then solves and serving traced; the ratio of their
    // median round times is the tracing overhead.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let solve_budget = budget.mul_f64(1.0 - workload::SERVE_SHARE);
    let plain = measure(&ops, cfg.seed, solve_budget / 2, 0.0, true, None, tally)?.solves;
    let rest = budget - solve_budget / 2;
    let share = workload::SERVE_SHARE * cfg.seconds / rest.as_secs_f64();
    let measured = measure(&ops, cfg.seed, rest, share, true, Some(&mut tr), tally)?;
    let (traced, served) = (measured.solves, measured.served.expect("serving was on"));

    // sparse
    let gen_ms: f64 = tr.durations_us("sparse.gen", "").iter().sum::<f64>() / 1e3;
    report.push("sparse.gen_ms", gen_ms, "ms");
    let ws_bytes: Vec<f64> = ops.iter().map(|o| o.reference.bytes_per_solve() as f64).collect();
    report.push("sparse.ws_mib", ws_bytes.iter().sum::<f64>() / n_ops / (1 << 20) as f64, "MiB");

    // dag: one DAG build per operand and spec inside the staged pipeline.
    let per_spec = SPECS.len() as f64;
    report.push("dag.build_ms", total_ms(&tr, "dag.build", &SPECS) / per_spec, "ms");
    report.push("dag.tr_ms", total_ms(&tr, "dag.tr", &[""]), "ms");
    report.push("dag.wavefronts", fronts as f64, "count");

    // core
    for spec in SPECS {
        report.push(
            format!("core.schedule_ms.{spec}"),
            total_ms(&tr, "core.schedule", &[spec]),
            "ms",
        );
    }
    report.push("core.reorder_ms", total_ms(&tr, "core.reorder", &SPECS) / per_spec, "ms");
    report.push("core.compile_ms", total_ms(&tr, "core.compile", &SPECS) / per_spec, "ms");
    for (j, spec) in SPECS.iter().enumerate() {
        report.push(format!("core.barriers.{spec}"), barriers[j] as f64, "count");
    }
    for (j, spec) in SPECS.iter().enumerate() {
        report.push(format!("core.work_eff.{spec}"), work_eff[j], "ratio");
    }

    // exec
    for spec in SPECS {
        report.push(format!("exec.plan_ms.{spec}"), total_ms(&tr, "exec.plan", &[spec]), "ms");
    }
    let lane_median = |lane: usize| -> Vec<f64> {
        (0..ops.len()).map(|k| stats::median(&traced.lane_us[k][lane])).collect()
    };
    let checked = 1 + SPECS.len();
    let mut exec_us = Vec::new();
    for (j, spec) in SPECS.iter().enumerate() {
        let executor = lane_median(checked + j);
        let solve_into = lane_median(1 + j);
        let gather: f64 = solve_into.iter().zip(&executor).map(|(a, b)| a - b).sum();
        report.push(format!("exec.executor_us.{spec}"), executor.iter().sum::<f64>(), "us");
        report.push(format!("exec.gather_us.{spec}"), gather, "us");
        exec_us.push(executor);
    }
    let serial_s: f64 = lane_median(solve::SERIAL_LANE).iter().sum::<f64>() * 1e-6;
    report.push("exec.serial_gbps", ws_bytes.iter().sum::<f64>() / serial_s / 1e9, "GB/s");
    report.push("exec.lease_us", stats::median(&tr.durations_us("exec.lease", "")), "us");
    report.push("exec.dispatch_us", stats::median(&tr.durations_us("exec.dispatch", "")), "us");
    let steps_us = stats::median(&tr.durations_us("exec.supersteps", ""));
    report.push("exec.barrier_ns", steps_us * 1e3 / BARRIER_STEPS as f64, "ns");
    report.push("exec.sync_edges.spmp", sync_edges as f64, "count");
    let profile = MachineProfile::intel_xeon_22();
    let mut cycles = Vec::new();
    let mut measured = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        for (j, plan) in op.plans.iter().enumerate() {
            cycles.push(plan.simulate(&profile).cycles);
            measured.push(exec_us[j][k]);
        }
    }
    report.push("exec.sim_spearman", stats::spearman(&cycles, &measured), "rho");

    // tune
    report.push("tune.run_ms", tr.durations_us("tune.run", "").iter().sum::<f64>() / 1e3, "ms");
    report.push("tune.candidates", candidates as f64 / n_ops, "count");
    let auto = SPECS.len() - 1;
    let regret: Vec<f64> = (0..ops.len())
        .map(|k| {
            let t = |j: usize| stats::median(&traced.lane_us[k][1 + j]);
            let best = (0..auto).map(t).fold(f64::INFINITY, f64::min);
            t(auto) / best
        })
        .collect();
    report.push("tune.regret", stats::geomean(&regret), "ratio");

    // serve
    for (i, w) in served.windows.iter().enumerate() {
        let queued: Vec<f64> = w.timing.iter().map(|t| t.queued.as_secs_f64() * 1e6).collect();
        let solve: Vec<f64> = w.timing.iter().map(|t| t.solve.as_secs_f64() * 1e6).collect();
        let handoff: Vec<f64> = w
            .timing
            .iter()
            .zip(&w.latency_us)
            .map(|(t, l)| l - t.total.as_secs_f64() * 1e6)
            .collect();
        let w = i + 1;
        report.push(format!("serve.queued_us.p50.w{w}"), stats::quantile(&queued, 0.5), "us");
        report.push(format!("serve.queued_us.p99.w{w}"), stats::quantile(&queued, 0.99), "us");
        report.push(format!("serve.batch_solve_us.w{w}"), stats::median(&solve), "us");
        report.push(format!("serve.handoff_us.w{w}"), stats::median(&handoff), "us");
        report.push(format!("serve.mean_width.w{w}"), served.windows[i].mean_width, "count");
        report.push(
            format!("serve_p99_xref.w{w}"),
            stats::quantile(&served.windows[i].latency_xref, 0.99),
            "ref_solves",
        );
    }

    // bench
    let ref_us: f64 = plain.ref_us.iter().map(|r| stats::median(r)).sum();
    report.push("bench.ref_us", ref_us, "us");
    report.push(
        "bench.trace_overhead",
        stats::median(&traced.round_us) / stats::median(&plain.round_us),
        "ratio",
    );
    report.push("bench.failed_ops", tally.failed as f64, "count");

    let summary = tr.summary();
    for ((name, label), (count, total, self_ms)) in &summary {
        eprintln!("span {name:<18} {label:<10} n={count:<7} total={total:>10.3} ms self={self_ms:>10.3} ms");
    }
    if let Some(dir) = &cfg.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("trace dir: {e}"))?;
        let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("trace file: {e}"))?;
        report.meta.push(("trace_file".into(), path.display().to_string()));
    }
    Ok(())
}

/// The plan pipeline's public stages for `concrete` (the spec `label`
/// resolved): DAG, scheduler build + schedule, §5 reorder, compile.
fn staged_pipeline(
    tr: &mut Tracer,
    lower: &sptrsv_sparse::CsrMatrix,
    label: &'static str,
    concrete: &str,
    nproc: usize,
    request: u64,
) -> Result<(), String> {
    let dag = tr.span("dag.build", label, request, |_| SolveDag::from_lower_triangular(lower));
    let spec: SchedulerSpec = concrete.parse().map_err(|e| format!("spec {concrete}: {e}"))?;
    let schedule = tr.span("core.schedule", label, request, |_| {
        registry::build(&spec, &dag, nproc).map(|s| s.schedule(&dag, nproc))
    });
    let schedule = schedule.map_err(|e| format!("schedule {concrete}: {e}"))?;
    let reordered =
        tr.span("core.reorder", label, request, |_| reorder_for_locality(lower, &schedule));
    let reordered = reordered.map_err(|e| format!("reorder {concrete}: {e}"))?;
    tr.span("core.compile", label, request, |_| {
        CompiledSchedule::from_schedule(&reordered.schedule)
    });
    Ok(())
}

/// Lease, no-op dispatch and empty supersteps on the private runtime.
fn runtime_micro(tr: &mut Tracer, runtime: &Arc<SolverRuntime>, nproc: usize) {
    let backoff = sptrsv_exec::Backoff::default();
    for r in 0..RUNTIME_REPS as u64 {
        let id = tr.open("exec.lease", "", r);
        let lease = runtime.lease(nproc);
        drop(lease);
        tr.close(id);
        let mut lease = runtime.lease(nproc);
        tr.span("exec.dispatch", "", r, |_| lease.run(backoff, &|_| {}));
        tr.span("exec.supersteps", "", r, |_| {
            lease.run_supersteps(backoff, BARRIER_STEPS, None, &|_, _, _| {})
        });
    }
}

/// Total milliseconds of spans `name` with any of `labels`.
fn total_ms(tr: &Tracer, name: &str, labels: &[&str]) -> f64 {
    labels.iter().map(|l| tr.durations_us(name, l).iter().sum::<f64>()).sum::<f64>() / 1e3
}
