//! One function per table/figure of the paper's evaluation (§7, App. A–C).
//!
//! Every function returns the rendered report as a `String`; the
//! `experiments` binary prints them, and `EXPERIMENTS.md` records a full run.
//! Suites are cached per `(kind, scale, seed)` so a full `all()` run builds
//! each data set once.

use crate::harness::{evaluate, evaluate_timed, EvalOutcome, Pipeline};
use crate::report::{f2, Table};
use crate::statistics::{geometric_mean, quartiles, PerformanceProfile};
use sptrsv_core::{block::induced_block_dag, BlockParallel, GrowLocal, Scheduler};
use sptrsv_dag::SolveDag;
use sptrsv_datasets::{load_suite, Dataset, Scale, SuiteKind};
use sptrsv_exec::MachineProfile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Data-set scale (DESIGN.md, substitution 4).
    pub scale: Scale,
    /// RNG seed for data-set generation.
    pub seed: u64,
    /// Core count for the main experiments (paper: 22).
    pub n_cores: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: Scale::Medium, seed: 42, n_cores: 22 }
    }
}

/// The paper's named pipelines as registry spec strings — the migration
/// target of the old hard-coded `Algo` enum (see the README's migration
/// table). Labels match the paper's tables; everything resolves through
/// `sptrsv_core::registry`, execution models included (`spmp` defaults to
/// `@async` in the registry, so no variant list lives here).
fn growlocal() -> Pipeline {
    Pipeline::new("growlocal").reordered().labeled("GrowLocal")
}

fn growlocal_no_reorder() -> Pipeline {
    Pipeline::new("growlocal").labeled("GL(no reorder)")
}

fn growlocal_id_only() -> Pipeline {
    Pipeline::new("growlocal:priority=id-only").labeled("GL(id-only)")
}

fn growlocal_async() -> Pipeline {
    Pipeline::new("growlocal@async").labeled("GrowLocal(async)")
}

fn funnel_gl() -> Pipeline {
    Pipeline::new("funnel-gl:cap=auto").reordered().labeled("Funnel+GL")
}

fn spmp() -> Pipeline {
    Pipeline::new("spmp").labeled("SpMP")
}

fn hdagg() -> Pipeline {
    Pipeline::new("hdagg").labeled("HDagg")
}

fn bspg() -> Pipeline {
    Pipeline::new("bspg").labeled("BSPg")
}

fn block_gl(blocks: usize) -> Pipeline {
    Pipeline::new(format!("block-gl:blocks={blocks}"))
        .reordered()
        .labeled(format!("GrowLocal({blocks} blocks)"))
}

/// How often each printed wall-clock scheduling time (Tables 7.6 and 7.7,
/// Figure B.1) is measured; the cell reports the median, so one slow timing
/// of a sub-millisecond schedule does not set it.
const TIMING_REPEATS: usize = 5;

/// Suite cache storage, keyed by `(kind, scale-tag, seed)`.
type SuiteCache = Mutex<HashMap<(SuiteKind, u8, u64), Arc<Vec<Dataset>>>>;

/// Suite cache keyed by `(kind, scale-tag, seed)`.
fn suite_cached(kind: SuiteKind, cfg: &Config) -> Arc<Vec<Dataset>> {
    static CACHE: OnceLock<SuiteCache> = OnceLock::new();
    let scale_tag = match cfg.scale {
        Scale::Test => 0u8,
        Scale::Medium => 1,
        Scale::Full => 2,
    };
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("suite cache poisoned");
    guard
        .entry((kind, scale_tag, cfg.seed))
        .or_insert_with(|| Arc::new(load_suite(kind, cfg.scale, cfg.seed)))
        .clone()
}

fn eval_suite(
    suite: &[Dataset],
    pipeline: &Pipeline,
    profile: &MachineProfile,
    n_cores: usize,
) -> Vec<EvalOutcome> {
    suite.iter().map(|ds| evaluate(ds, pipeline, profile, n_cores)).collect()
}

/// Figure 1.2: geometric mean and interquartile range of speed-ups over
/// serial on the SuiteSparse suite (Intel profile, 22 cores).
pub fn fig1_2(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let mut table = Table::new(vec!["Algorithm", "Geo-mean", "Q25", "Median", "Q75"]);
    for algo in [growlocal(), spmp(), hdagg()] {
        let speedups: Vec<f64> =
            eval_suite(&suite, &algo, &profile, cfg.n_cores).iter().map(|o| o.speedup).collect();
        let (q1, q2, q3) = quartiles(&speedups);
        table.row(vec![
            algo.label().to_string(),
            f2(geometric_mean(&speedups)),
            f2(q1),
            f2(q2),
            f2(q3),
        ]);
    }
    format!(
        "## Figure 1.2 — speed-up over serial, SuiteSparse suite, {} cores ({})\n\n{}",
        cfg.n_cores,
        profile.name,
        table.render()
    )
}

/// Table 7.1: geometric-mean speed-ups over serial for all five suites.
pub fn table7_1(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let algos = [growlocal(), funnel_gl(), spmp(), hdagg()];
    let mut table = Table::new(vec!["Data set", "GrowLocal", "Funnel+GL", "SpMP", "HDagg"]);
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let mut cells = vec![kind.label().to_string()];
        for algo in &algos {
            let speedups: Vec<f64> =
                eval_suite(&suite, algo, &profile, cfg.n_cores).iter().map(|o| o.speedup).collect();
            cells.push(f2(geometric_mean(&speedups)));
        }
        table.row(cells);
    }
    format!(
        "## Table 7.1 — geo-mean speed-up over serial, {} cores ({})\n\n{}",
        cfg.n_cores,
        profile.name,
        table.render()
    )
}

/// Figure 7.1: Dolan–Moré performance profile on the SuiteSparse suite.
pub fn fig7_1(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let algos = [growlocal(), funnel_gl(), spmp(), hdagg()];
    let costs: Vec<Vec<f64>> = algos
        .iter()
        .map(|algo| {
            eval_suite(&suite, algo, &profile, cfg.n_cores)
                .iter()
                .map(|o| o.parallel_cycles)
                .collect()
        })
        .collect();
    let taus: Vec<f64> = (0..=16).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prof = PerformanceProfile::from_costs(
        algos.iter().map(|a| a.label().to_string()).collect(),
        &costs,
        taus.clone(),
    );
    let mut header = vec!["tau".to_string()];
    header.extend(prof.algorithms.iter().cloned());
    let mut table = Table::new(header);
    for (t, &tau) in taus.iter().enumerate() {
        let mut cells = vec![f2(tau)];
        for a in 0..algos.len() {
            cells.push(f2(prof.fractions[a][t]));
        }
        table.row(cells);
    }
    let mut auc = String::new();
    for (a, algo) in prof.algorithms.iter().enumerate() {
        auc.push_str(&format!("AUC {algo}: {}\n", f2(prof.auc(a))));
    }
    format!(
        "## Figure 7.1 — performance profile, SuiteSparse suite ({})\n\n{}\n{}",
        profile.name,
        table.render(),
        auc
    )
}

/// Table 7.2: geo-mean reduction of synchronization barriers relative to the
/// number of wavefronts.
pub fn table7_2(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let algos = [growlocal(), funnel_gl(), hdagg()];
    let mut table = Table::new(vec!["Data set", "GrowLocal", "Funnel+GL", "HDagg"]);
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let mut cells = vec![kind.label().to_string()];
        for algo in &algos {
            let reductions: Vec<f64> = eval_suite(&suite, algo, &profile, cfg.n_cores)
                .iter()
                .map(|o| o.n_wavefronts as f64 / o.n_supersteps as f64)
                .collect();
            cells.push(f2(geometric_mean(&reductions)));
        }
        table.row(cells);
    }
    format!(
        "## Table 7.2 — geo-mean reduction of barriers vs wavefront count\n\n{}",
        table.render()
    )
}

/// Table 7.3: impact of the §5 reordering on GrowLocal.
pub fn table7_3(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let mut table = Table::new(vec!["Data set", "Reordering", "No Reordering"]);
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let with: Vec<f64> = eval_suite(&suite, &growlocal(), &profile, cfg.n_cores)
            .iter()
            .map(|o| o.speedup)
            .collect();
        let without: Vec<f64> = eval_suite(&suite, &growlocal_no_reorder(), &profile, cfg.n_cores)
            .iter()
            .map(|o| o.speedup)
            .collect();
        table.row(vec![
            kind.label().to_string(),
            f2(geometric_mean(&with)),
            f2(geometric_mean(&without)),
        ]);
    }
    format!(
        "## Table 7.3 — impact of reordering on GrowLocal ({} cores)\n\n{}",
        cfg.n_cores,
        table.render()
    )
}

/// Table 7.4: the three machine profiles, SuiteSparse suite, 22 cores.
pub fn table7_4(cfg: &Config) -> String {
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let mut table = Table::new(vec!["Machine", "GrowLocal", "SpMP", "HDagg"]);
    for profile in MachineProfile::all() {
        let mut cells = vec![profile.name.to_string()];
        for algo in [growlocal(), spmp(), hdagg()] {
            let speedups: Vec<f64> = eval_suite(&suite, &algo, &profile, cfg.n_cores)
                .iter()
                .map(|o| o.speedup)
                .collect();
            cells.push(f2(geometric_mean(&speedups)));
        }
        table.row(cells);
    }
    format!(
        "## Table 7.4 — geo-mean speed-up across architectures, {} cores\n\n{}\n\
         (The paper reports n/a for SpMP on ARM — its implementation is x86-\n\
         specific; our portable model runs it everywhere.)\n",
        cfg.n_cores,
        table.render()
    )
}

/// Table 7.5: GrowLocal scaling with the core count (AMD profile).
pub fn table7_5(cfg: &Config) -> String {
    let profile = MachineProfile::amd_epyc_64();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let cores = [4usize, 16, 32, 48, 56, 64];
    let mut table = Table::new(vec!["Cores", "GrowLocal"]);
    for &k in &cores {
        let speedups: Vec<f64> =
            eval_suite(&suite, &growlocal(), &profile, k).iter().map(|o| o.speedup).collect();
        table.row(vec![k.to_string(), f2(geometric_mean(&speedups))]);
    }
    format!("## Table 7.5 — GrowLocal core scaling ({})\n\n{}", profile.name, table.render())
}

/// Figure 7.2: core scaling grouped by average wavefront size.
pub fn fig7_2(cfg: &Config) -> String {
    let profile = MachineProfile::amd_epyc_64();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    // The paper buckets at 44–127 / 128–1200 / >50000; our scaled data set
    // uses the same style of low/mid/high split on its own range.
    type Bucket = Box<dyn Fn(f64) -> bool>;
    let buckets: [(&str, Bucket); 3] = [
        ("wf < 128", Box::new(|wf| wf < 128.0)),
        ("128..1200", Box::new(|wf| (128.0..1200.0).contains(&wf))),
        ("wf >= 1200", Box::new(|wf| wf >= 1200.0)),
    ];
    let cores = [4usize, 8, 16, 32, 48, 64];
    let mut header = vec!["Avg. wavefront".to_string()];
    header.extend(cores.iter().map(|k| k.to_string()));
    let mut table = Table::new(header);
    for (label, pred) in &buckets {
        let members: Vec<&Dataset> = suite.iter().filter(|d| pred(d.stats.avg_wavefront)).collect();
        let mut cells = vec![label.to_string()];
        if members.is_empty() {
            cells.extend(std::iter::repeat_n("n/a".to_string(), cores.len()));
        } else {
            for &k in &cores {
                let speedups: Vec<f64> = members
                    .iter()
                    .map(|ds| evaluate(ds, &growlocal(), &profile, k).speedup)
                    .collect();
                cells.push(f2(geometric_mean(&speedups)));
            }
        }
        table.row(cells);
    }
    format!(
        "## Figure 7.2 — GrowLocal core scaling by avg. wavefront size ({})\n\n{}",
        profile.name,
        table.render()
    )
}

/// Table 7.6: amortization thresholds (Eq. (7.1)) on the SuiteSparse suite.
pub fn table7_6(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let mut table = Table::new(vec!["Algorithm", "Q25", "Median", "Q75"]);
    for algo in [growlocal(), funnel_gl(), spmp(), hdagg()] {
        let thresholds: Vec<f64> = suite
            .iter()
            .map(|ds| {
                evaluate_timed(ds, &algo, &profile, cfg.n_cores, TIMING_REPEATS)
                    .amortization_threshold()
            })
            .collect();
        let (q1, q2, q3) = quartiles(&thresholds);
        table.row(vec![algo.label().to_string(), f2(q1), f2(q2), f2(q3)]);
    }
    format!(
        "## Table 7.6 — amortization threshold (solves needed to pay for scheduling)\n\n{}",
        table.render()
    )
}

/// Wall-clock seconds of block-parallel GrowLocal scheduling with
/// `n_blocks` scheduling threads: every block's `GrowLocal::schedule` on its
/// induced sub-DAG is timed `repeats` times, and the slowest block's median
/// is what `n_blocks` threads would take.
fn block_schedule_seconds(dag: &SolveDag, n_blocks: usize, n_cores: usize, repeats: usize) -> f64 {
    let mut slowest = 0.0f64;
    for range in BlockParallel::new(n_blocks).block_ranges(dag) {
        let sub = induced_block_dag(dag, &range);
        let seconds: Vec<f64> = (0..repeats.max(1))
            .map(|_| {
                let t0 = Instant::now();
                let _ = GrowLocal::new().schedule(&sub, n_cores);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        slowest = slowest.max(quartiles(&seconds).1);
    }
    slowest.max(1e-9)
}

/// Table 7.7: block-parallel scheduling trade-offs.
///
/// Scheduling-time speed-up is modeled as `one block / max-block` of
/// measured per-block wall times (the machines this runs on have fewer
/// cores than the table has threads; the per-block maximum is what `t`
/// scheduling threads would achieve). The 1-thread row's block is the whole
/// DAG timed by the same code, so that row reads 1.00 by construction.
pub fn table7_7(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let thread_counts = [1usize, 2, 4, 6, 8, 16, 22];
    let mut table = Table::new(vec![
        "Threads",
        "Sched. time speed-up",
        "Rel. solve perf",
        "Rel. supersteps",
        "Amort. threshold (median)",
    ]);
    // `per_dataset[d][i]`: the scheduling seconds and evaluation of dataset
    // `d` at `thread_counts[i]` blocks; index 0 (one block) is the baseline.
    let per_dataset: Vec<Vec<(f64, EvalOutcome)>> = suite
        .iter()
        .map(|ds| {
            let dag = ds.dag();
            thread_counts
                .iter()
                .map(|&t| {
                    let seconds = block_schedule_seconds(&dag, t, cfg.n_cores, TIMING_REPEATS);
                    (seconds, evaluate(ds, &block_gl(t), &profile, cfg.n_cores))
                })
                .collect()
        })
        .collect();
    for (i, &t) in thread_counts.iter().enumerate() {
        let mut sched_speedups = Vec::new();
        let mut rel_perf = Vec::new();
        let mut rel_steps = Vec::new();
        let mut amortizations = Vec::new();
        for runs in &per_dataset {
            let (base_seconds, base) = &runs[0];
            let (seconds, out) = &runs[i];
            sched_speedups.push(base_seconds / seconds);
            rel_perf.push(out.speedup / base.speedup);
            rel_steps.push(out.n_supersteps as f64 / base.n_supersteps as f64);
            let gain = out.serial_cycles - out.parallel_cycles;
            amortizations.push(if gain > 0.0 {
                seconds * crate::harness::CALIBRATION_HZ / gain
            } else {
                f64::INFINITY
            });
        }
        let (_, median_amort, _) = quartiles(&amortizations);
        table.row(vec![
            t.to_string(),
            f2(geometric_mean(&sched_speedups)),
            f2(geometric_mean(&rel_perf)),
            f2(geometric_mean(&rel_steps)),
            f2(median_amort),
        ]);
    }
    format!(
        "## Table 7.7 — block-parallel scheduling (SuiteSparse suite, {} cores)\n\n{}",
        cfg.n_cores,
        table.render()
    )
}

/// Figure B.1: scheduling wall time versus non-zero count (complexity check).
pub fn fig_b1(cfg: &Config) -> String {
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let mut table = Table::new(vec!["Matrix", "nnz", "GrowLocal [ms]", "Funnel+GL [ms]"]);
    let mut points_gl: Vec<(f64, f64)> = Vec::new();
    let mut points_fgl: Vec<(f64, f64)> = Vec::new();
    let profile = MachineProfile::intel_xeon_22();
    for ds in suite.iter() {
        let gl = evaluate_timed(ds, &growlocal_no_reorder(), &profile, cfg.n_cores, TIMING_REPEATS);
        let fgl = evaluate_timed(ds, &funnel_gl(), &profile, cfg.n_cores, TIMING_REPEATS);
        points_gl.push((ds.stats.nnz as f64, gl.sched_seconds.max(1e-9)));
        points_fgl.push((ds.stats.nnz as f64, fgl.sched_seconds.max(1e-9)));
        table.row(vec![
            ds.name.clone(),
            ds.stats.nnz.to_string(),
            f2(gl.sched_seconds * 1e3),
            f2(fgl.sched_seconds * 1e3),
        ]);
    }
    let slope = |pts: &[(f64, f64)]| -> f64 {
        let n = pts.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(x, y) in pts {
            let (lx, ly) = (x.ln(), y.ln());
            sx += lx;
            sy += ly;
            sxx += lx * lx;
            sxy += lx * ly;
        }
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    };
    format!(
        "## Figure B.1 — scheduling time vs nnz (log-log slope ≈ 1 means linear)\n\n{}\n\
         log-log slope GrowLocal: {}\nlog-log slope Funnel+GL: {}\n",
        table.render(),
        f2(slope(&points_gl)),
        f2(slope(&points_fgl))
    )
}

/// Appendix C.1: GrowLocal versus the BSPg barrier list scheduler.
pub fn app_c1(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let suite = suite_cached(SuiteKind::SuiteSparse, cfg);
    let gl: Vec<f64> =
        eval_suite(&suite, &growlocal(), &profile, cfg.n_cores).iter().map(|o| o.speedup).collect();
    let bspg: Vec<f64> =
        eval_suite(&suite, &bspg(), &profile, cfg.n_cores).iter().map(|o| o.speedup).collect();
    let ratio = geometric_mean(&gl) / geometric_mean(&bspg);
    format!(
        "## Appendix C.1 — GrowLocal vs BSPg (SuiteSparse suite)\n\n\
         geo-mean speed-up GrowLocal: {}\ngeo-mean speed-up BSPg: {}\n\
         GrowLocal / BSPg: {}x\n",
        f2(geometric_mean(&gl)),
        f2(geometric_mean(&bspg)),
        f2(ratio)
    )
}

/// Appendix A: per-matrix statistics of every suite (Tables A.1–A.5).
pub fn appendix_a(cfg: &Config) -> String {
    let mut out = String::new();
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let mut table = Table::new(vec!["Matrix", "Size", "#Non-zeros", "Avg. wf", "Sources"]);
        for ds in suite.iter() {
            table.row(vec![
                ds.name.clone(),
                ds.stats.n.to_string(),
                ds.stats.nnz.to_string(),
                (ds.stats.avg_wavefront.floor() as u64).to_string(),
                ds.stats.n_sources.to_string(),
            ]);
        }
        out.push_str(&format!("## Appendix A — {} suite\n\n{}\n", kind.label(), table.render()));
    }
    out
}

/// Extensions beyond the paper's tables: the §8 future-work direction
/// (semi-asynchronous GrowLocal execution) and the Rule I selection ablation.
pub fn extensions(cfg: &Config) -> String {
    let profile = MachineProfile::intel_xeon_22();
    let mut async_table =
        Table::new(vec!["Data set", "GrowLocal (barrier)", "GrowLocal (async)", "SpMP"]);
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let mut cells = vec![kind.label().to_string()];
        for algo in [growlocal_no_reorder(), growlocal_async(), spmp()] {
            let speedups: Vec<f64> = eval_suite(&suite, &algo, &profile, cfg.n_cores)
                .iter()
                .map(|o| o.speedup)
                .collect();
            cells.push(f2(geometric_mean(&speedups)));
        }
        async_table.row(cells);
    }
    let mut rule1_table = Table::new(vec!["Data set", "Rule I (excl+ID)", "ID only"]);
    for kind in SuiteKind::all() {
        let suite = suite_cached(kind, cfg);
        let rule1: Vec<f64> = eval_suite(&suite, &growlocal_no_reorder(), &profile, cfg.n_cores)
            .iter()
            .map(|o| o.n_supersteps as f64)
            .collect();
        let id_only: Vec<f64> = eval_suite(&suite, &growlocal_id_only(), &profile, cfg.n_cores)
            .iter()
            .map(|o| o.n_supersteps as f64)
            .collect();
        rule1_table.row(vec![
            kind.label().to_string(),
            f2(geometric_mean(&rule1)),
            f2(geometric_mean(&id_only)),
        ]);
    }
    format!(
        "## Extension 1 — semi-asynchronous GrowLocal (§8 future work)\n\n\
         Geo-mean speed-up when the GrowLocal schedule is executed with\n\
         point-to-point synchronization (reduced-DAG waits) instead of\n\
         barriers; reordering disabled in all three columns for a fair\n\
         execution-model comparison.\n\n{}\n\
         \n## Extension 2 — Rule I ablation (geo-mean superstep counts)\n\n\
         Core-exclusivity priority vs plain smallest-ID selection: the\n\
         exclusivity rule is what lets a superstep keep growing past the\n\
         ready frontier (§3).\n\n{}",
        async_table.render(),
        rule1_table.render()
    )
}

/// The full evaluation, in paper order.
pub fn all(cfg: &Config) -> String {
    let sections = [
        fig1_2(cfg),
        table7_1(cfg),
        fig7_1(cfg),
        table7_2(cfg),
        table7_3(cfg),
        table7_4(cfg),
        table7_5(cfg),
        fig7_2(cfg),
        table7_6(cfg),
        table7_7(cfg),
        fig_b1(cfg),
        app_c1(cfg),
        extensions(cfg),
        appendix_a(cfg),
    ];
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> Config {
        Config { scale: Scale::Test, seed: 7, n_cores: 8 }
    }

    #[test]
    fn fig1_2_renders() {
        let s = fig1_2(&test_cfg());
        assert!(s.contains("GrowLocal"));
        assert!(s.contains("Geo-mean"));
    }

    #[test]
    fn table7_2_reduction_is_at_least_one() {
        // Every scheduler's superstep count is at most the wavefront count,
        // so the reported reductions must be >= 1 for GrowLocal.
        let s = table7_2(&test_cfg());
        assert!(s.contains("GrowLocal"));
    }

    #[test]
    fn table7_7_one_thread_row_is_the_baseline() {
        // The 1-thread scheduling speed-up divides the one-block time by
        // itself, whatever the timer reads.
        let s = table7_7(&test_cfg());
        let row = s
            .lines()
            .find(|l| l.split_whitespace().next() == Some("1"))
            .expect("Table 7.7 has a 1-thread row");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(&cells[1..4], ["1.00", "1.00", "1.00"], "{row}");
    }

    #[test]
    fn appendix_a_lists_all_suites() {
        let s = appendix_a(&test_cfg());
        for kind in SuiteKind::all() {
            assert!(s.contains(kind.label()), "missing {}", kind.label());
        }
    }
}
