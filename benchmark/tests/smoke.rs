//! End-to-end smoke test of every workload at test scale, and the pin that
//! the frozen reference computes the program's answer.

use drift_bench::reference::RefCsr;
use drift_bench::workload::Workload;
use drift_bench::{run, Config, Report};
use sptrsv_datasets::{load_suite, Scale, SuiteKind};
use sptrsv_exec::solve_lower_serial;

/// `(name, better)` of every metric listed in `BENCHMARK.json` under
/// `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
        entry[at..].trim_start().trim_start_matches('"').split('"').next().unwrap().to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "better"))).collect()
}

fn assert_reports(report: &Report, listed: &[(String, String)]) {
    assert!(report.correct, "{:?}", report.meta);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "metrics differ from BENCHMARK.json");
    for (m, (_, better)) in report.metrics.iter().zip(listed) {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert_eq!(Report::higher_is_better(&m.name), better == "higher", "{}", m.name);
    }
}

#[test]
fn every_workload_runs_end_to_end_at_test_scale() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 14);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                scale: Scale::Test,
                trace_dir: None,
            };
            let report = run(&cfg);
            assert_reports(&report, if trace { &per_layer } else { &end_to_end });
            assert!(report.to_json().starts_with("{\"correct\": true"));
        }
    }
}

#[test]
fn reference_is_bit_identical_to_the_serial_kernel() {
    for kind in SuiteKind::all() {
        for ds in load_suite(kind, Scale::Test, 5) {
            let n = ds.lower.n_rows();
            let b: Vec<f64> = (0..n).map(|i| 0.5 + (i * 7919 % 1000) as f64 / 1000.0).collect();
            let (mut ours, mut theirs) = (vec![0.0; n], vec![0.0; n]);
            RefCsr::copy_of(&ds.lower).solve(&b, &mut ours);
            solve_lower_serial(&ds.lower, &b, &mut theirs);
            let same = ours.iter().zip(&theirs).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} differs from solve_lower_serial", ds.name);
        }
    }
}

#[test]
fn wrong_solutions_are_caught() {
    let ds = &load_suite(SuiteKind::NarrowBandwidth, Scale::Test, 5)[0];
    let l = RefCsr::copy_of(&ds.lower);
    let b = vec![1.0; l.n()];
    let mut x = vec![0.0; l.n()];
    l.solve(&b, &mut x);
    assert!(l.backward_error(&x, &b) <= drift_bench::BACKWARD_TOL);
    let mut wrong = x.clone();
    wrong[l.n() / 2] *= 1.0 + 1e-6;
    assert!(l.backward_error(&wrong, &b) > drift_bench::BACKWARD_TOL);
    assert!(drift_bench::reference::relative_deviation(&wrong, &x) > 0.0);
}
