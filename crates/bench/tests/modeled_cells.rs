//! Golden over the paper tables whose every cell is modeled.
//!
//! `experiments all --scale test` prints the §7 tables and Appendices A and
//! C.1 from simulated cycles, which are deterministic. This test renders
//! every `experiments` function without a wall-clock cell (all but Tables
//! 7.6 and 7.7 and Figure B.1) at that configuration and compares the text
//! with `tests/golden/modeled_cells.txt`. A scheduler, reorder or simulator
//! change that moves a paper table fails here with the diff; the full
//! actual output is written to `target/modeled_cells.actual.txt`, which
//! replaces the golden file once the move is understood.

use sptrsv_bench::experiments::{self, Config};
use sptrsv_datasets::Scale;
use std::path::PathBuf;

const GOLDEN: &str = include_str!("golden/modeled_cells.txt");

/// One `experiments` report function.
type Section = fn(&Config) -> String;

/// The modeled sections, in paper order, at `--scale test` defaults.
fn render() -> String {
    let cfg = Config { scale: Scale::Test, ..Config::default() };
    let sections: [(&str, Section); 11] = [
        ("fig1-2", experiments::fig1_2),
        ("table7-1", experiments::table7_1),
        ("fig7-1", experiments::fig7_1),
        ("table7-2", experiments::table7_2),
        ("table7-3", experiments::table7_3),
        ("table7-4", experiments::table7_4),
        ("table7-5", experiments::table7_5),
        ("fig7-2", experiments::fig7_2),
        ("appc-1", experiments::app_c1),
        ("extensions", experiments::extensions),
        ("appendix-a", experiments::appendix_a),
    ];
    sections.iter().map(|(name, section)| format!("<<< {name}\n{}\n", section(&cfg))).collect()
}

/// Line-by-line differences, numbered from 1, `-` golden and `+` actual.
fn diff(golden: &str, actual: &str) -> String {
    let (g, a): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    for i in 0..g.len().max(a.len()) {
        let (gl, al) = (g.get(i), a.get(i));
        if gl != al {
            if let Some(l) = gl {
                out.push_str(&format!("{:>5} - {l}\n", i + 1));
            }
            if let Some(l) = al {
                out.push_str(&format!("{:>5} + {l}\n", i + 1));
            }
        }
    }
    out
}

#[test]
fn modeled_paper_cells_match_the_golden() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    std::fs::create_dir_all(&target).ok();
    let path = target.join("modeled_cells.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual output");
    panic!(
        "modeled paper cells moved (actual output written to {}):\n{}",
        path.display(),
        diff(GOLDEN, &actual)
    );
}
