//! The workloads: which matrices each one solves, how they are generated,
//! and the fingerprint that pins them.

use sptrsv_datasets::{load_suite, Scale, SuiteKind};
use sptrsv_sparse::CsrMatrix;

/// The generator seed of every workload's matrices.
///
/// The matrices are fixed per workload; the benchmark's `--seed` draws the
/// right-hand sides. Drawing the matrices from `--seed` as well made the
/// plan cost of one random structure the dominant spread between runs
/// (`plan_xref.hdagg` on `nb-chains`: interquartile range 25 % of the
/// median over five seeds), far above what a plan-time regression needs
/// to show.
pub const MATRIX_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight SuiteSparse stand-ins: cache-resident, wide fronts.
    Stencil,
    /// The six narrow-band matrices: long chains, many wavefronts.
    NbChains,
    /// The six Erdős–Rényi matrices: past L2, random access.
    ErL3,
}

/// A generated operand.
#[derive(Debug, Clone)]
pub struct Input {
    /// Dataset name, e.g. `NB_p5_b20_A`.
    pub name: String,
    /// The lower-triangular operand.
    pub lower: CsrMatrix,
}

/// The operand the serving phase of `nb-chains` uses: the middle `(p, B)`
/// pair of the suite (the other workloads serve their first operand).
pub const SERVE_OPERAND: &str = "NB_p5_b20_A";

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Stencil, Workload::NbChains, Workload::ErL3];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stencil => "stencil",
            Workload::NbChains => "nb-chains",
            Workload::ErL3 => "er-l3",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's operands.
    pub fn generate(self, scale: Scale) -> Vec<Input> {
        let suite = match self {
            Workload::Stencil => SuiteKind::SuiteSparse,
            Workload::NbChains => SuiteKind::NarrowBandwidth,
            Workload::ErL3 => SuiteKind::ErdosRenyi,
        };
        load_suite(suite, scale, MATRIX_SEED)
            .into_iter()
            .map(|d| Input { name: d.name, lower: d.lower })
            .collect()
    }
}

/// Share of the measured seconds spent serving (the rest times solves).
pub const SERVE_SHARE: f64 = 0.4;

/// FNV-1a over the structure and value bits of a matrix.
pub fn fingerprint(m: &CsrMatrix) -> u64 {
    let mut h = Fnv::new();
    h.word(m.n_rows() as u64);
    for &p in m.row_ptr() {
        h.word(p as u64);
    }
    for &c in m.col_idx() {
        h.word(c as u64);
    }
    for &v in m.values() {
        h.word(v.to_bits());
    }
    h.0
}

/// The fingerprint of a whole workload: FNV-1a over its operands' names
/// and fingerprints, in order.
pub fn workload_fingerprint<'a>(inputs: impl IntoIterator<Item = (&'a str, &'a CsrMatrix)>) -> u64 {
    let mut h = Fnv::new();
    for (name, lower) in inputs {
        for &byte in name.as_bytes() {
            h.byte(byte);
        }
        h.word(fingerprint(lower));
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }
}

/// The fingerprint recorded for `workload` at Medium scale in the
/// benchmark's `fingerprints.txt` (lines `name hex`).
pub fn recorded_fingerprint(table: &str, workload: Workload) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next()? == workload.name())
            .then(|| u64::from_str_radix(parts.next()?, 16).ok())
            .flatten()
    })
}
