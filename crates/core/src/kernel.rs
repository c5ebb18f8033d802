//! Kernel planning: supernode/dense-block detection over a compiled
//! schedule (the raw-speed layer beneath the executors).
//!
//! A [`crate::CompiledSchedule`] tells each core *which* rows to process
//! per superstep; this module decides *how* to process them. The detection
//! pass scans every cell's row run for supernodes — maximal runs of
//! consecutive row IDs whose column patterns are identical, nested or
//! near-nested (the structure the narrow-band/grid generators and the §5
//! locality reordering produce in abundance) — and emits a per-cell
//! [`KernelOp`] sequence:
//!
//! * [`KernelOp::Dense`] — the run is executed as one packed column-major
//!   dense triangular solve ([`DenseBlock`]): the union of the rows'
//!   off-block columns is gathered once per column instead of once per
//!   entry, the in-block dependencies are a register-blocked `r × r`
//!   forward substitution, and per-row loop overhead is paid once per
//!   block;
//! * [`KernelOp::Unrolled`] — rows too irregular to block but long enough
//!   to profit from a multi-accumulator (4/8 lane) sparse dot product;
//! * [`KernelOp::Scalar`] — everything else: the plain gather loop with a
//!   precomputed reciprocal of the diagonal.
//!
//! All three fastmath kernels multiply by the precomputed diagonal
//! reciprocal ([`KernelPlan::inv_diag`]) instead of dividing, and the
//! unrolled/blocked kernels re-associate the accumulation — which is why
//! the plan only executes under the `fastmath=on` execution policy
//! (results agree with the scalar reference to a documented `1e-12`
//! relative tolerance instead of bit-identically; see the
//! `sptrsv-exec` kernels module).
//!
//! Block acceptance is cost-guarded for *near-lossless* packing: a
//! candidate row joins a block only while the padded dense work
//! (`|union| · r + r(r−1)/2` multiply-adds) stays within 1.25× the rows'
//! actual off-diagonal work, and a block is only emitted when its rows
//! average at least one real off-diagonal entry each. Measured on scalar
//! hardware, anything looser loses: a tridiagonal run of `r` rows packs
//! `r(r−1)/2` dense multiply-adds against `r−1` real ones, so chained
//! bundles and banded runs must stay scalar — only genuine supernodes
//! (dense in-block triangles with a shared off-block column set, the §5
//! reordering's product on factor-like operands) pay for packing. The
//! round-trip property (every row covered exactly once, packed panels
//! matching the CSR entries exactly) is pinned by the `kernels`
//! integration test.

use crate::compiled::CompiledSchedule;
use sptrsv_sparse::CsrMatrix;

/// Rows per dense block cap (also the fastmath executors' stack-buffer
/// size, so blocks never spill to the heap at solve time).
pub const MAX_DENSE_BLOCK: usize = 32;

/// Minimum rows for a run to be emitted as a dense block.
const MIN_DENSE_BLOCK: usize = 3;

/// Off-diagonal length at which a row switches from the scalar to the
/// 4-lane unrolled kernel. Calibrated against the `kernels` benchmark:
/// below this the lane setup and tree reduction cost more than the
/// independent accumulation chains buy (a 27-point stencil row, 13
/// off-diagonals, still favours the scalar kernel). The chains mainly buy
/// memory-level parallelism — more outstanding `x` gathers — so the
/// payoff grows with operands whose solution vector spills the near
/// caches; on cache-resident operands the unrolled kernel measures at
/// parity with the scalar one.
const UNROLL_4_MIN: usize = 24;

/// Off-diagonal length at which the unrolled kernel widens to 8 lanes.
const UNROLL_8_MIN: usize = 48;

/// One planned execution step of a cell. `start`/`len` index into the
/// cell's row slice (`CompiledSchedule::cell`), so an op sequence tiles its
/// cell exactly; a `Dense` op consumes the `rows` consecutive positions of
/// its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// Plain per-row gather loop (reciprocal diagonal) over
    /// `cell[start..start + len]`.
    Scalar {
        /// First cell position of the run.
        start: u32,
        /// Number of rows in the run.
        len: u32,
    },
    /// Lane-unrolled sparse dot product (multi-accumulator) over
    /// `cell[start..start + len]`.
    Unrolled {
        /// First cell position of the run.
        start: u32,
        /// Number of rows in the run.
        len: u32,
        /// Accumulator lanes (4 or 8).
        lanes: u8,
    },
    /// One packed dense triangular block ([`KernelPlan::blocks`]`[block]`),
    /// covering the block's `rows` consecutive cell positions.
    Dense {
        /// Index into [`KernelPlan::blocks`].
        block: u32,
    },
}

/// One op of a serialized kernel verdict (the flat, cell-order stream the
/// v3 plan format stores so disk loads replay detection instead of
/// re-running it). `Scalar`/`Unrolled` keep their cell positions verbatim;
/// `Dense` keeps the matrix row range of its block — the block index and
/// the packed panels are rebuilt from the operand on load
/// ([`KernelPlan::from_verdict`]), so values never live in the plan file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictOp {
    /// A [`KernelOp::Scalar`] run.
    Scalar {
        /// First cell position of the run.
        start: u32,
        /// Number of rows in the run.
        len: u32,
    },
    /// A [`KernelOp::Unrolled`] run.
    Unrolled {
        /// First cell position of the run.
        start: u32,
        /// Number of rows in the run.
        len: u32,
        /// Accumulator lanes (4 or 8).
        lanes: u8,
    },
    /// A [`KernelOp::Dense`] block over matrix rows `first .. first + rows`.
    Dense {
        /// First matrix row of the block.
        first: u32,
        /// Number of rows (`1 ..= MAX_DENSE_BLOCK` accepted on replay).
        rows: u32,
    },
}

/// A packed supernode: `rows` consecutive matrix rows starting at `first`,
/// stored as two column-major panels.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseBlock {
    /// First matrix row of the block.
    pub first: u32,
    /// Number of rows (`3 ..= MAX_DENSE_BLOCK`).
    pub rows: u32,
    /// Ascending union of the rows' off-block columns (all `< first`).
    pub cols: Vec<u32>,
    /// Column-major `rows × cols.len()` off-block panel: the coefficient of
    /// column `cols[c]` in row `first + i` at `off[c * rows + i]` (zero
    /// where the CSR row has no such entry).
    pub off: Vec<f64>,
    /// Column-major `rows × rows` in-block panel (lower triangle including
    /// the diagonal): entry `(first + i, first + j)` at `diag[j * rows + i]`.
    pub diag: Vec<f64>,
}

impl DenseBlock {
    /// Matrix rows covered by the block.
    pub fn row_range(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.rows) as usize
    }
}

/// The per-cell kernel plan of one compiled schedule on one operand:
/// op sequences tiling every cell, the packed dense blocks they reference,
/// and the precomputed diagonal reciprocals shared by every fastmath
/// kernel. Built once per plan (`fastmath=on`), immutable afterwards.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    n_cores: usize,
    ops: Vec<KernelOp>,
    /// CSR-style offsets into `ops`, one slice per `(step, core)` cell in
    /// step-major order (mirrors `CompiledSchedule`'s cell layout).
    op_ptr: Vec<u32>,
    blocks: Vec<DenseBlock>,
    inv_diag: Vec<f64>,
    dense_rows: usize,
    unrolled_rows: usize,
}

impl KernelPlan {
    /// Detects blocks and plans kernels for every cell of `compiled` on the
    /// lower-triangular operand `l` (diagonal stored last per row, as the
    /// executors require). The vertex IDs of `compiled` must be row indices
    /// of `l`.
    ///
    /// ```
    /// use sptrsv_core::{CompiledSchedule, KernelPlan, Scheduler, WavefrontScheduler};
    /// use sptrsv_dag::SolveDag;
    /// use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};
    ///
    /// let l = grid2d_laplacian(8, 8, Stencil2D::FivePoint, 0.5).lower_triangle().unwrap();
    /// let dag = SolveDag::from_lower_triangular(&l);
    /// let schedule = WavefrontScheduler.schedule(&dag, 2);
    /// let compiled = CompiledSchedule::from_schedule(&schedule);
    ///
    /// let plan = KernelPlan::detect(&l, &compiled);
    /// // Every row is planned exactly once: a reciprocal per diagonal, and
    /// // the dense/unrolled tallies never exceed the row count.
    /// assert_eq!(plan.inv_diag().len(), l.n_rows());
    /// assert!(plan.dense_rows() + plan.unrolled_rows() <= l.n_rows());
    /// ```
    pub fn detect(l: &CsrMatrix, compiled: &CompiledSchedule) -> KernelPlan {
        let mut plan = KernelPlan::empty(l, compiled.n_cores());
        for step in 0..compiled.n_supersteps() {
            for core in 0..compiled.n_cores() {
                plan.plan_cell(l, compiled.cell(step, core));
                plan.op_ptr.push(plan.ops.len() as u32);
            }
        }
        plan
    }

    /// Plans the natural-order serial sweep (one cell holding every row in
    /// ascending order — always a topological order for a lower-triangular
    /// operand). The single cell is addressed as `(step 0, core 0)`, and
    /// cell position `p` is row `p`.
    pub fn detect_serial(l: &CsrMatrix) -> KernelPlan {
        let rows: Vec<u32> = (0..l.n_rows() as u32).collect();
        let mut plan = KernelPlan::empty(l, 1);
        plan.plan_cell(l, &rows);
        plan.op_ptr.push(plan.ops.len() as u32);
        plan
    }

    fn empty(l: &CsrMatrix, n_cores: usize) -> KernelPlan {
        let n = l.n_rows();
        let mut inv_diag = Vec::with_capacity(n);
        for i in 0..n {
            let (cols, vals) = l.row(i);
            debug_assert_eq!(*cols.last().expect("empty row"), i, "row {i} lacks its diagonal");
            inv_diag.push(1.0 / vals[vals.len() - 1]);
        }
        KernelPlan {
            n_cores,
            ops: Vec::new(),
            op_ptr: vec![0],
            blocks: Vec::new(),
            inv_diag,
            dense_rows: 0,
            unrolled_rows: 0,
        }
    }

    /// The op sequence of cell `(step, core)` (same indexing as
    /// [`CompiledSchedule::cell`]).
    pub fn cell_ops(&self, step: usize, core: usize) -> &[KernelOp] {
        let cell = step * self.n_cores + core;
        &self.ops[self.op_ptr[cell] as usize..self.op_ptr[cell + 1] as usize]
    }

    /// The packed dense blocks referenced by [`KernelOp::Dense`].
    pub fn blocks(&self) -> &[DenseBlock] {
        &self.blocks
    }

    /// Precomputed reciprocals of the diagonal entries (indexed by row).
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Number of rows the plan covers.
    pub fn n_rows(&self) -> usize {
        self.inv_diag.len()
    }

    /// Rows covered by dense blocks.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// Rows covered by unrolled (multi-accumulator) ops.
    pub fn unrolled_rows(&self) -> usize {
        self.unrolled_rows
    }

    /// Fraction of rows executed as packed dense blocks.
    pub fn dense_coverage(&self) -> f64 {
        if self.inv_diag.is_empty() {
            0.0
        } else {
            self.dense_rows as f64 / self.inv_diag.len() as f64
        }
    }

    /// Exports the plan as a flat, cell-order [`VerdictOp`] stream — the
    /// serialized form the v3 plan format stores. [`Self::from_verdict`]
    /// inverts it against the same operand and compiled schedule.
    pub fn verdict(&self) -> Vec<VerdictOp> {
        self.ops
            .iter()
            .map(|op| match *op {
                KernelOp::Scalar { start, len } => VerdictOp::Scalar { start, len },
                KernelOp::Unrolled { start, len, lanes } => {
                    VerdictOp::Unrolled { start, len, lanes }
                }
                KernelOp::Dense { block } => {
                    let blk = &self.blocks[block as usize];
                    VerdictOp::Dense { first: blk.first, rows: blk.rows }
                }
            })
            .collect()
    }

    /// Replays a serialized verdict against `compiled` on `l`: the ops are
    /// validated to tile every cell exactly (in `(step, core)` order), the
    /// dense panels are re-packed from the operand, and the per-cell
    /// offsets are rebuilt. The panel values come from `l` alone, so a
    /// replayed plan computes exactly what a fresh
    /// [`KernelPlan::detect`] of the same ops would.
    ///
    /// Errors describe the first structural mismatch — an op crossing a
    /// cell boundary, a dense block whose rows are not the cell's
    /// consecutive matrix rows, a row count outside
    /// `1 ..= MAX_DENSE_BLOCK` (the executors' stack-buffer bound), bad
    /// lane counts, or leftover/missing ops. A verdict saved for a
    /// different schedule or operand is **an error, never a wrong plan**.
    pub fn from_verdict(
        l: &CsrMatrix,
        compiled: &CompiledSchedule,
        ops: &[VerdictOp],
    ) -> Result<KernelPlan, String> {
        let mut plan = KernelPlan::empty(l, compiled.n_cores());
        let mut cursor = 0usize;
        for step in 0..compiled.n_supersteps() {
            for core in 0..compiled.n_cores() {
                let cell = compiled.cell(step, core);
                let mut pos = 0usize;
                while pos < cell.len() {
                    let op = *ops.get(cursor).ok_or_else(|| {
                        format!("kernel verdict ends mid-cell (step {step}, core {core})")
                    })?;
                    cursor += 1;
                    match op {
                        VerdictOp::Scalar { start, len } => {
                            check_run(cell, pos, start, len, step, core)?;
                            plan.ops.push(KernelOp::Scalar { start, len });
                            pos += len as usize;
                        }
                        VerdictOp::Unrolled { start, len, lanes } => {
                            check_run(cell, pos, start, len, step, core)?;
                            if lanes != 4 && lanes != 8 {
                                return Err(format!(
                                    "kernel verdict: {lanes} lanes (expected 4 or 8)"
                                ));
                            }
                            plan.unrolled_rows += len as usize;
                            plan.ops.push(KernelOp::Unrolled { start, len, lanes });
                            pos += len as usize;
                        }
                        VerdictOp::Dense { first, rows } => {
                            let size = rows as usize;
                            if size == 0 || size > MAX_DENSE_BLOCK {
                                return Err(format!(
                                    "kernel verdict: dense block of {size} rows \
                                     (expected 1..={MAX_DENSE_BLOCK})"
                                ));
                            }
                            if pos + size > cell.len() {
                                return Err(format!(
                                    "kernel verdict: dense block crosses the cell boundary \
                                     (step {step}, core {core})"
                                ));
                            }
                            for i in 0..size {
                                if cell[pos + i] != first + i as u32 {
                                    return Err(format!(
                                        "kernel verdict: dense block rows {first}+{size} do not \
                                         match the cell's rows (step {step}, core {core})"
                                    ));
                                }
                            }
                            plan.pack_block(l, first, size);
                            plan.ops
                                .push(KernelOp::Dense { block: (plan.blocks.len() - 1) as u32 });
                            plan.dense_rows += size;
                            pos += size;
                        }
                    }
                }
                plan.op_ptr.push(plan.ops.len() as u32);
            }
        }
        if cursor != ops.len() {
            return Err(format!(
                "kernel verdict has {} trailing op(s) after the last cell",
                ops.len() - cursor
            ));
        }
        Ok(plan)
    }

    /// Plans one cell: greedy supernode growth over runs of consecutive
    /// row IDs, remaining rows grouped into scalar/unrolled runs.
    fn plan_cell(&mut self, l: &CsrMatrix, rows: &[u32]) {
        let mut p = 0;
        // Pending scalar/unrolled run: (class, start).
        let mut pending: Option<(RowClass, usize)> = None;
        while p < rows.len() {
            if let Some(size) = self.try_block(l, rows, p) {
                if let Some((class, start)) = pending.take() {
                    self.flush_run(class, start, p);
                }
                let first = rows[p];
                self.pack_block(l, first, size);
                self.ops.push(KernelOp::Dense { block: (self.blocks.len() - 1) as u32 });
                self.dense_rows += size;
                p += size;
                continue;
            }
            let class = RowClass::of(l, rows[p] as usize);
            match pending {
                Some((c, _)) if c == class => {}
                Some((c, start)) => {
                    self.flush_run(c, start, p);
                    pending = Some((class, p));
                }
                None => pending = Some((class, p)),
            }
            p += 1;
        }
        if let Some((class, start)) = pending {
            self.flush_run(class, start, rows.len());
        }
    }

    fn flush_run(&mut self, class: RowClass, start: usize, end: usize) {
        let (start, len) = (start as u32, (end - start) as u32);
        match class {
            RowClass::Scalar => self.ops.push(KernelOp::Scalar { start, len }),
            RowClass::Unrolled(lanes) => {
                self.unrolled_rows += len as usize;
                self.ops.push(KernelOp::Unrolled { start, len, lanes });
            }
        }
    }

    /// Greedily grows a dense block at cell position `p`; returns its row
    /// count if a profitable block (≥ `MIN_DENSE_BLOCK` rows) forms.
    ///
    /// Cost guard (calibrated against the `kernels` benchmark): a candidate
    /// row joins while the padded dense multiply-adds
    /// (`|union|·r + r(r−1)/2`) satisfy `4·dense ≤ 5·sparse` — at most 25%
    /// zero padding — and the block is only emitted when its rows carry at
    /// least one real off-diagonal entry each on average
    /// (`sparse ≥ rows`). Together these reject every structure whose
    /// packed form inflates the arithmetic: tridiagonal bundles
    /// (`sparse = r−1` but `r(r−1)/2` dense slots), banded runs with
    /// ragged columns, and stencil rows whose wide unions carry ~30–50%
    /// padding (measured to lose at any block size). Only near-dense
    /// supernodes — full in-block triangles over a shared off-block column
    /// set — pass, and for those the packed kernel's contiguous panels and
    /// reciprocal diagonal beat the gather loop outright.
    fn try_block(&self, l: &CsrMatrix, rows: &[u32], p: usize) -> Option<usize> {
        let first = rows[p] as usize;
        let max = MAX_DENSE_BLOCK.min(rows.len() - p);
        let mut union: Vec<u32> = Vec::new();
        let mut sparse_macs = 0usize; // actual off-diagonal entries so far
        let mut size = 0usize;
        let mut merged: Vec<u32> = Vec::new();
        while size < max {
            let row = first + size;
            if rows[p + size] as usize != row {
                break; // non-consecutive ID: the run ends here
            }
            let (cols, _) = l.row(row);
            let off = cols.len() - 1; // all entries but the diagonal
                                      // Merge the row's off-block columns (those below `first`; the
                                      // in-block ones land in the diag panel) into the sorted union.
            merged.clear();
            let mut it = union.iter().copied().peekable();
            for &c in cols.iter().take_while(|&&c| c < first) {
                let c = c as u32;
                while let Some(&u) = it.peek() {
                    if u < c {
                        merged.push(u);
                        it.next();
                    } else {
                        break;
                    }
                }
                if it.peek() == Some(&c) {
                    it.next();
                }
                merged.push(c);
            }
            merged.extend(it);
            let r = size + 1;
            let dense_macs = merged.len() * r + r * (r - 1) / 2;
            if 4 * dense_macs > 5 * (sparse_macs + off) {
                break;
            }
            std::mem::swap(&mut union, &mut merged);
            sparse_macs += off;
            size = r;
        }
        (size >= MIN_DENSE_BLOCK && sparse_macs >= size).then_some(size)
    }

    /// Packs rows `first .. first + size` into column-major panels.
    fn pack_block(&mut self, l: &CsrMatrix, first: u32, size: usize) {
        let firstu = first as usize;
        let mut cols: Vec<u32> = Vec::new();
        for k in 0..size {
            let (rcols, _) = l.row(firstu + k);
            for &c in rcols.iter().take_while(|&&c| c < firstu) {
                cols.push(c as u32);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        let mut off = vec![0.0; size * cols.len()];
        let mut diag = vec![0.0; size * size];
        for k in 0..size {
            let (rcols, rvals) = l.row(firstu + k);
            for (&c, &v) in rcols.iter().zip(rvals) {
                if c < firstu {
                    let ci = cols.binary_search(&(c as u32)).expect("column is in the union");
                    off[ci * size + k] = v;
                } else {
                    debug_assert!(c <= firstu + k, "row extends past its diagonal");
                    diag[(c - firstu) * size + k] = v;
                }
            }
        }
        self.blocks.push(DenseBlock { first, rows: size as u32, cols, off, diag });
    }
}

/// Shared run validation of [`KernelPlan::from_verdict`]: a scalar or
/// unrolled run must start at the replay cursor and stay inside its cell.
fn check_run(
    cell: &[u32],
    pos: usize,
    start: u32,
    len: u32,
    step: usize,
    core: usize,
) -> Result<(), String> {
    if start as usize != pos {
        return Err(format!(
            "kernel verdict: run starts at cell position {start}, expected {pos} \
             (step {step}, core {core})"
        ));
    }
    if len == 0 || pos + len as usize > cell.len() {
        return Err(format!(
            "kernel verdict: run of {len} rows crosses the cell boundary \
             (step {step}, core {core})"
        ));
    }
    Ok(())
}

/// Classification of a non-blocked row by its off-diagonal length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowClass {
    Scalar,
    Unrolled(u8),
}

impl RowClass {
    fn of(l: &CsrMatrix, row: usize) -> RowClass {
        let off = l.row_nnz(row) - 1;
        if off >= UNROLL_8_MIN {
            RowClass::Unrolled(8)
        } else if off >= UNROLL_4_MIN {
            RowClass::Unrolled(4)
        } else {
            RowClass::Scalar
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GrowLocal, Scheduler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sptrsv_dag::SolveDag;
    use sptrsv_sparse::gen::{block_diagonal_spd, grid2d_laplacian, supernodal_spd, Stencil2D};

    /// Every op sequence must tile its cell exactly once, in order.
    fn assert_tiles(plan: &KernelPlan, compiled: &CompiledSchedule) {
        for step in 0..compiled.n_supersteps() {
            for core in 0..compiled.n_cores() {
                let cell = compiled.cell(step, core);
                let mut cursor = 0usize;
                for op in plan.cell_ops(step, core) {
                    match *op {
                        KernelOp::Scalar { start, len } | KernelOp::Unrolled { start, len, .. } => {
                            assert_eq!(start as usize, cursor);
                            cursor += len as usize;
                        }
                        KernelOp::Dense { block } => {
                            let blk = &plan.blocks()[block as usize];
                            assert_eq!(cell[cursor], blk.first);
                            cursor += blk.rows as usize;
                        }
                    }
                }
                assert_eq!(cursor, cell.len(), "ops do not tile the cell");
            }
        }
    }

    #[test]
    fn identity_matrix_plans_no_blocks() {
        let l = CsrMatrix::identity(64);
        let plan = KernelPlan::detect_serial(&l);
        assert_eq!(plan.blocks().len(), 0, "diagonal-only rows must not be padded into blocks");
        assert_eq!(plan.dense_rows(), 0);
        assert_eq!(plan.inv_diag().len(), 64);
    }

    #[test]
    fn chained_bundles_stay_scalar() {
        // Tridiagonal bundles are the calibration case for the cost guard:
        // packing r chained rows costs r(r−1)/2 dense multiply-adds against
        // r−1 real ones, so dense execution must be declined.
        let l = block_diagonal_spd(12, 8, 0.5).lower_triangle().unwrap();
        let plan = KernelPlan::detect_serial(&l);
        assert_eq!(plan.blocks().len(), 0, "chained bundles must not be padded into blocks");
        assert_eq!(plan.dense_rows(), 0);
    }

    #[test]
    fn supernode_blocks_are_detected_and_packed_exactly() {
        let l = supernodal_spd(12, 8, 2, 0.5).lower_triangle().unwrap();
        let plan = KernelPlan::detect_serial(&l);
        assert!(
            plan.dense_coverage() > 0.5,
            "dense coupled blocks should mostly be supernodes (got {:.2})",
            plan.dense_coverage()
        );
        // Round-trip: the packed panels reproduce the CSR rows exactly.
        for blk in plan.blocks() {
            let r = blk.rows as usize;
            for k in 0..r {
                let row = blk.first as usize + k;
                let (cols, vals) = l.row(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    let packed = if c < blk.first as usize {
                        let ci = blk.cols.binary_search(&(c as u32)).expect("in union");
                        blk.off[ci * r + k]
                    } else {
                        blk.diag[(c - blk.first as usize) * r + k]
                    };
                    assert_eq!(packed, v, "row {row} col {c}");
                }
            }
        }
    }

    #[test]
    fn grid_cells_tile_and_inverse_diagonal_is_exact() {
        let l = grid2d_laplacian(20, 20, Stencil2D::NinePoint, 0.5).lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = GrowLocal::new().schedule(&dag, 4);
        let compiled = CompiledSchedule::from_schedule(&schedule);
        let plan = KernelPlan::detect(&l, &compiled);
        assert_tiles(&plan, &compiled);
        for i in 0..l.n_rows() {
            let (_, vals) = l.row(i);
            assert_eq!(plan.inv_diag()[i], 1.0 / vals[vals.len() - 1]);
        }
    }

    #[test]
    fn verdict_round_trips_and_rejects_mismatches() {
        let l = supernodal_spd(12, 8, 2, 0.5).lower_triangle().unwrap();
        let dag = SolveDag::from_lower_triangular(&l);
        let schedule = GrowLocal::new().schedule(&dag, 4);
        let compiled = CompiledSchedule::from_schedule(&schedule);
        let detected = KernelPlan::detect(&l, &compiled);
        assert!(detected.dense_rows() > 0, "the round trip should cover a dense block");

        let ops = detected.verdict();
        let replayed = KernelPlan::from_verdict(&l, &compiled, &ops).unwrap();
        assert_tiles(&replayed, &compiled);
        assert_eq!(replayed.dense_rows(), detected.dense_rows());
        assert_eq!(replayed.unrolled_rows(), detected.unrolled_rows());
        assert_eq!(replayed.blocks(), detected.blocks());
        for step in 0..compiled.n_supersteps() {
            for core in 0..compiled.n_cores() {
                assert_eq!(replayed.cell_ops(step, core), detected.cell_ops(step, core));
            }
        }

        // A corrupted stream is an error, never a wrong plan: shift the
        // first run off its cursor / onto the wrong matrix rows.
        let mut shifted = ops.clone();
        shifted[0] = match shifted[0] {
            VerdictOp::Scalar { start, len } => VerdictOp::Scalar { start: start + 1, len },
            VerdictOp::Unrolled { start, len, lanes } => {
                VerdictOp::Unrolled { start: start + 1, len, lanes }
            }
            VerdictOp::Dense { first, rows } => VerdictOp::Dense { first: first + 1, rows },
        };
        assert!(KernelPlan::from_verdict(&l, &compiled, &shifted).is_err());
        // Truncated and padded streams are rejected too.
        assert!(KernelPlan::from_verdict(&l, &compiled, &ops[..ops.len() - 1]).is_err());
        let mut padded = ops.clone();
        padded.push(VerdictOp::Scalar { start: 0, len: 1 });
        assert!(KernelPlan::from_verdict(&l, &compiled, &padded).is_err());
        // An oversized dense block must never reach the executors' stack
        // buffers.
        let huge = [VerdictOp::Dense { first: 0, rows: MAX_DENSE_BLOCK as u32 + 1 }];
        assert!(KernelPlan::from_verdict(&l, &compiled, &huge).is_err());
    }

    #[test]
    fn long_rows_are_planned_unrolled() {
        use sptrsv_sparse::gen::erdos_renyi_lower;
        let mut rng = SmallRng::seed_from_u64(3);
        let l = erdos_renyi_lower(400, 0.15, &mut rng);
        let plan = KernelPlan::detect_serial(&l);
        assert!(
            plan.unrolled_rows() > 0,
            "dense Erdős–Rényi rows should use the multi-accumulator kernel"
        );
    }
}
