//! The solve lanes: the program's serial kernel and each spec's
//! `SolvePlan::solve_into`, timed round-robin, each call right after a
//! reference solve on the same operand.

use crate::trace::Tracer;
use crate::{stats, Operand, Tally, SPECS};
use sptrsv_exec::{solve_lower_serial, SolveWorkspace};
use std::time::Instant;

/// Lane 0 is `solve_lower_serial`; lanes `1..=SPECS.len()` are the specs'
/// `solve_into`; with executor lanes on, the next `SPECS.len()` lanes time
/// `executor().solve` on each plan's internal operand.
pub(crate) const SERIAL_LANE: usize = 0;

/// Lanes whose outputs are solutions in the user's numbering.
const CHECKED: usize = 1 + SPECS.len();

/// Samples of the solve lanes.
pub(crate) struct SolveSamples {
    /// `[operand][lane]`: reference time over lane time, per call.
    pub(crate) ratio: Vec<Vec<Vec<f64>>>,
    /// `[operand][lane]`: lane time in µs, per call.
    pub(crate) lane_us: Vec<Vec<Vec<f64>>>,
    /// `[operand]`: reference time in µs, per call.
    pub(crate) ref_us: Vec<Vec<f64>>,
    /// Wall time of each full round over every operand and lane, µs.
    pub(crate) round_us: Vec<f64>,
    /// Rounds completed.
    pub(crate) rounds: usize,
    /// `[operand][lane]` latest outputs.
    x: Vec<Vec<Vec<f64>>>,
}

impl SolveSamples {
    /// Median reference-normalised speed-up of `lane` on operand `k`.
    pub(crate) fn speedup(&self, k: usize, lane: usize) -> f64 {
        stats::median(&self.ratio[k][lane])
    }
}

/// Round-robin timer of every operand and lane.
pub(crate) struct SolveLoop {
    samples: SolveSamples,
    lanes: usize,
    ws: Vec<Vec<SolveWorkspace>>,
    scratch: Vec<Vec<f64>>,
    request: u64,
}

impl SolveLoop {
    pub(crate) fn new(ops: &[Operand], executor_lanes: bool) -> SolveLoop {
        let lanes = CHECKED + if executor_lanes { SPECS.len() } else { 0 };
        SolveLoop {
            samples: SolveSamples {
                ratio: vec![vec![Vec::new(); lanes]; ops.len()],
                lane_us: vec![vec![Vec::new(); lanes]; ops.len()],
                ref_us: vec![Vec::new(); ops.len()],
                round_us: Vec::new(),
                rounds: 0,
                x: ops.iter().map(|o| vec![vec![0.0; o.reference.n()]; lanes]).collect(),
            },
            lanes,
            ws: ops.iter().map(|o| o.plans.iter().map(|p| p.workspace()).collect()).collect(),
            scratch: ops.iter().map(|o| vec![0.0; o.reference.n()]).collect(),
            request: 0,
        }
    }

    pub(crate) fn rounds(&self) -> usize {
        self.samples.rounds
    }

    /// One round: every lane once on every operand. Every output of the
    /// serial and `solve_into` lanes is checked against the reference.
    pub(crate) fn round(
        &mut self,
        ops: &[Operand],
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        let s = &mut self.samples;
        let round = Instant::now();
        for (k, op) in ops.iter().enumerate() {
            for j in 0..self.lanes {
                // Rotate the lane order so no lane always follows another.
                let lane = (j + s.rounds) % self.lanes;
                self.request += 1;
                let request = self.request;
                let scratch = &mut self.scratch[k];
                let t_ref = timed(&mut tracer, "ref.solve", "", request, || {
                    op.reference.solve(&op.b, scratch)
                });
                let x = &mut s.x[k][lane];
                let t = if lane == SERIAL_LANE {
                    timed(&mut tracer, "exec.serial", "", request, || {
                        solve_lower_serial(&op.lower, &op.b, x)
                    })
                } else if lane < CHECKED {
                    let (plan, w) = (&op.plans[lane - 1], &mut self.ws[k][lane - 1]);
                    timed(&mut tracer, "exec.solve_into", SPECS[lane - 1], request, || {
                        plan.solve_into(&op.b, x, w)
                    })
                } else {
                    let plan = &op.plans[lane - CHECKED];
                    timed(&mut tracer, "exec.executor", SPECS[lane - CHECKED], request, || {
                        plan.executor().solve(plan.internal_matrix(), &op.b, x)
                    })
                };
                if lane < CHECKED {
                    tally.check(|| format!("{} lane {lane}", op.name), x, &op.x_ref);
                }
                s.ratio[k][lane].push(t_ref / t);
                s.lane_us[k][lane].push(t * 1e6);
                s.ref_us[k].push(t_ref * 1e6);
            }
        }
        s.round_us.push(round.elapsed().as_secs_f64() * 1e6);
        s.rounds += 1;
    }

    /// Backward-error check of every checked lane's last output; returns
    /// the samples.
    pub(crate) fn finish(self, ops: &[Operand], tally: &mut Tally) -> SolveSamples {
        for (k, op) in ops.iter().enumerate() {
            for lane in 0..CHECKED {
                let x = &self.samples.x[k][lane];
                tally.check_backward(
                    || format!("{} lane {lane}", op.name),
                    &op.reference,
                    x,
                    &op.b,
                );
            }
        }
        self.samples
    }
}

/// Times `f` in seconds, inside a span when tracing.
fn timed(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    label: &'static str,
    request: u64,
    f: impl FnOnce(),
) -> f64 {
    let span = tracer.as_deref_mut().map(|t| t.open(name, label, request));
    let start = Instant::now();
    f();
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.close(id);
    }
    secs
}
