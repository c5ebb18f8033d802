//! The serving lanes: one client thread keeps `w` requests outstanding on
//! a `SolveServer` (a closed loop: each reply is checked, then its buffer
//! carries the next request). Windows 1 and `nproc`-capped 2 alternate in
//! chunks of [`CHUNK`] requests, each chunk preceded by reference solves,
//! so throughput and latency are read in reference solves measured moments
//! apart.

use crate::trace::Tracer;
use crate::{rhs, stats, Operand, Tally};
use sptrsv_exec::SolvePlan;
use sptrsv_serve::{RequestTiming, ServeBuilder, SolveHandle, SolveServer};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Requests per chunk of one window.
const CHUNK: usize = 200;

/// Requests each window must complete: ten lie beyond the 99th percentile.
pub(crate) const MIN_REQUESTS: usize = 1000;

/// Reference solves timed before each chunk.
const REF_SOLVES: usize = 5;

/// Samples of one window.
#[derive(Default)]
pub(crate) struct Window {
    /// Requests kept outstanding.
    pub(crate) width: usize,
    /// Per request: client-observed latency in reference solves (of the
    /// request's chunk).
    pub(crate) latency_xref: Vec<f64>,
    /// Per request: client-observed latency, µs.
    pub(crate) latency_us: Vec<f64>,
    /// Per request: the server's timing breakdown.
    pub(crate) timing: Vec<RequestTiming>,
    /// The server's mean fused batch width.
    pub(crate) mean_width: f64,
}

impl Window {
    /// Closed-loop completions per reference-solve time. By Little's law a
    /// loop keeping `width` requests outstanding completes `width / mean
    /// latency` per unit time; the median latency stands in for the mean
    /// so that a few requests stalled by the machine do not move it.
    pub(crate) fn xref(&self) -> f64 {
        self.width as f64 / stats::median(&self.latency_xref)
    }
}

/// Both windows.
pub(crate) struct Served {
    pub(crate) windows: [Window; 2],
}

/// Closed-loop client of both windows over one operand.
pub(crate) struct ServeLoop<'o> {
    op: &'o Operand,
    b2: Vec<f64>,
    x2: Vec<f64>,
    servers: [SolveServer; 2],
    served: Served,
    scratch: Vec<f64>,
    request: u64,
}

impl<'o> ServeLoop<'o> {
    /// Starts one server per window over `plan`, the plan of `op`.
    pub(crate) fn new(op: &'o Operand, plan: &Arc<SolvePlan>, seed: u64) -> ServeLoop<'o> {
        // Two right-hand sides alternate so a stale buffer cannot pass the
        // check.
        let n = op.reference.n();
        let b2 = rhs(seed, u64::MAX, n);
        let mut x2 = vec![0.0; n];
        op.reference.solve(&b2, &mut x2);
        ServeLoop {
            op,
            b2,
            x2,
            servers: [1, 2].map(|_| ServeBuilder::from_arc(Arc::clone(plan)).start()),
            served: Served { windows: [Window::default(), Window::default()] },
            scratch: vec![0.0; n],
            request: 0,
        }
    }

    /// Whether both windows have completed [`MIN_REQUESTS`].
    pub(crate) fn enough(&self) -> bool {
        self.served.windows.iter().all(|w| w.latency_us.len() >= MIN_REQUESTS)
    }

    /// One chunk of each window.
    pub(crate) fn chunks(
        &mut self,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let op = self.op;
        let rhs_set = [(&op.b, &op.x_ref), (&self.b2, &self.x2)];
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (i, server) in self.servers.iter().enumerate() {
            let refs: Vec<f64> = (0..REF_SOLVES)
                .map(|_| crate::time(|| op.reference.solve(&op.b, &mut self.scratch)).1)
                .collect();
            let t_ref = stats::median(&refs);
            let window = (i + 1).min(nproc);
            let chunk = closed_loop(
                server,
                window,
                &rhs_set,
                &mut self.request,
                &mut tracer,
                tally,
                &op.name,
            )?;
            let w = &mut self.served.windows[i];
            w.width = window;
            w.latency_xref.extend(chunk.latency_us.iter().map(|l| l * 1e-6 / t_ref));
            w.latency_us.extend(chunk.latency_us);
            w.timing.extend(chunk.timing);
        }
        Ok(())
    }

    /// Shuts both servers down and returns the samples.
    pub(crate) fn finish(self) -> Served {
        let mut served = self.served;
        for (window, server) in served.windows.iter_mut().zip(self.servers) {
            window.mean_width = server.shutdown().mean_width();
        }
        served
    }
}

struct Chunk {
    latency_us: Vec<f64>,
    timing: Vec<RequestTiming>,
}

/// One chunk of [`CHUNK`] requests with `window` outstanding.
fn closed_loop(
    server: &SolveServer,
    window: usize,
    rhs_set: &[(&Vec<f64>, &Vec<f64>); 2],
    request: &mut u64,
    tracer: &mut Option<&mut Tracer>,
    tally: &mut Tally,
    name: &str,
) -> Result<Chunk, String> {
    let mut chunk =
        Chunk { latency_us: Vec::with_capacity(CHUNK), timing: Vec::with_capacity(CHUNK) };
    let mut inflight: VecDeque<(SolveHandle, Instant, usize, u64)> = VecDeque::new();
    let mut submitted = 0;
    let mut submit = |buf: Vec<f64>,
                      which: usize,
                      inflight: &mut VecDeque<(SolveHandle, Instant, usize, u64)>,
                      tally: &mut Tally|
     -> Result<(), String> {
        *request += 1;
        let at = Instant::now();
        match server.submit(buf) {
            Ok(handle) => {
                inflight.push_back((handle, at, which, *request));
                Ok(())
            }
            Err(e) => {
                let msg = format!("{name}: request refused: {e:?}");
                tally.fail(msg.clone());
                Err(msg)
            }
        }
    };
    for _ in 0..window.min(CHUNK) {
        let which = submitted % 2;
        submit(rhs_set[which].0.clone(), which, &mut inflight, tally)?;
        submitted += 1;
    }
    while let Some((handle, at, which, id)) = inflight.pop_front() {
        let response = handle.wait();
        let end = Instant::now();
        chunk.latency_us.push(end.duration_since(at).as_secs_f64() * 1e6);
        chunk.timing.push(response.timing);
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.request", "", id, at, end);
        }
        tally.check(|| format!("{name}: served request {id}"), &response.x, rhs_set[which].1);
        if submitted < CHUNK {
            let which = submitted % 2;
            let mut buf = response.x;
            buf.copy_from_slice(rhs_set[which].0);
            submit(buf, which, &mut inflight, tally)?;
            submitted += 1;
        }
    }
    Ok(chunk)
}
