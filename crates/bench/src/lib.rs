//! Experiment harness behind the `experiments` binary.
//!
//! * [`harness`] — runs one (dataset, algorithm) pair end to end: schedule
//!   (timed), optional locality reordering, machine-model simulation;
//! * [`statistics`] — geometric means, quartiles, performance profiles;
//! * [`report`] — plain-text table rendering for the experiment outputs.
//!
//! Every table and figure of the paper's evaluation section maps to one
//! function in [`experiments`]; the `experiments` binary is a thin argument
//! parser over them (see DESIGN.md's experiment index).

pub mod experiments;
pub mod harness;
pub mod report;
pub mod statistics;

pub use harness::{evaluate, EvalOutcome, Pipeline};
pub use statistics::{geometric_mean, quartiles, PerformanceProfile};
