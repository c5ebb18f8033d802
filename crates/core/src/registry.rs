//! The scheduler registry: one source of truth for scheduler names,
//! parameters, execution models and construction.
//!
//! Every consumer layer (CLI, benchmark harness, examples, tests) resolves
//! schedulers through a [`SchedulerSpec`] — a compact string grammar:
//!
//! ```text
//! spec      := name [":" param ("," param)*] ["@" model]
//! param     := key "=" value
//! key       := ident | scope "." ident
//! model     := "barrier" | "async" | "serial"
//! ```
//!
//! Examples: `growlocal`, `growlocal:alpha=8,sync=2000`, `growlocal@async`,
//! `funnel-gl:gl.alpha=8,cap=auto`, `block-gl:blocks=16,gl.sync=2000`,
//! `hdagg:balance=1.25@serial`.
//!
//! Scoped keys address the parameters of a *nested* scheduler: composite
//! schedulers declare a scope (`gl.` for the inner GrowLocal of `funnel-gl`
//! and `block-gl`) and forward every `scope.key=value` override to it. The
//! `@model` suffix selects the [`ExecModel`] the schedule is executed under;
//! omitting it picks the scheduler's default (the first entry of
//! [`SchedulerInfo::exec_models`]).
//!
//! Four keys address the **execution policy** rather than the scheduler,
//! and are accepted on every spec: `sync`, `backoff`, `cores` and
//! `fastmath` (`growlocal:sync=full@async`, `spmp:backoff=yield`,
//! `hdagg:cores=16@barrier`, `growlocal:fastmath=on`). They are declared
//! once, in [`exec_policy_keys`], and that table drives
//! [`resolve_exec_policy`], the split of a spec into policy and scheduler
//! parameters behind [`validate`] and [`schedule_identity`], and
//! [`help_text`]. `growlocal`'s own numeric `sync` parameter is unaffected
//! because the value domains are disjoint.
//!
//! [`list`] enumerates every registered scheduler with its parameters,
//! defaults, supported execution models and description; [`build`]
//! instantiates a boxed [`Scheduler`] from a parsed spec (some schedulers
//! size themselves from the DAG and core count, which is why construction
//! takes both); [`resolve`] is parse + build in one call; [`resolve_model`]
//! maps a spec to its effective [`ExecModel`]. Adding a scheduler means
//! adding one [`SchedulerInfo`] entry and one arm in [`build`] — nothing
//! else in the workspace hardcodes names.

use crate::block::BlockParallel;
use crate::bspg::BspG;
use crate::funnel_gl::FunnelGrowLocal;
use crate::growlocal::{GrowLocal, GrowLocalParams, VertexPriority};
use crate::hdagg::HDagg;
use crate::spmp::SpMp;
use crate::wavefront::WavefrontScheduler;
use crate::Scheduler;
use sptrsv_dag::coarsen::FunnelDirection;
use sptrsv_dag::SolveDag;
use std::fmt;
use std::str::FromStr;

/// How a schedule is executed — the `@model` dimension of the spec grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecModel {
    /// BSP execution: one global synchronization barrier per superstep.
    Barrier,
    /// Point-to-point execution, SpMP-style: per-vertex ready flags, no
    /// global barriers.
    Async,
    /// Single-threaded execution in vertex order (the reference kernel).
    Serial,
}

impl ExecModel {
    /// Every execution model, in presentation order.
    pub const ALL: [ExecModel; 3] = [ExecModel::Barrier, ExecModel::Async, ExecModel::Serial];

    /// The spec-grammar name of the model.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecModel::Barrier => "barrier",
            ExecModel::Async => "async",
            ExecModel::Serial => "serial",
        }
    }
}

impl fmt::Display for ExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExecModel {
    type Err = RegistryError;

    fn from_str(text: &str) -> Result<ExecModel, RegistryError> {
        ExecModel::ALL
            .into_iter()
            .find(|m| m.as_str() == text)
            .ok_or_else(|| RegistryError::UnknownModel { name: text.to_string() })
    }
}

/// Which dependency DAG an asynchronous execution waits on — the `sync=`
/// execution-policy key (the §8 full-vs-reduced exploration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncPolicy {
    /// Wait on every edge of the solve DAG.
    Full,
    /// Wait on the approximate transitive reduction (SpMP-style sparsified
    /// synchronization; reachability — and hence correctness — is identical).
    #[default]
    Reduced,
}

impl SyncPolicy {
    /// The spec-grammar value.
    pub fn as_str(&self) -> &'static str {
        match self {
            SyncPolicy::Full => "full",
            SyncPolicy::Reduced => "reduced",
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SyncPolicy {
    type Err = RegistryError;

    fn from_str(text: &str) -> Result<SyncPolicy, RegistryError> {
        match text {
            "full" => Ok(SyncPolicy::Full),
            "reduced" => Ok(SyncPolicy::Reduced),
            other => Err(bad_policy_value("sync", other)),
        }
    }
}

/// How a thread waits for a dependency or barrier — the `backoff=`
/// execution-policy key (the §8 modeled spin-wait backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backoff {
    /// Busy-wait with a CPU relaxation hint (lowest wake-up latency; an
    /// occasional OS yield keeps oversubscribed runs live).
    #[default]
    Spin,
    /// Yield the OS scheduler after a short spin (frees the core while
    /// waiting, at the price of re-scheduling latency).
    Yield,
}

impl Backoff {
    /// The spec-grammar value.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backoff::Spin => "spin",
            Backoff::Yield => "yield",
        }
    }
}

impl fmt::Display for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Backoff {
    type Err = RegistryError;

    fn from_str(text: &str) -> Result<Backoff, RegistryError> {
        match text {
            "spin" => Ok(Backoff::Spin),
            "yield" => Ok(Backoff::Yield),
            other => Err(bad_policy_value("backoff", other)),
        }
    }
}

/// The execution policy of a spec: dimensions of *how* a schedule executes
/// that are orthogonal to both the scheduler and the [`ExecModel`] — one
/// field per row of [`exec_policy_keys`].
///
/// The keys are accepted on **every** scheduler (they configure the
/// executor, not the scheduler) and stripped before scheduler parameters are
/// checked. `sync=` is disambiguated from `growlocal`'s own numeric `sync`
/// parameter by its value domain: `full`/`reduced` address the policy, any
/// other value is passed through to the scheduler.
///
/// # Examples
///
/// Policy keys resolve from any spec string, leaving scheduler parameters
/// untouched:
///
/// ```
/// use sptrsv_core::registry::{resolve_exec_policy, SchedulerSpec, SyncPolicy};
///
/// let spec: SchedulerSpec =
///     "growlocal:alpha=8,sync=full,fastmath=on,cores=4@async".parse()?;
/// let policy = resolve_exec_policy(&spec)?;
/// assert_eq!(policy.sync, SyncPolicy::Full);
/// assert!(policy.fastmath);
/// assert_eq!(policy.cores, Some(4));
/// // `alpha=8` stays a scheduler parameter.
/// # Ok::<(), sptrsv_core::registry::RegistryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecPolicy {
    /// Wait DAG of asynchronous execution (ignored by barrier/serial).
    pub sync: SyncPolicy,
    /// Wait-loop behavior of every threaded wait (async done-flags and
    /// barrier/runtime waits alike).
    pub backoff: Backoff,
    /// Core count the schedule targets (the `cores=N` key): the width the
    /// executor requests from the shared solver runtime per solve, and the
    /// parallelism the simulator models. `None` defers to the consumer's
    /// own core-count setting (the typed `PlanBuilder::cores` knob, a CLI
    /// `--cores` flag, a harness parameter) and its default.
    pub cores: Option<usize>,
    /// Fastmath kernels (the `fastmath=` key): when `true`, executors run
    /// the planned blocked/unrolled kernels with precomputed diagonal
    /// reciprocals (`sptrsv_core::kernel`). **The only policy key that can
    /// change results**: reciprocal multiplies and re-associated
    /// accumulation round differently, so solutions agree with the scalar
    /// reference to a documented `1e-12` relative tolerance instead of
    /// bit-identically. Default `off` keeps the bit-identical scalar path.
    pub fastmath: bool,
}

/// One execution-policy key: a row of [`exec_policy_keys`].
#[derive(Debug, Clone, Copy)]
pub struct PolicyKey {
    /// Spec key.
    pub key: &'static str,
    /// The accepted values, as help text and error messages show them.
    pub values: &'static str,
    /// What applies when a spec omits the key.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// Whether a value outside `values` is left to the scheduler as a
    /// parameter of its own (`growlocal`'s numeric `sync`) instead of
    /// being rejected.
    shared: bool,
    /// Stores a value in the policy; false when it is outside `values`.
    parse: fn(&str, &mut ExecPolicy) -> bool,
}

/// Every execution-policy key, in presentation order.
///
/// This is the **only** list of policy keys in the workspace: spec
/// parsing, the policy/scheduler-parameter split, the help text and the
/// tuner's `auto:` passthrough all read it.
pub fn exec_policy_keys() -> &'static [PolicyKey] {
    const KEYS: &[PolicyKey] = &[
        PolicyKey {
            key: "sync",
            values: "full | reduced",
            default: "reduced",
            help: "wait DAG of @async execution: every solve-DAG edge or its SpMP \
                   (approximate transitive) reduction",
            shared: true,
            parse: |v, p| v.parse().map(|sync| p.sync = sync).is_ok(),
        },
        PolicyKey {
            key: "backoff",
            values: "spin | yield",
            default: "spin",
            help: "every threaded wait loop: busy-wait, or yield the core after a short spin",
            shared: false,
            parse: |v, p| v.parse().map(|backoff| p.backoff = backoff).is_ok(),
        },
        PolicyKey {
            key: "cores",
            values: "a positive integer",
            default: "the caller's core count",
            help: "core count the schedule targets, and the width each solve leases",
            shared: false,
            parse: |v, p| {
                p.cores = v.parse().ok().filter(|&cores| cores > 0);
                p.cores.is_some()
            },
        },
        PolicyKey {
            key: "fastmath",
            values: "on | off",
            default: "off",
            help: "blocked/unrolled kernels with reciprocal diagonals: within 1e-12 \
                   relative of the exact path, not bit-identical",
            shared: false,
            parse: |v, p| {
                p.fastmath = v == "on";
                v == "on" || v == "off"
            },
        },
    ];
    KEYS
}

/// The policy row `key=value` addresses, or `None` when the pair is a
/// scheduler parameter (see [`ExecPolicy`] for the disambiguation rule).
fn policy_row(key: &str, value: &str) -> Option<&'static PolicyKey> {
    exec_policy_keys().iter().find(|row| {
        row.key == key && (!row.shared || (row.parse)(value, &mut ExecPolicy::default()))
    })
}

/// The error for `value`, which is outside policy key `key`'s domain.
fn bad_policy_value(key: &'static str, value: &str) -> RegistryError {
    let expected =
        exec_policy_keys().iter().find(|row| row.key == key).map_or("", |row| row.values);
    RegistryError::BadValue { scheduler: "exec", key, value: value.to_string(), expected }
}

/// True when `key=value` addresses the execution policy rather than a
/// scheduler parameter.
pub fn is_exec_policy_param(key: &str, value: &str) -> bool {
    policy_row(key, value).is_some()
}

/// The execution policy a spec selects: its policy keys (last occurrence
/// wins), with defaults for the absent ones.
pub fn resolve_exec_policy(spec: &SchedulerSpec) -> Result<ExecPolicy, RegistryError> {
    let mut policy = ExecPolicy::default();
    for (key, value) in spec.params() {
        let Some(row) = policy_row(key, value) else { continue };
        if !(row.parse)(value, &mut policy) {
            return Err(bad_policy_value(row.key, value));
        }
    }
    Ok(policy)
}

/// A copy of `spec` with the execution-policy keys removed — what the
/// scheduler-parameter machinery sees.
fn strip_exec_policy(spec: &SchedulerSpec) -> SchedulerSpec {
    SchedulerSpec {
        name: spec.name.clone(),
        params: spec.params.iter().filter(|(k, v)| !is_exec_policy_param(k, v)).cloned().collect(),
        model: spec.model,
    }
}

/// The schedule identity of a spec: the scheduler name plus its *scheduler*
/// parameters, with every execution-policy key and the `@model` suffix
/// removed.
///
/// Two specs with equal identities produce the same schedule from the same
/// DAG and core count — execution policy and model change how a schedule is
/// *run*, never what is computed — so warm-start fingerprints hash this
/// canonical string (plus the core count) rather than the raw spec text,
/// letting `growlocal:fastmath=on@serial` hit a plan cached by
/// `growlocal@barrier`.
pub fn schedule_identity(spec: &SchedulerSpec) -> String {
    let mut stripped = strip_exec_policy(spec);
    stripped.model = None;
    stripped.to_string()
}

/// A parsed scheduler spec: a registry name, `key=value` overrides (keys may
/// be scoped, e.g. `gl.alpha`), and an optional `@model` execution suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSpec {
    name: String,
    params: Vec<(String, String)>,
    model: Option<ExecModel>,
}

impl SchedulerSpec {
    /// A spec with no parameter overrides and no execution-model suffix.
    pub fn new(name: impl Into<String>) -> SchedulerSpec {
        SchedulerSpec { name: name.into(), params: Vec::new(), model: None }
    }

    /// The scheduler name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `key=value` overrides, in spec order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// The explicit `@model` suffix, if any ([`resolve_model`] applies the
    /// scheduler's default when absent).
    pub fn exec_model(&self) -> Option<ExecModel> {
        self.model
    }

    /// Adds/overrides one parameter (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> SchedulerSpec {
        self.params.push((key.into(), value.into()));
        self
    }

    /// Sets the execution model (builder style, equivalent to `@model`).
    pub fn with_model(mut self, model: ExecModel) -> SchedulerSpec {
        self.model = Some(model);
        self
    }

    /// The override for `key`, if present (last occurrence wins).
    fn get(&self, key: &str) -> Option<&str> {
        self.params.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

impl FromStr for SchedulerSpec {
    type Err = RegistryError;

    fn from_str(text: &str) -> Result<SchedulerSpec, RegistryError> {
        let text = text.trim();
        // The `@model` suffix binds last: everything after the final `@`.
        let (text, model) = match text.rsplit_once('@') {
            Some((head, tail)) => (head, Some(tail.trim().parse::<ExecModel>()?)),
            None => (text, None),
        };
        let (name, rest) = match text.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (text, None),
        };
        if name.is_empty() {
            return Err(RegistryError::Syntax("empty scheduler name".into()));
        }
        let mut params = Vec::new();
        if let Some(rest) = rest {
            for pair in rest.split(',') {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(RegistryError::Syntax(format!(
                        "parameter `{pair}` is not of the form key=value"
                    )));
                };
                let (key, value) = (key.trim(), value.trim());
                if key.is_empty() || value.is_empty() {
                    return Err(RegistryError::Syntax(format!(
                        "parameter `{pair}` has an empty key or value"
                    )));
                }
                params.push((key.to_string(), value.to_string()));
            }
        }
        Ok(SchedulerSpec { name: name.to_string(), params, model })
    }
}

impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (k, v)) in self.params.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { ':' } else { ',' })?;
        }
        if let Some(model) = self.model {
            write!(f, "@{model}")?;
        }
        Ok(())
    }
}

/// Errors from spec parsing or scheduler construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The spec text does not match the grammar.
    Syntax(String),
    /// No scheduler registered under this name.
    UnknownScheduler {
        /// The requested name.
        name: String,
    },
    /// The scheduler exists but does not take this parameter (including
    /// scoped keys whose scope the scheduler does not declare).
    UnknownParam {
        /// The scheduler name.
        scheduler: &'static str,
        /// The unrecognized key.
        key: String,
    },
    /// A parameter value failed to parse.
    BadValue {
        /// The scheduler name.
        scheduler: &'static str,
        /// The parameter key.
        key: &'static str,
        /// The rejected value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// The `@model` suffix names no registered execution model.
    UnknownModel {
        /// The requested model name.
        name: String,
    },
    /// The execution model exists but the scheduler does not support it.
    UnsupportedModel {
        /// The scheduler name.
        scheduler: &'static str,
        /// The rejected model.
        model: ExecModel,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Syntax(msg) => write!(f, "bad scheduler spec: {msg}"),
            RegistryError::UnknownScheduler { name } => {
                write!(f, "unknown scheduler `{name}` (known: ")?;
                for (i, info) in list().iter().enumerate() {
                    write!(f, "{}{}", if i == 0 { "" } else { ", " }, info.name)?;
                }
                write!(f, ")")
            }
            RegistryError::UnknownParam { scheduler, key } => {
                write!(f, "scheduler `{scheduler}` has no parameter `{key}`")
            }
            RegistryError::BadValue { scheduler, key, value, expected } => {
                write!(f, "bad value `{value}` for `{scheduler}:{key}` (expected {expected})")
            }
            RegistryError::UnknownModel { name } => {
                write!(f, "unknown execution model `@{name}` (known: ")?;
                for (i, m) in ExecModel::ALL.iter().enumerate() {
                    write!(f, "{}{m}", if i == 0 { "" } else { ", " })?;
                }
                write!(f, ")")
            }
            RegistryError::UnsupportedModel { scheduler, model } => {
                write!(f, "scheduler `{scheduler}` does not support execution model `@{model}`")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One tunable of a registered scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ParamInfo {
    /// Spec key (scoped keys carry their `scope.` prefix).
    pub key: &'static str,
    /// Default value, as spec text.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// One registered scheduler.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerInfo {
    /// Registry (spec) name.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Accepted parameters, scoped keys included.
    pub params: &'static [ParamInfo],
    /// Execution models the scheduler's schedules support; the first entry
    /// is the default applied when a spec has no `@model` suffix.
    pub exec_models: &'static [ExecModel],
    /// Example specs exercising the parameters (used by the conformance
    /// suite, so every example is guaranteed to build).
    pub examples: &'static [&'static str],
}

impl SchedulerInfo {
    /// The execution model applied when a spec has no `@model` suffix.
    pub fn default_model(&self) -> ExecModel {
        self.exec_models[0]
    }
}

/// The parameters of the inner GrowLocal run, under the `gl.` scope — shared
/// by the composite schedulers (`funnel-gl`, `block-gl`). Defaults mirror
/// `growlocal`'s own entries (pinned by a test).
const GL_SCOPED_PARAMS: [ParamInfo; 5] = [
    ParamInfo { key: "gl.alpha", default: "20", help: "inner GrowLocal: initial length α" },
    ParamInfo { key: "gl.growth", default: "1.5", help: "inner GrowLocal: α growth factor" },
    ParamInfo { key: "gl.accept", default: "0.97", help: "inner GrowLocal: acceptance ratio" },
    ParamInfo { key: "gl.sync", default: "500", help: "inner GrowLocal: barrier penalty L" },
    ParamInfo {
        key: "gl.priority",
        default: "rule1",
        help: "inner GrowLocal: rule1 or id-only selection",
    },
];

/// Barrier-first model list (the common case).
const BARRIER_FIRST: &[ExecModel] = &[ExecModel::Barrier, ExecModel::Async, ExecModel::Serial];
/// Async-first model list (schedulers designed for point-to-point execution).
const ASYNC_FIRST: &[ExecModel] = &[ExecModel::Async, ExecModel::Barrier, ExecModel::Serial];

/// Every registered scheduler, in the paper's presentation order.
///
/// This is the **only** scheduler enumeration in the workspace: the CLI,
/// the benchmark harness, the examples and the conformance tests all derive
/// their name lists from here.
pub fn list() -> &'static [SchedulerInfo] {
    const LIST: &[SchedulerInfo] = &[
        SchedulerInfo {
            name: "growlocal",
            summary: "GrowLocal (§3): supersteps grown by the α/β mechanism, Rule I selection",
            params: &[
                ParamInfo { key: "alpha", default: "20", help: "initial superstep length α" },
                ParamInfo { key: "growth", default: "1.5", help: "α growth factor per iteration" },
                ParamInfo {
                    key: "accept",
                    default: "0.97",
                    help: "iteration kept while β ≥ accept·β_best",
                },
                ParamInfo {
                    key: "sync", default: "500", help: "barrier penalty L in the β score"
                },
                ParamInfo {
                    key: "priority",
                    default: "rule1",
                    help: "vertex selection: rule1 (core-exclusive then ID) or id-only",
                },
            ],
            exec_models: BARRIER_FIRST,
            examples: &[
                "growlocal",
                "growlocal:alpha=8,sync=2000",
                "growlocal:priority=id-only",
                "growlocal:alpha=8@async",
                "growlocal@serial",
            ],
        },
        SchedulerInfo {
            name: "funnel-gl",
            summary: "Funnel coarsening (§4) + GrowLocal on the coarse DAG",
            params: &[
                ParamInfo {
                    key: "cap",
                    default: "auto",
                    help: "max part weight; auto = DAG weight / (64·cores), clamped",
                },
                ParamInfo { key: "dir", default: "in", help: "funnel direction: in or out" },
                ParamInfo {
                    key: "tr",
                    default: "true",
                    help: "approximate transitive reduction first when it costs \
                           ≤ 10 probes per vertex+edge; false never reduces",
                },
                GL_SCOPED_PARAMS[0],
                GL_SCOPED_PARAMS[1],
                GL_SCOPED_PARAMS[2],
                GL_SCOPED_PARAMS[3],
                GL_SCOPED_PARAMS[4],
            ],
            exec_models: BARRIER_FIRST,
            examples: &[
                "funnel-gl",
                "funnel-gl:cap=auto,dir=out",
                "funnel-gl:cap=64,tr=false",
                "funnel-gl:gl.alpha=8,cap=auto",
                "funnel-gl:gl.sync=2000,gl.priority=id-only@async",
            ],
        },
        SchedulerInfo {
            name: "block-gl",
            summary: "Block-parallel GrowLocal (§3.1): independent diagonal blocks",
            params: &[
                ParamInfo {
                    key: "blocks",
                    default: "auto",
                    help: "number of diagonal blocks; auto = min(cores, 8)",
                },
                GL_SCOPED_PARAMS[0],
                GL_SCOPED_PARAMS[1],
                GL_SCOPED_PARAMS[2],
                GL_SCOPED_PARAMS[3],
                GL_SCOPED_PARAMS[4],
            ],
            exec_models: BARRIER_FIRST,
            examples: &["block-gl", "block-gl:blocks=16", "block-gl:blocks=4,gl.alpha=8"],
        },
        SchedulerInfo {
            name: "wavefront",
            summary: "Classic level-set scheduling [AS89]: one superstep per wavefront",
            params: &[],
            exec_models: BARRIER_FIRST,
            examples: &["wavefront", "wavefront@serial"],
        },
        SchedulerInfo {
            name: "hdagg",
            summary: "HDagg-style [ZCL+22]: wavefront gluing under a balance constraint",
            params: &[ParamInfo {
                key: "balance",
                default: "1.15",
                help: "max tolerated max/avg work imbalance of a glued superstep",
            }],
            exec_models: BARRIER_FIRST,
            examples: &["hdagg", "hdagg:balance=1.4"],
        },
        SchedulerInfo {
            name: "spmp",
            summary: "SpMP-style [PSSD14]: level schedule on the reduced DAG, async execution",
            params: &[],
            exec_models: ASYNC_FIRST,
            examples: &["spmp", "spmp@barrier"],
        },
        SchedulerInfo {
            name: "bspg",
            summary: "BSPg-style [PAKY24]: barrier list scheduling with fixed quota",
            params: &[ParamInfo {
                key: "quota",
                default: "64",
                help: "per-core vertex quota of one superstep",
            }],
            exec_models: BARRIER_FIRST,
            examples: &["bspg", "bspg:quota=16"],
        },
    ];
    LIST
}

/// The registry entry for `name`, if registered.
pub fn info(name: &str) -> Option<&'static SchedulerInfo> {
    list().iter().find(|i| i.name == name)
}

/// Renders the one-scheduler-per-line help listing used by the CLI.
pub fn help_text() -> String {
    let mut out = String::new();
    out.push_str("spec grammar: name[:key=value,…][@model] — scoped keys (gl.alpha)\n");
    out.push_str("address a composite scheduler's inner GrowLocal; @model selects the\n");
    out.push_str("execution model (the scheduler's default is marked with *).\n\n");
    out.push_str("execution policy (valid on every scheduler, applied by the executor):\n");
    for row in exec_policy_keys() {
        out.push_str(&format!("    {:<12} {} (default {})\n", row.key, row.values, row.default));
        out.push_str(&format!("    {:<12} {}\n", "", row.help));
    }
    out.push('\n');
    for entry in list() {
        out.push_str(&format!("  {:<10} {}\n", entry.name, entry.summary));
        let models: Vec<String> = ExecModel::ALL
            .iter()
            .filter(|m| entry.exec_models.contains(m))
            .map(|m| if *m == entry.default_model() { format!("{m}*") } else { m.to_string() })
            .collect();
        out.push_str(&format!("    {:<12} {}\n", "models", models.join(" | ")));
        for p in entry.params {
            out.push_str(&format!("    {:<12} {} (default {})\n", p.key, p.help, p.default));
        }
    }
    out
}

/// Typed parameter extraction with registry-quality errors.
struct ParamReader<'a> {
    scheduler: &'static str,
    spec: &'a SchedulerSpec,
}

impl ParamReader<'_> {
    fn parse<T: FromStr>(
        &self,
        key: &'static str,
        default: T,
        expected: &'static str,
    ) -> Result<T, RegistryError> {
        match self.spec.get(key) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| RegistryError::BadValue {
                scheduler: self.scheduler,
                key,
                value: text.to_string(),
                expected,
            }),
        }
    }

    /// Like [`ParamReader::parse`], but a value outside the key's declared
    /// range (`in_range` false, NaN included) is a `BadValue` as well.
    fn parse_in_range<T: FromStr>(
        &self,
        key: &'static str,
        default: T,
        expected: &'static str,
        in_range: fn(&T) -> bool,
    ) -> Result<T, RegistryError> {
        let value = self.parse(key, default, expected)?;
        if in_range(&value) {
            Ok(value)
        } else {
            Err(RegistryError::BadValue {
                scheduler: self.scheduler,
                key,
                value: self.spec.get(key).unwrap_or_default().to_string(),
                expected,
            })
        }
    }

    /// Like [`ParamReader::parse`] but `auto` maps to `None`.
    fn parse_or_auto<T: FromStr>(
        &self,
        key: &'static str,
        expected: &'static str,
    ) -> Result<Option<T>, RegistryError> {
        match self.spec.get(key) {
            None | Some("auto") => Ok(None),
            Some(text) => text.parse().map(Some).map_err(|_| RegistryError::BadValue {
                scheduler: self.scheduler,
                key,
                value: text.to_string(),
                expected,
            }),
        }
    }

    /// Rejects spec keys the scheduler does not declare.
    fn check_keys(&self) -> Result<(), RegistryError> {
        let declared = info(self.scheduler).map(|i| i.params).unwrap_or(&[]);
        for (key, _) in self.spec.params() {
            if !declared.iter().any(|p| p.key == key) {
                return Err(RegistryError::UnknownParam {
                    scheduler: self.scheduler,
                    key: key.clone(),
                });
            }
        }
        Ok(())
    }

    /// Reads a GrowLocal parameter set — the unscoped keys of `growlocal`
    /// itself, or the `gl.`-scoped keys a composite scheduler forwards to
    /// its inner GrowLocal.
    fn growlocal_params(&self, scoped: bool) -> Result<GrowLocalParams, RegistryError> {
        let (alpha, growth, accept, sync, priority) = if scoped {
            ("gl.alpha", "gl.growth", "gl.accept", "gl.sync", "gl.priority")
        } else {
            ("alpha", "growth", "accept", "sync", "priority")
        };
        let defaults = GrowLocalParams::default();
        let priority = match self.parse::<String>(priority, "rule1".into(), "rule1 or id-only")? {
            p if p == "rule1" => VertexPriority::CoreExclusiveThenId,
            p if p == "id-only" => VertexPriority::IdOnly,
            p => {
                return Err(RegistryError::BadValue {
                    scheduler: self.scheduler,
                    key: priority,
                    value: p,
                    expected: "rule1 or id-only",
                })
            }
        };
        Ok(GrowLocalParams {
            alpha_init: self.parse_in_range(
                alpha,
                defaults.alpha_init,
                "a positive integer",
                |a| *a >= 1,
            )?,
            growth: self.parse_in_range(growth, defaults.growth, "a finite float > 1", |g| {
                g.is_finite() && *g > 1.0
            })?,
            accept_ratio: self.parse_in_range(
                accept,
                defaults.accept_ratio,
                "a float in (0, 1]",
                |a| *a > 0.0 && *a <= 1.0,
            )?,
            sync_cost: self.parse(sync, defaults.sync_cost, "a non-negative integer")?,
            priority,
        })
    }
}

/// The execution model a spec selects: its `@model` suffix (validated
/// against the scheduler's supported set), or the scheduler's default.
pub fn resolve_model(spec: &SchedulerSpec) -> Result<ExecModel, RegistryError> {
    let Some(entry) = info(spec.name()) else {
        return Err(RegistryError::UnknownScheduler { name: spec.name().to_string() });
    };
    match spec.exec_model() {
        None => Ok(entry.default_model()),
        Some(model) if entry.exec_models.contains(&model) => Ok(model),
        Some(model) => Err(RegistryError::UnsupportedModel { scheduler: entry.name, model }),
    }
}

/// Checks a spec without building it: the scheduler is registered, the
/// model is supported, every execution-policy value parses and every other
/// key is a parameter the scheduler declares. Parameter *values* are
/// checked by [`build`], which needs the DAG. Callers that may skip
/// [`build`] (a plan-cache hit, a cached tuner verdict) validate here, so a
/// key the registry does not know never reaches a plan unnoticed.
pub fn validate(spec: &SchedulerSpec) -> Result<&'static SchedulerInfo, RegistryError> {
    let Some(entry) = info(spec.name()) else {
        return Err(RegistryError::UnknownScheduler { name: spec.name().to_string() });
    };
    resolve_model(spec)?;
    // The execution-policy keys configure the executor: validate their
    // values, then hide them from the scheduler-parameter check.
    resolve_exec_policy(spec)?;
    ParamReader { scheduler: entry.name, spec: &strip_exec_policy(spec) }.check_keys()?;
    Ok(entry)
}

/// Instantiates the scheduler a spec describes.
///
/// `dag` and `n_cores` size the self-configuring schedulers (`funnel-gl`'s
/// automatic part-weight cap, `block-gl`'s automatic block count); fixed
/// schedulers ignore them. The `@model` suffix does not change construction
/// but is validated here so an unsupported model fails fast.
pub fn build(
    spec: &SchedulerSpec,
    dag: &SolveDag,
    n_cores: usize,
) -> Result<Box<dyn Scheduler>, RegistryError> {
    let entry = validate(spec)?;
    let reader = ParamReader { scheduler: entry.name, spec: &strip_exec_policy(spec) };
    Ok(match entry.name {
        "growlocal" => Box::new(GrowLocal::with_params(reader.growlocal_params(false)?)),
        "funnel-gl" => {
            let mut fgl = FunnelGrowLocal::for_dag(dag, n_cores);
            if let Some(cap) = reader.parse_or_auto::<u64>("cap", "a positive integer or auto")? {
                if cap == 0 {
                    return Err(RegistryError::BadValue {
                        scheduler: "funnel-gl",
                        key: "cap",
                        value: "0".into(),
                        expected: "a positive integer or auto",
                    });
                }
                fgl.max_part_weight = cap;
            }
            fgl.direction = match reader.parse::<String>("dir", "in".into(), "in or out")? {
                d if d == "in" => FunnelDirection::In,
                d if d == "out" => FunnelDirection::Out,
                d => {
                    return Err(RegistryError::BadValue {
                        scheduler: "funnel-gl",
                        key: "dir",
                        value: d,
                        expected: "in or out",
                    })
                }
            };
            fgl.transitive_reduction = reader.parse("tr", true, "true or false")?;
            fgl.growlocal = reader.growlocal_params(true)?;
            Box::new(fgl)
        }
        "block-gl" => {
            let blocks = reader
                .parse_or_auto::<usize>("blocks", "a positive integer or auto")?
                .unwrap_or_else(|| n_cores.clamp(1, 8));
            if blocks == 0 {
                return Err(RegistryError::BadValue {
                    scheduler: "block-gl",
                    key: "blocks",
                    value: "0".into(),
                    expected: "a positive integer or auto",
                });
            }
            let mut bp = BlockParallel::new(blocks);
            bp.growlocal = reader.growlocal_params(true)?;
            Box::new(bp)
        }
        "wavefront" => Box::new(WavefrontScheduler),
        "hdagg" => {
            let defaults = HDagg::default();
            Box::new(HDagg {
                balance_threshold: reader.parse_in_range(
                    "balance",
                    defaults.balance_threshold,
                    "a float >= 1",
                    |b| *b >= 1.0,
                )?,
            })
        }
        "spmp" => Box::new(SpMp),
        "bspg" => {
            let defaults = BspG::default();
            let quota =
                reader
                    .parse_in_range("quota", defaults.quota, "a positive integer", |q| *q >= 1)?;
            Box::new(BspG { quota })
        }
        _ => unreachable!("info() only returns registered names"),
    })
}

/// Parses and builds in one step — the call every consumer makes.
pub fn resolve(
    text: &str,
    dag: &SolveDag,
    n_cores: usize,
) -> Result<Box<dyn Scheduler>, RegistryError> {
    build(&text.parse::<SchedulerSpec>()?, dag, n_cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptrsv_sparse::gen::grid::{grid2d_laplacian, Stencil2D};

    fn dag() -> SolveDag {
        SolveDag::from_edges(6, &[(0, 2), (1, 2), (2, 3), (3, 5), (4, 5)], vec![1; 6])
    }

    /// An application-like DAG: a block-shuffled grid Laplacian (a
    /// lexicographic grid has a single source, which funnel coarsening
    /// collapses to a near-trivial coarse DAG).
    fn grid_dag(w: usize, h: usize) -> SolveDag {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let a = grid2d_laplacian(w, h, Stencil2D::FivePoint, 0.5);
        let p = sptrsv_sparse::gen::shuffle::block_shuffle_permutation(a.n_rows(), 32, &mut rng);
        let l = a.symmetric_permute(&p).unwrap().lower_triangle().unwrap();
        SolveDag::from_lower_triangular(&l)
    }

    #[test]
    fn grammar_round_trips() {
        let spec: SchedulerSpec = "growlocal:alpha=8,sync=2000".parse().unwrap();
        assert_eq!(spec.name(), "growlocal");
        assert_eq!(spec.params().len(), 2);
        assert_eq!(spec.exec_model(), None);
        assert_eq!(spec.to_string(), "growlocal:alpha=8,sync=2000");
        assert_eq!("wavefront".parse::<SchedulerSpec>().unwrap().to_string(), "wavefront");
    }

    #[test]
    fn v2_grammar_round_trips_models_and_scopes() {
        let spec: SchedulerSpec = "funnel-gl:gl.alpha=8,cap=auto@async".parse().unwrap();
        assert_eq!(spec.name(), "funnel-gl");
        assert_eq!(spec.exec_model(), Some(ExecModel::Async));
        assert_eq!(
            spec.params(),
            &[("gl.alpha".into(), "8".into()), ("cap".into(), "auto".into())]
        );
        assert_eq!(spec.to_string(), "funnel-gl:gl.alpha=8,cap=auto@async");
        let spec: SchedulerSpec = "spmp@barrier".parse().unwrap();
        assert_eq!(spec.exec_model(), Some(ExecModel::Barrier));
        assert_eq!(spec.to_string(), "spmp@barrier");
        // Builder API mirrors the text grammar.
        let built =
            SchedulerSpec::new("growlocal").with("alpha", "8").with_model(ExecModel::Serial);
        assert_eq!(built.to_string(), "growlocal:alpha=8@serial");
        assert_eq!(built.to_string().parse::<SchedulerSpec>().unwrap(), built);
    }

    #[test]
    fn syntax_errors() {
        assert!(matches!("".parse::<SchedulerSpec>(), Err(RegistryError::Syntax(_))));
        assert!(matches!(
            "growlocal:alpha".parse::<SchedulerSpec>(),
            Err(RegistryError::Syntax(_))
        ));
        assert!(matches!("growlocal:=3".parse::<SchedulerSpec>(), Err(RegistryError::Syntax(_))));
        // Model suffix errors are grammar-level.
        assert!(matches!(
            "growlocal@warp".parse::<SchedulerSpec>(),
            Err(RegistryError::UnknownModel { .. })
        ));
        assert!(matches!(
            "growlocal@".parse::<SchedulerSpec>(),
            Err(RegistryError::UnknownModel { .. })
        ));
    }

    #[test]
    fn every_listed_example_builds_and_schedules() {
        let g = dag();
        for entry in list() {
            for example in entry.examples {
                let sched = resolve(example, &g, 3)
                    .unwrap_or_else(|e| panic!("example `{example}` failed: {e}"));
                let s = sched.schedule(&g, 3);
                assert!(s.validate(&g).is_ok(), "example `{example}` produced invalid schedule");
            }
        }
    }

    #[test]
    fn unknown_name_and_param_rejected() {
        let g = dag();
        assert!(matches!(
            resolve("does-not-exist", &g, 2),
            Err(RegistryError::UnknownScheduler { .. })
        ));
        assert!(matches!(
            resolve("wavefront:speed=11", &g, 2),
            Err(RegistryError::UnknownParam { .. })
        ));
        assert!(matches!(
            resolve("growlocal:alpha=lots", &g, 2),
            Err(RegistryError::BadValue { .. })
        ));
        assert!(matches!(
            resolve("funnel-gl:dir=sideways", &g, 2),
            Err(RegistryError::BadValue { .. })
        ));
        assert!(matches!(resolve("bspg:quota=0", &g, 2), Err(RegistryError::BadValue { .. })));
    }

    /// Every listed value of `key` on `scheduler` is rejected naming `key`.
    fn assert_out_of_range(scheduler: &str, key: &str, values: &[&str]) {
        let g = dag();
        for value in values {
            let text = format!("{scheduler}:{key}={value}");
            match resolve(&text, &g, 2) {
                Err(RegistryError::BadValue { key: k, value: v, .. }) => {
                    assert_eq!((k, v.as_str()), (key, *value), "{text}")
                }
                Err(e) => panic!("{text}: wrong error {e}"),
                Ok(_) => panic!("{text} built"),
            }
        }
    }

    #[test]
    fn balance_outside_its_range_is_rejected() {
        assert_out_of_range("hdagg", "balance", &["NaN", "-2", "0.99", "0"]);
        let g = dag();
        for ok in ["1", "1.15", "inf"] {
            assert!(resolve(&format!("hdagg:balance={ok}"), &g, 2).is_ok(), "balance={ok}");
        }
    }

    #[test]
    fn alpha_outside_its_range_is_rejected() {
        assert_out_of_range("growlocal", "alpha", &["0"]);
        assert_out_of_range("funnel-gl", "gl.alpha", &["0"]);
        assert_out_of_range("block-gl", "gl.alpha", &["0"]);
        assert!(resolve("growlocal:alpha=1", &dag(), 2).is_ok());
    }

    #[test]
    fn growth_outside_its_range_is_rejected() {
        let bad = ["0.5", "1", "NaN", "inf", "-3"];
        assert_out_of_range("growlocal", "growth", &bad);
        assert_out_of_range("funnel-gl", "gl.growth", &bad);
        assert_out_of_range("block-gl", "gl.growth", &bad);
        assert!(resolve("growlocal:growth=1.01", &dag(), 2).is_ok());
    }

    #[test]
    fn accept_outside_its_range_is_rejected() {
        let bad = ["NaN", "0", "-0.5", "1.5", "inf"];
        assert_out_of_range("growlocal", "accept", &bad);
        assert_out_of_range("funnel-gl", "gl.accept", &bad);
        assert_out_of_range("block-gl", "gl.accept", &bad);
        assert!(resolve("growlocal:accept=1", &dag(), 2).is_ok());
    }

    #[test]
    fn unknown_scopes_and_models_rejected() {
        let g = dag();
        // `growlocal` declares no `gl.` scope — its own keys are unscoped.
        assert!(matches!(
            resolve("growlocal:gl.alpha=8", &g, 2),
            Err(RegistryError::UnknownParam { .. })
        ));
        // A scope the composite scheduler does not declare.
        assert!(matches!(
            resolve("funnel-gl:inner.alpha=8", &g, 2),
            Err(RegistryError::UnknownParam { .. })
        ));
        // A scoped value that fails to parse names the scoped key.
        assert!(matches!(
            resolve("funnel-gl:gl.alpha=lots", &g, 2),
            Err(RegistryError::BadValue { key: "gl.alpha", .. })
        ));
        // Unknown model names fail at parse time, before name resolution.
        assert!(matches!(
            resolve("wavefront@vectorized", &g, 2),
            Err(RegistryError::UnknownModel { .. })
        ));
    }

    #[test]
    fn resolve_model_applies_defaults_and_suffixes() {
        for entry in list() {
            let spec = SchedulerSpec::new(entry.name);
            assert_eq!(resolve_model(&spec).unwrap(), entry.default_model(), "{}", entry.name);
            for &model in entry.exec_models {
                let spec = SchedulerSpec::new(entry.name).with_model(model);
                assert_eq!(resolve_model(&spec).unwrap(), model);
            }
        }
        // spmp defaults to async execution; everything else to barriers.
        assert_eq!(resolve_model(&SchedulerSpec::new("spmp")).unwrap(), ExecModel::Async);
        assert_eq!(resolve_model(&SchedulerSpec::new("growlocal")).unwrap(), ExecModel::Barrier);
        assert!(matches!(
            resolve_model(&SchedulerSpec::new("nope")),
            Err(RegistryError::UnknownScheduler { .. })
        ));
    }

    #[test]
    fn exec_policy_keys_parse_on_every_scheduler() {
        let g = dag();
        // Policy keys build on schedulers that declare no such parameter.
        for entry in list() {
            let spec = format!("{}:sync=full,backoff=yield", entry.name);
            let parsed: SchedulerSpec = spec.parse().unwrap();
            let policy = resolve_exec_policy(&parsed).unwrap();
            assert_eq!(policy.sync, SyncPolicy::Full);
            assert_eq!(policy.backoff, Backoff::Yield);
            assert!(resolve(&spec, &g, 2).is_ok(), "`{spec}` failed to build");
        }
        // Defaults: reduced waits, spin loops.
        let policy = resolve_exec_policy(&SchedulerSpec::new("spmp")).unwrap();
        assert_eq!(policy, ExecPolicy::default());
        assert_eq!(policy.sync, SyncPolicy::Reduced);
        assert_eq!(policy.backoff, Backoff::Spin);
        // Last occurrence wins.
        let spec: SchedulerSpec = "spmp:backoff=yield,backoff=spin".parse().unwrap();
        assert_eq!(resolve_exec_policy(&spec).unwrap().backoff, Backoff::Spin);
    }

    #[test]
    fn exec_policy_cores_key_parses_on_every_scheduler() {
        let g = dag();
        for entry in list() {
            let spec = format!("{}:cores=16", entry.name);
            let parsed: SchedulerSpec = spec.parse().unwrap();
            assert_eq!(resolve_exec_policy(&parsed).unwrap().cores, Some(16));
            assert!(resolve(&spec, &g, 2).is_ok(), "`{spec}` failed to build");
        }
        // Absent: defers to the consumer's own core count.
        assert_eq!(resolve_exec_policy(&SchedulerSpec::new("growlocal")).unwrap().cores, None);
        // Composes with the other policy dimensions and the model suffix.
        let spec: SchedulerSpec = "spmp:cores=8,sync=full,backoff=yield@async".parse().unwrap();
        let policy = resolve_exec_policy(&spec).unwrap();
        assert_eq!(policy.cores, Some(8));
        assert_eq!(policy.sync, SyncPolicy::Full);
        assert_eq!(policy.backoff, Backoff::Yield);
        // Bad values are policy errors (there is no scheduler fallback).
        assert!(matches!(
            resolve("growlocal:cores=0", &g, 2),
            Err(RegistryError::BadValue { key: "cores", .. })
        ));
        assert!(matches!(
            resolve("growlocal:cores=many", &g, 2),
            Err(RegistryError::BadValue { key: "cores", .. })
        ));
    }

    #[test]
    fn exec_policy_sync_disambiguates_by_value_domain() {
        let g = dag();
        // growlocal's numeric `sync` (barrier penalty L) is untouched…
        let spec: SchedulerSpec = "growlocal:sync=2000".parse().unwrap();
        assert_eq!(resolve_exec_policy(&spec).unwrap().sync, SyncPolicy::Reduced);
        assert!(build(&spec, &g, 2).is_ok());
        // …while `sync=full` is a policy key and leaves the scheduler's own
        // default in place (the schedules are identical).
        let plain = resolve("growlocal", &g, 3).unwrap().schedule(&g, 3);
        let full = resolve("growlocal:sync=full", &g, 3).unwrap().schedule(&g, 3);
        assert_eq!(plain, full, "sync=full leaked into growlocal's parameters");
        // Both dimensions at once, mixed with a real scheduler override.
        let mixed = resolve("growlocal:sync=2000,backoff=yield,sync=full", &g, 3).unwrap();
        let tuned = resolve("growlocal:sync=2000", &g, 3).unwrap();
        assert_eq!(mixed.schedule(&g, 3), tuned.schedule(&g, 3));
    }

    #[test]
    fn exec_policy_bad_values_rejected() {
        let g = dag();
        // `backoff` has no scheduler fallback: bad values are policy errors.
        assert!(matches!(
            resolve("spmp:backoff=fast", &g, 2),
            Err(RegistryError::BadValue { key: "backoff", .. })
        ));
        // A non-policy `sync` value on a scheduler without a `sync` parameter
        // falls through to the scheduler check.
        assert!(matches!(
            resolve("wavefront:sync=bogus", &g, 2),
            Err(RegistryError::UnknownParam { .. })
        ));
        // Round-trip of the policy values through Display/FromStr.
        for sync in [SyncPolicy::Full, SyncPolicy::Reduced] {
            assert_eq!(sync.to_string().parse::<SyncPolicy>().unwrap(), sync);
        }
        for backoff in [Backoff::Spin, Backoff::Yield] {
            assert_eq!(backoff.to_string().parse::<Backoff>().unwrap(), backoff);
        }
    }

    #[test]
    fn help_text_documents_exec_policy() {
        let help = help_text();
        for row in exec_policy_keys() {
            let line = format!("{:<12} {} (default {})", row.key, row.values, row.default);
            assert!(help.contains(&line), "`{line}` missing from help");
            assert!(help.contains(row.help), "`{}` help missing", row.key);
        }
        for gone in ["batch", "plan_cache", "linger", "warm-start"] {
            assert!(!help.contains(gone), "help still documents `{gone}`");
        }
    }

    #[test]
    fn policy_key_defaults_are_the_exec_policy_default() {
        // Every row whose default is a value resolves to the default
        // policy; `cores` defers to the caller and has no value default.
        for row in exec_policy_keys() {
            let spec = SchedulerSpec::new("growlocal").with(row.key, row.default);
            match resolve_exec_policy(&spec) {
                Ok(policy) => assert_eq!(policy, ExecPolicy::default(), "{}", row.key),
                Err(_) => assert_eq!(row.key, "cores"),
            }
        }
        assert_eq!(ExecPolicy::default().cores, None);
    }

    #[test]
    fn schedule_identity_strips_policy_and_model() {
        let spec: SchedulerSpec = "growlocal:alpha=8,fastmath=on,cores=4@async".parse().unwrap();
        assert_eq!(schedule_identity(&spec), "growlocal:alpha=8");
        // Identity is invariant under policy/model changes...
        let other: SchedulerSpec = "growlocal:alpha=8,backoff=yield@serial".parse().unwrap();
        assert_eq!(schedule_identity(&spec), schedule_identity(&other));
        // ...but tracks scheduler parameters.
        let tuned: SchedulerSpec = "growlocal:alpha=16".parse().unwrap();
        assert_ne!(schedule_identity(&spec), schedule_identity(&tuned));
        // `growlocal`'s own numeric `sync` survives the strip; the policy
        // `sync=full|reduced` does not (disjoint value domains).
        let gl: SchedulerSpec = "growlocal:sync=2000,sync=full".parse().unwrap();
        assert_eq!(schedule_identity(&gl), "growlocal:sync=2000");
    }

    #[test]
    fn exec_policy_fastmath_key_parses_on_every_scheduler() {
        let g = dag();
        for entry in list() {
            let spec = format!("{}:fastmath=on", entry.name);
            let policy = resolve_exec_policy(&spec.parse().unwrap()).unwrap();
            assert!(policy.fastmath);
            assert!(resolve(&spec, &g, 2).is_ok(), "`{spec}` failed to build");
        }
        // Default: the exact scalar kernels.
        assert!(!resolve_exec_policy(&SchedulerSpec::new("growlocal")).unwrap().fastmath);
        assert!(matches!(
            resolve("growlocal:fastmath=fast", &g, 2),
            Err(RegistryError::BadValue { key: "fastmath", .. })
        ));
    }

    #[test]
    fn removed_policy_keys_are_unknown_params_on_every_scheduler() {
        // `grant=`, `elastic=` and `shrink=` are not execution-policy
        // keys, nor are the serving keys `batch=` / `batch_wait_us=` or the
        // warm-start `plan_cache=`: on any scheduler they are parameters
        // the scheduler does not declare, rejected by name — never ignored.
        let g = dag();
        for entry in list() {
            for (key, value) in [
                ("grant", "on"),
                ("elastic", "on"),
                ("shrink", "on"),
                ("batch", "8"),
                ("batch_wait_us", "0"),
                ("plan_cache", "/tmp/x"),
            ] {
                let spec = format!("{}:{key}={value}", entry.name);
                let parsed: SchedulerSpec = spec.parse().unwrap();
                let named = |e: RegistryError| matches!(e, RegistryError::UnknownParam { key: ref k, .. } if k == key);
                assert!(validate(&parsed).err().is_some_and(named), "`{spec}` validated");
                assert!(resolve(&spec, &g, 2).err().is_some_and(named), "`{spec}` built");
            }
        }
        assert!(!help_text().contains("grant"));
        // The policy key set is exactly the table's four rows: a schedule
        // identity strips all of them and nothing else.
        let keys: Vec<&str> = exec_policy_keys().iter().map(|row| row.key).collect();
        assert_eq!(keys, ["sync", "backoff", "cores", "fastmath"]);
        let spec: SchedulerSpec =
            "growlocal:sync=full,backoff=yield,cores=2,fastmath=on,alpha=8".parse().unwrap();
        assert_eq!(schedule_identity(&spec), "growlocal:alpha=8");
    }

    #[test]
    fn parameters_reach_the_scheduler() {
        let g = dag();
        // growlocal priority flips the reported name.
        let gl = resolve("growlocal:priority=id-only", &g, 2).unwrap();
        assert_eq!(gl.name(), "GrowLocal(id-only)");
        let gl = resolve("growlocal", &g, 2).unwrap();
        assert_eq!(gl.name(), "GrowLocal");
        // Later duplicates win.
        let spec: SchedulerSpec = "growlocal:alpha=5,alpha=9".parse().unwrap();
        assert_eq!(spec.get("alpha"), Some("9"));
    }

    #[test]
    fn scoped_params_reach_the_inner_growlocal() {
        // funnel-gl:gl.* must configure the inner GrowLocal exactly as a
        // hand-built FunnelGrowLocal with the same parameters does…
        let g = grid_dag(40, 40);
        let spec = "funnel-gl:cap=16,gl.alpha=1,gl.growth=1.01,gl.sync=0";
        let via_spec = resolve(spec, &g, 4).unwrap().schedule(&g, 4);
        let mut fgl = FunnelGrowLocal::for_dag(&g, 4);
        fgl.max_part_weight = 16;
        fgl.growlocal.alpha_init = 1;
        fgl.growlocal.growth = 1.01;
        fgl.growlocal.sync_cost = 0;
        assert_eq!(via_spec, fgl.schedule(&g, 4));
        // …and demonstrably change the schedule relative to the defaults.
        let default = resolve("funnel-gl:cap=16", &g, 4).unwrap().schedule(&g, 4);
        assert_ne!(via_spec, default, "gl.* overrides did not reach the inner GrowLocal");
        assert!(via_spec.validate(&g).is_ok());
    }

    #[test]
    fn scoped_params_reach_block_gl_inner_growlocal() {
        let g = grid_dag(24, 24);
        let via_spec =
            resolve("block-gl:blocks=2,gl.alpha=1,gl.growth=1.01,gl.sync=0", &g, 4).unwrap();
        let mut bp = BlockParallel::new(2);
        bp.growlocal.alpha_init = 1;
        bp.growlocal.growth = 1.01;
        bp.growlocal.sync_cost = 0;
        assert_eq!(via_spec.schedule(&g, 4), bp.schedule(&g, 4));
        let default = resolve("block-gl:blocks=2", &g, 4).unwrap().schedule(&g, 4);
        assert_ne!(via_spec.schedule(&g, 4), default);
    }

    #[test]
    fn last_scheduler_list_is_documented() {
        // The registry declares defaults that match the schedulers' own
        // Default impls, so the help text never lies.
        let defaults = GrowLocalParams::default();
        let gl = info("growlocal").unwrap();
        let by_key = |k: &str| gl.params.iter().find(|p| p.key == k).unwrap().default;
        assert_eq!(by_key("alpha"), defaults.alpha_init.to_string());
        assert_eq!(by_key("growth"), defaults.growth.to_string());
        assert_eq!(by_key("sync"), defaults.sync_cost.to_string());
        assert_eq!(info("bspg").unwrap().params[0].default, BspG::default().quota.to_string());
        assert_eq!(
            info("hdagg").unwrap().params[0].default,
            HDagg::default().balance_threshold.to_string()
        );
        // The `gl.` scope declares the same defaults as `growlocal` itself.
        for scoped in &GL_SCOPED_PARAMS {
            let unscoped = scoped.key.strip_prefix("gl.").unwrap();
            assert_eq!(
                scoped.default,
                by_key(unscoped),
                "scoped default for {} drifted from growlocal's",
                scoped.key
            );
        }
        // Every scheduler declares at least one execution model.
        for entry in list() {
            assert!(!entry.exec_models.is_empty(), "{} lists no exec models", entry.name);
        }
    }

    #[test]
    fn help_text_lists_every_scheduler_and_model() {
        let help = help_text();
        for entry in list() {
            assert!(help.contains(entry.name), "{} missing from help", entry.name);
        }
        for model in ExecModel::ALL {
            assert!(help.contains(model.as_str()), "{model} missing from help");
        }
    }
}
