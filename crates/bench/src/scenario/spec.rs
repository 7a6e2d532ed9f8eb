//! The declarative scenario-matrix spec: a TOML-like `key = value`
//! format (no external dependencies) describing machines, analysis modes
//! and task sets, where any key may carry a *list* value — the matrix is
//! the cross product over all list-valued keys.
//!
//! ```text
//! # 2 machines × 2 arbiters × 3 cache layouts × 2 modes = 24 cells
//! name     = example
//! cores    = [2, 4]
//! arbiter  = [rr, tdma:10]
//! l2       = [shared, partitioned, none]
//! mode     = [isolated, joint]
//! tasks    = "fir:4x8 crc:24"
//! ```
//!
//! | key | meaning | values |
//! |---|---|---|
//! | `name` | matrix name (scalar only) | free text |
//! | `cores` | core count | positive integer |
//! | `smt` | hardware threads per core | `none` (scalar cores) or a thread count |
//! | `arbiter` | bus arbitration | [`ArbiterKind`] spec: `rr`, `tdma:SLOT`, `mbba:W1-W2-…@SLOT`, `fp:HRT`, `wheel:WINDOW` |
//! | `transfer` | bus cycles per line transfer | positive integer, at most [`MAX_SPEC_CYCLES`] |
//! | `mem_latency` | predictable-memory latency | integer, at most [`MAX_SPEC_CYCLES`] |
//! | `l1i`, `l1d` | private L1 geometries | [`CacheConfig`] spec `SETSxWAYSxLINE@LAT` |
//! | `l2_geom` | shared L2 geometry | [`CacheConfig`] spec |
//! | `l2` | shared-L2 layout | `shared`, `partitioned`, `locked:WAYS`, `bypass`, `none` |
//! | `mode` | analysis mode | `solo`, `isolated`, `joint`, `static-ctrl`, `static-lock:WAYS`, `dynamic-lock:WAYS` |
//! | `analyze` | which tasks get bounds | `all` (default) or `victim` (task 0 only; the rest are pure interference sources) |
//! | `tasks` | one task set | whitespace-separated kernel specs (see [`wcet_ir::synth::parse_kernel`]); task *i* is placed at address slot *i*, core *i* mod `cores` |
//! | `cycle_limit` | simulator budget for validation | positive integer |

use std::fmt;

use wcet_arbiter::{ArbiterKind, MAX_SPEC_CYCLES};
use wcet_cache::config::CacheConfig;

/// Spec-file parse or expansion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line is not `key = value` (or a list continuation).
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A key is not in the schema table above.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The unknown key.
        key: String,
    },
    /// A key appeared twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// A `[` list was never closed.
    UnclosedList {
        /// 1-based line number where the list started.
        line: usize,
    },
    /// A value failed its key's parser.
    BadValue {
        /// The key whose value failed.
        key: &'static str,
        /// The offending value.
        value: String,
        /// Parser diagnostic.
        why: String,
    },
    /// A key was given an empty list (`[]`): the cross product would be
    /// empty.
    EmptyAxis {
        /// The empty key.
        key: &'static str,
    },
    /// The spec has no `tasks` key.
    MissingTasks,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadLine { line, text } => {
                write!(f, "line {line}: expected `key = value`, got {text:?}")
            }
            SpecError::UnknownKey { line, key } => write!(f, "line {line}: unknown key {key:?}"),
            SpecError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            SpecError::UnclosedList { line } => {
                write!(f, "line {line}: `[` list is never closed")
            }
            SpecError::BadValue { key, value, why } => {
                write!(f, "key {key:?}: bad value {value:?}: {why}")
            }
            SpecError::EmptyAxis { key } => {
                write!(f, "key {key:?}: an empty list makes the matrix empty")
            }
            SpecError::MissingTasks => f.write_str("spec defines no `tasks`"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Shared-L2 layout of one scenario (the `l2` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Layout {
    /// Free-for-all shared L2 (interference analysis required).
    Shared,
    /// Even way-partitioning among cores.
    Partitioned,
    /// Shared, with up to `ways` ways per set of every task's hottest
    /// lines locked at reset (union over tasks).
    Locked {
        /// Lockable ways per set, per task.
        ways: u32,
    },
    /// Shared, with every task's single-usage lines bypassing the L2.
    Bypass,
}

impl L2Layout {
    /// The spec label (inverse of the parser).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            L2Layout::Shared => "shared".into(),
            L2Layout::Partitioned => "partitioned".into(),
            L2Layout::Locked { ways } => format!("locked:{ways}"),
            L2Layout::Bypass => "bypass".into(),
        }
    }
}

/// Analysis mode of one scenario (the `mode` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSpec {
    /// Classic solo analysis — the paper's *unsafe* reference line.
    Solo,
    /// Task isolation: sound with no co-runner knowledge.
    Isolated,
    /// Joint analysis: each task is analysed against the L2 footprints of
    /// every other task in the same scenario.
    Joint,
    /// Statically-controlled sharing, unlocked: the
    /// [`wcet_core::static_ctrl`] path with machine-derived parameters.
    StaticCtrl,
    /// Statically-controlled sharing with static cache locking.
    StaticLock {
        /// Lockable ways per set.
        ways: u32,
    },
    /// Statically-controlled sharing with dynamic (per-region) locking.
    DynamicLock {
        /// Lockable ways per set.
        ways: u32,
    },
}

impl ModeSpec {
    /// The spec label (inverse of the parser).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ModeSpec::Solo => "solo".into(),
            ModeSpec::Isolated => "isolated".into(),
            ModeSpec::Joint => "joint".into(),
            ModeSpec::StaticCtrl => "static-ctrl".into(),
            ModeSpec::StaticLock { ways } => format!("static-lock:{ways}"),
            ModeSpec::DynamicLock { ways } => format!("dynamic-lock:{ways}"),
        }
    }

    /// True for the statically-controlled family (routed through
    /// [`wcet_core::static_ctrl`] rather than the engine).
    #[must_use]
    pub fn is_static_family(&self) -> bool {
        matches!(
            self,
            ModeSpec::StaticCtrl | ModeSpec::StaticLock { .. } | ModeSpec::DynamicLock { .. }
        )
    }

    /// True for the lock modes, whose assumed cache contents are an
    /// analysis construct the simulated machine does not realize (their
    /// cells are analysis-only; validation is skipped).
    #[must_use]
    pub fn is_lock_mode(&self) -> bool {
        matches!(
            self,
            ModeSpec::StaticLock { .. } | ModeSpec::DynamicLock { .. }
        )
    }

    /// True when the mode's bound is sound *by construction* for the
    /// scenario it appears in: `solo` ignores co-runner contention, so it
    /// is only expected to hold when the task set has no co-runners.
    #[must_use]
    pub fn expected_sound(&self, num_tasks: usize) -> bool {
        !matches!(self, ModeSpec::Solo) || num_tasks <= 1
    }
}

/// Which tasks of a cell are analysed (the `analyze` axis). All tasks
/// are always *loaded* in validation runs; this only selects whose
/// bounds are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeSpec {
    /// Analyse every task (the default).
    #[default]
    All,
    /// Analyse only task 0 — the conventional victim — and treat the
    /// remaining tasks purely as interference sources (footprints for
    /// `joint`, co-runners in validation). This is the k-sweep shape:
    /// exp02 sweeps co-runner counts without paying for bounds nobody
    /// reads.
    Victim,
}

impl AnalyzeSpec {
    /// The spec label (inverse of the parser).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AnalyzeSpec::All => "all",
            AnalyzeSpec::Victim => "victim",
        }
    }
}

/// One concrete scenario: a fully-instantiated machine + task-set +
/// analysis-mode description (one cell of an expanded matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Cell name, `matrix#ordinal`.
    pub name: String,
    /// Core count.
    pub cores: usize,
    /// Hardware threads per core (`None` = scalar cores).
    pub smt_threads: Option<u32>,
    /// Bus arbitration scheme.
    pub arbiter: ArbiterKind,
    /// Bus cycles per line transfer.
    pub bus_transfer: u64,
    /// Predictable-memory latency.
    pub mem_latency: u64,
    /// Private L1I geometry (every core).
    pub l1i: CacheConfig,
    /// Private L1D geometry (every core).
    pub l1d: CacheConfig,
    /// Shared-L2 geometry, `None` for machines without an L2.
    pub l2_geom: Option<CacheConfig>,
    /// Shared-L2 layout (ignored when `l2_geom` is `None`).
    pub l2_layout: L2Layout,
    /// Analysis mode.
    pub mode: ModeSpec,
    /// Which tasks get bounds (all tasks are loaded regardless).
    pub analyze: AnalyzeSpec,
    /// Kernel specs; task *i* lives at address slot *i* and runs on core
    /// *i* mod `cores`, hardware thread *i* div `cores`.
    pub tasks: Vec<String>,
    /// Simulator cycle budget for validation runs.
    pub cycle_limit: u64,
}

impl Scenario {
    /// A one-line human summary of the cell (axis values only).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "cores={}{} arbiter={} bus={} mem={} l1i={} l1d={} l2={} mode={}{} tasks={} \
             cycle_limit={}",
            self.cores,
            self.smt_threads
                .map(|t| format!(" smt={t}"))
                .unwrap_or_default(),
            self.arbiter.spec(),
            self.bus_transfer,
            self.mem_latency,
            self.l1i.spec(),
            self.l1d.spec(),
            match self.l2_geom {
                Some(g) => format!("{}@{}", self.l2_layout.label(), g.spec()),
                None => "none".into(),
            },
            self.mode.label(),
            match self.analyze {
                AnalyzeSpec::All => String::new(),
                AnalyzeSpec::Victim => " analyze=victim".into(),
            },
            self.tasks.join("+"),
            self.cycle_limit,
        )
    }
}

/// A parsed scenario matrix: one list of values per axis, expanded to
/// concrete [`Scenario`] cells by [`ScenarioMatrix::expand`].
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Matrix name.
    pub name: String,
    cores: Vec<usize>,
    smt: Vec<Option<u32>>,
    arbiter: Vec<ArbiterKind>,
    transfer: Vec<u64>,
    mem_latency: Vec<u64>,
    l1i: Vec<CacheConfig>,
    l1d: Vec<CacheConfig>,
    l2_geom: Vec<CacheConfig>,
    l2: Vec<Option<L2Layout>>,
    mode: Vec<ModeSpec>,
    analyze: Vec<AnalyzeSpec>,
    tasks: Vec<Vec<String>>,
    cycle_limit: Vec<u64>,
}

/// One raw `key = [values…]` binding out of the line parser.
struct RawBinding {
    line: usize,
    key: String,
    values: Vec<String>,
    is_list: bool,
}

/// Splits spec text into raw bindings: comments stripped, one binding per
/// `key = value` with `[…]` lists allowed to span lines.
fn raw_bindings(src: &str) -> Result<Vec<RawBinding>, SpecError> {
    let mut out: Vec<RawBinding> = Vec::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, line)) = lines.next() {
        let line_no = idx + 1;
        let stripped = strip_comment(line).trim().to_string();
        if stripped.is_empty() {
            continue;
        }
        let Some((key, value)) = stripped.split_once('=') else {
            return Err(SpecError::BadLine {
                line: line_no,
                text: stripped,
            });
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        let is_list = value.starts_with('[');
        if is_list {
            // Consume continuation lines until the list closes.
            while !value.contains(']') {
                match lines.next() {
                    Some((_, cont)) => {
                        value.push(' ');
                        value.push_str(strip_comment(cont).trim());
                    }
                    None => return Err(SpecError::UnclosedList { line: line_no }),
                }
            }
        }
        let values = if is_list {
            let (inner, tail) = value
                .strip_prefix('[')
                .expect("is_list implies a leading bracket")
                .split_once(']')
                .expect("the continuation loop ensured a closing bracket");
            if inner.contains('[') {
                return Err(SpecError::BadLine {
                    line: line_no,
                    text: value.clone(),
                });
            }
            if !tail.trim().is_empty() {
                return Err(SpecError::BadLine {
                    line: line_no,
                    text: tail.trim().to_string(),
                });
            }
            inner
                .split(',')
                .map(|v| unquote(v.trim()).to_string())
                .filter(|v| !v.is_empty())
                .collect()
        } else {
            vec![unquote(&value).to_string()]
        };
        out.push(RawBinding {
            line: line_no,
            key,
            values,
            is_list,
        });
    }
    Ok(out)
}

/// Drops a trailing `#` comment (the format keeps `#` out of values, so
/// no quote-awareness is needed beyond "not inside a quoted value").
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(v: &str) -> &str {
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(v)
}

fn parse_axis<T, E: fmt::Display>(
    key: &'static str,
    values: &[String],
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, SpecError> {
    if values.is_empty() {
        return Err(SpecError::EmptyAxis { key });
    }
    values
        .iter()
        .map(|v| {
            parse(v).map_err(|e| SpecError::BadValue {
                key,
                value: v.clone(),
                why: e.to_string(),
            })
        })
        .collect()
}

fn parse_l2_layout(v: &str) -> Result<Option<L2Layout>, String> {
    let (head, arg) = match v.split_once(':') {
        Some((head, arg)) => (head.trim(), Some(arg.trim())),
        None => (v.trim(), None),
    };
    let ways = |arg: Option<&str>| {
        arg.and_then(|a| a.parse::<u32>().ok())
            .filter(|&w| w > 0)
            .ok_or_else(|| format!("{head} needs a positive way count"))
    };
    match (head, arg) {
        ("shared", None) => Ok(Some(L2Layout::Shared)),
        ("partitioned", None) => Ok(Some(L2Layout::Partitioned)),
        ("locked", _) => Ok(Some(L2Layout::Locked { ways: ways(arg)? })),
        ("bypass", None) => Ok(Some(L2Layout::Bypass)),
        ("none", None) => Ok(None),
        _ => Err("expected shared | partitioned | locked:WAYS | bypass | none".into()),
    }
}

fn parse_mode(v: &str) -> Result<ModeSpec, String> {
    let (head, arg) = match v.split_once(':') {
        Some((head, arg)) => (head.trim(), Some(arg.trim())),
        None => (v.trim(), None),
    };
    let ways = |arg: Option<&str>| {
        arg.and_then(|a| a.parse::<u32>().ok())
            .filter(|&w| w > 0)
            .ok_or_else(|| format!("{head} needs a positive way count"))
    };
    match (head, arg) {
        ("solo", None) => Ok(ModeSpec::Solo),
        ("isolated", None) => Ok(ModeSpec::Isolated),
        ("joint", None) => Ok(ModeSpec::Joint),
        ("static-ctrl", None) => Ok(ModeSpec::StaticCtrl),
        ("static-lock", _) => Ok(ModeSpec::StaticLock { ways: ways(arg)? }),
        ("dynamic-lock", _) => Ok(ModeSpec::DynamicLock { ways: ways(arg)? }),
        _ => Err(
            "expected solo | isolated | joint | static-ctrl | static-lock:WAYS | \
             dynamic-lock:WAYS"
                .into(),
        ),
    }
}

fn parse_analyze(v: &str) -> Result<AnalyzeSpec, String> {
    match v.trim() {
        "all" => Ok(AnalyzeSpec::All),
        "victim" => Ok(AnalyzeSpec::Victim),
        _ => Err("expected all | victim".into()),
    }
}

fn parse_smt(v: &str) -> Result<Option<u32>, String> {
    match v.trim() {
        "none" => Ok(None),
        t => t
            .parse::<u32>()
            .ok()
            .filter(|&t| t > 0)
            .map(Some)
            .ok_or_else(|| "expected none or a positive thread count".into()),
    }
}

fn parse_tasks(v: &str) -> Result<Vec<String>, String> {
    let tasks: Vec<String> = v.split_whitespace().map(str::to_string).collect();
    if tasks.is_empty() {
        return Err("a task set needs at least one kernel spec".into());
    }
    for t in &tasks {
        // Validate eagerly with a throw-away placement.
        wcet_ir::synth::parse_kernel(t, wcet_ir::synth::Placement::slot(0))?;
    }
    Ok(tasks)
}

/// Parses a scenario-matrix spec (see the [module docs](self) for the
/// format and key table).
///
/// # Errors
///
/// Returns [`SpecError`] describing the first problem found.
pub fn parse_matrix(src: &str) -> Result<ScenarioMatrix, SpecError> {
    // Defaults mirror `MachineConfig::symmetric` and the experiment
    // binaries' conventions.
    let mut m = ScenarioMatrix {
        name: "matrix".into(),
        cores: vec![2],
        smt: vec![None],
        arbiter: vec![ArbiterKind::RoundRobin],
        transfer: vec![8],
        mem_latency: vec![30],
        l1i: vec![CacheConfig::new(32, 2, 16, 1).expect("valid default")],
        l1d: vec![CacheConfig::new(16, 2, 32, 1).expect("valid default")],
        l2_geom: vec![CacheConfig::new(256, 8, 32, 4).expect("valid default")],
        l2: vec![Some(L2Layout::Shared)],
        mode: vec![ModeSpec::Isolated],
        analyze: vec![AnalyzeSpec::All],
        tasks: Vec::new(),
        cycle_limit: vec![500_000_000],
    };
    let mut seen: Vec<String> = Vec::new();
    for b in raw_bindings(src)? {
        if seen.contains(&b.key) {
            return Err(SpecError::DuplicateKey {
                line: b.line,
                key: b.key,
            });
        }
        seen.push(b.key.clone());
        let positive_usize = |v: &str| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("expected a positive integer")
        };
        let positive_u64 = |v: &str| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or("expected a positive integer")
        };
        // Cycle values enter the `u64` timing arithmetic unchecked, so
        // they are capped where they enter.
        let cycles = |v: &str, least: u64| {
            v.parse::<u64>()
                .ok()
                .filter(|n| (least..=MAX_SPEC_CYCLES).contains(n))
                .ok_or_else(|| format!("expected an integer in {least}..={MAX_SPEC_CYCLES}"))
        };
        match b.key.as_str() {
            "name" => {
                if b.is_list {
                    return Err(SpecError::BadValue {
                        key: "name",
                        value: b.values.join(","),
                        why: "the matrix name cannot be an axis".into(),
                    });
                }
                m.name = b.values[0].clone();
            }
            "cores" => m.cores = parse_axis("cores", &b.values, positive_usize)?,
            "smt" => m.smt = parse_axis("smt", &b.values, parse_smt)?,
            "arbiter" => {
                m.arbiter = parse_axis("arbiter", &b.values, str::parse::<ArbiterKind>)?;
            }
            "transfer" => m.transfer = parse_axis("transfer", &b.values, |v| cycles(v, 1))?,
            "mem_latency" => {
                m.mem_latency = parse_axis("mem_latency", &b.values, |v| cycles(v, 0))?;
            }
            "l1i" => m.l1i = parse_axis("l1i", &b.values, str::parse::<CacheConfig>)?,
            "l1d" => m.l1d = parse_axis("l1d", &b.values, str::parse::<CacheConfig>)?,
            "l2_geom" => m.l2_geom = parse_axis("l2_geom", &b.values, str::parse::<CacheConfig>)?,
            "l2" => m.l2 = parse_axis("l2", &b.values, parse_l2_layout)?,
            "mode" => m.mode = parse_axis("mode", &b.values, parse_mode)?,
            "analyze" => m.analyze = parse_axis("analyze", &b.values, parse_analyze)?,
            "tasks" => m.tasks = parse_axis("tasks", &b.values, parse_tasks)?,
            "cycle_limit" => m.cycle_limit = parse_axis("cycle_limit", &b.values, positive_u64)?,
            _ => {
                return Err(SpecError::UnknownKey {
                    line: b.line,
                    key: b.key,
                })
            }
        }
    }
    if m.tasks.is_empty() {
        return Err(SpecError::MissingTasks);
    }
    Ok(m)
}

/// Number of matrix axes — the width of the mixed-radix odometer over a
/// [`ScenarioMatrix`]. Axis index order (`cores` = 0 outermost …
/// `cycle_limit` = 12 innermost) defines lexicographic cell ranks and
/// therefore cell names.
pub const NUM_AXES: usize = 13;

// The axis indices, in odometer order.
pub(crate) const AXIS_CORES: usize = 0;
pub(crate) const AXIS_SMT: usize = 1;
pub(crate) const AXIS_ARBITER: usize = 2;
pub(crate) const AXIS_TRANSFER: usize = 3;
pub(crate) const AXIS_MEM_LATENCY: usize = 4;
pub(crate) const AXIS_L1I: usize = 5;
pub(crate) const AXIS_L1D: usize = 6;
pub(crate) const AXIS_L2_GEOM: usize = 7;
pub(crate) const AXIS_L2: usize = 8;
pub(crate) const AXIS_MODE: usize = 9;
pub(crate) const AXIS_ANALYZE: usize = 10;
pub(crate) const AXIS_TASKS: usize = 11;
/// `cycle_limit` — the only axis that changes *nothing* about a cell's
/// analysis (it budgets the validation replay alone).
pub(crate) const AXIS_CYCLE_LIMIT: usize = 12;

/// The axes whose value reaches the analysis only through the bus /
/// memory timing side: they leave every cache-hierarchy input —
/// geometries, layout, partition shifts, task contents — untouched.
pub(crate) const AXES_BUS_ONLY: [usize; 3] = [AXIS_ARBITER, AXIS_TRANSFER, AXIS_MEM_LATENCY];

/// The axes a cell's build (machine, programs and placement) reads:
/// every axis but `mode`, `analyze` and `cycle_limit`.
pub(crate) const BUILD_AXES: [usize; 10] = [
    AXIS_CORES,
    AXIS_SMT,
    AXIS_ARBITER,
    AXIS_TRANSFER,
    AXIS_MEM_LATENCY,
    AXIS_L1I,
    AXIS_L1D,
    AXIS_L2_GEOM,
    AXIS_L2,
    AXIS_TASKS,
];

impl ScenarioMatrix {
    /// Number of cells the cross product yields (before deduplication).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.radices().iter().product()
    }

    /// Per-axis value counts, in axis-index order (`cores` first,
    /// `cycle_limit` last) — the mixed radices of the odometer.
    #[must_use]
    pub fn radices(&self) -> [usize; NUM_AXES] {
        let mut radices = [0; NUM_AXES];
        radices[AXIS_CORES] = self.cores.len();
        radices[AXIS_SMT] = self.smt.len();
        radices[AXIS_ARBITER] = self.arbiter.len();
        radices[AXIS_TRANSFER] = self.transfer.len();
        radices[AXIS_MEM_LATENCY] = self.mem_latency.len();
        radices[AXIS_L1I] = self.l1i.len();
        radices[AXIS_L1D] = self.l1d.len();
        radices[AXIS_L2_GEOM] = self.l2_geom.len();
        radices[AXIS_L2] = self.l2.len();
        radices[AXIS_MODE] = self.mode.len();
        radices[AXIS_ANALYZE] = self.analyze.len();
        radices[AXIS_TASKS] = self.tasks.len();
        radices[AXIS_CYCLE_LIMIT] = self.cycle_limit.len();
        radices
    }

    /// The lexicographic rank of an odometer position: the ordinal
    /// [`ScenarioMatrix::expand`] would assign the same cell, so streaming
    /// and materialized expansion agree on names.
    #[must_use]
    pub fn lex_rank(&self, digits: &[usize; NUM_AXES]) -> usize {
        let radices = self.radices();
        digits
            .iter()
            .zip(radices)
            .fold(0, |rank, (&digit, radix)| rank * radix + digit)
    }

    /// The concrete cell at an odometer position (one value index per
    /// axis), named by its lexicographic rank.
    ///
    /// # Panics
    ///
    /// Panics if a digit is out of its axis's range.
    #[must_use]
    pub fn cell_at(&self, digits: &[usize; NUM_AXES]) -> Scenario {
        let layout = self.l2[digits[AXIS_L2]];
        Scenario {
            name: format!("{}#{:03}", self.name, self.lex_rank(digits)),
            cores: self.cores[digits[AXIS_CORES]],
            smt_threads: self.smt[digits[AXIS_SMT]],
            arbiter: self.arbiter[digits[AXIS_ARBITER]].clone(),
            bus_transfer: self.transfer[digits[AXIS_TRANSFER]],
            mem_latency: self.mem_latency[digits[AXIS_MEM_LATENCY]],
            l1i: self.l1i[digits[AXIS_L1I]],
            l1d: self.l1d[digits[AXIS_L1D]],
            l2_geom: layout.map(|_| self.l2_geom[digits[AXIS_L2_GEOM]]),
            l2_layout: layout.unwrap_or(L2Layout::Shared),
            mode: self.mode[digits[AXIS_MODE]],
            analyze: self.analyze[digits[AXIS_ANALYZE]],
            tasks: self.tasks[digits[AXIS_TASKS]].clone(),
            cycle_limit: self.cycle_limit[digits[AXIS_CYCLE_LIMIT]],
        }
    }

    /// Expands the full cross product into concrete cells, in a fixed
    /// axis order (`cores` outermost, `cycle_limit` innermost, each axis
    /// iterating in declaration order). Duplicate cells are *kept* here;
    /// the runner deduplicates by semantic fingerprint.
    ///
    /// Materializes every cell — use the streaming campaign runner
    /// (`scenario::stream`) for matrices beyond ~10³ cells.
    #[must_use]
    pub fn expand(&self) -> Vec<Scenario> {
        let radices = self.radices();
        let mut cells = Vec::with_capacity(self.num_cells());
        let mut digits = [0usize; NUM_AXES];
        'cells: loop {
            cells.push(self.cell_at(&digits));
            // Lexicographic increment, innermost axis fastest.
            for axis in (0..NUM_AXES).rev() {
                digits[axis] += 1;
                if digits[axis] < radices[axis] {
                    continue 'cells;
                }
                digits[axis] = 0;
            }
            break;
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# A comment-only line.
name = demo
cores = [2, 4]          # trailing comment
arbiter = [rr, tdma:10]
l2 = [shared, none]
mode = joint
tasks = [
  "fir:4x8 crc:24",
  "fir:4x8",
]
"#;

    #[test]
    fn parses_and_expands_the_cross_product() {
        let m = parse_matrix(EXAMPLE).expect("parses");
        assert_eq!(m.name, "demo");
        assert_eq!(m.num_cells(), 2 * 2 * 2 * 2);
        let cells = m.expand();
        assert_eq!(cells.len(), 16);
        // Fixed axis order: cores outermost.
        assert_eq!(cells[0].cores, 2);
        assert_eq!(cells[8].cores, 4);
        assert_eq!(cells[0].tasks, vec!["fir:4x8", "crc:24"]);
        assert_eq!(cells[1].tasks, vec!["fir:4x8"]);
        // `l2 = none` clears the geometry.
        assert!(cells[0].l2_geom.is_some());
        assert!(cells[2].l2_geom.is_none());
        assert_eq!(cells[3].name, "demo#003");
        // The summary carries every axis, so any two distinct cells of
        // any sweep render distinct descriptions.
        assert!(cells[0].summary().contains("arbiter=rr"));
        assert!(cells[0].summary().contains("bus=8"));
        assert!(cells[0].summary().contains("l1d=16x2x32@1"));
        assert!(cells[0].summary().contains("cycle_limit=500000000"));
    }

    #[test]
    fn defaults_cover_every_key_but_tasks() {
        let m = parse_matrix("tasks = fir:4x8").expect("parses");
        assert_eq!(m.num_cells(), 1);
        let cell = &m.expand()[0];
        assert_eq!(cell.cores, 2);
        assert_eq!(cell.arbiter, ArbiterKind::RoundRobin);
        assert_eq!(cell.mode, ModeSpec::Isolated);
        assert_eq!(cell.cycle_limit, 500_000_000);
        assert_eq!(
            parse_matrix("").expect_err("empty spec"),
            SpecError::MissingTasks
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(matches!(
            parse_matrix("tasks fir:4x8"),
            Err(SpecError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_matrix("bogus = 3\ntasks = fir:4x8"),
            Err(SpecError::UnknownKey { line: 1, .. })
        ));
        assert!(matches!(
            parse_matrix("cores = 2\ncores = 4\ntasks = fir:4x8"),
            Err(SpecError::DuplicateKey { line: 2, .. })
        ));
        assert!(matches!(
            parse_matrix("tasks = [\n \"fir:4x8\","),
            Err(SpecError::UnclosedList { line: 1 })
        ));
        // Trailing text after a closing `]` must be rejected, not
        // silently dropped (it is almost always a lost second binding).
        assert!(matches!(
            parse_matrix("l2 = [shared] mode = joint\ntasks = fir:4x8"),
            Err(SpecError::BadLine { line: 1, .. })
        ));
        // Doubled brackets are a typo, not a value.
        assert!(matches!(
            parse_matrix("l2 = [[shared]\ntasks = fir:4x8"),
            Err(SpecError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            parse_matrix("cores = 0\ntasks = fir:4x8"),
            Err(SpecError::BadValue { key: "cores", .. })
        ));
        assert!(matches!(
            parse_matrix("mode = lattice\ntasks = fir:4x8"),
            Err(SpecError::BadValue { key: "mode", .. })
        ));
        assert!(matches!(
            parse_matrix("tasks = warp:9"),
            Err(SpecError::BadValue { key: "tasks", .. })
        ));
        assert!(matches!(
            parse_matrix("l2 = []\ntasks = fir:4x8"),
            Err(SpecError::EmptyAxis { key: "l2" })
        ));
        // Cycle values above `MAX_SPEC_CYCLES` would wrap the bounds.
        assert!(matches!(
            parse_matrix("transfer = [8, 9223372036854775807]\ntasks = fir:2x4"),
            Err(SpecError::BadValue {
                key: "transfer",
                ..
            })
        ));
        assert!(matches!(
            parse_matrix("mem_latency = [20, 18446744073709551615]\ntasks = fir:2x4"),
            Err(SpecError::BadValue {
                key: "mem_latency",
                ..
            })
        ));
        assert!(matches!(
            parse_matrix("arbiter = tdma:9223372036854775807\ntasks = fir:2x4"),
            Err(SpecError::BadValue { key: "arbiter", .. })
        ));
        assert!(parse_matrix("mem_latency = 1048576\ntasks = fir:2x4").is_ok());
    }

    #[test]
    fn mode_and_layout_labels_round_trip() {
        for v in [
            "solo",
            "isolated",
            "joint",
            "static-ctrl",
            "static-lock:3",
            "dynamic-lock:2",
        ] {
            assert_eq!(parse_mode(v).expect("parses").label(), v);
        }
        for v in ["shared", "partitioned", "locked:2", "bypass"] {
            assert_eq!(
                parse_l2_layout(v).expect("parses").expect("some").label(),
                v
            );
        }
        assert_eq!(parse_l2_layout("none"), Ok(None));
    }

    #[test]
    fn expected_soundness_classification() {
        assert!(ModeSpec::Isolated.expected_sound(4));
        assert!(ModeSpec::Joint.expected_sound(4));
        assert!(ModeSpec::StaticCtrl.expected_sound(4));
        assert!(ModeSpec::Solo.expected_sound(1));
        assert!(!ModeSpec::Solo.expected_sound(2));
    }
}
