//! Serde-free scenario file I/O: a TOML-subset parser/writer and a
//! JSON-lines twin, in the spirit of the workspace's other hand-rolled
//! formats (`dlb_graphs::io`, `dlb_bench::perf_json`) — the offline build
//! environment has no serde, and the formats are small enough that a
//! transparent parser with good error messages beats a dependency.
//!
//! ### TOML subset
//!
//! ```toml
//! [scenario]
//! name = "bursty-torus"
//! protocol = "continuous"        # continuous | discrete | heterogeneous
//! threads = 1                    # 1 = serial, 0 = auto-parallel, t > 1 = pool
//! # or explicitly: backend = "serial" | "pool" | "message" | "process",
//! # with shards = k and partition = "range" | "bfs" for the last two
//! # (they run one worker per shard — no threads key)
//! stats = "full"                 # full | phionly | every:k | off
//!
//! [topology]
//! kind = "torus2d"               # path|cycle|grid2d|torus2d|hypercube|
//! rows = 16                      #   complete|star|debruijn|random-regular
//! cols = 16
//!
//! [init]
//! dist = "spike"                 # spike|uniform|ramp|bimodal|balanced
//! avg = 100.0
//! seed = 1
//!
//! [stop]
//! kind = "steady"                # rounds | phi | steady
//! window = 60
//! tol = 0.2
//! max_rounds = 2000
//!
//! [[workload]]
//! kind = "arrivals"
//! pattern = "bursty"             # constant | bursty | diurnal
//! high = 2048.0
//! low = 0.0
//! on = 20
//! off = 40
//! placement = "uniform"          # uniform|zipf|hotspot|max-loaded|random-node
//!
//! [[workload]]
//! kind = "drain"
//! model = "proportional"         # fixed-capacity | proportional
//! fraction = 0.02
//! ```
//!
//! Optional sections: `[sequence]` (dynamic-network model; `kind =
//! "static"|"iid"|"markov"|"matching-only"`, plus `outage_every`),
//! `[capacities]` (required for — and only allowed with — the
//! heterogeneous protocol), and `[faults]` (shard fail/recover churn
//! plus executor fault kinds: `every`, `down`, `shards`, `seed`, the
//! bools `panic`/`drop`/`duplicate`/`reorder`, and `delay_ms`).
//!
//! ### JSON lines
//!
//! The same data, one flat object per line, each carrying a `"section"`
//! key: `{"section": "scenario", "name": "…", …}`. [`Scenario::from_spec`]
//! auto-detects the format (a file whose first non-blank character is `{`
//! is JSON lines).
//!
//! Both formats round-trip: `Scenario::from_toml(s.to_toml()) == s` and
//! likewise for JSON lines, pinned by tests.

use crate::scenario::{
    exec_spec_from_parts, CapacitySpec, DrainSpec, ExecSpec, FaultsSpec, InitSpec, PatternSpec,
    PlacementSpec, ProtocolSpec, Scenario, SequenceKind, SequenceSpec, StopSpec, TelemetrySpec,
    TopologySpec, WorkloadSpec,
};
use dlb_core::engine::StatsMode;

/// A scalar value in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Quoted string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true`/`false`.
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
        }
    }
}

/// One parsed section (`[name]` / `[[name]]` table, or one JSON line).
#[derive(Debug, Clone)]
struct Table {
    name: String,
    line: usize,
    entries: Vec<(String, Value)>,
}

impl Table {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("[{}] (line {}): {msg}", self.name, self.line)
    }

    fn str_of(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            Some(v) => Err(self.err(format!("{key} must be a string, got {}", v.type_name()))),
            None => Err(self.err(format!("missing key {key}"))),
        }
    }

    fn f64_of(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Value::Float(x)) => Ok(*x),
            Some(Value::Int(i)) => Ok(*i as f64),
            Some(v) => Err(self.err(format!("{key} must be a number, got {}", v.type_name()))),
            None => Err(self.err(format!("missing key {key}"))),
        }
    }

    fn u64_of(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
            Some(Value::Int(i)) => Err(self.err(format!("{key} must be non-negative, got {i}"))),
            Some(v) => Err(self.err(format!("{key} must be an integer, got {}", v.type_name()))),
            None => Err(self.err(format!("missing key {key}"))),
        }
    }

    fn usize_of(&self, key: &str) -> Result<usize, String> {
        Ok(self.u64_of(key)? as usize)
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        if self.get(key).is_none() {
            Ok(default)
        } else {
            self.u64_of(key)
        }
    }

    fn bool_of(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => Err(self.err(format!("{key} must be a bool, got {}", v.type_name()))),
            None => Err(self.err(format!("missing key {key}"))),
        }
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        if self.get(key).is_none() {
            Ok(default)
        } else {
            self.bool_of(key)
        }
    }

    /// Rejects keys outside `allowed` — typos should fail loudly, not be
    /// silently ignored (the scenario would quietly run with defaults).
    fn check_keys(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in &self.entries {
            if !allowed.contains(&k.as_str()) {
                return Err(self.err(format!(
                    "unknown key {k:?} (allowed: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Low-level parsing: TOML subset
// ---------------------------------------------------------------------------

/// Strips a `#` comment that begins outside any string literal
/// (escaped quotes `\"` inside a string do not end it).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(raw: &str, lineno: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(format!("line {lineno}: unterminated string {raw}"));
        };
        return Ok(Value::Str(
            inner.replace("\\\"", "\"").replace("\\\\", "\\"),
        ));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        "" => return Err(format!("line {lineno}: missing value")),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(x) = raw.parse::<f64>() {
        return Ok(Value::Float(x));
    }
    Err(format!(
        "line {lineno}: cannot parse value {raw:?} (expected string, number, or bool)"
    ))
}

fn parse_toml_tables(text: &str) -> Result<Vec<Table>, String> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            tables.push(Table {
                name: section.trim().to_string(),
                line: lineno,
                entries: Vec::new(),
            });
        } else if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            tables.push(Table {
                name: section.trim().to_string(),
                line: lineno,
                entries: Vec::new(),
            });
        } else if let Some((key, value)) = line.split_once('=') {
            let table = tables
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: key outside any [section]"))?;
            let key = key.trim().to_string();
            if table.entries.iter().any(|(k, _)| *k == key) {
                return Err(format!("line {lineno}: duplicate key {key:?}"));
            }
            table.entries.push((key, parse_scalar(value, lineno)?));
        } else {
            return Err(format!(
                "line {lineno}: expected `[section]` or `key = value`, got {line:?}"
            ));
        }
    }
    Ok(tables)
}

// ---------------------------------------------------------------------------
// Low-level parsing: JSON lines
// ---------------------------------------------------------------------------

/// Parses one flat JSON object (`{"k": v, …}` with string/number/bool
/// values) into key/value pairs.
fn parse_json_object(line: &str, lineno: usize) -> Result<Vec<(String, Value)>, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}");
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if chars.get(*i) != Some(&'"') {
            return Err(err("expected '\"'"));
        }
        *i += 1;
        let mut out = String::new();
        while *i < chars.len() {
            match chars[*i] {
                '\\' => {
                    *i += 1;
                    match chars.get(*i) {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        other => return Err(err(&format!("unsupported escape {other:?}"))),
                    }
                    *i += 1;
                }
                '"' => {
                    *i += 1;
                    return Ok(out);
                }
                c => {
                    out.push(c);
                    *i += 1;
                }
            }
        }
        Err(err("unterminated string"))
    };

    skip_ws(&mut i);
    if chars.get(i) != Some(&'{') {
        return Err(err("expected '{'"));
    }
    i += 1;
    let mut entries = Vec::new();
    loop {
        skip_ws(&mut i);
        if chars.get(i) == Some(&'}') {
            i += 1;
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if chars.get(i) != Some(&':') {
            return Err(err(&format!("expected ':' after key {key:?}")));
        }
        i += 1;
        skip_ws(&mut i);
        let value = match chars.get(i) {
            Some('"') => Value::Str(parse_string(&mut i)?),
            Some('t') if chars[i..].starts_with(&['t', 'r', 'u', 'e']) => {
                i += 4;
                Value::Bool(true)
            }
            Some('f') if chars[i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
                i += 5;
                Value::Bool(false)
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || matches!(chars[i], '-' | '+' | '.' | 'e' | 'E'))
                {
                    i += 1;
                }
                let raw: String = chars[start..i].iter().collect();
                if raw.contains(['.', 'e', 'E']) {
                    Value::Float(
                        raw.parse::<f64>()
                            .map_err(|_| err(&format!("bad number {raw:?}")))?,
                    )
                } else {
                    Value::Int(
                        raw.parse::<i64>()
                            .map_err(|_| err(&format!("bad number {raw:?}")))?,
                    )
                }
            }
            other => return Err(err(&format!("unexpected value start {other:?}"))),
        };
        entries.push((key, value));
        skip_ws(&mut i);
        match chars.get(i) {
            Some(',') => i += 1,
            Some('}') => {
                i += 1;
                break;
            }
            other => return Err(err(&format!("expected ',' or '}}', got {other:?}"))),
        }
    }
    skip_ws(&mut i);
    if i != chars.len() {
        return Err(err("trailing content after object"));
    }
    Ok(entries)
}

fn parse_jsonl_tables(text: &str) -> Result<Vec<Table>, String> {
    let mut tables = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw_line.trim().is_empty() {
            continue;
        }
        let mut entries = parse_json_object(raw_line, lineno)?;
        let pos = entries
            .iter()
            .position(|(k, _)| k == "section")
            .ok_or_else(|| format!("line {lineno}: object lacks a \"section\" key"))?;
        let (_, section) = entries.remove(pos);
        let Value::Str(name) = section else {
            return Err(format!("line {lineno}: \"section\" must be a string"));
        };
        tables.push(Table {
            name,
            line: lineno,
            entries,
        });
    }
    Ok(tables)
}

// ---------------------------------------------------------------------------
// Tables → Scenario
// ---------------------------------------------------------------------------

/// Parses a statistics mode string (`full`, `phionly`, `off`, `every:k`).
pub fn parse_stats_mode(s: &str) -> Result<StatsMode, String> {
    match s {
        "full" => Ok(StatsMode::Full),
        "phionly" => Ok(StatsMode::PhiOnly),
        "off" => Ok(StatsMode::Off),
        _ => {
            if let Some(k) = s.strip_prefix("every:") {
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("bad stats mode {s:?}: k must be an integer"))?;
                if k == 0 {
                    return Err("stats every:k needs k >= 1".into());
                }
                Ok(StatsMode::EveryK(k))
            } else {
                Err(format!(
                    "unknown stats mode {s:?} (expected full, phionly, off, or every:k)"
                ))
            }
        }
    }
}

fn topology_from(t: &Table) -> Result<TopologySpec, String> {
    let kind = t.str_of("kind")?;
    let spec = match kind {
        "path" => {
            t.check_keys(&["kind", "n"])?;
            TopologySpec::Path {
                n: t.usize_of("n")?,
            }
        }
        "cycle" => {
            t.check_keys(&["kind", "n"])?;
            TopologySpec::Cycle {
                n: t.usize_of("n")?,
            }
        }
        "grid2d" => {
            t.check_keys(&["kind", "rows", "cols"])?;
            TopologySpec::Grid2d {
                rows: t.usize_of("rows")?,
                cols: t.usize_of("cols")?,
            }
        }
        "torus2d" => {
            t.check_keys(&["kind", "rows", "cols"])?;
            TopologySpec::Torus2d {
                rows: t.usize_of("rows")?,
                cols: t.usize_of("cols")?,
            }
        }
        "hypercube" => {
            t.check_keys(&["kind", "dim"])?;
            TopologySpec::Hypercube {
                dim: t.u64_of("dim")? as u32,
            }
        }
        "complete" => {
            t.check_keys(&["kind", "n"])?;
            TopologySpec::Complete {
                n: t.usize_of("n")?,
            }
        }
        "star" => {
            t.check_keys(&["kind", "n"])?;
            TopologySpec::Star {
                n: t.usize_of("n")?,
            }
        }
        "debruijn" => {
            t.check_keys(&["kind", "dim"])?;
            TopologySpec::DeBruijn {
                dim: t.u64_of("dim")? as u32,
            }
        }
        "random-regular" => {
            t.check_keys(&["kind", "n", "d", "seed"])?;
            TopologySpec::RandomRegular {
                n: t.usize_of("n")?,
                d: t.usize_of("d")?,
                seed: t.u64_of("seed")?,
            }
        }
        other => return Err(t.err(format!("unknown topology kind {other:?}"))),
    };
    Ok(spec)
}

fn sequence_from(t: &Table) -> Result<SequenceSpec, String> {
    let kind = match t.str_of("kind")? {
        "static" => {
            t.check_keys(&["kind", "outage_every"])?;
            SequenceKind::Static
        }
        "iid" => {
            t.check_keys(&["kind", "p", "seed", "outage_every"])?;
            SequenceKind::Iid {
                p: t.f64_of("p")?,
                seed: t.u64_of("seed")?,
            }
        }
        "markov" => {
            t.check_keys(&["kind", "p_fail", "p_recover", "seed", "outage_every"])?;
            SequenceKind::Markov {
                p_fail: t.f64_of("p_fail")?,
                p_recover: t.f64_of("p_recover")?,
                seed: t.u64_of("seed")?,
            }
        }
        "matching-only" => {
            t.check_keys(&["kind", "seed", "outage_every"])?;
            SequenceKind::MatchingOnly {
                seed: t.u64_of("seed")?,
            }
        }
        other => return Err(t.err(format!("unknown sequence kind {other:?}"))),
    };
    let outage_every = if t.get("outage_every").is_some() {
        Some(t.usize_of("outage_every")?)
    } else {
        None
    };
    Ok(SequenceSpec { kind, outage_every })
}

fn capacities_from(t: &Table) -> Result<CapacitySpec, String> {
    let spec = match t.str_of("kind")? {
        "uniform" => {
            t.check_keys(&["kind"])?;
            CapacitySpec::Uniform
        }
        "two-tier" => {
            t.check_keys(&["kind", "fast_fraction", "ratio"])?;
            CapacitySpec::TwoTier {
                fast_fraction: t.f64_of("fast_fraction")?,
                ratio: t.f64_of("ratio")?,
            }
        }
        "ramp" => {
            t.check_keys(&["kind", "ratio"])?;
            CapacitySpec::Ramp {
                ratio: t.f64_of("ratio")?,
            }
        }
        other => return Err(t.err(format!("unknown capacities kind {other:?}"))),
    };
    Ok(spec)
}

fn workload_from(t: &Table) -> Result<WorkloadSpec, String> {
    // The allowed-key set depends on the pattern/placement/model chosen,
    // so it is assembled alongside the parse and checked at the end —
    // workload tables reject typos exactly like every other section.
    let mut allowed: Vec<&str> = vec!["kind"];
    let spec = match t.str_of("kind")? {
        "arrivals" => {
            allowed.extend(["pattern", "placement"]);
            let pattern = match t.str_of("pattern")? {
                "constant" => {
                    allowed.push("rate");
                    PatternSpec::Constant {
                        per_round: t.f64_of("rate")?,
                    }
                }
                "bursty" => {
                    allowed.extend(["high", "low", "on", "off"]);
                    PatternSpec::Bursty {
                        high: t.f64_of("high")?,
                        low: t.f64_of("low")?,
                        on_rounds: t.u64_of("on")?,
                        off_rounds: t.u64_of("off")?,
                    }
                }
                "diurnal" => {
                    allowed.extend(["mean", "amplitude", "period"]);
                    PatternSpec::Diurnal {
                        mean: t.f64_of("mean")?,
                        amplitude: t.f64_of("amplitude")?,
                        period: t.u64_of("period")?,
                    }
                }
                other => return Err(t.err(format!("unknown arrival pattern {other:?}"))),
            };
            let placement = match t.str_of("placement")? {
                "uniform" => PlacementSpec::Uniform,
                "zipf" => {
                    allowed.extend(["s", "seed"]);
                    PlacementSpec::Zipf {
                        s: t.f64_of("s")?,
                        seed: t.u64_or("seed", 0)?,
                    }
                }
                "hotspot" => {
                    allowed.push("node");
                    PlacementSpec::Hotspot {
                        node: t.u64_of("node")? as u32,
                    }
                }
                "max-loaded" => PlacementSpec::MaxLoaded,
                "random-node" => {
                    allowed.push("seed");
                    PlacementSpec::RandomNode {
                        seed: t.u64_or("seed", 0)?,
                    }
                }
                other => return Err(t.err(format!("unknown placement {other:?}"))),
            };
            WorkloadSpec::Arrivals { pattern, placement }
        }
        "drain" => {
            allowed.push("model");
            let model = match t.str_of("model")? {
                "fixed-capacity" => {
                    allowed.push("per_node");
                    DrainSpec::FixedCapacity {
                        per_node: t.f64_of("per_node")?,
                    }
                }
                "proportional" => {
                    allowed.push("fraction");
                    DrainSpec::Proportional {
                        fraction: t.f64_of("fraction")?,
                    }
                }
                other => return Err(t.err(format!("unknown drain model {other:?}"))),
            };
            WorkloadSpec::Drain { model }
        }
        other => {
            return Err(t.err(format!(
                "unknown workload kind {other:?} (expected arrivals or drain)"
            )))
        }
    };
    t.check_keys(&allowed)?;
    Ok(spec)
}

fn faults_from(t: &Table) -> Result<FaultsSpec, String> {
    t.check_keys(&[
        "every",
        "down",
        "shards",
        "seed",
        "panic",
        "drop",
        "duplicate",
        "reorder",
        "delay_ms",
    ])?;
    let d = FaultsSpec::default();
    Ok(FaultsSpec {
        every: t.u64_or("every", d.every as u64)? as usize,
        down: t.u64_or("down", d.down as u64)? as usize,
        shards: t.u64_or("shards", d.shards as u64)? as usize,
        seed: t.u64_or("seed", d.seed)?,
        panic: t.bool_or("panic", false)?,
        drop: t.bool_or("drop", false)?,
        duplicate: t.bool_or("duplicate", false)?,
        reorder: t.bool_or("reorder", false)?,
        delay_ms: match t.get("delay_ms") {
            None => None,
            Some(_) => Some(t.u64_of("delay_ms")?),
        },
    })
}

fn telemetry_from(t: &Table) -> Result<TelemetrySpec, String> {
    t.check_keys(&["enabled", "buffer", "bins"])?;
    let d = TelemetrySpec::default();
    Ok(TelemetrySpec {
        enabled: t.bool_or("enabled", d.enabled)?,
        buffer: t.u64_or("buffer", d.buffer as u64)? as usize,
        bins: t.u64_or("bins", d.bins as u64)? as usize,
    })
}

fn stop_from(t: &Table) -> Result<StopSpec, String> {
    let spec = match t.str_of("kind")? {
        "rounds" => {
            t.check_keys(&["kind", "rounds"])?;
            StopSpec::Rounds {
                rounds: t.usize_of("rounds")?,
            }
        }
        "phi" => {
            t.check_keys(&["kind", "target", "max_rounds"])?;
            StopSpec::PhiBelow {
                target: t.f64_of("target")?,
                max_rounds: t.usize_of("max_rounds")?,
            }
        }
        "steady" => {
            t.check_keys(&["kind", "window", "tol", "max_rounds"])?;
            StopSpec::SteadyState {
                window: t.usize_of("window")?,
                tol: t.f64_of("tol")?,
                max_rounds: t.usize_of("max_rounds")?,
            }
        }
        other => return Err(t.err(format!("unknown stop kind {other:?}"))),
    };
    Ok(spec)
}

fn scenario_from_tables(tables: Vec<Table>) -> Result<Scenario, String> {
    let mut scenario_t: Option<Table> = None;
    let mut topology_t: Option<Table> = None;
    let mut sequence_t: Option<Table> = None;
    let mut capacities_t: Option<Table> = None;
    let mut init_t: Option<Table> = None;
    let mut stop_t: Option<Table> = None;
    let mut faults_t: Option<Table> = None;
    let mut telemetry_t: Option<Table> = None;
    let mut workload_ts: Vec<Table> = Vec::new();

    for t in tables {
        let slot = match t.name.as_str() {
            "scenario" => &mut scenario_t,
            "topology" => &mut topology_t,
            "sequence" => &mut sequence_t,
            "capacities" => &mut capacities_t,
            "init" => &mut init_t,
            "stop" => &mut stop_t,
            "faults" => &mut faults_t,
            "telemetry" => &mut telemetry_t,
            "workload" => {
                workload_ts.push(t);
                continue;
            }
            other => return Err(format!("line {}: unknown section [{other}]", t.line)),
        };
        if slot.is_some() {
            return Err(format!("line {}: duplicate section [{}]", t.line, t.name));
        }
        *slot = Some(t);
    }

    let st = scenario_t.ok_or("missing [scenario] section")?;
    st.check_keys(&[
        "name",
        "protocol",
        "threads",
        "stats",
        "backend",
        "shards",
        "partition",
        "resident",
        "transport",
    ])?;
    let name = st.str_of("name")?.to_string();
    let exec = exec_from(&st)?;
    let stats = match st.get("stats") {
        None => StatsMode::Full,
        Some(_) => parse_stats_mode(st.str_of("stats")?).map_err(|e| st.err(e))?,
    };
    let protocol = match st.str_of("protocol")? {
        "continuous" => ProtocolSpec::Continuous,
        "discrete" => ProtocolSpec::Discrete,
        "heterogeneous" => {
            let ct = capacities_t
                .take()
                .ok_or("heterogeneous protocol needs a [capacities] section")?;
            ProtocolSpec::Heterogeneous {
                capacities: capacities_from(&ct)?,
            }
        }
        other => return Err(st.err(format!("unknown protocol {other:?}"))),
    };
    if let Some(ct) = capacities_t {
        return Err(
            ct.err("a [capacities] section is only valid with protocol = \"heterogeneous\"")
        );
    }

    let topology = topology_from(&topology_t.ok_or("missing [topology] section")?)?;
    let sequence = sequence_t.map(|t| sequence_from(&t)).transpose()?;

    let it = init_t.ok_or("missing [init] section")?;
    it.check_keys(&["dist", "avg", "seed"])?;
    let init = InitSpec {
        dist: InitSpec::dist_from_name(it.str_of("dist")?).map_err(|e| it.err(e))?,
        avg: it.f64_of("avg")?,
        seed: it.u64_or("seed", 1)?,
    };

    let stop = stop_from(&stop_t.ok_or("missing [stop] section")?)?;
    let faults = faults_t.map(|t| faults_from(&t)).transpose()?;
    let telemetry = telemetry_t.map(|t| telemetry_from(&t)).transpose()?;
    let workloads = workload_ts
        .iter()
        .map(workload_from)
        .collect::<Result<Vec<_>, _>>()?;

    let scenario = Scenario {
        name,
        topology,
        sequence,
        protocol,
        init,
        workloads,
        stats,
        exec,
        faults,
        telemetry,
        stop,
    };
    scenario.validate()?;
    Ok(scenario)
}

/// Parses the execution backend out of the `[scenario]` table. Without a
/// `backend` key the legacy `threads` scalar decides (1 = serial, else
/// pool); with one, `threads`/`shards`/`partition` refine it. The gating
/// rules (`shards`/`partition` rejected outside `backend = "message"` /
/// `"process"`, `threads` rejected on `"message"` and
/// `"process"` — one worker per shard — and `transport` only on
/// `"process"`, so a misspelled backend cannot silently drop the
/// sharding request) live in [`exec_spec_from_parts`], shared with the
/// CLI overrides; every failure is wrapped in the `[scenario]`
/// section+line diagnostic like any other key error.
fn exec_from(st: &Table) -> Result<ExecSpec, String> {
    let backend = match st.get("backend") {
        None => None,
        Some(_) => Some(st.str_of("backend")?),
    };
    let threads = match st.get("threads") {
        None => None,
        Some(_) => Some(st.usize_of("threads")?),
    };
    let shards = match st.get("shards") {
        None => None,
        Some(_) => Some(st.usize_of("shards")?),
    };
    let partition = match st.get("partition") {
        None => None,
        Some(_) => Some(st.str_of("partition")?),
    };
    let resident = match st.get("resident") {
        None => None,
        Some(_) => Some(st.bool_of("resident")?),
    };
    let transport = match st.get("transport") {
        None => None,
        Some(_) => Some(st.str_of("transport")?),
    };
    exec_spec_from_parts(backend, threads, shards, partition, resident, transport)
        .map_err(|e| st.err(e))
}

// ---------------------------------------------------------------------------
// Scenario → tables → text
// ---------------------------------------------------------------------------

fn fval(x: f64) -> String {
    // Shortest round-trip float repr; integral floats keep their `.0` so
    // they parse back as floats where it matters (all numeric readers
    // accept both).
    format!("{x:?}")
}

/// Renders a free-form string as a quoted literal, escaping `\` and `"`
/// so the output parses back in both formats (the TOML-subset parser
/// reverses exactly these escapes, and they are valid JSON escapes too).
fn qstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn topology_entries(t: &TopologySpec) -> Vec<(String, String)> {
    let mut e = vec![("kind".to_string(), format!("\"{}\"", t.kind()))];
    match *t {
        TopologySpec::Path { n }
        | TopologySpec::Cycle { n }
        | TopologySpec::Complete { n }
        | TopologySpec::Star { n } => e.push(("n".into(), n.to_string())),
        TopologySpec::Grid2d { rows, cols } | TopologySpec::Torus2d { rows, cols } => {
            e.push(("rows".into(), rows.to_string()));
            e.push(("cols".into(), cols.to_string()));
        }
        TopologySpec::Hypercube { dim } | TopologySpec::DeBruijn { dim } => {
            e.push(("dim".into(), dim.to_string()));
        }
        TopologySpec::RandomRegular { n, d, seed } => {
            e.push(("n".into(), n.to_string()));
            e.push(("d".into(), d.to_string()));
            e.push(("seed".into(), seed.to_string()));
        }
    }
    e
}

fn sequence_entries(s: &SequenceSpec) -> Vec<(String, String)> {
    let mut e = vec![("kind".to_string(), format!("\"{}\"", s.kind_name()))];
    match s.kind {
        SequenceKind::Static => {}
        SequenceKind::Iid { p, seed } => {
            e.push(("p".into(), fval(p)));
            e.push(("seed".into(), seed.to_string()));
        }
        SequenceKind::Markov {
            p_fail,
            p_recover,
            seed,
        } => {
            e.push(("p_fail".into(), fval(p_fail)));
            e.push(("p_recover".into(), fval(p_recover)));
            e.push(("seed".into(), seed.to_string()));
        }
        SequenceKind::MatchingOnly { seed } => e.push(("seed".into(), seed.to_string())),
    }
    if let Some(every) = s.outage_every {
        e.push(("outage_every".into(), every.to_string()));
    }
    e
}

fn capacities_entries(c: &CapacitySpec) -> Vec<(String, String)> {
    let mut e = vec![("kind".to_string(), format!("\"{}\"", c.kind()))];
    match *c {
        CapacitySpec::Uniform => {}
        CapacitySpec::TwoTier {
            fast_fraction,
            ratio,
        } => {
            e.push(("fast_fraction".into(), fval(fast_fraction)));
            e.push(("ratio".into(), fval(ratio)));
        }
        CapacitySpec::Ramp { ratio } => e.push(("ratio".into(), fval(ratio))),
    }
    e
}

fn workload_entries(w: &WorkloadSpec) -> Vec<(String, String)> {
    let mut e = vec![("kind".to_string(), format!("\"{}\"", w.kind()))];
    match w {
        WorkloadSpec::Arrivals { pattern, placement } => {
            e.push(("pattern".into(), format!("\"{}\"", pattern.kind())));
            match *pattern {
                PatternSpec::Constant { per_round } => e.push(("rate".into(), fval(per_round))),
                PatternSpec::Bursty {
                    high,
                    low,
                    on_rounds,
                    off_rounds,
                } => {
                    e.push(("high".into(), fval(high)));
                    e.push(("low".into(), fval(low)));
                    e.push(("on".into(), on_rounds.to_string()));
                    e.push(("off".into(), off_rounds.to_string()));
                }
                PatternSpec::Diurnal {
                    mean,
                    amplitude,
                    period,
                } => {
                    e.push(("mean".into(), fval(mean)));
                    e.push(("amplitude".into(), fval(amplitude)));
                    e.push(("period".into(), period.to_string()));
                }
            }
            e.push(("placement".into(), format!("\"{}\"", placement.kind())));
            match *placement {
                PlacementSpec::Uniform | PlacementSpec::MaxLoaded => {}
                PlacementSpec::Zipf { s, seed } => {
                    e.push(("s".into(), fval(s)));
                    e.push(("seed".into(), seed.to_string()));
                }
                PlacementSpec::Hotspot { node } => e.push(("node".into(), node.to_string())),
                PlacementSpec::RandomNode { seed } => e.push(("seed".into(), seed.to_string())),
            }
        }
        WorkloadSpec::Drain { model } => {
            e.push(("model".into(), format!("\"{}\"", model.kind())));
            match *model {
                DrainSpec::FixedCapacity { per_node } => {
                    e.push(("per_node".into(), fval(per_node)));
                }
                DrainSpec::Proportional { fraction } => {
                    e.push(("fraction".into(), fval(fraction)));
                }
            }
        }
    }
    e
}

fn faults_entries(f: &FaultsSpec) -> Vec<(String, String)> {
    let mut e = vec![
        ("every".to_string(), f.every.to_string()),
        ("down".to_string(), f.down.to_string()),
        ("shards".to_string(), f.shards.to_string()),
        ("seed".to_string(), f.seed.to_string()),
    ];
    // Disabled kinds are the parser's defaults — render only what's on.
    for (key, on) in [
        ("panic", f.panic),
        ("drop", f.drop),
        ("duplicate", f.duplicate),
        ("reorder", f.reorder),
    ] {
        if on {
            e.push((key.to_string(), "true".to_string()));
        }
    }
    if let Some(ms) = f.delay_ms {
        e.push(("delay_ms".to_string(), ms.to_string()));
    }
    e
}

fn telemetry_entries(t: &TelemetrySpec) -> Vec<(String, String)> {
    let mut e = Vec::new();
    // `enabled = true` is the parser's default — render only the opt-out.
    if !t.enabled {
        e.push(("enabled".to_string(), "false".to_string()));
    }
    e.push(("buffer".to_string(), t.buffer.to_string()));
    e.push(("bins".to_string(), t.bins.to_string()));
    e
}

fn stop_entries(s: &StopSpec) -> Vec<(String, String)> {
    let mut e = vec![("kind".to_string(), format!("\"{}\"", s.kind()))];
    match *s {
        StopSpec::Rounds { rounds } => e.push(("rounds".into(), rounds.to_string())),
        StopSpec::PhiBelow { target, max_rounds } => {
            e.push(("target".into(), fval(target)));
            e.push(("max_rounds".into(), max_rounds.to_string()));
        }
        StopSpec::SteadyState {
            window,
            tol,
            max_rounds,
        } => {
            e.push(("window".into(), window.to_string()));
            e.push(("tol".into(), fval(tol)));
            e.push(("max_rounds".into(), max_rounds.to_string()));
        }
    }
    e
}

/// One rendered section: `(name, multi?, entries)` — `multi` marks
/// `[[workload]]` tables.
type RenderedSection = (&'static str, bool, Vec<(String, String)>);

/// Renders the execution backend as `[scenario]` entries.
fn exec_entries(exec: &ExecSpec) -> Vec<(String, String)> {
    let mut e = vec![("backend".to_string(), format!("\"{}\"", exec.name()))];
    match *exec {
        // The removed sharded backend renders as its bare name, which
        // parsing refuses.
        ExecSpec::Serial | ExecSpec::Sharded { .. } => {}
        ExecSpec::Pool { threads } => e.push(("threads".into(), threads.to_string())),
        // No threads key: the message backend runs one worker per shard.
        ExecSpec::Message {
            partition,
            resident,
        } => {
            e.push((
                "partition".into(),
                format!("\"{}\"", partition.strategy_name()),
            ));
            e.push(("shards".into(), partition.shards().to_string()));
            // Only render the non-default so legacy files round-trip
            // byte-identically.
            if resident {
                e.push(("resident".into(), "true".into()));
            }
        }
        // No threads key: the process backend runs one worker process
        // per shard.
        ExecSpec::Process {
            partition,
            transport,
        } => {
            e.push((
                "partition".into(),
                format!("\"{}\"", partition.strategy_name()),
            ));
            e.push(("shards".into(), partition.shards().to_string()));
            // Only render the non-default (unix) so files round-trip
            // byte-identically.
            if transport != dlb_core::Transport::Unix {
                e.push(("transport".into(), format!("\"{transport}\"")));
            }
        }
    }
    e
}

/// All sections of a scenario in canonical order.
fn scenario_sections(s: &Scenario) -> Vec<RenderedSection> {
    let mut scenario_entries = vec![
        // The name is the only free-form string a scenario carries;
        // everything else renders fixed identifiers.
        ("name".to_string(), qstr(&s.name)),
        ("protocol".to_string(), format!("\"{}\"", s.protocol.name())),
    ];
    scenario_entries.extend(exec_entries(&s.exec));
    scenario_entries.push((
        "stats".to_string(),
        format!("\"{}\"", crate::runner::stats_mode_name(s.stats)),
    ));
    let mut out = vec![("scenario", false, scenario_entries)];
    out.push(("topology", false, topology_entries(&s.topology)));
    if let Some(seq) = &s.sequence {
        out.push(("sequence", false, sequence_entries(seq)));
    }
    if let ProtocolSpec::Heterogeneous { capacities } = &s.protocol {
        out.push(("capacities", false, capacities_entries(capacities)));
    }
    out.push((
        "init",
        false,
        vec![
            ("dist".to_string(), format!("\"{}\"", s.init.dist.name())),
            ("avg".to_string(), fval(s.init.avg)),
            ("seed".to_string(), s.init.seed.to_string()),
        ],
    ));
    out.push(("stop", false, stop_entries(&s.stop)));
    if let Some(f) = &s.faults {
        out.push(("faults", false, faults_entries(f)));
    }
    if let Some(t) = &s.telemetry {
        out.push(("telemetry", false, telemetry_entries(t)));
    }
    for w in &s.workloads {
        out.push(("workload", true, workload_entries(w)));
    }
    out
}

impl Scenario {
    /// Parses a scenario from the TOML subset (see the module docs).
    pub fn from_toml(text: &str) -> Result<Scenario, String> {
        scenario_from_tables(parse_toml_tables(text)?)
    }

    /// Parses a scenario from JSON lines (one object per section, each
    /// with a `"section"` key).
    pub fn from_jsonl(text: &str) -> Result<Scenario, String> {
        scenario_from_tables(parse_jsonl_tables(text)?)
    }

    /// Parses either format, auto-detected: JSON lines when the first
    /// non-blank character is `{`, the TOML subset otherwise.
    pub fn from_spec(text: &str) -> Result<Scenario, String> {
        match text.trim_start().chars().next() {
            Some('{') => Scenario::from_jsonl(text),
            _ => Scenario::from_toml(text),
        }
    }

    /// Renders the scenario in the TOML subset (canonical section and key
    /// order; round-trips through [`Scenario::from_toml`]).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        for (section, multi, entries) in scenario_sections(self) {
            if !out.is_empty() {
                out.push('\n');
            }
            if multi {
                out.push_str(&format!("[[{section}]]\n"));
            } else {
                out.push_str(&format!("[{section}]\n"));
            }
            for (k, v) in entries {
                out.push_str(&format!("{k} = {v}\n"));
            }
        }
        out
    }

    /// Renders the scenario as JSON lines (round-trips through
    /// [`Scenario::from_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (section, _multi, entries) in scenario_sections(self) {
            out.push_str(&format!("{{\"section\": \"{section}\""));
            for (k, v) in entries {
                // TOML scalar renderings are valid JSON scalars: strings
                // are double-quoted, numbers and bools are bare.
                out.push_str(&format!(", \"{k}\": {v}"));
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_both_formats() {
        for name in Scenario::builtin_names() {
            let s = Scenario::builtin(name).unwrap();
            let toml = s.to_toml();
            let from_toml = Scenario::from_toml(&toml)
                .unwrap_or_else(|e| panic!("{name} TOML re-parse: {e}\n{toml}"));
            assert_eq!(s, from_toml, "{name} (TOML)");
            let jsonl = s.to_jsonl();
            let from_jsonl = Scenario::from_jsonl(&jsonl)
                .unwrap_or_else(|e| panic!("{name} JSONL re-parse: {e}\n{jsonl}"));
            assert_eq!(s, from_jsonl, "{name} (JSONL)");
            // Auto-detection picks the right parser for both.
            assert_eq!(s, Scenario::from_spec(&toml).unwrap(), "{name} (auto TOML)");
            assert_eq!(
                s,
                Scenario::from_spec(&jsonl).unwrap(),
                "{name} (auto JSONL)"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_are_tolerated() {
        let text = r#"
# a scenario with commentary
[scenario]
name = "commented"   # trailing comment
protocol = "continuous"

[topology]
kind = "cycle"
n = 8

[init]
dist = "spike"
avg = 10.0
seed = 1

[stop]
kind = "rounds"
rounds = 5
"#;
        let s = Scenario::from_toml(text).unwrap();
        assert_eq!(s.name, "commented");
        assert_eq!(s.exec, ExecSpec::Serial, "exec defaults to serial");
        assert_eq!(s.stats, StatsMode::Full, "stats defaults to full");
        assert!(s.workloads.is_empty());
    }

    #[test]
    fn backend_keys_parse_and_are_gated() {
        let base = |scenario_extra: &str| {
            format!(
                "[scenario]\nname = \"x\"\nprotocol = \"continuous\"\n{scenario_extra}\n\
                 [topology]\nkind = \"cycle\"\nn = 8\n\
                 [init]\ndist = \"spike\"\navg = 1.0\n\
                 [stop]\nkind = \"rounds\"\nrounds = 2\n"
            )
        };
        // Legacy threads scalar still decides without a backend key.
        let pool = Scenario::from_toml(&base("threads = 4")).unwrap();
        assert_eq!(pool.exec, ExecSpec::Pool { threads: 4 });
        // Explicit backends.
        let serial = Scenario::from_toml(&base("backend = \"serial\"")).unwrap();
        assert_eq!(serial.exec, ExecSpec::Serial);
        let auto_pool = Scenario::from_toml(&base("backend = \"pool\"")).unwrap();
        assert_eq!(auto_pool.exec, ExecSpec::Pool { threads: 0 });
        // The message backend: one worker per shard, no threads knob.
        let message = Scenario::from_toml(&base(
            "backend = \"message\"\nshards = 6\npartition = \"bfs\"",
        ))
        .unwrap();
        assert_eq!(
            message.exec,
            ExecSpec::Message {
                partition: dlb_graphs::PartitionSpec::Bfs { shards: 6 },
                resident: false
            }
        );
        let message_default =
            Scenario::from_toml(&base("backend = \"message\"\nshards = 3")).unwrap();
        assert_eq!(
            message_default.exec,
            ExecSpec::Message {
                partition: dlb_graphs::PartitionSpec::Range { shards: 3 },
                resident: false
            }
        );
        let resident =
            Scenario::from_toml(&base("backend = \"message\"\nshards = 3\nresident = true"))
                .unwrap();
        assert_eq!(
            resident.exec,
            ExecSpec::Message {
                partition: dlb_graphs::PartitionSpec::Range { shards: 3 },
                resident: true
            }
        );
        // resident = true survives the render → parse round trip (and
        // resident = false renders no key at all).
        let rendered = resident.to_toml();
        assert!(rendered.contains("resident = true"));
        assert_eq!(Scenario::from_toml(&rendered).unwrap().exec, resident.exec);
        assert!(!message.to_toml().contains("resident"));
        // The process backend: one worker *process* per shard, optional
        // transport (default unix, omitted on render; tcp spelled out).
        let process = Scenario::from_toml(&base(
            "backend = \"process\"\nshards = 5\npartition = \"bfs\"\ntransport = \"tcp\"",
        ))
        .unwrap();
        assert_eq!(
            process.exec,
            ExecSpec::Process {
                partition: dlb_graphs::PartitionSpec::Bfs { shards: 5 },
                transport: dlb_core::Transport::Tcp
            }
        );
        let rendered = process.to_toml();
        assert!(rendered.contains("transport = \"tcp\""), "{rendered}");
        assert_eq!(Scenario::from_toml(&rendered).unwrap().exec, process.exec);
        let process_default = Scenario::from_toml(&base("backend = \"process\"")).unwrap();
        assert_eq!(
            process_default.exec,
            ExecSpec::Process {
                partition: dlb_graphs::PartitionSpec::Range { shards: 8 },
                transport: dlb_core::Transport::Unix
            }
        );
        assert!(!process_default.to_toml().contains("transport"));
        // Gating — one case per error path of the exec assembly:
        // misplaced shards/partition, unknown backend, message without
        // shards, unknown partition strategy, zero shards,
        // serial/message with a threads key. Every diagnostic carries the
        // section and line, exactly like other key errors.
        for (text, needle) in [
            (base("shards = 4"), "only valid with backend"),
            (
                base("backend = \"pool\"\npartition = \"bfs\""),
                "only valid with backend",
            ),
            (base("backend = \"warp\""), "unknown backend"),
            (base("backend = \"message\""), "needs shards"),
            (
                base("backend = \"message\"\nshards = 4\npartition = \"metis\""),
                "unknown partition strategy",
            ),
            (base("backend = \"process\"\nshards = 0"), "shards >= 1"),
            (base("backend = \"message\"\nshards = 0"), "shards >= 1"),
            (base("backend = \"serial\"\nthreads = 3"), "one thread"),
            (
                base("backend = \"message\"\nshards = 4\nthreads = 2"),
                "one worker per shard",
            ),
            (
                base("backend = \"pool\"\nresident = true"),
                "only valid with backend = \"message\"",
            ),
            (
                base("backend = \"message\"\nshards = 4\ntransport = \"unix\""),
                "only valid with backend = \"process\"",
            ),
            (
                base("backend = \"process\"\nthreads = 2"),
                "one worker process per shard",
            ),
            (
                base("backend = \"process\"\nresident = true"),
                "only valid with backend = \"message\"",
            ),
            (
                base("backend = \"process\"\ntransport = \"carrier-pigeon\""),
                "unknown transport",
            ),
            (base("backend = \"process\"\nshards = 0"), "shards >= 1"),
        ] {
            let err = Scenario::from_toml(&text).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err}");
            assert!(
                err.starts_with("[scenario] (line "),
                "exec error lacks the section+line diagnostic: {err}"
            );
        }
    }

    #[test]
    fn sharded_scenario_files_are_rejected_with_the_alternatives() {
        let toml = "[scenario]\nname = \"x\"\nprotocol = \"continuous\"\n\
                    backend = \"sharded\"\nshards = 8\npartition = \"bfs\"\nthreads = 2\n\
                    [topology]\nkind = \"cycle\"\nn = 8\n\
                    [init]\ndist = \"spike\"\navg = 1.0\n\
                    [stop]\nkind = \"rounds\"\nrounds = 2\n";
        let err = Scenario::from_toml(toml).unwrap_err();
        assert!(err.starts_with("[scenario] (line "), "{err}");
        assert!(err.ends_with(dlb_core::Backend::SHARDED_REMOVED), "{err}");
        assert!(
            err.contains("\"pool\"") && err.contains("\"message\""),
            "{err}"
        );
    }

    #[test]
    fn helpful_errors_name_the_section_and_line() {
        let missing = Scenario::from_toml("[scenario]\nname = \"x\"\nprotocol = \"continuous\"\n");
        assert!(missing.unwrap_err().contains("missing [topology]"));

        let unknown_key =
            Scenario::from_toml("[scenario]\nname = \"x\"\nprotocol = \"continuous\"\nbogus = 1\n");
        assert!(unknown_key.unwrap_err().contains("unknown key \"bogus\""));

        let bad_value = Scenario::from_toml("[scenario]\nname = oops\n");
        assert!(bad_value.unwrap_err().contains("line 2"));

        let orphan = Scenario::from_toml("name = \"x\"\n");
        assert!(orphan.unwrap_err().contains("outside any [section]"));

        let dup = Scenario::from_toml("[scenario]\nname = \"a\"\nname = \"b\"\n");
        assert!(dup.unwrap_err().contains("duplicate key"));

        let unknown_section = Scenario::from_toml("[wat]\nx = 1\n");
        assert!(unknown_section
            .unwrap_err()
            .contains("unknown section [wat]"));

        // Workload tables reject typos like every other section — a
        // silently-defaulted seed would run a different experiment than
        // the author wrote.
        let workload_typo = r#"
[scenario]
name = "x"
protocol = "continuous"
[topology]
kind = "cycle"
n = 4
[init]
dist = "spike"
avg = 1.0
[stop]
kind = "rounds"
rounds = 1
[[workload]]
kind = "arrivals"
pattern = "constant"
rate = 1.0
placement = "random-node"
sede = 42
"#;
        let err = Scenario::from_toml(workload_typo).unwrap_err();
        assert!(err.contains("unknown key \"sede\""), "{err}");
    }

    #[test]
    fn faults_section_parses_round_trips_and_rejects_typos() {
        let base = |faults: &str| {
            format!(
                "[scenario]\nname = \"x\"\nprotocol = \"continuous\"\n\
                 backend = \"message\"\nshards = 4\n\
                 [topology]\nkind = \"cycle\"\nn = 16\n\
                 [init]\ndist = \"spike\"\navg = 1.0\n\
                 [stop]\nkind = \"rounds\"\nrounds = 10\n\
                 [faults]\n{faults}"
            )
        };
        let s = Scenario::from_toml(&base(
            "every = 5\ndown = 2\nseed = 9\npanic = true\ndrop = true\ndelay_ms = 3\n",
        ))
        .unwrap();
        let f = s.faults.clone().expect("faults parsed");
        assert_eq!(f.every, 5);
        assert_eq!(f.down, 2);
        assert_eq!(f.shards, 0, "shards defaults to derive-from-backend");
        assert_eq!(f.seed, 9);
        assert!(f.panic && f.drop && !f.duplicate && !f.reorder);
        assert_eq!(f.delay_ms, Some(3));
        // Round-trips in both formats, like every other section.
        assert_eq!(s, Scenario::from_toml(&s.to_toml()).unwrap());
        assert_eq!(s, Scenario::from_jsonl(&s.to_jsonl()).unwrap());

        // Typos and type errors carry the [faults] section + line.
        for (text, needle) in [
            ("evry = 5\n", "unknown key \"evry\""),
            ("panic = 1\n", "panic must be a bool"),
            ("every = -2\n", "every must be non-negative"),
        ] {
            let err = Scenario::from_toml(&base(text)).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err}");
            assert!(
                err.starts_with("[faults] (line "),
                "faults error lacks the section+line diagnostic: {err}"
            );
        }
        // Parsed scenarios hit the same validation as built ones: halo
        // fault kinds need a partitioned backend (message or process).
        let pool = base("drop = true\nshards = 4\n").replace(
            "backend = \"message\"\nshards = 4\n",
            "backend = \"pool\"\n",
        );
        let err = Scenario::from_toml(&pool).unwrap_err();
        assert!(
            err.contains("need backend = \"message\" or \"process\""),
            "{err}"
        );
        let process = base("drop = true\nshards = 4\n")
            .replace("backend = \"message\"\n", "backend = \"process\"\n");
        Scenario::from_toml(&process).expect("halo faults run on the process backend");
    }

    #[test]
    fn telemetry_section_parses_round_trips_and_rejects_typos() {
        let base = |telemetry: &str| {
            format!(
                "[scenario]\nname = \"x\"\nprotocol = \"continuous\"\n\
                 backend = \"message\"\nshards = 4\n\
                 [topology]\nkind = \"cycle\"\nn = 16\n\
                 [init]\ndist = \"spike\"\navg = 1.0\n\
                 [stop]\nkind = \"rounds\"\nrounds = 10\n\
                 [telemetry]\n{telemetry}"
            )
        };
        // Defaults: present-but-empty section arms with default shape.
        let s = Scenario::from_toml(&base("")).unwrap();
        let t = s.telemetry.clone().expect("telemetry parsed");
        assert_eq!(t, TelemetrySpec::default());
        assert!(t.enabled);
        // Explicit keys, including the opt-out.
        let s = Scenario::from_toml(&base("enabled = false\nbuffer = 512\nbins = 8\n")).unwrap();
        let t = s.telemetry.clone().expect("telemetry parsed");
        assert!(!t.enabled);
        assert_eq!(t.buffer, 512);
        assert_eq!(t.bins, 8);
        // Round-trips in both formats, like every other section.
        assert_eq!(s, Scenario::from_toml(&s.to_toml()).unwrap());
        assert_eq!(s, Scenario::from_jsonl(&s.to_jsonl()).unwrap());
        // Typos and type errors carry the [telemetry] section + line.
        for (text, needle) in [
            ("bufer = 512\n", "unknown key \"bufer\""),
            ("enabled = 1\n", "enabled must be a bool"),
            ("buffer = -4\n", "buffer must be non-negative"),
        ] {
            let err = Scenario::from_toml(&base(text)).unwrap_err();
            assert!(err.contains(needle), "expected {needle:?} in {err}");
            assert!(
                err.starts_with("[telemetry] (line "),
                "telemetry error lacks the section+line diagnostic: {err}"
            );
        }
        // Parsed scenarios hit the same validation as built ones.
        let err = Scenario::from_toml(&base("buffer = 0\n")).unwrap_err();
        assert!(err.contains("telemetry buffer must be >= 1"), "{err}");
        let err = Scenario::from_toml(&base("bins = 0\n")).unwrap_err();
        assert!(err.contains("telemetry bins must be >= 1"), "{err}");
    }

    #[test]
    fn free_form_names_round_trip_with_escaping() {
        let mut s = Scenario::builtin("bursty-torus").unwrap();
        s.name = "tricky \"name\" with \\ and # inside".to_string();
        let from_toml = Scenario::from_toml(&s.to_toml()).expect("escaped TOML parses");
        assert_eq!(s, from_toml);
        let from_jsonl = Scenario::from_jsonl(&s.to_jsonl()).expect("escaped JSONL parses");
        assert_eq!(s, from_jsonl);
    }

    #[test]
    fn capacities_section_is_gated_on_protocol() {
        let hetero_without = r#"
[scenario]
name = "x"
protocol = "heterogeneous"
[topology]
kind = "cycle"
n = 4
[init]
dist = "spike"
avg = 1.0
[stop]
kind = "rounds"
rounds = 1
"#;
        assert!(Scenario::from_toml(hetero_without)
            .unwrap_err()
            .contains("[capacities]"));

        let continuous_with = r#"
[scenario]
name = "x"
protocol = "continuous"
[capacities]
kind = "uniform"
[topology]
kind = "cycle"
n = 4
[init]
dist = "spike"
avg = 1.0
[stop]
kind = "rounds"
rounds = 1
"#;
        assert!(Scenario::from_toml(continuous_with)
            .unwrap_err()
            .contains("only valid with protocol"));
    }

    #[test]
    fn parsed_scenarios_are_validated() {
        let bad = r#"
[scenario]
name = "x"
protocol = "continuous"
[topology]
kind = "cycle"
n = 8
[init]
dist = "spike"
avg = 1.0
[stop]
kind = "rounds"
rounds = 5
[[workload]]
kind = "drain"
model = "proportional"
fraction = 2.0
"#;
        let err = Scenario::from_toml(bad).unwrap_err();
        assert!(err.contains("drain fraction"), "{err}");
    }

    #[test]
    fn stats_mode_strings_round_trip() {
        for (text, mode) in [
            ("full", StatsMode::Full),
            ("phionly", StatsMode::PhiOnly),
            ("off", StatsMode::Off),
            ("every:10", StatsMode::EveryK(10)),
        ] {
            assert_eq!(parse_stats_mode(text).unwrap(), mode);
            assert_eq!(crate::runner::stats_mode_name(mode), text);
        }
        assert!(parse_stats_mode("every:0").is_err());
        assert!(parse_stats_mode("sometimes").is_err());
    }

    #[test]
    fn json_object_parser_handles_escapes_and_rejects_junk() {
        let entries = parse_json_object(
            r#"{"section": "scenario", "name": "a \"b\"", "threads": 2, "avg": 1.5, "flag": true}"#,
            1,
        )
        .unwrap();
        assert_eq!(
            entries[0],
            ("section".into(), Value::Str("scenario".into()))
        );
        assert_eq!(entries[1], ("name".into(), Value::Str("a \"b\"".into())));
        assert_eq!(entries[2], ("threads".into(), Value::Int(2)));
        assert_eq!(entries[3], ("avg".into(), Value::Float(1.5)));
        assert_eq!(entries[4], ("flag".into(), Value::Bool(true)));

        assert!(parse_json_object("{\"a\": }", 1).is_err());
        assert!(parse_json_object("{\"a\": 1} trailing", 1).is_err());
        assert!(parse_json_object("[1, 2]", 1).is_err());
    }
}
