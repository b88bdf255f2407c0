//! Declarative campaign manifests: a zero-dependency TOML-subset parser.
//!
//! A manifest names a campaign and lays out a **scenario matrix** — every
//! `[scenario.<id>]` section is the cross product of its `schemes` ×
//! `patterns` × `rates` × `faults` axes — plus the campaign-wide execution
//! policy (per-job budgets, retry count, backoff base, worker count). The
//! grammar is the small, line-oriented TOML subset the examples use:
//!
//! ```toml
//! [campaign]
//! name = "nightly"        # strings are double-quoted, no escapes
//! seed = 42               # non-negative integers
//! retries = 2             # extra attempts after the first failure
//! backoff_ms = 50         # base of the exponential backoff
//! timeout_s = 60          # per-job wall budget (orchestrator-enforced)
//! cycle_budget = 500000   # optional per-job simulated-cycle budget
//! workers = 2             # concurrent worker processes
//!
//! [scenario.sweep]
//! net = "small"           # paper | small
//! scale = "tiny"          # paper | reduced | smoke | tiny
//! schemes = ["base", "tune", "static-62"]
//! patterns = ["uniform-random", "transpose"]
//! rates = [0.005, 0.028]
//! faults = ["none", "loss-0.5", "storm-3"]
//! ```
//!
//! Comments run from an unquoted `#` to end of line; arrays are
//! single-line. Every malformed construct is a typed [`ManifestError`]
//! naming the line and, for unknown schemes/patterns, listing what the
//! registries actually offer — a campaign must die at parse time, not three
//! hours in.

use crate::{NetPreset, Scale};
use stcc::Scheme;
use traffic::Pattern;

/// A fault axis entry of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults: the quiet plan.
    None,
    /// Side-band snapshot loss at the given probability (`loss-<p>`).
    Loss(f64),
    /// A deterministic storm of `k` link stalls plus a hotspot, drawn from
    /// the campaign seed (`storm-<k>`).
    Storm(u64),
}

impl FaultSpec {
    /// The manifest spelling (`none`, `loss-0.5`, `storm-3`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FaultSpec::None => "none".to_owned(),
            FaultSpec::Loss(p) => format!("loss-{p}"),
            FaultSpec::Storm(k) => format!("storm-{k}"),
        }
    }

    fn parse(s: &str) -> Option<FaultSpec> {
        if s == "none" {
            return Some(FaultSpec::None);
        }
        if let Some(p) = s.strip_prefix("loss-") {
            let p: f64 = p.parse().ok()?;
            return (p.is_finite() && (0.0..=1.0).contains(&p)).then_some(FaultSpec::Loss(p));
        }
        if let Some(k) = s.strip_prefix("storm-") {
            let k: u64 = k.parse().ok()?;
            return (k > 0).then_some(FaultSpec::Storm(k));
        }
        None
    }
}

/// One scenario: a point matrix over schemes × patterns × rates × faults.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The section id (`[scenario.<id>]`), unique within the manifest.
    pub id: String,
    /// Network preset the whole scenario runs on.
    pub net: NetPreset,
    /// Simulation length preset.
    pub scale: Scale,
    /// Scheme registry names (validated against [`Scheme::by_name`]).
    pub schemes: Vec<String>,
    /// Pattern names (validated against [`Pattern::by_name`]).
    pub patterns: Vec<String>,
    /// Offered loads, packets/node/cycle, each in `(0, 1]`.
    pub rates: Vec<f64>,
    /// Fault axis (defaults to just [`FaultSpec::None`]).
    pub faults: Vec<FaultSpec>,
}

/// A parsed, validated campaign manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (report header only).
    pub name: String,
    /// Campaign seed: the root of every job seed and every backoff jitter.
    pub seed: u64,
    /// Retries after the first failed attempt (`retries = 2` ⇒ up to 3
    /// attempts per job).
    pub retries: u32,
    /// Base of the exponential retry backoff, in milliseconds.
    pub backoff_ms: u64,
    /// Per-job wall-clock budget in seconds, enforced cooperatively inside
    /// the worker and with a hard kill by the orchestrator.
    pub timeout_s: u64,
    /// Optional per-job simulated-cycle budget.
    pub cycle_budget: Option<u64>,
    /// Concurrent worker processes.
    pub workers: usize,
    /// Step-loop shard count inside every worker (overrides the worker's
    /// own `RuntimeOptions::shards`; results are bit-identical for any
    /// value).
    pub shards: usize,
    /// The scenarios, in manifest order.
    pub scenarios: Vec<Scenario>,
}

/// Everything that can be wrong with a manifest, each its own class so
/// tests can pin the diagnosis (not just "parse failed").
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// Unparsable line (bad header, missing `=`, malformed value…).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A `[section]` that is neither `[campaign]` nor `[scenario.<id>]`.
    UnknownSection {
        /// 1-based line number.
        line: usize,
        /// The offending header.
        section: String,
    },
    /// A key the section does not define.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The section the key appeared in.
        section: String,
        /// The offending key.
        key: String,
    },
    /// The same key twice in one section.
    DuplicateKey {
        /// 1-based line number.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// Two `[scenario.<id>]` sections with the same id.
    DuplicateScenario {
        /// 1-based line number.
        line: usize,
        /// The repeated id.
        id: String,
    },
    /// A scenario is missing a required key.
    MissingKey {
        /// The scenario id.
        scenario: String,
        /// The missing key.
        key: &'static str,
    },
    /// A scheme name the registry cannot resolve.
    UnknownScheme {
        /// The scenario id.
        scenario: String,
        /// The unresolvable name.
        name: String,
    },
    /// A pattern name the registry cannot resolve.
    UnknownPattern {
        /// The scenario id.
        scenario: String,
        /// The unresolvable name.
        name: String,
    },
    /// An offered rate outside `(0, 1]`.
    BadRate {
        /// The scenario id.
        scenario: String,
        /// The rejected value.
        value: f64,
    },
    /// A fault spec that is not `none`, `loss-<p>` or `storm-<k>`.
    BadFault {
        /// The scenario id.
        scenario: String,
        /// The rejected spec.
        spec: String,
    },
    /// A matrix axis with no entries.
    EmptyList {
        /// The scenario id.
        scenario: String,
        /// The empty key.
        key: &'static str,
    },
    /// No `[scenario.*]` sections at all.
    NoScenarios,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ManifestError::UnknownSection { line, section } => write!(
                f,
                "line {line}: unknown section [{section}] (expected [campaign] or [scenario.<id>])"
            ),
            ManifestError::UnknownKey { line, section, key } => {
                write!(f, "line {line}: unknown key '{key}' in [{section}]")
            }
            ManifestError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key '{key}'")
            }
            ManifestError::DuplicateScenario { line, id } => {
                write!(f, "line {line}: duplicate scenario id '{id}'")
            }
            ManifestError::MissingKey { scenario, key } => {
                write!(f, "scenario '{scenario}': missing required key '{key}'")
            }
            ManifestError::UnknownScheme { scenario, name } => write!(
                f,
                "scenario '{scenario}': unknown scheme '{name}' (known: {}, static-<threshold>)",
                Scheme::registry_names().join(", ")
            ),
            ManifestError::UnknownPattern { scenario, name } => write!(
                f,
                "scenario '{scenario}': unknown pattern '{name}' (known: {})",
                Pattern::names().join(", ")
            ),
            ManifestError::BadRate { scenario, value } => {
                write!(f, "scenario '{scenario}': rate {value} out of range (0, 1]")
            }
            ManifestError::BadFault { scenario, spec } => write!(
                f,
                "scenario '{scenario}': bad fault spec '{spec}' \
                 (expected none, loss-<p> or storm-<k>)"
            ),
            ManifestError::EmptyList { scenario, key } => {
                write!(f, "scenario '{scenario}': '{key}' must not be empty")
            }
            ManifestError::NoScenarios => f.write_str("manifest defines no [scenario.*] sections"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One parsed value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    List(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::List(_) => "array",
        }
    }
}

/// Cuts an unquoted `#` comment off `line`.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, ManifestError> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or(ManifestError::Syntax {
            line,
            msg: format!("unterminated string {s}"),
        })?;
        if inner.contains('"') {
            return Err(ManifestError::Syntax {
                line,
                msg: format!("embedded quote in string {s}"),
            });
        }
        return Ok(Value::Str(inner.to_owned()));
    }
    let n: f64 = s.parse().map_err(|_| ManifestError::Syntax {
        line,
        msg: format!("bad value '{s}' (expected a string, number or array)"),
    })?;
    if !n.is_finite() {
        return Err(ManifestError::Syntax {
            line,
            msg: format!("non-finite number '{s}'"),
        });
    }
    Ok(Value::Num(n))
}

fn parse_value(s: &str, line: usize) -> Result<Value, ManifestError> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or(ManifestError::Syntax {
            line,
            msg: "unterminated array (arrays are single-line)".to_owned(),
        })?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::List(Vec::new()));
        }
        return inner
            .split(',')
            .map(|item| parse_scalar(item, line))
            .collect::<Result<Vec<_>, _>>()
            .map(Value::List);
    }
    parse_scalar(s, line)
}

fn expect_str(v: &Value, key: &str, line: usize) -> Result<String, ManifestError> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(ManifestError::Syntax {
            line,
            msg: format!("'{key}' must be a string, got a {}", other.type_name()),
        }),
    }
}

fn expect_uint(v: &Value, key: &str, line: usize) -> Result<u64, ManifestError> {
    match v {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Ok(*n as u64),
        other => Err(ManifestError::Syntax {
            line,
            msg: format!(
                "'{key}' must be a non-negative integer, got {}",
                match other {
                    Value::Num(n) => n.to_string(),
                    v => format!("a {}", v.type_name()),
                }
            ),
        }),
    }
}

fn expect_str_list(v: &Value, key: &str, line: usize) -> Result<Vec<String>, ManifestError> {
    match v {
        Value::List(items) => items.iter().map(|i| expect_str(i, key, line)).collect(),
        other => Err(ManifestError::Syntax {
            line,
            msg: format!("'{key}' must be an array, got a {}", other.type_name()),
        }),
    }
}

fn expect_num_list(v: &Value, key: &str, line: usize) -> Result<Vec<f64>, ManifestError> {
    match v {
        Value::List(items) => items
            .iter()
            .map(|i| match i {
                Value::Num(n) => Ok(*n),
                other => Err(ManifestError::Syntax {
                    line,
                    msg: format!(
                        "'{key}' entries must be numbers, got a {}",
                        other.type_name()
                    ),
                }),
            })
            .collect(),
        other => Err(ManifestError::Syntax {
            line,
            msg: format!("'{key}' must be an array, got a {}", other.type_name()),
        }),
    }
}

/// Raw key/value accumulation of one section during the parse pass.
#[derive(Debug, Default)]
struct RawSection {
    keys: Vec<(String, Value, usize)>,
}

impl RawSection {
    fn insert(&mut self, key: String, value: Value, line: usize) -> Result<(), ManifestError> {
        if self.keys.iter().any(|(k, _, _)| *k == key) {
            return Err(ManifestError::DuplicateKey { line, key });
        }
        self.keys.push((key, value, line));
        Ok(())
    }

    fn take(&self, key: &str) -> Option<(&Value, usize)> {
        self.keys
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, l)| (v, *l))
    }
}

fn finalize_scenario(id: &str, raw: &RawSection) -> Result<Scenario, ManifestError> {
    const KEYS: &[&str] = &["net", "scale", "schemes", "patterns", "rates", "faults"];
    for (key, _, line) in &raw.keys {
        if !KEYS.contains(&key.as_str()) {
            return Err(ManifestError::UnknownKey {
                line: *line,
                section: format!("scenario.{id}"),
                key: key.clone(),
            });
        }
    }
    let scenario = id.to_owned();
    let net = match raw.take("net") {
        Some((v, line)) => {
            let s = expect_str(v, "net", line)?;
            NetPreset::parse(&s).ok_or(ManifestError::Syntax {
                line,
                msg: format!("unknown net preset '{s}' (paper|small)"),
            })?
        }
        None => NetPreset::Paper,
    };
    let scale = match raw.take("scale") {
        Some((v, line)) => {
            let s = expect_str(v, "scale", line)?;
            Scale::parse(&s).ok_or(ManifestError::Syntax {
                line,
                msg: format!("unknown scale '{s}' (paper|reduced|smoke|tiny)"),
            })?
        }
        None => Scale::Reduced,
    };
    let require = |key: &'static str| {
        raw.take(key).ok_or(ManifestError::MissingKey {
            scenario: scenario.clone(),
            key,
        })
    };
    let (v, line) = require("schemes")?;
    let schemes = expect_str_list(v, "schemes", line)?;
    let (v, line) = require("patterns")?;
    let patterns = expect_str_list(v, "patterns", line)?;
    let (v, line) = require("rates")?;
    let rates = expect_num_list(v, "rates", line)?;
    let faults = match raw.take("faults") {
        Some((v, line)) => expect_str_list(v, "faults", line)?
            .iter()
            .map(|s| {
                FaultSpec::parse(s).ok_or_else(|| ManifestError::BadFault {
                    scenario: scenario.clone(),
                    spec: s.clone(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![FaultSpec::None],
    };
    for (key, empty) in [
        ("schemes", schemes.is_empty()),
        ("patterns", patterns.is_empty()),
        ("rates", rates.is_empty()),
        ("faults", faults.is_empty()),
    ] {
        if empty {
            return Err(ManifestError::EmptyList {
                scenario: scenario.clone(),
                key,
            });
        }
    }
    // Resolve every axis entry now: a campaign must refuse to start on a
    // name the registries cannot honor.
    let sideband = net.sideband();
    for name in &schemes {
        if Scheme::by_name(name, &sideband).is_none() {
            return Err(ManifestError::UnknownScheme {
                scenario,
                name: name.clone(),
            });
        }
    }
    for name in &patterns {
        if Pattern::by_name(name).is_none() {
            return Err(ManifestError::UnknownPattern {
                scenario,
                name: name.clone(),
            });
        }
    }
    for &value in &rates {
        if !value.is_finite() || value <= 0.0 || value > 1.0 {
            return Err(ManifestError::BadRate { scenario, value });
        }
    }
    Ok(Scenario {
        id: scenario,
        net,
        scale,
        schemes,
        patterns,
        rates,
        faults,
    })
}

impl Manifest {
    /// Parses and validates a manifest.
    ///
    /// # Errors
    ///
    /// Returns the first [`ManifestError`], with its line number where one
    /// applies.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        enum Section {
            Preamble,
            Campaign,
            Scenario(usize),
        }
        let mut campaign = RawSection::default();
        let mut scenarios: Vec<(String, RawSection)> = Vec::new();
        let mut current = Section::Preamble;
        for (i, raw_line) in text.lines().enumerate() {
            let line = i + 1;
            let stripped = strip_comment(raw_line).trim();
            if stripped.is_empty() {
                continue;
            }
            if let Some(header) = stripped.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or(ManifestError::Syntax {
                    line,
                    msg: format!("malformed section header '{stripped}'"),
                })?;
                if header == "campaign" {
                    if !campaign.keys.is_empty() {
                        return Err(ManifestError::Syntax {
                            line,
                            msg: "duplicate [campaign] section".to_owned(),
                        });
                    }
                    current = Section::Campaign;
                } else if let Some(id) = header.strip_prefix("scenario.") {
                    if id.is_empty()
                        || !id
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(ManifestError::Syntax {
                            line,
                            msg: format!("bad scenario id '{id}' (alphanumeric, '-' and '_' only)"),
                        });
                    }
                    if scenarios.iter().any(|(existing, _)| existing == id) {
                        return Err(ManifestError::DuplicateScenario {
                            line,
                            id: id.to_owned(),
                        });
                    }
                    scenarios.push((id.to_owned(), RawSection::default()));
                    current = Section::Scenario(scenarios.len() - 1);
                } else {
                    return Err(ManifestError::UnknownSection {
                        line,
                        section: header.to_owned(),
                    });
                }
                continue;
            }
            let (key, value) = stripped.split_once('=').ok_or(ManifestError::Syntax {
                line,
                msg: format!("expected 'key = value', got '{stripped}'"),
            })?;
            let key = key.trim().to_owned();
            let value = parse_value(value, line)?;
            match current {
                Section::Preamble => {
                    return Err(ManifestError::Syntax {
                        line,
                        msg: format!("key '{key}' before any section header"),
                    })
                }
                Section::Campaign => campaign.insert(key, value, line)?,
                Section::Scenario(idx) => scenarios[idx].1.insert(key, value, line)?,
            }
        }

        const CAMPAIGN_KEYS: &[&str] = &[
            "name",
            "seed",
            "retries",
            "backoff_ms",
            "timeout_s",
            "cycle_budget",
            "workers",
            "shards",
        ];
        for (key, _, line) in &campaign.keys {
            if !CAMPAIGN_KEYS.contains(&key.as_str()) {
                return Err(ManifestError::UnknownKey {
                    line: *line,
                    section: "campaign".to_owned(),
                    key: key.clone(),
                });
            }
        }
        let name = match campaign.take("name") {
            Some((v, line)) => expect_str(v, "name", line)?,
            None => "campaign".to_owned(),
        };
        let uint_or = |key: &str, default: u64| -> Result<u64, ManifestError> {
            campaign
                .take(key)
                .map_or(Ok(default), |(v, line)| expect_uint(v, key, line))
        };
        let seed = uint_or("seed", 1)?;
        #[allow(clippy::cast_possible_truncation)]
        let retries = uint_or("retries", 2)?.min(u64::from(u32::MAX)) as u32;
        let backoff_ms = uint_or("backoff_ms", 50)?;
        let timeout_s = uint_or("timeout_s", 60)?;
        let cycle_budget = campaign
            .take("cycle_budget")
            .map(|(v, line)| expect_uint(v, "cycle_budget", line))
            .transpose()?;
        #[allow(clippy::cast_possible_truncation)]
        let workers = (uint_or("workers", 2)?.clamp(1, 64)) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let shards = (uint_or("shards", 1)?.clamp(1, 64)) as usize;

        if scenarios.is_empty() {
            return Err(ManifestError::NoScenarios);
        }
        let scenarios = scenarios
            .iter()
            .map(|(id, raw)| finalize_scenario(id, raw))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            name,
            seed,
            retries,
            backoff_ms,
            timeout_s,
            cycle_budget,
            workers,
            shards,
            scenarios,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# A comment before anything.
[campaign]
name = "unit"    # trailing comment
seed = 9
retries = 1
backoff_ms = 10
timeout_s = 30
workers = 3
shards = 2

[scenario.alpha]
net = "small"
scale = "tiny"
schemes = ["base", "tune", "static-62"]
patterns = ["uniform-random", "transpose"]
rates = [0.005, 0.028]
faults = ["none", "loss-0.5", "storm-2"]

[scenario.beta]
schemes = ["alo"]
patterns = ["bit-reversal"]
rates = [0.01]
"#;

    #[test]
    fn parses_a_full_manifest() {
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.name, "unit");
        assert_eq!(m.seed, 9);
        assert_eq!(m.retries, 1);
        assert_eq!(m.backoff_ms, 10);
        assert_eq!(m.timeout_s, 30);
        assert_eq!(m.cycle_budget, None);
        assert_eq!(m.workers, 3);
        assert_eq!(m.shards, 2);
        assert_eq!(m.scenarios.len(), 2);
        let a = &m.scenarios[0];
        assert_eq!(a.id, "alpha");
        assert_eq!(a.net, NetPreset::Small);
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.schemes, vec!["base", "tune", "static-62"]);
        assert_eq!(a.rates, vec![0.005, 0.028]);
        assert_eq!(
            a.faults,
            vec![FaultSpec::None, FaultSpec::Loss(0.5), FaultSpec::Storm(2)]
        );
        let b = &m.scenarios[1];
        assert_eq!(b.net, NetPreset::Paper, "net defaults to paper");
        assert_eq!(b.scale, Scale::Reduced, "scale defaults to reduced");
        assert_eq!(b.faults, vec![FaultSpec::None], "faults default to none");
    }

    #[test]
    fn shards_defaults_to_one() {
        let text = GOOD.replace("shards = 2\n", "");
        assert_eq!(Manifest::parse(&text).unwrap().shards, 1);
    }

    #[test]
    fn rejects_unknown_key() {
        let text = GOOD.replace("workers = 3", "wrokers = 3");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::UnknownKey { section, key, .. })
                if section == "campaign" && key == "wrokers"
        ));
        let text = GOOD.replace("scale = \"tiny\"", "scalee = \"tiny\"");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::UnknownKey { section, key, .. })
                if section == "scenario.alpha" && key == "scalee"
        ));
    }

    #[test]
    fn rejects_bad_rate() {
        for bad in ["0.0", "-0.1", "1.5"] {
            let text = GOOD.replace("rates = [0.005, 0.028]", &format!("rates = [{bad}]"));
            assert!(
                matches!(
                    Manifest::parse(&text),
                    Err(ManifestError::BadRate { ref scenario, .. }) if scenario == "alpha"
                ),
                "rate {bad} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_duplicate_scenario_id() {
        let text = GOOD.replace("[scenario.beta]", "[scenario.alpha]");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::DuplicateScenario { id, .. }) if id == "alpha"
        ));
    }

    #[test]
    fn rejects_unknown_scheme_listing_the_registry() {
        let text = GOOD.replace("\"tune\"", "\"warp\"");
        let err = Manifest::parse(&text).unwrap_err();
        assert!(matches!(
            err,
            ManifestError::UnknownScheme { ref name, .. } if name == "warp"
        ));
        let msg = err.to_string();
        for known in Scheme::registry_names() {
            assert!(msg.contains(known), "error must list '{known}': {msg}");
        }
        assert!(msg.contains("static-<threshold>"));
    }

    #[test]
    fn rejects_unknown_pattern_listing_the_registry() {
        let text = GOOD.replace("\"transpose\"", "\"tornado\"");
        let err = Manifest::parse(&text).unwrap_err();
        assert!(matches!(
            err,
            ManifestError::UnknownPattern { ref name, .. } if name == "tornado"
        ));
        assert!(err.to_string().contains("uniform-random"));
    }

    #[test]
    fn rejects_malformed_syntax_classes() {
        assert!(matches!(
            Manifest::parse("[campaign]\nname \"x\"\n"),
            Err(ManifestError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            Manifest::parse("[bogus]\n"),
            Err(ManifestError::UnknownSection { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("[scenario.]\n"),
            Err(ManifestError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("stray = 1\n"),
            Err(ManifestError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            Manifest::parse("[campaign]\nseed = -3\n[scenario.a]\nschemes=[\"base\"]\npatterns=[\"transpose\"]\nrates=[0.01]\n"),
            Err(ManifestError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            Manifest::parse("[campaign]\nseed = 1\nseed = 2\n"),
            Err(ManifestError::DuplicateKey { line: 3, .. })
        ));
        assert!(matches!(
            Manifest::parse("[campaign]\nname = \"x\"\n"),
            Err(ManifestError::NoScenarios)
        ));
        let text = GOOD.replace("schemes = [\"alo\"]", "schemes = []");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::EmptyList { key: "schemes", .. })
        ));
        let text = GOOD.replace(
            "patterns = [\"bit-reversal\"]\nrates = [0.01]",
            "rates = [0.01]",
        );
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::MissingKey {
                key: "patterns",
                ..
            })
        ));
        let text = GOOD.replace("\"loss-0.5\"", "\"loss-nan\"");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::BadFault { ref spec, .. }) if spec == "loss-nan"
        ));
        let text = GOOD.replace("\"storm-2\"", "\"storm-0\"");
        assert!(matches!(
            Manifest::parse(&text),
            Err(ManifestError::BadFault { ref spec, .. }) if spec == "storm-0"
        ));
    }

    #[test]
    fn comment_hash_inside_string_is_kept() {
        let text = GOOD.replace("name = \"unit\"", "name = \"a#b\" # real comment");
        assert_eq!(Manifest::parse(&text).unwrap().name, "a#b");
    }
}
