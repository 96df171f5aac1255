//! The JSON-lines job codec spoken between `raa-sweepd` and its clients.
//!
//! One request per line, one response per line, over any byte stream
//! (TCP in practice). This module holds only the codec: specs, calibration
//! configs, record transport, requests and responses. It parses, escapes
//! and formats numbers through the crate's one JSON module,
//! [`crate::json`], the same rules the record format uses, and reads fields
//! with its typed accessors.
//!
//! Two transport rules keep the daemon's headline guarantees intact:
//!
//! - **Records travel as their exact JSON line**, embedded as one JSON
//!   string (escaping is lossless), so a record's bytes survive the wire
//!   unchanged and a warm `raa-sweepd` answer is byte-identical to a local
//!   sweep — the property CI pins.
//! - **Seeds travel as decimal strings** (like the record format): a `u64`
//!   seed does not fit `f64` exactly.
//!
//! A spec travels as one flat object from one writer, which names every
//! spec field. The cache key hashes the same bytes
//! (`crate::orchestrator::spec_fingerprint`), so the wire line decides
//! which fields reach a record's identity. The writer leaves out `mc`: it
//! holds only the decode thread count, which cannot change any record, and
//! the server owns its own execution budget.
//!
//! # Example
//!
//! ```
//! use raa_sim::jobs::{Request, Response};
//! use raa_sim::{ExperimentSpec, Rounds, Scenario};
//!
//! let spec = ExperimentSpec::new(
//!     "demo",
//!     Scenario::Memory { rounds: Rounds::Fixed(2) },
//!     3,
//! );
//! let request = Request::Sweep { id: "job-1".into(), specs: vec![spec] };
//! let line = request.to_line();
//! assert!(!line.contains('\n'), "one request per line");
//! let decoded = Request::from_line(&line).unwrap();
//! assert!(matches!(decoded, Request::Sweep { ref id, .. } if id == "job-1"));
//! # let _ = Response::Error { id: "job-1".into(), message: "demo".into() };
//! ```

use crate::calibrate::{Calibration, CalibrationConfig};
use crate::error::PoisonedPoint;
use crate::json::{write_number, write_string};
use crate::orchestrator::ScrubReport;
use crate::record::{basis_field, basis_letter, ExperimentRecord};
use crate::spec::{DecoderChoice, ExperimentSpec, Rounds, SamplerChoice, Scenario, ShotBudget};
use raa_core::fit::FitResult;
use raa_core::ErrorModelParams;
use raa_decode::McConfig;
use raa_factory::FactoryProtocol;
use raa_gadgets::GadgetKind;
use raa_surface::NoiseModel;
use std::fmt::Write as _;

/// The wire value, re-exported from [`crate::json`] at the path the
/// benchmark package (`e2ebench/`) imports it from.
pub use crate::json::Json;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn unum(v: usize) -> Json {
    Json::Num(v as f64)
}

fn s(v: impl Into<String>) -> Json {
    Json::Str(v.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

// ---------------------------------------------------------------------------
// Spec codec
// ---------------------------------------------------------------------------

fn rounds_from_wire(text: &str) -> Result<Rounds, String> {
    let parse = |v: &str| v.parse().map_err(|_| format!("malformed rounds {text:?}"));
    if let Some(n) = text.strip_prefix("fixed:") {
        Ok(Rounds::Fixed(parse(n)?))
    } else if let Some(k) = text.strip_prefix("xd:") {
        Ok(Rounds::TimesDistance(parse(k)?))
    } else {
        Err(format!("malformed rounds {text:?}"))
    }
}

fn shots_from_wire(text: &str) -> Result<ShotBudget, String> {
    let bad = || format!("malformed shot budget {text:?}");
    if let Some(n) = text.strip_prefix("fixed:") {
        return Ok(ShotBudget::Fixed(n.parse().map_err(|_| bad())?));
    }
    if let Some(rest) = text.strip_prefix("until:") {
        let (max, target) = rest.split_once(':').ok_or_else(bad)?;
        return Ok(ShotBudget::UntilFailures {
            max_shots: max.parse().map_err(|_| bad())?,
            target_failures: target.parse().map_err(|_| bad())?,
        });
    }
    Err(bad())
}

fn decoder_from_label(label: &str) -> Result<DecoderChoice, String> {
    match label {
        "union_find" => Ok(DecoderChoice::UnionFind),
        "matching" => Ok(DecoderChoice::Matching),
        "bp_union_find" => Ok(DecoderChoice::BpUnionFind),
        other => {
            let bad = || format!("unknown decoder {other:?}");
            let spec = other.strip_prefix("windowed_").ok_or_else(bad)?;
            let (commit, buffer) = spec.split_once('+').ok_or_else(bad)?;
            Ok(DecoderChoice::Windowed {
                commit: commit.parse().map_err(|_| bad())?,
                buffer: buffer.parse().map_err(|_| bad())?,
            })
        }
    }
}

fn sampler_from_label(label: &str) -> Result<SamplerChoice, String> {
    match label {
        "dem" => Ok(SamplerChoice::Dem),
        "circuit" => Ok(SamplerChoice::Circuit),
        other => Err(format!("unknown sampler {other:?}")),
    }
}

/// Appends `,"key":` to `out`.
fn field(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// Appends `,"key":value` to `out`.
fn number_field(out: &mut String, key: &str, value: f64) {
    field(out, key);
    write_number(out, value);
}

/// Appends `,"key":"value"` to `out`, escaping the value.
fn string_field(out: &mut String, key: &str, value: &str) {
    field(out, key);
    write_string(out, value);
}

fn write_rounds(out: &mut String, rounds: Rounds) {
    let _ = match rounds {
        Rounds::Fixed(n) => write!(out, ",\"rounds\":\"fixed:{n}\""),
        Rounds::TimesDistance(k) => write!(out, ",\"rounds\":\"xd:{k}\""),
    };
}

/// Appends a spec's wire object to `out`. This is the one spec encoding:
/// [`Request::to_line`] sends it, and
/// [`crate::orchestrator::spec_fingerprint`] hashes it into the cache key.
/// Every field of the spec, of its noise model and of each scenario variant
/// is named, so a new field fails to compile here until it is encoded or
/// ruled out.
pub(crate) fn write_spec(out: &mut String, spec: &ExperimentSpec) {
    let ExperimentSpec {
        name,
        scenario,
        distance,
        basis,
        noise:
            NoiseModel {
                p2,
                p_idle,
                p_prep,
                p_meas,
            },
        decoder,
        sampler,
        streaming,
        shots,
        seed,
        // Left out: `mc` holds only the decode thread count, which cannot
        // change a record, and the server owns its execution budget.
        mc: _,
    } = spec;
    out.push_str("{\"name\":");
    write_string(out, name);
    string_field(out, "scenario", scenario.label());
    // The label carries the factory protocol and the gadget kind.
    match *scenario {
        Scenario::Memory { rounds }
        | Scenario::MagicFactory {
            protocol: _,
            rounds,
        }
        | Scenario::Code832Memory { rounds } => write_rounds(out, rounds),
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => {
            number_field(out, "patches", patches as f64);
            number_field(out, "depth", depth as f64);
            number_field(out, "cnots_per_round", cnots_per_round);
        }
        Scenario::GhzFanout { targets } => number_field(out, "targets", targets as f64),
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => {
            number_field(out, "patches", patches as f64);
            write_rounds(out, rounds);
            number_field(out, "cnots_per_round", cnots_per_round);
        }
        Scenario::Gadget {
            kind: _,
            width,
            rounds,
        } => {
            number_field(out, "width", width as f64);
            write_rounds(out, rounds);
        }
    }
    number_field(out, "distance", f64::from(*distance));
    string_field(out, "basis", basis_letter(*basis));
    number_field(out, "p2", *p2);
    number_field(out, "p_idle", *p_idle);
    number_field(out, "p_prep", *p_prep);
    number_field(out, "p_meas", *p_meas);
    string_field(out, "decoder", &decoder.label());
    string_field(out, "sampler", sampler.label());
    field(out, "streaming");
    out.push_str(if *streaming { "true" } else { "false" });
    let _ = match *shots {
        ShotBudget::Fixed(n) => write!(out, ",\"shots\":\"fixed:{n}\""),
        ShotBudget::UntilFailures {
            max_shots,
            target_failures,
        } => write!(out, ",\"shots\":\"until:{max_shots}:{target_failures}\""),
    };
    // A `u64` seed does not fit an `f64`: it travels as a decimal string.
    let _ = write!(out, ",\"seed\":\"{seed}\"}}");
}

/// The spec's wire object as a [`Json`] value: the line [`Request::to_line`]
/// writes for it, parsed back. The benchmark package (`e2ebench/`) imports
/// it.
pub fn spec_to_json(spec: &ExperimentSpec) -> Json {
    let mut line = String::new();
    write_spec(&mut line, spec);
    // The writer emits one JSON object, so the parse cannot fail.
    Json::parse(&line).unwrap_or(Json::Null)
}

/// Decodes a wire spec. The resulting spec carries the default `mc`
/// setting: the server decides its own threading.
fn spec_from_json(v: &Json) -> Result<ExperimentSpec, String> {
    let rounds = || rounds_from_wire(v.str_field("rounds")?);
    let scenario = match v.str_field("scenario")? {
        "memory" => Scenario::Memory { rounds: rounds()? },
        "transversal_cnot" => Scenario::TransversalCnot {
            patches: v.count_field("patches")?,
            depth: v.count_field("depth")?,
            cnots_per_round: v.f64_field("cnots_per_round")?,
        },
        "ghz_fanout" => Scenario::GhzFanout {
            targets: v.count_field("targets")?,
        },
        "deep_cnot" => Scenario::DeepCnot {
            patches: v.count_field("patches")?,
            rounds: rounds()?,
            cnots_per_round: v.f64_field("cnots_per_round")?,
        },
        "factory_distill15" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Distill15,
            rounds: rounds()?,
        },
        "factory_ccz" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Ccz,
            rounds: rounds()?,
        },
        "factory_cultivation" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Cultivation,
            rounds: rounds()?,
        },
        "gadget_adder" => Scenario::Gadget {
            kind: GadgetKind::Adder,
            width: v.count_field("width")?,
            rounds: rounds()?,
        },
        "gadget_lookup" => Scenario::Gadget {
            kind: GadgetKind::Lookup,
            width: v.count_field("width")?,
            rounds: rounds()?,
        },
        "gadget_fanout" => Scenario::Gadget {
            kind: GadgetKind::Fanout,
            width: v.count_field("width")?,
            rounds: rounds()?,
        },
        "code832_memory" => Scenario::Code832Memory { rounds: rounds()? },
        other => return Err(format!("unknown scenario {other:?}")),
    };
    let distance = v.u32_field("distance")?;
    Ok(ExperimentSpec {
        name: v.str_field("name")?.to_string(),
        scenario,
        distance,
        basis: basis_field(v)?,
        noise: NoiseModel {
            p2: v.f64_field("p2")?,
            p_idle: v.f64_field("p_idle")?,
            p_prep: v.f64_field("p_prep")?,
            p_meas: v.f64_field("p_meas")?,
        },
        decoder: decoder_from_label(v.str_field("decoder")?)?,
        sampler: sampler_from_label(v.str_field("sampler")?)?,
        streaming: v.bool_field("streaming")?,
        shots: shots_from_wire(v.str_field("shots")?)?,
        seed: v.u64_str_field("seed")?,
        mc: McConfig::default(),
    })
}

fn specs_from_field(v: &Json) -> Result<Vec<ExperimentSpec>, String> {
    v.arr_field("specs")?
        .iter()
        .enumerate()
        .map(|(i, item)| spec_from_json(item).map_err(|e| format!("spec #{i}: {e}")))
        .collect()
}

// ---------------------------------------------------------------------------
// Calibration config codec
// ---------------------------------------------------------------------------

fn config_to_json(cfg: &CalibrationConfig) -> Json {
    obj(vec![
        ("p_phys", num(cfg.p_phys)),
        (
            "distances",
            Json::Arr(cfg.distances.iter().map(|&d| num(f64::from(d))).collect()),
        ),
        (
            "cnots_per_round",
            Json::Arr(cfg.cnots_per_round.iter().map(|&x| num(x)).collect()),
        ),
        ("memory_shots", unum(cfg.memory_shots)),
        ("cnot_shots", unum(cfg.cnot_shots)),
        ("memory_rounds_factor", unum(cfg.memory_rounds_factor)),
        ("cnot_depth", unum(cfg.cnot_depth)),
        ("c", num(cfg.c)),
        ("memory_seed", s(cfg.memory_seed.to_string())),
        ("cnot_seed", s(cfg.cnot_seed.to_string())),
    ])
}

/// Decodes a wire calibration config. `cache_dir` and `point_threads` are
/// not wire fields: the server's own cache and worker pool are used.
fn config_from_json(v: &Json) -> Result<CalibrationConfig, String> {
    let config = CalibrationConfig {
        p_phys: v.f64_field("p_phys")?,
        distances: v.u32_items("distances")?,
        cnots_per_round: v.f64_items("cnots_per_round")?,
        memory_shots: v.count_field("memory_shots")?,
        cnot_shots: v.count_field("cnot_shots")?,
        memory_rounds_factor: v.count_field("memory_rounds_factor")?,
        cnot_depth: v.count_field("cnot_depth")?,
        c: v.f64_field("c")?,
        memory_seed: v.u64_str_field("memory_seed")?,
        cnot_seed: v.u64_str_field("cnot_seed")?,
        cache_dir: None,
        point_threads: 0,
    };
    config.check().map_err(|e| e.to_string())?;
    Ok(config)
}

// ---------------------------------------------------------------------------
// Record transport
// ---------------------------------------------------------------------------

/// Appends `,"key":[...]` with one slot per record: a record travels as
/// its exact JSON line inside one JSON string — the escaping is lossless,
/// so the bytes a warm client replays are identical to what a local sweep
/// writes — and an empty slot as `null`.
fn write_records<'a>(
    out: &mut String,
    key: &str,
    records: impl Iterator<Item = Option<&'a ExperimentRecord>>,
) {
    field(out, key);
    out.push('[');
    for (i, slot) in records.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match slot {
            Some(record) => write_string(out, &record.to_json()),
            None => out.push_str("null"),
        }
    }
    out.push(']');
}

fn record_from_wire(v: &Json) -> Result<Option<ExperimentRecord>, String> {
    match v {
        Json::Null => Ok(None),
        Json::Str(line) => ExperimentRecord::from_json(line).map(Some),
        _ => Err("record slots must be strings or null".into()),
    }
}

fn records_from_field(v: &Json, key: &str) -> Result<Vec<Option<ExperimentRecord>>, String> {
    v.arr_field(key)?
        .iter()
        .enumerate()
        .map(|(i, item)| record_from_wire(item).map_err(|e| format!("{key}[{i}]: {e}")))
        .collect()
}

fn dense_records(
    slots: Vec<Option<ExperimentRecord>>,
    key: &str,
) -> Result<Vec<ExperimentRecord>, String> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or_else(|| format!("{key}[{i}] must not be null")))
        .collect()
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client → daemon job, one JSON line on the wire.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run every spec (cache-first), sampling misses.
    Sweep {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The grid points to run.
        specs: Vec<ExperimentSpec>,
    },
    /// Warm-cache query: answer from the cache only, never sample.
    Query {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The grid points to look up.
        specs: Vec<ExperimentSpec>,
    },
    /// Run the full calibration chain (two sweeps + the (α, Λ) fit) on the
    /// server's cache and worker pool, both sweeps' points as one job.
    Calibrate {
        /// Client-chosen job id, echoed in the response.
        id: String,
        /// The calibration to run (`cache_dir`/`point_threads` are the
        /// server's, not wire fields).
        config: CalibrationConfig,
    },
    /// Daemon health/counters snapshot.
    Status {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
    /// One cache integrity scrub/evict pass, now.
    Scrub {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
    /// Ask the daemon to drain: in-flight points finish and persist,
    /// queued jobs are shed, then the process exits.
    Shutdown {
        /// Client-chosen job id, echoed in the response.
        id: String,
    },
}

impl Request {
    /// The job id the response will echo.
    pub(crate) fn id(&self) -> &str {
        match self {
            Request::Sweep { id, .. }
            | Request::Query { id, .. }
            | Request::Calibrate { id, .. }
            | Request::Status { id }
            | Request::Scrub { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Encodes as one JSON line (no trailing newline). Specs go through
    /// the one spec writer, so they carry the bytes their cache keys hash.
    pub fn to_line(&self) -> String {
        let (kind, specs) = match self {
            Request::Sweep { specs, .. } => ("sweep", Some(specs)),
            Request::Query { specs, .. } => ("query", Some(specs)),
            Request::Calibrate { .. } => ("calibrate", None),
            Request::Status { .. } => ("status", None),
            Request::Scrub { .. } => ("scrub", None),
            Request::Shutdown { .. } => ("shutdown", None),
        };
        let mut out = format!("{{\"type\":\"{kind}\"");
        string_field(&mut out, "id", self.id());
        if let Some(specs) = specs {
            out.push_str(",\"specs\":[");
            for (i, spec) in specs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_spec(&mut out, spec);
            }
            out.push(']');
        }
        if let Request::Calibrate { config, .. } = self {
            field(&mut out, "config");
            out.push_str(&config_to_json(config).to_line());
        }
        out.push('}');
        out
    }

    /// Decodes one JSON line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim())?;
        let id = v.str_field("id")?.to_string();
        match v.str_field("type")? {
            "sweep" => Ok(Request::Sweep {
                id,
                specs: specs_from_field(&v)?,
            }),
            "query" => Ok(Request::Query {
                id,
                specs: specs_from_field(&v)?,
            }),
            "calibrate" => Ok(Request::Calibrate {
                id,
                config: config_from_json(v.field("config")?)?,
            }),
            "status" => Ok(Request::Status { id }),
            "scrub" => Ok(Request::Scrub { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A point quarantined by the daemon (its engine run panicked once; it is
/// refused thereafter by cache key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPoint {
    /// The point's content-addressed cache key.
    pub(crate) key: String,
    /// The point's record name at quarantine time.
    pub name: String,
    /// The panic message.
    pub(crate) message: String,
}

/// A daemon health/counters snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Whether the daemon is draining (new jobs are shed).
    pub draining: bool,
    /// Worker threads serving the point queue.
    pub workers: usize,
    /// Jobs fully completed since startup.
    pub jobs_completed: u64,
    /// Grid points processed since startup.
    pub points_completed: u64,
    /// Points answered from the cache.
    pub cache_hits: u64,
    /// Points freshly sampled.
    pub fresh_points: u64,
    /// Monte-Carlo shots sampled.
    pub(crate) fresh_shots: u64,
    /// Corrupt cache entries found and overwritten.
    pub(crate) corrupt_replaced: u64,
    /// Points shed (drain or abandoned jobs).
    pub shed_points: u64,
    /// The poisoned-point quarantine list.
    pub quarantined: Vec<QuarantinedPoint>,
}

/// One daemon → client answer, one JSON line on the wire. Every variant
/// echoes the request's id; the wire carries a `status` field (`ok`,
/// `draining`, `shed`, `error`) so clients can branch before decoding the
/// payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// A sweep job's outcome: accounting, the quarantine entries it hit,
    /// and one record slot per submitted spec (`null` where the point was
    /// poisoned, shed or failed — the `poisoned` list says which).
    Sweep {
        /// Echoed job id.
        id: String,
        /// Points freshly sampled.
        fresh_points: usize,
        /// Points replayed from the cache.
        cached_points: usize,
        /// Monte-Carlo shots sampled for this job.
        fresh_shots: usize,
        /// Corrupt cache entries found and overwritten.
        corrupt_replaced: usize,
        /// Points whose engine run panicked (now quarantined).
        poisoned: Vec<PoisonedPoint>,
        /// Per-spec record slots, in submission order.
        records: Vec<Option<ExperimentRecord>>,
    },
    /// A warm-cache query's outcome: hits verbatim, misses as `null`,
    /// nothing sampled.
    Query {
        /// Echoed job id.
        id: String,
        /// Cache hits.
        hits: usize,
        /// Cache misses (including corrupt entries).
        misses: usize,
        /// Per-spec record slots, in submission order.
        records: Vec<Option<ExperimentRecord>>,
    },
    /// A calibration job's outcome: the full [`Calibration`] the in-process
    /// path would have produced (fit, params, records, accounting).
    Calibrate {
        /// Echoed job id.
        id: String,
        /// The reconstructed calibration.
        calibration: Calibration,
    },
    /// A status snapshot.
    Status {
        /// Echoed job id.
        id: String,
        /// The snapshot.
        status: ServiceStatus,
    },
    /// A scrub pass's report.
    Scrub {
        /// Echoed job id.
        id: String,
        /// What the pass did.
        report: ScrubReport,
    },
    /// Shutdown acknowledged; the daemon is draining.
    Draining {
        /// Echoed job id.
        id: String,
    },
    /// The job was shed (daemon draining); nothing ran.
    Shed {
        /// Echoed job id.
        id: String,
        /// Why.
        message: String,
    },
    /// The job failed as a whole (malformed request, fit failure, cache
    /// I/O past the retry budget, job timeout).
    Error {
        /// Echoed job id (empty when the request line had none).
        id: String,
        /// What failed.
        message: String,
    },
}

fn poisoned_from_wire(v: &Json) -> Result<PoisonedPoint, String> {
    Ok(PoisonedPoint {
        index: v.count_field("index")?,
        name: v.str_field("name")?.to_string(),
        key: v.str_field("key")?.to_string(),
        message: v.str_field("message")?.to_string(),
    })
}

impl Response {
    /// The echoed job id.
    pub(crate) fn id(&self) -> &str {
        match self {
            Response::Sweep { id, .. }
            | Response::Query { id, .. }
            | Response::Calibrate { id, .. }
            | Response::Status { id, .. }
            | Response::Scrub { id, .. }
            | Response::Draining { id }
            | Response::Shed { id, .. }
            | Response::Error { id, .. } => id,
        }
    }

    /// Encodes as one JSON line (no trailing newline), written straight
    /// into the line: records as escaped strings, counts and floats through
    /// the JSON module's number rule.
    pub fn to_line(&self) -> String {
        let (kind, status) = match self {
            Response::Sweep { .. } => ("sweep", "ok"),
            Response::Query { .. } => ("query", "ok"),
            Response::Calibrate { .. } => ("calibrate", "ok"),
            Response::Status { .. } => ("status", "ok"),
            Response::Scrub { .. } => ("scrub", "ok"),
            Response::Draining { .. } => ("shutdown", "draining"),
            Response::Shed { .. } => ("shed", "shed"),
            Response::Error { .. } => ("error", "error"),
        };
        let mut out = format!("{{\"type\":\"{kind}\"");
        string_field(&mut out, "id", self.id());
        let _ = write!(out, ",\"status\":\"{status}\"");
        match self {
            Response::Sweep {
                id: _,
                fresh_points,
                cached_points,
                fresh_shots,
                corrupt_replaced,
                poisoned,
                records,
            } => {
                number_field(&mut out, "fresh_points", *fresh_points as f64);
                number_field(&mut out, "cached_points", *cached_points as f64);
                number_field(&mut out, "fresh_shots", *fresh_shots as f64);
                number_field(&mut out, "corrupt_replaced", *corrupt_replaced as f64);
                out.push_str(",\"poisoned\":[");
                for (i, p) in poisoned.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"index\":");
                    write_number(&mut out, p.index as f64);
                    string_field(&mut out, "name", &p.name);
                    string_field(&mut out, "key", &p.key);
                    string_field(&mut out, "message", &p.message);
                    out.push('}');
                }
                out.push(']');
                write_records(&mut out, "records", records.iter().map(Option::as_ref));
            }
            Response::Query {
                id: _,
                hits,
                misses,
                records,
            } => {
                number_field(&mut out, "hits", *hits as f64);
                number_field(&mut out, "misses", *misses as f64);
                write_records(&mut out, "records", records.iter().map(Option::as_ref));
            }
            Response::Calibrate { id: _, calibration } => {
                number_field(&mut out, "alpha", calibration.fit.alpha);
                number_field(&mut out, "lambda", calibration.fit.lambda);
                number_field(&mut out, "c", calibration.fit.c);
                number_field(&mut out, "residual", calibration.fit.residual);
                field(&mut out, "lambda_memory");
                match calibration.lambda_memory {
                    Some(lambda) => write_number(&mut out, lambda),
                    None => out.push_str("null"),
                }
                number_field(&mut out, "p_phys", calibration.params.p_phys);
                number_field(&mut out, "p_thres", calibration.params.p_thres);
                number_field(&mut out, "fresh_points", calibration.fresh_points as f64);
                number_field(&mut out, "cached_points", calibration.cached_points as f64);
                number_field(&mut out, "fresh_shots", calibration.fresh_shots as f64);
                write_records(
                    &mut out,
                    "memory_records",
                    calibration.memory_records.iter().map(Some),
                );
                write_records(
                    &mut out,
                    "cnot_records",
                    calibration.cnot_records.iter().map(Some),
                );
            }
            Response::Status { id: _, status } => {
                field(&mut out, "draining");
                out.push_str(if status.draining { "true" } else { "false" });
                number_field(&mut out, "workers", status.workers as f64);
                for (key, count) in [
                    ("jobs_completed", status.jobs_completed),
                    ("points_completed", status.points_completed),
                    ("cache_hits", status.cache_hits),
                    ("fresh_points", status.fresh_points),
                    ("fresh_shots", status.fresh_shots),
                    ("corrupt_replaced", status.corrupt_replaced),
                    ("shed_points", status.shed_points),
                ] {
                    number_field(&mut out, key, count as f64);
                }
                out.push_str(",\"quarantined\":[");
                for (i, q) in status.quarantined.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"key\":");
                    write_string(&mut out, &q.key);
                    string_field(&mut out, "name", &q.name);
                    string_field(&mut out, "message", &q.message);
                    out.push('}');
                }
                out.push(']');
            }
            Response::Scrub { id: _, report } => {
                for (key, count) in [
                    ("scanned", report.scanned),
                    ("healthy", report.healthy),
                    ("quarantined", report.quarantined),
                    ("evicted", report.evicted),
                    ("stale_tmps_removed", report.stale_tmps_removed),
                    ("stale_locks_removed", report.stale_locks_removed),
                    ("skipped_locked", report.skipped_locked),
                ] {
                    number_field(&mut out, key, count as f64);
                }
                number_field(&mut out, "bytes_after", report.bytes_after as f64);
            }
            Response::Draining { id: _ } => {}
            Response::Shed { id: _, message } | Response::Error { id: _, message } => {
                string_field(&mut out, "message", message);
            }
        }
        out.push('}');
        out
    }

    /// Decodes one JSON line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line.trim())?;
        let id = v.str_field("id")?.to_string();
        match (v.str_field("type")?, v.str_field("status")?) {
            ("sweep", "ok") => Ok(Response::Sweep {
                id,
                fresh_points: v.count_field("fresh_points")?,
                cached_points: v.count_field("cached_points")?,
                fresh_shots: v.count_field("fresh_shots")?,
                corrupt_replaced: v.count_field("corrupt_replaced")?,
                poisoned: v
                    .arr_field("poisoned")?
                    .iter()
                    .map(poisoned_from_wire)
                    .collect::<Result<_, _>>()?,
                records: records_from_field(&v, "records")?,
            }),
            ("query", "ok") => Ok(Response::Query {
                id,
                hits: v.count_field("hits")?,
                misses: v.count_field("misses")?,
                records: records_from_field(&v, "records")?,
            }),
            ("calibrate", "ok") => {
                let fit = FitResult {
                    alpha: v.f64_field("alpha")?,
                    lambda: v.f64_field("lambda")?,
                    c: v.f64_field("c")?,
                    residual: v.f64_field("residual")?,
                };
                let params = ErrorModelParams {
                    c: fit.c,
                    p_phys: v.f64_field("p_phys")?,
                    p_thres: v.f64_field("p_thres")?,
                    alpha: fit.alpha,
                };
                Ok(Response::Calibrate {
                    id,
                    calibration: Calibration {
                        fit,
                        lambda_memory: v.opt_f64_field("lambda_memory")?,
                        params,
                        memory_records: dense_records(
                            records_from_field(&v, "memory_records")?,
                            "memory_records",
                        )?,
                        cnot_records: dense_records(
                            records_from_field(&v, "cnot_records")?,
                            "cnot_records",
                        )?,
                        fresh_points: v.count_field("fresh_points")?,
                        cached_points: v.count_field("cached_points")?,
                        fresh_shots: v.count_field("fresh_shots")?,
                    },
                })
            }
            ("status", "ok") => Ok(Response::Status {
                id,
                status: ServiceStatus {
                    draining: v.bool_field("draining")?,
                    workers: v.count_field("workers")?,
                    jobs_completed: v.count_field("jobs_completed")? as u64,
                    points_completed: v.count_field("points_completed")? as u64,
                    cache_hits: v.count_field("cache_hits")? as u64,
                    fresh_points: v.count_field("fresh_points")? as u64,
                    fresh_shots: v.count_field("fresh_shots")? as u64,
                    corrupt_replaced: v.count_field("corrupt_replaced")? as u64,
                    shed_points: v.count_field("shed_points")? as u64,
                    quarantined: v
                        .arr_field("quarantined")?
                        .iter()
                        .map(|q| {
                            Ok(QuarantinedPoint {
                                key: q.str_field("key")?.to_string(),
                                name: q.str_field("name")?.to_string(),
                                message: q.str_field("message")?.to_string(),
                            })
                        })
                        .collect::<Result<_, String>>()?,
                },
            }),
            ("scrub", "ok") => Ok(Response::Scrub {
                id,
                report: ScrubReport {
                    scanned: v.count_field("scanned")?,
                    healthy: v.count_field("healthy")?,
                    quarantined: v.count_field("quarantined")?,
                    evicted: v.count_field("evicted")?,
                    stale_tmps_removed: v.count_field("stale_tmps_removed")?,
                    stale_locks_removed: v.count_field("stale_locks_removed")?,
                    skipped_locked: v.count_field("skipped_locked")?,
                    bytes_after: v.count_field("bytes_after")? as u64,
                },
            }),
            ("shutdown", "draining") => Ok(Response::Draining { id }),
            (_, "shed") => Ok(Response::Shed {
                id,
                message: v.str_field("message")?.to_string(),
            }),
            (_, "error") => Ok(Response::Error {
                id,
                message: v.str_field("message")?.to_string(),
            }),
            (ty, status) => Err(format!("unknown response {ty:?} with status {status:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::spec::SweepGrid;
    use raa_surface::Basis;

    fn sample_specs() -> Vec<ExperimentSpec> {
        let mut specs = SweepGrid::new(
            "jobs/mixed",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 4,
                cnots_per_round: 1.0,
            },
        )
        .with_distances(vec![3])
        .with_cnots_per_round(vec![0.5, 2.0])
        .with_decoders(vec![
            DecoderChoice::UnionFind,
            DecoderChoice::Windowed {
                commit: 2,
                buffer: 3,
            },
        ])
        .specs();
        let mut memory = ExperimentSpec::new(
            "jobs/mem \"quoted\"\n",
            Scenario::Memory {
                rounds: Rounds::TimesDistance(2),
            },
            5,
        );
        memory.basis = Basis::X;
        memory.streaming = true;
        memory.shots = ShotBudget::UntilFailures {
            max_shots: 10_000,
            target_failures: 7,
        };
        memory.seed = u64::MAX - 3; // does not fit f64
        specs.push(memory);
        specs.push(ExperimentSpec::new(
            "jobs/ghz",
            Scenario::GhzFanout { targets: 3 },
            3,
        ));
        specs.push(ExperimentSpec::new(
            "jobs/deep",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::TimesDistance(20),
                cnots_per_round: 0.5,
            },
            3,
        ));
        for protocol in FactoryProtocol::ALL {
            specs.push(ExperimentSpec::new(
                format!("jobs/factory/{}", protocol.label()),
                Scenario::MagicFactory {
                    protocol,
                    rounds: Rounds::Fixed(4),
                },
                3,
            ));
        }
        for kind in GadgetKind::ALL {
            specs.push(ExperimentSpec::new(
                format!("jobs/gadget/{}", kind.label()),
                Scenario::Gadget {
                    kind,
                    width: 3,
                    rounds: Rounds::TimesDistance(2),
                },
                3,
            ));
        }
        specs.push(ExperimentSpec::new(
            "jobs/code832",
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        ));
        specs
    }

    #[test]
    fn spec_codec_round_trips_every_scenario() {
        for spec in sample_specs() {
            let decoded = spec_from_json(&spec_to_json(&spec)).unwrap();
            // The spec's semantic identity — its fingerprint — survives.
            assert_eq!(
                crate::orchestrator::spec_fingerprint(&decoded),
                crate::orchestrator::spec_fingerprint(&spec),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn sweep_request_survives_the_wire() {
        let request = Request::Sweep {
            id: "job-42".into(),
            specs: sample_specs(),
        };
        let line = request.to_line();
        assert!(!line.contains('\n'));
        match Request::from_line(&line).unwrap() {
            Request::Sweep { id, specs } => {
                assert_eq!(id, "job-42");
                assert_eq!(specs.len(), sample_specs().len());
                assert_eq!(specs[4].seed, u64::MAX - 3, "u64 seed exact");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn calibrate_request_survives_the_wire() {
        let config = CalibrationConfig {
            memory_seed: u64::MAX,
            cache_dir: Some("/client/side/path".into()), // must NOT travel
            point_threads: 5,                            // must NOT travel
            ..CalibrationConfig::default()
        };
        let line = Request::Calibrate {
            id: "cal-1".into(),
            config: config.clone(),
        }
        .to_line();
        match Request::from_line(&line).unwrap() {
            Request::Calibrate {
                config: decoded, ..
            } => {
                assert_eq!(decoded.p_phys, config.p_phys);
                assert_eq!(decoded.distances, config.distances);
                assert_eq!(decoded.memory_seed, u64::MAX);
                assert_eq!(decoded.cache_dir, None, "server owns the cache");
                assert_eq!(decoded.point_threads, 0, "server owns the pool");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn records_survive_the_wire_byte_for_byte() {
        let mut spec = ExperimentSpec::new(
            "jobs/bytes \"x\"",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(256);
        let record = engine::run(&spec);
        let response = Response::Sweep {
            id: "j".into(),
            fresh_points: 1,
            cached_points: 0,
            fresh_shots: 256,
            corrupt_replaced: 0,
            poisoned: vec![PoisonedPoint {
                index: 9,
                name: "bad".into(),
                key: "ab".repeat(16),
                message: "need at least one SE round".into(),
            }],
            records: vec![Some(record.clone()), None],
        };
        match Response::from_line(&response.to_line()).unwrap() {
            Response::Sweep {
                records, poisoned, ..
            } => {
                assert_eq!(
                    records[0].as_ref().unwrap().to_json(),
                    record.to_json(),
                    "byte-identical through the wire"
                );
                assert!(records[1].is_none());
                assert_eq!(poisoned[0].index, 9);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// The tree encoder the direct `Response::to_line` replaced: build a
    /// `Json::Obj`, then render it. Kept as the byte reference.
    fn tree_line(response: &Response) -> String {
        let records = |slots: Vec<Option<&ExperimentRecord>>| {
            Json::Arr(
                slots
                    .into_iter()
                    .map(|slot| slot.map_or(Json::Null, |r| Json::Str(r.to_json())))
                    .collect(),
            )
        };
        let v = match response {
            Response::Sweep {
                id,
                fresh_points,
                cached_points,
                fresh_shots,
                corrupt_replaced,
                poisoned,
                records: slots,
            } => obj(vec![
                ("type", s("sweep")),
                ("id", s(id)),
                ("status", s("ok")),
                ("fresh_points", unum(*fresh_points)),
                ("cached_points", unum(*cached_points)),
                ("fresh_shots", unum(*fresh_shots)),
                ("corrupt_replaced", unum(*corrupt_replaced)),
                (
                    "poisoned",
                    Json::Arr(
                        poisoned
                            .iter()
                            .map(|p| {
                                obj(vec![
                                    ("index", unum(p.index)),
                                    ("name", s(&p.name)),
                                    ("key", s(&p.key)),
                                    ("message", s(&p.message)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "records",
                    records(slots.iter().map(Option::as_ref).collect()),
                ),
            ]),
            Response::Query {
                id,
                hits,
                misses,
                records: slots,
            } => obj(vec![
                ("type", s("query")),
                ("id", s(id)),
                ("status", s("ok")),
                ("hits", unum(*hits)),
                ("misses", unum(*misses)),
                (
                    "records",
                    records(slots.iter().map(Option::as_ref).collect()),
                ),
            ]),
            Response::Calibrate { id, calibration } => obj(vec![
                ("type", s("calibrate")),
                ("id", s(id)),
                ("status", s("ok")),
                ("alpha", num(calibration.fit.alpha)),
                ("lambda", num(calibration.fit.lambda)),
                ("c", num(calibration.fit.c)),
                ("residual", num(calibration.fit.residual)),
                (
                    "lambda_memory",
                    calibration.lambda_memory.map_or(Json::Null, num),
                ),
                ("p_phys", num(calibration.params.p_phys)),
                ("p_thres", num(calibration.params.p_thres)),
                ("fresh_points", unum(calibration.fresh_points)),
                ("cached_points", unum(calibration.cached_points)),
                ("fresh_shots", unum(calibration.fresh_shots)),
                (
                    "memory_records",
                    records(calibration.memory_records.iter().map(Some).collect()),
                ),
                (
                    "cnot_records",
                    records(calibration.cnot_records.iter().map(Some).collect()),
                ),
            ]),
            Response::Status { id, status } => obj(vec![
                ("type", s("status")),
                ("id", s(id)),
                ("status", s("ok")),
                ("draining", Json::Bool(status.draining)),
                ("workers", unum(status.workers)),
                ("jobs_completed", unum(status.jobs_completed as usize)),
                ("points_completed", unum(status.points_completed as usize)),
                ("cache_hits", unum(status.cache_hits as usize)),
                ("fresh_points", unum(status.fresh_points as usize)),
                ("fresh_shots", unum(status.fresh_shots as usize)),
                ("corrupt_replaced", unum(status.corrupt_replaced as usize)),
                ("shed_points", unum(status.shed_points as usize)),
                (
                    "quarantined",
                    Json::Arr(
                        status
                            .quarantined
                            .iter()
                            .map(|q| {
                                obj(vec![
                                    ("key", s(&q.key)),
                                    ("name", s(&q.name)),
                                    ("message", s(&q.message)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Scrub { id, report } => obj(vec![
                ("type", s("scrub")),
                ("id", s(id)),
                ("status", s("ok")),
                ("scanned", unum(report.scanned)),
                ("healthy", unum(report.healthy)),
                ("quarantined", unum(report.quarantined)),
                ("evicted", unum(report.evicted)),
                ("stale_tmps_removed", unum(report.stale_tmps_removed)),
                ("stale_locks_removed", unum(report.stale_locks_removed)),
                ("skipped_locked", unum(report.skipped_locked)),
                ("bytes_after", num(report.bytes_after as f64)),
            ]),
            Response::Draining { id } => obj(vec![
                ("type", s("shutdown")),
                ("id", s(id)),
                ("status", s("draining")),
            ]),
            Response::Shed { id, message } => obj(vec![
                ("type", s("shed")),
                ("id", s(id)),
                ("status", s("shed")),
                ("message", s(message)),
            ]),
            Response::Error { id, message } => obj(vec![
                ("type", s("error")),
                ("id", s(id)),
                ("status", s("error")),
                ("message", s(message)),
            ]),
        };
        v.to_line()
    }

    #[test]
    fn response_lines_match_the_tree_encoder_byte_for_byte() {
        let mut spec = ExperimentSpec::new(
            "jobs/tree \"quoted\" \\ tab\t",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        spec.shots = ShotBudget::Fixed(256);
        let record = engine::run(&spec);
        let texts = [
            "",
            "plain",
            "quote \" backslash \\ newline \n return \r tab \t",
            "controls \u{1} \u{1f} and text é ✓",
        ];
        let poisoned = |text: &str| PoisonedPoint {
            index: 7,
            name: format!("bad {text}"),
            key: "ab".repeat(16),
            message: text.into(),
        };
        let calibration = |lambda_memory, records: Vec<ExperimentRecord>| Calibration {
            fit: FitResult {
                alpha: 0.068_123_456_789,
                lambda: 2.42,
                c: 0.1,
                residual: 1e-17,
            },
            lambda_memory,
            params: ErrorModelParams {
                c: 0.1,
                p_phys: 4e-3,
                p_thres: 9.68e-3,
                alpha: 0.068_123_456_789,
            },
            memory_records: records.clone(),
            cnot_records: records.into_iter().rev().collect(),
            fresh_points: 10,
            cached_points: 0,
            fresh_shots: 88_000,
        };
        let mut responses = Vec::new();
        for text in texts {
            let id = || text.to_string();
            responses.extend([
                Response::Sweep {
                    id: id(),
                    fresh_points: 2,
                    cached_points: 1,
                    fresh_shots: 512,
                    corrupt_replaced: 1,
                    poisoned: vec![poisoned(text), poisoned("second")],
                    records: vec![Some(record.clone()), None, Some(record.clone())],
                },
                Response::Sweep {
                    id: id(),
                    fresh_points: 0,
                    cached_points: 0,
                    fresh_shots: 0,
                    corrupt_replaced: 0,
                    poisoned: Vec::new(),
                    records: Vec::new(),
                },
                Response::Query {
                    id: id(),
                    hits: 1,
                    misses: 2,
                    records: vec![None, Some(record.clone()), None],
                },
                Response::Calibrate {
                    id: id(),
                    calibration: calibration(Some(2.57), vec![record.clone(), record.clone()]),
                },
                Response::Calibrate {
                    id: id(),
                    calibration: calibration(None, Vec::new()),
                },
                Response::Status {
                    id: id(),
                    status: ServiceStatus {
                        draining: text.is_empty(),
                        workers: 4,
                        jobs_completed: u64::MAX,
                        points_completed: 40,
                        cache_hits: 1 << 53,
                        fresh_points: 9,
                        fresh_shots: 4_608,
                        corrupt_replaced: 1,
                        shed_points: 2,
                        quarantined: vec![
                            QuarantinedPoint {
                                key: "cd".repeat(16),
                                name: format!("poison {text}"),
                                message: text.into(),
                            },
                            QuarantinedPoint {
                                key: String::new(),
                                name: String::new(),
                                message: String::new(),
                            },
                        ],
                    },
                },
                Response::Status {
                    id: id(),
                    status: ServiceStatus::default(),
                },
                Response::Scrub {
                    id: id(),
                    report: ScrubReport {
                        scanned: 12,
                        healthy: 10,
                        quarantined: 1,
                        evicted: 1,
                        stale_tmps_removed: 2,
                        stale_locks_removed: 1,
                        skipped_locked: 0,
                        bytes_after: u64::MAX,
                    },
                },
                Response::Draining { id: id() },
                Response::Shed {
                    id: id(),
                    message: text.into(),
                },
                Response::Error {
                    id: id(),
                    message: text.into(),
                },
            ]);
        }
        for response in &responses {
            assert_eq!(response.to_line(), tree_line(response), "{response:?}");
        }
    }

    #[test]
    fn status_scrub_and_error_responses_round_trip() {
        let status = Response::Status {
            id: "s".into(),
            status: ServiceStatus {
                draining: true,
                workers: 4,
                jobs_completed: 10,
                points_completed: 40,
                cache_hits: 30,
                fresh_points: 9,
                fresh_shots: 4_608,
                corrupt_replaced: 1,
                shed_points: 2,
                quarantined: vec![QuarantinedPoint {
                    key: "cd".repeat(16),
                    name: "poison".into(),
                    message: "boom".into(),
                }],
            },
        };
        match Response::from_line(&status.to_line()).unwrap() {
            Response::Status { status: got, .. } => {
                assert!(got.draining);
                assert_eq!(got.fresh_shots, 4_608);
                assert_eq!(got.quarantined.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let scrub = Response::Scrub {
            id: "sc".into(),
            report: ScrubReport {
                scanned: 12,
                healthy: 10,
                quarantined: 1,
                evicted: 1,
                stale_tmps_removed: 2,
                stale_locks_removed: 1,
                skipped_locked: 0,
                bytes_after: 4_096,
            },
        };
        let line = scrub.to_line();
        match Response::from_line(&line).unwrap() {
            Response::Scrub { report, .. } => assert_eq!(report.bytes_after, 4_096),
            other => panic!("wrong variant: {other:?}"),
        }
        // `bytes_after` follows the count rule: a negative, fractional or
        // too large value is an error, not a saturating cast.
        let exact = "\"bytes_after\":4096";
        assert!(line.contains(exact), "{line}");
        for bad in ["-5", "1.5", "1e30"] {
            let bad_line = line.replace(exact, &format!("\"bytes_after\":{bad}"));
            let err = Response::from_line(&bad_line).unwrap_err();
            assert!(err.contains("\"bytes_after\""), "{bad}: {err}");
        }

        for (resp, needle) in [
            (
                Response::Error {
                    id: "e".into(),
                    message: "spec #2: unknown decoder".into(),
                },
                "decoder",
            ),
            (
                Response::Shed {
                    id: "sh".into(),
                    message: "daemon draining".into(),
                },
                "draining",
            ),
        ] {
            let line = resp.to_line();
            match Response::from_line(&line).unwrap() {
                Response::Error { message, .. } | Response::Shed { message, .. } => {
                    assert!(message.contains(needle))
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("{\"type\":\"sweep\"}", "id"),
            ("{\"type\":\"nope\",\"id\":\"x\"}", "unknown request"),
            (
                "{\"type\":\"sweep\",\"id\":\"x\",\"specs\":[{}]}",
                "spec #0",
            ),
            ("not json", "unexpected"),
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
        // Out-of-range distances are rejected, not wrapped to d = 3 or
        // saturated to u32::MAX.
        let sweep = Request::Sweep {
            id: "x".into(),
            specs: sample_specs()[..1].to_vec(),
        }
        .to_line();
        let calibrate = Request::Calibrate {
            id: "x".into(),
            config: CalibrationConfig::default(),
        }
        .to_line();
        for (line, from, to) in [
            (&sweep, "\"distance\":3,", "\"distance\":4294967299,"),
            (&calibrate, "\"distances\":[3,5]", "\"distances\":[1e20]"),
        ] {
            assert!(line.contains(from), "{line}");
            let err = Request::from_line(&line.replace(from, to)).unwrap_err();
            assert!(err.contains("0..=4294967295"), "{err:?}");
        }
        // An empty distance axis is refused by name, not left to panic the
        // grid expansion.
        let empty = calibrate.replace("\"distances\":[3,5]", "\"distances\":[]");
        let err = Request::from_line(&empty).unwrap_err();
        assert!(err.contains("\"distances\""), "{err:?}");
        // A number that overflows to infinity is a typed error naming its
        // offset, not a spec with p2 = inf for the circuit builder to panic
        // on.
        let p2 = format!("\"p2\":{},", sample_specs()[0].noise.p2);
        assert!(sweep.contains(&p2), "{sweep}");
        let err = Request::from_line(&sweep.replace(&p2, "\"p2\":1e999,")).unwrap_err();
        assert!(
            err.contains("overflows") && err.contains("offset"),
            "{err:?}"
        );
    }
}
