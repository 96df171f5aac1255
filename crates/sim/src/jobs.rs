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
//! A spec's `mc` setting is *not* part of the wire format: it holds only
//! the decode thread count, which cannot change any record, and the server
//! owns its own execution budget.
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
//! assert_eq!(decoded.id(), "job-1");
//! # let _ = Response::Error { id: "job-1".into(), message: "demo".into() };
//! ```

use crate::calibrate::{Calibration, CalibrationConfig};
use crate::error::PoisonedPoint;
use crate::orchestrator::ScrubReport;
use crate::record::ExperimentRecord;
use crate::spec::{DecoderChoice, ExperimentSpec, Rounds, SamplerChoice, Scenario, ShotBudget};
use raa_core::fit::FitResult;
use raa_core::ErrorModelParams;
use raa_factory::FactoryProtocol;
use raa_gadgets::GadgetKind;
use raa_surface::{Basis, NoiseModel};

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

fn rounds_to_wire(rounds: Rounds) -> String {
    match rounds {
        Rounds::Fixed(n) => format!("fixed:{n}"),
        Rounds::TimesDistance(k) => format!("xd:{k}"),
    }
}

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

fn shots_to_wire(shots: ShotBudget) -> String {
    match shots {
        ShotBudget::Fixed(n) => format!("fixed:{n}"),
        ShotBudget::UntilFailures {
            max_shots,
            target_failures,
        } => format!("until:{max_shots}:{target_failures}"),
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

fn basis_to_wire(basis: Basis) -> &'static str {
    match basis {
        Basis::Z => "Z",
        Basis::X => "X",
    }
}

fn basis_from_wire(text: &str) -> Result<Basis, String> {
    match text {
        "Z" => Ok(Basis::Z),
        "X" => Ok(Basis::X),
        other => Err(format!("unknown basis {other:?}")),
    }
}

/// Encodes a spec as a flat wire object. The `mc` setting (the decode
/// thread count) is deliberately dropped: it cannot change the record, and
/// the server owns its execution budget.
pub fn spec_to_json(spec: &ExperimentSpec) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![
        ("name", s(&spec.name)),
        ("scenario", s(spec.scenario.label())),
    ];
    match spec.scenario {
        Scenario::Memory { rounds } => fields.push(("rounds", s(rounds_to_wire(rounds)))),
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => {
            fields.push(("patches", unum(patches)));
            fields.push(("depth", unum(depth)));
            fields.push(("cnots_per_round", num(cnots_per_round)));
        }
        Scenario::GhzFanout { targets } => fields.push(("targets", unum(targets))),
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => {
            fields.push(("patches", unum(patches)));
            fields.push(("rounds", s(rounds_to_wire(rounds))));
            fields.push(("cnots_per_round", num(cnots_per_round)));
        }
        // The protocol/kind is carried by the per-variant scenario label.
        Scenario::MagicFactory { rounds, .. } => {
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
        Scenario::Gadget { width, rounds, .. } => {
            fields.push(("width", unum(width)));
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
        Scenario::Code832Memory { rounds } => {
            fields.push(("rounds", s(rounds_to_wire(rounds))));
        }
    }
    fields.extend([
        ("distance", num(f64::from(spec.distance))),
        ("basis", s(basis_to_wire(spec.basis))),
        ("p2", num(spec.noise.p2)),
        ("p_idle", num(spec.noise.p_idle)),
        ("p_prep", num(spec.noise.p_prep)),
        ("p_meas", num(spec.noise.p_meas)),
        ("decoder", s(spec.decoder.label())),
        ("sampler", s(spec.sampler.label())),
        ("streaming", Json::Bool(spec.streaming)),
        ("shots", s(shots_to_wire(spec.shots))),
        ("seed", s(spec.seed.to_string())),
    ]);
    obj(fields)
}

/// Decodes a wire spec. The resulting spec carries default `mc` execution
/// parameters — the server decides its own threading.
fn spec_from_json(v: &Json) -> Result<ExperimentSpec, String> {
    let scenario = match v.str_field("scenario")? {
        "memory" => Scenario::Memory {
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
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
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
            cnots_per_round: v.f64_field("cnots_per_round")?,
        },
        "factory_distill15" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Distill15,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "factory_ccz" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Ccz,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "factory_cultivation" => Scenario::MagicFactory {
            protocol: FactoryProtocol::Cultivation,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "gadget_adder" => Scenario::Gadget {
            kind: GadgetKind::Adder,
            width: v.count_field("width")?,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "gadget_lookup" => Scenario::Gadget {
            kind: GadgetKind::Lookup,
            width: v.count_field("width")?,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "gadget_fanout" => Scenario::Gadget {
            kind: GadgetKind::Fanout,
            width: v.count_field("width")?,
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        "code832_memory" => Scenario::Code832Memory {
            rounds: rounds_from_wire(v.str_field("rounds")?)?,
        },
        other => return Err(format!("unknown scenario {other:?}")),
    };
    let distance = v.u32_field("distance")?;
    let mut spec = ExperimentSpec::new(v.str_field("name")?, scenario, distance);
    spec.basis = basis_from_wire(v.str_field("basis")?)?;
    spec.noise = NoiseModel {
        p2: v.f64_field("p2")?,
        p_idle: v.f64_field("p_idle")?,
        p_prep: v.f64_field("p_prep")?,
        p_meas: v.f64_field("p_meas")?,
    };
    spec.decoder = decoder_from_label(v.str_field("decoder")?)?;
    spec.sampler = sampler_from_label(v.str_field("sampler")?)?;
    spec.streaming = v.bool_field("streaming")?;
    spec.shots = shots_from_wire(v.str_field("shots")?)?;
    spec.seed = v.u64_str_field("seed")?;
    Ok(spec)
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
    Ok(CalibrationConfig {
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
    })
}

// ---------------------------------------------------------------------------
// Record transport
// ---------------------------------------------------------------------------

/// A record travels as its exact JSON line inside one JSON string — the
/// escaping is lossless, so the bytes a warm client replays are identical
/// to what a local sweep writes.
fn record_to_wire(record: &ExperimentRecord) -> Json {
    Json::Str(record.to_json())
}

fn record_from_wire(v: &Json) -> Result<Option<ExperimentRecord>, String> {
    match v {
        Json::Null => Ok(None),
        Json::Str(line) => ExperimentRecord::from_json(line).map(Some),
        _ => Err("record slots must be strings or null".into()),
    }
}

fn records_to_wire(records: &[Option<ExperimentRecord>]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|slot| slot.as_ref().map_or(Json::Null, record_to_wire))
            .collect(),
    )
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
    /// server's cache and worker pool.
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
    pub fn id(&self) -> &str {
        match self {
            Request::Sweep { id, .. }
            | Request::Query { id, .. }
            | Request::Calibrate { id, .. }
            | Request::Status { id }
            | Request::Scrub { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Encodes as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Sweep { id, specs } => obj(vec![
                ("type", s("sweep")),
                ("id", s(id)),
                ("specs", Json::Arr(specs.iter().map(spec_to_json).collect())),
            ]),
            Request::Query { id, specs } => obj(vec![
                ("type", s("query")),
                ("id", s(id)),
                ("specs", Json::Arr(specs.iter().map(spec_to_json).collect())),
            ]),
            Request::Calibrate { id, config } => obj(vec![
                ("type", s("calibrate")),
                ("id", s(id)),
                ("config", config_to_json(config)),
            ]),
            Request::Status { id } => obj(vec![("type", s("status")), ("id", s(id))]),
            Request::Scrub { id } => obj(vec![("type", s("scrub")), ("id", s(id))]),
            Request::Shutdown { id } => obj(vec![("type", s("shutdown")), ("id", s(id))]),
        };
        v.to_line()
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
    pub key: String,
    /// The point's record name at quarantine time.
    pub name: String,
    /// The panic message.
    pub message: String,
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
    pub fresh_shots: u64,
    /// Corrupt cache entries found and overwritten.
    pub corrupt_replaced: u64,
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

fn poisoned_to_wire(p: &PoisonedPoint) -> Json {
    obj(vec![
        ("index", unum(p.index)),
        ("name", s(&p.name)),
        ("key", s(&p.key)),
        ("message", s(&p.message)),
    ])
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
    pub fn id(&self) -> &str {
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

    /// Encodes as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Sweep {
                id,
                fresh_points,
                cached_points,
                fresh_shots,
                corrupt_replaced,
                poisoned,
                records,
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
                    Json::Arr(poisoned.iter().map(poisoned_to_wire).collect()),
                ),
                ("records", records_to_wire(records)),
            ]),
            Response::Query {
                id,
                hits,
                misses,
                records,
            } => obj(vec![
                ("type", s("query")),
                ("id", s(id)),
                ("status", s("ok")),
                ("hits", unum(*hits)),
                ("misses", unum(*misses)),
                ("records", records_to_wire(records)),
            ]),
            Response::Calibrate { id, calibration } => {
                let memory: Vec<Option<ExperimentRecord>> = calibration
                    .memory_records
                    .iter()
                    .cloned()
                    .map(Some)
                    .collect();
                let cnot: Vec<Option<ExperimentRecord>> =
                    calibration.cnot_records.iter().cloned().map(Some).collect();
                obj(vec![
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
                    ("memory_records", records_to_wire(&memory)),
                    ("cnot_records", records_to_wire(&cnot)),
                ])
            }
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
                    bytes_after: v.f64_field("bytes_after")? as u64,
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
        match Response::from_line(&scrub.to_line()).unwrap() {
            Response::Scrub { report, .. } => assert_eq!(report.bytes_after, 4_096),
            other => panic!("wrong variant: {other:?}"),
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
