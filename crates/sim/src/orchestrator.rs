//! Resumable, fault-tolerant sweep orchestration over a content-addressed
//! record cache.
//!
//! Running a [`SweepGrid`] is a pure function of its specs (the engine's
//! determinism guarantee), which makes every grid point cacheable by
//! content: the cache key ([`spec_cache_key`]) hashes `v1;` followed by
//! the spec's wire line, the bytes a `sweep` request carries for it
//! ([`crate::jobs`]). One writer produces that line and names every spec
//! field, so a field that changes a record cannot miss the key. It leaves
//! out [`ExperimentSpec::mc`], which holds only the decode thread count and
//! so cannot change the record.
//!
//! The [`Orchestrator`] runs grid points in parallel across the same
//! worker-pool machinery the Monte-Carlo pipeline uses, consulting the
//! cache before sampling a single shot: a hit replays the stored JSON
//! record byte-for-byte (via `ExperimentRecord::from_json`); a miss runs
//! the engine and persists the record atomically (temp file + rename), so
//! an interrupted sweep resumes from its completed points and a repeated
//! sweep is free. The [`SweepReport`] says exactly how much fresh sampling
//! a run performed — the number CI pins to zero on a warm cache.
//!
//! # Fault tolerance
//!
//! The orchestrator is the substrate of the `raa-sweepd` service, so every
//! per-point failure class is contained instead of taking down the run:
//!
//! - **Panic isolation** — each point's engine run executes under
//!   `catch_unwind`; with [`Orchestrator::with_panic_isolation`] a
//!   panicking point becomes a [`PoisonedPoint`] entry in the report while
//!   every other point completes (without isolation it fails the job as a
//!   typed [`OrchestratorError::Poisoned`] — never the process).
//! - **Single-writer lock discipline** — cold points take an advisory
//!   per-entry file lock (see [`crate::lock`]) *before* sampling, so
//!   concurrent orchestrators sharing a cache dir serialize on each entry:
//!   the loser of the race re-checks the cache after the lock and replays
//!   the winner's record instead of re-sampling. The lock is advisory —
//!   a bounded wait that times out falls back to sampling (results are
//!   deterministic, so duplicated work is waste, never corruption).
//! - **Bounded retry** — cache writes retry transient I/O failures with
//!   exponential backoff (`crate::lock::retry_io`) before surfacing a
//!   typed [`OrchestratorError::Io`].
//! - **Integrity scrubbing** — [`SweepCache::scrub`] re-validates every
//!   entry's spec echo, moves corrupt entries to a `quarantine/` subdir,
//!   removes stale temp/lock files left by killed processes, and
//!   LRU-evicts over a size budget, all under the same per-entry locks.
//!
//! # Example
//!
//! ```
//! use raa_sim::{Orchestrator, Rounds, Scenario, ShotBudget, SweepGrid};
//!
//! let grid = SweepGrid::new(
//!     "demo",
//!     Scenario::Memory { rounds: Rounds::Fixed(2) },
//! )
//! .with_distances(vec![3])
//! .with_shots(ShotBudget::Fixed(256));
//!
//! let dir = std::env::temp_dir().join(format!("raa-orch-doc-{}", std::process::id()));
//! let orch = Orchestrator::new().with_cache_dir(&dir).unwrap();
//! let cold = orch.run(&grid).unwrap();
//! assert_eq!(cold.fresh_points, 1);
//!
//! // Warm: same records, zero Monte-Carlo sampling.
//! let warm = orch.run(&grid).unwrap();
//! assert_eq!(warm.fresh_shots, 0);
//! assert_eq!(warm.records, cold.records);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::engine;
use crate::error::{OrchestratorError, PoisonedPoint};
use crate::jobs;
use crate::lock::{retry_io, Backoff, FileLock, LockError, LockOptions};
use crate::record::ExperimentRecord;
use crate::spec::{DecoderChoice, ExperimentSpec, Rounds, Scenario, ShotBudget, SweepGrid};
use raa_decode::WindowError;
use raa_surface::GhzFanoutExperiment;
use rayon::prelude::*;
use std::cell::Cell;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::{Duration, SystemTime};

/// Version tag mixed into every fingerprint: bump when the engine's
/// sampling/decoding streams change behaviour, and every stale cache entry
/// misses instead of replaying records from the old pipeline.
const FINGERPRINT_VERSION: u32 = 1;

/// Everything that determines a spec's record: `v{FINGERPRINT_VERSION};`
/// followed by the spec's wire line, the bytes a `sweep` request carries
/// for it ([`crate::jobs`]). The line leaves out `mc`, the decode thread
/// count, which cannot change a record. Equal fingerprints mean
/// byte-identical records, and floats use the shortest round-trip form, so
/// the string is platform-stable.
pub(crate) fn spec_fingerprint(spec: &ExperimentSpec) -> String {
    let mut fp = String::with_capacity(384);
    let _ = write!(fp, "v{FINGERPRINT_VERSION};");
    jobs::write_spec(&mut fp, spec);
    fp
}

/// Two FNV-1a lanes over `bytes` in one pass, one per offset basis, each
/// finished with a SplitMix64-style avalanche so nearby fingerprints spread
/// over the full key space.
fn hash128(bytes: &[u8]) -> [u64; 2] {
    let mut lanes = [0xCBF2_9CE4_8422_2325_u64, 0x6C62_272E_07BB_0142];
    for &b in bytes {
        for h in &mut lanes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    lanes.map(|mut h| {
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    })
}

/// The content-addressed cache key of a spec: a 128-bit hash of its
/// `spec_fingerprint` as 32 hex characters (two independent 64-bit
/// lanes, so accidental collisions are out of reach for any realistic
/// sweep census). It changes whenever the spec's wire line does.
// raa-audit: allow(orphan-pub): fault_injection.rs corrupts and locks cache entries by key.
pub fn spec_cache_key(spec: &ExperimentSpec) -> String {
    let [a, b] = hash128(spec_fingerprint(spec).as_bytes());
    format!("{a:016x}{b:016x}")
}

/// What consulting the cache for a spec found.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// A validated record whose spec echo matches.
    Hit(ExperimentRecord),
    /// No entry on disk.
    Miss,
    /// An entry exists but fails validation (torn write, hand-edit, hash
    /// collision). Sweeps self-heal by recomputing and overwriting; the
    /// scrubber quarantines.
    Corrupt(String),
}

/// On-disk record cache: one `<key>.json` file per grid point, each holding
/// exactly the record's deterministic JSON line. Sidecar `<key>.lock` files
/// carry the advisory single-writer discipline; the `quarantine/` subdir
/// collects entries the scrubber pulled out of service.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
}

impl SweepCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The entry path for a spec.
    pub fn entry_path(&self, spec: &ExperimentSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec_cache_key(spec)))
    }

    /// The advisory lock path guarding a spec's entry.
    // raa-audit: allow(orphan-pub): fault_injection.rs corrupts and locks cache entries by key.
    pub fn lock_path(&self, spec: &ExperimentSpec) -> PathBuf {
        self.dir.join(format!("{}.lock", spec_cache_key(spec)))
    }

    /// Where the scrubber moves corrupt entries.
    pub(crate) fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Acquires the advisory single-writer lock for a spec's entry,
    /// failing with a typed [`OrchestratorError::LockTimeout`] when the
    /// bounded wait is exhausted.
    pub(crate) fn exclusive(
        &self,
        spec: &ExperimentSpec,
        opts: &LockOptions,
    ) -> Result<FileLock, OrchestratorError> {
        FileLock::acquire(self.lock_path(spec), opts).map_err(OrchestratorError::from)
    }

    /// Consults the cache for `spec`, distinguishing a clean miss from a
    /// corrupt entry (both of which sweeps treat as recomputable).
    pub fn lookup(&self, spec: &ExperimentSpec) -> CacheLookup {
        let path = self.entry_path(spec);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return CacheLookup::Corrupt(format!("unreadable: {e}")),
        };
        let record = match ExperimentRecord::from_json(text.trim_end()) {
            Ok(record) => record,
            Err(e) => return CacheLookup::Corrupt(format!("unparsable: {e}")),
        };
        if record_matches_spec(&record, spec) {
            CacheLookup::Hit(record)
        } else {
            CacheLookup::Corrupt("spec echo does not match the addressing spec".into())
        }
    }

    /// Persists `record` as the entry for `spec`, atomically: the bytes land
    /// under a temporary name and are renamed into place, so concurrent
    /// writers (parallel points, or two processes sharing a cache) can never
    /// expose a torn entry. Callers wanting single-writer discipline hold
    /// `SweepCache::exclusive` across the call.
    pub fn store(&self, spec: &ExperimentSpec, record: &ExperimentRecord) -> io::Result<()> {
        // Distinct temp names even for identical specs racing in one
        // parallel run (pid alone would collide and fail the loser's
        // rename).
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let final_path = self.entry_path(spec);
        let tmp_path = self.dir.join(format!(
            "{}.tmp.{}.{}",
            spec_cache_key(spec),
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut json = record.to_json();
        json.push('\n');
        fs::write(&tmp_path, json)?;
        fs::rename(&tmp_path, final_path)
    }

    /// Loads the cached record for `spec`, or `None` on a miss. Unreadable,
    /// unparsable or mismatched entries (a hash collision, a truncated
    /// write from a killed process, a hand-edited file) are treated as
    /// misses — the orchestrator re-runs the point and overwrites them.
    // raa-audit: allow(orphan-pub): sweep_service.rs reads the daemon's records back from its cache; production code reads entries through lookup.
    pub fn load(&self, spec: &ExperimentSpec) -> Option<ExperimentRecord> {
        match self.lookup(spec) {
            CacheLookup::Hit(record) => Some(record),
            CacheLookup::Miss | CacheLookup::Corrupt(_) => None,
        }
    }

    /// Validates one entry file standalone (no addressing spec): the bytes
    /// must parse as a record and the record's own echo must be internally
    /// consistent. This is the scrubber's test for quarantining.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::CorruptEntry`] describing what failed;
    /// [`OrchestratorError::Io`] when the file cannot be read at all.
    pub(crate) fn validate_entry(path: &Path) -> Result<ExperimentRecord, OrchestratorError> {
        let text = fs::read_to_string(path).map_err(|e| {
            OrchestratorError::io(format!("reading cache entry {}", path.display()), e)
        })?;
        let corrupt = |detail: String| OrchestratorError::CorruptEntry {
            path: path.to_path_buf(),
            detail,
        };
        let record = ExperimentRecord::from_json(text.trim_end())
            .map_err(|e| corrupt(format!("unparsable: {e}")))?;
        if record.failures > record.shots {
            return Err(corrupt(format!(
                "echo inconsistent: {} failures out of {} shots",
                record.failures, record.shots
            )));
        }
        if !Scenario::LABELS.contains(&record.scenario.as_str()) {
            return Err(corrupt(format!("unknown scenario {:?}", record.scenario)));
        }
        Ok(record)
    }

    /// One integrity pass over the cache: re-validates every entry's spec
    /// echo (corrupt entries move to `quarantine/`), removes stale temp and
    /// lock files abandoned by killed processes, and LRU-evicts the
    /// oldest-touched valid entries while the cache exceeds
    /// `opts.size_budget`. Every destructive step happens under the
    /// entry's advisory lock; entries whose lock stays contended are
    /// skipped (counted in `ScrubReport::skipped_locked`) rather than
    /// raced.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::Io`] when the cache directory itself cannot be
    /// scanned; per-entry problems are reported, not raised.
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn scrub(&self, opts: &ScrubOptions) -> Result<ScrubReport, OrchestratorError> {
        let mut report = ScrubReport::default();
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let now = SystemTime::now();
        let dir_iter = fs::read_dir(&self.dir).map_err(|e| {
            OrchestratorError::io(format!("scanning cache dir {}", self.dir.display()), e)
        })?;
        for dirent in dir_iter {
            let Ok(dirent) = dirent else { continue };
            let path = dirent.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            let age = |t: io::Result<SystemTime>| {
                t.ok()
                    .and_then(|m| now.duration_since(m).ok())
                    .unwrap_or(Duration::ZERO)
            };
            if name.contains(".tmp.") {
                if age(meta.modified()) > opts.stale_tmp_after && fs::remove_file(&path).is_ok() {
                    report.stale_tmps_removed += 1;
                }
                continue;
            }
            if name.ends_with(".lock") {
                if age(meta.modified()) > opts.stale_lock_after && fs::remove_file(&path).is_ok() {
                    report.stale_locks_removed += 1;
                }
                continue;
            }
            if !name.ends_with(".json") {
                continue;
            }
            report.scanned += 1;
            match Self::validate_entry(&path) {
                Ok(_) => {
                    let mtime = meta.modified().unwrap_or(now);
                    entries.push((path, meta.len(), mtime));
                }
                Err(_) => match self.quarantine_entry(&path, opts) {
                    Ok(true) => report.quarantined += 1,
                    Ok(false) => report.healthy += 1, // healed under our feet
                    Err(QuarantineSkip::Locked) => report.skipped_locked += 1,
                    Err(QuarantineSkip::Io) => {}
                },
            }
        }
        // LRU eviction over the size budget: oldest mtime first.
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        let budget = opts.size_budget.unwrap_or(u64::MAX);
        let mut kept = Vec::with_capacity(entries.len());
        for (path, len, _) in entries {
            if total > budget {
                match self.with_entry_lock(&path, opts, |p| fs::remove_file(p)) {
                    Ok(()) => {
                        report.evicted += 1;
                        total -= len;
                        continue;
                    }
                    Err(QuarantineSkip::Locked) => report.skipped_locked += 1,
                    Err(QuarantineSkip::Io) => {}
                }
            }
            kept.push(len);
        }
        report.healthy += kept.len();
        report.bytes_after = kept.iter().sum();
        Ok(report)
    }

    /// Moves a (re-confirmed) corrupt entry into `quarantine/` under its
    /// entry lock. Returns `Ok(false)` when a concurrent writer healed the
    /// entry between detection and the lock.
    fn quarantine_entry(&self, path: &Path, opts: &ScrubOptions) -> Result<bool, QuarantineSkip> {
        self.with_entry_lock(path, opts, |p| {
            if Self::validate_entry(p).is_ok() {
                return Ok(false);
            }
            let qdir = self.quarantine_dir();
            fs::create_dir_all(&qdir)?;
            let Some(name) = p.file_name() else {
                // Entry paths are built as `<dir>/<hex key>.json`; a
                // nameless path cannot be one of ours — leave it alone.
                return Ok(false);
            };
            fs::rename(p, qdir.join(name))?;
            Ok(true)
        })
    }

    /// Runs `op` on `path` while holding the entry's advisory lock.
    fn with_entry_lock<T>(
        &self,
        path: &Path,
        opts: &ScrubOptions,
        op: impl FnOnce(&Path) -> io::Result<T>,
    ) -> Result<T, QuarantineSkip> {
        let lock_path = path.with_extension("lock");
        let lock = match FileLock::acquire(&lock_path, &opts.lock) {
            Ok(lock) => lock,
            Err(LockError::Timeout { .. }) => return Err(QuarantineSkip::Locked),
            Err(LockError::Io { .. }) => return Err(QuarantineSkip::Io),
        };
        let out = op(path).map_err(|_| QuarantineSkip::Io);
        let _ = lock.release();
        out
    }
}

/// Why the scrubber left an entry alone.
enum QuarantineSkip {
    Locked,
    Io,
}

/// Knobs of one [`SweepCache::scrub`] pass.
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Evict oldest-touched entries while the cache exceeds this many
    /// bytes; `None` disables eviction.
    pub size_budget: Option<u64>,
    /// Temp files older than this are orphans of killed writers.
    pub stale_tmp_after: Duration,
    /// Lock files older than this are abandoned by dead processes.
    pub stale_lock_after: Duration,
    /// Per-entry lock acquisition for destructive steps (short wait — a
    /// contended entry is simply skipped this pass).
    pub lock: LockOptions,
}

impl Default for ScrubOptions {
    fn default() -> Self {
        Self {
            size_budget: None,
            stale_tmp_after: Duration::from_secs(3_600),
            stale_lock_after: Duration::from_secs(120),
            lock: LockOptions {
                wait: Duration::from_millis(250),
                ..LockOptions::default()
            },
        }
    }
}

/// What one scrub pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entry files examined.
    pub(crate) scanned: usize,
    /// Entries that validated (or healed mid-pass) and survived eviction.
    pub healthy: usize,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: usize,
    /// Valid entries LRU-evicted over the size budget.
    pub(crate) evicted: usize,
    /// Orphaned temp files removed.
    pub stale_tmps_removed: usize,
    /// Abandoned lock files removed.
    pub stale_locks_removed: usize,
    /// Entries skipped because their lock stayed contended.
    pub(crate) skipped_locked: usize,
    /// Bytes of valid entries remaining after the pass.
    pub(crate) bytes_after: u64,
}

/// Checks the loaded record's spec echo against the spec that addressed it:
/// the guard that turns hash collisions and stale entries into cache misses
/// instead of silently wrong results.
fn record_matches_spec(record: &ExperimentRecord, spec: &ExperimentSpec) -> bool {
    let budget_ok = match spec.shots {
        ShotBudget::Fixed(shots) => record.shots == shots,
        ShotBudget::UntilFailures {
            max_shots,
            target_failures,
        } => {
            // An early-stopped record must actually have reached the
            // failure target; otherwise it must have exhausted the cap.
            record.shots <= max_shots
                && (record.failures >= target_failures || record.shots == max_shots)
        }
    };
    // The scenario label alone cannot tell e.g. two memory round schedules
    // apart, so also check the shape the record echoes. Lookups run outside
    // the engine's `catch_unwind`, so no check may panic on any spec.
    let rounds_ok =
        |rounds: Rounds| rounds.checked_resolve(spec.distance) == Some(record.se_rounds);
    let scenario_ok = match spec.scenario {
        Scenario::Memory { rounds } | Scenario::Code832Memory { rounds } => {
            record.patches == 1
                && record.cnots == 0
                && rounds_ok(rounds)
                && record.cnots_per_round.is_none()
        }
        Scenario::TransversalCnot {
            patches,
            depth,
            cnots_per_round,
        } => {
            record.patches == patches
                && record.cnots == depth
                && record.cnots_per_round == Some(cnots_per_round)
        }
        Scenario::GhzFanout { targets } => {
            let exp = GhzFanoutExperiment {
                distance: spec.distance,
                targets,
                noise: spec.noise,
            };
            // The range keeps the builder's `2t − 1` and `2(t − 1)` from
            // overflowing.
            (1..=usize::MAX / 2).contains(&targets)
                && record.patches == exp.patches()
                && record.cnots == exp.cnots()
                && record.se_rounds == exp.se_rounds()
                && record.cnots_per_round.is_none()
        }
        Scenario::DeepCnot {
            patches,
            rounds,
            cnots_per_round,
        } => {
            let schedule = rounds
                .checked_resolve(spec.distance)
                .and_then(|rounds| engine::deep_cnot_schedule(rounds, cnots_per_round));
            record.patches == patches
                && schedule == Some((record.cnots, record.se_rounds))
                && record.cnots_per_round == Some(cnots_per_round)
        }
        Scenario::MagicFactory { protocol, rounds } => {
            record.patches == protocol.patches()
                && rounds_ok(rounds)
                && record.cnots_per_round.is_none()
        }
        Scenario::Gadget {
            kind,
            width,
            rounds,
        } => {
            // The bound keeps the adder's `2 · width + 1` in range.
            width <= usize::MAX / 2
                && record.patches == kind.patches(width)
                && rounds_ok(rounds)
                && record.cnots_per_round.is_none()
        }
    };
    budget_ok
        && scenario_ok
        && record.name == spec.name
        && record.scenario == spec.scenario.label()
        && record.distance == spec.distance
        && record.basis == spec.basis
        && record.noise == spec.noise
        && record.decoder == spec.decoder.label()
        && record.sampler == spec.sampler.label()
        && record.streaming == spec.streaming
        && record.seed == spec.seed
}

/// What a cached sweep run did: the records in grid order, plus the
/// fresh-vs-replayed accounting and the fault ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One record per *successful* grid point, in the grid's deterministic
    /// expansion order — identical to what [`engine::run_sweep`] would
    /// return. With panic isolation off (the default) every point is
    /// successful or the run errors, so the list always aligns with the
    /// grid; with isolation on, poisoned points are omitted here and listed
    /// in [`SweepReport::poisoned`].
    pub records: Vec<ExperimentRecord>,
    /// Points that ran through the engine this time.
    pub fresh_points: usize,
    /// Points replayed from the cache.
    pub(crate) cached_points: usize,
    /// Monte-Carlo shots actually sampled this run (0 on a fully warm
    /// cache — the property the CI smoke pins).
    pub fresh_shots: usize,
    /// Points whose engine run panicked (panic isolation only).
    pub poisoned: Vec<PoisonedPoint>,
    /// Corrupt cache entries found and overwritten by recomputation.
    pub corrupt_replaced: usize,
}

/// The outcome of one grid point under the orchestrator.
#[derive(Debug, Clone)]
pub(crate) enum PointOutcome {
    /// Replayed byte-for-byte from the cache.
    Cached(ExperimentRecord),
    /// Ran through the engine (and persisted, when a cache is attached).
    Fresh {
        /// The freshly computed record.
        record: ExperimentRecord,
        /// Whether a corrupt cache entry was found and overwritten.
        replaced_corrupt: bool,
    },
    /// The engine run panicked; the panic was contained.
    Poisoned(PoisonedPoint),
}

/// Runs sweeps point-parallel over an optional [`SweepCache`], with
/// per-point panic isolation and advisory single-writer cache locking.
#[derive(Debug, Clone, Default)]
pub struct Orchestrator {
    cache: Option<SweepCache>,
    point_threads: usize,
    isolate_panics: bool,
    lock_opts: LockOptions,
}

thread_local! {
    /// Set while a worker intentionally contains panics, so the process
    /// panic hook stays quiet about them (the poisoned-point report is the
    /// observable, not a backtrace on stderr).
    static CONTAINING_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// panics the orchestrator is about to catch and report as poisoned
/// points; every other panic goes to the previously installed hook.
fn install_contained_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINING_PANICS.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Renders a caught panic payload (the `&str` / `String` cases cover every
/// `panic!` and failed `assert!` in the engine).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Orchestrator {
    /// An orchestrator with no cache, running points in parallel on all
    /// cores.
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a content-addressed cache rooted at `dir` (created if
    /// missing).
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> io::Result<Self> {
        self.cache = Some(SweepCache::open(dir)?);
        Ok(self)
    }

    /// Sets the number of grid points run concurrently: `0` (default) uses
    /// all cores, `1` runs points serially with each point's own
    /// [`raa_decode::McConfig`] governing its inner parallelism. With two
    /// or more point workers each point's Monte-Carlo decode is forced
    /// single-threaded — the parallelism budget moves to the point axis —
    /// which cannot change any record (the engine's determinism contract).
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn with_point_threads(mut self, point_threads: usize) -> Self {
        self.point_threads = point_threads;
        self
    }

    /// Turns a panicking grid point into a [`PoisonedPoint`] entry of the
    /// report instead of failing the whole run — the fault-isolation mode
    /// the `raa-sweepd` service runs in. Off by default: a panic then
    /// fails the run with [`OrchestratorError::Poisoned`] (but still never
    /// unwinds through the caller).
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn with_panic_isolation(mut self, isolate: bool) -> Self {
        self.isolate_panics = isolate;
        self
    }

    /// Configures the advisory per-entry lock discipline (wait, backoff,
    /// staleness) used around cold-point sampling and cache writes.
    // raa-audit: allow(orphan-pub): fault_injection.rs sets a short lock timeout to reach the lock-timeout error path; no production caller tunes the lock discipline.
    pub fn with_lock_options(mut self, opts: LockOptions) -> Self {
        self.lock_opts = opts;
        self
    }

    /// The attached cache, if any.
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn cache(&self) -> Option<&SweepCache> {
        self.cache.as_ref()
    }

    /// Runs every point of `grid` (cartesian expansion order), consulting
    /// the cache before sampling.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::Io`] when cache I/O fails past the retry
    /// budget, [`OrchestratorError::Poisoned`] when a point panics without
    /// panic isolation, [`OrchestratorError::PoolBuild`] when the
    /// point-thread configuration cannot build a worker pool. Without a
    /// cache and with panic isolation, the run is infallible.
    // raa-audit: allow(orphan-pub): fault_injection.rs and sweep_service.rs run whole grids through the cache; the binaries run spec lists or calibrations.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepReport, OrchestratorError> {
        self.run_specs(&grid.specs())
    }

    /// Runs one spec through the full per-point pipeline: cache lookup →
    /// advisory entry lock → double-checked lookup → engine run under
    /// `catch_unwind` → retried atomic persist. `single_threaded` forces
    /// the point's inner Monte-Carlo to one thread (what the point-parallel
    /// and service worker pools do; the record is identical either way).
    ///
    /// # Errors
    ///
    /// Cache I/O past the retry budget errors, as does the engine failing
    /// to build its decode thread pool (surfaced as
    /// [`OrchestratorError::PoolBuild`] via [`engine::try_run`] — a
    /// configuration fault, not a property of the point). A panicking
    /// engine run is an `Ok(PointOutcome::Poisoned(..))`, and lock-wait
    /// exhaustion falls back to (correct, duplicated) sampling.
    pub(crate) fn run_point(
        &self,
        index: usize,
        spec: &ExperimentSpec,
        single_threaded: bool,
    ) -> Result<PointOutcome, OrchestratorError> {
        // Pre-flight the graph-free part of the engine's streaming-window
        // validation (the rest needs the built circuit): a degenerate
        // geometry poisons the point here, before it takes an entry lock
        // or burns a worker on an engine panic.
        if spec.streaming {
            if let DecoderChoice::Windowed { commit, buffer } = spec.decoder {
                let degenerate = match (commit, buffer) {
                    (0, _) => Some(WindowError::ZeroCommit),
                    (_, 0) => Some(WindowError::ZeroBuffer),
                    _ => None,
                };
                if let Some(e) = degenerate {
                    return Ok(PointOutcome::Poisoned(PoisonedPoint {
                        index,
                        name: spec.name.clone(),
                        key: spec_cache_key(spec),
                        message: format!("streaming windowed decode rejected: {e}"),
                    }));
                }
            }
        }
        let mut replaced_corrupt = false;
        let mut lock = None;
        if let Some(cache) = &self.cache {
            match cache.lookup(spec) {
                CacheLookup::Hit(record) => return Ok(PointOutcome::Cached(record)),
                CacheLookup::Miss => {}
                CacheLookup::Corrupt(_) => replaced_corrupt = true,
            }
            // Single-writer discipline: take the entry lock *before*
            // sampling so a contending orchestrator waits for our record
            // instead of duplicating the work. The lock is advisory — on
            // bounded-wait exhaustion we sample anyway (liveness over
            // dedup; determinism makes the duplicate byte-identical).
            match cache.exclusive(spec, &self.lock_opts) {
                Ok(l) => {
                    // Double-check under the lock: the previous holder may
                    // have just produced this very entry.
                    if let CacheLookup::Hit(record) = cache.lookup(spec) {
                        return Ok(PointOutcome::Cached(record));
                    }
                    lock = Some(l);
                }
                Err(OrchestratorError::LockTimeout { .. }) => {}
                Err(e) => return Err(e),
            }
        }

        install_contained_panic_hook();
        let run_engine = || {
            if single_threaded {
                // This point shares a worker pool; nesting another pool
                // would oversubscribe without changing any record.
                let mut inner = spec.clone();
                inner.mc.threads = 1;
                engine::try_run(&inner)
            } else {
                engine::try_run(spec)
            }
        };
        CONTAINING_PANICS.with(|c| c.set(true));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_engine));
        CONTAINING_PANICS.with(|c| c.set(false));
        let record = match result {
            // A typed engine error (decode pool build) is infrastructure,
            // not a property of the point: fail the job, don't poison.
            Ok(run) => run?.0,
            Err(payload) => {
                return Ok(PointOutcome::Poisoned(PoisonedPoint {
                    index,
                    name: spec.name.clone(),
                    key: spec_cache_key(spec),
                    message: panic_message(payload),
                }))
            }
        };

        if let Some(cache) = &self.cache {
            retry_io(&Backoff::default(), || cache.store(spec, &record)).map_err(|e| {
                OrchestratorError::io(
                    format!(
                        "persisting cache entry {}",
                        cache.entry_path(spec).display()
                    ),
                    e,
                )
            })?;
        }
        drop(lock);
        Ok(PointOutcome::Fresh {
            record,
            replaced_corrupt,
        })
    }

    /// [`Orchestrator::run`] over an explicit spec list.
    // raa-audit: allow(orphan-pub): fault_injection.rs, sweep_service.rs and scenario_conformance.rs drive the orchestrator directly; the binaries reach it through calibrate and the service.
    pub fn run_specs(&self, specs: &[ExperimentSpec]) -> Result<SweepReport, OrchestratorError> {
        let point_parallel = self.point_threads != 1;
        let results: Vec<Result<PointOutcome, OrchestratorError>> = if point_parallel {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(self.point_threads)
                .build()
                .map_err(|e| OrchestratorError::PoolBuild {
                    requested: self.point_threads,
                    detail: e.to_string(),
                })?;
            pool.install(|| {
                (0..specs.len())
                    .into_par_iter()
                    .map(|i| self.run_point(i, &specs[i], true))
                    .collect()
            })
        } else {
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| self.run_point(i, spec, false))
                .collect()
        };

        let mut report = SweepReport {
            records: Vec::with_capacity(specs.len()),
            fresh_points: 0,
            cached_points: 0,
            fresh_shots: 0,
            poisoned: Vec::new(),
            corrupt_replaced: 0,
        };
        for result in results {
            match result? {
                PointOutcome::Cached(record) => {
                    report.cached_points += 1;
                    report.records.push(record);
                }
                PointOutcome::Fresh {
                    record,
                    replaced_corrupt,
                } => {
                    report.fresh_points += 1;
                    report.fresh_shots += record.shots;
                    report.corrupt_replaced += usize::from(replaced_corrupt);
                    report.records.push(record);
                }
                PointOutcome::Poisoned(poisoned) => {
                    if self.isolate_panics {
                        report.poisoned.push(poisoned);
                    } else {
                        return Err(OrchestratorError::Poisoned(poisoned));
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DecoderChoice, SamplerChoice};
    use crate::{run_sweep, NoiseModel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("raa-sim-orch-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new(
            "orch/memory",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
        )
        .with_distances(vec![3, 5])
        .with_p_phys(vec![3e-3, 5e-3])
        .with_shots(ShotBudget::Fixed(512))
        .with_seed(0xA11CE)
    }

    #[test]
    fn fingerprint_separates_every_semantic_axis() {
        let base = small_grid().specs().remove(0);
        let fp = spec_fingerprint(&base);
        let variants: Vec<ExperimentSpec> = vec![
            ExperimentSpec {
                seed: base.seed + 1,
                ..base.clone()
            },
            ExperimentSpec {
                distance: 5,
                ..base.clone()
            },
            ExperimentSpec {
                noise: NoiseModel::uniform(1e-3),
                ..base.clone()
            },
            ExperimentSpec {
                decoder: DecoderChoice::Matching,
                ..base.clone()
            },
            ExperimentSpec {
                sampler: SamplerChoice::Circuit,
                ..base.clone()
            },
            ExperimentSpec {
                shots: ShotBudget::UntilFailures {
                    max_shots: 512,
                    target_failures: 8,
                },
                ..base.clone()
            },
            ExperimentSpec {
                name: "other".into(),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(spec_fingerprint(v), fp, "{v:?}");
            assert_ne!(spec_cache_key(v), spec_cache_key(&base));
        }
        // The decode thread count is not semantic: same key.
        let retimed = ExperimentSpec {
            mc: raa_decode::McConfig::default().with_threads(7),
            ..base.clone()
        };
        assert_eq!(spec_fingerprint(&retimed), fp);
    }

    #[test]
    fn warm_cache_replays_bytes_and_samples_nothing() {
        let tmp = TempDir::new("warm");
        let grid = small_grid();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        let cold = orch.run(&grid).unwrap();
        assert_eq!(cold.fresh_points, 4);
        assert_eq!(cold.cached_points, 0);
        assert_eq!(cold.fresh_shots, 4 * 512);

        let warm = orch.run(&grid).unwrap();
        assert_eq!(warm.fresh_points, 0);
        assert_eq!(warm.cached_points, 4);
        assert_eq!(warm.fresh_shots, 0);
        for (a, b) in cold.records.iter().zip(&warm.records) {
            assert_eq!(a.to_json(), b.to_json(), "byte-identical replay");
        }
        // And both match the plain uncached engine sweep.
        let plain = run_sweep(&grid);
        for (a, b) in plain.iter().zip(&cold.records) {
            assert_eq!(a.to_json(), b.to_json());
        }
        // No locks or temp files survive a clean run.
        for f in fs::read_dir(&tmp.0).unwrap() {
            let name = f.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(name.ends_with(".json"), "leftover {name}");
        }
    }

    #[test]
    fn interrupted_sweep_resumes_only_missing_points() {
        let tmp = TempDir::new("resume");
        let grid = small_grid();
        let specs = grid.specs();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        orch.run(&grid).unwrap();
        // Simulate an interruption that lost one point.
        let victim = orch.cache().unwrap().entry_path(&specs[2]);
        fs::remove_file(&victim).unwrap();
        let resumed = orch.run(&grid).unwrap();
        assert_eq!(resumed.fresh_points, 1);
        assert_eq!(resumed.cached_points, 3);
        assert_eq!(resumed.fresh_shots, 512);
        assert!(victim.exists(), "re-run point persisted again");
    }

    #[test]
    fn corrupt_or_mismatched_entries_are_recomputed() {
        let tmp = TempDir::new("corrupt");
        let grid = small_grid();
        let specs = grid.specs();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        let cold = orch.run(&grid).unwrap();
        let cache = orch.cache().unwrap();
        // Truncated JSON (torn write).
        fs::write(cache.entry_path(&specs[0]), "{\"name\":\"orch").unwrap();
        // Well-formed JSON whose spec echo belongs to a different point
        // (what a key collision would look like).
        fs::write(
            cache.entry_path(&specs[1]),
            format!("{}\n", cold.records[3].to_json()),
        )
        .unwrap();
        let healed = orch.run(&grid).unwrap();
        assert_eq!(healed.fresh_points, 2);
        assert_eq!(healed.cached_points, 2);
        assert_eq!(healed.corrupt_replaced, 2);
        for (a, b) in cold.records.iter().zip(&healed.records) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    /// A spec of `scenario` at its smallest distance (d = 3, code832 at
    /// 2) with 64 shots.
    fn small_spec(scenario: Scenario) -> ExperimentSpec {
        let label = scenario.label();
        let distance = if label == "code832_memory" { 2 } else { 3 };
        let mut spec = ExperimentSpec::new(format!("orch/{label}"), scenario, distance);
        spec.shots = ShotBudget::Fixed(64);
        spec
    }

    /// `rounds` with one more round at every distance.
    fn one_more(rounds: Rounds) -> Rounds {
        match rounds {
            Rounds::Fixed(n) => Rounds::Fixed(n + 1),
            Rounds::TimesDistance(k) => Rounds::TimesDistance(k + 1),
        }
    }

    /// A sibling of `scenario` under the same label whose record differs:
    /// one more round, or for the round-free scenarios one more CNOT or GHZ
    /// branch.
    fn sibling(scenario: Scenario) -> Scenario {
        match scenario {
            Scenario::TransversalCnot {
                patches,
                depth,
                cnots_per_round,
            } => Scenario::TransversalCnot {
                patches,
                depth: depth + 1,
                cnots_per_round,
            },
            Scenario::GhzFanout { targets } => Scenario::GhzFanout {
                targets: targets + 1,
            },
            Scenario::Memory { rounds } => Scenario::Memory {
                rounds: one_more(rounds),
            },
            Scenario::DeepCnot {
                patches,
                rounds,
                cnots_per_round,
            } => Scenario::DeepCnot {
                patches,
                rounds: one_more(rounds),
                cnots_per_round,
            },
            Scenario::MagicFactory { protocol, rounds } => Scenario::MagicFactory {
                protocol,
                rounds: one_more(rounds),
            },
            Scenario::Gadget {
                kind,
                width,
                rounds,
            } => Scenario::Gadget {
                kind,
                width,
                rounds: one_more(rounds),
            },
            Scenario::Code832Memory { rounds } => Scenario::Code832Memory {
                rounds: one_more(rounds),
            },
        }
    }

    #[test]
    fn stale_entry_with_same_label_but_different_scenario_params_misses() {
        let tmp = TempDir::new("stale");
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        let cache = orch.cache().unwrap();
        for scenario in crate::spec::tests::every_scenario() {
            // Same name, seed, noise, decoder and label, but a different
            // shape: neither point's entry may replay for the other.
            let spec = small_spec(scenario);
            let other = ExperimentSpec {
                scenario: sibling(scenario),
                ..spec.clone()
            };
            let record = engine::run(&spec);
            let other_record = engine::run(&other);
            assert_ne!(record.to_json(), other_record.to_json(), "{scenario:?}");
            for (planted, at) in [(&record, &other), (&other_record, &spec)] {
                fs::write(cache.entry_path(at), format!("{}\n", planted.to_json())).unwrap();
                assert!(
                    cache.load(at).is_none(),
                    "{} replayed a sibling's record for {:?}",
                    at.scenario.label(),
                    at.scenario
                );
            }
            let healed = orch.run_specs(std::slice::from_ref(&other)).unwrap();
            assert_eq!(healed.fresh_points, 1);
            assert_eq!(healed.records[0].to_json(), other_record.to_json());
        }
    }

    /// The wire line a spec's key hashes.
    fn wire_line(spec: &ExperimentSpec) -> String {
        let mut line = String::new();
        jobs::write_spec(&mut line, spec);
        line
    }

    #[test]
    fn cache_keys_and_wire_lines_are_pinned() {
        let memory = ExperimentSpec::new(
            "golden/memory",
            Scenario::Memory {
                rounds: Rounds::Fixed(2),
            },
            3,
        );
        let mut deep = ExperimentSpec::new(
            "golden/deep",
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::TimesDistance(20),
                cnots_per_round: 0.5,
            },
            5,
        );
        deep.basis = raa_surface::Basis::X;
        deep.noise = NoiseModel::uniform(2e-3);
        deep.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 3,
        };
        deep.streaming = true;
        deep.shots = ShotBudget::UntilFailures {
            max_shots: 100_000,
            target_failures: 50,
        };
        deep.seed = u64::MAX - 3;
        let mut gadget = ExperimentSpec::new(
            "golden/gadget \"adder\"\n",
            Scenario::Gadget {
                kind: crate::GadgetKind::Adder,
                width: 4,
                rounds: Rounds::Fixed(8),
            },
            3,
        );
        gadget.decoder = DecoderChoice::Matching;
        gadget.sampler = SamplerChoice::Circuit;
        gadget.seed = 42;
        // Re-pinning these is a deliberate re-keying: every cache misses once.
        for (spec, line, key) in [
            (
                &memory,
                r#"{"name":"golden/memory","scenario":"memory","rounds":"fixed:2","distance":3,"basis":"Z","p2":0.001,"p_idle":0.001,"p_prep":0.001,"p_meas":0.001,"decoder":"union_find","sampler":"dem","streaming":false,"shots":"fixed:10000","seed":"0"}"#,
                "3b2311e995c3c39fa5791ae5c668739f",
            ),
            (
                &deep,
                r#"{"name":"golden/deep","scenario":"deep_cnot","patches":2,"rounds":"xd:20","cnots_per_round":0.5,"distance":5,"basis":"X","p2":0.002,"p_idle":0.002,"p_prep":0.002,"p_meas":0.002,"decoder":"windowed_2+3","sampler":"dem","streaming":true,"shots":"until:100000:50","seed":"18446744073709551612"}"#,
                "e639e15b204b82407ebadaca209a512d",
            ),
            (
                &gadget,
                r#"{"name":"golden/gadget \"adder\"\n","scenario":"gadget_adder","width":4,"rounds":"fixed:8","distance":3,"basis":"Z","p2":0.001,"p_idle":0.001,"p_prep":0.001,"p_meas":0.001,"decoder":"matching","sampler":"circuit","streaming":false,"shots":"fixed:10000","seed":"42"}"#,
                "13245e991cd05c89df52d63720313a9c",
            ),
        ] {
            assert_eq!(wire_line(spec), line);
            assert_eq!(spec_fingerprint(spec), format!("v1;{line}"));
            assert_eq!(crate::jobs::spec_to_json(spec).to_line(), line);
            assert_eq!(spec_cache_key(spec), key, "{}", spec.name);
        }
    }

    /// Cases of the key-sensitivity property: each runs the engine twice,
    /// so a debug build runs a few and the release CI step runs the rest.
    const SENSITIVITY_CASES: u32 = if cfg!(debug_assertions) { 12 } else { 256 };

    /// A random spec of one of `every_scenario()`'s scenarios at its
    /// smallest distance, with a decoder the scenario accepts and a few
    /// dozen shots.
    fn random_spec(rng: &mut StdRng) -> ExperimentSpec {
        let scenarios = crate::spec::tests::every_scenario();
        let mut spec = small_spec(scenarios[rng.random_range(0..scenarios.len())]);
        spec.noise = NoiseModel::uniform([2e-3, 5e-3][rng.random_range(0..2usize)]);
        spec.shots = ShotBudget::Fixed(rng.random_range(24..48));
        spec.seed = rng.random();
        let layered = spec.scenario.detectors_per_layer(spec.distance).is_some();
        spec.decoder = match rng.random_range(0..4u32) {
            0 => DecoderChoice::Matching,
            1 => DecoderChoice::BpUnionFind,
            2 if layered => DecoderChoice::Windowed {
                commit: 1,
                buffer: 1,
            },
            _ => DecoderChoice::UnionFind,
        };
        if matches!(spec.decoder, DecoderChoice::Windowed { .. }) {
            // A streamed window of two layers needs a circuit of three.
            spec.scenario = sibling(spec.scenario);
            spec.streaming = rng.random();
        }
        spec
    }

    /// `base` with field number `field` changed, or `None` where that
    /// change would make the engine reject the spec.
    fn one_field_changed(
        base: &ExperimentSpec,
        field: u32,
        rng: &mut StdRng,
    ) -> Option<ExperimentSpec> {
        let mut spec = base.clone();
        let windowed = matches!(spec.decoder, DecoderChoice::Windowed { .. });
        match field {
            0 => spec.name.push('\''),
            1 => spec.scenario = sibling(spec.scenario),
            2 if spec.distance == 3 => spec.distance = 5,
            3 => spec.basis = raa_surface::Basis::X,
            4 => match rng.random_range(0..4u32) {
                0 => spec.noise.p2 *= 2.0,
                1 => spec.noise.p_idle *= 2.0,
                2 => spec.noise.p_prep *= 2.0,
                _ => spec.noise.p_meas *= 2.0,
            },
            5 if !spec.streaming => {
                spec.decoder = match spec.decoder {
                    DecoderChoice::UnionFind => DecoderChoice::Matching,
                    _ => DecoderChoice::UnionFind,
                }
            }
            6 if !spec.streaming => spec.sampler = SamplerChoice::Circuit,
            7 if windowed => spec.streaming = !spec.streaming,
            8 => {
                let ShotBudget::Fixed(n) = spec.shots else {
                    return None;
                };
                spec.shots = match rng.random_range(0..3u32) {
                    0 => ShotBudget::Fixed(n + 1),
                    target_failures => ShotBudget::UntilFailures {
                        max_shots: n,
                        target_failures: [1, 1_000][target_failures as usize - 1],
                    },
                };
            }
            9 => spec.seed = spec.seed.wrapping_add(1),
            10 => spec.mc = raa_decode::McConfig::default().with_threads(rng.random_range(1..4)),
            _ => return None,
        }
        Some(spec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(SENSITIVITY_CASES))]

        /// Whenever one changed field changes the record, it changes the
        /// cache key, and a change of `mc.threads` moves neither. A key
        /// may move without the record for one reason only: two shot
        /// budgets the run cannot tell apart, such as `Fixed(n)` against
        /// an `UntilFailures` capped at `n` shots that runs to its cap.
        #[test]
        fn cache_key_moves_whenever_the_record_does(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = random_spec(&mut rng);
            let (field, changed) = loop {
                let field = rng.random_range(0..11u32);
                if let Some(changed) = one_field_changed(&base, field, &mut rng) {
                    break (field, changed);
                }
            };
            let (record, changed_record) = (engine::run(&base), engine::run(&changed));
            let (key, changed_key) = (spec_cache_key(&base), spec_cache_key(&changed));
            if field == 10 {
                prop_assert_eq!(&key, &changed_key);
                prop_assert_eq!(record.to_json(), changed_record.to_json());
            } else if record.to_json() != changed_record.to_json() {
                prop_assert_ne!(&key, &changed_key, "{:?} -> {:?}", base, changed);
            } else if key != changed_key {
                // The named exception: only the shot budget changed, and
                // both budgets ran exactly the record's shots.
                let ran_all = |budget: ShotBudget| match budget {
                    ShotBudget::Fixed(n) => n == record.shots,
                    ShotBudget::UntilFailures { max_shots, .. } => max_shots == record.shots,
                };
                prop_assert!(
                    field == 8 && ran_all(base.shots) && ran_all(changed.shots),
                    "{:?} -> {:?} moved the key but not the record",
                    base,
                    changed
                );
            }
            // A spec decoded from its own wire line keeps its key.
            for spec in [&base, &changed] {
                let line = crate::jobs::Request::Sweep {
                    id: String::new(),
                    specs: vec![spec.clone()],
                }
                .to_line();
                let crate::jobs::Request::Sweep { specs, .. } =
                    crate::jobs::Request::from_line(&line).unwrap()
                else {
                    panic!("a sweep line decodes as a sweep");
                };
                prop_assert_eq!(spec_cache_key(&specs[0]), spec_cache_key(spec));
            }
        }
    }

    #[test]
    fn deep_cnot_spec_that_fits_no_cnot_is_poisoned_and_misses() {
        // At x = 0.5 one CNOT takes three SE rounds. A two-round spec fits
        // none: its point is poisoned, the message names the rounds
        // needed, and nothing is cached under its key.
        let deep = |rounds| {
            small_spec(Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(rounds),
                cnots_per_round: 0.5,
            })
        };
        let tmp = TempDir::new("deep-no-cnot");
        let orch = Orchestrator::new()
            .with_cache_dir(&tmp.0)
            .unwrap()
            .with_panic_isolation(true);
        let report = orch.run_specs(&[deep(2)]).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.poisoned.len(), 1);
        let message = &report.poisoned[0].message;
        assert!(
            message.contains("at least 3 SE rounds") && message.contains("got 2"),
            "{message}"
        );
        let lookup = orch.cache().unwrap().lookup(&deep(2));
        assert!(matches!(lookup, CacheLookup::Miss), "{lookup:?}");
        // Three rounds fit the one CNOT exactly, and its entry replays.
        let record = engine::run(&deep(3));
        assert_eq!((record.cnots, record.se_rounds), (1, 3));
        assert!(record_matches_spec(&record, &deep(3)));
    }

    #[test]
    fn echo_guard_never_panics_on_a_hostile_spec() {
        // Lookups run outside `catch_unwind`: a spec whose shape overflows
        // or underflows must read as a mismatch, not panic the worker.
        let record = engine::run(&small_spec(Scenario::Memory {
            rounds: Rounds::Fixed(2),
        }));
        let huge = Rounds::TimesDistance(usize::MAX);
        for scenario in [
            Scenario::Memory {
                rounds: Rounds::Fixed(0),
            },
            Scenario::Memory { rounds: huge },
            Scenario::GhzFanout { targets: 0 },
            Scenario::GhzFanout {
                targets: usize::MAX,
            },
            Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(0),
                cnots_per_round: 1.0,
            },
            Scenario::Gadget {
                kind: crate::GadgetKind::Adder,
                width: usize::MAX,
                rounds: huge,
            },
            Scenario::Code832Memory { rounds: huge },
        ]
        .into_iter()
        .chain(
            [0.0, -1.0, 1e-300, 1e300, f64::NAN, f64::INFINITY].map(|x| Scenario::DeepCnot {
                patches: 2,
                rounds: Rounds::Fixed(usize::MAX),
                cnots_per_round: x,
            }),
        ) {
            assert!(
                !record_matches_spec(&record, &small_spec(scenario)),
                "{scenario:?}"
            );
        }
    }

    #[test]
    fn until_failures_entry_must_justify_its_early_stop() {
        let grid = small_grid();
        let mut spec = grid.specs().remove(0);
        spec.shots = ShotBudget::UntilFailures {
            max_shots: 4_096,
            target_failures: 4,
        };
        let record = engine::run(&spec);
        assert!(record_matches_spec(&record, &spec));
        // A record that stopped early without reaching the failure target
        // cannot belong to this budget.
        let mut bogus = record.clone();
        bogus.shots = record.shots.saturating_sub(1).max(1);
        bogus.failures = 0;
        assert!(!record_matches_spec(&bogus, &spec));
    }

    #[test]
    fn duplicate_specs_in_one_parallel_run_do_not_race() {
        let tmp = TempDir::new("dup");
        let spec = small_grid().specs().remove(0);
        let duplicates = vec![spec.clone(), spec.clone(), spec.clone(), spec];
        let orch = Orchestrator::new()
            .with_point_threads(4)
            .with_cache_dir(&tmp.0)
            .unwrap();
        let report = orch.run_specs(&duplicates).unwrap();
        assert_eq!(report.records.len(), 4);
        for r in &report.records[1..] {
            assert_eq!(r.to_json(), report.records[0].to_json());
        }
        // With entry locking, at most one of the duplicates should have
        // sampled; the rest wait on the lock and replay the winner.
        assert!(report.fresh_points >= 1);
        assert_eq!(report.fresh_points + report.cached_points, 4);
    }

    #[test]
    fn point_parallelism_is_bit_deterministic() {
        let grid = small_grid();
        let serial = Orchestrator::new()
            .with_point_threads(1)
            .run(&grid)
            .unwrap();
        for threads in [0usize, 2, 8] {
            let parallel = Orchestrator::new()
                .with_point_threads(threads)
                .run(&grid)
                .unwrap();
            for (a, b) in serial.records.iter().zip(&parallel.records) {
                assert_eq!(a.to_json(), b.to_json(), "point_threads = {threads}");
            }
        }
    }

    #[test]
    fn uncached_orchestrator_reports_all_fresh() {
        let report = Orchestrator::new().run(&small_grid()).unwrap();
        assert_eq!(report.fresh_points, 4);
        assert_eq!(report.fresh_shots, 4 * 512);
        assert!(report.poisoned.is_empty());
    }

    /// A spec whose engine run panics (zero SE rounds trip the
    /// `Rounds::resolve` assertion) — the fault-injection workhorse.
    fn poison_spec() -> ExperimentSpec {
        let mut spec = small_grid().specs().remove(0);
        spec.name = "orch/poison".into();
        spec.scenario = Scenario::Memory {
            rounds: Rounds::Fixed(0),
        };
        spec
    }

    #[test]
    fn degenerate_streaming_window_poisons_before_the_engine_runs() {
        let mut spec = small_grid().specs().remove(0);
        spec.name = "orch/zero-buffer-stream".into();
        spec.decoder = DecoderChoice::Windowed {
            commit: 2,
            buffer: 0,
        };
        spec.streaming = true;
        let report = Orchestrator::new()
            .with_panic_isolation(true)
            .run_specs(&[spec])
            .unwrap();
        assert_eq!(report.poisoned.len(), 1);
        assert!(
            report.poisoned[0]
                .message
                .contains("streaming windowed decode rejected"),
            "{}",
            report.poisoned[0].message
        );
        assert!(
            report.poisoned[0].message.contains("look-ahead"),
            "the typed WindowError must surface: {}",
            report.poisoned[0].message
        );
    }

    #[test]
    fn poisoned_point_fails_typed_without_isolation() {
        let mut specs = small_grid().specs();
        specs.insert(1, poison_spec());
        let err = Orchestrator::new()
            .with_point_threads(1)
            .run_specs(&specs)
            .unwrap_err();
        match err {
            OrchestratorError::Poisoned(p) => {
                assert_eq!(p.index, 1);
                assert_eq!(p.name, "orch/poison");
                assert!(p.message.contains("SE round"), "{}", p.message);
            }
            other => panic!("expected Poisoned, got {other}"),
        }
    }

    #[test]
    fn panic_isolation_quarantines_and_completes_the_rest() {
        let grid = small_grid();
        let mut specs = grid.specs();
        specs.insert(2, poison_spec());
        let report = Orchestrator::new()
            .with_panic_isolation(true)
            .run_specs(&specs)
            .unwrap();
        assert_eq!(report.poisoned.len(), 1);
        assert_eq!(report.poisoned[0].index, 2);
        assert_eq!(report.records.len(), 4, "all healthy points completed");
        // The healthy records are exactly the plain sweep's.
        let plain = run_sweep(&grid);
        for (a, b) in plain.iter().zip(&report.records) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn scrub_quarantines_corrupt_and_clears_stale_litter() {
        let tmp = TempDir::new("scrub");
        let grid = small_grid();
        let specs = grid.specs();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        orch.run(&grid).unwrap();
        let cache = orch.cache().unwrap();
        // A torn entry, an orphaned temp file and an abandoned lock.
        fs::write(cache.entry_path(&specs[0]), "{\"nope").unwrap();
        fs::write(tmp.0.join("deadbeef.tmp.1234.0"), "partial").unwrap();
        fs::write(tmp.0.join(format!("{}.lock", "ab".repeat(16))), "pid 1\n").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let opts = ScrubOptions {
            stale_tmp_after: Duration::from_millis(5),
            stale_lock_after: Duration::from_millis(5),
            ..ScrubOptions::default()
        };
        let report = cache.scrub(&opts).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.healthy, 3);
        assert_eq!(report.stale_tmps_removed, 1);
        assert_eq!(report.stale_locks_removed, 1);
        assert!(cache.quarantine_dir().exists());
        assert!(!cache.entry_path(&specs[0]).exists());
        // The quarantined point is a miss, so the next sweep heals it.
        let healed = orch.run(&grid).unwrap();
        assert_eq!(healed.fresh_points, 1);
    }

    #[test]
    fn scrub_keeps_a_valid_record_of_every_scenario_label() {
        let tmp = TempDir::new("labels");
        let specs: Vec<ExperimentSpec> = crate::spec::tests::every_scenario()
            .into_iter()
            .map(|scenario| {
                let label = scenario.label();
                let distance = if label == "code832_memory" { 2 } else { 3 };
                let mut spec = ExperimentSpec::new(format!("orch/{label}"), scenario, distance);
                spec.shots = ShotBudget::Fixed(64);
                spec
            })
            .collect();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        assert_eq!(orch.run_specs(&specs).unwrap().fresh_points, specs.len());
        let report = orch
            .cache()
            .unwrap()
            .scrub(&ScrubOptions::default())
            .unwrap();
        assert_eq!(report.scanned, specs.len());
        assert_eq!(report.quarantined, 0, "{report:?}");
        assert_eq!(report.healthy, specs.len());
        assert_eq!(orch.run_specs(&specs).unwrap().fresh_points, 0);
    }

    #[test]
    fn scrub_evicts_lru_over_size_budget() {
        let tmp = TempDir::new("evict");
        let grid = small_grid();
        let specs = grid.specs();
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        orch.run(&grid).unwrap();
        let cache = orch.cache().unwrap();
        // Make one entry decisively the oldest.
        let oldest = cache.entry_path(&specs[0]);
        std::thread::sleep(Duration::from_millis(20));
        for spec in &specs[1..] {
            let record = cache.load(spec).unwrap();
            cache.store(spec, &record).unwrap(); // refresh mtime
        }
        let total: u64 = specs
            .iter()
            .map(|s| fs::metadata(cache.entry_path(s)).unwrap().len())
            .sum();
        let report = cache
            .scrub(&ScrubOptions {
                size_budget: Some(total - 1),
                ..ScrubOptions::default()
            })
            .unwrap();
        assert_eq!(report.evicted, 1);
        assert!(!oldest.exists(), "LRU entry evicted first");
        assert!(report.bytes_after < total);
        for spec in &specs[1..] {
            assert!(cache.entry_path(spec).exists());
        }
    }

    #[test]
    fn validate_entry_classifies_corruption() {
        let tmp = TempDir::new("validate");
        fs::create_dir_all(&tmp.0).unwrap();
        let spec = small_grid().specs().remove(0);
        let record = engine::run(&spec);
        let good = tmp.0.join("good.json");
        fs::write(&good, format!("{}\n", record.to_json())).unwrap();
        assert_eq!(SweepCache::validate_entry(&good).unwrap(), record);

        let torn = tmp.0.join("torn.json");
        fs::write(&torn, "{\"name\":\"x").unwrap();
        match SweepCache::validate_entry(&torn) {
            Err(OrchestratorError::CorruptEntry { detail, .. }) => {
                assert!(detail.contains("unparsable"), "{detail}")
            }
            other => panic!("expected CorruptEntry, got {other:?}"),
        }

        let mut impossible = record.clone();
        impossible.failures = impossible.shots + 1;
        let inconsistent = tmp.0.join("inconsistent.json");
        fs::write(&inconsistent, format!("{}\n", impossible.to_json())).unwrap();
        match SweepCache::validate_entry(&inconsistent) {
            Err(OrchestratorError::CorruptEntry { detail, .. }) => {
                assert!(detail.contains("failures"), "{detail}")
            }
            other => panic!("expected CorruptEntry, got {other:?}"),
        }

        match SweepCache::validate_entry(&tmp.0.join("absent.json")) {
            Err(OrchestratorError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn exclusive_lock_times_out_typed() {
        let tmp = TempDir::new("locktimeout");
        let spec = small_grid().specs().remove(0);
        let orch = Orchestrator::new().with_cache_dir(&tmp.0).unwrap();
        let cache = orch.cache().unwrap();
        let held = cache.exclusive(&spec, &LockOptions::default()).unwrap();
        let short = LockOptions {
            wait: Duration::from_millis(20),
            ..LockOptions::default()
        };
        match cache.exclusive(&spec, &short) {
            Err(OrchestratorError::LockTimeout { path, .. }) => {
                assert_eq!(path, cache.lock_path(&spec))
            }
            other => panic!("expected LockTimeout, got {other:?}"),
        }
        held.release().unwrap();
    }

    #[test]
    fn held_entry_lock_does_not_block_correctness() {
        // A wedged (but fresh) lock from another process: the orchestrator
        // waits out its bounded patience, then samples anyway.
        let tmp = TempDir::new("lockfallback");
        let spec = small_grid().specs().remove(0);
        let orch = Orchestrator::new()
            .with_point_threads(1)
            .with_lock_options(LockOptions {
                wait: Duration::from_millis(30),
                ..LockOptions::default()
            })
            .with_cache_dir(&tmp.0)
            .unwrap();
        let cache = orch.cache().unwrap().clone();
        let _wedge = FileLock::acquire(cache.lock_path(&spec), &LockOptions::default()).unwrap();
        let report = orch.run_specs(std::slice::from_ref(&spec)).unwrap();
        assert_eq!(report.fresh_points, 1, "lock fallback sampled");
        assert_eq!(
            report.records[0].to_json(),
            engine::run(&spec).to_json(),
            "fallback record is the deterministic one"
        );
    }
}
