//! The `raa-sweepd` service core: a shared worker pool serving sweep /
//! calibrate / warm-cache-query jobs over the JSON-lines codec of
//! [`crate::jobs`], built to degrade gracefully instead of crashing.
//!
//! [`SweepService`] owns the pool and a cached [`Orchestrator`]; jobs
//! fan their grid points into one shared queue, so many concurrent
//! clients share the machine fairly instead of each spawning its own
//! pool. Every fault class is contained:
//!
//! - a **panicking point** is caught per point ([`Orchestrator::run_point`]
//!   runs the engine under `catch_unwind`), reported in the job's
//!   `poisoned` list, and entered into a quarantine keyed by the spec's
//!   content-addressed cache key — the same pathological point is refused
//!   on sight in later jobs, and the daemon never dies;
//! - a **slow or stuck job** hits the per-job timeout: the client gets a
//!   clean error, the job is abandoned, and its still-queued points are
//!   shed instead of burning the pool;
//! - a **draining daemon** (SIGTERM or a wire `shutdown` request) lets
//!   in-flight points finish and persist, sheds everything still queued,
//!   and answers new jobs with a clean `shed` response;
//! - a **vanished client** (killed connection) costs nothing: the work
//!   keeps running to completion and persists in the cache, so the retry
//!   is a warm hit;
//! - a **panic while a lock is held** cannot cascade: every Mutex/Condvar
//!   acquisition here is poison-tolerant
//!   (`unwrap_or_else(PoisonError::into_inner)`) — the per-point
//!   `catch_unwind` containment keeps the protected state consistent at
//!   panic boundaries, so poisoning carries no extra information and must
//!   not take the daemon down with a second panic.
//!
//! [`serve`] runs the TCP front end (one JSON line in, one out, per-
//! connection reader threads); [`ServiceClient`] is the matching client
//! used by `raa-cal --` and the load generator.

use crate::calibrate::{fit_calibration, CalibrationConfig};
use crate::error::PoisonedPoint;
use crate::jobs::{QuarantinedPoint, Request, Response, ServiceStatus};
use crate::orchestrator::{
    spec_cache_key, CacheLookup, Orchestrator, PointOutcome, ScrubOptions, ScrubReport,
};
use crate::record::ExperimentRecord;
use crate::spec::ExperimentSpec;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How the poll loops sleep between checks (accept loop, drain waits).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Read timeout on connection sockets, so reader threads notice a drain
/// instead of blocking in `read` forever.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Longest request line a connection may send, newline included: 1 MiB,
/// roughly 2,500 wire specs — far above any sweep the repo's clients
/// send. A longer line is answered with an error and the connection is
/// closed, so a client that never sends a newline cannot grow the read
/// buffer without bound.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Everything a [`SweepService`] is configured by.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Content-addressed record cache; `None` serves every job fresh
    /// (warm queries then always miss).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads in the shared point pool; `0` uses all cores.
    pub workers: usize,
    /// Per-job wall-clock budget: a job not finished by then fails with a
    /// clean error and its queued points are shed. A calibration is one
    /// job — its two grids share one point queue — so this bounds the
    /// whole calibration.
    pub job_timeout: Duration,
    /// Knobs of cache scrub passes (wire `scrub` requests and the
    /// periodic pass alike).
    pub scrub: ScrubOptions,
    /// Run a background scrub pass this often; `None` scrubs only on
    /// request.
    pub scrub_interval: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache_dir: None,
            workers: 0,
            job_timeout: Duration::from_secs(300),
            scrub: ScrubOptions::default(),
            scrub_interval: None,
        }
    }
}

/// The outcome of one grid point of a job.
#[derive(Debug, Clone)]
pub enum PointResult {
    /// The point produced (or replayed) its record.
    Record {
        /// The record.
        record: ExperimentRecord,
        /// Whether it was freshly sampled (vs replayed from the cache).
        fresh: bool,
        /// Whether a corrupt cache entry was found and overwritten.
        replaced_corrupt: bool,
    },
    /// The point's engine run panicked (now, or in an earlier job — the
    /// quarantine refuses known-poisonous points on sight).
    Poisoned {
        /// The spec's record name.
        name: String,
        /// The spec's content-addressed cache key.
        key: String,
        /// The panic message.
        message: String,
    },
    /// The point failed with a typed orchestrator error (cache I/O past
    /// the retry budget).
    Failed {
        /// The error text.
        message: String,
    },
    /// The point never ran: its job was abandoned (timeout) or the daemon
    /// drained while it was still queued.
    Shed,
}

struct JobProgress {
    results: Vec<Option<PointResult>>,
    remaining: usize,
}

/// Shared completion state of one submitted job.
struct JobState {
    progress: Mutex<JobProgress>,
    done: Condvar,
    abandoned: AtomicBool,
}

impl JobState {
    fn complete(&self, index: usize, result: PointResult) -> bool {
        let mut progress = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(progress.results[index].is_none(), "point completed twice");
        progress.results[index] = Some(result);
        progress.remaining -= 1;
        let done = progress.remaining == 0;
        if done {
            self.done.notify_all();
        }
        done
    }
}

/// A handle on a submitted job: wait for its per-point results.
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// Blocks until every point completed, or until `timeout`: then the
    /// job is marked abandoned — its still-queued points are shed by the
    /// workers — and `None` is returned.
    pub fn wait(&self, timeout: Duration) -> Option<Vec<PointResult>> {
        let deadline = Instant::now() + timeout;
        let mut progress = self
            .state
            .progress
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while progress.remaining > 0 {
            let now = Instant::now();
            if now >= deadline {
                self.state.abandoned.store(true, Ordering::Relaxed);
                return None;
            }
            progress = self
                .state
                .done
                .wait_timeout(progress, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Some(
            progress
                .results
                .iter()
                // raa-audit: allow(panic-path): remaining == 0 means every slot was filled by complete(); a violated invariant is a bug worth failing this waiter loudly, and it can only panic the requesting connection thread, never a pool worker.
                .map(|slot| slot.clone().expect("remaining == 0"))
                .collect(),
        )
    }
}

struct Task {
    job: Arc<JobState>,
    index: usize,
    spec: ExperimentSpec,
}

#[derive(Default)]
struct Counters {
    jobs_completed: AtomicU64,
    points_completed: AtomicU64,
    cache_hits: AtomicU64,
    fresh_points: AtomicU64,
    fresh_shots: AtomicU64,
    corrupt_replaced: AtomicU64,
    shed_points: AtomicU64,
}

struct Inner {
    orch: Orchestrator,
    workers: usize,
    job_timeout: Duration,
    scrub_opts: ScrubOptions,
    scrub_every: Option<Duration>,
    queue: Mutex<VecDeque<Task>>,
    queue_cv: Condvar,
    /// Workers exit once set and the queue is empty.
    stop: AtomicBool,
    /// New jobs are shed once set; queued points were shed at drain time.
    draining: AtomicBool,
    /// Poisoned-point quarantine: cache key → (name, panic message).
    quarantine: Mutex<BTreeMap<String, (String, String)>>,
    counters: Counters,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Inner {
    fn run_task(&self, task: Task) {
        if task.job.abandoned.load(Ordering::Relaxed) {
            self.counters.shed_points.fetch_add(1, Ordering::Relaxed);
            self.finish_point(&task, PointResult::Shed);
            return;
        }
        let key = spec_cache_key(&task.spec);
        let quarantined = self
            .quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        let result = if let Some((name, message)) = quarantined {
            PointResult::Poisoned {
                name,
                key,
                message: format!("refused: quarantined after earlier panic: {message}"),
            }
        } else {
            match self.orch.run_point(task.index, &task.spec, true) {
                Ok(PointOutcome::Cached(record)) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    PointResult::Record {
                        record,
                        fresh: false,
                        replaced_corrupt: false,
                    }
                }
                Ok(PointOutcome::Fresh {
                    record,
                    replaced_corrupt,
                }) => {
                    self.counters.fresh_points.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .fresh_shots
                        .fetch_add(record.shots as u64, Ordering::Relaxed);
                    if replaced_corrupt {
                        self.counters
                            .corrupt_replaced
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    PointResult::Record {
                        record,
                        fresh: true,
                        replaced_corrupt,
                    }
                }
                Ok(PointOutcome::Poisoned(p)) => {
                    self.quarantine
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(p.key.clone(), (p.name.clone(), p.message.clone()));
                    PointResult::Poisoned {
                        name: p.name,
                        key: p.key,
                        message: p.message,
                    }
                }
                Err(e) => PointResult::Failed {
                    message: e.to_string(),
                },
            }
        };
        self.finish_point(&task, result);
    }

    fn finish_point(&self, task: &Task, result: PointResult) {
        self.counters
            .points_completed
            .fetch_add(1, Ordering::Relaxed);
        if task.job.complete(task.index, result) {
            self.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The daemon core: a shared worker pool + cached orchestrator +
/// quarantine, independent of any transport. Clones share the same
/// service.
#[derive(Clone)]
pub struct SweepService {
    inner: Arc<Inner>,
}

impl SweepService {
    /// Starts the worker pool.
    ///
    /// # Errors
    ///
    /// Only opening the cache directory can fail.
    pub fn start(config: ServiceConfig) -> io::Result<SweepService> {
        let workers = if config.workers == 0 {
            thread::available_parallelism().map_or(4, usize::from)
        } else {
            config.workers
        };
        // Each worker runs whole points single-threaded (determinism makes
        // that free); panic isolation is per point via run_point.
        let mut orch = Orchestrator::new()
            .with_point_threads(1)
            .with_panic_isolation(true);
        if let Some(dir) = &config.cache_dir {
            orch = orch.with_cache_dir(dir)?;
        }
        let inner = Arc::new(Inner {
            orch,
            workers,
            job_timeout: config.job_timeout,
            scrub_opts: config.scrub,
            scrub_every: config.scrub_interval,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            quarantine: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker = Arc::clone(&inner);
            let handle = thread::Builder::new()
                .name(format!("raa-sweepd-worker-{i}"))
                .spawn(move || loop {
                    let task = {
                        let mut queue = worker.queue.lock().unwrap_or_else(PoisonError::into_inner);
                        loop {
                            if let Some(task) = queue.pop_front() {
                                break Some(task);
                            }
                            if worker.stop.load(Ordering::Relaxed) {
                                break None;
                            }
                            queue = worker
                                .queue_cv
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    match task {
                        Some(task) => worker.run_task(task),
                        None => return,
                    }
                })?;
            handles.push(handle);
        }
        *inner.handles.lock().unwrap_or_else(PoisonError::into_inner) = handles;
        Ok(SweepService { inner })
    }

    /// Whether the service is draining (new jobs are shed).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Relaxed)
    }

    /// Enters drain mode: new jobs are refused, every still-queued point
    /// is shed with a clean result, in-flight points finish (and persist).
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::Relaxed);
        let shed: Vec<Task> = {
            let mut queue = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for task in shed {
            self.inner
                .counters
                .shed_points
                .fetch_add(1, Ordering::Relaxed);
            self.inner.finish_point(&task, PointResult::Shed);
        }
        self.inner.queue_cv.notify_all();
    }

    /// Drains, stops the workers once the queue is empty, and joins them —
    /// every in-flight point has finished and persisted when this returns.
    pub fn shutdown(&self) {
        self.drain();
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.queue_cv.notify_all();
        let handles: Vec<_> = self
            .inner
            .handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Submits one job of grid points onto the shared pool; `None` when
    /// the service is draining (the caller answers `shed`).
    pub fn submit(&self, specs: Vec<ExperimentSpec>) -> Option<JobHandle> {
        let n = specs.len();
        let state = Arc::new(JobState {
            progress: Mutex::new(JobProgress {
                results: vec![None; n],
                remaining: n,
            }),
            done: Condvar::new(),
            abandoned: AtomicBool::new(false),
        });
        {
            // Checked under the queue lock so a concurrent drain either
            // sees these tasks (and sheds them) or we see the flag.
            let mut queue = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if self.is_draining() {
                return None;
            }
            for (index, spec) in specs.into_iter().enumerate() {
                queue.push_back(Task {
                    job: Arc::clone(&state),
                    index,
                    spec,
                });
            }
        }
        self.inner.queue_cv.notify_all();
        Some(JobHandle { state })
    }

    /// One cache scrub pass with the service's configured options.
    ///
    /// # Errors
    ///
    /// An error string when no cache is attached or the cache directory
    /// cannot be scanned.
    pub fn scrub_pass(&self) -> Result<ScrubReport, String> {
        let cache = self
            .inner
            .orch
            .cache()
            .ok_or("no cache attached: nothing to scrub")?;
        cache
            .scrub(&self.inner.scrub_opts)
            .map_err(|e| e.to_string())
    }

    /// The current health/counters snapshot.
    pub fn status(&self) -> ServiceStatus {
        let c = &self.inner.counters;
        ServiceStatus {
            draining: self.is_draining(),
            workers: self.inner.workers,
            jobs_completed: c.jobs_completed.load(Ordering::Relaxed),
            points_completed: c.points_completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            fresh_points: c.fresh_points.load(Ordering::Relaxed),
            fresh_shots: c.fresh_shots.load(Ordering::Relaxed),
            corrupt_replaced: c.corrupt_replaced.load(Ordering::Relaxed),
            shed_points: c.shed_points.load(Ordering::Relaxed),
            quarantined: self
                .inner
                .quarantine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(key, (name, message))| QuarantinedPoint {
                    key: key.clone(),
                    name: name.clone(),
                    message: message.clone(),
                })
                .collect(),
        }
    }

    /// Serves one request to completion — the single dispatch point shared
    /// by the TCP front end and in-process callers. Never panics; every
    /// failure is a typed `error`/`shed` response.
    pub fn handle(&self, request: Request) -> Response {
        match request {
            Request::Sweep { id, specs } => self.handle_sweep(id, specs),
            Request::Query { id, specs } => self.handle_query(id, &specs),
            Request::Calibrate { id, config } => self.handle_calibrate(id, config),
            Request::Status { id } => Response::Status {
                id,
                status: self.status(),
            },
            Request::Scrub { id } => match self.scrub_pass() {
                Ok(report) => Response::Scrub { id, report },
                Err(message) => Response::Error { id, message },
            },
            Request::Shutdown { id } => {
                self.drain();
                Response::Draining { id }
            }
        }
    }

    fn handle_sweep(&self, id: String, specs: Vec<ExperimentSpec>) -> Response {
        let Some(job) = self.submit(specs) else {
            return Response::Shed {
                id,
                message: "daemon draining: job not accepted".into(),
            };
        };
        let Some(results) = job.wait(self.inner.job_timeout) else {
            return Response::Error {
                id,
                message: format!(
                    "job exceeded its {:?} timeout; queued points shed",
                    self.inner.job_timeout
                ),
            };
        };
        let mut fresh_points = 0usize;
        let mut cached_points = 0usize;
        let mut fresh_shots = 0usize;
        let mut corrupt_replaced = 0usize;
        let mut poisoned = Vec::new();
        let mut records = Vec::with_capacity(results.len());
        let mut failure = None;
        for (index, result) in results.into_iter().enumerate() {
            match result {
                PointResult::Record {
                    record,
                    fresh,
                    replaced_corrupt,
                } => {
                    if fresh {
                        fresh_points += 1;
                        fresh_shots += record.shots;
                        corrupt_replaced += usize::from(replaced_corrupt);
                    } else {
                        cached_points += 1;
                    }
                    records.push(Some(record));
                }
                PointResult::Poisoned { name, key, message } => {
                    poisoned.push(PoisonedPoint {
                        index,
                        name,
                        key,
                        message,
                    });
                    records.push(None);
                }
                PointResult::Failed { message } => {
                    failure.get_or_insert(format!("point #{index}: {message}"));
                    records.push(None);
                }
                PointResult::Shed => records.push(None),
            }
        }
        match failure {
            // A typed failure (I/O past the retry budget) fails the job as
            // a whole; poisoned/shed points do not.
            Some(message) => Response::Error { id, message },
            None => Response::Sweep {
                id,
                fresh_points,
                cached_points,
                fresh_shots,
                corrupt_replaced,
                poisoned,
                records,
            },
        }
    }

    /// Warm-cache queries never sample and never queue: they are answered
    /// inline from the cache (misses stay `null`).
    fn handle_query(&self, id: String, specs: &[ExperimentSpec]) -> Response {
        let mut hits = 0;
        let mut misses = 0;
        let records = specs
            .iter()
            .map(|spec| {
                match self
                    .inner
                    .orch
                    .cache()
                    .map_or(CacheLookup::Miss, |cache| cache.lookup(spec))
                {
                    CacheLookup::Hit(record) => {
                        hits += 1;
                        self.inner
                            .counters
                            .cache_hits
                            .fetch_add(1, Ordering::Relaxed);
                        Some(record)
                    }
                    CacheLookup::Miss | CacheLookup::Corrupt(_) => {
                        misses += 1;
                        None
                    }
                }
            })
            .collect();
        Response::Query {
            id,
            hits,
            misses,
            records,
        }
    }

    fn handle_calibrate(&self, id: String, config: CalibrationConfig) -> Response {
        let (specs, memory_points) = match config.specs() {
            Ok(list) => list,
            Err(e) => {
                return Response::Error {
                    id,
                    message: e.to_string(),
                }
            }
        };
        let Some(job) = self.submit(specs) else {
            return Response::Shed {
                id,
                message: "daemon draining: job not accepted".into(),
            };
        };
        let Some(results) = job.wait(self.inner.job_timeout) else {
            return Response::Error {
                id,
                message: format!(
                    "calibration exceeded its {:?} timeout",
                    self.inner.job_timeout
                ),
            };
        };
        let mut records = Vec::with_capacity(results.len());
        let (mut fresh_points, mut cached_points, mut fresh_shots) = (0, 0, 0);
        for (index, result) in results.into_iter().enumerate() {
            let message = match result {
                PointResult::Record { record, fresh, .. } => {
                    if fresh {
                        fresh_points += 1;
                        fresh_shots += record.shots;
                    } else {
                        cached_points += 1;
                    }
                    records.push(record);
                    continue;
                }
                // A calibration cannot tolerate holes: the fit needs every
                // grid point.
                PointResult::Poisoned { name, message, .. } => {
                    format!("calibration point {name:?} poisoned: {message}")
                }
                PointResult::Failed { message } => {
                    format!("calibration point #{index} failed: {message}")
                }
                PointResult::Shed => {
                    return Response::Shed {
                        id,
                        message: "daemon drained mid-calibration".into(),
                    }
                }
            };
            return Response::Error { id, message };
        }
        let cnot_records = records.split_off(memory_points);
        match fit_calibration(
            &config,
            records,
            cnot_records,
            fresh_points,
            cached_points,
            fresh_shots,
        ) {
            Ok(calibration) => Response::Calibrate { id, calibration },
            Err(e) => Response::Error {
                id,
                message: e.to_string(),
            },
        }
    }
}

/// Runs the TCP front end until `shutdown` is raised (SIGTERM handler) or
/// a wire `shutdown` request drains the service: accepts connections,
/// spawns one reader thread per connection, then drains — in-flight
/// points finish and persist before this returns.
///
/// # Errors
///
/// Only listener configuration errors; per-connection failures are
/// contained in their threads.
pub fn serve(
    listener: TcpListener,
    service: &SweepService,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut connections = Vec::new();
    let mut last_scrub = Instant::now();
    loop {
        if shutdown.load(Ordering::Relaxed) && !service.is_draining() {
            service.drain();
        }
        if service.is_draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_service = service.clone();
                connections.push(thread::spawn(move || {
                    handle_connection(stream, conn_service)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if let Some(interval) = service.inner.scrub_every {
            if last_scrub.elapsed() >= interval {
                let _ = service.scrub_pass();
                last_scrub = Instant::now();
            }
        }
    }
    // Graceful drain: wait for the reader threads (they exit on their read
    // timeout once draining), then stop the workers (joining them implies
    // every in-flight point finished and persisted).
    for connection in connections {
        let _ = connection.join();
    }
    service.shutdown();
    Ok(())
}

fn handle_connection(stream: TcpStream, service: SweepService) {
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        // Read at most one byte past the cap: enough to tell an oversized
        // line without buffering the rest of it.
        let room = (MAX_REQUEST_LINE + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_line(&mut line) {
            Ok(0) => return, // peer closed
            Ok(_) => {
                let oversized = line.len() > MAX_REQUEST_LINE;
                let response = if oversized {
                    Response::Error {
                        id: String::new(),
                        message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    }
                } else if line.trim().is_empty() {
                    line.clear();
                    continue;
                } else {
                    match Request::from_line(&line) {
                        Ok(request) => service.handle(request),
                        // A malformed line answers with an error and keeps
                        // the connection: one bad request must not cost the
                        // client its session.
                        Err(e) => Response::Error {
                            id: String::new(),
                            message: format!("malformed request: {e}"),
                        },
                    }
                };
                line.clear();
                let mut out = response.to_line();
                out.push('\n');
                if writer
                    .write_all(out.as_bytes())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    // The client vanished mid-job (the killed-connection
                    // fault): the results are already persisted in the
                    // cache, so the retry will be a warm hit. Just hang up.
                    return;
                }
                if oversized {
                    // The rest of the line is still unread: hang up rather
                    // than guess where the next request starts.
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: `line` keeps any partial bytes already
                // read; a drain ends the session.
                if service.is_draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// A blocking JSON-lines client of `raa-sweepd`, one request/response at a
/// time over one TCP connection.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServiceClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection establishment only.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            next_id: 0,
        })
    }

    fn fresh_id(&mut self, kind: &str) -> String {
        self.next_id += 1;
        format!("{kind}-{}-{}", std::process::id(), self.next_id)
    }

    /// Sends one request and blocks for its response line.
    ///
    /// # Errors
    ///
    /// Transport failures, or `InvalidData` when the response line does
    /// not decode.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response_line = String::new();
        if self.reader.read_line(&mut response_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Response::from_line(&response_line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Runs a sweep job (cache-first, sampling misses).
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn sweep(&mut self, specs: &[ExperimentSpec]) -> io::Result<Response> {
        let id = self.fresh_id("sweep");
        self.request(&Request::Sweep {
            id,
            specs: specs.to_vec(),
        })
    }

    /// Runs a warm-cache query (never samples).
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn query(&mut self, specs: &[ExperimentSpec]) -> io::Result<Response> {
        let id = self.fresh_id("query");
        self.request(&Request::Query {
            id,
            specs: specs.to_vec(),
        })
    }

    /// Runs the full calibration chain on the daemon.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn calibrate(&mut self, config: &CalibrationConfig) -> io::Result<Response> {
        let id = self.fresh_id("cal");
        self.request(&Request::Calibrate {
            id,
            config: config.clone(),
        })
    }

    /// Fetches the daemon's health/counters snapshot.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn status(&mut self) -> io::Result<Response> {
        let id = self.fresh_id("status");
        self.request(&Request::Status { id })
    }

    /// Triggers one cache scrub pass.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn scrub(&mut self) -> io::Result<Response> {
        let id = self.fresh_id("scrub");
        self.request(&Request::Scrub { id })
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        let id = self.fresh_id("shutdown");
        self.request(&Request::Shutdown { id })
    }
}
