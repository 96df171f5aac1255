//! The three workloads, each in an untimed-checks / timed-window form
//! (`--trace 0`) and a traced-replay form (`--trace 1`).

use crate::gen::{self, CAL_SHOTS, WARM_CHUNK_SHOTS};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::stages::{batch_reference, compile, decode, decode_with};
use crate::steal::{process_cpu_s, Steal, StealClock};
use crate::trace::Tracer;
use raa::shor::TransversalArchitecture;
use raa::sim::jobs::{Request, Response};
use raa::sim::service::serve;
use raa::sim::{
    calibrate, fit_calibration, run, CacheLookup, Calibration, CalibrationConfig, ExperimentRecord,
    ExperimentSpec, ServiceClient, ServiceConfig, ShotBudget, SweepCache, SweepService,
};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Warm ops after each cold calibration; each op is a batch of
/// `CAL_WARM_BATCH` back-to-back warm replays (one replay takes about a
/// millisecond, the length of a hypervisor time slice, so single replays
/// time the host rather than the program).
const CAL_WARM_PER_CYCLE: usize = 100;
const CAL_WARM_BATCH: u32 = 10;
/// Warm streamed chunks after each cold deep-stream pair.
const DEEP_WARM_PER_CYCLE: u64 = 100;
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 9;
/// Connections (and service workers) of the `sweepd` closed loop.
const SWEEPD_CLIENTS: u64 = 2;

/// What a run knows about its invocation.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    /// Scratch directory of this run (record caches); removed at the end.
    pub scratch: PathBuf,
}

impl Ctx {
    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// One timed operation (or a batch of `reps` identical back-to-back
/// operations, timed together and reported per operation).
struct Op {
    /// Start and completion time, in seconds since the run's origin.
    start_s: f64,
    end_s: f64,
    /// The cold-op kind, or `None` for a warm op.
    cold: Option<usize>,
    shots: usize,
    reps: u32,
}

impl Op {
    fn since(origin: Instant, started: Instant, cold: Option<usize>, shots: usize) -> Op {
        Op {
            start_s: started.duration_since(origin).as_secs_f64(),
            end_s: origin.elapsed().as_secs_f64(),
            cold,
            shots,
            reps: 1,
        }
    }

    /// The share of this op's run time that falls in `[from, to]`: rates
    /// credit each op's work evenly over the time it ran.
    fn share_in(&self, from: f64, to: f64) -> f64 {
        let overlap = self.end_s.min(to) - self.start_s.max(from);
        if self.end_s > self.start_s {
            overlap.max(0.0) / (self.end_s - self.start_s)
        } else {
            f64::from(u8::from(self.end_s > from && self.end_s <= to))
        }
    }
}

/// Warm ops per block of the `warm_p90_ms` estimate: ten lie beyond the
/// 90th percentile of each block.
const P90_BLOCK: usize = 100;

/// Compiles `specs` (circuit build → DEM → decomposition → decoder and
/// sampler compile), the work every cold point pays before its first shot,
/// `reps` times; returns each repetition's interval (seconds since
/// `origin`). `setup_s` is their steal-adjusted median.
fn measure_setup(origin: Instant, specs: &[ExperimentSpec], reps: usize) -> Vec<(f64, f64)> {
    (0..reps)
        .map(|_| {
            let from = origin.elapsed().as_secs_f64();
            for spec in specs {
                black_box(compile(spec, None, None));
            }
            (from, origin.elapsed().as_secs_f64())
        })
        .collect()
}

/// Runs whole cycles until one more (at the average cycle time) would
/// overrun the budget; returns each cycle's end, in seconds since
/// `origin`.
fn run_cycles(origin: Instant, budget: Duration, mut cycle: impl FnMut(u64)) -> Vec<f64> {
    let (start, mut ends) = (Instant::now(), Vec::new());
    loop {
        cycle(ends.len() as u64);
        ends.push(origin.elapsed().as_secs_f64());
        let elapsed = start.elapsed();
        if elapsed + elapsed / ends.len() as u32 > budget {
            return ends;
        }
    }
}

/// The geometric mean over cold-op kinds of each kind's median latency:
/// unlike the median of the pooled mix, it does not jump between the
/// kinds' latency clusters.
fn cold_ms(cold: &[(usize, f64)]) -> f64 {
    let kinds: std::collections::BTreeSet<usize> = cold.iter().map(|&(k, _)| k).collect();
    let log_sum: f64 = kinds
        .iter()
        .map(|&kind| {
            let times: Vec<f64> = cold.iter().filter(|c| c.0 == kind).map(|c| c.1).collect();
            median(&times).ln()
        })
        .sum();
    (log_sum / kinds.len().max(1) as f64).exp()
}

/// Sets the end-to-end metrics of a run: its set-up repetitions, and a
/// timed window from `window_start` whose blocks (cycles, or one-second
/// slices) end at `block_ends`. Every time is steal-adjusted; rates and
/// the warm tail are medians over blocks, so a burst of load from outside
/// the process moves them less than a whole-window mean would.
fn finish(
    rep: &mut Report,
    steal: &Steal,
    setup: &[(f64, f64)],
    mut ops: Vec<Op>,
    window_start: f64,
    block_ends: &[f64],
    window_cpu_s: f64,
) {
    let total_shots: usize = ops.iter().map(|op| op.shots).sum();
    rep.set(
        "cpu_us_per_shot",
        window_cpu_s * 1e6 / total_shots.max(1) as f64,
    );
    ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let ms = |op: &Op| steal.adjusted(op.start_s, op.end_s) * 1e3 / f64::from(op.reps);
    let warm: Vec<f64> = ops.iter().filter(|op| op.cold.is_none()).map(ms).collect();
    let cold: Vec<(usize, f64)> = ops
        .iter()
        .filter_map(|op| Some((op.cold?, ms(op))))
        .collect();
    let warm_p90: Vec<f64> = if warm.len() < P90_BLOCK {
        vec![quantile(&warm, 0.9)]
    } else {
        warm.chunks_exact(P90_BLOCK)
            .map(|b| quantile(b, 0.9))
            .collect()
    };
    let (mut shot_rates, mut op_rates, mut from) = (Vec::new(), Vec::new(), window_start);
    for &to in block_ends {
        let (mut n, mut shots) = (0.0, 0.0);
        for op in &ops {
            let share = op.share_in(from, to);
            n += share * f64::from(op.reps);
            shots += share * op.shots as f64;
        }
        let secs = steal.adjusted(from, to);
        shot_rates.push(shots / secs);
        op_rates.push(n / secs);
        from = to;
    }
    let setup_s: Vec<f64> = setup.iter().map(|&(a, b)| steal.adjusted(a, b)).collect();
    rep.set("setup_s", median(&setup_s));
    rep.set("cold_ms", cold_ms(&cold));
    rep.set("warm_p50_ms", median(&warm));
    rep.set("warm_p90_ms", median(&warm_p90));
    rep.set("shots_per_s", median(&shot_rates));
    rep.set("ops_per_s", median(&op_rates));
    rep.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "window {:.2} s in {} blocks: {} cold ops, {} warm ops; {:.1}% of the CPUs stolen",
        from - window_start,
        block_ends.len(),
        cold.len(),
        warm.len(),
        100.0 * steal.share(window_start, from)
    );
}

fn records_json(cal: &Calibration) -> Vec<String> {
    cal.memory_records
        .iter()
        .chain(&cal.cnot_records)
        .map(ExperimentRecord::to_json)
        .collect()
}

/// The output checks of one calibration: the estimate it leads to and, for
/// a warm replay, that it sampled nothing and matches the cold records.
fn calibration_problems(
    cal: &Calibration,
    cold: Option<&[String]>,
    estimate: &raa::shor::ResourceEstimate,
) -> Vec<String> {
    let mut problems = Vec::new();
    match cold {
        None if cal.fresh_shots != CAL_SHOTS => problems.push(format!(
            "cold run sampled {} shots, not {CAL_SHOTS}",
            cal.fresh_shots
        )),
        Some(_) if cal.fresh_shots != 0 => {
            problems.push(format!("warm replay sampled {} shots", cal.fresh_shots))
        }
        Some(cold) if records_json(cal) != cold => {
            problems.push("warm records differ from the cold records".into())
        }
        _ => {}
    }
    if cal.fit.lambda <= 1.0 {
        problems.push(format!("Lambda = {} <= 1", cal.fit.lambda));
    }
    if estimate.qubits >= 25e6 || estimate.expected_days() >= 7.0 {
        problems.push(format!(
            "estimate {} qubits / {} days is outside 25M / 7 days",
            estimate.qubits,
            estimate.expected_days()
        ));
    }
    problems
}

/// `calibrate`: cold `raa-cal` calibrations on fresh caches, each followed
/// by warm replays and the calibrated RSA-2048 estimate.
pub fn calibrate_workload(ctx: &Ctx, rep: &mut Report) {
    let calibrate_and_estimate = |cfg: &CalibrationConfig| {
        calibrate(cfg).map(|c| {
            let estimate = TransversalArchitecture::calibrated(c.params).1;
            (c, estimate)
        })
    };
    let clock = StealClock::start();
    let start = clock.origin;
    let setup = measure_setup(start, &gen::setup_specs("calibrate", ctx.seed), SETUP_REPS);
    let (window_start, cpu0, mut ops) =
        (start.elapsed().as_secs_f64(), process_cpu_s(), Vec::new());
    let cycle_ends = run_cycles(start, ctx.budget, |k| {
        let mut cfg = gen::calibration_config(ctx.seed, k);
        let dir = ctx.fresh_dir(&format!("cal-{k}"));
        cfg.cache_dir = Some(dir.clone());
        let t = Instant::now();
        let (cold, estimate) = match calibrate_and_estimate(&cfg) {
            Ok(out) => out,
            Err(e) => {
                ops.push(Op::since(start, t, Some(0), 0));
                rep.op("cold calibration", vec![e.to_string()]);
                return;
            }
        };
        ops.push(Op::since(start, t, Some(0), cold.fresh_shots));
        rep.op(
            "cold calibration",
            calibration_problems(&cold, None, &estimate),
        );
        let cold_json = records_json(&cold);
        // A replay samples nothing: a second point worker would only add a
        // thread start per grid, which on a virtual machine costs as much
        // as the replay and swings with the host's load.
        let warm_cfg = CalibrationConfig {
            point_threads: 1,
            ..cfg.clone()
        };
        for _ in 0..CAL_WARM_PER_CYCLE {
            let t = Instant::now();
            let warm: Vec<_> = (0..CAL_WARM_BATCH)
                .map(|_| calibrate_and_estimate(&warm_cfg))
                .collect();
            ops.push(Op {
                reps: CAL_WARM_BATCH,
                ..Op::since(start, t, None, 0)
            });
            for replay in warm {
                match replay {
                    Ok((c, e)) => rep.op(
                        "warm calibration",
                        calibration_problems(&c, Some(&cold_json), &e),
                    ),
                    Err(e) => rep.op("warm calibration", vec![e.to_string()]),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let cpu = process_cpu_s() - cpu0;
    finish(
        rep,
        &clock.stop(),
        &setup,
        ops,
        window_start,
        &cycle_ends,
        cpu,
    );
}

fn shots_of(spec: &ExperimentSpec) -> usize {
    match spec.shots {
        ShotBudget::Fixed(n) => n,
        ShotBudget::UntilFailures { max_shots, .. } => max_shots,
    }
}

fn record_problems(spec: &ExperimentSpec, record: &ExperimentRecord) -> Vec<String> {
    if record.shots == shots_of(spec) {
        Vec::new()
    } else {
        vec![format!(
            "{}: {} shots, budget {}",
            spec.name,
            record.shots,
            shots_of(spec)
        )]
    }
}

/// The small streamed point against the batch reference of the
/// time-sliced sampler: (shots, failures) must agree exactly.
fn deep_check(ctx: &Ctx, rep: &mut Report, tracer: Option<&Tracer>) {
    let spec = gen::deep_check_spec(ctx.seed);
    let streamed = run(&spec);
    let compiled = compile(&spec, tracer, None);
    let reference = batch_reference(&spec, &compiled, tracer, None);
    let problems = if (streamed.shots, streamed.failures) == (reference.shots, reference.failures) {
        Vec::new()
    } else {
        vec![format!(
            "streamed ({}, {}) != batch reference ({}, {})",
            streamed.shots, streamed.failures, reference.shots, reference.failures
        )]
    };
    rep.op("streamed vs batch reference", problems);
}

/// `deep_stream`: cold deep streamed points through the engine, then warm
/// fresh-seed chunks on the compiled memory point.
pub fn deep_stream_workload(ctx: &Ctx, rep: &mut Report) {
    let clock = StealClock::start();
    let start = clock.origin;
    let setup = measure_setup(
        start,
        &gen::setup_specs("deep_stream", ctx.seed),
        SETUP_REPS,
    );
    let (window_start, cpu0, mut ops) =
        (start.elapsed().as_secs_f64(), process_cpu_s(), Vec::new());
    let cycle_ends = run_cycles(start, ctx.budget, |k| {
        let specs = gen::deep_specs(ctx.seed, k);
        for (kind, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let record = run(spec);
            ops.push(Op::since(start, t, Some(kind), record.shots));
            rep.op("cold deep point", record_problems(spec, &record));
        }
        let compiled = compile(&specs[0], None, None);
        for i in 0..DEEP_WARM_PER_CYCLE {
            let seed = gen::warm_chunk_seed(ctx.seed, k, i);
            let t = Instant::now();
            let stats = decode_with(&specs[0], &compiled, WARM_CHUNK_SHOTS, seed, None, None);
            ops.push(Op::since(start, t, None, stats.shots));
            let problems = if stats.shots == WARM_CHUNK_SHOTS {
                Vec::new()
            } else {
                vec![format!("chunk decoded {} shots", stats.shots)]
            };
            rep.op("warm streamed chunk", problems);
        }
    });
    let cpu = process_cpu_s() - cpu0;
    finish(
        rep,
        &clock.stop(),
        &setup,
        ops,
        window_start,
        &cycle_ends,
        cpu,
    );
    deep_check(ctx, rep, None);
}

/// An in-process `raa-sweepd` on loopback with a fresh cache.
struct Daemon {
    addr: SocketAddr,
    service: SweepService,
    stop: Arc<AtomicBool>,
    serving: thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(cache_dir: PathBuf) -> std::io::Result<Self> {
        let service = SweepService::start(ServiceConfig {
            cache_dir: Some(cache_dir),
            workers: SWEEPD_CLIENTS as usize,
            job_timeout: Duration::from_secs(120),
            ..ServiceConfig::default()
        })?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (s, f) = (service.clone(), Arc::clone(&stop));
        let serving = thread::spawn(move || serve(listener, &s, &f));
        Ok(Self {
            addr,
            service,
            stop,
            serving,
        })
    }

    /// Drains the service and joins the front end (and so every worker);
    /// a front end that failed or panicked is a failed check.
    fn stop(self, rep: &mut Report) {
        self.stop.store(true, Ordering::SeqCst);
        let problems = match self.serving.join() {
            Ok(Ok(())) => Vec::new(),
            Ok(Err(e)) => vec![format!("front end failed: {e}")],
            Err(_) => vec!["front end panicked".into()],
        };
        rep.op("daemon stop", problems);
    }
}

/// One client's side of the closed loop: alternating cold sweeps of fresh
/// points and warm queries of points it swept earlier.
#[derive(Default)]
struct ClientLog {
    swept: Vec<(ExperimentSpec, String)>,
    ops: Vec<Op>,
    problems: Vec<Vec<String>>,
}

fn sweep_record(response: std::io::Result<Response>) -> Result<ExperimentRecord, String> {
    match response {
        Ok(Response::Sweep {
            fresh_points: 1,
            mut records,
            ..
        }) if records.len() == 1 => records.remove(0).ok_or_else(|| "no record".into()),
        Ok(other) => Err(format!("unexpected sweep response: {}", other.to_line())),
        Err(e) => Err(format!("sweep request failed: {e}")),
    }
}

fn query_record(response: std::io::Result<Response>) -> Result<ExperimentRecord, String> {
    match response {
        Ok(Response::Query {
            hits: 1,
            mut records,
            ..
        }) if records.len() == 1 => records.remove(0).ok_or_else(|| "no record".into()),
        Ok(other) => Err(format!("unexpected query response: {}", other.to_line())),
        Err(e) => Err(format!("query request failed: {e}")),
    }
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    client: u64,
    start: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match ServiceClient::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            log.problems.push(vec![format!("connect: {e}")]);
            return log;
        }
    };
    let mut i = 0u64;
    while Instant::now() < deadline {
        if i.is_multiple_of(2) {
            let spec = gen::sweep_spec(seed, client, i / 2);
            let t = Instant::now();
            let response = conn.sweep(std::slice::from_ref(&spec));
            let kind = Some(gen::sweep_kind(client, i / 2));
            let mut op = Op::since(start, t, kind, 0);
            let swept = sweep_record(response);
            if let Ok(record) = &swept {
                op.shots = record.shots;
            }
            log.ops.push(op);
            match swept {
                Ok(record) => {
                    log.problems.push(record_problems(&spec, &record));
                    log.swept.push((spec, record.to_json()));
                }
                Err(e) => log.problems.push(vec![e]),
            }
        } else if !log.swept.is_empty() {
            let pick = gen::query_pick(seed, client, i / 2, log.swept.len());
            let (spec, json) = &log.swept[pick];
            let t = Instant::now();
            let response = conn.query(std::slice::from_ref(spec));
            log.ops.push(Op::since(start, t, None, 0));
            log.problems.push(match query_record(response) {
                Ok(record) if record.to_json() == *json => Vec::new(),
                Ok(_) => vec!["query record differs from the sweep record".into()],
                Err(e) => vec![e],
            });
        }
        i += 1;
    }
    log
}

/// Recomputes every swept spec with an in-process `engine::run` on
/// `threads` threads and returns the indices whose JSON differs.
fn mismatched(swept: &[(ExperimentSpec, String)], threads: usize) -> Vec<usize> {
    let bad = Mutex::new(Vec::new());
    thread::scope(|scope| {
        for t in 0..threads {
            let bad = &bad;
            scope.spawn(move || {
                for (i, (spec, json)) in swept.iter().enumerate().skip(t).step_by(threads) {
                    let mut spec = spec.clone();
                    spec.mc.threads = 1;
                    if run(&spec).to_json() != *json {
                        bad.lock().expect("a checker panicked").push(i);
                    }
                }
            });
        }
    });
    bad.into_inner().expect("a checker panicked")
}

/// `sweepd`: an in-process daemon driven in a closed loop by two client
/// connections, each alternating a cold sweep and a warm query.
pub fn sweepd_workload(ctx: &Ctx, rep: &mut Report) {
    let clock = StealClock::start();
    let start = clock.origin;
    let setup = measure_setup(start, &gen::setup_specs("sweepd", ctx.seed), SETUP_REPS);
    let daemon = match Daemon::start(ctx.fresh_dir("sweepd-cache")) {
        Ok(d) => d,
        Err(e) => {
            rep.op("daemon start", vec![e.to_string()]);
            return;
        }
    };
    let (window_start, cpu0) = (start.elapsed().as_secs_f64(), process_cpu_s());
    let deadline = Instant::now() + ctx.budget;
    let logs: Vec<ClientLog> = thread::scope(|scope| {
        let handles: Vec<_> = (0..SWEEPD_CLIENTS)
            .map(|c| scope.spawn(move || client_loop(daemon.addr, ctx.seed, c, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let (status, cpu) = (daemon.service.status(), process_cpu_s() - cpu0);
    daemon.stop(rep);
    let (mut ops, mut swept) = (Vec::new(), Vec::new());
    for log in logs {
        for problems in log.problems {
            rep.op("request", problems);
        }
        ops.extend(log.ops);
        swept.extend(log.swept);
    }
    // Blocks are whole one-second slices of the window.
    let window = ops.iter().map(|op| op.end_s).fold(window_start, f64::max) - window_start;
    let slices: Vec<f64> = (1..=window.floor() as u32)
        .map(|s| window_start + f64::from(s))
        .collect();
    if status.shed_points > 0 || !status.quarantined.is_empty() {
        rep.op(
            "daemon status",
            vec![format!(
                "{} shed points, {} quarantined",
                status.shed_points,
                status.quarantined.len()
            )],
        );
    }
    finish(rep, &clock.stop(), &setup, ops, window_start, &slices, cpu);
    for i in mismatched(&swept, SWEEPD_CLIENTS as usize) {
        rep.op(
            "engine reference",
            vec![format!("{} differs from engine::run", swept[i].0.name)],
        );
    }
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/// Replays `specs` stage by stage under spans and checks each against the
/// program's record; then times the untraced engine on the same specs.
fn traced_replay(
    specs: &[ExperimentSpec],
    records: &[ExperimentRecord],
    tracer: &Tracer,
    rep: &mut Report,
) {
    let clock = StealClock::start();
    let now = || clock.origin.elapsed().as_secs_f64();
    let traced_from = now();
    for (spec, record) in specs.iter().zip(records) {
        let (stats, arbitrary) = tracer.span("replay", None, |id| {
            let compiled = compile(spec, Some(tracer), Some(id));
            (
                decode(spec, &compiled, Some(tracer), Some(id)),
                compiled.arbitrary,
            )
        });
        tracer.count("decode.arbitrary_mechanisms", arbitrary as f64);
        let problems = if (stats.shots, stats.failures) == (record.shots, record.failures) {
            Vec::new()
        } else {
            vec![format!(
                "{}: replay ({}, {}) != engine ({}, {})",
                spec.name, stats.shots, stats.failures, record.shots, record.failures
            )]
        };
        rep.op("traced replay", problems);
    }
    let untraced_from = now();
    for spec in specs {
        black_box(run(spec));
    }
    let untraced_to = now();
    let steal = clock.stop();
    rep.set("trace.replay_s", steal.adjusted(traced_from, untraced_from));
    rep.set(
        "trace.untraced_s",
        steal.adjusted(untraced_from, untraced_to),
    );
}

/// Stores and reloads `records` through the record cache under spans.
fn traced_cache(
    dir: &Path,
    specs: &[ExperimentSpec],
    records: &[ExperimentRecord],
    tracer: &Tracer,
    rep: &mut Report,
) {
    let cache = match SweepCache::open(dir) {
        Ok(c) => c,
        Err(e) => {
            rep.op("cache open", vec![e.to_string()]);
            return;
        }
    };
    for (spec, record) in specs.iter().zip(records) {
        let stored = tracer.span("sim.cache_store", None, |_| cache.store(spec, record));
        let loaded = tracer.span("sim.cache_load", None, |_| cache.lookup(spec));
        let problems = match (stored, loaded) {
            (Ok(()), CacheLookup::Hit(r)) if r.to_json() == record.to_json() => Vec::new(),
            (Err(e), _) => vec![format!("store: {e}")],
            _ => vec!["cache lookup did not return the stored record".into()],
        };
        rep.op("cache round trip", problems);
    }
}

fn layer_metrics(tracer: &Tracer, rep: &mut Report) {
    for span in [
        "surface.build",
        "stabsim.dem_extract",
        "decode.decompose",
        "decode.compile_uf",
        "decode.compile_mwpm",
        "decode.compile_window",
        "stabsim.sampler_compile",
        "stabsim.stream_sampler_compile",
        "stabsim.sample",
        "decode.uf.predict",
        "decode.mwpm.predict",
        "decode.window.predict",
        "decode.mc.stream",
        "sim.cache_store",
        "sim.cache_load",
        "sim.jobs_encode",
        "sim.jobs_decode",
        "core.fit",
        "shor.estimate",
    ] {
        rep.set(&format!("{span}_s"), tracer.total_s(span));
    }
    rep.set("decode.mc.other_s", tracer.self_s("decode.mc"));
    for name in [
        "decode.arbitrary_mechanisms",
        "stabsim.shots_sampled",
        "decode.shots_decoded",
    ] {
        rep.set(name, tracer.counter(name));
    }
    let decoded = tracer.counter("decode.shots_decoded");
    rep.set(
        "decode.defects_per_shot",
        if decoded > 0.0 {
            tracer.counter("decode.defects") / decoded
        } else {
            0.0
        },
    );
    for name in [
        "sim.cache_hit_ratio",
        "sim.wire_bytes_per_req",
        "sim.service_overhead_s",
    ] {
        rep.metrics.entry(name.to_string()).or_insert(0.0);
    }
    let overhead = rep.metrics.get("trace.replay_s").copied().unwrap_or(0.0)
        - rep.metrics.get("trace.untraced_s").copied().unwrap_or(0.0);
    rep.set("trace.overhead_s", overhead);
}

/// Traced `calibrate`: one cold calibration, its points replayed stage by
/// stage, the cache round trip of its records, their fit and the estimate.
pub fn calibrate_traced(ctx: &Ctx, tracer: &Tracer, rep: &mut Report) {
    let mut cfg = gen::calibration_config(ctx.seed, 0);
    cfg.cache_dir = Some(ctx.fresh_dir("cal-traced"));
    let cold = match calibrate(&cfg) {
        Ok(c) => c,
        Err(e) => return rep.op("cold calibration", vec![e.to_string()]),
    };
    let specs = gen::calibration_specs(&cfg);
    let records: Vec<ExperimentRecord> = cold
        .memory_records
        .iter()
        .chain(&cold.cnot_records)
        .cloned()
        .collect();
    traced_replay(&specs, &records, tracer, rep);
    traced_cache(
        &ctx.fresh_dir("cal-cache-replay"),
        &specs,
        &records,
        tracer,
        rep,
    );
    rep.set("sim.cache_hit_ratio", 1.0);
    let fitted = tracer.span("core.fit", None, |_| {
        fit_calibration(
            &cfg,
            cold.memory_records.clone(),
            cold.cnot_records.clone(),
            0,
            specs.len(),
            0,
        )
    });
    match fitted {
        Ok(cal) => {
            let estimate = tracer.span("shor.estimate", None, |_| {
                TransversalArchitecture::calibrated(cal.params).1
            });
            let cold_json = records_json(&cold);
            rep.op(
                "calibration fit",
                calibration_problems(&cal, Some(&cold_json), &estimate),
            );
        }
        Err(e) => rep.op("calibration fit", vec![e.to_string()]),
    }
    layer_metrics(tracer, rep);
}

/// Traced `deep_stream`: both deep points replayed stage by stage, and the
/// small point's batch reference through the timing wrappers.
pub fn deep_stream_traced(ctx: &Ctx, tracer: &Tracer, rep: &mut Report) {
    let specs = gen::deep_specs(ctx.seed, 0);
    let records: Vec<ExperimentRecord> = specs.iter().map(run).collect();
    traced_replay(&specs, &records, tracer, rep);
    deep_check(ctx, rep, Some(tracer));
    layer_metrics(tracer, rep);
}

/// Traced `sweepd`: eight mixed points swept and queried through the
/// daemon one at a time, with the wire codec, cache round trip and stages
/// timed separately.
pub fn sweepd_traced(ctx: &Ctx, tracer: &Tracer, rep: &mut Report) {
    let specs: Vec<ExperimentSpec> = (0..4)
        .flat_map(|i| (0..SWEEPD_CLIENTS).map(move |c| gen::sweep_spec(ctx.seed, c, i)))
        .collect();
    let daemon = match Daemon::start(ctx.fresh_dir("sweepd-traced")) {
        Ok(d) => d,
        Err(e) => return rep.op("daemon start", vec![e.to_string()]),
    };
    let mut conn = match ServiceClient::connect(daemon.addr) {
        Ok(c) => c,
        Err(e) => {
            daemon.stop(rep);
            return rep.op("connect", vec![e.to_string()]);
        }
    };
    let (mut records, mut latency_s, mut wire_bytes, mut requests) =
        (vec![], vec![], 0usize, 0usize);
    for spec in &specs {
        let one = std::slice::from_ref(spec);
        let t = Instant::now();
        let swept = sweep_record(conn.sweep(one));
        latency_s.push(t.elapsed().as_secs_f64());
        let record = match swept {
            Ok(record) => record,
            Err(e) => {
                rep.op("sweep", vec![e]);
                continue;
            }
        };
        let queried = query_record(conn.query(one));
        rep.op(
            "sweep then query",
            match queried {
                Ok(q) if q.to_json() == record.to_json() => Vec::new(),
                Ok(_) => vec!["query record differs from the sweep record".into()],
                Err(e) => vec![e],
            },
        );
        let exchanges = [
            (
                Request::Sweep {
                    id: "sweep-1".into(),
                    specs: one.to_vec(),
                },
                Response::Sweep {
                    id: "sweep-1".into(),
                    fresh_points: 1,
                    cached_points: 0,
                    fresh_shots: record.shots,
                    corrupt_replaced: 0,
                    poisoned: Vec::new(),
                    records: vec![Some(record.clone())],
                },
            ),
            (
                Request::Query {
                    id: "query-1".into(),
                    specs: one.to_vec(),
                },
                Response::Query {
                    id: "query-1".into(),
                    hits: 1,
                    misses: 0,
                    records: vec![Some(record.clone())],
                },
            ),
        ];
        for (request, response) in exchanges {
            let (req_line, resp_line) = tracer.span("sim.jobs_encode", None, |_| {
                (request.to_line(), response.to_line())
            });
            let decoded = tracer.span("sim.jobs_decode", None, |_| {
                (
                    Request::from_line(&req_line),
                    Response::from_line(&resp_line),
                )
            });
            wire_bytes += req_line.len() + resp_line.len() + 2;
            requests += 1;
            rep.op(
                "wire codec round trip",
                match decoded {
                    (Ok(_), Ok(r)) if r.to_line() == resp_line => Vec::new(),
                    _ => vec!["codec round trip changed the response".into()],
                },
            );
        }
        records.push(record);
    }
    drop(conn);
    let status = daemon.service.status();
    daemon.stop(rep);
    let served = status.cache_hits + status.fresh_points;
    rep.set(
        "sim.cache_hit_ratio",
        if served > 0 {
            status.cache_hits as f64 / served as f64
        } else {
            0.0
        },
    );
    rep.set(
        "sim.wire_bytes_per_req",
        wire_bytes as f64 / requests.max(1) as f64,
    );
    // The daemon runs each point on one worker thread: compare against the
    // engine on one thread.
    let engine_s: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let mut spec = spec.clone();
            spec.mc.threads = 1;
            let t = Instant::now();
            black_box(run(&spec));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let overhead: Vec<f64> = latency_s
        .iter()
        .zip(&engine_s)
        .map(|(l, e)| l - e)
        .collect();
    rep.set("sim.service_overhead_s", median(&overhead));
    if records.len() == specs.len() {
        traced_replay(&specs, &records, tracer, rep);
        traced_cache(
            &ctx.fresh_dir("sweepd-cache-replay"),
            &specs,
            &records,
            tracer,
            rep,
        );
    }
    layer_metrics(tracer, rep);
}
