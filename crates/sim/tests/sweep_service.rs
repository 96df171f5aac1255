//! End-to-end coverage of the `raa-sweepd` service core and its TCP
//! JSON-lines front end: job round trips, warm-cache queries, poisoned-
//! point quarantine across jobs, drain/shed semantics, calibration
//! accounting and timeouts, and malformed-request containment.

use raa_sim::jobs::{Request, Response};
use raa_sim::service::{serve, PointResult};
use raa_sim::{
    run_sweep, ExperimentSpec, Rounds, Scenario, ServiceClient, ServiceConfig, ShotBudget,
    SweepGrid, SweepService,
};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("raa-svc-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn grid() -> SweepGrid {
    SweepGrid::new(
        "svc/memory",
        Scenario::Memory {
            rounds: Rounds::Fixed(2),
        },
    )
    .with_distances(vec![3, 5])
    .with_p_phys(vec![4e-3])
    .with_shots(ShotBudget::Fixed(256))
    .with_seed(0x5EC)
}

fn poison_spec() -> ExperimentSpec {
    let mut spec = grid().specs().remove(0);
    spec.name = "svc/poison".into();
    spec.scenario = Scenario::Memory {
        rounds: Rounds::Fixed(0),
    };
    spec
}

/// Starts a daemon on an ephemeral port; returns the address, the shutdown
/// flag, the serve-thread handle, and the service.
fn start_daemon(
    cache_dir: Option<&std::path::Path>,
) -> (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
    SweepService,
) {
    let service = SweepService::start(ServiceConfig {
        cache_dir: cache_dir.map(Into::into),
        workers: 2,
        job_timeout: Duration::from_secs(60),
        ..ServiceConfig::default()
    })
    .unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_service = service.clone();
    let serve_shutdown = Arc::clone(&shutdown);
    let handle =
        std::thread::spawn(move || serve(listener, &serve_service, &serve_shutdown).unwrap());
    (addr, shutdown, handle, service)
}

#[test]
fn tcp_sweep_then_query_round_trip_is_byte_identical() {
    let tmp = TempDir::new("roundtrip");
    let (addr, _shutdown, handle, _service) = start_daemon(Some(&tmp.0));
    let grid = grid();
    let specs = grid.specs();
    let reference = run_sweep(&grid);

    let mut client = ServiceClient::connect(addr).unwrap();
    match client.sweep(&specs).unwrap() {
        Response::Sweep {
            fresh_points,
            cached_points,
            fresh_shots,
            records,
            poisoned,
            ..
        } => {
            assert_eq!(fresh_points, 2);
            assert_eq!(cached_points, 0);
            assert_eq!(fresh_shots, 2 * 256);
            assert!(poisoned.is_empty());
            for (a, b) in reference.iter().zip(&records) {
                assert_eq!(
                    a.to_json(),
                    b.as_ref().unwrap().to_json(),
                    "daemon record byte-identical to local sweep"
                );
            }
        }
        other => panic!("expected sweep response, got {other:?}"),
    }

    // Warm query: hits everything, samples nothing, same bytes.
    match client.query(&specs).unwrap() {
        Response::Query {
            hits,
            misses,
            records,
            ..
        } => {
            assert_eq!((hits, misses), (2, 0));
            for (a, b) in reference.iter().zip(&records) {
                assert_eq!(a.to_json(), b.as_ref().unwrap().to_json());
            }
        }
        other => panic!("expected query response, got {other:?}"),
    }

    // A second sweep of the same grid is fully cached.
    match client.sweep(&specs).unwrap() {
        Response::Sweep {
            fresh_shots,
            cached_points,
            ..
        } => {
            assert_eq!(fresh_shots, 0, "warm sweep samples nothing");
            assert_eq!(cached_points, 2);
        }
        other => panic!("expected sweep response, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn poisoned_point_is_reported_then_refused_and_daemon_survives() {
    let tmp = TempDir::new("poison");
    let (addr, _shutdown, handle, service) = start_daemon(Some(&tmp.0));
    let grid = grid();
    let mut specs = grid.specs();
    specs.insert(1, poison_spec());

    let mut client = ServiceClient::connect(addr).unwrap();
    match client.sweep(&specs).unwrap() {
        Response::Sweep {
            poisoned, records, ..
        } => {
            assert_eq!(poisoned.len(), 1);
            assert_eq!(poisoned[0].index, 1);
            assert!(poisoned[0].message.contains("SE round"));
            assert!(records[1].is_none());
            assert!(records[0].is_some() && records[2].is_some());
        }
        other => panic!("expected sweep response, got {other:?}"),
    }

    // The same point in a later job is refused from quarantine — no second
    // panic, and the message says why.
    match client.sweep(&[poison_spec()]).unwrap() {
        Response::Sweep { poisoned, .. } => {
            assert_eq!(poisoned.len(), 1);
            assert!(
                poisoned[0].message.contains("quarantined"),
                "{}",
                poisoned[0].message
            );
        }
        other => panic!("expected sweep response, got {other:?}"),
    }

    // Daemon is alive and the quarantine shows in status.
    match client.status().unwrap() {
        Response::Status { status, .. } => {
            assert_eq!(status.quarantined.len(), 1);
            assert_eq!(status.quarantined[0].name, "svc/poison");
            assert!(!status.draining);
        }
        other => panic!("expected status response, got {other:?}"),
    }
    assert!(!service.is_draining());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_request_gets_error_and_connection_survives() {
    let tmp = TempDir::new("malformed");
    let (addr, _shutdown, handle, _service) = start_daemon(Some(&tmp.0));

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("malformed")),
        other => panic!("expected error response, got {other:?}"),
    }

    // A well-formed calibrate request with no distances is refused by name
    // instead of panicking the connection's reader thread.
    let empty = Request::Calibrate {
        id: "empty".into(),
        config: raa_sim::CalibrationConfig::default(),
    }
    .to_line()
    .replace("\"distances\":[3,5]", "\"distances\":[]");
    assert!(empty.contains("\"distances\":[]"), "{empty}");
    stream.write_all(format!("{empty}\n").as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("distances"), "{message}"),
        other => panic!("expected error response, got {other:?}"),
    }

    // Same connection still works for a real request.
    let request = Request::Status { id: "after".into() };
    stream
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Status { id, .. } => assert_eq!(id, "after"),
        other => panic!("expected status response, got {other:?}"),
    }

    // A line longer than the daemon's 1 MiB cap that never ends: a typed
    // error, then the daemon hangs up on that connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let _ = stream.write_all(&vec![b'x'; (1 << 20) + 1]);
    line.clear();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected error response, got {other:?}"),
    }
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "{line:?}");

    // A second client is still served.
    let mut client = ServiceClient::connect(addr).unwrap();
    match client.status().unwrap() {
        Response::Status { .. } => {}
        other => panic!("expected status response, got {other:?}"),
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn drain_sheds_new_jobs_cleanly() {
    let tmp = TempDir::new("drain");
    let service = SweepService::start(ServiceConfig {
        cache_dir: Some(tmp.0.clone()),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();

    // A job completes normally before the drain…
    let specs = grid().specs();
    let handle = service.submit(specs.clone()).unwrap();
    let results = handle.wait(Duration::from_secs(60)).unwrap();
    assert!(results
        .iter()
        .all(|r| matches!(r, PointResult::Record { .. })));

    service.drain();
    // …and is refused after it.
    assert!(service.submit(specs.clone()).is_none(), "draining sheds");
    match service.handle(Request::Sweep {
        id: "late".into(),
        specs,
    }) {
        Response::Shed { id, .. } => assert_eq!(id, "late"),
        other => panic!("expected shed response, got {other:?}"),
    }
    assert!(service.status().draining);
    service.shutdown();
}

#[test]
fn killed_client_connection_does_not_kill_daemon_and_work_persists() {
    let tmp = TempDir::new("killconn");
    let (addr, _shutdown, handle, _service) = start_daemon(Some(&tmp.0));
    let grid = grid();
    let specs = grid.specs();

    // Fire a sweep and slam the connection before the response arrives —
    // the killed-worker-connection fault of the acceptance criteria.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = Request::Sweep {
            id: "doomed".into(),
            specs: specs.clone(),
        };
        stream
            .write_all(format!("{}\n", request.to_line()).as_bytes())
            .unwrap();
        stream.flush().unwrap();
        // Drop without reading: RST or FIN mid-job.
    }

    // The daemon keeps serving, and the doomed job's work persisted: a
    // fresh client sees a fully warm cache (poll briefly — the doomed
    // job's points finish asynchronously).
    let mut client = ServiceClient::connect(addr).unwrap();
    let mut warm_hits = 0;
    for _ in 0..200 {
        match client.query(&specs).unwrap() {
            Response::Query { hits, .. } => {
                warm_hits = hits;
                if warm_hits == specs.len() {
                    break;
                }
            }
            other => panic!("expected query response, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(warm_hits, specs.len(), "abandoned job's work persisted");
    let reference = run_sweep(&grid);
    match client.query(&specs).unwrap() {
        Response::Query { records, .. } => {
            for (a, b) in reference.iter().zip(&records) {
                assert_eq!(a.to_json(), b.as_ref().unwrap().to_json());
            }
        }
        other => panic!("expected query response, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn calibrate_job_over_tcp_matches_local_calibration() {
    let tmp = TempDir::new("cal");
    let (addr, _shutdown, handle, _service) = start_daemon(Some(&tmp.0));

    let config = raa_sim::CalibrationConfig {
        memory_shots: 1_500,
        cnot_shots: 1_000,
        ..raa_sim::CalibrationConfig::default()
    };
    let local = raa_sim::calibrate(&config).unwrap();
    assert_eq!(
        (local.fresh_points, local.cached_points, local.fresh_shots),
        (10, 0, 2 * 1_500 + 8 * 1_000)
    );

    let mut client = ServiceClient::connect(addr).unwrap();
    match client.calibrate(&config).unwrap() {
        Response::Calibrate { calibration, .. } => {
            assert_eq!(
                (
                    calibration.fresh_points,
                    calibration.cached_points,
                    calibration.fresh_shots
                ),
                (local.fresh_points, local.cached_points, local.fresh_shots),
                "cold daemon accounting matches the local run"
            );
            assert_eq!(calibration.fit, local.fit, "identical fit through the wire");
            assert_eq!(calibration.params.p_thres, local.params.p_thres);
            assert_eq!(calibration.lambda_memory, local.lambda_memory);
            for (a, b) in local.memory_records.iter().chain(&local.cnot_records).zip(
                calibration
                    .memory_records
                    .iter()
                    .chain(&calibration.cnot_records),
            ) {
                assert_eq!(a.to_json(), b.to_json(), "records byte-identical");
            }
        }
        other => panic!("expected calibrate response, got {other:?}"),
    }

    // Second calibration is answered entirely from the daemon's cache.
    match client.calibrate(&config).unwrap() {
        Response::Calibrate { calibration, .. } => {
            assert_eq!(calibration.fresh_shots, 0, "warm calibration free");
            assert_eq!(calibration.fresh_points, 0);
            assert_eq!(calibration.cached_points, 10);
            assert_eq!(calibration.fit, local.fit);
        }
        other => panic!("expected calibrate response, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn calibration_past_its_timeout_errors_and_service_shuts_down() {
    let service = SweepService::start(ServiceConfig {
        workers: 1,
        job_timeout: Duration::from_millis(1),
        ..ServiceConfig::default()
    })
    .unwrap();
    match service.handle(Request::Calibrate {
        id: "slow".into(),
        config: raa_sim::CalibrationConfig::default(),
    }) {
        Response::Error { id, message } => {
            assert_eq!(id, "slow");
            assert!(message.contains("timeout"), "{message}");
        }
        other => panic!("expected error response, got {other:?}"),
    }
    // The in-flight point finishes and the rest are shed: every one of the
    // calibration's 10 points is accounted for, as one job.
    service.shutdown();
    let status = service.status();
    assert!(status.draining);
    assert!(status.shed_points > 0, "{status:?}");
    assert_eq!(status.fresh_points + status.shed_points, 10, "{status:?}");
    assert_eq!((status.points_completed, status.jobs_completed), (10, 1));
}

#[test]
fn in_process_calibration_without_distances_gets_error_not_panic() {
    let service = SweepService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let request = Request::Calibrate {
        id: "empty".into(),
        config: raa_sim::CalibrationConfig {
            distances: vec![],
            ..raa_sim::CalibrationConfig::default()
        },
    };
    let response =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(request)))
            .expect("handle never panics");
    match response {
        Response::Error { id, message } => {
            assert_eq!(id, "empty");
            assert_eq!(
                message,
                "field \"distances\": expected at least one distance"
            );
        }
        other => panic!("expected error response, got {other:?}"),
    }
    // No job was submitted, and the service still answers.
    assert_eq!(service.status().jobs_completed, 0);
    service.shutdown();
}

/// The new algorithm scenarios flow through the daemon's job codec and
/// land in the same content-addressed cache the local orchestrator uses:
/// sweeping one `MagicFactory` point over the wire must produce a record
/// byte-identical to a local `Orchestrator` run *and* to the raw cache
/// line on disk (`SweepCache::entry_path` / `load`).
#[test]
fn factory_scenario_daemon_record_matches_local_cache_line() {
    use raa_sim::{FactoryProtocol, NoiseModel, Orchestrator, SweepCache};

    let spec = {
        let mut s = ExperimentSpec::new(
            "svc/factory",
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Ccz,
                rounds: Rounds::Fixed(3),
            },
            3,
        );
        s.noise = NoiseModel::uniform(4e-3);
        s.shots = ShotBudget::Fixed(256);
        s.seed = 0xFAC;
        s
    };

    // Local reference through the orchestrator onto its own cache.
    let local_tmp = TempDir::new("factory-local");
    let local = Orchestrator::new()
        .with_cache_dir(&local_tmp.0)
        .unwrap()
        .run_specs(std::slice::from_ref(&spec))
        .unwrap();
    assert_eq!(local.fresh_points, 1);
    let local_json = local.records[0].to_json();

    // Daemon pass over the wire onto a separate cache.
    let tmp = TempDir::new("factory-daemon");
    let (addr, _shutdown, handle, _service) = start_daemon(Some(&tmp.0));
    let mut client = ServiceClient::connect(addr).unwrap();
    match client.sweep(std::slice::from_ref(&spec)).unwrap() {
        Response::Sweep {
            fresh_points,
            records,
            poisoned,
            ..
        } => {
            assert_eq!(fresh_points, 1);
            assert!(poisoned.is_empty());
            assert_eq!(
                records[0].as_ref().unwrap().to_json(),
                local_json,
                "daemon factory record byte-identical to local orchestrator"
            );
        }
        other => panic!("expected sweep response, got {other:?}"),
    }

    // Both cache lines — the daemon's and the local orchestrator's — hold
    // the identical bytes for the identical spec key.
    for dir in [&tmp.0, &local_tmp.0] {
        let cache = SweepCache::open(dir).unwrap();
        let entry = cache.entry_path(&spec);
        assert!(entry.is_file(), "cache line exists at {}", entry.display());
        let raw = fs::read_to_string(&entry).unwrap();
        assert_eq!(raw.trim_end(), local_json, "raw cache line bytes");
        assert_eq!(cache.load(&spec).unwrap().to_json(), local_json);
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}
