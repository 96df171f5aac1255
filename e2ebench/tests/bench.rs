//! The benchmark's own tests: the timing wrappers change no decision, the
//! workload generator cannot replay, and every emitted metric is declared.

use raa::decode::McConfig;
use raa::sim::jobs::{spec_to_json, Json};
use raa::sim::{run, DecoderChoice, ExperimentSpec, NoiseModel, Rounds, Scenario, ShotBudget};
use raa_e2ebench::gen;
use raa_e2ebench::report::{END_TO_END, PER_LAYER};
use raa_e2ebench::stages::{batch_reference, compile, decode};
use raa_e2ebench::trace::Tracer;
use raa_e2ebench::WORKLOADS;
use std::collections::BTreeSet;

fn memory_spec(decoder: DecoderChoice) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "test/memory",
        Scenario::Memory {
            rounds: Rounds::Fixed(6),
        },
        3,
    );
    spec.noise = NoiseModel::uniform(5e-3);
    spec.shots = ShotBudget::Fixed(3_000);
    spec.decoder = decoder;
    spec.seed = 0xBE7C;
    spec
}

#[test]
fn timing_wrappers_leave_decode_stats_bit_identical_at_1_and_2_threads() {
    for decoder in [
        DecoderChoice::UnionFind,
        DecoderChoice::Matching,
        DecoderChoice::Windowed {
            commit: 2,
            buffer: 2,
        },
    ] {
        let spec = memory_spec(decoder);
        let engine = run(&spec);
        let compiled = compile(&spec, None, None);
        for threads in [1, 2] {
            let spec = ExperimentSpec {
                mc: McConfig::default().with_threads(threads),
                ..spec.clone()
            };
            let plain = decode(&spec, &compiled, None, None);
            let tracer = Tracer::new();
            let traced = decode(&spec, &compiled, Some(&tracer), None);
            assert_eq!(plain, traced, "{decoder:?} at {threads} threads");
            assert_eq!(
                (plain.shots, plain.failures),
                (engine.shots, engine.failures),
                "{decoder:?} at {threads} threads vs the engine"
            );
            assert_eq!(tracer.counter("decode.shots_decoded"), 3_000.0);
            assert_eq!(tracer.counter("stabsim.shots_sampled"), 3_000.0);
        }
    }
}

#[test]
fn streamed_point_matches_its_traced_batch_reference() {
    let spec = gen::deep_check_spec(5);
    let streamed = run(&spec);
    let compiled = compile(&spec, None, None);
    let tracer = Tracer::new();
    let reference = batch_reference(&spec, &compiled, Some(&tracer), None);
    assert_eq!(
        (streamed.shots, streamed.failures),
        (reference.shots, reference.failures)
    );
    assert!(tracer.total_s("decode.window.predict") > 0.0);
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let tracer = Tracer::new();
    tracer.span("parent", None, |id| {
        // Two overlapping children: their union, not their sum, is covered.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    tracer.span("child", Some(id), |_| {
                        std::thread::sleep(std::time::Duration::from_millis(20))
                    })
                });
            }
        });
    });
    let (total, own) = (tracer.total_s("parent"), tracer.self_s("parent"));
    assert!(own >= 0.0 && own < total, "self {own} of {total}");
    assert!(tracer.total_s("child") > total, "children ran in parallel");
}

fn spec_line(spec: &ExperimentSpec) -> String {
    spec_to_json(spec).to_line()
}

#[test]
fn workload_generator_is_a_pure_function_of_its_seed() {
    for workload in WORKLOADS {
        assert_eq!(
            gen::spec_seeds(workload, 11, 4),
            gen::spec_seeds(workload, 11, 4)
        );
        let a: Vec<String> = gen::setup_specs(workload, 11)
            .iter()
            .map(spec_line)
            .collect();
        let b: Vec<String> = gen::setup_specs(workload, 11)
            .iter()
            .map(spec_line)
            .collect();
        assert_eq!(a, b, "{workload}");
    }
    assert_eq!(
        spec_line(&gen::sweep_spec(3, 1, 17)),
        spec_line(&gen::sweep_spec(3, 1, 17))
    );
}

#[test]
fn spec_seeds_never_repeat_within_or_across_workload_seeds() {
    for workload in WORKLOADS {
        let mut seen = BTreeSet::new();
        for seed in [0, 1, 2, 7, 1_000_003] {
            for s in gen::spec_seeds(workload, seed, 6) {
                assert!(seen.insert(s), "{workload}: spec seed {s:#x} repeats");
            }
        }
    }
}

#[test]
fn sweep_mix_covers_every_kind() {
    let kinds: BTreeSet<String> = (0..64).map(|i| gen::sweep_spec(9, 0, i).name).collect();
    assert_eq!(kinds.len(), gen::SWEEP_KINDS.len(), "{kinds:?}");
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_emitted_metric_is_well_named_and_declared() {
    for (section, emitted) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let emitted: Vec<(String, String)> = emitted
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        for (name, _) in &emitted {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name}"
            );
        }
        assert_eq!(emitted, declared(section), "{section}");
    }
}
