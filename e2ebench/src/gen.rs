//! The workload generator: every spec and seed a run uses is a pure
//! function of the workload seed, drawn from its own tagged stream, so two
//! runs with different seeds never replay each other's points and no spec
//! seed repeats inside one run.

use raa::decode::mc::mix_seed;
use raa::sim::{
    CalibrationConfig, DecoderChoice, ExperimentSpec, FactoryProtocol, NoiseModel, Rounds,
    Scenario, ShotBudget,
};

/// The engine's decode stream tag (`raa_sim::engine`): a spec's Monte-Carlo
/// seed is `derive_seed(spec.seed, DECODE_STREAM)`. The traced replay checks
/// that it reproduces every engine record with it.
pub const DECODE_STREAM: u64 = 0xDEC0;

const TAG_CAL_MEMORY: u64 = 0xCA1_0001;
const TAG_CAL_CNOT: u64 = 0xCA1_0002;
const TAG_DEEP: u64 = 0xDEE_0001;
const TAG_WARM_CHUNK: u64 = 0xDEE_0002;
const TAG_DEEP_CHECK: u64 = 0xDEE_0003;
const TAG_SWEEP: u64 = 0x5EE_0001;
const TAG_QUERY: u64 = 0x5EE_0002;

/// The seed of item `index` on the stream `tag` of workload seed `seed`.
pub fn stream(seed: u64, tag: u64, index: u64) -> u64 {
    mix_seed(mix_seed(seed, tag), index)
}

/// Shots sampled by one default calibration (2 memory + 8 CNOT points).
pub const CAL_SHOTS: usize = 2 * 20_000 + 8 * 6_000;

/// The calibration of cycle `cycle`: the default sweep (10 points, 88k
/// shots, d ∈ {3, 5}, two point workers) with fresh grid seeds. The caller
/// sets `cache_dir`.
pub fn calibration_config(seed: u64, cycle: u64) -> CalibrationConfig {
    CalibrationConfig {
        memory_seed: stream(seed, TAG_CAL_MEMORY, cycle),
        cnot_seed: stream(seed, TAG_CAL_CNOT, cycle),
        ..CalibrationConfig::default()
    }
}

/// Every spec of a calibration config, memory grid first (grid order).
pub fn calibration_specs(cfg: &CalibrationConfig) -> Vec<ExperimentSpec> {
    let mut specs = cfg.memory_grid().specs();
    specs.extend(cfg.cnot_grid().specs());
    specs
}

fn windowed_streaming(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.decoder = DecoderChoice::Windowed {
        commit: 2,
        buffer: 5,
    };
    spec.streaming = true;
    spec
}

/// Shots of a warm deep-stream chunk (a quarter of one 256-shot
/// Monte-Carlo batch).
pub const WARM_CHUNK_SHOTS: usize = 64;

/// The two deep streamed points of cycle `cycle`: d = 5 memory and d = 5
/// two-patch deep CNOT, 100 rounds each, windowed 2+5 decoding.
pub fn deep_specs(seed: u64, cycle: u64) -> [ExperimentSpec; 2] {
    let mut memory = ExperimentSpec::new(
        "bench/deep_memory",
        Scenario::Memory {
            rounds: Rounds::Fixed(100),
        },
        5,
    );
    memory.noise = NoiseModel::uniform(3e-3);
    memory.shots = ShotBudget::Fixed(4096);
    memory.seed = stream(seed, TAG_DEEP, 2 * cycle);
    let mut cnot = ExperimentSpec::new(
        "bench/deep_cnot",
        Scenario::DeepCnot {
            patches: 2,
            rounds: Rounds::Fixed(100),
            cnots_per_round: 1.0,
        },
        5,
    );
    cnot.noise = NoiseModel::uniform(2e-3);
    cnot.shots = ShotBudget::Fixed(2048);
    cnot.seed = stream(seed, TAG_DEEP, 2 * cycle + 1);
    [windowed_streaming(memory), windowed_streaming(cnot)]
}

/// The decode seed of warm chunk `index` of cycle `cycle`.
pub fn warm_chunk_seed(seed: u64, cycle: u64, index: u64) -> u64 {
    stream(mix_seed(seed, cycle), TAG_WARM_CHUNK, index)
}

/// The small streamed point checked bit for bit against the batch
/// reference of the time-sliced sampler.
pub fn deep_check_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(
        "bench/deep_check",
        Scenario::Memory {
            rounds: Rounds::Fixed(20),
        },
        3,
    );
    spec.noise = NoiseModel::uniform(4e-3);
    spec.shots = ShotBudget::Fixed(1024);
    spec.seed = stream(seed, TAG_DEEP_CHECK, 0);
    windowed_streaming(spec)
}

/// The kinds of cold `sweep` request in the `sweepd` mix.
pub const SWEEP_KINDS: [&str; 4] = ["memory_uf", "memory_mwpm", "factory", "cnot"];

/// The [`SWEEP_KINDS`] index of sweep `index` of client `client`. Kinds
/// rotate, so every run sweeps the same mix whatever its length.
pub fn sweep_kind(client: u64, index: u64) -> usize {
    ((client + index) % SWEEP_KINDS.len() as u64) as usize
}

/// MWPM shot budgets: eight evenly spaced levels over 256–2000 shots.
const MWPM_SHOT_LEVELS: u64 = 8;

/// The cold sweep point `index` of client `client`: the kind of
/// [`sweep_kind`], seeded from the workload seed.
pub fn sweep_spec(seed: u64, client: u64, index: u64) -> ExperimentSpec {
    let draw = stream(seed, TAG_SWEEP, (client << 32) | index);
    let kind = sweep_kind(client, index);
    let memory = |name: &str| {
        let mut spec = ExperimentSpec::new(
            name,
            Scenario::Memory {
                rounds: Rounds::TimesDistance(1),
            },
            5,
        );
        spec.noise = NoiseModel::uniform(3e-3);
        spec
    };
    let mut spec = match kind {
        0 => {
            let mut spec = memory("bench/sweep_memory_uf");
            spec.shots = ShotBudget::Fixed(2048);
            spec
        }
        1 => {
            let mut spec = memory("bench/sweep_memory_mwpm");
            spec.decoder = DecoderChoice::Matching;
            // Successive MWPM sweeps of a client step through the levels
            // from a seeded start, so each run covers them evenly.
            let level = (mix_seed(seed, client) + index / 4) % MWPM_SHOT_LEVELS;
            spec.shots = ShotBudget::Fixed(256 + (level * 1744 / (MWPM_SHOT_LEVELS - 1)) as usize);
            spec
        }
        2 => {
            let mut spec = ExperimentSpec::new(
                "bench/sweep_factory",
                Scenario::MagicFactory {
                    protocol: FactoryProtocol::Distill15,
                    rounds: Rounds::TimesDistance(1),
                },
                3,
            );
            spec.noise = NoiseModel::uniform(1e-3);
            spec.shots = ShotBudget::Fixed(512);
            spec
        }
        _ => {
            let mut spec = ExperimentSpec::new(
                "bench/sweep_cnot",
                Scenario::TransversalCnot {
                    patches: 2,
                    depth: 8,
                    cnots_per_round: 1.0,
                },
                5,
            );
            spec.noise = NoiseModel::uniform(3e-3);
            spec.shots = ShotBudget::Fixed(1024);
            spec
        }
    };
    spec.seed = mix_seed(draw, 1);
    spec
}

/// Which of `swept` earlier points the `index`-th query of `client` asks
/// for (`swept > 0`).
pub fn query_pick(seed: u64, client: u64, index: u64, swept: usize) -> usize {
    (stream(seed, TAG_QUERY, (client << 32) | index) % swept as u64) as usize
}

/// The specs whose set-up (build → DEM → decomposition → decoder and
/// sampler compile) `setup_s` times for a workload.
pub fn setup_specs(workload: &str, seed: u64) -> Vec<ExperimentSpec> {
    match workload {
        "calibrate" => calibration_specs(&calibration_config(seed, 0)),
        "deep_stream" => deep_specs(seed, 0).to_vec(),
        _ => (0..SWEEP_KINDS.len() as u64)
            .map(|i| sweep_spec(seed, 0, i))
            .collect(),
    }
}

/// The spec seeds the first `cycles` cycles of a workload use (every cold
/// point the run computes), for the no-replay checks.
pub fn spec_seeds(workload: &str, seed: u64, cycles: u64) -> Vec<u64> {
    let mut seeds = Vec::new();
    for cycle in 0..cycles {
        match workload {
            "calibrate" => seeds.extend(
                calibration_specs(&calibration_config(seed, cycle))
                    .iter()
                    .map(|s| s.seed),
            ),
            "deep_stream" => {
                seeds.extend(deep_specs(seed, cycle).iter().map(|s| s.seed));
                seeds.extend((0..64).map(|i| warm_chunk_seed(seed, cycle, i)));
            }
            _ => seeds.extend((0..2).map(|c| sweep_spec(seed, c, cycle).seed)),
        }
    }
    if workload == "deep_stream" {
        seeds.push(deep_check_spec(seed).seed);
    }
    seeds
}
