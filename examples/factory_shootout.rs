//! Run the algorithm-level scenario catalog head to head: the three magic
//! state factory skeletons (§III.6), the three logical gadget skeletons
//! (§III.5, §III.7–III.8) and the [[8,3,2]] colour-code block, each through
//! the full build → DEM → decode pipeline at its paper operating point
//! (one transversal CNOT layer per SE round).
//!
//! Same engine contract as `decoder_shootout`: one `ExperimentSpec` per
//! scenario, reproducible for any `RAA_THREADS`, shot budget from
//! `RAA_SHOTS`.
//!
//! ```sh
//! cargo run --release --example factory_shootout
//! ```

use raa::sim::{
    try_run, DecoderChoice, ExperimentSpec, FactoryProtocol, GadgetKind, McConfig, NoiseModel,
    Rounds, Scenario, ShotBudget,
};

fn main() {
    let shots: usize = std::env::var("RAA_SHOTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let threads: usize = std::env::var("RAA_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let p = 2e-3;

    // The conformance catalog (tests/scenario_conformance.rs), at d = 3
    // (the [[8,3,2]] block is a fixed distance-2 code).
    let catalog: Vec<(Scenario, u32)> = vec![
        (
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Distill15,
                rounds: Rounds::Fixed(4),
            },
            3,
        ),
        (
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Ccz,
                rounds: Rounds::Fixed(4),
            },
            3,
        ),
        (
            Scenario::MagicFactory {
                protocol: FactoryProtocol::Cultivation,
                rounds: Rounds::Fixed(6),
            },
            3,
        ),
        (
            Scenario::Gadget {
                kind: GadgetKind::Adder,
                width: 4,
                rounds: Rounds::Fixed(4),
            },
            3,
        ),
        (
            Scenario::Gadget {
                kind: GadgetKind::Lookup,
                width: 4,
                rounds: Rounds::Fixed(4),
            },
            3,
        ),
        (
            Scenario::Gadget {
                kind: GadgetKind::Fanout,
                width: 3,
                rounds: Rounds::Fixed(4),
            },
            3,
        ),
        (
            Scenario::Code832Memory {
                rounds: Rounds::Fixed(4),
            },
            2,
        ),
    ];

    println!("algorithm-scenario shoot-out: p = {p}, {shots} shots, union-find, dem sampler\n");
    for (scenario, distance) in catalog {
        let mut spec = ExperimentSpec::new(
            format!("factory-shootout/{}", scenario.label()),
            scenario,
            distance,
        );
        spec.noise = NoiseModel::uniform(p);
        spec.decoder = DecoderChoice::UnionFind;
        spec.shots = ShotBudget::Fixed(shots);
        spec.seed = 99;
        spec.mc = McConfig::default().with_threads(threads);
        let (record, timing) = try_run(&spec).expect("the decode thread pool builds");
        println!(
            "{:<22} d = {}  patches = {:>2}  cnots = {:>3}  detectors = {:>4}  \
             p_L = {:.5} +- {:.5}   ({:.0} shots/s)",
            record.scenario,
            record.distance,
            record.patches,
            record.cnots,
            record.num_detectors,
            record.logical_error_rate(),
            record.standard_error(),
            record.shots as f64 / timing.decode_seconds
        );
    }

    println!(
        "\nthe factory/gadget entries are Clifford skeletons of the paper's algorithm \
         workloads (one transversal CNOT layer per SE round, §III.6-III.8): same patch \
         count, same CNOT traffic, fully determined stabilizer flows, so the entire \
         decode battery applies."
    );
}
