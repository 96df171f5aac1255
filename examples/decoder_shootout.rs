//! Compare the crate's decoders head to head on the same surface-code
//! memory workload: weighted union–find, exact small-instance matching
//! (the MLE-like reference), BP-reweighted union–find, and sliding-window
//! union–find. This is the paper's §III.4 observation made concrete — the
//! choice of decoder moves the effective decoding factor α, and Fig. 13(a)
//! shows the architecture tolerates that.
//!
//! The workload is one `raa::sim` sweep grid with the decoder as its only
//! axis; the experiment engine owns sampling, decoding and seeding, so the
//! numbers are reproducible and identical for any `RAA_THREADS` setting.
//!
//! ```sh
//! cargo run --release --example decoder_shootout
//! # Deep-circuit mode: stream windowed decoders one time layer at a time
//! # (rounds = 10·d, O(window) resident syndrome memory per shot).
//! RAA_STREAMING=1 cargo run --release --example decoder_shootout
//! ```

use raa::sim::{
    try_run, DecoderChoice, McConfig, Rounds, SamplerChoice, Scenario, ShotBudget, SweepGrid,
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
    // RAA_SAMPLER=circuit re-simulates gate by gate; the default compiled
    // DEM path is the fast one (see the README's sampler perf notes).
    let sampler = match std::env::var("RAA_SAMPLER").as_deref() {
        Ok("circuit") => SamplerChoice::Circuit,
        Ok("dem") | Err(_) => SamplerChoice::Dem,
        Ok(other) => panic!("RAA_SAMPLER must be 'dem' or 'circuit', got {other:?}"),
    };
    // RAA_STREAMING=1 switches to the deep-circuit mode: windowed decoders
    // only (the streaming pipeline is a windowed pipeline), 10·d rounds,
    // buffer width as the axis — the shoot-out becomes "how much look-ahead
    // buys whole-circuit accuracy at O(window) memory".
    let streaming = std::env::var("RAA_STREAMING").is_ok_and(|v| !v.is_empty() && v != "0");
    let d = 3u32;
    let p = 5e-3;

    let (rounds, decoders): (Rounds, Vec<DecoderChoice>) = if streaming {
        (
            Rounds::TimesDistance(10),
            vec![
                DecoderChoice::Windowed {
                    commit: 2,
                    buffer: 1,
                },
                DecoderChoice::Windowed {
                    commit: 2,
                    buffer: 3,
                },
                DecoderChoice::Windowed {
                    commit: 2,
                    buffer: 6,
                },
            ],
        )
    } else {
        (
            Rounds::TimesDistance(1),
            vec![
                DecoderChoice::UnionFind,
                DecoderChoice::Matching,
                DecoderChoice::BpUnionFind,
                DecoderChoice::Windowed {
                    commit: 2,
                    buffer: 2,
                },
            ],
        )
    };

    let grid = SweepGrid::new(
        if streaming {
            "shootout-streaming"
        } else {
            "shootout"
        },
        Scenario::Memory { rounds },
    )
    .with_distances(vec![d])
    .with_p_phys(vec![p])
    .with_decoders(decoders)
    .with_shots(ShotBudget::Fixed(shots))
    .with_sampler(sampler)
    .with_streaming(streaming)
    .with_seed(99)
    .with_mc(McConfig::default().with_threads(threads));

    let specs = grid.specs();
    let mut first = true;
    for spec in &specs {
        // All four specs share a seed, so the decoders are compared on
        // identical syndrome samples; shots/s counts the decode phase only
        // (setup — DEM extraction, graph building — is excluded).
        let (record, timing) = try_run(spec).expect("the decode thread pool builds");
        if first {
            println!(
                "surface-code memory d = {d}, {} rounds, p = {p}: {} detectors, {} DEM errors \
                 ({} arbitrary decompositions), {shots} shots, {} sampler{}\n",
                record.se_rounds,
                record.num_detectors,
                record.num_dem_errors,
                record.arbitrary_decompositions,
                record.sampler,
                if record.streaming {
                    ", streaming (O(window) resident syndromes)"
                } else {
                    ""
                },
            );
            first = false;
        }
        println!(
            "{:<22} p_L = {:.5} +- {:.5}   ({:.0} shots/s)",
            record.decoder,
            record.logical_error_rate(),
            record.standard_error(),
            record.shots as f64 / timing.decode_seconds
        );
    }

    if streaming {
        println!(
            "\na wider look-ahead buffer approaches whole-circuit accuracy while resident \
             syndrome memory stays O(window) per shot — the deep-circuit regime of §II.4 \
             (the whole-batch path would grow O(rounds))."
        );
    } else {
        println!(
            "\nmore accurate decoders (matching, BP+UF) lower p_L, i.e. a smaller effective \
             decoding factor alpha; the architecture-level impact of alpha is Fig. 13(a) \
             (`cargo run -p raa-bench --bin fig13`)."
        );
    }
}
