//! A spec run stage by stage through the library's public stage functions
//! (`build_circuit`, DEM extraction, graphlike decomposition, the decoder
//! and sampler constructors, the Monte-Carlo entry points), the way
//! `raa_sim::engine::run` runs it, with a span around every stage when a
//! tracer is given.

use crate::gen::DECODE_STREAM;
use crate::trace::{TimedDecoder, TimedSampler, Tracer};
use raa::decode::mc::{self, DecodeStats};
use raa::decode::{
    Decoder, DecodingGraph, MatchingDecoder, Sampler, UniformLayers, UnionFindDecoder,
    WindowedDecoder,
};
use raa::sim::{build_circuit, derive_seed, DecoderChoice, ExperimentSpec, ShotBudget};
use raa::stabsim::{DemSampler, DetectorErrorModel, StreamingDemSampler};

/// Runs `f`, inside a span when `tracer` is set.
pub fn stage<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, |_| f()),
        None => f(),
    }
}

pub enum CompiledDecoder {
    UnionFind(UnionFindDecoder),
    Matching(MatchingDecoder),
    Windowed(WindowedDecoder<UniformLayers>),
}

pub enum CompiledSampler {
    Dem(DemSampler),
    Streaming(StreamingDemSampler),
}

/// Everything a spec needs before its first shot.
pub struct Compiled {
    pub decoder: CompiledDecoder,
    pub sampler: CompiledSampler,
    /// Non-graphlike DEM mechanisms the decomposition dropped.
    pub arbitrary: usize,
    pub streaming: bool,
}

fn fixed_shots(spec: &ExperimentSpec) -> usize {
    match spec.shots {
        ShotBudget::Fixed(shots) => shots,
        ShotBudget::UntilFailures { .. } => panic!("benchmark specs use fixed shot budgets"),
    }
}

/// The spec's set-up: circuit build → DEM extraction → graphlike
/// decomposition → decoder compile → sampler compile.
///
/// # Panics
///
/// On a spec the benchmark never generates: a BP+UF decoder, or a windowed
/// decoder on an unlayered scenario.
pub fn compile(spec: &ExperimentSpec, tracer: Option<&Tracer>, parent: Option<u64>) -> Compiled {
    let circuit = stage(tracer, "surface.build", parent, || build_circuit(spec));
    let dem = stage(tracer, "stabsim.dem_extract", parent, || {
        DetectorErrorModel::from_circuit(&circuit)
    });
    let (graph, arbitrary) = stage(tracer, "decode.decompose", parent, || {
        DecodingGraph::from_dem_decomposed(&dem)
    });
    let layers = || UniformLayers {
        detectors_per_layer: spec
            .scenario
            .detectors_per_layer(spec.distance)
            .expect("windowed specs are uniformly layered"),
    };
    let decoder = match spec.decoder {
        DecoderChoice::UnionFind => stage(tracer, "decode.compile_uf", parent, || {
            CompiledDecoder::UnionFind(UnionFindDecoder::new(graph))
        }),
        DecoderChoice::Matching => stage(tracer, "decode.compile_mwpm", parent, || {
            CompiledDecoder::Matching(MatchingDecoder::new(graph))
        }),
        DecoderChoice::Windowed { commit, buffer } => {
            stage(tracer, "decode.compile_window", parent, || {
                CompiledDecoder::Windowed(
                    WindowedDecoder::try_new(graph, layers(), commit, buffer)
                        .expect("benchmark window geometries are valid"),
                )
            })
        }
        DecoderChoice::BpUnionFind => panic!("the benchmark generates no BP+UF specs"),
    };
    let sampler = if spec.streaming {
        stage(tracer, "stabsim.stream_sampler_compile", parent, || {
            CompiledSampler::Streaming(StreamingDemSampler::new(&dem, layers().detectors_per_layer))
        })
    } else {
        stage(tracer, "stabsim.sampler_compile", parent, || {
            CompiledSampler::Dem(DemSampler::new(&dem))
        })
    };
    Compiled {
        decoder,
        sampler,
        arbitrary,
        streaming: spec.streaming,
    }
}

/// The whole-batch Monte-Carlo loop with timing wrappers around the
/// sampler and the decoder when traced.
#[allow(clippy::too_many_arguments)]
fn sampled<S: Sampler, D: Decoder + Sync>(
    sampler: &S,
    decoder: &D,
    predict_span: &'static str,
    shots: usize,
    seed: u64,
    spec: &ExperimentSpec,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> DecodeStats {
    let run = || match tracer {
        Some(t) => t.span("decode.mc", parent, |mc_id| {
            let sampler = TimedSampler {
                inner: sampler,
                tracer: t,
                parent: mc_id,
            };
            let decoder = TimedDecoder {
                inner: decoder,
                tracer: t,
                parent: mc_id,
                name: predict_span,
            };
            mc::logical_error_rate_sampled(&sampler, &decoder, shots, seed, &spec.mc)
        }),
        None => mc::logical_error_rate_sampled(sampler, decoder, shots, seed, &spec.mc),
    };
    run().expect("the ambient decode pool cannot fail to build")
}

/// Spends the spec's shot budget on a compiled spec with the engine's
/// decode seed, through the same Monte-Carlo entry point the engine uses.
pub fn decode(
    spec: &ExperimentSpec,
    compiled: &Compiled,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> DecodeStats {
    decode_with(
        spec,
        compiled,
        fixed_shots(spec),
        derive_seed(spec.seed, DECODE_STREAM),
        tracer,
        parent,
    )
}

/// [`decode`] with an explicit shot count and decode seed.
pub fn decode_with(
    spec: &ExperimentSpec,
    compiled: &Compiled,
    shots: usize,
    seed: u64,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> DecodeStats {
    match (&compiled.sampler, &compiled.decoder) {
        (CompiledSampler::Streaming(s), CompiledDecoder::Windowed(d)) if compiled.streaming => {
            stage(tracer, "decode.mc.stream", parent, || {
                mc::logical_error_rate_streamed(s, d, shots, seed, &spec.mc)
                    .expect("the ambient decode pool cannot fail to build")
            })
        }
        (CompiledSampler::Dem(s), CompiledDecoder::UnionFind(d)) => {
            sampled(s, d, "decode.uf.predict", shots, seed, spec, tracer, parent)
        }
        (CompiledSampler::Dem(s), CompiledDecoder::Matching(d)) => sampled(
            s,
            d,
            "decode.mwpm.predict",
            shots,
            seed,
            spec,
            tracer,
            parent,
        ),
        (CompiledSampler::Dem(s), CompiledDecoder::Windowed(d)) => sampled(
            s,
            d,
            "decode.window.predict",
            shots,
            seed,
            spec,
            tracer,
            parent,
        ),
        _ => panic!("streaming specs pair the time-sliced sampler with a windowed decoder"),
    }
}

/// The batch reference of a streamed spec: the time-sliced sampler run as
/// a whole-batch [`Sampler`] into the same windowed decoder, which must
/// match the streamed pipeline bit for bit.
pub fn batch_reference(
    spec: &ExperimentSpec,
    compiled: &Compiled,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> DecodeStats {
    let (CompiledSampler::Streaming(s), CompiledDecoder::Windowed(d)) =
        (&compiled.sampler, &compiled.decoder)
    else {
        panic!("the batch reference needs a streamed windowed spec");
    };
    let seed = derive_seed(spec.seed, DECODE_STREAM);
    sampled(
        s,
        d,
        "decode.window.predict",
        fixed_shots(spec),
        seed,
        spec,
        tracer,
        parent,
    )
}
