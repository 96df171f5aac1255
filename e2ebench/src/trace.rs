//! Benchmark-side tracing: spans recorded around calls into each layer of
//! the library, held in memory and written out when the run ends, plus the
//! thin [`Sampler`] / [`Decoder`] wrappers that time sampling and decoding
//! inside the Monte-Carlo loop without changing a single decision.

use raa::decode::{Decoder, Sampler};
use raa::stabsim::SyndromeBatch;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: a layer call, its parent call, and when it ran
/// (nanoseconds since the tracer started).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span and counter store of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        *self
            .counts
            .lock()
            .expect("a counter writer panicked")
            .entry(name)
            .or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("a counter writer panicked")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span writer panicked").clone()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed self time of every span named `name`, in seconds: each
    /// span's duration minus the part of its interval its children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 * 1e-9
            })
            .fold(0.0, |a, b| a + b)
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`Sampler`] that delegates every method to `inner` and records one
/// span per `sample_into` call under the enclosing Monte-Carlo span.
pub struct TimedSampler<'a, S> {
    pub inner: &'a S,
    pub tracer: &'a Tracer,
    pub parent: u64,
}

impl<S: Sampler> Sampler for TimedSampler<'_, S> {
    type Scratch = S::Scratch;

    fn sample_into(
        &self,
        shots: usize,
        rng: &mut StdRng,
        scratch: &mut S::Scratch,
        syndromes: &mut SyndromeBatch,
        obs_masks: &mut Vec<u64>,
    ) {
        self.tracer.span("stabsim.sample", Some(self.parent), |_| {
            self.inner
                .sample_into(shots, rng, scratch, syndromes, obs_masks)
        });
        self.tracer.count("stabsim.shots_sampled", shots as f64);
    }

    fn fusion_block(&self) -> Option<usize> {
        self.inner.fusion_block()
    }
}

/// A [`Decoder`] that delegates every method to `inner`, records a span
/// named `name` per call, and counts decoded shots and their defects.
pub struct TimedDecoder<'a, D> {
    pub inner: &'a D,
    pub tracer: &'a Tracer,
    pub parent: u64,
    pub name: &'static str,
}

impl<D: Decoder> Decoder for TimedDecoder<'_, D> {
    type Scratch = D::Scratch;

    fn predict_into(&self, defects: &[u32], scratch: &mut D::Scratch) -> u64 {
        let mask = self.tracer.span(self.name, Some(self.parent), |_| {
            self.inner.predict_into(defects, scratch)
        });
        self.tracer.count("decode.shots_decoded", 1.0);
        self.tracer.count("decode.defects", defects.len() as f64);
        mask
    }

    fn predict(&self, defects: &[u32]) -> u64 {
        self.tracer.span(self.name, Some(self.parent), |_| {
            self.inner.predict(defects)
        })
    }

    fn predict_batch_into(
        &self,
        syndromes: &SyndromeBatch,
        out: &mut Vec<u64>,
        scratch: &mut D::Scratch,
    ) {
        self.tracer.span(self.name, Some(self.parent), |_| {
            self.inner.predict_batch_into(syndromes, out, scratch)
        });
        // Counting happens outside the span, so it is tracing overhead and
        // not decode time.
        let mut fired = Vec::new();
        let mut defects = 0usize;
        for s in 0..syndromes.num_shots() {
            syndromes.fired_into(s, &mut fired);
            defects += fired.len();
        }
        self.tracer
            .count("decode.shots_decoded", syndromes.num_shots() as f64);
        self.tracer.count("decode.defects", defects as f64);
    }
}
