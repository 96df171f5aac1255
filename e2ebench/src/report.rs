//! The result line: metric names and units, percentiles, and the JSON
//! object printed as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (`--trace 0`), printed by every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_shot", "us"),
    ("cold_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("shots_per_s", "1/s"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), printed by every workload; a layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("surface.build_s", "s"),
    ("stabsim.dem_extract_s", "s"),
    ("decode.decompose_s", "s"),
    ("decode.arbitrary_mechanisms", "count"),
    ("decode.compile_uf_s", "s"),
    ("decode.compile_mwpm_s", "s"),
    ("decode.compile_window_s", "s"),
    ("stabsim.sampler_compile_s", "s"),
    ("stabsim.stream_sampler_compile_s", "s"),
    ("stabsim.sample_s", "s"),
    ("stabsim.shots_sampled", "count"),
    ("decode.uf.predict_s", "s"),
    ("decode.mwpm.predict_s", "s"),
    ("decode.window.predict_s", "s"),
    ("decode.shots_decoded", "count"),
    ("decode.defects_per_shot", "count"),
    ("decode.mc.other_s", "s"),
    ("decode.mc.stream_s", "s"),
    ("sim.cache_store_s", "s"),
    ("sim.cache_load_s", "s"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.jobs_encode_s", "s"),
    ("sim.jobs_decode_s", "s"),
    ("sim.wire_bytes_per_req", "bytes"),
    ("sim.service_overhead_s", "s"),
    ("core.fit_s", "s"),
    ("shor.estimate_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable failure descriptions (printed on stderr).
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one attempted operation, failed when `problems` is not empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// The result line: exactly the metrics of `declared`, each with its
    /// unit. A declared metric the run did not set is reported as missing
    /// (and makes the run incorrect).
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        let mut missing = Vec::new();
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or_else(|| {
                missing.push(*name);
                0.0
            });
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.failed == 0 && missing.is_empty() && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set size in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
