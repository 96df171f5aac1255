//! Steal-adjusted time. On a virtual machine the hypervisor can withhold
//! the virtual CPUs ("steal" time in `/proc/stat`), and on a shared host
//! that share swings by tens of percent from minute to minute. The
//! benchmark samples the machine's cumulative steal time in the background
//! and scales every measured interval by the share of the CPUs that was not
//! withheld during it, so its figures describe the program rather than the
//! neighbours. Without `/proc/stat` the share is 0 and times are plain wall
//! time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often the background thread reads `/proc/stat`.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// The machine's cumulative busy and steal time in CPU-seconds, if
/// readable.
fn busy_and_steal_now() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let busy = ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6];
    Some((busy / USER_HZ, *ticks.get(7)? / USER_HZ))
}

/// CPU time this process has used (user + system, all threads, including
/// ones that have exited), in seconds; 0 without `/proc`. Stolen time is
/// not charged to the process.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / USER_HZ
}

/// A background sampler of busy and steal time; times are seconds since
/// `origin`.
pub struct StealClock {
    pub origin: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    sampler: thread::JoinHandle<()>,
}

/// Time since the origin, cumulative busy CPU-seconds, cumulative stolen
/// CPU-seconds.
type Sample = (f64, f64, f64);

impl StealClock {
    pub fn start() -> Self {
        let origin = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (out, done) = (Arc::clone(&samples), Arc::clone(&stop));
        let sampler = thread::spawn(move || loop {
            if let Some((busy, steal)) = busy_and_steal_now() {
                let t = origin.elapsed().as_secs_f64();
                out.lock()
                    .expect("the sampler is the only writer")
                    .push((t, busy, steal));
            }
            if done.load(Ordering::Relaxed) {
                return;
            }
            thread::sleep(SAMPLE_EVERY);
        });
        Self {
            origin,
            samples,
            stop,
            sampler,
        }
    }

    /// Stops and joins the sampler.
    pub fn stop(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().expect("the steal sampler panicked");
        let samples = Arc::try_unwrap(self.samples)
            .map(|m| m.into_inner().expect("the sampler is the only writer"))
            .unwrap_or_default();
        Steal { samples }
    }
}

/// The busy and steal samples of a finished run.
pub struct Steal {
    samples: Vec<Sample>,
}

impl Steal {
    /// Cumulative (busy, steal) at `t`, interpolated between samples.
    fn at(&self, t: f64) -> (f64, f64) {
        let i = self.samples.partition_point(|&(ts, ..)| ts <= t);
        match (
            i.checked_sub(1).map(|j| self.samples[j]),
            self.samples.get(i),
        ) {
            (Some((t0, b0, s0)), Some(&(t1, b1, s1))) => {
                let f = (t - t0) / (t1 - t0);
                (b0 + (b1 - b0) * f, s0 + (s1 - s0) * f)
            }
            (Some((_, b, s)), None) | (None, Some(&(_, b, s))) => (b, s),
            (None, None) => (0.0, 0.0),
        }
    }

    /// The share of the time the CPUs had work to run during `[from, to]`
    /// that the hypervisor withheld. Relative to demand rather than to all
    /// CPUs, it is right for one busy thread as for two: an idle virtual
    /// CPU accrues no steal.
    pub fn share(&self, from: f64, to: f64) -> f64 {
        let ((b0, s0), (b1, s1)) = (self.at(from), self.at(to));
        let (busy, steal) = (b1 - b0, s1 - s0);
        if to <= from || busy + steal <= 0.0 {
            return 0.0;
        }
        (steal / (busy + steal)).clamp(0.0, 0.9)
    }

    /// The steal-adjusted length of `[from, to]`, in seconds.
    pub fn adjusted(&self, from: f64, to: f64) -> f64 {
        (to - from) * (1.0 - self.share(from, to))
    }
}
