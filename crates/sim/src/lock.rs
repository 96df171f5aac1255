//! Advisory file locking and bounded retry/backoff for the sweep cache.
//!
//! The record cache already writes atomically (temp file + rename), so
//! readers can never observe a torn entry. What atomic renames alone do not
//! give is *single-writer discipline*: two orchestrators (or a daemon
//! worker and the background scrubber) racing on one entry would both pay
//! for the same Monte-Carlo sampling, and a scrubber must never quarantine
//! or evict an entry another process is mid-way through (re)writing.
//!
//! `FileLock` implements the portable std-only discipline: a lock is an
//! `O_EXCL`-created sidecar file (`<key>.lock`) holding the owner's pid.
//! Acquisition retries with exponential backoff ([`Backoff`]) up to a
//! bounded wait, and locks whose mtime is older than a staleness threshold
//! are broken — a crashed or SIGKILLed holder cannot wedge the cache
//! forever. The lock is advisory by design: a holder crash, an NFS quirk or
//! an impatient contender can at worst cause duplicated work, never a
//! corrupt entry, because the rename underneath stays atomic.
//!
//! # Example
//!
//! ```
//! use raa_sim::lock::LockOptions;
//! use raa_sim::orchestrator::Orchestrator;
//! use std::time::Duration;
//!
//! // Give up on a contended cache entry after 50 ms instead of the default.
//! let opts = LockOptions {
//!     wait: Duration::from_millis(50),
//!     ..LockOptions::default()
//! };
//! assert!(opts.stale_after > opts.wait);
//! let _orchestrator = Orchestrator::new().with_lock_options(opts);
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// A bounded exponential-backoff schedule: `attempts` tries, sleeping
/// `base * 2^i` (capped at `cap`) between consecutive tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (>= 1).
    pub(crate) attempts: u32,
    /// Delay before the second attempt.
    pub(crate) base: Duration,
    /// Upper bound on any single delay.
    pub(crate) cap: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            attempts: 5,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
        }
    }
}

impl Backoff {
    /// The delay to sleep after failed attempt `attempt` (0-based), or
    /// `None` once the budget is exhausted.
    pub(crate) fn delay_after(&self, attempt: u32) -> Option<Duration> {
        if attempt + 1 >= self.attempts {
            return None;
        }
        let factor = 1u32 << attempt.min(16);
        Some((self.base * factor).min(self.cap))
    }
}

/// Runs `op` under a bounded retry/backoff schedule, returning the first
/// success or the *last* error once the attempt budget is spent. Built for
/// transient cache I/O contention (e.g. a rename racing a scrubber on a
/// network filesystem); the op must be idempotent.
pub(crate) fn retry_io<T>(
    backoff: &Backoff,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => match backoff.delay_after(attempt) {
                Some(delay) => {
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                None => return Err(e),
            },
        }
    }
}

/// How long an acquisition waits, how it backs off, and when a competing
/// lock is considered abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockOptions {
    /// Total time to keep retrying before giving up with
    /// `LockError::Timeout`.
    pub wait: Duration,
    /// Backoff schedule between acquisition attempts (its `attempts` field
    /// is ignored here — `wait` bounds the loop).
    pub backoff: Backoff,
    /// A lock file whose mtime is older than this is treated as abandoned
    /// by a dead process and broken. Keep it comfortably above the longest
    /// critical section (a cache-entry write, not a whole sweep).
    pub stale_after: Duration,
}

impl Default for LockOptions {
    fn default() -> Self {
        Self {
            wait: Duration::from_secs(10),
            backoff: Backoff::default(),
            stale_after: Duration::from_secs(60),
        }
    }
}

/// Why a lock could not be acquired.
#[derive(Debug)]
pub(crate) enum LockError {
    /// The lock stayed held (and fresh) for the whole bounded wait.
    Timeout {
        /// The contended lock file.
        path: PathBuf,
        /// How long the acquisition waited.
        waited: Duration,
    },
    /// Filesystem-level failure creating or inspecting the lock file.
    Io {
        /// The lock file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout { path, waited } => {
                write!(f, "lock {} still held after {:?}", path.display(), waited)
            }
            LockError::Io { path, source } => {
                write!(f, "lock I/O on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LockError::Io { source, .. } => Some(source),
            LockError::Timeout { .. } => None,
        }
    }
}

/// An acquired advisory lock; released (the lock file unlinked) on drop, or
/// explicitly via [`FileLock::release`]. Dropping during an unwind releases
/// too, so a panicking critical section cannot leave a fresh lock behind.
#[derive(Debug)]
pub(crate) struct FileLock {
    path: PathBuf,
    released: bool,
}

impl FileLock {
    /// Acquires the lock at `path`, retrying with exponential backoff for
    /// up to `opts.wait` and breaking locks older than `opts.stale_after`.
    ///
    /// # Errors
    ///
    /// [`LockError::Timeout`] when the lock stays held past the bounded
    /// wait; [`LockError::Io`] on filesystem failure.
    pub(crate) fn acquire(path: impl Into<PathBuf>, opts: &LockOptions) -> Result<Self, LockError> {
        let path = path.into();
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => {
                    use io::Write;
                    // Ownership breadcrumb for humans debugging a wedged
                    // cache; correctness never depends on the contents.
                    let _ = writeln!(&file, "pid {}", std::process::id());
                    return Ok(Self {
                        path,
                        released: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path, opts.stale_after) {
                        // Break it and retry immediately. Racing breakers
                        // are fine: remove is idempotent (NotFound ignored)
                        // and create_new above still admits exactly one
                        // winner.
                        match fs::remove_file(&path) {
                            Ok(()) => continue,
                            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                            Err(source) => return Err(LockError::Io { path, source }),
                        }
                    }
                }
                Err(source) => return Err(LockError::Io { path, source }),
            }
            let waited = start.elapsed();
            if waited >= opts.wait {
                return Err(LockError::Timeout { path, waited });
            }
            let delay = opts
                .backoff
                .delay_after(attempt)
                .unwrap_or(opts.backoff.cap)
                .min(opts.wait.saturating_sub(waited));
            std::thread::sleep(delay.max(Duration::from_millis(1)));
            attempt = attempt.saturating_add(1);
        }
    }

    /// Releases the lock, reporting unlink failures (drop would swallow
    /// them).
    pub(crate) fn release(mut self) -> io::Result<()> {
        self.released = true;
        match fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        if !self.released {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Whether the lock file at `path` is older than `stale_after`. Missing
/// files and unreadable metadata count as *not* stale — the acquisition
/// loop will re-race `create_new` instead of destroying evidence.
fn lock_is_stale(path: &Path, stale_after: Duration) -> bool {
    let Ok(meta) = fs::metadata(path) else {
        return false;
    };
    let Ok(modified) = meta.modified() else {
        return false;
    };
    SystemTime::now()
        .duration_since(modified)
        .map(|age| age > stale_after)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "raa-sim-lock-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn acquire_release_cycle() {
        let tmp = TempDir::new("cycle");
        let path = tmp.0.join("x.lock");
        let lock = FileLock::acquire(&path, &LockOptions::default()).unwrap();
        assert!(path.exists());
        lock.release().unwrap();
        assert!(!path.exists());
        // Reacquirable after release, and drop releases too.
        let lock = FileLock::acquire(&path, &LockOptions::default()).unwrap();
        drop(lock);
        assert!(!path.exists());
    }

    #[test]
    fn held_lock_times_out_fast_contender() {
        let tmp = TempDir::new("timeout");
        let path = tmp.0.join("x.lock");
        let _held = FileLock::acquire(&path, &LockOptions::default()).unwrap();
        let opts = LockOptions {
            wait: Duration::from_millis(30),
            stale_after: Duration::from_secs(60),
            ..LockOptions::default()
        };
        match FileLock::acquire(&path, &opts) {
            Err(LockError::Timeout { waited, .. }) => {
                assert!(waited >= Duration::from_millis(30))
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn contending_threads_serialize_through_the_lock() {
        let tmp = TempDir::new("contend");
        let path = tmp.0.join("x.lock");
        let in_section = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (path, in_section, max_seen) =
                    (path.clone(), in_section.clone(), max_seen.clone());
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let lock = FileLock::acquire(
                            &path,
                            &LockOptions {
                                wait: Duration::from_secs(30),
                                ..LockOptions::default()
                            },
                        )
                        .unwrap();
                        let n = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(n, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        in_section.fetch_sub(1, Ordering::SeqCst);
                        lock.release().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "mutual exclusion");
    }

    #[test]
    fn stale_lock_from_dead_process_is_broken() {
        let tmp = TempDir::new("stale");
        let path = tmp.0.join("x.lock");
        fs::write(&path, "pid 999999\n").unwrap();
        std::thread::sleep(Duration::from_millis(15));
        let opts = LockOptions {
            wait: Duration::from_millis(200),
            stale_after: Duration::from_millis(10),
            ..LockOptions::default()
        };
        let lock = FileLock::acquire(&path, &opts).expect("stale lock must break");
        lock.release().unwrap();
    }

    #[test]
    fn panicking_critical_section_releases_via_drop() {
        let tmp = TempDir::new("panic");
        let path = tmp.0.join("x.lock");
        let path2 = path.clone();
        let result = std::panic::catch_unwind(move || {
            let _lock = FileLock::acquire(&path2, &LockOptions::default()).unwrap();
            panic!("mid-section");
        });
        assert!(result.is_err());
        assert!(!path.exists(), "unwind must release the lock");
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let b = Backoff {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(25),
        };
        assert_eq!(b.delay_after(0), Some(Duration::from_millis(10)));
        assert_eq!(b.delay_after(1), Some(Duration::from_millis(20)));
        assert_eq!(b.delay_after(2), Some(Duration::from_millis(25)), "capped");
        assert_eq!(b.delay_after(3), Some(Duration::from_millis(25)));
        assert_eq!(b.delay_after(4), None, "budget spent");
    }

    #[test]
    fn retry_io_retries_transient_failures_then_succeeds() {
        let calls = AtomicUsize::new(0);
        let out = retry_io(
            &Backoff {
                attempts: 4,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            || {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(io::Error::other("transient"))
                } else {
                    Ok(7)
                }
            },
        )
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // Exhausted budget surfaces the last error.
        let err = retry_io::<()>(
            &Backoff {
                attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(1),
            },
            || Err(io::Error::other("persistent")),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "persistent");
    }
}
