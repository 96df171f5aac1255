//! Typed errors for the sweep orchestrator and service layers.
//!
//! PR 5's orchestrator surfaced every failure as a bare [`io::Result`],
//! which flattened semantically different situations — a full disk, a
//! corrupt cache entry, a panicking grid point, a wedged lock — into one
//! stringly error. [`OrchestratorError`] separates them so callers can
//! react per failure class: the daemon quarantines poisoned points and
//! keeps serving, a CLI prints the corrupt entry's path, a retry loop knows
//! a lock timeout is transient where a pool-build failure is not.

use crate::lock::LockError;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// A grid point whose engine run panicked. The point is identified both by
/// position (`index` into the submitted spec list) and by content (`key`,
/// the spec's cache key) — the latter is what quarantine lists match on, so
/// the same pathological point is refused across jobs no matter where it
/// appears in a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedPoint {
    /// Index into the spec list the point came from.
    pub index: usize,
    /// The spec's name (for human-readable reports).
    pub(crate) name: String,
    /// The spec's content-addressed cache key (what quarantine matches on).
    pub key: String,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl fmt::Display for PoisonedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point #{} ({}) panicked: {}",
            self.index, self.name, self.message
        )
    }
}

/// Why an orchestrated sweep (or one of its points) failed.
#[derive(Debug)]
pub enum OrchestratorError {
    /// Cache I/O failed past the bounded retry budget.
    Io {
        /// What the orchestrator was doing (e.g. "persisting cache entry").
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A cache entry failed validation (unparsable bytes, or a record whose
    /// spec echo contradicts itself). During sweeps this is self-healing
    /// (the point is recomputed); the scrubber and strict validators
    /// surface it.
    CorruptEntry {
        /// The offending entry file.
        path: PathBuf,
        /// What validation tripped on.
        detail: String,
    },
    /// A grid point's engine run panicked and panic isolation was off, so
    /// the job fails as a whole (the process survives either way).
    Poisoned(PoisonedPoint),
    /// An advisory cache lock stayed held past the bounded wait.
    LockTimeout {
        /// The contended lock file.
        path: PathBuf,
        /// How long the acquisition waited.
        waited: Duration,
    },
    /// The point-parallel worker pool could not be built (a bad
    /// thread-count configuration fails the job, not the process).
    PoolBuild {
        /// The requested point-thread count.
        requested: usize,
        /// The pool builder's error.
        detail: String,
    },
}

impl fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestratorError::Io { context, source } => write!(f, "{context}: {source}"),
            OrchestratorError::CorruptEntry { path, detail } => {
                write!(f, "corrupt cache entry {}: {detail}", path.display())
            }
            OrchestratorError::Poisoned(p) => write!(f, "poisoned {p}"),
            OrchestratorError::LockTimeout { path, waited } => write!(
                f,
                "cache lock {} still held after {waited:?}",
                path.display()
            ),
            OrchestratorError::PoolBuild { requested, detail } => write!(
                f,
                "building the sweep point pool ({requested} threads) failed: {detail}"
            ),
        }
    }
}

impl std::error::Error for OrchestratorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestratorError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for OrchestratorError {
    fn from(source: io::Error) -> Self {
        OrchestratorError::Io {
            context: "cache I/O".into(),
            source,
        }
    }
}

impl From<raa_decode::mc::McError> for OrchestratorError {
    fn from(e: raa_decode::mc::McError) -> Self {
        match e {
            raa_decode::mc::McError::PoolBuild { requested, detail } => {
                OrchestratorError::PoolBuild { requested, detail }
            }
        }
    }
}

impl From<LockError> for OrchestratorError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Timeout { path, waited } => OrchestratorError::LockTimeout { path, waited },
            LockError::Io { path, source } => OrchestratorError::Io {
                context: format!("cache lock I/O on {}", path.display()),
                source,
            },
        }
    }
}

impl OrchestratorError {
    /// Attaches a human-readable context to an [`io::Error`].
    pub(crate) fn io(context: impl Into<String>, source: io::Error) -> Self {
        OrchestratorError::Io {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let poisoned = PoisonedPoint {
            index: 3,
            name: "g/d3".into(),
            key: "ab".repeat(16),
            message: "boom".into(),
        };
        let cases: Vec<(OrchestratorError, &str)> = vec![
            (
                OrchestratorError::io("writing entry", io::Error::other("x")),
                "writing entry",
            ),
            (
                OrchestratorError::CorruptEntry {
                    path: "/c/e.json".into(),
                    detail: "bad json".into(),
                },
                "corrupt cache entry",
            ),
            (OrchestratorError::Poisoned(poisoned.clone()), "panicked"),
            (
                OrchestratorError::LockTimeout {
                    path: "/c/e.lock".into(),
                    waited: Duration::from_millis(10),
                },
                "still held",
            ),
            (
                OrchestratorError::PoolBuild {
                    requested: 7,
                    detail: "nope".into(),
                },
                "point pool",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
        assert!(poisoned.to_string().contains("point #3"));
    }

    #[test]
    fn lock_error_converts_by_class() {
        let timeout = LockError::Timeout {
            path: "/x.lock".into(),
            waited: Duration::from_secs(1),
        };
        assert!(matches!(
            OrchestratorError::from(timeout),
            OrchestratorError::LockTimeout { .. }
        ));
        let io_err = LockError::Io {
            path: "/x.lock".into(),
            source: io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(matches!(
            OrchestratorError::from(io_err),
            OrchestratorError::Io { .. }
        ));
    }
}
