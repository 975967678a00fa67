//! Checksummed memoization of completed scenario results.
//!
//! Repeated scenarios are the common case for a capacity-planning
//! service (many clients asking about the same roster); the cache turns
//! them into file reads. Each entry is one file,
//! `<key>.memo`, holding `<fnv1a64 hex> <payload>` — the same
//! line-checksum scheme as the supervision journal — written via
//! [`atomic_write`] so a crash can never leave a torn entry visible. A
//! corrupt or truncated entry is reported as [`MemoLookup::Corrupt`]
//! and the caller falls back to a cold run (and rewrites the entry),
//! so cache damage degrades throughput, never correctness.

use std::path::{Path, PathBuf};

use soe_workloads::hash::fnv1a64;

use crate::supervise::atomic_write;

/// The outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoLookup {
    /// A validated payload.
    Hit(String),
    /// No entry for this key.
    Miss,
    /// An entry exists but failed validation (reason attached); treat
    /// as a miss and overwrite.
    Corrupt(String),
}

/// A directory of checksummed memo entries.
#[derive(Debug, Clone)]
pub struct MemoCache {
    dir: PathBuf,
}

impl MemoCache {
    /// Opens (creating if absent) the cache directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!("creating memo cache dir {}: {e}", dir.display()),
            )
        })?;
        Ok(Self { dir })
    }

    /// The cache directory.
    // soe-lint: allow(dead-pub): memo.rs's corruption tests locate entry files with it
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.memo"))
    }

    /// Probes the cache for `key`. Never fails: unreadable or invalid
    /// entries are reported as [`MemoLookup::Corrupt`].
    pub fn load(&self, key: &str) -> MemoLookup {
        let path = self.entry_path(key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return MemoLookup::Miss,
            Err(e) => return MemoLookup::Corrupt(format!("reading {}: {e}", path.display())),
        };
        let line = raw.trim_end_matches('\n');
        let Some((hex, payload)) = line.split_once(' ') else {
            return MemoLookup::Corrupt(format!("{}: missing checksum field", path.display()));
        };
        if hex.len() != 16 {
            return MemoLookup::Corrupt(format!("{}: malformed checksum", path.display()));
        }
        let Ok(sum) = u64::from_str_radix(hex, 16) else {
            return MemoLookup::Corrupt(format!("{}: non-hex checksum", path.display()));
        };
        if fnv1a64(payload.as_bytes()) != sum {
            return MemoLookup::Corrupt(format!("{}: checksum mismatch", path.display()));
        }
        MemoLookup::Hit(payload.to_string())
    }

    /// Stores `payload` under `key`, atomically (write-to-temp, fsync,
    /// rename, fsync parent).
    ///
    /// # Errors
    ///
    /// Any I/O error from the atomic write; `payload` must be a single
    /// line (scenario results are compact JSON).
    pub fn store(&self, key: &str, payload: &str) -> std::io::Result<()> {
        if payload.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("memo payload for {key} must be a single line"),
            ));
        }
        let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
        atomic_write(&self.entry_path(key), line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(tag: &str) -> MemoCache {
        let dir = std::env::temp_dir().join(format!("soe-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MemoCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_hits() {
        let c = cache("hit");
        assert_eq!(c.load("k1"), MemoLookup::Miss);
        c.store("k1", "{\"x\":1}").unwrap();
        assert_eq!(c.load("k1"), MemoLookup::Hit("{\"x\":1}".to_string()));
    }

    #[test]
    fn corruption_is_detected_and_overwritable() {
        let c = cache("corrupt");
        c.store("k", "payload").unwrap();
        let path = c.dir().join("k.memo");
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw = raw.replace("payload", "tampered");
        atomic_write(&path, raw.as_bytes()).unwrap();
        assert!(matches!(c.load("k"), MemoLookup::Corrupt(_)));
        // The fallback path rewrites the entry; subsequent loads hit.
        c.store("k", "fresh").unwrap();
        assert_eq!(c.load("k"), MemoLookup::Hit("fresh".to_string()));
    }

    #[test]
    fn truncated_entries_are_corrupt_not_fatal() {
        let c = cache("trunc");
        c.store("k", "payload").unwrap();
        let path = c.dir().join("k.memo");
        atomic_write(&path, b"deadbeef").unwrap();
        assert!(matches!(c.load("k"), MemoLookup::Corrupt(_)));
    }

    #[test]
    fn multiline_payloads_are_rejected() {
        let c = cache("multiline");
        assert!(c.store("k", "a\nb").is_err());
    }
}
