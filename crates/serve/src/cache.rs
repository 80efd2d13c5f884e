//! The content-addressed result cache.
//!
//! One file per job, named by the job's cache key (`<key>.json` under
//! `<state-dir>/cache/`), written atomically via [`gnoc_core::atomic_write`].
//! Each entry wraps the canonical payload *as a JSON string* together with
//! its own FNV-1a hash:
//!
//! ```json
//! {"schema":1,"key":"<16 hex>","payload_fnv":"<16 hex>","payload":"{...}"}
//! ```
//!
//! Storing the payload as an escaped string (not a nested object) means the
//! exact payload bytes survive the round trip — no re-serialization step
//! that could reorder fields or reformat numbers — so a cache hit is
//! byte-identical to the cold result by construction.
//!
//! **Integrity on read**: a hit is served only if the file parses, its
//! embedded key matches the requested key, and the payload's recomputed
//! hash matches `payload_fnv`. Anything else (truncation, bit rot, a stale
//! rename from a different format) evicts the entry and reports a miss, so
//! a corrupt result is recomputed, never served.

use crate::protocol::{json_str, SCHEMA};
use gnoc_core::trace::fnv1a64;
use serde::Value;
use std::path::{Path, PathBuf};

/// On-disk result cache rooted at `<state-dir>/cache`.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

/// Why a lookup missed (hits carry the payload instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissReason {
    /// No entry for this key.
    Absent,
    /// An entry existed but failed integrity verification and was evicted.
    Evicted(String),
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(state_dir: &Path) -> std::io::Result<Self> {
        let dir = state_dir.join("cache");
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up `key`, verifying integrity. Returns the exact payload bytes
    /// on a hit; on any verification failure the entry is evicted (deleted)
    /// and the failure reason reported so the caller can recompute.
    pub fn get(&self, key: &str) -> Result<String, MissReason> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Err(MissReason::Absent),
        };
        match Self::verify(key, &text) {
            Ok(payload) => Ok(payload),
            Err(why) => {
                let _ = std::fs::remove_file(&path);
                Err(MissReason::Evicted(why))
            }
        }
    }

    fn verify(key: &str, text: &str) -> Result<String, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("entry is not JSON: {e:?}"))?;
        match value.field("schema").ok().and_then(Value::as_u64) {
            Some(SCHEMA) => {}
            other => return Err(format!("entry schema is {other:?}, expected {SCHEMA}")),
        }
        let stored_key = value
            .field("key")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| "entry has no key".to_string())?;
        if stored_key != key {
            return Err(format!("entry key {stored_key} does not match file {key}"));
        }
        let payload = value
            .field("payload")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| "entry has no payload".to_string())?
            .to_string();
        let stored_fnv = value
            .field("payload_fnv")
            .ok()
            .and_then(Value::as_str)
            .ok_or_else(|| "entry has no payload_fnv".to_string())?;
        let actual = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if stored_fnv != actual {
            return Err(format!(
                "payload hash mismatch: stored {stored_fnv}, actual {actual}"
            ));
        }
        Ok(payload)
    }

    /// Stores `payload` (canonical single-line JSON) under `key`, atomically
    /// and durably.
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write.
    pub fn put(&self, key: &str, payload: &str) -> std::io::Result<()> {
        let entry = format!(
            "{{\"schema\":{SCHEMA},\"key\":{},\"payload_fnv\":\"{:016x}\",\"payload\":{}}}\n",
            json_str(key),
            fnv1a64(payload.as_bytes()),
            json_str(payload)
        );
        gnoc_core::atomic_write(&self.entry_path(key), entry.as_bytes())
    }

    /// Number of entries currently on disk (for health snapshots).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| rd.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The path an entry for `key` would live at (tests corrupt it).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.entry_path(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gnoc-serve-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let cache = ResultCache::open(&scratch("rt")).unwrap();
        let payload = "{\"kind\":\"mesh\",\"mean_latency\":12.500000}";
        cache.put("00ff", payload).unwrap();
        assert_eq!(cache.get("00ff").unwrap(), payload);
    }

    #[test]
    fn corrupt_entry_is_evicted_not_served() {
        let cache = ResultCache::open(&scratch("corrupt")).unwrap();
        cache.put("aa11", "{\"kind\":\"mesh\"}").unwrap();
        // Flip bytes inside the stored payload: hash check must catch it.
        let path = cache.path_for("aa11");
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("mesh", "mush");
        std::fs::write(&path, tampered).unwrap();
        match cache.get("aa11") {
            Err(MissReason::Evicted(why)) => assert!(why.contains("hash mismatch"), "{why}"),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(cache.get("aa11"), Err(MissReason::Absent));
    }

    #[test]
    fn truncated_entry_is_evicted() {
        let cache = ResultCache::open(&scratch("trunc")).unwrap();
        cache
            .put("bb22", "{\"kind\":\"chaos\",\"clean\":true}")
            .unwrap();
        let path = cache.path_for("bb22");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(cache.get("bb22"), Err(MissReason::Evicted(_))));
        assert!(!path.exists());
    }

    #[test]
    fn key_mismatch_is_evicted() {
        let cache = ResultCache::open(&scratch("keymix")).unwrap();
        cache.put("cc33", "{\"kind\":\"mesh\"}").unwrap();
        // Simulate an entry renamed onto the wrong key.
        std::fs::copy(cache.path_for("cc33"), cache.path_for("dd44")).unwrap();
        assert!(matches!(cache.get("dd44"), Err(MissReason::Evicted(_))));
        assert_eq!(cache.get("cc33").unwrap(), "{\"kind\":\"mesh\"}");
    }
}
