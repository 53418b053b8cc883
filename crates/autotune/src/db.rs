//! The persisted tuning database.
//!
//! A database maps `(canonical pattern signature, length bucket, device
//! fingerprint)` to the winning [`TuneConfig`] and its simulated time.
//! The pattern signature is [`AttentionProblem::signature_with_bucket`]
//! — the *same* derivation the serve plan cache keys by — and the device
//! fingerprint is [`DeviceSpec::fingerprint`], so an entry tuned on one
//! machine is valid wherever the same device model is simulated.
//!
//! The on-disk format is versioned JSON. `u64` keys are written as hex
//! strings (a JSON number is an `f64` and loses integer precision past
//! 2^53) and times in shortest round-trip form (the shared
//! [`mg_gpusim::json`] writer), so a save → load → save cycle is
//! byte-identical.

use crate::config::{ExecPolicy, TuneConfig};
use mg_gpusim::json::{parse, Json};
use mg_gpusim::DeviceSpec;
use multigrain::{AttentionProblem, Method};
use std::collections::BTreeMap;
use std::path::Path;

/// Format version of the persisted database. Bumped on any change to the
/// key derivation or entry layout; loaders reject other versions rather
/// than guess.
pub const DB_VERSION: u32 = 1;

/// One lookup key: what was tuned, at which bucketed length, on which
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TuneKey {
    /// [`AttentionProblem::signature_with_bucket`] of the workload.
    pub pattern_sig: u64,
    /// The bucketed valid length the signature was derived at (stored
    /// alongside the hash so [`TuningDb::neighbor`] can measure length
    /// distance without inverting it).
    pub len_bucket: usize,
    /// [`DeviceSpec::fingerprint`] of the simulated device.
    pub device_fp: u64,
}

impl TuneKey {
    /// Derives the key for `problem` served under `len_bucket`-wide
    /// length buckets on `spec`.
    pub fn for_problem(
        problem: &AttentionProblem,
        len_bucket: usize,
        spec: &DeviceSpec,
    ) -> TuneKey {
        let len_bucket = len_bucket.max(1);
        let bucketed_len = problem
            .pattern()
            .valid_len()
            .div_ceil(len_bucket)
            .saturating_mul(len_bucket)
            .clamp(1, problem.pattern().seq_len());
        TuneKey {
            pattern_sig: problem.signature_with_bucket(len_bucket),
            len_bucket: bucketed_len,
            device_fp: spec.fingerprint(),
        }
    }
}

/// One tuning result: the winning configuration and how it was found.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneEntry {
    /// The winning configuration.
    pub config: TuneConfig,
    /// Its simulated time in seconds.
    pub time_s: f64,
    /// How many candidates the search simulated to find it (the tune
    /// cost, in oracle calls).
    pub evals: usize,
    /// Total simulated seconds the search spent across those oracle
    /// calls — the tune cost in device time, used both by serving's
    /// online-tune budget and by amortization accounting (a tune pays
    /// for itself after `tune_cost_s / (baseline - winner)` requests).
    pub tune_cost_s: f64,
    /// Label of the strategy that produced the entry.
    pub strategy: &'static str,
}

/// The tuning database: a deterministic, mergeable map from [`TuneKey`]
/// to [`TuneEntry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningDb {
    entries: BTreeMap<TuneKey, TuneEntry>,
}

impl TuningDb {
    /// An empty database.
    pub fn new() -> TuningDb {
        TuningDb::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for `key`.
    pub fn get(&self, key: &TuneKey) -> Option<&TuneEntry> {
        self.entries.get(key)
    }

    /// Inserts `entry` for `key`, keeping whichever of the old and new
    /// entries has the lower simulated time (ties keep the incumbent, so
    /// re-tuning is idempotent).
    pub fn insert(&mut self, key: TuneKey, entry: TuneEntry) {
        match self.entries.get(&key) {
            Some(old) if old.time_s <= entry.time_s => {}
            _ => {
                self.entries.insert(key, entry);
            }
        }
    }

    /// Folds every entry of `other` in via [`TuningDb::insert`] — the
    /// better time wins per key, so merging partial databases from
    /// sharded tuning runs commutes.
    pub fn merge(&mut self, other: &TuningDb) {
        for (key, entry) in &other.entries {
            self.insert(*key, entry.clone());
        }
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&TuneKey, &TuneEntry)> {
        self.entries.iter()
    }

    /// The entry (for any pattern) on the same device whose bucketed
    /// length is nearest `key.len_bucket` — the greedy strategy's warm
    /// start. Ties in distance resolve to the shorter length; the exact
    /// key itself is excluded (that would be a cache hit, not a seed).
    pub fn neighbor(&self, key: &TuneKey) -> Option<&TuneEntry> {
        self.entries
            .iter()
            .filter(|(k, _)| k.device_fp == key.device_fp && **k != *key)
            .min_by_key(|(k, _)| (k.len_bucket.abs_diff(key.len_bucket), k.len_bucket))
            .map(|(_, entry)| entry)
    }

    /// Serializes the database to its versioned JSON form.
    pub fn to_json(&self) -> String {
        let hex = |v: u64| Json::from(format!("{v:#018x}"));
        let entries = self
            .entries
            .iter()
            .map(|(key, entry)| {
                Json::obj([
                    ("pattern_sig", hex(key.pattern_sig)),
                    ("len_bucket", key.len_bucket.into()),
                    ("device_fp", hex(key.device_fp)),
                    ("method", entry.config.method.name().into()),
                    ("block_size", entry.config.block_size.into()),
                    ("exec", entry.config.exec.label().into()),
                    ("time_s", entry.time_s.into()),
                    ("evals", entry.evals.into()),
                    ("tune_cost_s", entry.tune_cost_s.into()),
                    ("strategy", entry.strategy.into()),
                ])
            })
            .collect();
        Json::obj([
            ("version", u64::from(DB_VERSION).into()),
            ("entries", Json::Arr(entries)),
        ])
        .to_pretty()
    }

    /// Parses a database from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message if the document is malformed, the version does
    /// not equal [`DB_VERSION`], or any entry field is missing or
    /// ill-typed.
    pub fn from_json(text: &str) -> Result<TuningDb, String> {
        let doc = parse(text)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing \"version\"")?;
        if version != u64::from(DB_VERSION) {
            return Err(format!(
                "tuning database version {version} is not the supported version {DB_VERSION}"
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing \"entries\" array")?;
        let mut db = TuningDb::new();
        for (i, item) in entries.iter().enumerate() {
            let field = |name: &str| {
                item.get(name)
                    .ok_or_else(|| format!("entry {i}: missing \"{name}\""))
            };
            let hex = |name: &str| -> Result<u64, String> {
                let s = field(name)?
                    .as_str()
                    .ok_or_else(|| format!("entry {i}: \"{name}\" is not a string"))?;
                let digits = s.strip_prefix("0x").unwrap_or(s);
                u64::from_str_radix(digits, 16)
                    .map_err(|_| format!("entry {i}: bad hex in \"{name}\""))
            };
            let key = TuneKey {
                pattern_sig: hex("pattern_sig")?,
                len_bucket: field("len_bucket")?
                    .as_u64()
                    .ok_or_else(|| format!("entry {i}: bad \"len_bucket\""))?
                    as usize,
                device_fp: hex("device_fp")?,
            };
            let method_name = field("method")?
                .as_str()
                .ok_or_else(|| format!("entry {i}: \"method\" is not a string"))?;
            let method = Method::EXTENDED
                .into_iter()
                .find(|m| m.name() == method_name)
                .ok_or_else(|| format!("entry {i}: unknown method \"{method_name}\""))?;
            let exec_label = field("exec")?
                .as_str()
                .ok_or_else(|| format!("entry {i}: \"exec\" is not a string"))?;
            let exec = ExecPolicy::from_label(exec_label)
                .ok_or_else(|| format!("entry {i}: unknown exec policy \"{exec_label}\""))?;
            let strategy_label = field("strategy")?
                .as_str()
                .ok_or_else(|| format!("entry {i}: \"strategy\" is not a string"))?;
            let entry = TuneEntry {
                config: TuneConfig {
                    method,
                    block_size: field("block_size")?
                        .as_u64()
                        .ok_or_else(|| format!("entry {i}: bad \"block_size\""))?
                        as usize,
                    exec,
                },
                time_s: field("time_s")?
                    .as_f64()
                    .ok_or_else(|| format!("entry {i}: bad \"time_s\""))?,
                evals: field("evals")?
                    .as_u64()
                    .ok_or_else(|| format!("entry {i}: bad \"evals\""))?
                    as usize,
                tune_cost_s: field("tune_cost_s")?
                    .as_f64()
                    .ok_or_else(|| format!("entry {i}: bad \"tune_cost_s\""))?,
                strategy: intern_strategy(strategy_label),
            };
            db.insert(key, entry);
        }
        Ok(db)
    }

    /// Writes the database to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error message on failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {path:?}: {e}"))
    }

    /// Loads a database from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse/version errors as messages.
    pub fn load(path: &Path) -> Result<TuningDb, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        TuningDb::from_json(&text)
    }
}

/// The strategy labels are a closed set known at compile time; loading
/// maps each back to its `'static` form (unknown labels — from a future
/// minor revision, say — fall back to a generic label rather than
/// erroring, since the field is informational).
fn intern_strategy(label: &str) -> &'static str {
    for known in ["exhaustive", "pruned-grid", "greedy", "fallback"] {
        if label == known {
            return known;
        }
    }
    "unknown"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(method: Method, block: usize, time_s: f64) -> TuneEntry {
        TuneEntry {
            config: TuneConfig {
                method,
                block_size: block,
                exec: ExecPolicy::RoleStreams,
            },
            time_s,
            evals: 23,
            tune_cost_s: time_s * 23.0,
            strategy: "exhaustive",
        }
    }

    fn key(sig: u64, len: usize, fp: u64) -> TuneKey {
        TuneKey {
            pattern_sig: sig,
            len_bucket: len,
            device_fp: fp,
        }
    }

    #[test]
    fn insert_keeps_the_faster_entry() {
        let mut db = TuningDb::new();
        db.insert(key(1, 64, 9), entry(Method::Multigrain, 32, 2e-5));
        db.insert(key(1, 64, 9), entry(Method::TritonStyle, 16, 3e-5));
        assert_eq!(
            db.get(&key(1, 64, 9)).unwrap().config.method,
            Method::Multigrain
        );
        db.insert(key(1, 64, 9), entry(Method::TritonStyle, 16, 1e-5));
        assert_eq!(
            db.get(&key(1, 64, 9)).unwrap().config.method,
            Method::TritonStyle
        );
    }

    #[test]
    fn neighbor_prefers_nearest_length_on_same_device() {
        let mut db = TuningDb::new();
        db.insert(key(1, 64, 9), entry(Method::Multigrain, 8, 1.0));
        db.insert(key(2, 256, 9), entry(Method::TritonStyle, 16, 1.0));
        db.insert(key(3, 128, 7), entry(Method::SputnikStyle, 32, 1.0));
        let probe = key(4, 128, 9);
        // Same-device 64 and 256 tie at distance 64; shorter wins.
        assert_eq!(
            db.neighbor(&probe).unwrap().config.method,
            Method::Multigrain
        );
        // An exact-key entry is never its own neighbor.
        db.insert(probe, entry(Method::FusedStyle, 8, 1.0));
        assert_eq!(
            db.neighbor(&probe).unwrap().config.method,
            Method::Multigrain
        );
        // A different device sees only its own entries.
        assert_eq!(
            db.neighbor(&key(4, 128, 7)).unwrap().config.method,
            Method::SputnikStyle
        );
        assert!(db.neighbor(&key(4, 128, 99)).is_none());
    }

    #[test]
    fn merge_commutes_and_keeps_winners() {
        let mut a = TuningDb::new();
        a.insert(key(1, 64, 9), entry(Method::Multigrain, 32, 2e-5));
        a.insert(key(2, 128, 9), entry(Method::TritonStyle, 64, 5e-5));
        let mut b = TuningDb::new();
        b.insert(key(1, 64, 9), entry(Method::SputnikStyle, 8, 1e-5));
        b.insert(key(3, 256, 7), entry(Method::FusedStyle, 8, 4e-5));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.len(), 3);
        assert_eq!(
            ab.get(&key(1, 64, 9)).unwrap().config.method,
            Method::SputnikStyle
        );
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut db = TuningDb::new();
        db.insert(
            key(0xdead_beef, 64, 0x69a3),
            entry(Method::Multigrain, 32, 1.2345e-5),
        );
        db.insert(
            key(7, 128, 0x69a3),
            entry(Method::FusedStyle, 8, f64::MIN_POSITIVE),
        );
        let text = db.to_json();
        let loaded = TuningDb::from_json(&text).expect("loads");
        assert_eq!(loaded, db);
        assert_eq!(loaded.to_json(), text);
        // Empty databases round-trip too.
        let empty = TuningDb::new();
        assert_eq!(TuningDb::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn the_previous_writer_layout_still_loads() {
        // Written before the shared writer: every time printed with
        // `{:?}`, so integral values carried a `.0`.
        let text = "{\n  \"version\": 1,\n  \"entries\": [\n    \
            {\"pattern_sig\": \"0x00000000deadbeef\", \"len_bucket\": 64, \
            \"device_fp\": \"0x0000000000000003\", \"method\": \"Multigrain\", \
            \"block_size\": 32, \"exec\": \"role-streams\", \"time_s\": 2.0, \
            \"evals\": 23, \"tune_cost_s\": 46.0, \"strategy\": \"exhaustive\"}\n  ]\n}\n";
        let mut expected = TuningDb::new();
        expected.insert(key(0xdead_beef, 64, 3), entry(Method::Multigrain, 32, 2.0));
        assert_eq!(TuningDb::from_json(text).expect("loads"), expected);
        assert_eq!(text.replace(".0,", ","), expected.to_json());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = TuningDb::new().to_json().replace(
            &format!("\"version\": {DB_VERSION}"),
            &format!("\"version\": {}", DB_VERSION + 1),
        );
        let err = TuningDb::from_json(&text).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn malformed_entries_are_rejected() {
        for (needle, replacement) in [
            ("\"method\": \"Multigrain\"", "\"method\": \"Magic\""),
            ("\"exec\": \"role-streams\"", "\"exec\": \"warp\""),
            (
                "\"pattern_sig\": \"0x00000000deadbeef\"",
                "\"pattern_sig\": \"zz\"",
            ),
            ("\"time_s\": ", "\"wrong_key\": "),
        ] {
            let mut db = TuningDb::new();
            db.insert(key(0xdead_beef, 64, 3), entry(Method::Multigrain, 32, 1e-5));
            let text = db.to_json().replace(needle, replacement);
            assert_ne!(text, db.to_json(), "replacement {needle:?} must apply");
            assert!(TuningDb::from_json(&text).is_err(), "{needle}");
        }
    }
}
