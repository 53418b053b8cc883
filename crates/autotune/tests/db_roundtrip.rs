//! Property tests for the persisted tuning database: arbitrary
//! databases survive save → load → save byte-identically, merging is
//! commutative and keeps per-key winners, and files round-trip through
//! disk.

use mg_autotune::{ExecPolicy, TuneConfig, TuneEntry, TuneKey, TuningDb, DB_VERSION};
use multigrain::Method;
use proptest::prelude::*;

const BLOCKS: [usize; 6] = [8, 16, 24, 32, 64, 128];

fn arb_entry() -> impl Strategy<Value = (TuneKey, TuneEntry)> {
    (
        (any::<u64>(), 1usize..=4096, any::<u64>()),
        (0usize..4, 0usize..BLOCKS.len(), 0usize..3),
        // Positive, finite times spanning many orders of magnitude.
        (1e-9f64..1e3, 0usize..64),
    )
        .prop_map(
            |((sig, len, fp), (method_i, block_i, exec_i), (time_s, evals))| {
                (
                    TuneKey {
                        pattern_sig: sig,
                        len_bucket: len,
                        device_fp: fp,
                    },
                    TuneEntry {
                        config: TuneConfig {
                            method: Method::EXTENDED[method_i],
                            block_size: BLOCKS[block_i],
                            exec: ExecPolicy::ALL[exec_i],
                        },
                        time_s,
                        evals,
                        tune_cost_s: time_s * (evals as f64 + 1.0),
                        strategy: "exhaustive",
                    },
                )
            },
        )
}

fn db_of(entries: &[(TuneKey, TuneEntry)]) -> TuningDb {
    let mut db = TuningDb::new();
    for (key, entry) in entries {
        db.insert(*key, entry.clone());
    }
    db
}

proptest! {
    #[test]
    fn save_load_save_is_byte_identical(entries in collection::vec(arb_entry(), 0..24)) {
        let db = db_of(&entries);
        let text = db.to_json();
        let loaded = TuningDb::from_json(&text).expect("well-formed database loads");
        prop_assert_eq!(&loaded, &db);
        prop_assert_eq!(loaded.to_json(), text);
    }

    #[test]
    fn merge_commutes_and_keeps_per_key_winners(
        a in collection::vec(arb_entry(), 0..16),
        b in collection::vec(arb_entry(), 0..16),
    ) {
        let da = db_of(&a);
        let db_ = db_of(&b);
        let mut ab = da.clone();
        ab.merge(&db_);
        let mut ba = db_.clone();
        ba.merge(&da);
        prop_assert_eq!(&ab, &ba);
        // Every key resolves to the fastest entry seen for it anywhere.
        for (key, entry) in a.iter().chain(&b) {
            let winner = ab.get(key).expect("merged db keeps every key");
            prop_assert!(winner.time_s <= entry.time_s);
        }
    }

    #[test]
    fn foreign_versions_are_rejected(version in 0u64..1000) {
        prop_assume!(version != u64::from(DB_VERSION));
        let text = format!("{{\"version\": {version}, \"entries\": []}}");
        prop_assert!(TuningDb::from_json(&text).is_err());
    }
}

#[test]
fn file_round_trip() {
    let mut db = TuningDb::new();
    db.insert(
        TuneKey {
            pattern_sig: 0x1234_5678_9abc_def0,
            len_bucket: 128,
            device_fp: 0x69a3_ec57_039a_79d0,
        },
        TuneEntry {
            config: TuneConfig {
                method: Method::Multigrain,
                block_size: 64,
                exec: ExecPolicy::Pipelined,
            },
            time_s: 4.2e-5,
            evals: 23,
            tune_cost_s: 9.7e-4,
            strategy: "pruned-grid",
        },
    );
    let dir = std::env::temp_dir().join("mg_autotune_db_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tuning_db.json");
    db.save(&path).expect("saves");
    let loaded = TuningDb::load(&path).expect("loads");
    assert_eq!(loaded, db);
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_reports_missing_files() {
    let err = TuningDb::load(std::path::Path::new("/nonexistent/tuning_db.json")).unwrap_err();
    assert!(err.contains("reading"), "{err}");
}

#[test]
fn deeply_nested_input_is_an_error_not_a_crash() {
    // A database file is untrusted input: 100k nested arrays under
    // "entries" must come back as a parse error, not overflow the stack.
    let text = format!(
        "{{\"version\": 1, \"entries\": {}{}}}",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    let err = TuningDb::from_json(&text).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
}
