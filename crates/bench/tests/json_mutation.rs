//! Mutation fuzzing of the JSON readers: seeded byte flips, truncations
//! and bracket insertions into the committed `baselines/quick/serve.json`
//! artifact, the committed `baselines/BENCH_7.json` bench report and a
//! rendered Chrome trace must make `json::parse` return `Ok` or `Err` —
//! never panic. Whatever still parses goes through `chrome::validate`
//! and `explain::report_from_artifact`, and every mutated bench report
//! through the soft-gate reader `microbench::compare_files`; each must
//! return a result or a list of errors, never panic.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use ugache_bench::{chrome, explain, json, microbench};

fn baseline(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .join(name)
}

/// A small, valid Chrome trace: nested spans on two tracks.
fn chrome_trace() -> Vec<u8> {
    let (_, report) = emb_telemetry::collect(|| {
        emb_telemetry::span("gpu0/link:host", "xfer", 0, 400, Vec::new);
        emb_telemetry::span("gpu0/link:host", "chunk", 100, 200, Vec::new);
        emb_telemetry::span("gpu1/core", "gather", 50, 900, Vec::new);
    });
    chrome::chrome_trace(&[("fig8", &report)])
        .render_compact()
        .into_bytes()
}

/// Applies one mutation kind (0 flips, 1 truncates, 2 inserts brackets,
/// 3 all three) at positions reduced modulo the current length.
fn mutate(mut bytes: Vec<u8>, kind: u8, at: &[usize], masks: &[u8], cut: usize) -> Vec<u8> {
    if kind == 0 || kind == 3 {
        for (&at, &mask) in at.iter().zip(masks) {
            let n = bytes.len();
            bytes[at % n] ^= mask;
        }
    }
    if kind == 2 || kind == 3 {
        for (&at, &mask) in at.iter().zip(masks) {
            let n = bytes.len();
            bytes.insert(at % (n + 1), b"[]{}"[usize::from(mask) % 4]);
        }
    }
    if kind == 1 || kind == 3 {
        bytes.truncate(cut % (bytes.len() + 1));
    }
    bytes
}

/// Runs every reader over `bytes`; any panic fails the property.
fn read_all(bytes: &[u8]) {
    if let Ok(value) = json::parse(&String::from_utf8_lossy(bytes)) {
        let _ = chrome::validate(&value);
        let _ = explain::report_from_artifact(&value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    fn mutated_json_parses_or_errors(
        source in 0usize..3,
        kind in 0u8..4,
        at in prop::collection::vec(0usize..1 << 16, 1..3),
        masks in prop::collection::vec(1u8..255, 2),
        cut in 0usize..1 << 16,
    ) {
        let bytes = match source {
            0 => std::fs::read(baseline("quick/serve.json")).expect("committed serve artifact"),
            1 => std::fs::read(baseline("BENCH_7.json")).expect("committed bench report"),
            _ => chrome_trace(),
        };
        let bytes = mutate(bytes, kind, &at, &masks, cut);
        read_all(&bytes);
        if source == 1 {
            let path = std::env::temp_dir()
                .join(format!("bench-mutation-{}.json", std::process::id()));
            std::fs::write(&path, &bytes).expect("temp file writes");
            let _ = microbench::compare_files(&baseline("BENCH_7.json"), &path);
            let _ = microbench::compare_files(&path, &baseline("BENCH_7.json"));
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn unmutated_inputs_are_read_cleanly() {
    let serve = std::fs::read_to_string(baseline("quick/serve.json")).unwrap();
    let artifact = json::parse(&serve).expect("serve artifact parses");
    explain::report_from_artifact(&artifact).expect("serve artifact explains");
    let trace = json::parse(&String::from_utf8(chrome_trace()).unwrap()).unwrap();
    assert_eq!(chrome::validate(&trace), Vec::<String>::new());
    let bench = baseline("BENCH_7.json");
    let (_, failures) = microbench::compare_files(&bench, &bench).expect("bench report reads");
    assert!(failures.is_empty(), "{failures:?}");
}
