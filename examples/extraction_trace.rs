//! Extraction schedule visualization: run one factored extraction and one
//! naive-peer extraction under a telemetry scope and render GPU0's
//! per-link busy series from the simulator's `xfer` spans — the live
//! version of the paper's Figure 8 schedule sketch.
//!
//! Run with: `cargo run --release --example extraction_trace`

use cache_policy::{baselines, Hotness};
use emb_util::zipf::powerlaw_hotness;
use emb_util::{seed_rng, SimTime, ZipfSampler};
use gpu_memsim::{simulate, DispatchMode, GpuWork, SimConfig, SourceDemand};
use gpu_platform::{DedicationConfig, Platform};
use ugache_bench::timeline;

fn main() {
    let plat = Platform::server_a();
    let n = 50_000usize;
    let hotness = Hotness::new(powerlaw_hotness(n, 1.2));
    let placement = baselines::partition(&plat, &hotness, 2_500).expect("Server A is uniform");

    // One iteration's key batches → per-source byte demands.
    let zipf = ZipfSampler::new(n as u64, 1.2);
    let mut rng = seed_rng(5);
    let works: Vec<GpuWork> = (0..plat.num_gpus())
        .map(|gpu| {
            let mut keys: Vec<u32> = (0..25_000).map(|_| zipf.sample(&mut rng) as u32).collect();
            keys.sort_unstable();
            keys.dedup();
            let demands: Vec<SourceDemand> = placement
                .split_keys(gpu, &keys)
                .into_iter()
                .map(|(src, count)| SourceDemand {
                    src,
                    bytes: count as f64 * 512.0,
                })
                .collect();
            GpuWork { gpu, demands }
        })
        .collect();

    let cfg = SimConfig {
        launch_overhead: SimTime::ZERO,
        ..SimConfig::default()
    };

    for (label, mode) in [
        (
            "factored extraction (UGache §5.3)",
            DispatchMode::Factored {
                dedication: DedicationConfig::default(),
            },
        ),
        (
            "naive peer (random static dispatch)",
            DispatchMode::RandomShared { seed: 5 },
        ),
    ] {
        let (result, report) = emb_telemetry::collect(|| simulate(&plat, &cfg, &works, mode));
        let tl = timeline::from_report(&report);
        println!("\n=== {label} ===");
        println!("makespan {}", result.makespan);
        println!(
            "GPU0 link occupancy over time ({} buckets; density = busy fraction):",
            timeline::SERIES_BUCKETS
        );
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        for t in tl
            .tracks
            .iter()
            .filter(|t| t.track.starts_with("gpu0/link:"))
        {
            let row: String = t
                .series
                .iter()
                .map(|&v| glyphs[(v * (glyphs.len() - 1) as f64).ceil() as usize])
                .collect();
            println!(
                "  {:<28} |{row}| busy {:>5.1}%",
                t.track,
                t.utilization * 100.0
            );
        }
    }
}
