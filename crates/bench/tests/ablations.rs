//! Ablations of the design choices called out in DESIGN.md, asserted on
//! their simulated-extraction effect (EXPERIMENTS.md §Ablations):
//!
//! * congestion penalty κ (0 vs 0.5) — why naive peer looks deceptively
//!   good without stall modelling;
//! * host-first core dedication vs starving the host group;
//! * dedup adjustment on/off in the solver;
//! * block granularity (16 vs 256 blocks);
//! * local-extraction padding vs a barrier local phase;
//! * online LRU vs a static top-hotness cache.
//!
//! Each test prints the measured pair (`cargo test -p ugache-bench --test
//! ablations -- --nocapture`) and asserts only the ordering the code
//! actually shows.

use cache_policy::{baselines, BlockConfig, Hotness, Placement, SolverConfig, UGacheSolver};
use emb_cache::LruCache;
use emb_util::zipf::powerlaw_hotness;
use extractor::{Extractor, Mechanism};
use gpu_memsim::{CongestionModel, SimConfig};
use gpu_platform::{DedicationConfig, Platform};

const N: usize = 100_000;
const BYTES: usize = 512;

fn hotness() -> Hotness {
    Hotness::new(powerlaw_hotness(N, 1.2))
}

/// One iteration's deduplicated Zipf key batch per GPU.
fn keys(plat: &Platform, per_gpu: usize) -> Vec<Vec<u32>> {
    let zipf = emb_util::ZipfSampler::new(N as u64, 1.2);
    (0..plat.num_gpus())
        .map(|g| {
            let mut rng = emb_util::seed_rng(100 + g as u64);
            let mut v: Vec<u32> = (0..per_gpu).map(|_| zipf.sample(&mut rng) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

/// Simulated extraction time of one batch, in milliseconds.
fn extract_ms(
    plat: &Platform,
    sim: SimConfig,
    mechanism: Mechanism,
    placement: &Placement,
    ks: &[Vec<u32>],
) -> f64 {
    Extractor::new(plat.clone(), sim, mechanism)
        .extract(placement, ks, BYTES)
        .makespan
        .as_secs_f64()
        * 1e3
}

fn factored() -> Mechanism {
    Mechanism::Factored {
        dedication: DedicationConfig::default(),
    }
}

/// UGache's placement on Server C for `cfg`, extracted with the factored
/// mechanism.
fn solved_extract_ms(cfg: &SolverConfig, ks: &[Vec<u32>]) -> f64 {
    let plat = Platform::server_c();
    let solver = UGacheSolver::new(plat.clone(), DedicationConfig::default());
    let sp = solver.solve(&hotness(), &[3_000; 8], cfg).unwrap();
    extract_ms(&plat, SimConfig::default(), factored(), &sp.placement, ks)
}

#[test]
fn congestion_penalty_slows_naive_peer() {
    let plat = Platform::server_c();
    let placement = baselines::partition(&plat, &hotness(), 2_000).unwrap();
    let ks = keys(&plat, 30_000);
    let run = |penalty: f64| {
        let sim = SimConfig {
            congestion: CongestionModel { penalty },
            ..SimConfig::default()
        };
        extract_ms(
            &plat,
            sim,
            Mechanism::PeerNaive { seed: 1 },
            &placement,
            &ks,
        )
    };
    let (ideal, stalled) = (run(0.0), run(0.5));
    println!("[congestion] naive peer: ideal {ideal:.3} ms vs stall-modelled {stalled:.3} ms");
    assert!(stalled > ideal);
}

#[test]
fn host_first_dedication_beats_one_host_core() {
    let plat = Platform::server_a();
    let placement = baselines::partition(&plat, &hotness(), 2_000).unwrap();
    let ks = keys(&plat, 30_000);
    let run = |host_core_fraction: f64| {
        let mechanism = Mechanism::Factored {
            dedication: DedicationConfig { host_core_fraction },
        };
        extract_ms(&plat, SimConfig::default(), mechanism, &placement, &ks)
    };
    let (capped, starved) = (run(0.12), run(1e-9));
    println!("[host-first] host cores capped at 12% {capped:.3} ms vs 1 core {starved:.3} ms");
    assert!(capped < starved);
}

#[test]
fn dedup_adjustment_does_not_hurt() {
    let ks = keys(&Platform::server_c(), 30_000);
    let run = |dedup: bool| {
        let mut cfg = SolverConfig::new(BYTES, ks[0].len() as f64);
        cfg.dedup_adjust = dedup;
        solved_extract_ms(&cfg, &ks)
    };
    let (raw, adjusted) = (run(false), run(true));
    println!("[dedup-adjust] raw hotness {raw:.3} ms vs dedup-adjusted {adjusted:.3} ms");
    assert!(adjusted <= raw);
}

#[test]
fn finer_blocks_do_not_hurt() {
    let ks = keys(&Platform::server_c(), 30_000);
    let run = |max_blocks: usize| {
        let cfg = SolverConfig {
            blocks: BlockConfig {
                max_blocks,
                ..Default::default()
            },
            entry_bytes: BYTES,
            accesses_per_iter: ks[0].len() as f64,
            dedup_adjust: true,
        };
        solved_extract_ms(&cfg, &ks)
    };
    let (coarse, fine) = (run(16), run(256));
    println!("[blocks] 16 blocks {coarse:.3} ms vs 256 blocks {fine:.3} ms simulated extraction");
    assert!(fine <= coarse);
}

#[test]
fn padding_does_not_lengthen_extraction() {
    let plat = Platform::server_c();
    // A replication-heavy placement has plenty of local work to pad with.
    let placement = baselines::replication(&plat, &hotness(), 8_000);
    let ks = keys(&plat, 30_000);
    let run = |factored_padding: bool| {
        let sim = SimConfig {
            factored_padding,
            ..SimConfig::default()
        };
        extract_ms(&plat, sim, factored(), &placement, &ks)
    };
    let (padded, barrier) = (run(true), run(false));
    println!("[padding] padded {padded:.3} ms vs barrier-local {barrier:.3} ms");
    assert!(padded <= barrier);
}

/// Online LRU (HPS-style) vs a static top-hotness cache under a stable
/// Zipf workload: the §7.2 argument that a static cache loses nothing.
#[test]
fn static_cache_matches_lru_on_stable_zipf() {
    let n = 50_000u64;
    let cap = 2_000usize;
    let z = emb_util::ZipfSampler::new(n, 1.2);
    let mut rng = emb_util::seed_rng(4);
    let mut lru = LruCache::new(cap);
    for _ in 0..100_000 {
        lru.access(z.sample(&mut rng) as u32);
    }
    let trials = 100_000u64;
    let (mut lru_hits, mut static_hits) = (0u64, 0u64);
    for _ in 0..trials {
        let k = z.sample(&mut rng) as u32;
        lru_hits += lru.access(k).0 as u64;
        static_hits += ((k as usize) < cap) as u64;
    }
    let pct = |hits: u64| hits as f64 / trials as f64 * 100.0;
    println!(
        "[lru-vs-static] LRU hit rate {:.1}% vs static top-k {:.1}%",
        pct(lru_hits),
        pct(static_hits)
    );
    assert!(static_hits >= lru_hits);
}
