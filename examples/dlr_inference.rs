//! DLR inference with a live cache refresh: serve a Criteo-like workload,
//! drift its hot set (a new daily trace), watch the estimated extraction
//! time degrade, refresh in the background, and recover — the paper's §7.2
//! lifecycle on a simulated 8×A100 machine.
//!
//! Run with: `cargo run --release --example dlr_inference`

use emb_cache::HostTable;
use emb_workload::dlr::DlrHotness;
use emb_workload::{dlr_preset, DlrDatasetId, DlrWorkload};
use gpu_platform::Platform;
use ugache::{UGache, UGacheConfig};

/// Rotates keys half-way around their table (drifts the hot set).
fn drift(dataset: &emb_workload::DlrDataset, keys: &mut [Vec<u32>]) {
    for ks in keys.iter_mut() {
        for k in ks.iter_mut() {
            let t = match dataset.table_offsets.binary_search(&(*k as u64)) {
                Ok(t) => t,
                Err(i) => i - 1,
            };
            let (off, size) = (dataset.table_offsets[t], dataset.table_sizes[t]);
            *k = (off + ((*k as u64 - off) + size / 2) % size) as u32;
        }
        ks.sort_unstable();
        ks.dedup();
    }
}

fn main() {
    let platform = Platform::server_c();
    let dataset = dlr_preset(DlrDatasetId::SynA, 8192);
    let mut workload = DlrWorkload::new(dataset.clone(), 512, platform.num_gpus(), 11);
    let hotness = workload.hotness(DlrHotness::Analytic);

    let cap = ugache::apps::dlr::dlr_cache_capacity(&platform, &dataset);
    let accesses = workload.clone().measure_accesses_per_iter(2);
    let mut cfg = UGacheConfig::new(dataset.entry_bytes, accesses);
    cfg.sample_stride = 2;
    cfg.refresh.solve_secs = 5.0;
    let host = HostTable::procedural(dataset.num_entries(), dataset.dim);
    let mut u = UGache::build(platform, host.clone(), &hotness, vec![cap; 8], cfg).expect("build");

    let mean = |u: &mut UGache, w: &mut DlrWorkload, drifted: bool, iters: usize| -> f64 {
        let mut acc = 0.0;
        for _ in 0..iters {
            let mut keys = w.next_batch();
            if drifted {
                drift(&dataset, &mut keys);
            }
            acc += u.process_iteration(&keys).extract.makespan.as_secs_f64();
        }
        acc / iters as f64 * 1e3
    };

    println!(
        "phase 1 — steady state:        {:.3} ms/iter",
        mean(&mut u, &mut workload, false, 4)
    );
    println!(
        "phase 2 — hot set drifts:      {:.3} ms/iter",
        mean(&mut u, &mut workload, true, 6)
    );

    let started = u.consider_refresh(false).expect("solver ok");
    println!("refresh triggered by drift?    {started}");
    if !started {
        u.consider_refresh(true).expect("solver ok");
    }
    // Serve through the refresh; the refresher migrates in small batches.
    let during = mean(&mut u, &mut workload, true, 4);
    println!("phase 3 — during refresh:      {during:.3} ms/iter (bounded impact)");
    let mut guard = 0;
    while u.refresh_active() {
        u.advance_clock(1.0);
        guard += 1;
        assert!(guard < 10_000);
    }
    println!(
        "phase 4 — after refresh:       {:.3} ms/iter",
        mean(&mut u, &mut workload, true, 4)
    );
    for (i, d) in u.refresh_history().iter().enumerate() {
        println!("refresh {} took {d:.2} s of virtual time", i + 1);
    }

    // Functional path: the gather serves the host table's rows for the
    // requested keys, wherever the (refreshed) placement caches them.
    let tables = 8usize; // a slice of the 100 tables keeps the demo snappy
    let reqs = 4usize;
    let mut keys = Vec::with_capacity(reqs * tables);
    let mut rng = emb_util::seed_rng(17);
    use rand::Rng;
    for _ in 0..reqs {
        for t in 0..tables {
            let off = dataset.table_offsets[t];
            let size = dataset.table_sizes[t];
            keys.push((off + rng.gen_range(0..size)) as u32);
        }
    }
    let mut emb = vec![0.0f32; keys.len() * dataset.dim];
    let stats = u.gather(0, &keys, &mut emb);
    let mut row = vec![0.0f32; dataset.dim];
    for (k, got) in keys.iter().zip(emb.chunks_exact(dataset.dim)) {
        host.read_into(*k, &mut row);
        assert_eq!(got, row.as_slice(), "key {k} gathered a wrong row");
    }
    println!(
        "gathered {} rows on GPU0 ({} local, {} remote, {} host), all equal to the host table",
        keys.len(),
        stats.local,
        stats.remote,
        stats.host
    );
}
