//! Differential tests: the incremental event loop must be bit-identical
//! to the frozen reference loop — results, spans and telemetry.

use emb_util::SimTime;
use gpu_memsim::{simulate, simulate_reference, DispatchMode, GpuWork, SimConfig, SourceDemand};
use gpu_platform::{DedicationConfig, Location, Platform};

fn cfg() -> SimConfig {
    SimConfig {
        launch_overhead: SimTime::from_micros(15),
        ..SimConfig::default()
    }
}

/// A skewed, merged-duplicate workload touching local, remote and host
/// paths on every GPU of the platform.
fn mixed_works(platform: &Platform) -> Vec<GpuWork> {
    let n = platform.num_gpus();
    (0..n)
        .map(|gpu| {
            // First reachable peer after `gpu` (hardwired topologies don't
            // connect every pair); fall back to local if none.
            let peer = (1..n)
                .map(|d| (gpu + d) % n)
                .find(|&j| platform.connected(gpu, Location::Gpu(j)))
                .unwrap_or(gpu);
            GpuWork {
                gpu,
                demands: vec![
                    SourceDemand {
                        src: Location::Gpu(gpu),
                        bytes: 600e6 + gpu as f64 * 17e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 250e6 - gpu as f64 * 11e6,
                    },
                    SourceDemand {
                        src: Location::Gpu(peer),
                        bytes: 40e6,
                    },
                    SourceDemand {
                        src: Location::Host,
                        bytes: 80e6 + gpu as f64 * 5e6,
                    },
                ],
            }
        })
        .collect()
}

fn modes() -> Vec<DispatchMode> {
    vec![
        DispatchMode::RandomShared { seed: 0x5EED },
        DispatchMode::Factored {
            dedication: DedicationConfig::default(),
        },
        DispatchMode::Sequential,
    ]
}

#[test]
fn results_match_reference_across_modes_and_platforms() {
    for platform in [
        Platform::server_a(),
        Platform::server_b(),
        Platform::server_c(),
    ] {
        let works = mixed_works(&platform);
        for mode in modes() {
            let opt = simulate(&platform, &cfg(), &works, mode);
            let refr = simulate_reference(&platform, &cfg(), &works, mode);
            assert_eq!(opt, refr, "mode {mode:?} on {}", platform.name);
        }
    }
}

#[test]
fn results_match_reference_without_padding() {
    // The Factored no-padding ablation exercises the barrier-release
    // revival path, the only case where an idle core can pick up work
    // again after a None dispatch.
    let mut c = cfg();
    c.factored_padding = false;
    let mode = DispatchMode::Factored {
        dedication: DedicationConfig::default(),
    };
    for platform in [Platform::server_a(), Platform::server_c()] {
        let works = mixed_works(&platform);
        let opt = simulate(&platform, &c, &works, mode);
        let refr = simulate_reference(&platform, &c, &works, mode);
        assert_eq!(opt, refr, "no-padding on {}", platform.name);
    }
}

#[test]
fn telemetry_matches_reference() {
    let platform = Platform::server_c();
    let works = mixed_works(&platform);
    for mode in modes() {
        let (_, opt_rep) = emb_telemetry::collect(|| simulate(&platform, &cfg(), &works, mode));
        let (_, ref_rep) =
            emb_telemetry::collect(|| simulate_reference(&platform, &cfg(), &works, mode));
        assert_eq!(opt_rep.metrics, ref_rep.metrics, "metrics under {mode:?}");
        assert_eq!(
            opt_rep.spans.len(),
            ref_rep.spans.len(),
            "span count under {mode:?}"
        );
        for (a, b) in opt_rep.spans.iter().zip(ref_rep.spans.iter()) {
            assert_eq!((&a.track, &a.name), (&b.track, &b.name));
            assert_eq!(a.start_ns, b.start_ns, "span {} start", a.track);
            assert_eq!(a.end_ns, b.end_ns, "span {} end", a.track);
        }
        assert_eq!(opt_rep.clock_ns, ref_rep.clock_ns);
    }
}
