//! Differential harness for the incremental simulation engine: on random
//! networks across protocol flavors (OSPF, RIP, two-AS BGP+OSPF), every
//! k = 1 fault simulated through [`DeltaEngine::simulate_perturbed`] must
//! be **byte-identical** to a cold `simulate()` of the same failed
//! configurations — same FIB entries on every router, same data-plane
//! paths for every host pair, and the same error when simulation fails.
//!
//! The sweep is seeded and deterministic. `DELTA_DIFF_SEEDS` controls how
//! many random networks are generated (default 8; CI runs more).

use confmask_netgen::synthesize;
use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
use confmask_sim::{simulate, Simulation};
use confmask_sim_delta::{DeltaEngine, ScenarioScratch, ScenarioSweep};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/random_net.rs"]
mod random_net;
use random_net::random_spec;

/// Byte-level equality of two simulations: every router's FIB entries in
/// order, and the full data plane (paths, flags) for every host pair.
fn assert_sims_equal(tag: &str, cold: &Simulation, delta: &Simulation) {
    assert_eq!(
        cold.fibs.per_router.len(),
        delta.fibs.per_router.len(),
        "{tag}: router count"
    );
    for (i, (fc, fd)) in cold
        .fibs
        .per_router
        .iter()
        .zip(delta.fibs.per_router.iter())
        .enumerate()
    {
        assert_eq!(
            fc.entries().collect::<Vec<_>>(),
            fd.entries().collect::<Vec<_>>(),
            "{tag}: FIB of router #{i} differs"
        );
    }
    assert_eq!(cold.dataplane, delta.dataplane, "{tag}: data plane differs");
}

#[test]
fn delta_simulation_matches_cold_simulation_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mut networks_checked = 0u64;
    let mut scenarios_checked = 0u64;
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0000 ^ i);
        let flavor = (i % 3) as u8;
        let spec = random_spec(&mut rng, flavor);
        let configs = synthesize(&spec);
        // An unsimulatable healthy network is a generator artifact (e.g. a
        // BGP split isolating hosts), not a delta-engine case: skip it.
        if simulate(&configs).is_err() {
            continue;
        }
        networks_checked += 1;
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("baseline converges");

        // Every single-link failure, plus two router-down faults: the full
        // supported perturbation class (shutdown-only).
        let mut scenarios = enumerate_single_link_failures(&configs);
        for router in configs.routers.keys().take(2) {
            scenarios.push(FailureScenario::single(Fault::RouterDown {
                router: router.clone(),
            }));
        }
        for scenario in scenarios {
            let tag = format!("seed {i} flavor {flavor}: {scenario}");
            let failed = scenario.apply(&configs).expect("fault applies");
            scenarios_checked += 1;
            match (simulate(&failed), engine.simulate_perturbed(&base, &failed)) {
                (Ok(cold), Ok((delta, stats))) => {
                    assert!(
                        !stats.full_fallback,
                        "{tag}: shutdown-only faults must take the delta path"
                    );
                    assert_sims_equal(&tag, &cold, &delta);
                }
                // Post-failure divergence (e.g. BGP oscillation) must be
                // reported identically by both engines.
                (Err(cold_err), Err(delta_err)) => {
                    assert_eq!(
                        cold_err.to_string(),
                        delta_err.to_string(),
                        "{tag}: error mismatch"
                    );
                }
                (cold, delta) => panic!(
                    "{tag}: outcome mismatch — cold {:?} vs delta {:?}",
                    cold.map(|_| "ok").map_err(|e| e.to_string()),
                    delta.map(|_| "ok").map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(networks_checked > 0, "every generated network was degenerate");
    assert!(scenarios_checked > 0);
    eprintln!(
        "delta-diff: {scenarios_checked} scenario(s) across {networks_checked} network(s), \
         zero mismatches"
    );
}

/// The streaming sweep's digests must be byte-identical (down to the wire
/// encoding) to the cold `run_scenario` digests — for every k = 1 fault
/// plus router-down faults, on random networks across protocol flavors.
#[test]
fn streaming_digests_match_cold_folds_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 2).max(2))
        .unwrap_or(4);
    let mut scenarios_checked = 0u64;
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xD16E_0000 ^ i);
        let spec = random_spec(&mut rng, (i % 3) as u8);
        let configs = synthesize(&spec);
        let Ok(sim) = simulate(&configs) else { continue };
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("baseline converges");
        let sweep = ScenarioSweep::new(&engine, &base, &sim.dataplane);
        let mut scratch = ScenarioScratch::default();
        let mut scenarios = enumerate_single_link_failures(&configs);
        for router in configs.routers.keys().take(2) {
            scenarios.push(FailureScenario::single(Fault::RouterDown {
                router: router.clone(),
            }));
        }
        for scenario in scenarios {
            scenarios_checked += 1;
            let cold = confmask_sim::fault::run_scenario(&configs, &sim.dataplane, &scenario);
            let warm = sweep.digest(&scenario, &mut scratch);
            match (cold, warm) {
                (Ok(c), Ok(w)) => {
                    assert_eq!(c, w, "seed {i}: {scenario}");
                    assert_eq!(
                        c.encode(),
                        w.encode(),
                        "seed {i}: {scenario}: wire encoding differs"
                    );
                }
                (Err(c), Err(w)) => assert_eq!(c.to_string(), w.to_string()),
                (c, w) => panic!(
                    "seed {i}: {scenario}: outcome mismatch — cold {:?} vs warm {:?}",
                    c.map(|_| "ok").map_err(|e| e.to_string()),
                    w.map(|_| "ok").map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(scenarios_checked > 0);
    eprintln!("digest-diff: {scenarios_checked} scenario(s), zero mismatches");
}
