//! Differential harness for the incremental fault sweep: on random
//! networks across protocol flavors (OSPF, RIP, two-AS BGP+OSPF), each
//! also with static routes added (a static loop among them), every
//! k = 1 fault plus router-down faults digested through [`ScenarioSweep`]
//! must be **byte-identical** (down to the wire encoding) to the cold
//! `run_scenario` digest, and both must report the same error when
//! simulation fails. The plan-level half of this guarantee (FIBs and path
//! sets equal a cold `simulate()`) is the `confmask-sim-delta` unit test
//! `plan_matches_cold_simulation_on_random_networks`.
//!
//! The sweep is seeded and deterministic. `DELTA_DIFF_SEEDS` controls how
//! many random networks are generated (default 4, half the seed count
//! when set; CI runs more).

use confmask_netgen::synthesize;
use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
use confmask_sim::simulate;
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "support/random_net.rs"]
mod random_net;
use random_net::{add_static_routes, random_spec};

/// The streaming sweep's digests must be byte-identical (down to the wire
/// encoding) to the cold `run_scenario` digests — for every k = 1 fault
/// plus router-down faults, on random networks across protocol flavors,
/// with and without static routes.
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
        let plain = synthesize(&spec);
        let mut with_statics = plain.clone();
        add_static_routes(&mut rng, &mut with_statics);
        for (variant, configs) in [("", plain), (" + static routes", with_statics)] {
            let Ok(sim) = simulate(&configs) else {
                continue;
            };
            let engine = DeltaEngine::new(4);
            let base = engine.converged(&configs).expect("baseline converges");
            let sweep = ScenarioSweep::new(&engine, &base, &sim.dataplane);
            let mut scenarios = enumerate_single_link_failures(&configs);
            for router in configs.routers.keys().take(2) {
                scenarios.push(FailureScenario::single(Fault::RouterDown {
                    router: router.clone(),
                }));
            }
            for scenario in scenarios {
                scenarios_checked += 1;
                let tag = format!("seed {i}{variant}: {scenario}");
                let cold = confmask_sim::fault::run_scenario(&configs, &sim.dataplane, &scenario);
                let warm = sweep.digest(&scenario);
                match (cold, warm) {
                    (Ok(c), Ok(w)) => {
                        assert_eq!(c, w, "{tag}");
                        assert_eq!(c.encode(), w.encode(), "{tag}: wire encoding differs");
                    }
                    (Err(c), Err(w)) => assert_eq!(c.to_string(), w.to_string()),
                    (c, w) => panic!(
                        "{tag}: outcome mismatch — cold {:?} vs warm {:?}",
                        c.map(|_| "ok").map_err(|e| e.to_string()),
                        w.map(|_| "ok").map_err(|e| e.to_string()),
                    ),
                }
            }
        }
    }
    assert!(scenarios_checked > 0);
    eprintln!("digest-diff: {scenarios_checked} scenario(s), zero mismatches");
}
