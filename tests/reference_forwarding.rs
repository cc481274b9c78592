//! Reference forwarding oracle, OSPF slice: on random OSPF networks, cold
//! `simulate` must forward every host pair exactly as a brute-force
//! shortest-path model of the generator's own graph and costs says
//! (`support/reference_ospf.rs`), on the healthy network and after every
//! single link failure. Pairs are compared by router names: the path set
//! (every equal-cost shortest path) and the blackhole and loop flags.
//!
//! The reference shares no code with the simulator's SPF, FIBs or data
//! plane; the failed networks come from the simulator's fault injection
//! (`FailureScenario::apply`, a config edit) on the simulated side and
//! from removing the link from the spec's graph on the reference side.
//!
//! `DELTA_DIFF_SEEDS` sets how many networks are generated (default 8; CI
//! runs 24).

#[path = "support/random_net.rs"]
mod random_net;
#[path = "support/reference_ospf.rs"]
mod reference_ospf;

use confmask_netgen::synthesize;
use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
use confmask_sim::{simulate, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use random_net::random_spec;
use reference_ospf::{RefNet, RefPair};
use std::collections::BTreeSet;

/// Asserts the simulation forwards every pair as the reference does;
/// returns the number of pairs compared.
fn assert_matches_reference(tag: &str, sim: &Simulation, reference: &RefNet) -> usize {
    let want = reference.pairs();
    assert_eq!(sim.dataplane.len(), want.len(), "{tag}: pair count");
    for ((src, dst), expected) in &want {
        let pair = sim
            .dataplane
            .between(src, dst)
            .unwrap_or_else(|| panic!("{tag}: the simulation lacks {src} → {dst}"));
        let got = RefPair {
            paths: pair
                .paths()
                .map(|p| p.into_iter().map(String::from).collect())
                .collect::<BTreeSet<Vec<String>>>(),
            blackhole: pair.blackhole(),
        };
        assert_eq!(
            pair.path_count(),
            got.paths.len(),
            "{tag}: {src} → {dst} repeats a path"
        );
        assert!(!pair.has_loop(), "{tag}: {src} → {dst} loops");
        assert_eq!(&got, expected, "{tag}: {src} → {dst}");
    }
    want.len()
}

#[test]
fn cold_simulation_forwards_as_the_reference_on_random_ospf_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let (mut scenarios, mut pairs, mut blackholed) = (0usize, 0usize, 0usize);
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x0AC1_E000 ^ i);
        let spec = random_spec(&mut rng, 0);
        let configs = synthesize(&spec);
        let reference = RefNet::from_spec(&spec);
        let links = reference.link_names();
        assert_eq!(
            enumerate_single_link_failures(&configs).len(),
            links.len(),
            "seed {i}: every spec link is one k = 1 failure"
        );
        let healthy = simulate(&configs).unwrap();
        pairs += assert_matches_reference(&format!("seed {i} healthy"), &healthy, &reference);
        for (li, (a, b)) in links.iter().enumerate() {
            let tag = format!("seed {i} link {a}–{b} down");
            let scenario = FailureScenario::single(Fault::LinkDown {
                a: a.clone(),
                b: b.clone(),
                added: false,
            });
            let failed = simulate(&scenario.apply(&configs).unwrap()).unwrap();
            let down = reference.without_link(li);
            pairs += assert_matches_reference(&tag, &failed, &down);
            blackholed += down.pairs().iter().filter(|(_, p)| p.blackhole).count();
            scenarios += 1;
        }
    }
    // Tree links exist in every network, so some failures partition it.
    assert!(blackholed > 0, "no failure partitioned a network");
    eprintln!(
        "reference: {seeds} network(s), {scenarios} failure(s), {pairs} pair(s) \
         ({blackholed} blackholed), zero mismatches"
    );
}
