//! Property-based integration tests: the headline invariant — the pipeline
//! produces functionally equivalent, k-anonymous networks — holds on
//! *randomly generated* networks across protocols and parameters.

use confmask::{anonymize, Params};
use confmask_netgen::{synthesize, IgpProtocol, TopoSpec};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::min_same_degree;
use proptest::prelude::*;

/// Strategy: a random connected network of 4–10 routers with random extra
/// links, random link costs, random host placement, and a random protocol
/// flavor (OSPF / RIP / two-AS BGP+OSPF).
fn arb_network() -> impl Strategy<Value = TopoSpec> {
    (
        4usize..=10,
        prop::collection::vec((any::<u16>(), any::<u16>(), proptest::option::of(1u32..20)), 0..8),
        prop::collection::vec(any::<u16>(), 2..5),
        0u8..3,
        any::<u64>(),
    )
        .prop_map(|(n, extra, host_places, flavor, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);

            let igp = if flavor == 1 {
                IgpProtocol::Rip
            } else {
                IgpProtocol::Ospf
            };
            let mut spec = TopoSpec::new(
                "prop",
                (0..n).map(|i| format!("p{i}")).collect(),
                igp,
            );
            // Random spanning tree.
            for i in 1..n {
                let parent = rng.gen_range(0..i);
                spec.links.push((parent, i, None));
            }
            // Extra links with optional costs.
            for (a, b, cost) in extra {
                let (a, b) = (a as usize % n, b as usize % n);
                if a != b && !spec.links.iter().any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b))) {
                    spec.links.push((a.min(b), a.max(b), cost));
                }
            }
            // Hosts.
            for (i, hp) in host_places.iter().enumerate() {
                spec.hosts.push((format!("ph{i}"), *hp as usize % n));
            }
            // BGP flavor: split routers into two ASes; RIP+BGP is uncommon,
            // keep BGP with OSPF.
            if flavor == 2 {
                let cut = n / 2;
                spec.asn_of = Some((0..n).map(|i| if i < cut { 65001 } else { 65002 }).collect());
            }
            spec.boilerplate = false; // speed: skip the management lines
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 40,
        .. ProptestConfig::default()
    })]

    #[test]
    fn pipeline_invariants_on_random_networks(
        spec in arb_network(),
        k_r in 2usize..6,
        k_h in 1usize..4,
        seed in any::<u64>(),
    ) {
        let configs = synthesize(&spec);
        // Skip degenerate networks the generator can produce (e.g. a BGP
        // split that isolates hosts behind a partition is still valid, but
        // an unsimulatable network is a generator artifact, not a pipeline
        // bug).
        let Ok(baseline) = confmask::simulate(&configs) else { return Ok(()); };
        prop_assume!(baseline.dataplane.pairs().all(|ps| ps.clean()));

        let params = Params { k_r, k_h, seed, ..Params::default() };
        let result = anonymize(&configs, &params).expect("pipeline must succeed");

        // 1. Functional equivalence (the Theorem B.7 umbrella).
        prop_assert!(result.functionally_equivalent(),
            "violations: {:?}", result.equivalence.violations);

        // 2. Topology k-anonymity (Definition 3.1).
        let kd = min_same_degree(&extract_topology(&result.configs));
        prop_assert!(kd >= k_r.min(configs.routers.len()),
            "k_d = {} < k_R = {}", kd, k_r);

        // 3. Exactly (k_h - 1) fakes per real host.
        let fakes = result.configs.hosts.values().filter(|h| h.added).count();
        prop_assert_eq!(fakes, (k_h - 1) * configs.hosts.len());

        // 4. Every host (fake or real) remains reachable from every other.
        for ps in result.final_sim.dataplane.pairs() {
            prop_assert!(ps.clean(), "anonymization broke reachability");
        }

        // 5. The ledger is consistent: total added >= per-category parts.
        let l = result.ledger;
        prop_assert_eq!(
            l.total_added(),
            l.protocol_lines + l.filter_lines + l.interface_lines + l.host_lines
        );
    }

    #[test]
    fn anonymization_is_deterministic(
        spec in arb_network(),
        seed in any::<u64>(),
    ) {
        let configs = synthesize(&spec);
        let Ok(baseline) = confmask::simulate(&configs) else { return Ok(()); };
        prop_assume!(baseline.dataplane.pairs().all(|ps| ps.clean()));
        let params = Params { k_r: 3, k_h: 2, seed, ..Params::default() };
        let a = anonymize(&configs, &params).expect("run 1");
        let b = anonymize(&configs, &params).expect("run 2");
        prop_assert_eq!(a.configs, b.configs);
    }
}
