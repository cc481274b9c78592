//! End-to-end pipeline coverage for distance-vector (RIP) networks.
//!
//! The SFE conditions for distance-vector protocols (§5.1) differ from the
//! link-state ones: fake links carry no cost (hop metric), so *every* fake
//! link shortens some distances, and route equivalence relies entirely on
//! Algorithm 1's filters with the DV fallback behaviour (a filtered
//! neighbor's advertisement is dropped and the route falls back to the
//! next-best neighbor).

use confmask::{anonymize, Params};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::min_same_degree;

fn rip_net() -> confmask::NetworkConfigs {
    confmask_netgen::synthesize(&confmask_netgen::smallnets::branch_office_rip())
}

#[test]
fn rip_pipeline_end_to_end() {
    let net = rip_net();
    let result = anonymize(&net, &Params::new(4, 2)).expect("RIP pipeline");
    assert!(
        result.functionally_equivalent(),
        "{:?}",
        result.equivalence.violations
    );
    assert!((result.path_preservation() - 1.0).abs() < 1e-12);
    let kd = min_same_degree(&extract_topology(&result.configs));
    assert!(kd >= 4, "k_d = {kd}");
    // RIP fake links exist and carry no cost lines (hop metric).
    assert!(!result.fake_links.is_empty());
    for rc in result.configs.routers.values() {
        for iface in rc.interfaces.iter().filter(|i| i.added) {
            assert_eq!(iface.ospf_cost, None, "RIP interfaces have no OSPF cost");
        }
    }
}

#[test]
fn rip_filters_fix_shortcuts_iteratively() {
    // Fake links in a hop-metric network always create shortcuts, so the
    // route-equivalence stage must add filters (unlike OSPF, where
    // equal-cost fake links may coexist without any path moving).
    let net = rip_net();
    let result = anonymize(&net, &Params::new(6, 2)).expect("RIP pipeline");
    assert!(!result.fake_links.is_empty());
    assert!(
        result.equiv.filters_added > 0,
        "hop-metric shortcuts require filters"
    );
    assert!(result.functionally_equivalent());
}

#[test]
fn rip_fake_hosts_filtered_and_reachable() {
    let net = rip_net();
    let result = anonymize(
        &net,
        &Params {
            k_h: 3,
            noise_p: 0.5,
            ..Params::new(4, 3)
        },
    )
    .expect("RIP pipeline with heavy noise");
    for ps in result.final_sim.dataplane.pairs() {
        assert!(ps.clean(), "{ps:?}");
    }
    assert_eq!(
        result.configs.hosts.values().filter(|h| h.added).count(),
        2 * net.hosts.len()
    );
}

#[test]
fn rip_strawmen_also_converge() {
    use confmask::EquivalenceMode;
    let net = rip_net();
    for mode in [EquivalenceMode::Strawman1, EquivalenceMode::Strawman2] {
        let result = anonymize(&net, &Params::new(4, 2).with_mode(mode))
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert!(result.functionally_equivalent(), "{mode:?}");
    }
}
