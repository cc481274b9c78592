//! Differential harness for the derived fault model: for every link-down,
//! router-down and interface-down scenario, the model the delta planner
//! derives from the cached one ([`SimNetwork::without_interfaces`] of the
//! interfaces the scenario shuts) must equal [`SimNetwork::build`] of
//! the failed configurations, field for field, and the physical
//! components of the healthy configurations with those interfaces listed
//! as down must equal the flood fill over the failed configurations.
//!
//! Networks: random OSPF-only, RIP and two-AS BGP+OSPF networks, and the
//! evaluation nets A–H (A–C speak BGP), plus ConfMask-anonymized net A,
//! whose fake links fail as `added` link-down scenarios.
//!
//! `DELTA_DIFF_SEEDS` controls how many random networks are generated
//! (default 8; CI runs more).

use confmask::{anonymize, Params};
use confmask_config::NetworkConfigs;
use confmask_netgen::synthesize;
use confmask_sim::fault::{
    enumerate_single_link_failures, physical_components, FailureScenario, Fault,
};
use confmask_sim::SimNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[path = "support/random_net.rs"]
mod random_net;
use random_net::random_spec;

/// Every k = 1 link failure, every router failure and every interface
/// shutdown of `configs`.
fn scenarios(configs: &NetworkConfigs) -> Vec<FailureScenario> {
    let mut out = enumerate_single_link_failures(configs);
    for (name, rc) in &configs.routers {
        out.push(FailureScenario::single(Fault::RouterDown {
            router: name.clone(),
        }));
        for iface in &rc.interfaces {
            out.push(FailureScenario::single(Fault::InterfaceShutdown {
                router: name.clone(),
                iface: iface.name.clone(),
            }));
        }
    }
    out
}

/// Asserts the derived model equals the built one for every scenario, that
/// derivation shares each router the removal leaves unchanged, and that the
/// flood fill over the listed shutdowns equals the one over the failed
/// configurations. Returns the scenario count.
fn assert_derived_equals_built(tag: &str, configs: &NetworkConfigs) -> usize {
    let base = SimNetwork::build(configs).expect("healthy model builds");
    let list = scenarios(configs);
    for scenario in &list {
        let failed = scenario.apply(configs).expect("fault applies");
        let shut = scenario.shutdowns(configs).expect("fault resolves");
        assert_eq!(
            physical_components(configs, &shut),
            physical_components(&failed, &[]),
            "{tag}: {scenario}: physical components differ"
        );
        let names: Vec<(String, String)> = shut
            .iter()
            .map(|(r, i)| (r.clone(), configs.routers[r].interfaces[*i].name.clone()))
            .collect();
        let built = SimNetwork::build(&failed).expect("failed model builds");
        let (derived, remap) = base
            .without_interfaces(&names)
            .unwrap_or_else(|| panic!("{tag}: {scenario}: derivation declined"));
        for (r, (d, b)) in derived.routers.iter().zip(&built.routers).enumerate() {
            assert_eq!(d, b, "{tag}: {scenario}: router #{r} differs");
        }
        for (h, (d, b)) in derived.hosts.iter().zip(&built.hosts).enumerate() {
            assert_eq!(d, b, "{tag}: {scenario}: host #{h} differs");
        }
        assert_eq!(derived, built, "{tag}: {scenario}: model differs");
        for (r, node) in derived.routers.iter().enumerate() {
            if **node == *base.routers[r] {
                assert!(
                    Arc::ptr_eq(node, &base.routers[r]),
                    "{tag}: {scenario}: unchanged router #{r} is a copy"
                );
            }
        }
        let removed = remap.removed().count();
        let lost = base.routers.iter().map(|r| r.ifaces.len()).sum::<usize>()
            - built.routers.iter().map(|r| r.ifaces.len()).sum::<usize>();
        assert_eq!(removed, lost, "{tag}: {scenario}: removed interface count");
    }
    list.len()
}

#[test]
fn derived_model_equals_build_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mut checked = 0;
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x30DE_0000 ^ i);
        let flavor = (i % 3) as u8;
        let configs = synthesize(&random_spec(&mut rng, flavor));
        checked += assert_derived_equals_built(&format!("seed {i} flavor {flavor}"), &configs);
    }
    assert!(checked > 0);
    eprintln!("model-diff: {checked} random-network scenario(s), zero mismatches");
}

#[test]
fn derived_model_equals_build_on_evaluation_nets() {
    let mut checked = 0;
    for net in confmask_netgen::full_suite() {
        if !('A'..='H').contains(&net.id) {
            continue;
        }
        checked += assert_derived_equals_built(&format!("net {}", net.id), &net.configs);
        if net.id == 'A' {
            let anon =
                anonymize(&net.configs, &Params::default().with_seed(1)).expect("anonymizes");
            checked += assert_derived_equals_built("net A anonymized", &anon.configs);
        }
    }
    eprintln!("model-diff: {checked} evaluation-net scenario(s), zero mismatches");
}
