//! Integration tests for network-scale obfuscation (§9): fake routers
//! change `|R|` while functional equivalence and the anonymity guarantees
//! survive.

use confmask::attacks::{dead_link_detection, degree_reidentification};
use confmask::{anonymize, Params};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::min_same_degree;

fn params(fake_routers: usize) -> Params {
    Params {
        k_r: 4,
        k_h: 2,
        fake_routers,
        ..Params::default()
    }
}

#[test]
fn fake_routers_preserve_functional_equivalence() {
    for net in [
        confmask_netgen::smallnets::example_network(),
        confmask_netgen::synthesize(&confmask_netgen::smallnets::university()),
        confmask_netgen::synthesize(&confmask_netgen::smallnets::branch_office_rip()),
    ] {
        let result = anonymize(&net, &params(3)).expect("scale pipeline");
        assert!(
            result.functionally_equivalent(),
            "{:?}",
            result.equivalence.violations
        );
        assert_eq!(result.scale.fake_routers.len(), 3);
        assert_eq!(
            result.configs.routers.len(),
            net.routers.len() + 3,
            "|R| is obfuscated"
        );
    }
}

#[test]
fn fake_routers_participate_in_k_anonymity() {
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let result = anonymize(&net, &params(4)).expect("scale pipeline");
    let topo = extract_topology(&result.configs);
    assert!(
        min_same_degree(&topo) >= 4,
        "whole graph (incl. fakes) is k-anonymous: {}",
        min_same_degree(&topo)
    );
}

#[test]
fn real_traffic_never_transits_fake_routers() {
    let net = confmask_netgen::smallnets::example_network();
    let result = anonymize(&net, &params(2)).expect("scale pipeline");
    let fake: std::collections::BTreeSet<&str> =
        result.scale.fake_routers.iter().map(String::as_str).collect();
    for ps in result
        .final_sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts)
        .pairs()
    {
        for path in ps.paths() {
            for hop in &path {
                assert!(
                    !fake.contains(hop),
                    "{}→{} transits fake router {hop}: {path:?}",
                    ps.src,
                    ps.dst
                );
            }
        }
    }
}

#[test]
fn fake_router_links_carry_traffic() {
    // A fake router with idle links would fall to the dead-link detector;
    // the liveness host keeps its stub link busy.
    let net = confmask_netgen::smallnets::example_network();
    let result = anonymize(&net, &params(2)).expect("scale pipeline");
    let traffic = dead_link_detection(&result.final_sim);
    for fr in &result.scale.fake_routers {
        let used = traffic
            .used
            .iter()
            .any(|(a, b)| a == fr || b == fr);
        assert!(used, "fake router {fr} has only dead links");
    }
}

#[test]
fn scale_obfuscation_defeats_router_count_inference() {
    // The adversary's |R| estimate is now wrong, and the degree
    // re-identification bound still holds over the enlarged graph.
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let result = anonymize(
        &net,
        &Params {
            k_r: 6,
            fake_routers: 5,
            ..Params::default()
        },
    )
    .expect("scale pipeline");
    let shared = extract_topology(&result.configs);
    assert_eq!(shared.routers().len(), 18, "13 real + 5 fake");
    let reid = degree_reidentification(&result.baseline.topo, &shared);
    assert!(reid.expected_success() <= 1.0 / 6.0 + 1e-9);
}

#[test]
fn fake_router_files_blend_in() {
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let result = anonymize(&net, &params(2)).expect("scale pipeline");
    for fr in &result.scale.fake_routers {
        let rc = &result.configs.routers[fr];
        let text = rc.emit();
        // Same structural inventory as a real file.
        assert!(text.contains("interface Ethernet0/0"));
        assert!(text.contains("router "));
        assert!(text.contains("ntp server"), "boilerplate inherited");
        assert!(!text.contains("fake"));
        // Emits and reparses like any other config.
        let back = confmask_config::parse_router(&text).unwrap();
        assert_eq!(back.hostname, *fr);
    }
}

#[test]
fn ledger_accounts_for_router_files() {
    let net = confmask_netgen::smallnets::example_network();
    let with = anonymize(&net, &params(3)).unwrap();
    let without = anonymize(&net, &params(0)).unwrap();
    assert!(with.ledger.router_lines > 0);
    assert_eq!(without.ledger.router_lines, 0);
    assert!(with.ledger.total_added() > without.ledger.total_added());
}

#[test]
fn fake_router_hosts_reach_real_hosts_bidirectionally() {
    // Regression: Algorithm 1 used to scan fake routers' routing tables
    // and filter away their only routes to real destinations, leaving the
    // liveness hosts able to receive but not send.
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let result = anonymize(
        &net,
        &Params {
            fake_routers: 3,
            ..Params::default()
        },
    )
    .expect("scale pipeline");
    for ps in result.final_sim.dataplane.pairs() {
        assert!(ps.clean(), "{ps:?}");
    }
}

#[test]
fn emitted_configs_have_no_dangling_filter_references() {
    // Regression: Algorithm 2 rollback could empty a prefix list; empty
    // lists emit no lines, so their distribute-list bindings came back
    // from text as dangling references.
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let result = anonymize(
        &net,
        &Params {
            fake_routers: 3,
            noise_p: 0.5, // more filters, more rollbacks
            ..Params::default()
        },
    )
    .expect("scale pipeline");
    // Round-trip through text like a recipient would, then validate.
    let routers: Vec<_> = result
        .configs
        .routers
        .values()
        .map(|rc| confmask_config::parse_router(&rc.emit()).unwrap())
        .collect();
    let hosts: Vec<_> = result
        .configs
        .hosts
        .values()
        .map(|hc| confmask_config::parse_host(&hc.emit()).unwrap())
        .collect();
    let received = confmask::NetworkConfigs::new(routers, hosts);
    let errors = confmask_config::validate(&received);
    assert!(errors.is_empty(), "{errors:?}");
}
