//! End-to-end integration tests: the full pipeline on the fast evaluation
//! networks, including the share-as-text cycle a real user would perform.

use confmask::{anonymize, Params};
use confmask_config::{parse_host, parse_router, NetworkConfigs};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::min_same_degree;

fn nets() -> Vec<confmask_netgen::EvalNetwork> {
    confmask_netgen::suite::small_suite()
}

#[test]
fn pipeline_succeeds_on_every_small_net() {
    for net in nets() {
        let result = anonymize(&net.configs, &Params::default())
            .unwrap_or_else(|e| panic!("net {}: {e}", net.id));
        assert!(
            result.functionally_equivalent(),
            "net {}: {:?}",
            net.id,
            result.equivalence.violations
        );
        assert!((result.path_preservation() - 1.0).abs() < 1e-12, "net {}", net.id);
        let kd = min_same_degree(&extract_topology(&result.configs));
        assert!(kd >= 6, "net {}: k_d = {kd} < 6", net.id);
    }
}

#[test]
fn share_as_text_round_trip_preserves_behaviour() {
    // The actual sharing workflow: emit the anonymized configs to text,
    // re-parse them as the recipient would, and verify the recipient's
    // simulation matches the original owner's network exactly.
    let net = nets().remove(0).configs; // net A (BGP+OSPF)
    let result = anonymize(&net, &Params::default()).unwrap();

    let routers: Vec<_> = result
        .configs
        .routers
        .values()
        .map(|rc| parse_router(&rc.emit()).expect("emitted config parses"))
        .collect();
    let hosts: Vec<_> = result
        .configs
        .hosts
        .values()
        .map(|hc| parse_host(&hc.emit()).expect("emitted host parses"))
        .collect();
    let received = NetworkConfigs::new(routers, hosts);

    let recipient_sim = confmask::simulate(&received).expect("recipient can simulate");
    assert!(
        recipient_sim
            .dataplane
            .equivalent_on(&result.baseline.sim.dataplane, &result.baseline.real_hosts),
        "recipient's data plane matches the original on real hosts"
    );
    // And matches the anonymized simulation everywhere (fake hosts too).
    assert_eq!(recipient_sim.dataplane, result.final_sim.dataplane);
}

#[test]
fn fake_devices_are_syntactically_ordinary() {
    // De-anonymization resistance smoke test: emitted fake interfaces and
    // hosts use the same syntax as real ones (no marker survives emission).
    let net = nets().remove(0).configs;
    let result = anonymize(&net, &Params::default()).unwrap();
    for rc in result.configs.routers.values() {
        let text = rc.emit();
        assert!(!text.contains("fake"), "{}: emitted text leaks 'fake'", rc.hostname);
        assert!(!text.to_lowercase().contains("anonym"), "{}", rc.hostname);
    }
    // Host files: fake hosts are only distinguishable in-memory via the
    // provenance flag, not in the emitted text structure.
    let real = result.configs.hosts.values().find(|h| !h.added).unwrap();
    let fake = result.configs.hosts.values().find(|h| h.added).unwrap();
    let shape = |t: &str| {
        t.lines()
            .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&real.emit()),
        shape(&fake.emit()),
        "fake host files have the same line structure as real ones"
    );
}

#[test]
fn wan_scale_network_runs_within_budget() {
    // Net D (Bics-sized, 49 routers / 98 hosts) end to end.
    let suite = confmask_netgen::full_suite();
    let d = suite.iter().find(|n| n.id == 'D').unwrap();
    let t = std::time::Instant::now();
    let result = anonymize(&d.configs, &Params::default()).unwrap();
    assert!(result.functionally_equivalent());
    // The paper anonymizes the largest network in ~6 minutes with Batfish;
    // the native simulator does this network in seconds.
    assert!(
        t.elapsed() < std::time::Duration::from_secs(120),
        "took {:?}",
        t.elapsed()
    );
}

#[test]
fn k_route_anonymity_definition_holds() {
    // Definition 3.2 (with the fake-host copies counted): every routing
    // path shares its (ingress, egress) router pair with at least k_H
    // host connections.
    let net = nets().remove(3).configs; // net G (FatTree04) — richest DP
    let k_h = 2;
    let result = anonymize(&net, &Params::new(6, k_h)).unwrap();
    let mut group_sizes: std::collections::BTreeMap<(String, String), usize> =
        std::collections::BTreeMap::new();
    for ps in result.final_sim.dataplane.pairs() {
        for path in ps.paths() {
            if path.len() < 3 {
                continue;
            }
            let key = (path[1].to_string(), path[path.len() - 2].to_string());
            *group_sizes.entry(key).or_insert(0) += 1;
        }
    }
    // Every group that carried original traffic now carries >= k_h paths.
    for ps in result
        .baseline
        .sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts)
        .pairs()
    {
        for path in ps.paths() {
            if path.len() < 3 {
                continue;
            }
            let key = (path[1].to_string(), path[path.len() - 2].to_string());
            assert!(
                group_sizes.get(&key).copied().unwrap_or(0) >= k_h,
                "group {key:?} has fewer than k_H paths"
            );
        }
    }
}

#[test]
fn ledger_matches_observable_diff() {
    // The ledger's interface count equals the number of added interface
    // stanzas actually present in the output.
    let net = nets().remove(1).configs;
    let result = anonymize(&net, &Params::default()).unwrap();
    let added_ifaces: usize = result
        .configs
        .routers
        .values()
        .flat_map(|r| r.interfaces.iter())
        .filter(|i| i.added)
        .count();
    assert!(added_ifaces > 0);
    // Each added interface contributes >= 2 lines (name + address).
    assert!(result.ledger.interface_lines >= 2 * added_ifaces);
    let added_hosts = result.configs.hosts.values().filter(|h| h.added).count();
    assert_eq!(added_hosts, result.route_anon.fake_hosts.len());
}
