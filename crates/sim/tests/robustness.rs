//! Fault-injection robustness: corrupted, truncated, or adversarial
//! configurations must produce errors or degraded data planes — never
//! panics, hangs, or silently wrong "clean" results.

use confmask_config::{parse_host, parse_router, NetworkConfigs};
use confmask_sim::simulate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(text in ".{0,2000}") {
        let _ = parse_router(&text);
        let _ = parse_host(&text);
    }

    /// The parser never panics on line-structured input that *looks* like
    /// a config (more likely to reach deep code paths than pure noise).
    #[test]
    fn parser_never_panics_on_config_shaped_input(
        lines in prop::collection::vec(
            prop_oneof![
                Just("hostname r1".to_string()),
                Just("!".to_string()),
                Just("interface Ethernet0/0".to_string()),
                " ip address [0-9.]{1,20} [0-9.]{1,20}",
                Just("router ospf 1".to_string()),
                Just("router bgp 70000".to_string()),
                " network [0-9.]{1,20} [0-9.]{1,20} area [0-9]{1,5}",
                " neighbor [0-9.]{1,20} remote-as [0-9]{1,12}",
                "ip prefix-list F seq [0-9]{1,8} deny [0-9./]{1,22}",
                "ip route [0-9.]{1,20} [0-9.]{1,20} [0-9.]{1,20}",
                " [a-z ]{0,30}",
            ],
            0..40,
        )
    ) {
        let text = lines.join("\n");
        let _ = parse_router(&text);
    }
}

/// Mutates a known-good network and checks the simulator degrades
/// gracefully: every mutation either simulates (possibly with black holes)
/// or returns an error — never panics.
#[test]
fn simulator_survives_config_corruption() {
    let base = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let mut rng = StdRng::seed_from_u64(0xFA17);

    for trial in 0..200 {
        let mut net = base.clone();
        let kind = trial % 8;
        corrupt(&mut net, kind, &mut rng);
        match simulate(&net) {
            Ok(sim) => {
                // Whatever happened, the data plane is structurally sound:
                // paths start at src and end at dst.
                for ps in sim.dataplane.pairs() {
                    for p in ps.paths() {
                        assert_eq!(p.first(), Some(&ps.src));
                        assert_eq!(p.last(), Some(&ps.dst));
                    }
                }
            }
            Err(e) => {
                // Errors are fine; they must be descriptive.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

fn corrupt(net: &mut NetworkConfigs, kind: usize, rng: &mut StdRng) {
    let router_names: Vec<String> = net.routers.keys().cloned().collect();
    let pick = router_names.choose(rng).expect("non-empty").clone();
    let rc = net.routers.get_mut(&pick).expect("exists");
    match kind {
        0 => {
            // Shut down a random interface.
            if let Some(i) = rc.interfaces.choose_mut(rng) {
                i.shutdown = true;
            }
        }
        1 => {
            // Delete a random interface entirely.
            if !rc.interfaces.is_empty() {
                let idx = rng.gen_range(0..rc.interfaces.len());
                rc.interfaces.remove(idx);
            }
        }
        2 => {
            // Break an address (move it to a foreign subnet).
            if let Some(i) = rc.interfaces.choose_mut(rng) {
                i.address = Some(("203.0.113.7".parse().unwrap(), 24));
            }
        }
        3 => {
            // Remove the IGP block.
            rc.ospf = None;
            rc.rip = None;
        }
        4 => {
            // Remove all network statements.
            if let Some(o) = rc.ospf.as_mut() {
                o.networks.clear();
            }
        }
        5 => {
            // Corrupt a BGP neighbor address.
            if let Some(b) = rc.bgp.as_mut() {
                if let Some(n) = b.neighbors.choose_mut(rng) {
                    n.addr = "198.51.100.1".parse().unwrap();
                }
            }
        }
        6 => {
            // Point a host's gateway nowhere.
            let host_names: Vec<String> = net.hosts.keys().cloned().collect();
            if let Some(h) = host_names.choose(rng) {
                net.hosts.get_mut(h).expect("exists").gateway = "192.0.2.254".parse().unwrap();
            }
        }
        _ => {
            // Deny everything everywhere on one router.
            rc.prefix_lists.push(confmask_config::PrefixList {
                name: "DENYALL".into(),
                entries: vec![confmask_config::PrefixListEntry {
                    seq: 5,
                    action: confmask_config::FilterAction::Deny,
                    prefix: "0.0.0.0/0".parse().unwrap(),
                    added: false,
                }],
            });
            let ifaces: Vec<String> = rc.interfaces.iter().map(|i| i.name.clone()).collect();
            if let Some(o) = rc.ospf.as_mut() {
                for iface in ifaces {
                    o.distribute_lists
                        .push(confmask_config::DistributeListBinding::Interface {
                            list: "DENYALL".into(),
                            interface: iface,
                            added: false,
                        });
                }
            }
        }
    }
}

/// A network that only black-holes (no routing at all) still produces a
/// complete, non-panicking data plane.
#[test]
fn routing_free_network_blackholes_everywhere() {
    let mut net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    for rc in net.routers.values_mut() {
        rc.ospf = None;
        rc.rip = None;
        rc.bgp = None;
    }
    let sim = simulate(&net).unwrap();
    let same_lan_ok = |src: &str, dst: &str| {
        let (s, d) = (&net.hosts[src], &net.hosts[dst]);
        s.prefix() == d.prefix()
    };
    for ps in sim.dataplane.pairs() {
        let (src, dst) = (ps.src, ps.dst);
        if same_lan_ok(src, dst) {
            assert!(ps.clean());
        } else {
            assert!(ps.blackhole(), "{src}->{dst} should blackhole: {ps:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Applying any failure scenario — valid faults, repeated faults, or
    /// references to elements the network does not have — to any small
    /// generated network never panics, and `apply` is idempotent:
    /// `apply(apply(c)) == apply(c)`.
    #[test]
    fn fault_injection_never_panics_and_is_idempotent(
        routers in 3usize..8,
        net_seed in 0u64..1000,
        picks in prop::collection::vec((any::<u64>(), 0usize..4), 1..4),
        bogus in "[a-z]{1,8}",
    ) {
        use confmask_sim::fault::{links_of, FailureScenario, Fault};

        let hosts = 2;
        let edges = (routers - 1 + routers / 2) + hosts;
        let spec = confmask_netgen::wan::wan_spec("prop", routers, hosts, edges, net_seed);
        let net = confmask_netgen::synthesize(&spec);
        let links = links_of(&net);
        prop_assume!(!links.is_empty());
        let router_names: Vec<String> = net.routers.keys().cloned().collect();

        let faults: Vec<Fault> = picks
            .iter()
            .map(|&(pick, kind)| {
                let pick = pick as usize;
                match kind {
                    0 => {
                        let (a, b, added) = links[pick % links.len()].clone();
                        Fault::LinkDown { a, b, added }
                    }
                    1 => Fault::RouterDown {
                        router: router_names[pick % router_names.len()].clone(),
                    },
                    2 => {
                        let name = &router_names[pick % router_names.len()];
                        let iface = net.routers[name].interfaces[0].name.clone();
                        Fault::InterfaceShutdown {
                            router: name.clone(),
                            iface,
                        }
                    }
                    _ => Fault::RouterDown {
                        router: bogus.clone(),
                    },
                }
            })
            .collect();
        let scenario = FailureScenario { faults };

        match scenario.apply(&net) {
            Ok(once) => {
                let twice = scenario.apply(&once).expect("re-apply of a valid scenario");
                prop_assert_eq!(&once, &twice);
                let _ = simulate(&once); // any outcome is fine; no panic
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// Two routers claiming the same interface address: the simulator builds a
/// model without panicking and the data plane stays structurally sound.
#[test]
fn duplicate_addresses_do_not_panic() {
    let mut net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    let clone_addr = {
        let first = net.routers.values().next().unwrap();
        first.interfaces[0].address
    };
    let last = net.routers.values_mut().next_back().unwrap();
    last.interfaces[0].address = clone_addr;
    let _ = simulate(&net); // either outcome is fine; no panic
}
