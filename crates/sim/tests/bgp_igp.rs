//! Integration tests for the BGP + IGP interaction: iBGP egress resolution
//! through OSPF, administrative-distance interplay, and filters on
//! iBGP-resolved next hops — the machinery ConfMask's route-equivalence
//! filters rely on in mixed BGP+OSPF networks.

use confmask_config::{parse_router, HostConfig, NetworkConfigs};
use confmask_sim::{simulate, RouteSource};

fn host(name: &str, addr: &str, gw: &str) -> HostConfig {
    HostConfig {
        hostname: name.into(),
        iface_name: "eth0".into(),
        address: (addr.parse().unwrap(), 24),
        gateway: gw.parse().unwrap(),
        extra: vec![],
        added: false,
    }
}

/// AS 100: i1 — i2 — b1 (OSPF inside, all run BGP);
/// AS 200: b2 with a host. eBGP between b1 and b2.
/// The interesting router is i1: it reaches AS 200's host via iBGP
/// (egress b1) resolved through OSPF (next hop i2).
fn two_as_with_interior() -> NetworkConfigs {
    let i1 = parse_router(
        "hostname i1\n!\ninterface Ethernet0/0\n ip address 10.0.1.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.1.0 0.0.0.1 area 0\n network 10.1.1.0 0.0.0.255 area 0\n!\nrouter bgp 100\n network 10.1.1.0 mask 255.255.255.0\n!\n",
    )
    .unwrap();
    let i2 = parse_router(
        "hostname i2\n!\ninterface Ethernet0/0\n ip address 10.0.1.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.2.0 255.255.255.254\n!\nrouter ospf 1\n network 10.0.1.0 0.0.0.1 area 0\n network 10.0.2.0 0.0.0.1 area 0\n!\nrouter bgp 100\n!\n",
    )
    .unwrap();
    let b1 = parse_router(
        "hostname b1\n!\ninterface Ethernet0/0\n ip address 10.0.2.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.9.0 255.255.255.254\n!\nrouter ospf 1\n network 10.0.2.0 0.0.0.1 area 0\n!\nrouter bgp 100\n neighbor 10.0.9.1 remote-as 200\n!\n",
    )
    .unwrap();
    let b2 = parse_router(
        "hostname b2\n!\ninterface Ethernet0/0\n ip address 10.0.9.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.2.1.1 255.255.255.0\n!\nrouter bgp 200\n network 10.2.1.0 mask 255.255.255.0\n neighbor 10.0.9.0 remote-as 100\n!\n",
    )
    .unwrap();
    NetworkConfigs::new(
        [i1, i2, b1, b2],
        [
            host("h1", "10.1.1.100", "10.1.1.1"),
            host("h2", "10.2.1.100", "10.2.1.1"),
        ],
    )
}

#[test]
fn interior_router_resolves_ibgp_through_ospf() {
    let net = two_as_with_interior();
    let sim = simulate(&net).unwrap();
    let i1 = sim.net.router_id("i1").unwrap();
    let i2 = sim.net.router_id("i2").unwrap();
    let entry = sim
        .fibs
        .of(i1)
        .lookup("10.2.1.100".parse().unwrap())
        .unwrap();
    assert_eq!(entry.source, RouteSource::Ibgp, "interior router uses iBGP");
    assert_eq!(entry.next_hops.len(), 1);
    assert_eq!(
        entry.next_hops[0].router(),
        Some(i2),
        "resolved via OSPF toward egress b1"
    );

    let ps = sim.dataplane.between("h1", "h2").unwrap();
    assert!(ps.clean());
    assert_eq!(
        ps.paths().collect::<Vec<_>>(),
        vec![vec![
            "h1".to_string(),
            "i1".into(),
            "i2".into(),
            "b1".into(),
            "b2".into(),
            "h2".into()
        ]]
    );
}

#[test]
fn border_router_uses_ebgp() {
    let net = two_as_with_interior();
    let sim = simulate(&net).unwrap();
    let b1 = sim.net.router_id("b1").unwrap();
    let entry = sim
        .fibs
        .of(b1)
        .lookup("10.2.1.100".parse().unwrap())
        .unwrap();
    assert_eq!(entry.source, RouteSource::Ebgp);
}

#[test]
fn intra_as_prefix_stays_on_ospf() {
    // h1's LAN is AS-100-internal: interior and border routers must use
    // OSPF (AD 110) rather than iBGP (AD 200) for it.
    let net = two_as_with_interior();
    let sim = simulate(&net).unwrap();
    for name in ["i2", "b1"] {
        let rid = sim.net.router_id(name).unwrap();
        let entry = sim
            .fibs
            .of(rid)
            .lookup("10.1.1.100".parse().unwrap())
            .unwrap();
        assert_eq!(entry.source, RouteSource::Ospf, "{name}");
    }
}

#[test]
fn igp_filter_suppresses_ibgp_resolution() {
    // Deny h2's prefix on i1's interface toward i2. The iBGP route's only
    // resolved next hop dies ⇒ i1 has no route ⇒ black hole. This is the
    // semantics ConfMask's filters use to steer BGP-learned destinations
    // off fake intra-AS links (where an equal-cost alternative always
    // remains; here there is none, so the route disappears).
    let mut net = two_as_with_interior();
    {
        let i1 = net.routers.get_mut("i1").unwrap();
        i1.prefix_lists.push(confmask_config::PrefixList {
            name: "F".into(),
            entries: vec![confmask_config::PrefixListEntry {
                seq: 5,
                action: confmask_config::FilterAction::Deny,
                prefix: "10.2.1.0/24".parse().unwrap(),
                added: false,
            }],
        });
        i1.ospf.as_mut().unwrap().distribute_lists.push(
            confmask_config::DistributeListBinding::Interface {
                list: "F".into(),
                interface: "Ethernet0/0".into(),
                added: false,
            },
        );
    }
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h2").unwrap();
    assert!(ps.blackhole(), "{ps:?}");
    // The reverse direction is unaffected.
    assert!(sim.dataplane.between("h2", "h1").unwrap().clean());
}

#[test]
fn bgp_session_filter_blocks_at_the_border() {
    let mut net = two_as_with_interior();
    {
        let b1 = net.routers.get_mut("b1").unwrap();
        b1.prefix_lists.push(confmask_config::PrefixList {
            name: "F".into(),
            entries: vec![confmask_config::PrefixListEntry {
                seq: 5,
                action: confmask_config::FilterAction::Deny,
                prefix: "10.2.1.0/24".parse().unwrap(),
                added: false,
            }],
        });
        b1.bgp.as_mut().unwrap().distribute_lists.push(
            confmask_config::DistributeListBinding::Neighbor {
                list: "F".into(),
                neighbor: "10.0.9.1".parse().unwrap(),
                added: false,
            },
        );
    }
    let sim = simulate(&net).unwrap();
    // Nobody in AS 100 can reach h2 anymore: the only eBGP import is gone.
    assert!(sim.dataplane.between("h1", "h2").unwrap().blackhole());
}

#[test]
fn parallel_ebgp_sessions_prefer_lower_session_index() {
    // Two parallel links (and sessions) between b1 and b2: the decision
    // process must be deterministic.
    let mut net = two_as_with_interior();
    {
        let b1 = net.routers.get_mut("b1").unwrap();
        b1.interfaces.push(confmask_config::Interface::new(
            "Ethernet0/9",
            "10.0.10.0".parse().unwrap(),
            31,
        ));
        b1.bgp
            .as_mut()
            .unwrap()
            .neighbors
            .push(confmask_config::BgpNeighbor {
                addr: "10.0.10.1".parse().unwrap(),
                remote_as: confmask_net_types::Asn(200),
                local_pref: None,
                added: false,
            });
        let b2 = net.routers.get_mut("b2").unwrap();
        b2.interfaces.push(confmask_config::Interface::new(
            "Ethernet0/9",
            "10.0.10.1".parse().unwrap(),
            31,
        ));
        b2.bgp
            .as_mut()
            .unwrap()
            .neighbors
            .push(confmask_config::BgpNeighbor {
                addr: "10.0.10.0".parse().unwrap(),
                remote_as: confmask_net_types::Asn(100),
                local_pref: None,
                added: false,
            });
    }
    let a = simulate(&net).unwrap();
    let b = simulate(&net).unwrap();
    let b1 = a.net.router_id("b1").unwrap();
    let ea = a.fibs.of(b1).lookup("10.2.1.100".parse().unwrap()).unwrap();
    let eb = b.fibs.of(b1).lookup("10.2.1.100".parse().unwrap()).unwrap();
    assert_eq!(ea, eb, "deterministic tie-break across runs");
    assert_eq!(ea.next_hops.len(), 1, "BGP picks one best path");
}

#[test]
fn local_preference_overrides_as_path_length() {
    // Give b1 a second, longer way to h2: via AS 300 (b3) which transits to
    // AS 200. With a high local-preference on the AS 300 session, the
    // longer AS path must win at b1 — local-pref precedes AS-path length
    // in the decision process.
    let mut net = two_as_with_interior();
    let b3 = parse_router(
        "hostname b3\n!\ninterface Ethernet0/0\n ip address 10.0.11.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.12.0 255.255.255.254\n!\nrouter bgp 300\n neighbor 10.0.11.0 remote-as 100\n neighbor 10.0.12.1 remote-as 200\n!\n",
    )
    .unwrap();
    net.routers.insert("b3".into(), b3);
    {
        let b1 = net.routers.get_mut("b1").unwrap();
        b1.interfaces.push(confmask_config::Interface::new(
            "Ethernet0/8",
            "10.0.11.0".parse().unwrap(),
            31,
        ));
        let bgp = b1.bgp.as_mut().unwrap();
        bgp.neighbors.push(confmask_config::BgpNeighbor {
            addr: "10.0.11.1".parse().unwrap(),
            remote_as: confmask_net_types::Asn(300),
            local_pref: Some(200), // prefer the detour
            added: false,
        });
        let b2 = net.routers.get_mut("b2").unwrap();
        b2.interfaces.push(confmask_config::Interface::new(
            "Ethernet0/8",
            "10.0.12.1".parse().unwrap(),
            31,
        ));
        b2.bgp
            .as_mut()
            .unwrap()
            .neighbors
            .push(confmask_config::BgpNeighbor {
                addr: "10.0.12.0".parse().unwrap(),
                remote_as: confmask_net_types::Asn(300),
                local_pref: None,
                added: false,
            });
    }
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h2").unwrap();
    assert!(ps.clean(), "{ps:?}");
    assert!(
        ps.paths().all(|p| p.contains(&"b3")),
        "high local-pref forces the AS 300 detour: {:?}",
        ps.paths().collect::<Vec<_>>()
    );
    // Without the local-preference, the direct session wins.
    net.routers
        .get_mut("b1")
        .unwrap()
        .bgp
        .as_mut()
        .unwrap()
        .neighbors
        .iter_mut()
        .for_each(|n| n.local_pref = None);
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h2").unwrap();
    assert!(
        ps.paths().all(|p| !p.contains(&"b3")),
        "default preferences take the shorter AS path: {:?}",
        ps.paths().collect::<Vec<_>>()
    );
}

#[test]
fn local_preference_round_trips_through_text() {
    let mut net = two_as_with_interior();
    net.routers
        .get_mut("b1")
        .unwrap()
        .bgp
        .as_mut()
        .unwrap()
        .neighbors[0]
        .local_pref = Some(250);
    let text = net.routers["b1"].emit();
    assert!(text.contains(" neighbor 10.0.9.1 local-preference 250"));
    let back = parse_router(&text).unwrap();
    assert_eq!(back, net.routers["b1"]);
}
