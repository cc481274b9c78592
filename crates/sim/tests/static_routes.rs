//! Integration tests for static routing: administrative distance,
//! longest-prefix match against dynamic routes, default routes, forwarding
//! loops, and black holes.

use confmask_config::{parse_router, HostConfig, NetworkConfigs, StaticRoute};
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

/// Triangle r1–r2–r3 with OSPF everywhere, hosts on r1 and r3.
fn triangle() -> NetworkConfigs {
    let r1 = parse_router(
        "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
    )
    .unwrap();
    let r2 = parse_router(
        "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.0 255.255.255.254\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
    )
    .unwrap();
    let r3 = parse_router(
        "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.3.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
    )
    .unwrap();
    NetworkConfigs::new(
        [r1, r2, r3],
        [
            host("h1", "10.1.1.100", "10.1.1.1"),
            host("h3", "10.1.3.100", "10.1.3.1"),
        ],
    )
}

#[test]
fn static_route_overrides_ospf() {
    let mut net = triangle();
    // OSPF prefers the direct r1→r3 link; force h3 traffic through r2.
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.1.3.0/24".parse().unwrap(),
            next_hop: "10.0.12.1".parse().unwrap(), // r2
            added: false,
        });
    let sim = simulate(&net).unwrap();
    let r1 = sim.net.router_id("r1").unwrap();
    let entry = sim
        .fibs
        .of(r1)
        .lookup("10.1.3.100".parse().unwrap())
        .unwrap();
    assert_eq!(entry.source, RouteSource::Static);
    let ps = sim.dataplane.between("h1", "h3").unwrap();
    assert_eq!(
        ps.paths().collect::<Vec<_>>(),
        vec![vec![
            "h1".to_string(),
            "r1".into(),
            "r2".into(),
            "r3".into(),
            "h3".into()
        ]],
        "traffic detours through r2"
    );
    assert!(ps.clean());
}

#[test]
fn default_route_covers_unknown_destinations() {
    let mut net = triangle();
    // Withdraw h3's LAN from OSPF on r3 and give r1/r2 default routes
    // toward r3 instead.
    {
        let r3 = net.routers.get_mut("r3").unwrap();
        r3.ospf.as_mut().unwrap().networks[0].prefix = "10.0.0.0/15".parse().unwrap();
    }
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "0.0.0.0/0".parse().unwrap(),
            next_hop: "10.0.13.1".parse().unwrap(), // r3 directly
            added: false,
        });
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h3").unwrap();
    assert!(ps.clean(), "{ps:?}");
    assert_eq!(
        ps.paths().collect::<Vec<_>>(),
        vec![vec![
            "h1".to_string(),
            "r1".into(),
            "r3".into(),
            "h3".into()
        ]]
    );
    // Reverse direction still works via r3's connected + OSPF route to h1.
    assert!(sim.dataplane.between("h3", "h1").unwrap().clean());
}

#[test]
fn longest_prefix_match_beats_admin_distance() {
    let mut net = triangle();
    // A /16 static toward r2 must NOT shadow the /24 OSPF route via r3:
    // LPM is decided before administrative distance.
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.1.0.0/16".parse().unwrap(),
            next_hop: "10.0.12.1".parse().unwrap(), // r2
            added: false,
        });
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h3").unwrap();
    assert_eq!(
        ps.paths().collect::<Vec<_>>(),
        vec![vec![
            "h1".to_string(),
            "r1".into(),
            "r3".into(),
            "h3".into()
        ]],
        "the more specific OSPF route wins"
    );
}

#[test]
fn static_loop_is_detected() {
    let mut net = triangle();
    // A prefix no one owns, with r1 and r2 pointing at each other.
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.9.9.0/24".parse().unwrap(),
            next_hop: "10.0.12.1".parse().unwrap(), // r2
            added: false,
        });
    net.routers
        .get_mut("r2")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.9.9.0/24".parse().unwrap(),
            next_hop: "10.0.12.0".parse().unwrap(), // back to r1
            added: false,
        });
    // A host claiming to live in that prefix (its gateway resolves
    // nowhere, so traffic enters the loop from elsewhere).
    net.hosts
        .insert("h9".into(), host("h9", "10.9.9.100", "10.9.9.1"));
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h9").unwrap();
    assert!(ps.has_loop(), "r1↔r2 static loop must be flagged: {ps:?}");
    assert!((ps.path_count() == 0));
}

#[test]
fn unresolvable_next_hop_is_ignored() {
    let mut net = triangle();
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.1.3.0/24".parse().unwrap(),
            next_hop: "192.0.2.99".parse().unwrap(), // not on any segment
            added: false,
        });
    let sim = simulate(&net).unwrap();
    let r1 = sim.net.router_id("r1").unwrap();
    // The unresolvable static is absent; OSPF still routes.
    let entry = sim
        .fibs
        .of(r1)
        .lookup("10.1.3.100".parse().unwrap())
        .unwrap();
    assert_eq!(entry.source, RouteSource::Ospf);
    assert!(sim.dataplane.between("h1", "h3").unwrap().clean());
}

#[test]
fn static_toward_missing_prefix_blackholes() {
    let mut net = triangle();
    // r1 statically sends 10.9.9.0/24 to r2, which has no route at all.
    net.routers
        .get_mut("r1")
        .unwrap()
        .static_routes
        .push(StaticRoute {
            prefix: "10.9.9.0/24".parse().unwrap(),
            next_hop: "10.0.12.1".parse().unwrap(),
            added: false,
        });
    net.hosts
        .insert("h9".into(), host("h9", "10.9.9.100", "10.9.9.1"));
    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("h1", "h9").unwrap();
    assert!(ps.blackhole(), "{ps:?}");
}
