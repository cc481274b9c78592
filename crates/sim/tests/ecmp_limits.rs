//! ECMP behaviour at the edges: wide fan-outs, the per-pair path cap, and
//! path-set determinism.

use confmask_config::{parse_router, HostConfig, NetworkConfigs};
use confmask_sim::dataplane::MAX_PATHS_PER_PAIR;
use confmask_sim::simulate;

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

/// A k-wide parallel "ladder": src router fans out to `k` middle routers
/// which all converge on the dst router — exactly `k` equal-cost paths.
fn ladder(k: usize) -> NetworkConfigs {
    let mut routers = Vec::new();
    let mut src = String::from(
        "hostname rsrc\n!\ninterface Ethernet1/0\n ip address 10.1.1.1 255.255.255.0\n!\n",
    );
    let mut dst = String::from(
        "hostname rdst\n!\ninterface Ethernet1/0\n ip address 10.1.2.1 255.255.255.0\n!\n",
    );
    for m in 0..k {
        let a = format!("10.0.{m}.0");
        let b = format!("10.0.{m}.2");
        src.push_str(&format!(
            "interface Ethernet0/{m}\n ip address {a} 255.255.255.254\n!\n"
        ));
        dst.push_str(&format!(
            "interface Ethernet0/{m}\n ip address 10.0.{m}.3 255.255.255.254\n!\n"
        ));
        routers.push(
            parse_router(&format!(
                "hostname rmid{m:02}\n!\ninterface Ethernet0/0\n ip address 10.0.{m}.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address {b} 255.255.255.254\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n"
            ))
            .unwrap(),
        );
    }
    src.push_str("router ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n");
    dst.push_str("router ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n");
    routers.push(parse_router(&src).unwrap());
    routers.push(parse_router(&dst).unwrap());
    NetworkConfigs::new(
        routers,
        [
            host("hs", "10.1.1.100", "10.1.1.1"),
            host("hd", "10.1.2.100", "10.1.2.1"),
        ],
    )
}

#[test]
fn wide_ecmp_enumerates_every_path() {
    let sim = simulate(&ladder(8)).unwrap();
    let ps = sim.dataplane.between("hs", "hd").unwrap();
    assert!(ps.clean());
    assert_eq!(ps.path_count(), 8, "one path per middle router");
    // All paths distinct and of equal length.
    let set: std::collections::BTreeSet<_> = ps.paths().collect();
    assert_eq!(set.len(), 8);
    assert!(ps.paths().all(|p| p.len() == 5));
}

#[test]
fn path_cap_bounds_enumeration() {
    // Two ladders in series: 20 × 20 = 400 equal-cost paths > cap (256).
    // The enumerator must stop at the cap rather than exploding.
    let mut net = ladder(20);
    // Chain a second fan-out: rdst → 20 more middles → rfinal with hd2.
    let mut rdst_extra = String::new();
    let mut rfinal = String::from(
        "hostname rzfin\n!\ninterface Ethernet1/0\n ip address 10.1.3.1 255.255.255.0\n!\n",
    );
    let mut mids = Vec::new();
    for m in 0..20 {
        rdst_extra.push_str(&format!(
            "interface Ethernet2/{m}\n ip address 10.2.{m}.0 255.255.255.254\n!\n"
        ));
        rfinal.push_str(&format!(
            "interface Ethernet0/{m}\n ip address 10.2.{m}.3 255.255.255.254\n!\n"
        ));
        mids.push(
            parse_router(&format!(
                "hostname rnid{m:02}\n!\ninterface Ethernet0/0\n ip address 10.2.{m}.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.2.{m}.2 255.255.255.254\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n"
            ))
            .unwrap(),
        );
    }
    rfinal.push_str("router ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n");
    {
        let rdst = net.routers.get_mut("rdst").unwrap();
        let extra = parse_router(&format!("hostname rdst\n!\n{rdst_extra}")).unwrap();
        rdst.interfaces.extend(extra.interfaces);
    }
    for m in mids {
        net.routers.insert(m.hostname.clone(), m);
    }
    let rf = parse_router(&rfinal).unwrap();
    net.routers.insert(rf.hostname.clone(), rf);
    net.hosts
        .insert("hd2".into(), host("hd2", "10.1.3.100", "10.1.3.1"));

    let sim = simulate(&net).unwrap();
    let ps = sim.dataplane.between("hs", "hd2").unwrap();
    assert!(!ps.blackhole() && !ps.has_loop());
    assert!(
        ps.path_count() <= MAX_PATHS_PER_PAIR,
        "cap respected: {}",
        ps.path_count()
    );
    assert!(
        ps.path_count() >= 200,
        "still enumerates a lot: {}",
        ps.path_count()
    );
}

#[test]
fn path_sets_are_sorted_and_deterministic() {
    let a = simulate(&ladder(6)).unwrap();
    let b = simulate(&ladder(6)).unwrap();
    assert_eq!(a.dataplane, b.dataplane);
    let ps = a.dataplane.between("hs", "hd").unwrap();
    let paths: Vec<_> = ps.paths().collect();
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted, "paths are kept sorted");
}
