//! Hand-modelled small networks.
//!
//! * Nets **A–C** of Table 2 (Enterprise / University / Backbone): the
//!   originals are real-world confidential configurations — exactly the
//!   data ConfMask exists to protect — so we model BGP+OSPF networks with
//!   the published router/host/edge counts and a realistic AS structure.
//! * The **Figure 2 example network** (four routers, two cost-1 links) used
//!   throughout §3 of the paper — also this repository's quickstart.
//! * The **§2.3 case-study network**: FatTree-04 with the QoS
//!   misconfiguration of Listings 1–2 embedded as uninterpreted
//!   configuration lines.

use crate::fattree::fattree_spec;
use crate::synth::{synthesize, IgpProtocol, TopoSpec};
use confmask_config::NetworkConfigs;

fn named(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// Net A — "Enterprise": R=10, H=8, E=26, three ASes (HQ + two branches).
pub fn enterprise() -> TopoSpec {
    let mut spec = TopoSpec::new("enterprise", named("a", 10), IgpProtocol::Ospf);
    spec.asn_of = Some(vec![
        65001, 65001, 65001, 65001, // HQ
        65002, 65002, 65002, 65002, // branch 1
        65003, 65003, // branch 2
    ]);
    spec.links = vec![
        // HQ mesh
        (0, 1, None),
        (1, 2, Some(5)),
        (2, 3, None),
        (0, 2, None),
        (1, 3, None),
        // branch 1
        (4, 5, None),
        (5, 6, None),
        (6, 7, Some(2)),
        (4, 6, None),
        // branch 2
        (8, 9, None),
        // inter-AS
        (3, 4, None),
        (2, 5, None),
        (3, 8, None),
        (0, 8, None),
        (7, 9, None),
        (6, 9, None),
        (1, 4, None),
        (2, 8, None),
    ];
    spec.hosts = [0, 1, 2, 5, 6, 7, 8, 9]
        .iter()
        .enumerate()
        .map(|(i, &r)| (format!("ha{i}"), r))
        .collect();
    spec
}

/// Net B — "University": R=13, H=8, E=25, two ASes (campus + dorms).
pub fn university() -> TopoSpec {
    let mut spec = TopoSpec::new("university", named("u", 13), IgpProtocol::Ospf);
    spec.asn_of = Some(vec![
        65010, 65010, 65010, 65010, 65010, 65010, 65010, 65010, 65010, 65010, // campus
        65020, 65020, 65020, // dorms
    ]);
    spec.links = vec![
        // campus ring + spokes
        (0, 1, None),
        (1, 2, None),
        (2, 3, Some(3)),
        (3, 4, None),
        (4, 5, None),
        (5, 0, None),
        (1, 6, None),
        (2, 7, None),
        (3, 8, None),
        (4, 9, None),
        // dorm chain
        (10, 11, None),
        (11, 12, None),
        // inter-AS
        (0, 10, None),
        (5, 12, None),
        (6, 10, None),
        (9, 11, None),
        (7, 12, None),
    ];
    spec.hosts = [6, 7, 8, 9, 10, 11, 12, 0]
        .iter()
        .enumerate()
        .map(|(i, &r)| (format!("hu{i}"), r))
        .collect();
    spec
}

/// Net C — "Backbone": R=11, H=9, E=22, three ASes in a cycle.
pub fn backbone() -> TopoSpec {
    let mut spec = TopoSpec::new("backbone", named("b", 11), IgpProtocol::Ospf);
    spec.asn_of = Some(vec![
        65100, 65100, 65100, 65100, // region 1
        65200, 65200, 65200, 65200, // region 2
        65300, 65300, 65300, // region 3
    ]);
    spec.links = vec![
        (0, 1, None),
        (1, 2, None),
        (2, 3, None),
        (4, 5, None),
        (5, 6, Some(4)),
        (6, 7, None),
        (8, 9, None),
        (9, 10, None),
        // inter-AS cycle + shortcuts
        (3, 4, None),
        (7, 8, None),
        (10, 0, None),
        (1, 5, None),
        (2, 9, None),
    ];
    spec.hosts = [0, 1, 2, 4, 5, 6, 8, 9, 10]
        .iter()
        .enumerate()
        .map(|(i, &r)| (format!("hb{i}"), r))
        .collect();
    spec
}

/// A RIP-only branch-office network (9 routers, 6 hosts): the
/// distance-vector coverage network. The paper's SFE conditions and
/// Algorithm 1 are defined for distance-vector protocols too (§5.1); none
/// of the Table 2 networks runs RIP, so this network exists to exercise
/// that code path end to end.
pub fn branch_office_rip() -> TopoSpec {
    let mut spec = TopoSpec::new("branch-rip", named("d", 9), IgpProtocol::Rip);
    spec.links = vec![
        // core ring
        (0, 1, None),
        (1, 2, None),
        (2, 0, None),
        // branches
        (0, 3, None),
        (3, 4, None),
        (1, 5, None),
        (5, 6, None),
        (2, 7, None),
        (7, 8, None),
        // redundancy
        (4, 5, None),
        (6, 7, None),
    ];
    spec.hosts = [3, 4, 5, 6, 7, 8]
        .iter()
        .enumerate()
        .map(|(i, &r)| (format!("hd{i}"), r))
        .collect();
    spec
}

/// The §3.2 example network (Figure 2): four routers, hosts on r1, r2, r4;
/// the r1–r3 and r3–r2 links cost 1, everything else default. The only path
/// h1 → h4 is `(h1, r1, r3, r2, r4, h4)`.
pub fn example_network() -> NetworkConfigs {
    let mut spec = TopoSpec::new(
        "example",
        vec!["r1".into(), "r2".into(), "r3".into(), "r4".into()],
        IgpProtocol::Ospf,
    );
    spec.links = vec![(0, 2, Some(1)), (2, 1, Some(1)), (1, 3, None)];
    spec.hosts = vec![("h1".into(), 0), ("h2".into(), 1), ("h4".into(), 3)];
    synthesize(&spec)
}

/// Griffin's BAD GADGET: the canonical BGP instance with *no* stable
/// routing — a hub AS originating one prefix and three spoke ASes in a
/// cycle, each preferring the route through its clockwise neighbour
/// (`local-preference 200`) over its direct route to the hub. Whatever any
/// spoke picks, some neighbour wants to change, so path-vector oscillates
/// forever; the simulator must detect this and report
/// `SimError::BgpDiverged` instead of spinning, and the anonymization
/// pipeline must classify it as fatal (never retried — no reseed can fix a
/// network with no equilibrium).
pub fn bad_gadget() -> NetworkConfigs {
    use confmask_config::{parse_host, parse_router};

    let cfg = |lines: &[&str]| lines.join("\n") + "\n";
    let r0 = cfg(&[
        "hostname b0",
        "!",
        "interface Ethernet0/0",
        " ip address 10.0.1.0 255.255.255.254",
        "!",
        "interface Ethernet0/1",
        " ip address 10.0.2.0 255.255.255.254",
        "!",
        "interface Ethernet0/2",
        " ip address 10.0.3.0 255.255.255.254",
        "!",
        "interface Ethernet0/3",
        " ip address 10.1.0.1 255.255.255.0",
        "!",
        "router bgp 100",
        " network 10.1.0.0 mask 255.255.255.0",
        " neighbor 10.0.1.1 remote-as 101",
        " neighbor 10.0.2.1 remote-as 102",
        " neighbor 10.0.3.1 remote-as 103",
        "!",
    ]);
    // Spoke i: links to the hub, to spoke i+1 (preferred) and spoke i-1.
    let r1 = cfg(&[
        "hostname b1",
        "!",
        "interface Ethernet0/0",
        " ip address 10.0.1.1 255.255.255.254",
        "!",
        "interface Ethernet0/1",
        " ip address 10.0.12.0 255.255.255.254",
        "!",
        "interface Ethernet0/2",
        " ip address 10.0.31.1 255.255.255.254",
        "!",
        "router bgp 101",
        " neighbor 10.0.1.0 remote-as 100",
        " neighbor 10.0.12.1 remote-as 102",
        " neighbor 10.0.12.1 local-preference 200",
        " neighbor 10.0.31.0 remote-as 103",
        "!",
    ]);
    let r2 = cfg(&[
        "hostname b2",
        "!",
        "interface Ethernet0/0",
        " ip address 10.0.2.1 255.255.255.254",
        "!",
        "interface Ethernet0/1",
        " ip address 10.0.23.0 255.255.255.254",
        "!",
        "interface Ethernet0/2",
        " ip address 10.0.12.1 255.255.255.254",
        "!",
        "router bgp 102",
        " neighbor 10.0.2.0 remote-as 100",
        " neighbor 10.0.23.1 remote-as 103",
        " neighbor 10.0.23.1 local-preference 200",
        " neighbor 10.0.12.0 remote-as 101",
        "!",
    ]);
    let r3 = cfg(&[
        "hostname b3",
        "!",
        "interface Ethernet0/0",
        " ip address 10.0.3.1 255.255.255.254",
        "!",
        "interface Ethernet0/1",
        " ip address 10.0.31.0 255.255.255.254",
        "!",
        "interface Ethernet0/2",
        " ip address 10.0.23.1 255.255.255.254",
        "!",
        "router bgp 103",
        " neighbor 10.0.3.0 remote-as 100",
        " neighbor 10.0.31.1 remote-as 101",
        " neighbor 10.0.31.1 local-preference 200",
        " neighbor 10.0.23.0 remote-as 102",
        "!",
    ]);
    let h0 = "hostname hb0\ninterface eth0\n ip address 10.1.0.100 255.255.255.0\n gateway 10.1.0.1\n";

    NetworkConfigs::new(
        [
            parse_router(&r0).unwrap(),
            parse_router(&r1).unwrap(),
            parse_router(&r2).unwrap(),
            parse_router(&r3).unwrap(),
        ],
        [parse_host(h0).unwrap()],
    )
}

/// The §2.3 case-study network: FatTree-04 with the QoS misconfiguration of
/// Listings 1–2 embedded verbatim (as uninterpreted lines the anonymizer
/// must carry through unchanged).
///
/// The root cause lives on `core2` (marks traffic from the management
/// subnet low-priority) and manifests as congestion on `agg1-1`'s
/// low-priority queue; diagnosing it requires the waypoint
/// `(edge3-1, agg3-1, core2, agg1-1, edge1-0)` to stay visible (Figure 1).
pub fn case_study_network() -> NetworkConfigs {
    let mut net = synthesize(&fattree_spec(4));

    // Listing 1 — QoS-related configuration of router c2 (here: core2).
    {
        let c2 = net.routers.get_mut("core2").expect("fat-tree has core2");
        // The interface toward agg3-1 carries the (mis)marking policy.
        if let Some(iface) = c2
            .interfaces
            .iter_mut()
            .find(|i| i.description.as_deref() == Some("to-agg3-1"))
        {
            iface
                .extra
                .push("traffic-policy mark_agg31_high_priority inbound".to_string());
        }
        c2.extra_lines.extend([
            "traffic classifier is_mgmt_traffic".to_string(),
            " if-match any".to_string(),
            "traffic behavior remark_mgmt_dscp".to_string(),
            " remark dscp af31".to_string(),
            "traffic policy mark_agg31_high_priority".to_string(),
            " classifier is_mgmt_traffic behavior remark_mgmt_dscp".to_string(),
        ]);
    }

    // Listing 2 — QoS-related configuration of router agg1-1.
    {
        let agg = net.routers.get_mut("agg1-1").expect("fat-tree has agg1-1");
        if let Some(iface) = agg
            .interfaces
            .iter_mut()
            .find(|i| i.description.as_deref() == Some("to-edge1-0"))
        {
            iface.extra.extend([
                "trust dscp".to_string(),
                "qos schedule-profile default".to_string(),
                "qos wrr 1 to 7".to_string(),
                "qos queue 2 wrr weight 10".to_string(),
                "qos queue 7 wrr weight 90".to_string(),
            ]);
        }
    }

    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize;

    #[test]
    fn table2_small_net_sizes() {
        for (spec, r, h, e) in [
            (enterprise(), 10, 8, 26),
            (university(), 13, 8, 25),
            (backbone(), 11, 9, 22),
        ] {
            assert_eq!(spec.routers.len(), r, "{}", spec.name);
            assert_eq!(spec.hosts.len(), h, "{}", spec.name);
            assert_eq!(spec.links.len() + spec.hosts.len(), e, "{}", spec.name);
        }
    }

    #[test]
    fn rip_network_simulates_fully_reachable() {
        let net = synthesize(&branch_office_rip());
        let sim = confmask_sim::simulate(&net).unwrap();
        for ps in sim.dataplane.pairs() {
            assert!(ps.clean(), "{ps:?}");
        }
        // It really is RIP.
        assert!(net.routers["d0"].rip.is_some());
        assert!(net.routers["d0"].ospf.is_none());
    }

    #[test]
    fn small_nets_simulate_fully_reachable() {
        for spec in [enterprise(), university(), backbone()] {
            let net = synthesize(&spec);
            let sim = confmask_sim::simulate(&net)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let bad: Vec<_> = sim
                .dataplane
                .pairs()
                .filter(|ps| !ps.clean())
                .map(|ps| (ps.src, ps.dst))
                .collect();
            assert!(bad.is_empty(), "{}: unreachable pairs {bad:?}", spec.name);
        }
    }

    #[test]
    fn example_network_has_the_paper_path() {
        let net = example_network();
        let sim = confmask_sim::simulate(&net).unwrap();
        let ps = sim.dataplane.between("h1", "h4").unwrap();
        assert_eq!(
            ps.paths().collect::<Vec<_>>(),
            vec![vec![
                "h1".to_string(),
                "r1".into(),
                "r3".into(),
                "r2".into(),
                "r4".into(),
                "h4".into()
            ]],
            "the only h1→h4 path runs through r3 and r2"
        );
    }

    #[test]
    fn case_study_keeps_qos_lines_and_waypoint() {
        let net = case_study_network();
        let c2_text = net.routers["core2"].emit();
        assert!(c2_text.contains("traffic-policy mark_agg31_high_priority inbound"));
        assert!(c2_text.contains("remark dscp af31"));
        let agg_text = net.routers["agg1-1"].emit();
        assert!(agg_text.contains("qos queue 2 wrr weight 10"));
        // QoS lines survive a parse/emit round-trip.
        let back = confmask_config::parse_router(&c2_text).unwrap();
        assert_eq!(back, net.routers["core2"]);

        // The management-to-user path crosses a core (the waypoint class the
        // case study cares about).
        let sim = confmask_sim::simulate(&net).unwrap();
        let ps = sim.dataplane.between("h3-1-0", "h1-0-0").unwrap();
        assert!(ps.clean());
        assert!(
            ps.paths().all(|p| p.iter().any(|n| n.starts_with("core"))),
            "inter-pod traffic waypoints through a core: {:?}",
            ps.paths().collect::<Vec<_>>()
        );
    }
}
