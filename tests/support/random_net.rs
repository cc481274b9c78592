//! Random small networks for the simulator differentials (`delta_diff`,
//! `warm_diff`, `dataplane_diff`, `model_diff`, `reference_forwarding`,
//! and the `confmask-sim-delta` unit test
//! `plan_matches_cold_simulation_on_random_networks`, which includes this
//! file by path), plus a static-route flavour for synthesized configs.

use confmask_config::{NetworkConfigs, StaticRoute};
use confmask_net_types::{Ipv4Addr, Ipv4Prefix};
use confmask_netgen::{IgpProtocol, TopoSpec};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// A random connected network of 4–10 routers: random spanning tree plus
/// random extra links with optional costs, random host placement, and the
/// protocol flavor picked by `flavor` (0 = OSPF, 1 = RIP, 2 = BGP+OSPF).
pub fn random_spec(rng: &mut StdRng, flavor: u8) -> TopoSpec {
    let n = rng.gen_range(4usize..=10);
    let igp = if flavor == 1 {
        IgpProtocol::Rip
    } else {
        IgpProtocol::Ospf
    };
    let mut spec = TopoSpec::new("diff", (0..n).map(|i| format!("d{i}")).collect(), igp);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        spec.links.push((parent, i, None));
    }
    for _ in 0..rng.gen_range(0..8) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let cost = if rng.gen_bool(0.5) {
            Some(rng.gen_range(1u32..20))
        } else {
            None
        };
        if a != b
            && !spec
                .links
                .iter()
                .any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b)))
        {
            spec.links.push((a.min(b), a.max(b), cost));
        }
    }
    for i in 0..rng.gen_range(2usize..5) {
        spec.hosts.push((format!("dh{i}"), rng.gen_range(0..n)));
    }
    if flavor == 2 {
        let cut = n / 2;
        spec.asn_of = Some(
            (0..n)
                .map(|i| if i < cut { 65001 } else { 65002 })
                .collect(),
        );
    }
    spec.boilerplate = false;
    spec
}

/// The static-route flavour: adds to `configs` a static loop (both ends of
/// one router link route one host's LAN at each other) and up to three
/// more static routes, each on a random link end toward the other end, for
/// a host's LAN or the `/25` half of it that holds the host.
///
/// The loop makes looping pairs, and a detour can send traffic back the
/// way it came, so the base has unclean pairs that a failure can clean
/// up: failing a link a static route resolves through withdraws the route
/// (its next hop no longer resolves), which changes a lookup toward its
/// destination. The `/25` routes nest inside the `/24` LAN routes. And a
/// router with a static route always takes the full FIB merge in a delta
/// plan. Networks without two routers on one link are left alone.
#[allow(dead_code)] // not every differential adds static routes
pub fn add_static_routes(rng: &mut StdRng, configs: &mut NetworkConfigs) {
    // Router links: the two configured ends of each /31.
    let mut ends: BTreeMap<Ipv4Prefix, Vec<(String, Ipv4Addr)>> = BTreeMap::new();
    for (name, rc) in &configs.routers {
        for iface in &rc.interfaces {
            if let (Some((addr, 31)), Some(prefix)) = (iface.address, iface.prefix()) {
                ends.entry(prefix).or_default().push((name.clone(), addr));
            }
        }
    }
    let links: Vec<[(String, Ipv4Addr); 2]> = ends
        .into_values()
        .filter_map(|e| <[_; 2]>::try_from(e).ok())
        .collect();
    let lans: Vec<(Ipv4Prefix, Ipv4Addr)> = configs
        .hosts
        .values()
        .filter_map(|h| Some((h.prefix()?, h.address.0)))
        .collect();
    if links.is_empty() || lans.is_empty() {
        return;
    }
    let mut add = |router: &str, prefix: Ipv4Prefix, next_hop: Ipv4Addr| {
        let rc = configs
            .routers
            .get_mut(router)
            .expect("link ends are routers");
        rc.static_routes.push(StaticRoute {
            prefix,
            next_hop,
            added: false,
        });
    };
    let [a, b] = &links[rng.gen_range(0..links.len())];
    let (lan, _) = lans[rng.gen_range(0..lans.len())];
    add(&a.0, lan, b.1);
    add(&b.0, lan, a.1);
    for _ in 0..rng.gen_range(0..=3) {
        let [x, y] = &links[rng.gen_range(0..links.len())];
        let (from, to) = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
        let (lan, host) = lans[rng.gen_range(0..lans.len())];
        let prefix = if rng.gen_bool(0.3) {
            Ipv4Prefix::new(host, 25).expect("/25 is a valid length")
        } else {
            lan
        };
        add(&from.0, prefix, to.1);
    }
}
