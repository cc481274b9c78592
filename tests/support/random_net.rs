//! Random small networks for the simulator differentials (`delta_diff`,
//! `warm_diff`, `dataplane_diff`, and the `confmask-sim-delta` unit test
//! `plan_matches_cold_simulation_on_random_networks`, which includes this
//! file by path).

use confmask_netgen::{IgpProtocol, TopoSpec};
use rand::rngs::StdRng;
use rand::Rng;

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
