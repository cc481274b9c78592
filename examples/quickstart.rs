//! Quickstart: anonymize the paper's §3.2 example network and inspect the
//! result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The example network (Figure 2a) has four routers; the only path from h1
//! to h4 is `(h1, r1, r3, r2, r4, h4)`, which leaks the departments'
//! relationships. ConfMask adds fake links and hosts until the topology is
//! k-degree anonymous and the routes are k-anonymous — while every original
//! forwarding path survives *exactly*.

use confmask::{anonymize, Params};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::{clustering_coefficient, min_same_degree};

fn main() {
    let network = confmask_netgen::smallnets::example_network();

    println!("=== Original network ===");
    let original = confmask::simulate(&network).expect("example network simulates");
    println!(
        "routers: {}, hosts: {}, config lines: {}",
        network.routers.len(),
        network.hosts.len(),
        network.total_lines()
    );
    let path = original.dataplane.between("h1", "h4").unwrap().paths().next().unwrap();
    println!("h1 -> h4 path: {}", path.join(" -> "));
    println!(
        "min routers sharing a degree (k_d): {}",
        min_same_degree(&extract_topology(&network))
    );

    println!("\n=== Anonymizing (k_R=3, k_H=2) ===");
    let params = Params::new(3, 2);
    let result = anonymize(&network, &params).expect("anonymization succeeds");

    println!(
        "fake links added: {:?}",
        result
            .fake_links
            .iter()
            .map(|l| format!("{}–{}", l.a, l.b))
            .collect::<Vec<_>>()
    );
    println!("fake hosts added: {:?}", result.route_anon.fake_hosts);
    println!(
        "route-equivalence iterations: {} ({} filters)",
        result.equiv.iterations, result.equiv.filters_added
    );

    println!("\n=== Guarantees ===");
    println!("functionally equivalent: {}", result.functionally_equivalent());
    println!("paths kept exactly (P_U): {:.0}%", 100.0 * result.path_preservation());
    let topo = extract_topology(&result.configs);
    println!("k_d after: {} (>= k_R = 3)", min_same_degree(&topo));
    println!(
        "clustering coefficient: {:.3} -> {:.3}",
        clustering_coefficient(&result.baseline.topo),
        clustering_coefficient(&topo)
    );
    println!(
        "config utility U_C: {:.3} ({} lines injected of {})",
        result.config_utility(),
        result.ledger.total_added(),
        result.configs.total_lines()
    );

    // The anonymized h1 -> h4 path is unchanged.
    let anon_path = result.final_sim.dataplane.between("h1", "h4").unwrap().paths().next().unwrap();
    println!("h1 -> h4 path after: {}", anon_path.join(" -> "));

    println!("\n=== Anonymized configuration of r1 (shareable) ===");
    print!("{}", result.configs.routers["r1"].emit());
}
