//! Sharing configurations for research: anonymize a BGP+OSPF campus
//! network and verify that research-grade analyses still hold on the
//! shared artifact.
//!
//! ```sh
//! cargo run --release --example research_sharing
//! ```
//!
//! A university wants to contribute its configurations to a verification
//! benchmark (the §2.1 motivation). The recipients must be able to run
//! network-verification tooling and get the *same answers* as on the
//! original network — while learning neither the real topology nor the
//! real communication patterns.

use confmask::{anonymize, Params};
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::min_same_degree;

fn main() {
    let network = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
    println!(
        "university network: {} routers, {} hosts, {} config lines (BGP + OSPF, 2 ASes)",
        network.routers.len(),
        network.hosts.len(),
        network.total_lines()
    );

    let result = anonymize(&network, &Params::new(6, 2)).expect("anonymization succeeds");
    println!(
        "anonymized: +{} fake links, +{} fake hosts, {} filter lines, U_C = {:.3}",
        result.fake_links.len(),
        result.route_anon.fake_hosts.len(),
        result.ledger.filter_lines,
        result.config_utility()
    );

    // --- What the researcher can still do -----------------------------------
    // 1. Mine the network's specification: every original policy survives.
    let orig_spec = confmask_spec::mine(&result.baseline.sim.dataplane);
    let anon_spec = confmask_spec::mine(&result.final_sim.dataplane);
    let diff = confmask_spec::diff(&orig_spec, &anon_spec, &result.baseline.real_hosts);
    println!(
        "\nspecification mining: {} original policies, {} kept ({:.1}%), {} introduced ({:.0}% about fake hosts)",
        diff.original_total,
        diff.kept,
        100.0 * diff.kept_ratio(),
        diff.introduced,
        100.0 * diff.introduced_fake_fraction()
    );
    assert_eq!(diff.missing, 0, "functional equivalence keeps every policy");

    // 2. Verification answers agree: reachability, waypoints, path lengths.
    let real_pairs = result
        .baseline
        .sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    let mut agree = 0;
    let mut total = 0;
    for orig_ps in real_pairs.pairs() {
        total += 1;
        if result.final_sim.dataplane.between(orig_ps.src, orig_ps.dst) == Some(orig_ps) {
            agree += 1;
        }
    }
    println!("verification agreement on real host pairs: {agree}/{total}");

    // --- What the adversary cannot learn -------------------------------------
    let orig_kd = min_same_degree(&result.baseline.topo);
    let anon_kd = min_same_degree(&extract_topology(&result.configs));
    println!(
        "\ntopology anonymity: min same-degree {} -> {} (every router hides among >= {})",
        orig_kd, anon_kd, anon_kd
    );
    let nr = result.route_anonymity();
    println!(
        "route anonymity: avg {:.2} distinct paths per edge-router pair (min {})",
        nr.avg(),
        nr.min()
    );
    println!(
        "fake and real hosts are syntactically identical in the shared files; \
         the real communication pattern hides among {} host pairs.",
        result.final_sim.dataplane.len()
    );
}
