//! The §2.3 case study: collaborative debugging of a QoS misconfiguration.
//!
//! ```sh
//! cargo run --release --example collaborative_debugging
//! ```
//!
//! A FatTree-04 operator sees high delay from pod 3 to pod 1. The root
//! cause: `core2` marks management traffic from `agg3-1` *low*-priority, so
//! it starves in `agg1-1`'s low-priority queue. Diagnosing this from shared
//! configurations requires (a) the QoS lines to survive anonymization and
//! (b) the waypoint `edge3-1 → agg3-1 → core2 → agg1-1 → edge1-0` to stay
//! visible in the shared network's data plane.
//!
//! Every registered [`confmask::Anonymizer`] strategy runs the same case
//! study, so the comparison automatically covers any future strategy:
//! ConfMask and NetCloak preserve the diagnosis path, while a NetHide-style
//! obfuscation reroutes it and hides the root cause (Figure 1).

use confmask::{anonymizer_for, Params, Strategy};

fn main() {
    let network = confmask_netgen::smallnets::case_study_network();
    let original = confmask::simulate(&network).expect("case-study network simulates");

    // The problematic flow: a pod-3 host talking to a pod-1 host.
    let (src, dst) = ("h3-1-0", "h1-0-0");
    let orig_paths: Vec<Vec<&str>> = original
        .dataplane
        .between(src, dst)
        .unwrap()
        .paths()
        .collect();
    println!("=== Original trouble flow {src} -> {dst} ===");
    for p in &orig_paths {
        println!("  {}", p.join(" -> "));
    }
    let via_core2 = orig_paths.iter().any(|p| p.contains(&"core2"));
    println!("some path crosses core2 (the misconfigured router): {via_core2}");

    let orig_set: std::collections::BTreeSet<_> = orig_paths.iter().collect();
    let mut verdicts = Vec::new();
    for strategy in Strategy::ALL {
        println!("\n=== {strategy} anonymization ===");
        let result = anonymizer_for(strategy)
            .anonymize(&network, &Params::new(6, 2))
            .unwrap_or_else(|e| panic!("{strategy} fails on the case study: {e}"));

        // (b) Is the waypoint still visible in the shared data plane?
        let anon_paths: Vec<Vec<&str>> = result
            .dataplane
            .between(src, dst)
            .unwrap()
            .paths()
            .collect();
        for p in &anon_paths {
            println!("  {}", p.join(" -> "));
        }
        let kept = anon_paths.iter().collect::<std::collections::BTreeSet<_>>() == orig_set;
        println!("paths preserved exactly: {kept}");
        assert_eq!(
            kept, result.guarantees.exact_path_preservation,
            "{strategy}'s guarantee metadata must match its behaviour"
        );

        // (a) Do the shared artifacts carry the QoS root cause at all?
        // NetHide shares a topology, not configurations, so the engineer
        // never sees core2's traffic-policy no matter where paths go.
        if result.guarantees.config_level_sharing {
            let c2 = &result.configs.routers["core2"];
            let qos_visible = c2
                .emit()
                .contains("traffic-policy mark_agg31_high_priority inbound");
            println!("core2 QoS root cause visible in shared configs: {qos_visible}");
            let agg = &result.configs.routers["agg1-1"];
            println!(
                "agg1-1 queue weights visible: {}",
                agg.emit().contains("qos queue 2 wrr weight 10")
            );
        } else {
            println!("strategy shares topology only: QoS config lines are never shared");
        }
        verdicts.push((strategy, kept));
    }

    println!();
    for (strategy, kept) in verdicts {
        println!(
            "verdict: {strategy} {}.",
            if kept {
                "keeps the diagnosis path visible, guiding the engineer to the root cause"
            } else {
                "reroutes the trace, steering the engineer away from the root cause"
            }
        );
    }
}
