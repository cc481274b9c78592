//! Integration of the PII add-on with the full pipeline: the complete
//! sharing workflow is ConfMask (topology + routes) followed by PII
//! obfuscation (addresses + names + secrets), and the final artifact must
//! still be simulable, behaviour-preserving up to renaming, and free of
//! the original identifiers.

use confmask::pii::{apply_pii, PiiOptions};
use confmask::{anonymize, Params};
use std::collections::BTreeSet;

#[test]
fn full_sharing_workflow_confmask_then_pii() {
    let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::backbone());
    let result = anonymize(&net, &Params::default()).expect("pipeline");
    let (shared, report) = apply_pii(&result.configs, &PiiOptions::default());

    // 1. Structurally valid and simulable.
    assert!(confmask_config::validate(&shared).is_empty());
    let sim = confmask_sim::simulate(&shared).expect("shared artifact simulates");

    // 2. Behaviour preserved up to renaming: translate the anonymized
    //    (pre-PII) data plane through the name map.
    let rename = |n: &str| report.name_map.get(n).cloned().unwrap_or_else(|| n.to_string());
    let mut translated = confmask_sim::DataPlaneBuilder::new();
    for ps in result.final_sim.dataplane.pairs() {
        let paths = ps.paths().map(|p| p.into_iter().map(rename).collect::<Vec<_>>());
        translated.insert(&rename(ps.src), &rename(ps.dst), paths, ps.blackhole(), ps.has_loop());
    }
    assert_eq!(translated.build(), sim.dataplane);

    // 3. No original hostname or address survives in the emitted text.
    let original_names: BTreeSet<&String> =
        net.routers.keys().chain(net.hosts.keys()).collect();
    let original_addrs: BTreeSet<std::net::Ipv4Addr> = net
        .routers
        .values()
        .flat_map(|r| r.interfaces.iter())
        .filter_map(|i| i.address.map(|(a, _)| a))
        .collect();
    let shared_addrs: BTreeSet<std::net::Ipv4Addr> = shared
        .routers
        .values()
        .flat_map(|r| r.interfaces.iter())
        .filter_map(|i| i.address.map(|(a, _)| a))
        .collect();
    assert!(
        original_addrs.is_disjoint(&shared_addrs),
        "original interface addresses survive PII: {:?}",
        original_addrs.intersection(&shared_addrs).collect::<Vec<_>>()
    );
    for rc in shared.routers.values() {
        let text = rc.emit();
        for name in &original_names {
            assert!(
                !text.contains(&format!("hostname {name}")),
                "{} leaks hostname {name}",
                rc.hostname
            );
        }
    }

    // 4. Secrets from the management boilerplate are gone.
    for rc in shared.routers.values() {
        for line in &rc.extra_lines {
            assert!(
                !line.contains("$1$XXXX$REDACTEDREDACTEDREDACTED") || line.ends_with("REDACTED"),
                "secret survived: {line}"
            );
        }
    }
}

#[test]
fn pii_is_deterministic_and_seed_sensitive() {
    let net = confmask_netgen::smallnets::example_network();
    let (a1, _) = apply_pii(&net, &PiiOptions::default());
    let (a2, _) = apply_pii(&net, &PiiOptions::default());
    assert_eq!(a1, a2);
    let (b, _) = apply_pii(
        &net,
        &PiiOptions {
            seed: 99,
            ..PiiOptions::default()
        },
    );
    assert_ne!(a1, b, "different keys must give different addresses");
}

#[test]
fn pii_after_confmask_keeps_fake_hosts_indistinguishable() {
    let net = confmask_netgen::smallnets::example_network();
    let result = anonymize(&net, &Params::new(3, 2)).expect("pipeline");
    let (shared, _) = apply_pii(&result.configs, &PiiOptions::default());
    // After renaming, fake and real host files share the same name shape
    // and structure — the "-fakeN" suffix is gone.
    for (name, h) in &shared.hosts {
        assert!(name.starts_with("host-"), "leaky name {name}");
        assert!(!h.emit().contains("fake"));
    }
}
