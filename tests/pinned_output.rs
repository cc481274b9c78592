//! Pinned ConfMask output: the emitted IOS text of `anonymize` on fixed
//! networks and seeds, as FNV-1a digests.
//!
//! The repair loops of Algorithms 1 and 2 are rewritten for speed from
//! time to time (warm control plane, scoped reachability checks). Each such
//! rewrite must leave every added line where it was, so this test pins the
//! exact bytes: any change to which filters are tried, kept or rolled back
//! changes a digest. A deliberate change of the output re-records the table
//! from the failure message, which prints every new digest with its run's
//! kept and rolled-back filter counts, and says why in its commit.

use confmask::{anonymize, NetworkConfigs, Params};
use confmask_netgen::smallnets::branch_office_rip;
use confmask_netgen::synthesize;

/// `(network, seed, digest of the emitted bundle)`, with how many of
/// Algorithm 2's randomized filters each run kept and rolled back.
const PINNED: [(&str, u64, u64); 8] = [
    ("A", 1, 0xab4ccfaf97fe2d36),   // 69 kept, 17 rolled back
    ("A", 2, 0xd39304045ff22a6f),   // 66 kept, 18 rolled back
    ("B", 1, 0x57effd7eb153bb6a),   // 87 kept, 55 rolled back
    ("B", 2, 0xe90944311aca84d2),   // 73 kept, 59 rolled back
    ("D", 1, 0x91b65ca0eb6007b6),   // 1001 kept, 4648 rolled back
    ("D", 2, 0x3ee0224d13302438),   // 1046 kept, 4720 rolled back
    ("rip", 1, 0xaaaabc15d97939b5), // 61 kept, 5 rolled back
    ("rip", 2, 0x0df5527a90d9d274), // 56 kept, 5 rolled back
];

fn network(name: &str) -> NetworkConfigs {
    if name == "rip" {
        return synthesize(&branch_office_rip());
    }
    let id = name.chars().next().expect("network id");
    confmask_netgen::full_suite()
        .into_iter()
        .find(|n| n.id == id)
        .unwrap_or_else(|| panic!("no evaluation network '{id}'"))
        .configs
}

/// 64-bit FNV-1a over every emitted file, path first, in sorted-name order.
fn bundle_digest(configs: &NetworkConfigs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, rc) in &configs.routers {
        eat(format!(">>> routers/{name}.cfg\n").as_bytes());
        eat(rc.emit().as_bytes());
    }
    for (name, hc) in &configs.hosts {
        eat(format!(">>> hosts/{name}.cfg\n").as_bytes());
        eat(hc.emit().as_bytes());
    }
    h
}

#[test]
fn confmask_output_is_byte_identical_to_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, seed, want) in PINNED {
        // High noise and k_H = 3 make Algorithm 2 try, and roll back, many
        // filters per router.
        let params = Params {
            seed,
            noise_p: 0.5,
            ..Params::new(4, 3)
        };
        let result = anonymize(&network(name), &params)
            .unwrap_or_else(|e| panic!("net {name} seed {seed}: {e}"));
        let got = bundle_digest(&result.configs);
        if got != want {
            let ra = &result.route_anon;
            mismatches.push(format!(
                "net {name} seed {seed}: {got:#018x} != {want:#018x} \
                 ({} kept, {} rolled back)",
                ra.filters_kept, ra.filters_rolled_back
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "emitted configs changed:\n{}",
        mismatches.join("\n")
    );
}
