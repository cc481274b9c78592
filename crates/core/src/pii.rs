//! PII obfuscation add-ons (§9, Figure 3's "add-on" stage).
//!
//! ConfMask's core pipeline anonymizes the *implicit* information (topology
//! and routes); the paper notes it "is compatible with any text-based
//! information obfuscation technique as downstream plug-in tasks", naming
//! prefix-preserving IP anonymization (Crypto-PAn [39, 43]), AS-number
//! hashing, and password hashing (NetConan \[21\]). This module provides
//! those add-ons:
//!
//! * **prefix-preserving address anonymization** — a deterministic, keyed,
//!   bijective mapping on IPv4 addresses with the Crypto-PAn structure
//!   (bit `i` of the output is bit `i` of the input XORed with a
//!   pseudo-random function of the first `i` input bits), so two addresses
//!   share an anonymized /n prefix **iff** they shared a real /n prefix.
//!   That property is exactly what keeps the configurations simulable: /31
//!   link endpoints stay paired, `network` statements keep covering their
//!   interfaces, and the data plane is preserved up to renaming.
//! * **device renaming** — deterministic pseudonyms for routers and hosts,
//!   applied to hostnames and to every occurrence inside descriptions and
//!   uninterpreted lines.
//! * **secret scrubbing** — NetConan-style redaction of password/secret/
//!   community/username material in uninterpreted lines.
//!
//! The transformation preserves behaviour: the anonymized network simulates
//! to a data plane identical to the input's up to the renaming map (tested
//! in this module and in `tests/`).

use confmask_config::{HostConfig, NetworkConfigs, RouterConfig};
use confmask_net_types::{Ipv4Addr, Ipv4Prefix};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Options for the PII pass.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PiiOptions {
    /// Apply prefix-preserving address anonymization.
    pub anonymize_addresses: bool,
    /// Replace device hostnames with pseudonyms.
    pub rename_devices: bool,
    /// Redact secrets in uninterpreted configuration lines.
    pub scrub_secrets: bool,
    /// Key for the deterministic mappings.
    pub seed: u64,
}

impl Default for PiiOptions {
    fn default() -> Self {
        Self {
            anonymize_addresses: true,
            rename_devices: true,
            scrub_secrets: true,
            seed: 0,
        }
    }
}

/// What the PII pass did.
#[derive(Debug, Clone, Default)]
pub struct PiiReport {
    /// Addresses rewritten (interface, neighbor, gateway, …).
    pub addresses_rewritten: usize,
    /// Devices renamed.
    pub devices_renamed: usize,
    /// Secret-bearing lines redacted.
    pub secrets_scrubbed: usize,
    /// Old name → new name (keep this private — it de-anonymizes!).
    pub name_map: BTreeMap<String, String>,
}

/// The keyed prefix-preserving address mapping (Crypto-PAn structure with
/// the AES PRF replaced by a keyed SipHash — adequate for research
/// anonymization; swap in a real cipher for adversarial settings).
#[derive(Debug, Clone, Copy)]
pub struct AddrMapper {
    key: u64,
}

impl AddrMapper {
    /// Creates a mapper for a key.
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    fn prf_bit(&self, prefix_bits: u32, len: u8) -> u32 {
        let mut h = DefaultHasher::new();
        (self.key, len, prefix_bits).hash(&mut h);
        (h.finish() & 1) as u32
    }

    /// Maps one address, preserving prefix relations.
    pub fn map_addr(&self, addr: Ipv4Addr) -> Ipv4Addr {
        let input = u32::from(addr);
        let mut out = 0u32;
        for i in 0..32u8 {
            // The first i bits of the *input* select the PRF node.
            let prefix = if i == 0 { 0 } else { input >> (32 - i) };
            let flip = self.prf_bit(prefix, i);
            let bit = (input >> (31 - i)) & 1;
            out = (out << 1) | (bit ^ flip);
        }
        Ipv4Addr::from(out)
    }

    /// Maps a prefix: the network address maps with the same length
    /// (host bits of the mapped network address are cleared — consistent
    /// because the mapping is prefix-preserving).
    pub fn map_prefix(&self, p: Ipv4Prefix) -> Ipv4Prefix {
        Ipv4Prefix::new(self.map_addr(p.network()), p.len()).expect("length unchanged")
    }
}

const SECRET_KEYWORDS: [&str; 6] = [
    "secret",
    "password",
    "community",
    "username",
    "tacacs-server host",
    "key",
];

/// Applies the PII add-ons, returning the transformed network and a report.
pub fn apply_pii(net: &NetworkConfigs, opts: &PiiOptions) -> (NetworkConfigs, PiiReport) {
    let mut report = PiiReport::default();
    let mapper = AddrMapper::new(opts.seed ^ 0x00C0FFEE);

    // Name map: deterministic pseudonyms in sorted order.
    if opts.rename_devices {
        for (i, name) in net.routers.keys().enumerate() {
            report.name_map.insert(name.clone(), format!("rtr-{i:03}"));
        }
        for (i, name) in net.hosts.keys().enumerate() {
            report.name_map.insert(name.clone(), format!("host-{i:03}"));
        }
        report.devices_renamed = report.name_map.len();
    }

    // Longest-first replacement avoids partial-name collisions
    // (e.g. "r1" inside "r12").
    let mut replacements: Vec<(&String, &String)> = report.name_map.iter().collect();
    replacements.sort_by_key(|(old, _)| std::cmp::Reverse(old.len()));
    let rename_text = |s: &str| -> String {
        let mut out = s.to_string();
        for (old, new) in &replacements {
            out = out.replace(old.as_str(), new.as_str());
        }
        out
    };
    let rename_name =
        |s: &String| -> String { report.name_map.get(s).cloned().unwrap_or_else(|| s.clone()) };

    let mut routers: Vec<RouterConfig> = Vec::with_capacity(net.routers.len());
    for rc in net.routers.values() {
        let mut rc = rc.clone();
        if opts.rename_devices {
            rc.hostname = rename_name(&rc.hostname);
        }
        for iface in rc.interfaces.iter_mut() {
            if opts.anonymize_addresses {
                if let Some((addr, len)) = iface.address {
                    iface.address = Some((mapper.map_addr(addr), len));
                    report.addresses_rewritten += 1;
                }
            }
            if opts.rename_devices {
                if let Some(d) = &iface.description {
                    iface.description = Some(rename_text(d));
                }
            }
        }
        if opts.anonymize_addresses {
            let map_stmts = |stmts: &mut Vec<confmask_config::NetworkStatement>,
                             count: &mut usize| {
                for n in stmts.iter_mut() {
                    n.prefix = mapper.map_prefix(n.prefix);
                    *count += 1;
                }
            };
            if let Some(o) = rc.ospf.as_mut() {
                map_stmts(&mut o.networks, &mut report.addresses_rewritten);
            }
            if let Some(r) = rc.rip.as_mut() {
                map_stmts(&mut r.networks, &mut report.addresses_rewritten);
            }
            if let Some(b) = rc.bgp.as_mut() {
                map_stmts(&mut b.networks, &mut report.addresses_rewritten);
                for nb in b.neighbors.iter_mut() {
                    nb.addr = mapper.map_addr(nb.addr);
                    report.addresses_rewritten += 1;
                }
                for d in b.distribute_lists.iter_mut() {
                    if let confmask_config::DistributeListBinding::Neighbor { neighbor, .. } = d {
                        *neighbor = mapper.map_addr(*neighbor);
                    }
                }
            }
            for pl in rc.prefix_lists.iter_mut() {
                for e in pl.entries.iter_mut() {
                    e.prefix = mapper.map_prefix(e.prefix);
                    report.addresses_rewritten += 1;
                }
            }
            for sr in rc.static_routes.iter_mut() {
                sr.prefix = mapper.map_prefix(sr.prefix);
                sr.next_hop = mapper.map_addr(sr.next_hop);
                report.addresses_rewritten += 2;
            }
        }
        let mut new_lines = Vec::with_capacity(rc.extra_lines.len());
        for line in &rc.extra_lines {
            let mut line = if opts.rename_devices {
                rename_text(line)
            } else {
                line.clone()
            };
            if opts.scrub_secrets && SECRET_KEYWORDS.iter().any(|k| line.contains(k)) {
                line = redact_last_token(&line);
                report.secrets_scrubbed += 1;
            }
            new_lines.push(line);
        }
        rc.extra_lines = new_lines;
        routers.push(rc);
    }

    let mut hosts: Vec<HostConfig> = Vec::with_capacity(net.hosts.len());
    for hc in net.hosts.values() {
        let mut hc = hc.clone();
        if opts.rename_devices {
            hc.hostname = rename_name(&hc.hostname);
        }
        if opts.anonymize_addresses {
            hc.address = (mapper.map_addr(hc.address.0), hc.address.1);
            hc.gateway = mapper.map_addr(hc.gateway);
            report.addresses_rewritten += 2;
        }
        hosts.push(hc);
    }

    (NetworkConfigs::new(routers, hosts), report)
}

/// Replaces the final whitespace-separated token of a line with `REDACTED`.
fn redact_last_token(line: &str) -> String {
    match line.rfind(char::is_whitespace) {
        Some(pos) => format!("{}{}REDACTED", &line[..pos], &line[pos..pos + 1]),
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_netgen::smallnets::example_network;

    #[test]
    fn mapping_is_prefix_preserving() {
        let m = AddrMapper::new(42);
        for (a, b, shared) in [
            ("10.0.0.0", "10.0.0.1", 31u8),
            ("10.1.2.3", "10.1.9.9", 16),
            ("192.168.4.1", "192.168.4.200", 24),
        ] {
            let (a, b): (Ipv4Addr, Ipv4Addr) = (a.parse().unwrap(), b.parse().unwrap());
            let (ma, mb) = (m.map_addr(a), m.map_addr(b));
            let mask = u32::MAX << (32 - u32::from(shared));
            assert_eq!(
                u32::from(ma) & mask,
                u32::from(mb) & mask,
                "{a}/{b} shared /{shared} must survive"
            );
            // First differing bit position is preserved too (strict
            // prefix-preservation, both directions).
            let diff_in = (u32::from(a) ^ u32::from(b)).leading_zeros();
            let diff_out = (u32::from(ma) ^ u32::from(mb)).leading_zeros();
            assert_eq!(diff_in, diff_out);
        }
    }

    #[test]
    fn mapping_is_bijective_on_sample() {
        let m = AddrMapper::new(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let mapped = m.map_addr(Ipv4Addr::from(i * 429_497));
            assert!(seen.insert(mapped), "collision at {i}");
        }
    }

    #[test]
    fn different_keys_give_different_mappings() {
        let a = AddrMapper::new(1).map_addr("10.0.0.1".parse().unwrap());
        let b = AddrMapper::new(2).map_addr("10.0.0.1".parse().unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn pii_pass_preserves_behaviour_up_to_renaming() {
        let net = example_network();
        let before = confmask_sim::simulate(&net).unwrap();
        let (anon, report) = apply_pii(&net, &PiiOptions::default());
        assert!(confmask_config::validate(&anon).is_empty(), "{:?}", confmask_config::validate(&anon));
        let after = confmask_sim::simulate(&anon).unwrap();

        // Translate the original data plane through the name map and
        // compare exactly.
        let rename = |n: &str| report.name_map.get(n).cloned().unwrap_or_else(|| n.to_string());
        let mut translated = confmask_sim::DataPlaneBuilder::new();
        for ps in before.dataplane.pairs() {
            let paths = ps.paths().map(|p| p.into_iter().map(rename).collect::<Vec<_>>());
            translated.insert(&rename(ps.src), &rename(ps.dst), paths, ps.blackhole(), ps.has_loop());
        }
        assert_eq!(translated.build(), after.dataplane);
    }

    #[test]
    fn secrets_are_scrubbed() {
        let mut net = example_network();
        for rc in net.routers.values_mut() {
            rc.extra_lines.clear(); // drop the boilerplate (it has secrets too)
        }
        net.routers.get_mut("r1").unwrap().extra_lines = vec![
            "enable secret 5 $1$abc$SENSITIVE".to_string(),
            "snmp-server community s3cr3t RO".to_string(),
            "ntp server 192.0.2.30".to_string(),
        ];
        let (anon, report) = apply_pii(&net, &PiiOptions::default());
        let rtr = anon
            .routers
            .values()
            .find(|r| !r.extra_lines.is_empty())
            .unwrap();
        assert!(rtr.extra_lines[0].ends_with("REDACTED"));
        assert!(rtr.extra_lines[1].ends_with("REDACTED"));
        assert!(!rtr.extra_lines[0].contains("SENSITIVE"));
        assert_eq!(report.secrets_scrubbed, 2);
        assert_eq!(rtr.extra_lines[2], "ntp server 192.0.2.30");
    }

    #[test]
    fn renaming_covers_descriptions() {
        let net = example_network();
        let (anon, report) = apply_pii(
            &net,
            &PiiOptions {
                anonymize_addresses: false,
                scrub_secrets: false,
                ..PiiOptions::default()
            },
        );
        assert!(report.devices_renamed >= 7);
        for rc in anon.routers.values() {
            assert!(rc.hostname.starts_with("rtr-"));
            for iface in &rc.interfaces {
                if let Some(d) = &iface.description {
                    for old in report.name_map.keys() {
                        assert!(!d.contains(old.as_str()), "{d} leaks {old}");
                    }
                }
            }
        }
    }

    #[test]
    fn options_can_disable_each_pass() {
        let net = example_network();
        let (anon, report) = apply_pii(
            &net,
            &PiiOptions {
                anonymize_addresses: false,
                rename_devices: false,
                scrub_secrets: false,
                seed: 0,
            },
        );
        assert_eq!(anon, net);
        assert_eq!(report.addresses_rewritten, 0);
        assert_eq!(report.devices_renamed, 0);
    }
}
