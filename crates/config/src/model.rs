//! Configuration abstract syntax tree.
//!
//! Every struct carries `added` provenance flags where ConfMask can append
//! items; original items always have `added == false`, so the strong
//! functional-equivalence precondition ("no original line is modified or
//! deleted") can be audited after the fact.

use confmask_net_types::{Asn, Ipv4Addr, Ipv4Prefix};
use std::collections::BTreeMap;

/// The default OSPF link cost (Cisco default reference bandwidth yields 10
/// for the lab-style Ethernet links used throughout the paper's examples).
pub const DEFAULT_OSPF_COST: u32 = 10;

/// Which routing protocol a configuration statement belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Protocol {
    /// Open Shortest Path First (link-state IGP).
    Ospf,
    /// Routing Information Protocol (distance-vector IGP).
    Rip,
    /// Border Gateway Protocol (path-vector EGP).
    Bgp,
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Protocol::Ospf => write!(f, "ospf"),
            Protocol::Rip => write!(f, "rip"),
            Protocol::Bgp => write!(f, "bgp"),
        }
    }
}

/// One physical interface stanza.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Interface {
    /// Interface name, e.g. `Ethernet0/3`.
    pub name: String,
    /// Interface address and prefix length (`ip address A.B.C.D M.M.M.M`).
    pub address: Option<(Ipv4Addr, u8)>,
    /// Explicit OSPF cost (`ip ospf cost N`); `None` means protocol default.
    pub ospf_cost: Option<u32>,
    /// Free-form description line.
    pub description: Option<String>,
    /// Whether the interface is administratively down.
    pub shutdown: bool,
    /// Uninterpreted lines inside the stanza (QoS policy, etc.), preserved
    /// verbatim by the emitter.
    pub extra: Vec<String>,
    /// Provenance: `true` iff this interface was added by anonymization.
    pub added: bool,
}

impl Interface {
    /// Creates a bare interface with just a name and address.
    pub fn new(name: impl Into<String>, address: Ipv4Addr, len: u8) -> Self {
        Self {
            name: name.into(),
            address: Some((address, len)),
            ospf_cost: None,
            description: None,
            shutdown: false,
            extra: Vec::new(),
            added: false,
        }
    }

    /// The interface's connected prefix, if it has an address.
    pub fn prefix(&self) -> Option<Ipv4Prefix> {
        self.address
            .and_then(|(a, l)| Ipv4Prefix::new(a, l).ok())
    }
}

/// A `network <addr> <wildcard> [area N]` statement inside a protocol block.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetworkStatement {
    /// The prefix the statement enables the protocol on / advertises.
    pub prefix: Ipv4Prefix,
    /// OSPF area (always 0 in this reproduction; kept for fidelity).
    pub area: u32,
    /// Provenance: added by anonymization?
    pub added: bool,
}

/// `permit` / `deny` action in a prefix list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FilterAction {
    /// Allow the route.
    Permit,
    /// Drop the route.
    Deny,
}

/// One `ip prefix-list NAME seq N <action> <prefix>` entry.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrefixListEntry {
    /// Sequence number (defines evaluation order).
    pub seq: u32,
    /// Permit or deny.
    pub action: FilterAction,
    /// The matched prefix (exact match in this dialect).
    pub prefix: Ipv4Prefix,
    /// Provenance: added by anonymization?
    pub added: bool,
}

/// A named prefix list: ordered entries, first match wins, implicit
/// **permit** at the end.
///
/// Note: real IOS prefix lists end in an implicit *deny*; ConfMask's filters
/// are pure deny-lists ("deny these destinations, let everything else
/// through"), matching the `RejPfxs` example in Listing 3 of the paper, so
/// this dialect documents an implicit permit instead.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrefixList {
    /// List name referenced by distribute-list bindings.
    pub name: String,
    /// Entries in sequence order.
    pub entries: Vec<PrefixListEntry>,
}

impl PrefixList {
    /// Evaluates the list against `prefix`: first matching entry decides;
    /// no match ⇒ permit.
    pub fn evaluate(&self, prefix: &Ipv4Prefix) -> FilterAction {
        for e in &self.entries {
            if e.prefix == *prefix || e.prefix.contains(prefix) {
                return e.action;
            }
        }
        FilterAction::Permit
    }

    /// Next free sequence number (multiples of 5, like IOS defaults).
    pub fn next_seq(&self) -> u32 {
        self.entries.iter().map(|e| e.seq).max().unwrap_or(0) + 5
    }
}

/// Where a distribute-list filter applies.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DistributeListBinding {
    /// IGP form: `distribute-list prefix NAME in <interface>` — filters
    /// routes learned through that interface.
    Interface {
        /// Prefix-list name.
        list: String,
        /// Interface the inbound filter applies to.
        interface: String,
        /// Provenance flag.
        added: bool,
    },
    /// BGP form: `neighbor A.B.C.D distribute-list NAME in` — filters routes
    /// learned from that neighbor.
    Neighbor {
        /// Prefix-list name.
        list: String,
        /// Neighbor session address.
        neighbor: Ipv4Addr,
        /// Provenance flag.
        added: bool,
    },
}

/// `router ospf N` block.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OspfConfig {
    /// OSPF process id.
    pub process_id: u32,
    /// Enabled/advertised networks.
    pub networks: Vec<NetworkStatement>,
    /// Inbound route filters.
    pub distribute_lists: Vec<DistributeListBinding>,
}

/// `router rip` block.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RipConfig {
    /// Enabled/advertised networks.
    pub networks: Vec<NetworkStatement>,
    /// Inbound route filters.
    pub distribute_lists: Vec<DistributeListBinding>,
}

/// The default BGP local preference (Cisco default).
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// One `neighbor` under `router bgp`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BgpNeighbor {
    /// Session (interface) address of the peer.
    pub addr: Ipv4Addr,
    /// Peer AS number.
    pub remote_as: Asn,
    /// Local preference assigned to routes learned from this neighbor
    /// (`neighbor A.B.C.D local-preference N`); `None` = default (100).
    /// Higher wins, before AS-path length, in the decision process.
    pub local_pref: Option<u32>,
    /// Provenance flag.
    pub added: bool,
}

/// `router bgp ASN` block.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BgpConfig {
    /// Local AS number.
    pub asn: Asn,
    /// Advertised networks (`network P mask M`).
    pub networks: Vec<NetworkStatement>,
    /// eBGP sessions.
    pub neighbors: Vec<BgpNeighbor>,
    /// Inbound per-neighbor route filters.
    pub distribute_lists: Vec<DistributeListBinding>,
}

/// A complete router configuration file.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct RouterConfig {
    /// Device hostname.
    pub hostname: String,
    /// Provenance: `true` iff this is a fake router added by anonymization
    /// (network-scale obfuscation, §9). Not part of the emitted text.
    pub added: bool,
    /// Interface stanzas, in file order.
    pub interfaces: Vec<Interface>,
    /// Optional `router ospf` block.
    pub ospf: Option<OspfConfig>,
    /// Optional `router rip` block.
    pub rip: Option<RipConfig>,
    /// Optional `router bgp` block.
    pub bgp: Option<BgpConfig>,
    /// Named prefix lists.
    pub prefix_lists: Vec<PrefixList>,
    /// Static routes (`ip route <net> <mask> <next-hop>`).
    pub static_routes: Vec<StaticRoute>,
    /// Top-level lines we do not interpret, preserved verbatim.
    pub extra_lines: Vec<String>,
}

/// An `ip route <network> <mask> <next-hop>` statement. Administrative
/// distance 1 — static routes beat every dynamic protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StaticRoute {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Next-hop address (must be on a connected segment to resolve).
    pub next_hop: Ipv4Addr,
    /// Provenance: added by anonymization?
    pub added: bool,
}

impl RouterConfig {
    /// Creates an empty configuration with just a hostname.
    pub fn new(hostname: impl Into<String>) -> Self {
        Self {
            hostname: hostname.into(),
            ..Default::default()
        }
    }

    /// Finds an interface by name.
    pub fn interface(&self, name: &str) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    /// Finds the interface whose connected prefix contains `addr`.
    pub fn interface_for_addr(&self, addr: Ipv4Addr) -> Option<&Interface> {
        self.interfaces
            .iter()
            .find(|i| i.prefix().is_some_and(|p| p.contains_addr(addr)))
    }

    /// Finds a prefix list by name.
    pub fn prefix_list(&self, name: &str) -> Option<&PrefixList> {
        self.prefix_lists.iter().find(|p| p.name == name)
    }

    /// All prefixes appearing anywhere in this configuration (interface
    /// networks and protocol network statements). Used to seed the
    /// [`confmask_net_types::PrefixAllocator`].
    pub fn used_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out = Vec::new();
        for i in &self.interfaces {
            out.extend(i.prefix());
        }
        for ns in self.network_statements() {
            out.push(ns.prefix);
        }
        out
    }

    fn network_statements(&self) -> impl Iterator<Item = &NetworkStatement> {
        self.ospf
            .iter()
            .flat_map(|o| o.networks.iter())
            .chain(self.rip.iter().flat_map(|r| r.networks.iter()))
            .chain(self.bgp.iter().flat_map(|b| b.networks.iter()))
    }
}

/// A host ("end device") configuration file.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HostConfig {
    /// Device hostname.
    pub hostname: String,
    /// Interface name (hosts have exactly one).
    pub iface_name: String,
    /// Host address and prefix length.
    pub address: (Ipv4Addr, u8),
    /// Default gateway (the attached router's LAN address).
    pub gateway: Ipv4Addr,
    /// Uninterpreted lines, preserved verbatim.
    pub extra: Vec<String>,
    /// Provenance: `true` iff this is a fake host added by anonymization.
    pub added: bool,
}

impl HostConfig {
    /// The host's LAN prefix.
    pub fn prefix(&self) -> Option<Ipv4Prefix> {
        Ipv4Prefix::new(self.address.0, self.address.1).ok()
    }
}

/// A complete network: every router and host configuration file, keyed by
/// hostname (file order preserved via `BTreeMap` determinism).
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct NetworkConfigs {
    /// Router configurations by hostname.
    pub routers: BTreeMap<String, RouterConfig>,
    /// Host configurations by hostname.
    pub hosts: BTreeMap<String, HostConfig>,
}

impl NetworkConfigs {
    /// Builds a network from iterators of router and host configs.
    pub fn new(
        routers: impl IntoIterator<Item = RouterConfig>,
        hosts: impl IntoIterator<Item = HostConfig>,
    ) -> Self {
        Self {
            routers: routers.into_iter().map(|r| (r.hostname.clone(), r)).collect(),
            hosts: hosts.into_iter().map(|h| (h.hostname.clone(), h)).collect(),
        }
    }

    /// Every prefix used anywhere in the network.
    pub fn used_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> = self
            .routers
            .values()
            .flat_map(|r| r.used_prefixes())
            .collect();
        out.extend(self.hosts.values().filter_map(|h| h.prefix()));
        out.sort();
        out.dedup();
        out
    }

    /// Total emitted line count across every configuration file (the paper's
    /// `P_l`). Counts every non-blank line including stanza separators.
    pub fn total_lines(&self) -> usize {
        self.routers.values().map(|r| r.emit_line_count()).sum::<usize>()
            + self.hosts.values().map(|h| h.emit_line_count()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_list_first_match_wins() {
        let pl = PrefixList {
            name: "T".into(),
            entries: vec![
                PrefixListEntry {
                    seq: 5,
                    action: FilterAction::Deny,
                    prefix: p("10.0.0.0/24"),
                    added: false,
                },
                PrefixListEntry {
                    seq: 10,
                    action: FilterAction::Permit,
                    prefix: p("10.0.0.0/16"),
                    added: false,
                },
            ],
        };
        assert_eq!(pl.evaluate(&p("10.0.0.0/24")), FilterAction::Deny);
        assert_eq!(pl.evaluate(&p("10.0.1.0/24")), FilterAction::Permit);
        // implicit permit
        assert_eq!(pl.evaluate(&p("192.168.0.0/24")), FilterAction::Permit);
    }

    #[test]
    fn prefix_list_deny_covers_subprefixes() {
        let pl = PrefixList {
            name: "T".into(),
            entries: vec![PrefixListEntry {
                seq: 5,
                action: FilterAction::Deny,
                prefix: p("10.1.0.0/16"),
                added: false,
            }],
        };
        assert_eq!(pl.evaluate(&p("10.1.2.0/24")), FilterAction::Deny);
        assert_eq!(pl.evaluate(&p("10.2.0.0/16")), FilterAction::Permit);
    }

    #[test]
    fn next_seq_increments_by_five() {
        let mut pl = PrefixList {
            name: "T".into(),
            entries: vec![],
        };
        assert_eq!(pl.next_seq(), 5);
        pl.entries.push(PrefixListEntry {
            seq: 5,
            action: FilterAction::Deny,
            prefix: p("10.0.0.0/24"),
            added: false,
        });
        assert_eq!(pl.next_seq(), 10);
    }

    #[test]
    fn interface_prefix_and_lookup() {
        let mut rc = RouterConfig::new("r1");
        rc.interfaces.push(Interface::new("Ethernet0/0", "10.0.0.0".parse().unwrap(), 31));
        assert_eq!(rc.interface("Ethernet0/0").unwrap().prefix(), Some(p("10.0.0.0/31")));
        assert!(rc
            .interface_for_addr("10.0.0.1".parse().unwrap())
            .is_some());
        assert!(rc
            .interface_for_addr("10.0.0.2".parse().unwrap())
            .is_none());
    }

    #[test]
    fn used_prefixes_deduplicates() {
        let mut rc = RouterConfig::new("r1");
        rc.interfaces.push(Interface::new("Ethernet0/0", "10.0.0.0".parse().unwrap(), 31));
        rc.ospf = Some(OspfConfig {
            process_id: 1,
            networks: vec![NetworkStatement {
                prefix: p("10.0.0.0/31"),
                area: 0,
                added: false,
            }],
            distribute_lists: vec![],
        });
        let net = NetworkConfigs::new([rc], []);
        assert_eq!(net.used_prefixes(), vec![p("10.0.0.0/31")]);
    }
}
