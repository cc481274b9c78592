//! Network model extraction from configuration files.
//!
//! Mirrors what Batfish's parsing stage provides to ConfMask: resolved
//! interfaces, links (interface pairs sharing a prefix), protocol activation
//! (Cisco `network`-statement semantics: a statement enables the protocol on
//! every interface whose address it covers), BGP sessions, and route filters
//! resolved to their prefix lists.

use crate::error::SimError;
use confmask_config::{
    DistributeListBinding, HostConfig, NetworkConfigs, PrefixList, RouterConfig, StaticRoute,
    DEFAULT_OSPF_COST,
};
use confmask_net_types::{Asn, HostId, Ipv4Addr, Ipv4Prefix, RouterId};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The device on the far side of an interface's L2 segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Another router (id and its interface index).
    Router {
        /// Peer router.
        router: RouterId,
        /// Index of the peer's interface on the shared segment.
        iface: usize,
    },
    /// A host attached to this interface's LAN.
    Host(HostId),
}

/// A resolved router interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfaceNode {
    /// Interface name (e.g. `Ethernet0/0`).
    pub name: String,
    /// Interface address.
    pub addr: Ipv4Addr,
    /// Connected prefix.
    pub prefix: Ipv4Prefix,
    /// Effective OSPF cost (explicit or [`DEFAULT_OSPF_COST`]).
    pub cost: u32,
    /// Devices sharing the segment.
    pub peers: Vec<Peer>,
    /// OSPF runs on this interface (covered by a `network ... area`).
    pub ospf_active: bool,
    /// RIP runs on this interface.
    pub rip_active: bool,
    /// Inbound IGP route filters bound to this interface.
    pub igp_filters: Vec<PrefixList>,
    /// Whether this interface was added by anonymization (provenance).
    pub added: bool,
}

impl IfaceNode {
    /// Whether an inbound IGP filter on this interface denies `prefix`.
    pub fn igp_denies(&self, prefix: &Ipv4Prefix) -> bool {
        self.igp_filters
            .iter()
            .any(|l| l.evaluate(prefix) == confmask_config::FilterAction::Deny)
    }
}

/// A resolved (e)BGP session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpSession {
    /// Index of the local interface carrying the session.
    pub local_iface: Option<usize>,
    /// Configured peer address.
    pub peer_addr: Ipv4Addr,
    /// Resolved peer router and its interface, when the address matches a
    /// modelled device.
    pub peer: Option<(RouterId, usize)>,
    /// Peer AS.
    pub remote_as: Asn,
    /// Local preference assigned to routes learned here (default 100).
    pub local_pref: u32,
    /// Inbound route filters for this session.
    pub in_filters: Vec<PrefixList>,
}

impl BgpSession {
    /// Whether an inbound filter on this session denies `prefix`.
    pub fn denies(&self, prefix: &Ipv4Prefix) -> bool {
        self.in_filters
            .iter()
            .any(|l| l.evaluate(prefix) == confmask_config::FilterAction::Deny)
    }
}

/// A resolved router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterNode {
    /// Hostname.
    pub name: String,
    /// Local AS (when running BGP).
    pub asn: Option<Asn>,
    /// Interfaces (index = interface id used across the simulator).
    pub ifaces: Vec<IfaceNode>,
    /// Prefixes this router's BGP originates (`network ... mask ...`).
    pub bgp_networks: Vec<Ipv4Prefix>,
    /// BGP sessions.
    pub sessions: Vec<BgpSession>,
    /// Static routes (`ip route ...`), resolved lazily at FIB merge.
    pub static_routes: Vec<StaticRoute>,
    /// Router runs OSPF.
    pub runs_ospf: bool,
    /// Router runs RIP.
    pub runs_rip: bool,
}

/// A resolved host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostNode {
    /// Hostname.
    pub name: String,
    /// Host address.
    pub addr: Ipv4Addr,
    /// LAN prefix.
    pub prefix: Ipv4Prefix,
    /// Configured gateway.
    pub gateway: Ipv4Addr,
    /// The router interface acting as gateway, when resolvable.
    pub attachment: Option<(RouterId, usize)>,
    /// Whether this is an anonymization-added fake host (provenance).
    pub added: bool,
}

/// The fully resolved network model.
///
/// Every part is reference-counted, so a model derived from another by
/// [`SimNetwork::without_interfaces`] shares each router, host and table
/// the removal leaves unchanged, and a clone costs reference-count bumps.
/// The default is the empty model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimNetwork {
    /// Routers, indexed by [`RouterId`].
    pub routers: Vec<Arc<RouterNode>>,
    /// Hosts, indexed by [`HostId`].
    pub hosts: Vec<Arc<HostNode>>,
    /// Destination prefixes to route: every host LAN, with its hosts.
    pub destinations: Arc<[(Ipv4Prefix, Vec<HostId>)]>,
    router_index: Arc<BTreeMap<String, RouterId>>,
    host_index: Arc<BTreeMap<String, HostId>>,
}

/// The interface renumbering that removing interfaces from a model
/// defines: `build` skips a shut interface, so every later interface of
/// the same router moves down by one. The map is monotone per router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfaceRemap {
    /// Per router: its removed interface indices, ascending.
    removed: Vec<Vec<usize>>,
}

impl IfaceRemap {
    /// The numbering of `routers` routers that lost no interface.
    pub fn identity(routers: usize) -> Self {
        IfaceRemap {
            removed: vec![Vec::new(); routers],
        }
    }

    /// The new index of router `r`'s interface `iface`; `None` when the
    /// interface was removed.
    pub fn get(&self, r: usize, iface: usize) -> Option<usize> {
        let gone = &self.removed[r];
        if gone.is_empty() {
            return Some(iface);
        }
        match gone.binary_search(&iface) {
            Ok(_) => None,
            Err(below) => Some(iface - below),
        }
    }

    /// Whether router `r` kept every interface (its numbering is the
    /// identity).
    pub fn is_identity(&self, r: usize) -> bool {
        self.removed[r].is_empty()
    }

    /// Every removed `(router, interface)` by base index, in router order.
    pub fn removed(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.removed
            .iter()
            .enumerate()
            .flat_map(|(r, gone)| gone.iter().map(move |&i| (r, i)))
    }
}

impl SimNetwork {
    /// Router id by hostname.
    pub fn router_id(&self, name: &str) -> Option<RouterId> {
        self.router_index.get(name).copied()
    }

    /// Host id by hostname.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.host_index.get(name).copied()
    }

    /// The index of the destination `prefix` in
    /// [`SimNetwork::destinations`], when it is one.
    pub fn destination_index(&self, prefix: &Ipv4Prefix) -> Option<usize> {
        self.destinations
            .binary_search_by(|(p, _)| p.cmp(prefix))
            .ok()
    }

    /// The router node for an id.
    pub fn router(&self, id: RouterId) -> &RouterNode {
        &self.routers[id.0 as usize]
    }

    /// The host node for an id.
    pub fn host(&self, id: HostId) -> &HostNode {
        &self.hosts[id.0 as usize]
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Iterator over `(RouterId, &RouterNode)`.
    pub fn routers_iter(&self) -> impl Iterator<Item = (RouterId, &RouterNode)> {
        self.routers
            .iter()
            .enumerate()
            .map(|(i, r)| (RouterId(i as u32), &**r))
    }

    /// Iterator over `(HostId, &HostNode)`.
    pub fn hosts_iter(&self) -> impl Iterator<Item = (HostId, &HostNode)> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (HostId(i as u32), &**h))
    }

    /// Whether two routers share at least one link.
    pub fn adjacent(&self, a: RouterId, b: RouterId) -> bool {
        self.router(a).ifaces.iter().any(|i| {
            i.peers
                .iter()
                .any(|p| matches!(p, Peer::Router { router, .. } if *router == b))
        })
    }

    /// Builds the model from configurations.
    pub fn build(configs: &NetworkConfigs) -> Result<Self, SimError> {
        let router_names: Vec<&String> = configs.routers.keys().collect();
        let router_index: BTreeMap<String, RouterId> = router_names
            .iter()
            .enumerate()
            .map(|(i, n)| ((*n).clone(), RouterId(i as u32)))
            .collect();
        let host_index: BTreeMap<String, HostId> = configs
            .hosts
            .keys()
            .enumerate()
            .map(|(i, n)| (n.clone(), HostId(i as u32)))
            .collect();

        // Pass 1: interfaces with protocol activation.
        let mut routers: Vec<RouterNode> = configs
            .routers
            .values()
            .map(build_router)
            .collect::<Result<_, _>>()?;

        // Pass 2: resolve peers — group (router, iface) by exact prefix.
        let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<(RouterId, usize)>> = BTreeMap::new();
        for (ri, r) in routers.iter().enumerate() {
            for (ii, iface) in r.ifaces.iter().enumerate() {
                by_prefix
                    .entry(iface.prefix)
                    .or_default()
                    .push((RouterId(ri as u32), ii));
            }
        }
        for members in by_prefix.values() {
            for &(ra, ia) in members {
                for &(rb, ib) in members {
                    if ra == rb {
                        continue;
                    }
                    routers[ra.0 as usize].ifaces[ia].peers.push(Peer::Router {
                        router: rb,
                        iface: ib,
                    });
                }
            }
        }

        // Pass 3: hosts and their attachments.
        let mut hosts: Vec<HostNode> = Vec::with_capacity(configs.hosts.len());
        for hc in configs.hosts.values() {
            hosts.push(build_host(hc, &routers)?);
        }
        for (hi, h) in hosts.iter().enumerate() {
            if let Some((rid, ii)) = h.attachment {
                routers[rid.0 as usize].ifaces[ii]
                    .peers
                    .push(Peer::Host(HostId(hi as u32)));
            }
        }

        // Pass 4: BGP sessions (needs the global address map).
        let owners = addr_owners(&routers);
        for (name, rc) in &configs.routers {
            let rid = router_index[name];
            let Some(bgp) = &rc.bgp else { continue };
            let mut sessions = Vec::new();
            for nb in &bgp.neighbors {
                let in_filters = bgp
                    .distribute_lists
                    .iter()
                    .filter_map(|d| match d {
                        DistributeListBinding::Neighbor { list, neighbor, .. }
                            if *neighbor == nb.addr =>
                        {
                            rc.prefix_list(list).cloned()
                        }
                        _ => None,
                    })
                    .collect();
                sessions.push(BgpSession {
                    local_iface: local_iface_of(&routers[rid.0 as usize], nb.addr),
                    peer_addr: nb.addr,
                    peer: owners.get(&nb.addr).copied(),
                    remote_as: nb.remote_as,
                    local_pref: nb.local_pref.unwrap_or(confmask_config::DEFAULT_LOCAL_PREF),
                    in_filters,
                });
            }
            routers[rid.0 as usize].sessions = sessions;
        }

        // Destinations: host LANs.
        let mut destinations: BTreeMap<Ipv4Prefix, Vec<HostId>> = BTreeMap::new();
        for (hi, h) in hosts.iter().enumerate() {
            destinations
                .entry(h.prefix)
                .or_default()
                .push(HostId(hi as u32));
        }

        Ok(SimNetwork {
            routers: routers.into_iter().map(Arc::new).collect(),
            hosts: hosts.into_iter().map(Arc::new).collect(),
            destinations: destinations.into_iter().collect(),
            router_index: Arc::new(router_index),
            host_index: Arc::new(host_index),
        })
    }

    /// The model of this network's configurations with the named `(router,
    /// interface)`s shut, derived without re-reading a configuration: what
    /// [`SimNetwork::build`] returns for those configurations, equal field
    /// for field, together with the interface renumbering the removal
    /// defines. A named interface the model lacks (one without an address)
    /// has nothing to remove. `None` when a router name is unknown.
    ///
    /// A shutdown only removes: routers, hosts and destinations stay, and
    /// the derived model shares every router and host whose node the
    /// removal leaves unchanged. What can change is re-resolved with the
    /// helpers `build` uses:
    /// * interfaces and peers: the removed interfaces go, and every peer
    ///   entry naming an interface is renumbered (routers that lost an
    ///   interface and their peers; peer order is kept because the
    ///   renumbering is monotone);
    /// * host attachments: renumbered, and a host whose gateway interface
    ///   went away takes the first surviving match, as `build` resolves it;
    /// * BGP sessions: renumbered, and a session whose local or peer
    ///   interface went away is resolved again against the derived model.
    pub fn without_interfaces(
        &self,
        shut: &[(String, String)],
    ) -> Option<(SimNetwork, IfaceRemap)> {
        let n = self.routers.len();
        let mut removed = vec![Vec::new(); n];
        for (router, iface) in shut {
            let r = self.router_id(router)?.0 as usize;
            if let Some(i) = self.routers[r].ifaces.iter().position(|f| f.name == *iface) {
                removed[r].push(i);
            }
        }
        for gone in &mut removed {
            gone.sort_unstable();
            gone.dedup();
        }
        let remap = IfaceRemap { removed };
        if remap.removed().next().is_none() {
            return Some((self.clone(), remap));
        }
        let mut routers = self.routers.clone();

        // Interfaces and peers: only a router that lost an interface, or
        // peers with one, can see either change.
        let mut touched = BTreeSet::new();
        for (r, base) in self.routers.iter().enumerate() {
            if remap.is_identity(r) {
                continue;
            }
            touched.insert(r);
            for p in base.ifaces.iter().flat_map(|f| &f.peers) {
                if let Peer::Router { router, .. } = p {
                    touched.insert(router.0 as usize);
                }
            }
        }
        let peer_moves = |p: &Peer| match *p {
            Peer::Router { router, iface } => remap.get(router.0 as usize, iface) != Some(iface),
            Peer::Host(_) => false,
        };
        for r in touched {
            let base = &self.routers[r];
            if remap.is_identity(r) && !base.ifaces.iter().flat_map(|f| &f.peers).any(peer_moves) {
                continue;
            }
            let mut node = RouterNode::clone(base);
            let mut i = 0;
            node.ifaces.retain(|_| {
                i += 1;
                remap.get(r, i - 1).is_some()
            });
            for f in &mut node.ifaces {
                f.peers.retain_mut(|p| match p {
                    Peer::Router { router, iface } => match remap.get(router.0 as usize, *iface) {
                        Some(ni) => {
                            *iface = ni;
                            true
                        }
                        None => false,
                    },
                    Peer::Host(_) => true,
                });
            }
            routers[r] = Arc::new(node);
        }

        // Host attachments.
        let mut hosts = self.hosts.clone();
        for (h, host) in self.hosts.iter().enumerate() {
            let Some((rid, i)) = host.attachment else {
                continue;
            };
            let attachment = match remap.get(rid.0 as usize, i) {
                Some(ni) if ni == i => continue,
                Some(ni) => Some((rid, ni)),
                None => {
                    let found = attachment_of(&routers, host.gateway, host.prefix);
                    if let Some((nr, ni)) = found {
                        // Host peers follow router peers, in host order.
                        let peers =
                            &mut Arc::make_mut(&mut routers[nr.0 as usize]).ifaces[ni].peers;
                        let at = peers
                            .iter()
                            .position(|p| matches!(*p, Peer::Host(x) if x.0 as usize > h))
                            .unwrap_or(peers.len());
                        peers.insert(at, Peer::Host(HostId(h as u32)));
                    }
                    found
                }
            };
            hosts[h] = Arc::new(HostNode {
                attachment,
                ..HostNode::clone(host)
            });
        }

        // BGP sessions.
        let mut owners = None;
        for (r, base) in self.routers.iter().enumerate() {
            let mut sessions: Option<Vec<BgpSession>> = None;
            for (k, s) in base.sessions.iter().enumerate() {
                let local_iface = s.local_iface.and_then(|i| {
                    remap
                        .get(r, i)
                        .or_else(|| local_iface_of(&routers[r], s.peer_addr))
                });
                let peer = s
                    .peer
                    .and_then(|(pr, pi)| match remap.get(pr.0 as usize, pi) {
                        Some(pi) => Some((pr, pi)),
                        None => owners
                            .get_or_insert_with(|| addr_owners(&routers))
                            .get(&s.peer_addr)
                            .copied(),
                    });
                if (local_iface, peer) != (s.local_iface, s.peer) {
                    let fixed = &mut sessions.get_or_insert_with(|| base.sessions.clone())[k];
                    fixed.local_iface = local_iface;
                    fixed.peer = peer;
                }
            }
            if let Some(sessions) = sessions {
                Arc::make_mut(&mut routers[r]).sessions = sessions;
            }
        }

        let net = SimNetwork {
            routers,
            hosts,
            destinations: Arc::clone(&self.destinations),
            router_index: Arc::clone(&self.router_index),
            host_index: Arc::clone(&self.host_index),
        };
        Some((net, remap))
    }

    /// Re-filters the model: gives each router in `fresh` the inbound IGP
    /// filters of its re-resolved node (a [`build_router`] of its edited
    /// configuration), interface by interface name, and reads nothing else
    /// from it. The result is what [`SimNetwork::build`] returns for
    /// configurations that differ from this model's only in those filters;
    /// every other router, and every host and table, stays shared. Filters
    /// bind to interface names, so this commutes with
    /// [`SimNetwork::without_interfaces`].
    pub fn set_igp_filters(&mut self, fresh: &[(RouterId, RouterNode)]) {
        for (rid, node) in fresh {
            let router = Arc::make_mut(&mut self.routers[rid.0 as usize]);
            for iface in &mut router.ifaces {
                if let Some(new) = node.ifaces.iter().find(|f| f.name == iface.name) {
                    iface.igp_filters.clone_from(&new.igp_filters);
                }
            }
        }
    }
}

/// The interface owning each address; the last one in (router, interface)
/// order when several share it.
fn addr_owners<R: Borrow<RouterNode>>(routers: &[R]) -> BTreeMap<Ipv4Addr, (RouterId, usize)> {
    routers
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| {
            r.borrow()
                .ifaces
                .iter()
                .enumerate()
                .map(move |(ii, i)| (i.addr, (RouterId(ri as u32), ii)))
        })
        .collect()
}

/// The interface carrying a session toward `peer_addr`: the router's first
/// interface whose prefix covers it.
fn local_iface_of(router: &RouterNode, peer_addr: Ipv4Addr) -> Option<usize> {
    router
        .ifaces
        .iter()
        .position(|i| i.prefix.contains_addr(peer_addr))
}

/// A host's gateway interface: the first one, in (router, interface)
/// order, holding the gateway address on the host's LAN prefix.
fn attachment_of<R: Borrow<RouterNode>>(
    routers: &[R],
    gateway: Ipv4Addr,
    prefix: Ipv4Prefix,
) -> Option<(RouterId, usize)> {
    routers.iter().enumerate().find_map(|(ri, r)| {
        r.borrow()
            .ifaces
            .iter()
            .position(|i| i.addr == gateway && i.prefix == prefix)
            .map(|ii| (RouterId(ri as u32), ii))
    })
}

/// Resolves one router's configuration on its own, as
/// [`SimNetwork::build`]'s first pass does: interfaces with protocol
/// activation and inbound IGP filters, but no peers or BGP sessions (those
/// need the whole network).
pub fn build_router(rc: &RouterConfig) -> Result<RouterNode, SimError> {
    let ospf_nets: Vec<Ipv4Prefix> = rc
        .ospf
        .iter()
        .flat_map(|o| o.networks.iter().map(|n| n.prefix))
        .collect();
    let rip_nets: Vec<Ipv4Prefix> = rc
        .rip
        .iter()
        .flat_map(|r| r.networks.iter().map(|n| n.prefix))
        .collect();

    let igp_bindings: Vec<(&str, &str)> = rc
        .ospf
        .iter()
        .flat_map(|o| o.distribute_lists.iter())
        .chain(rc.rip.iter().flat_map(|r| r.distribute_lists.iter()))
        .filter_map(|d| match d {
            DistributeListBinding::Interface {
                list, interface, ..
            } => Some((list.as_str(), interface.as_str())),
            _ => None,
        })
        .collect();

    let mut ifaces = Vec::new();
    for iface in &rc.interfaces {
        if iface.shutdown {
            continue;
        }
        let Some((addr, len)) = iface.address else {
            continue;
        };
        let prefix = Ipv4Prefix::new(addr, len)
            .map_err(|e| SimError::BadConfig(format!("{}/{}: {e}", rc.hostname, iface.name)))?;
        let covers = |nets: &[Ipv4Prefix]| nets.iter().any(|n| n.contains_addr(addr));
        let igp_filters = igp_bindings
            .iter()
            .filter(|(_, i)| *i == iface.name)
            .filter_map(|(l, _)| rc.prefix_list(l).cloned())
            .collect();
        ifaces.push(IfaceNode {
            name: iface.name.clone(),
            addr,
            prefix,
            cost: iface.ospf_cost.unwrap_or(DEFAULT_OSPF_COST),
            peers: Vec::new(),
            ospf_active: rc.ospf.is_some() && covers(&ospf_nets),
            rip_active: rc.rip.is_some() && covers(&rip_nets),
            igp_filters,
            added: iface.added,
        });
    }

    Ok(RouterNode {
        name: rc.hostname.clone(),
        asn: rc.bgp.as_ref().map(|b| b.asn),
        ifaces,
        bgp_networks: rc
            .bgp
            .iter()
            .flat_map(|b| b.networks.iter().map(|n| n.prefix))
            .collect(),
        sessions: Vec::new(),
        static_routes: rc.static_routes.clone(),
        runs_ospf: rc.ospf.is_some(),
        runs_rip: rc.rip.is_some(),
    })
}

fn build_host(hc: &HostConfig, routers: &[RouterNode]) -> Result<HostNode, SimError> {
    let (addr, len) = hc.address;
    let prefix = Ipv4Prefix::new(addr, len)
        .map_err(|e| SimError::BadConfig(format!("host {}: {e}", hc.hostname)))?;
    Ok(HostNode {
        name: hc.hostname.clone(),
        addr,
        prefix,
        gateway: hc.gateway,
        attachment: attachment_of(routers, hc.gateway, prefix),
        added: hc.added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::parse_router;

    fn net() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n ip ospf cost 5\n!\ninterface Ethernet0/1\n ip address 10.1.0.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n network 10.1.0.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.0.1 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n!\nrouter bgp 65001\n network 10.1.0.0 mask 255.255.255.0\n neighbor 10.0.0.0 remote-as 65002\n!\n",
        )
        .unwrap();
        let h = HostConfig {
            hostname: "h1".into(),
            iface_name: "eth0".into(),
            address: ("10.1.0.100".parse().unwrap(), 24),
            gateway: "10.1.0.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        NetworkConfigs::new([r1, r2], [h])
    }

    #[test]
    fn resolves_router_peers() {
        let sim = SimNetwork::build(&net()).unwrap();
        let r1 = sim.router_id("r1").unwrap();
        let r2 = sim.router_id("r2").unwrap();
        assert!(sim.adjacent(r1, r2));
        assert!(sim.adjacent(r2, r1));
        let iface = &sim.router(r1).ifaces[0];
        assert_eq!(iface.cost, 5);
        assert!(iface.ospf_active);
    }

    #[test]
    fn resolves_host_attachment() {
        let sim = SimNetwork::build(&net()).unwrap();
        let h = sim.host(sim.host_id("h1").unwrap());
        let r1 = sim.router_id("r1").unwrap();
        assert_eq!(h.attachment.map(|(r, _)| r), Some(r1));
        // the LAN iface carries the host as a peer
        let (rid, ii) = h.attachment.unwrap();
        assert!(sim.router(rid).ifaces[ii]
            .peers
            .iter()
            .any(|p| matches!(p, Peer::Host(_))));
    }

    #[test]
    fn resolves_bgp_session() {
        let sim = SimNetwork::build(&net()).unwrap();
        let r2 = sim.router(sim.router_id("r2").unwrap());
        assert_eq!(r2.asn, Some(Asn(65001)));
        assert_eq!(r2.sessions.len(), 1);
        let s = &r2.sessions[0];
        assert_eq!(s.remote_as, Asn(65002));
        assert_eq!(s.peer.map(|(r, _)| r), sim.router_id("r1"));
        assert_eq!(s.local_iface, Some(0));
    }

    #[test]
    fn network_statement_gates_activation() {
        let mut cfgs = net();
        // Remove the r2 network statement: its interface must go inactive.
        cfgs.routers
            .get_mut("r2")
            .unwrap()
            .ospf
            .as_mut()
            .unwrap()
            .networks
            .clear();
        let sim = SimNetwork::build(&cfgs).unwrap();
        let r2 = sim.router(sim.router_id("r2").unwrap());
        assert!(!r2.ifaces[0].ospf_active);
    }

    #[test]
    fn destinations_are_host_lans() {
        let sim = SimNetwork::build(&net()).unwrap();
        assert_eq!(sim.destinations.len(), 1);
        assert_eq!(sim.destinations[0].0, "10.1.0.0/24".parse().unwrap());
        assert_eq!(sim.destinations[0].1.len(), 1);
    }

    #[test]
    fn unattachable_host_is_tolerated() {
        let mut cfgs = net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.0.9".parse().unwrap();
        let sim = SimNetwork::build(&cfgs).unwrap();
        assert!(sim.host(HostId(0)).attachment.is_none());
    }

    #[test]
    fn derived_model_re_resolves_what_a_removal_moves() {
        // r1 and r2 both answer the LAN gateway 10.1.0.1; r3 peers with
        // that address and sits on the LAN twice.
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.0.1 255.255.255.0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.0.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.0.1 255.255.255.0\n!\n",
        )
        .unwrap();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.1.0.3 255.255.255.0\n!\ninterface Ethernet0/1\n ip address 10.1.0.4 255.255.255.0\n!\nrouter bgp 65003\n neighbor 10.1.0.1 remote-as 65001\n!\n",
        )
        .unwrap();
        let h = HostConfig {
            hostname: "h1".into(),
            iface_name: "eth0".into(),
            address: ("10.1.0.100".parse().unwrap(), 24),
            gateway: "10.1.0.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        let cfgs = NetworkConfigs::new([r1, r2, r3], [h]);
        let base = SimNetwork::build(&cfgs).unwrap();
        let (r1, r2, r3) = (RouterId(0), RouterId(1), RouterId(2));
        let session = |net: &SimNetwork| {
            let s = &net.router(r3).sessions[0];
            (s.local_iface, s.peer)
        };
        // The first gateway match attaches the host; the last owner of the
        // address terminates the session.
        assert_eq!(base.host(HostId(0)).attachment, Some((r1, 1)));
        assert_eq!(session(&base), (Some(0), Some((r2, 1))));
        let derive = |router: &str, iface: &str| {
            let mut failed = cfgs.clone();
            let rc = failed.routers.get_mut(router).unwrap();
            rc.interfaces
                .iter_mut()
                .find(|i| i.name == iface)
                .unwrap()
                .shutdown = true;
            let (derived, _) = base
                .without_interfaces(&[(router.to_string(), iface.to_string())])
                .unwrap();
            assert_eq!(
                derived,
                SimNetwork::build(&failed).unwrap(),
                "{router}:{iface}"
            );
            derived
        };
        let net = derive("r1", "Ethernet0/1");
        assert_eq!(net.host(HostId(0)).attachment, Some((r2, 1)));
        assert!(net.router(r2).ifaces[1]
            .peers
            .contains(&Peer::Host(HostId(0))));
        let net = derive("r2", "Ethernet0/1");
        assert_eq!(session(&net), (Some(0), Some((r1, 1))));
        let net = derive("r3", "Ethernet0/0");
        assert_eq!(session(&net), (Some(0), Some((r2, 1))));
        assert_eq!(net.router(r3).ifaces[0].name, "Ethernet0/1");
        // A node the removal leaves alone is shared, not copied.
        assert!(!Arc::ptr_eq(&net.routers[2], &base.routers[2]));
        assert!(Arc::ptr_eq(&net.hosts[0], &base.hosts[0]));
    }

    #[test]
    fn igp_filter_resolution() {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n distribute-list prefix F in Ethernet0/0\n!\nip prefix-list F seq 5 deny 10.9.0.0/24\n!\n",
        )
        .unwrap();
        let cfgs = NetworkConfigs::new([r1], []);
        let sim = SimNetwork::build(&cfgs).unwrap();
        let iface = &sim.routers[0].ifaces[0];
        assert!(iface.igp_denies(&"10.9.0.0/24".parse().unwrap()));
        assert!(!iface.igp_denies(&"10.8.0.0/24".parse().unwrap()));
    }
}
