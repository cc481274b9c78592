//! Warm control plane: re-derive only the FIBs a filter edit can change.
//!
//! ConfMask's repair loops (Algorithms 1 and 2) add inbound route filters
//! on a few routers and then need the control plane of the edited network.
//! A cold [`crate::simulate_control_plane`] rebuilds the model and re-runs
//! every SPF. [`WarmControlPlane`] keeps what a cold build converged to and
//! [`WarmControlPlane::refresh`] redoes only the touched routers.
//!
//! **Why the local refresh is exact** (DESIGN.md §17). An OSPF
//! `distribute-list in` is RIB-local: LSAs flood regardless of filters, so
//! every per-prefix distance vector is filter-independent, and a filter on
//! router `r` can only remove `r`'s own candidate next hops
//! ([`crate::ospf::candidate_hops`] is the one place filters enter). A
//! router's FIB merge reads only that router's protocol tables. So after
//! re-resolving `r`'s filters, recomputing `r`'s candidate hops from the
//! cached distances and re-merging `r`'s FIB yields exactly what a cold
//! simulation of the edited configs yields, for every router.
//!
//! That argument needs OSPF to be the only dynamic protocol. BGP reads
//! `igp_denies` when it selects and re-advertises iBGP routes, and RIP
//! propagates filtered distances to other routers, so a filter there can
//! move state anywhere. Refreshes of networks with a BGP speaker or a
//! RIP-active interface therefore re-run the cold build, counted in
//! `sim.warm.full_fallbacks`; so do refreshes whose edit changed more than
//! a touched router's filters.

use crate::error::SimError;
use crate::fib::{merge_fibs, merge_router_fib, Fibs};
use crate::network::{build_router, IfaceNode, RouterNode, SimNetwork};
use crate::{bgp, ospf, rip, ControlState};
use confmask_config::NetworkConfigs;
use confmask_net_types::RouterId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A converged control plane that can be refreshed after filter edits.
#[derive(Debug)]
pub struct WarmControlPlane {
    net: SimNetwork,
    fibs: Fibs,
    state: ControlState,
    /// No BGP speaker and no RIP-active interface: filter edits are
    /// RIB-local and [`WarmControlPlane::refresh`] may take the local path.
    ospf_only: bool,
}

impl WarmControlPlane {
    /// Builds the model and runs every protocol cold — the simulator's only
    /// cold control-plane path ([`crate::simulate_control_plane`] and
    /// [`crate::simulate_with_state`] wrap it).
    pub fn new(configs: &NetworkConfigs) -> Result<Self, SimError> {
        let sp = confmask_obs::span("sim.control_plane");
        confmask_obs::counter_add("sim.simulations", 1);
        // Register the protocol counters at zero so the metric set is stable
        // across protocol mixes (an OSPF-only network still reports
        // `sim.bgp.rounds` = 0 rather than omitting the key).
        for name in ["sim.ospf.spf_runs", "sim.rip.rounds", "sim.bgp.rounds"] {
            confmask_obs::counter_add(name, 0);
        }
        let net = SimNetwork::build(configs)?;
        let (ospf_routes, ospf_dist) = ospf::compute_with_state(&net);
        let (rip_routes, rip_dist) = rip::compute_with_state(&net, None);
        let any_bgp = net.routers.iter().any(|r| r.asn.is_some());
        // The router-to-router IGP matrix is only BGP input, so pure IGP
        // networks skip its `n` Dijkstras entirely.
        let (router_paths, bgp_routes) = if any_bgp {
            let rp = ospf::router_paths(&net);
            let routes = bgp::compute(&net, &rp)?;
            (Some(rp), routes)
        } else {
            (None, vec![BTreeMap::new(); net.router_count()])
        };
        let fibs = merge_fibs(&net, &ospf_routes, &rip_routes, &bgp_routes);
        sp.finish();
        if confmask_obs::enabled() {
            for fib in &fibs.per_router {
                confmask_obs::observe("sim.fib.size", fib.len() as u64);
            }
        }
        let any_rip = net
            .routers
            .iter()
            .any(|r| r.ifaces.iter().any(|i| i.rip_active));
        Ok(WarmControlPlane {
            net,
            fibs,
            state: ControlState {
                ospf_routes,
                ospf_dist,
                rip_routes,
                rip_dist,
                router_paths,
                bgp_routes,
            },
            ospf_only: !any_bgp && !any_rip,
        })
    }

    /// The extracted model (interface filters as of the last refresh).
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// Every router's forwarding table.
    pub fn fibs(&self) -> &Fibs {
        &self.fibs
    }

    /// Consumes the handle into the model, the FIBs and the converged
    /// per-protocol state.
    pub fn into_parts(self) -> (SimNetwork, Fibs, ControlState) {
        (self.net, self.fibs, self.state)
    }

    /// Brings the control plane up to date with `configs`, which must differ
    /// from the configs of the last build or refresh only in the routers
    /// named by `touched` (ids of [`WarmControlPlane::net`]).
    ///
    /// On an OSPF-only model, when every touched router changed only in its
    /// inbound IGP filters, this re-resolves those routers' interface
    /// filters, recomputes their OSPF candidate hops for every prefix from
    /// the cached distance vectors, and re-merges their FIBs. Otherwise it
    /// re-runs the cold build and counts `sim.warm.full_fallbacks`. Either
    /// way the result equals [`WarmControlPlane::new`] of `configs`.
    pub fn refresh(
        &mut self,
        configs: &NetworkConfigs,
        touched: &[RouterId],
    ) -> Result<(), SimError> {
        confmask_obs::counter_add("sim.warm.refreshes", 1);
        match self.resolve_filter_edits(configs, touched)? {
            Some(fresh) => {
                let sp = confmask_obs::span("sim.warm.refresh");
                for (rid, node) in touched.iter().zip(fresh) {
                    self.refresh_router(*rid, node);
                }
                sp.finish();
            }
            None => {
                confmask_obs::counter_add("sim.warm.full_fallbacks", 1);
                *self = Self::new(configs)?;
            }
        }
        Ok(())
    }

    /// Re-resolves each touched router from `configs` with the model's own
    /// [`build_router`]. `None` when the local path does not apply: a BGP or
    /// RIP model, a changed router or host set, or a touched router whose
    /// edit went beyond its interface filters.
    fn resolve_filter_edits(
        &self,
        configs: &NetworkConfigs,
        touched: &[RouterId],
    ) -> Result<Option<Vec<RouterNode>>, SimError> {
        if !self.ospf_only
            || configs.routers.len() != self.net.router_count()
            || configs.hosts.len() != self.net.hosts.len()
        {
            return Ok(None);
        }
        let mut fresh = Vec::with_capacity(touched.len());
        for &rid in touched {
            let cur = self.net.router(rid);
            let Some(rc) = configs.routers.get(&cur.name) else {
                return Ok(None);
            };
            let node = build_router(rc)?;
            if !only_filters_differ(cur, &node) {
                return Ok(None);
            }
            fresh.push(node);
        }
        Ok(Some(fresh))
    }

    /// Installs a re-resolved router's filters, recomputes its OSPF
    /// candidate hops from the cached distances and re-merges its FIB.
    fn refresh_router(&mut self, rid: RouterId, fresh: RouterNode) {
        let u = rid.0 as usize;
        let node = Arc::make_mut(&mut self.net.routers[u]);
        for (iface, new) in node.ifaces.iter_mut().zip(fresh.ifaces) {
            iface.igp_filters = new.igp_filters;
        }
        let router = self.net.router(rid);
        let adj_u = ospf::router_adjacency(&self.net, rid);
        let routes = &mut self.state.ospf_routes[u];
        for (prefix, dist) in &self.state.ospf_dist {
            let hops = ospf::candidate_hops(router, &adj_u, dist, u, prefix);
            if hops.is_empty() {
                routes.remove(prefix);
            } else {
                routes.insert(*prefix, hops);
            }
        }
        self.fibs.per_router[u] = Arc::new(merge_router_fib(
            &self.net,
            rid,
            &self.state.ospf_routes[u],
            &self.state.rip_routes,
            &self.state.bgp_routes,
        ));
    }
}

/// Whether a freshly resolved router (peers and sessions not yet attached)
/// differs from the model's current node at most in its interfaces'
/// inbound IGP filters.
///
/// Both structs are destructured exhaustively, so a field added to
/// [`RouterNode`] or [`IfaceNode`] fails to compile here until someone
/// decides whether a refresh may let it differ.
fn only_filters_differ(cur: &RouterNode, fresh: &RouterNode) -> bool {
    let RouterNode {
        name,
        asn,
        ifaces,
        bgp_networks,
        sessions: _,
        static_routes,
        runs_ospf,
        runs_rip,
    } = cur;
    *name == fresh.name
        && *asn == fresh.asn
        && *bgp_networks == fresh.bgp_networks
        && *static_routes == fresh.static_routes
        && *runs_ospf == fresh.runs_ospf
        && *runs_rip == fresh.runs_rip
        && ifaces.len() == fresh.ifaces.len()
        && ifaces.iter().zip(&fresh.ifaces).all(|(a, b)| {
            let IfaceNode {
                name,
                addr,
                prefix,
                cost,
                peers: _,
                ospf_active,
                rip_active,
                igp_filters: _,
                added,
            } = a;
            *name == b.name
                && *addr == b.addr
                && *prefix == b.prefix
                && *cost == b.cost
                && *ospf_active == b.ospf_active
                && *rip_active == b.rip_active
                && *added == b.added
        })
}
