//! Warm control plane: the repair loops' handle on a converged network.
//!
//! ConfMask's repair loops (Algorithms 1 and 2) add inbound route filters
//! on a few routers and then need the control plane of the edited network.
//! [`WarmControlPlane`] keeps what the cold build converged to, and
//! [`WarmControlPlane::refresh`] re-resolves the touched routers and hands
//! them to the one incremental planner (`delta`'s module docs argue why
//! its result equals a cold build); what the planner declines re-runs the
//! cold build, counted in `sim.warm.full_fallbacks`.

use crate::delta::{self, Edits};
use confmask_config::NetworkConfigs;
use confmask_net_types::RouterId;
use confmask_sim::{build_router, ControlState, Fibs, IfaceNode, RouterNode, SimError, SimNetwork};
use std::borrow::Cow;
use std::sync::Arc;

/// A converged control plane that can be refreshed after filter edits.
#[derive(Debug)]
pub struct WarmControlPlane {
    net: SimNetwork,
    fibs: Fibs,
    state: ControlState,
}

impl WarmControlPlane {
    /// Builds the model and runs every protocol cold
    /// ([`confmask_sim::cold_control_plane`]).
    pub fn new(configs: &NetworkConfigs) -> Result<Self, SimError> {
        let (net, fibs, state) = confmask_sim::cold_control_plane(configs)?;
        Ok(WarmControlPlane { net, fibs, state })
    }

    /// The extracted model (interface filters as of the last refresh).
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// Every router's forwarding table.
    pub fn fibs(&self) -> &Fibs {
        &self.fibs
    }

    /// Brings the control plane up to date with `configs`, which must differ
    /// from the configs of the last build or refresh only in the routers
    /// named by `touched` (ids of [`WarmControlPlane::net`]).
    ///
    /// When every touched router changed only in its inbound IGP filters,
    /// this hands the model to the planner as re-filter edits, which edits
    /// the touched routers in place, and swaps in the plan's model, FIBs
    /// and the touched routers' OSPF tables. Otherwise, or when the planner
    /// declines (a BGP speaker or a RIP-active interface), it re-runs the
    /// cold build and counts `sim.warm.full_fallbacks`. Either way the
    /// result equals [`WarmControlPlane::new`] of `configs`.
    pub fn refresh(
        &mut self,
        configs: &NetworkConfigs,
        touched: &[RouterId],
    ) -> Result<(), SimError> {
        confmask_obs::counter_add("sim.warm.refreshes", 1);
        let Some(refiltered) = self.resolve_filter_edits(configs, touched)? else {
            return self.rebuild(configs);
        };
        let sp = confmask_obs::span("sim.warm.refresh");
        let edits = Edits {
            refiltered,
            ..Edits::default()
        };
        let net = std::mem::take(&mut self.net);
        let plan = delta::plan(Cow::Owned(net), &self.fibs, &self.state, &edits);
        sp.finish();
        // The planner consumed the model, so anything but a plan rebuilds
        // (a cold build of `configs` meets any error the plan met).
        let Ok(Some(plan)) = plan else {
            return self.rebuild(configs);
        };
        // Filter edits remove nothing, so a re-filtered router's fresh rows
        // are all of its rows, and every other row stands.
        for (rid, rows) in plan.ospf_rows {
            self.state.ospf_routes.per_router[rid.0 as usize] = Arc::new(rows);
        }
        self.net = plan.net;
        self.fibs = plan.fibs;
        Ok(())
    }

    /// The fallback: re-runs the cold build of `configs`.
    fn rebuild(&mut self, configs: &NetworkConfigs) -> Result<(), SimError> {
        confmask_obs::counter_add("sim.warm.full_fallbacks", 1);
        *self = Self::new(configs)?;
        Ok(())
    }

    /// Re-resolves each touched router from `configs` with the model's own
    /// [`build_router`], once each. `None` when the filter path does not
    /// apply: a changed router or host set, or a touched router whose edit
    /// went beyond its interface filters.
    fn resolve_filter_edits(
        &self,
        configs: &NetworkConfigs,
        touched: &[RouterId],
    ) -> Result<Option<Vec<(RouterId, RouterNode)>>, SimError> {
        if configs.routers.len() != self.net.router_count()
            || configs.hosts.len() != self.net.hosts.len()
        {
            return Ok(None);
        }
        let mut fresh = Vec::with_capacity(touched.len());
        for &rid in touched {
            if fresh.iter().any(|(r, _)| *r == rid) {
                continue;
            }
            let cur = self.net.router(rid);
            let Some(rc) = configs.routers.get(&cur.name) else {
                return Ok(None);
            };
            let node = build_router(rc)?;
            if !only_filters_differ(cur, &node) {
                return Ok(None);
            }
            fresh.push((rid, node));
        }
        Ok(Some(fresh))
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
