//! Foundational network types shared by every ConfMask crate.
//!
//! This crate provides the small, dependency-free vocabulary the rest of the
//! workspace is written in:
//!
//! * [`Ipv4Prefix`] — an IPv4 CIDR prefix with the arithmetic the
//!   configuration layer and the simulator need (containment, masks,
//!   host/subnet enumeration),
//! * [`PrefixAllocator`] — allocation of fresh prefixes that are guaranteed
//!   disjoint from every prefix already present in a network (ConfMask
//!   requires fake links and fake hosts to live in address space the original
//!   network never uses, §5.3 of the paper),
//! * identifiers for routers, hosts and autonomous systems
//!   ([`RouterId`], [`HostId`], [`Asn`]),
//! * the crate-spanning [`Error`] type.
//!
//! Everything here is deterministic and `Copy`/cheaply-clonable; no global
//! state, no ambient randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod error;
mod id;
mod prefix;

pub use alloc::PrefixAllocator;
pub use error::{Error, Result};
pub use id::{Asn, HostId, RouterId};
pub use prefix::Ipv4Prefix;

pub use std::net::Ipv4Addr;
