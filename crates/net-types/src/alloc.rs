//! Allocation of fresh prefixes disjoint from a network's existing space.
//!
//! ConfMask requires every fake link and fake host to be numbered out of
//! address space that the original network never uses (§5.3): "For each fake
//! host, we choose a new IP that is not included by any network that appeared
//! in the original network configurations." The [`PrefixAllocator`] is seeded
//! with every prefix found in the original configurations and then hands out
//! prefixes guaranteed not to overlap any of them (nor each other).

use crate::error::{Error, Result};
use crate::prefix::Ipv4Prefix;
use std::net::Ipv4Addr;

/// Allocates fresh IPv4 prefixes disjoint from a set of reserved prefixes.
///
/// Allocation walks candidate pools (RFC 1918 space plus, as a last resort,
/// the rest of unicast space) in deterministic order, so given the same
/// reservations the allocator always produces the same sequence — important
/// for reproducible anonymization runs.
///
/// ```
/// use confmask_net_types::{Ipv4Prefix, PrefixAllocator};
/// let used: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
/// let mut alloc = PrefixAllocator::new([used]);
/// let fresh = alloc.allocate(24).unwrap();
/// assert!(!used.overlaps(&fresh));
/// ```
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    reserved: Vec<Ipv4Prefix>,
    pools: Vec<Ipv4Prefix>,
    /// Per-pool cursor: next candidate subnet index for each (pool, len).
    cursors: std::collections::HashMap<(usize, u8), u32>,
}

impl PrefixAllocator {
    /// Creates an allocator with the given reserved (already-used) prefixes.
    pub fn new(reserved: impl IntoIterator<Item = Ipv4Prefix>) -> Self {
        let pools = vec![
            "172.16.0.0/12".parse().expect("static pool"),
            "192.168.0.0/16".parse().expect("static pool"),
            "10.0.0.0/8".parse().expect("static pool"),
            // Documentation + benchmarking space as overflow pools.
            "198.18.0.0/15".parse().expect("static pool"),
            "100.64.0.0/10".parse().expect("static pool"),
        ];
        Self {
            reserved: reserved.into_iter().collect(),
            pools,
            cursors: std::collections::HashMap::new(),
        }
    }

    /// Every prefix currently reserved, including past allocations.
    pub fn reserved(&self) -> &[Ipv4Prefix] {
        &self.reserved
    }

    fn is_free(&self, candidate: &Ipv4Prefix) -> bool {
        self.reserved.iter().all(|r| !r.overlaps(candidate))
    }

    /// Allocates a fresh `/len` prefix disjoint from all reserved prefixes
    /// and all previous allocations.
    pub fn allocate(&mut self, len: u8) -> Result<Ipv4Prefix> {
        if len > 32 {
            return Err(Error::InvalidPrefix(format!("requested length {len} > 32")));
        }
        for (pool_idx, pool) in self.pools.clone().into_iter().enumerate() {
            if len < pool.len() {
                continue;
            }
            let count_bits = u32::from(len - pool.len());
            let max = if count_bits >= 32 {
                u32::MAX
            } else {
                (1u64 << count_bits) as u32
            };
            let mut cursor = self.cursors.get(&(pool_idx, len)).copied().unwrap_or(0);
            while cursor < max {
                let i = cursor;
                cursor += 1;
                let candidate = pool.subnet(len, i).expect("cursor within pool bounds");
                if self.is_free(&candidate) {
                    self.cursors.insert((pool_idx, len), cursor);
                    self.reserved.push(candidate);
                    return Ok(candidate);
                }
            }
            self.cursors.insert((pool_idx, len), cursor);
        }
        Err(Error::AddressSpaceExhausted { requested_len: len })
    }

    /// Allocates a fresh `/31` point-to-point link prefix and returns the
    /// prefix together with its two endpoint addresses.
    pub fn allocate_p2p(&mut self) -> Result<(Ipv4Prefix, Ipv4Addr, Ipv4Addr)> {
        let p = self.allocate(31)?;
        Ok((p, p.first_host(), p.second_host()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn allocations_are_disjoint_from_reserved() {
        let mut a = PrefixAllocator::new([p("172.16.0.0/12"), p("192.168.0.0/16")]);
        for _ in 0..64 {
            let got = a.allocate(24).unwrap();
            assert!(!p("172.16.0.0/12").overlaps(&got), "{got} overlaps pool 1");
            assert!(!p("192.168.0.0/16").overlaps(&got), "{got} overlaps pool 2");
        }
    }

    #[test]
    fn allocations_are_mutually_disjoint() {
        let mut a = PrefixAllocator::new([]);
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(a.allocate(30).unwrap());
        }
        for i in 0..got.len() {
            for j in 0..i {
                assert!(!got[i].overlaps(&got[j]), "{} overlaps {}", got[i], got[j]);
            }
        }
    }

    #[test]
    fn deterministic_given_same_reservations() {
        let mk = || {
            let mut a = PrefixAllocator::new([p("10.0.0.0/8")]);
            (0..10).map(|_| a.allocate(24).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn skips_partially_used_pools() {
        // Reserve the first half of 172.16/12; allocation must skip into the
        // free half.
        let mut a = PrefixAllocator::new([p("172.16.0.0/13")]);
        let got = a.allocate(24).unwrap();
        assert!(!p("172.16.0.0/13").overlaps(&got));
        assert!(p("172.16.0.0/12").overlaps(&got), "should still use the pool: {got}");
    }

    #[test]
    fn p2p_allocation_yields_two_hosts() {
        let mut a = PrefixAllocator::new([]);
        let (pref, lo, hi) = a.allocate_p2p().unwrap();
        assert_eq!(pref.len(), 31);
        assert_ne!(lo, hi);
        assert!(pref.contains_addr(lo) && pref.contains_addr(hi));
    }

    #[test]
    fn rejects_len_over_32() {
        let mut a = PrefixAllocator::new([]);
        assert!(a.allocate(33).is_err());
    }

    #[test]
    fn interleaved_lengths_stay_disjoint() {
        let mut a = PrefixAllocator::new([]);
        let x = a.allocate(16).unwrap();
        let y = a.allocate(24).unwrap();
        let z = a.allocate(31).unwrap();
        assert!(!x.overlaps(&y) && !x.overlaps(&z) && !y.overlaps(&z));
    }
}
