//! Flat IGP tables: candidate rows and converged distances (DESIGN.md §5).
//!
//! A destination's index is its position in [`SimNetwork::destinations`],
//! which is prefix-sorted and shared by every model derived from one build
//! (a shutdown or a filter edit keeps it), so a base and its plans index
//! destinations alike. OSPF and RIP keep one [`Rows`] table per router,
//! row `d` toward destination `d`, and one destination-major distance
//! array ([`Dists`]): a converged control plane costs a few allocations per
//! router, not one per (router, destination).
//!
//! [`SimNetwork::destinations`]: crate::SimNetwork::destinations

use confmask_net_types::RouterId;
use std::sync::Arc;

/// One candidate next hop: `(out_iface, neighbour)`.
pub type Hop = (usize, RouterId);

/// A sequence of hop rows in two allocations: row `i` is the span of the
/// shared hop vector between the ends of rows `i - 1` and `i`. An empty
/// row is no row. Reading past the last row yields empty rows, so a table
/// with no hops at all can stand for any number of destinations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    ends: Vec<u32>,
    hops: Vec<Hop>,
}

impl Rows {
    /// A table with room for `rows` rows and `hops` hops.
    pub fn with_capacity(rows: usize, hops: usize) -> Self {
        Rows {
            ends: Vec::with_capacity(rows),
            hops: Vec::with_capacity(hops),
        }
    }

    /// Appends the next row.
    pub fn push(&mut self, row: impl IntoIterator<Item = Hop>) {
        self.hops.extend(row);
        let end = u32::try_from(self.hops.len()).expect("a table holds fewer than 2^32 hops");
        self.ends.push(end);
    }

    /// Appends the next row as a set: its hops sorted and deduplicated in
    /// place, so building a row allocates nothing of its own.
    pub fn push_set(&mut self, row: impl IntoIterator<Item = Hop>) {
        let start = self.hops.len();
        self.hops.extend(row);
        self.hops[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.hops.len() {
            if kept == start || self.hops[kept - 1] != self.hops[i] {
                self.hops[kept] = self.hops[i];
                kept += 1;
            }
        }
        self.hops.truncate(kept);
        self.push([]);
    }

    /// Row `i`: its hops in row order (empty when it has none).
    pub fn row(&self, i: usize) -> &[Hop] {
        let Some(&end) = self.ends.get(i) else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.hops[start as usize..end as usize]
    }

    /// Number of rows pushed.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no row was pushed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of hops over every row.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The heap this table owns.
    pub fn footprint(&self) -> Footprint {
        Footprint::of_vec(&self.ends) + Footprint::of_vec(&self.hops)
    }
}

/// Every router's candidate rows toward every destination, indexed by
/// [`RouterId`]: `of(r).row(d)` is router `r`'s ECMP set toward
/// destination `d`, already filtered and sorted. Each router's table sits
/// behind an [`Arc`], as each FIB does, so a plan shares every router it
/// leaves alone and a refresh swaps one router's table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IgpRoutes {
    /// Per-router tables.
    pub per_router: Vec<Arc<Rows>>,
}

impl IgpRoutes {
    /// `n` routers with no row at all, sharing one empty table.
    pub fn empty(n: usize) -> Self {
        let empty = Arc::new(Rows::default());
        IgpRoutes {
            per_router: std::iter::repeat_n(empty, n).collect(),
        }
    }

    /// Router-major tables from destination-major rows: `per_dest[k]` holds
    /// router `u`'s row toward the `k`-th destination as its row `u`
    /// (`None` when no router has one). Each router's table is sized in a
    /// first pass, so it is exactly two allocations.
    pub(crate) fn from_destinations(n: usize, per_dest: &[Option<Rows>]) -> Self {
        let mut hops = vec![0usize; n];
        for rows in per_dest.iter().flatten() {
            for (u, count) in hops.iter_mut().enumerate() {
                *count += rows.row(u).len();
            }
        }
        let per_router = hops
            .into_iter()
            .enumerate()
            .map(|(u, count)| {
                let mut table = Rows::with_capacity(per_dest.len(), count);
                for rows in per_dest {
                    table.push(
                        rows.as_ref()
                            .map_or(&[][..], |rows| rows.row(u))
                            .iter()
                            .copied(),
                    );
                }
                Arc::new(table)
            })
            .collect();
        IgpRoutes { per_router }
    }

    /// Router `r`'s table.
    pub fn of(&self, r: RouterId) -> &Rows {
        &self.per_router[r.0 as usize]
    }

    /// The heap these tables own; a table shared between routers counts
    /// once.
    pub fn footprint(&self) -> Footprint {
        let mut seen = std::collections::HashSet::new();
        let tables = self
            .per_router
            .iter()
            .filter(|t| seen.insert(Arc::as_ptr(t)));
        Footprint::of_vec(&self.per_router)
            + tables
                .map(|t| Footprint::of_arc(&**t) + t.footprint())
                .sum::<Footprint>()
    }
}

/// Converged distance vectors toward each destination, destination-major
/// in one array: `get(d)[u]` is router `u`'s distance to destination `d`.
/// A destination no router advertises has no vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dists<T> {
    routers: usize,
    values: Vec<T>,
    advertised: Vec<bool>,
}

impl<T: Copy + Default> Dists<T> {
    /// Room for `destinations` vectors over `routers` routers.
    pub(crate) fn with_capacity(routers: usize, destinations: usize) -> Self {
        Dists {
            routers,
            values: Vec::with_capacity(routers * destinations),
            advertised: Vec::with_capacity(destinations),
        }
    }

    /// Appends the next destination's vector, or `None` for a destination
    /// with no advertiser (stored as defaults, never read).
    pub(crate) fn push(&mut self, dist: Option<&[T]>) {
        match dist {
            Some(dist) => {
                debug_assert_eq!(dist.len(), self.routers, "one distance per router");
                self.values.extend_from_slice(dist);
            }
            None => self
                .values
                .extend(std::iter::repeat_n(T::default(), self.routers)),
        }
        self.advertised.push(dist.is_some());
    }

    /// Destination `d`'s vector; `None` when no router advertises it (or
    /// `d` is past the last destination).
    pub fn get(&self, d: usize) -> Option<&[T]> {
        self.advertised
            .get(d)
            .copied()
            .unwrap_or(false)
            .then(|| &self.values[d * self.routers..(d + 1) * self.routers])
    }

    /// True when no destination has a vector.
    pub fn is_empty(&self) -> bool {
        !self.advertised.contains(&true)
    }

    /// The heap this table owns.
    pub fn footprint(&self) -> Footprint {
        Footprint::of_vec(&self.values) + Footprint::of_vec(&self.advertised)
    }
}

/// Heap blocks and bytes a table owns, counted from its structure: one
/// block per allocated buffer, its capacity times its element size in
/// bytes (allocator overhead excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Heap blocks.
    pub blocks: u64,
    /// Bytes in those blocks.
    pub bytes: u64,
}

impl Footprint {
    /// A vector's buffer (none when it has no capacity).
    pub(crate) fn of_vec<T>(v: &Vec<T>) -> Self {
        Footprint::block(v.capacity() * std::mem::size_of::<T>())
    }

    /// An [`Arc`]'s own block: the two counts and the value.
    pub(crate) fn of_arc<T>(_: &T) -> Self {
        Footprint::block(2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>())
    }

    /// One block of `bytes` bytes, or none for zero bytes.
    pub(crate) fn block(bytes: usize) -> Self {
        Footprint {
            blocks: u64::from(bytes > 0),
            bytes: bytes as u64,
        }
    }
}

impl std::ops::Add for Footprint {
    type Output = Footprint;
    fn add(self, other: Footprint) -> Footprint {
        Footprint {
            blocks: self.blocks + other.blocks,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::iter::Sum for Footprint {
    fn sum<I: Iterator<Item = Footprint>>(iter: I) -> Footprint {
        iter.fold(Footprint::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_spans_of_one_hop_vector() {
        let mut rows = Rows::default();
        rows.push([(0, RouterId(1)), (2, RouterId(3))]);
        rows.push([]);
        rows.push_set([(1, RouterId(0)), (0, RouterId(2)), (1, RouterId(0))]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(0), &[(0, RouterId(1)), (2, RouterId(3))]);
        assert!(rows.row(1).is_empty());
        assert_eq!(rows.row(2), &[(0, RouterId(2)), (1, RouterId(0))]);
        assert!(rows.row(7).is_empty(), "past the last row reads empty");
        assert_eq!(rows.hop_count(), 4);
    }

    #[test]
    fn transposing_destination_rows_gives_router_tables() {
        let mut d0 = Rows::default();
        d0.push([]);
        d0.push([(0, RouterId(0))]);
        let tables = IgpRoutes::from_destinations(2, &[Some(d0), None]);
        assert_eq!(tables.of(RouterId(0)).len(), 2);
        assert!(tables.of(RouterId(0)).row(0).is_empty());
        assert_eq!(tables.of(RouterId(1)).row(0), &[(0, RouterId(0))]);
        assert!(tables.of(RouterId(1)).row(1).is_empty());
    }

    #[test]
    fn unadvertised_destinations_have_no_vector() {
        let mut dists = Dists::with_capacity(2, 2);
        dists.push(None);
        assert!(dists.is_empty());
        dists.push(Some(&[3, 0]));
        assert!(!dists.is_empty());
        assert_eq!(dists.get(0), None);
        assert_eq!(dists.get(1), Some(&[3, 0][..]));
        assert_eq!(dists.get(2), None);
    }
}
