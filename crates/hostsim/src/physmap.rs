//! The real-address (physical) memory map.
//!
//! Firmware carves the real address space into regions: local DRAM
//! behind each socket, MMIO windows, and — with ThymesisFlow — the
//! window assigned to the compute endpoint, where loads and stores turn
//! into remote memory transactions.

use std::fmt;

use serde::{Deserialize, Serialize};

/// What backs a region of real addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// Socket-local DRAM, owned by a NUMA node.
    LocalDram {
        /// The backing NUMA node id.
        node: u32,
    },
    /// The ThymesisFlow compute-endpoint window (disaggregated memory).
    ThymesisFlow {
        /// The CPU-less NUMA node the remote memory is exposed as.
        node: u32,
    },
    /// Device MMIO (e.g. the endpoint configuration space).
    Mmio,
}

/// A contiguous region of the real address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Base real address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Backing kind.
    pub kind: RegionKind,
}

impl Region {
    /// Whether the region covers `ra`.
    pub fn contains(&self, ra: u64) -> bool {
        ra >= self.base && ra - self.base < self.len
    }

    fn overlaps(&self, other: &Region) -> bool {
        self.base < other.base + other.len && other.base < self.base + self.len
    }
}

/// Physical-map errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysMapError {
    /// The new region overlaps an existing one.
    Overlap,
    /// The region is empty.
    Empty,
    /// No region covers the address.
    Unmapped(u64),
}

impl fmt::Display for PhysMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhysMapError::Overlap => write!(f, "region overlaps the physical map"),
            PhysMapError::Empty => write!(f, "region cannot be empty"),
            PhysMapError::Unmapped(ra) => write!(f, "real address {ra:#x} unmapped"),
        }
    }
}

impl std::error::Error for PhysMapError {}

/// The host's real-address map.
///
/// # Example
///
/// ```
/// use hostsim::physmap::{PhysicalMemoryMap, Region, RegionKind};
///
/// let mut map = PhysicalMemoryMap::new();
/// map.add(Region { base: 0, len: 1 << 39, kind: RegionKind::LocalDram { node: 0 } })?;
/// let r = map.lookup(0x1000)?;
/// assert_eq!(r.kind, RegionKind::LocalDram { node: 0 });
/// # Ok::<(), hostsim::physmap::PhysMapError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalMemoryMap {
    regions: Vec<Region>,
}

impl PhysicalMemoryMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a region.
    ///
    /// # Errors
    ///
    /// Fails on empty or overlapping regions.
    pub fn add(&mut self, region: Region) -> Result<(), PhysMapError> {
        if region.len == 0 {
            return Err(PhysMapError::Empty);
        }
        if self.regions.iter().any(|r| r.overlaps(&region)) {
            return Err(PhysMapError::Overlap);
        }
        self.regions.push(region);
        self.regions.sort_by_key(|r| r.base);
        Ok(())
    }

    /// Removes the region starting at `base`.
    ///
    /// # Errors
    ///
    /// Fails if no region starts there.
    pub fn remove(&mut self, base: u64) -> Result<Region, PhysMapError> {
        let pos = self
            .regions
            .iter()
            .position(|r| r.base == base)
            .ok_or(PhysMapError::Unmapped(base))?;
        Ok(self.regions.remove(pos))
    }

    /// Finds the region covering a real address.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses.
    pub fn lookup(&self, ra: u64) -> Result<Region, PhysMapError> {
        let idx = self.regions.partition_point(|r| r.base <= ra);
        if idx > 0 && self.regions[idx - 1].contains(ra) {
            return Ok(self.regions[idx - 1]);
        }
        Err(PhysMapError::Unmapped(ra))
    }

    /// The first gap of at least `len` bytes above `min_base`, aligned to
    /// `align` — where firmware places a new ThymesisFlow window.
    pub fn find_hole(&self, min_base: u64, len: u64, align: u64) -> u64 {
        let align_up = |x: u64| x.div_ceil(align) * align;
        let mut candidate = align_up(min_base);
        for r in &self.regions {
            if r.base + r.len <= candidate {
                continue;
            }
            if r.base >= candidate && r.base - candidate >= len {
                break;
            }
            candidate = align_up(r.base + r.len);
        }
        candidate
    }

    /// All regions of a kind predicate.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes of a given backing kind.
    pub fn total_bytes<F: Fn(&RegionKind) -> bool>(&self, pred: F) -> u64 {
        self.regions
            .iter()
            .filter(|r| pred(&r.kind))
            .map(|r| r.len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(base: u64, len: u64) -> Region {
        Region {
            base,
            len,
            kind: RegionKind::LocalDram { node: 0 },
        }
    }

    #[test]
    fn add_lookup_remove() {
        let mut m = PhysicalMemoryMap::new();
        m.add(dram(0, 0x1000)).unwrap();
        m.add(dram(0x2000, 0x1000)).unwrap();
        assert!(m.lookup(0xFFF).is_ok());
        assert_eq!(m.lookup(0x1000), Err(PhysMapError::Unmapped(0x1000)));
        assert!(m.lookup(0x2000).is_ok());
        m.remove(0x2000).unwrap();
        assert!(m.lookup(0x2000).is_err());
    }

    #[test]
    fn overlap_rejected() {
        let mut m = PhysicalMemoryMap::new();
        m.add(dram(0, 0x2000)).unwrap();
        assert_eq!(m.add(dram(0x1000, 0x2000)), Err(PhysMapError::Overlap));
        assert_eq!(m.add(dram(0, 0)), Err(PhysMapError::Empty));
    }

    #[test]
    fn find_hole_skips_regions() {
        let mut m = PhysicalMemoryMap::new();
        m.add(dram(0, 0x10000)).unwrap();
        m.add(dram(0x20000, 0x10000)).unwrap();
        // A 0x10000 hole exists at 0x10000.
        assert_eq!(m.find_hole(0, 0x10000, 0x1000), 0x10000);
        // A 0x20000 hole only fits above the second region.
        assert_eq!(m.find_hole(0, 0x20000, 0x1000), 0x30000);
        // Alignment is respected.
        assert_eq!(m.find_hole(0x1, 0x1000, 0x4000) % 0x4000, 0);
    }

    #[test]
    fn totals_by_kind() {
        let mut m = PhysicalMemoryMap::new();
        m.add(dram(0, 0x1000)).unwrap();
        m.add(Region {
            base: 0x10000,
            len: 0x2000,
            kind: RegionKind::ThymesisFlow { node: 1 },
        })
        .unwrap();
        assert_eq!(
            m.total_bytes(|k| matches!(k, RegionKind::ThymesisFlow { .. })),
            0x2000
        );
        assert_eq!(
            m.total_bytes(|k| matches!(k, RegionKind::LocalDram { .. })),
            0x1000
        );
    }
}
