//! A set-associative cache hierarchy with LRU replacement.
//!
//! The paper attributes much of Memcached's resilience to disaggregation
//! to its "remarkably cache-friendly behavior"; reproducing cache
//! locality effects needs an actual cache model. Geometry defaults follow
//! the POWER9 SMT4 core: 32 KiB 8-way L1D, 512 KiB 8-way L2 (per core
//! pair), 10 MiB 20-way L3 region, all with 128 B lines.

use serde::{Deserialize, Serialize};

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 hit.
    L3,
    /// Miss everywhere: memory access.
    Memory,
}

/// One set-associative cache with LRU replacement.
///
/// # Example
///
/// ```
/// use hostsim::cache::Cache;
///
/// let mut c = Cache::new(32 * 1024, 8, 128);
/// assert!(!c.access(0x1000)); // cold miss
/// assert!(c.access(0x1000));  // now resident
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    // tags[set * ways + way]; u64::MAX = invalid. LRU order per set:
    // lower stamp = older.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless capacity divides evenly into power-of-two sets.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(ways > 0 && line_bytes.is_power_of_two());
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines % ways as u64 == 0,
            "capacity must divide into whole sets"
        );
        let sets = (lines / ways as u64) as usize;
        assert!(sets > 0 && sets.is_power_of_two(), "sets must be a power of two");
        Cache {
            sets,
            ways,
            line_bytes,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// Returns `true` on a hit.
    // tflint::allow(TF013): hit/miss is the domain result of a cache probe — both outcomes are success, not a collapsed error.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set = (line as usize) & (self.sets - 1);
        let tag = line;
        let base = set * self.ways;
        // Hit?
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        // Miss: fill LRU victim.
        self.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..self.ways {
            if self.tags[base + way] == u64::MAX {
                victim = way;
                break;
            }
            if self.stamps[base + way] < oldest {
                oldest = self.stamps[base + way];
                victim = way;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Drops every line (e.g. across a context switch in tests).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    /// Hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses taken.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all accesses (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Cache capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// A three-level hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
}

impl CacheHierarchy {
    /// POWER9-like per-core-slice geometry with 128 B lines.
    pub fn power9() -> Self {
        CacheHierarchy {
            l1: Cache::new(32 * 1024, 8, 128),
            l2: Cache::new(512 * 1024, 8, 128),
            l3: Cache::new(10 * 1024 * 1024, 20, 128),
        }
    }

    /// Custom hierarchy.
    pub fn new(l1: Cache, l2: Cache, l3: Cache) -> Self {
        CacheHierarchy { l1, l2, l3 }
    }

    /// Performs one access, filling all levels on the way down.
    pub fn access(&mut self, addr: u64) -> CacheLevel {
        if self.l1.access(addr) {
            return CacheLevel::L1;
        }
        if self.l2.access(addr) {
            return CacheLevel::L2;
        }
        if self.l3.access(addr) {
            return CacheLevel::L3;
        }
        CacheLevel::Memory
    }

    /// The L1 (for stats).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 (for stats).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L3 (for stats).
    pub fn l3(&self) -> &Cache {
        &self.l3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish tiny cache: 2 sets x 2 ways x 128 B.
        let mut c = Cache::new(512, 2, 128);
        // Four lines mapping to set 0: lines 0, 2, 4, 6.
        assert!(!c.access(0 * 128));
        assert!(!c.access(2 * 128));
        assert!(c.access(0 * 128)); // refresh line 0
        assert!(!c.access(4 * 128)); // evicts line 2 (LRU)
        assert!(c.access(0 * 128)); // still resident
        assert!(!c.access(2 * 128)); // was evicted
    }

    #[test]
    fn working_set_smaller_than_capacity_hits() {
        let mut c = Cache::new(32 * 1024, 8, 128);
        let lines = 32 * 1024 / 128;
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(i as u64 * 128);
                if pass > 0 {
                    assert!(hit, "line {i} missed on pass {pass}");
                }
            }
        }
        assert!(c.hit_ratio() > 0.6);
    }

    #[test]
    fn streaming_thrashes() {
        let mut c = Cache::new(32 * 1024, 8, 128);
        // A 4 MiB stream touched once: everything misses.
        for i in 0..(4 * 1024 * 1024 / 128) {
            c.access(i as u64 * 128);
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn hierarchy_fills_downward() {
        let mut h = CacheHierarchy::power9();
        assert_eq!(h.access(0x8000), CacheLevel::Memory);
        assert_eq!(h.access(0x8000), CacheLevel::L1);
        // Evict from L1 by streaming 64 KiB; the line should still be in L2.
        for i in 1..1024 {
            h.access(0x10_0000 + i * 128);
        }
        let lvl = h.access(0x8000);
        assert!(
            matches!(lvl, CacheLevel::L2 | CacheLevel::L3),
            "got {lvl:?}"
        );
    }

    #[test]
    fn flush_clears() {
        let mut c = Cache::new(1024, 2, 128);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(Cache::new(32 * 1024, 8, 128).capacity(), 32 * 1024);
    }
}
