//! The composed L1I / L1D / NUCA-L2 / memory hierarchy of the leading
//! core (Table 1).

use crate::config::{CacheConfig, NucaLayout, NucaPolicy};
use crate::nuca::NucaCache;
use crate::set_assoc::{CacheStats, SetAssocCache};

/// Result of one data access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccess {
    /// Total load-to-use latency in cycles.
    pub cycles: u32,
    /// Hit level: 1 = L1, 2 = L2, 3 = memory.
    pub level: u8,
}

/// Counters spanning all levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// L1 I-cache stats.
    pub l1i: CacheStats,
    /// L1 D-cache stats.
    pub l1d: CacheStats,
    /// L2 accesses (all L1 misses).
    pub l2_accesses: u64,
    /// L2 misses (to memory).
    pub l2_misses: u64,
    /// Instructions' worth of committed work when stats were last reset
    /// (set by the caller; used for misses-per-10K-instructions).
    pub instructions: u64,
}

impl HierarchyStats {
    /// L2 misses per 10 000 instructions — the metric the paper reports
    /// (1.43 at 6 MB, 1.25 at 15 MB, §3.3).
    pub fn l2_misses_per_10k(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 10_000.0 / self.instructions as f64
        }
    }
}

/// The leading core's cache hierarchy: 32 KB 2-way L1s, a banked NUCA L2
/// and a flat memory latency (300 cycles at 2 GHz, Table 1).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: NucaCache,
    /// Memory latency in cycles at the reference 2 GHz clock.
    mem_cycles: u32,
    instructions: u64,
}

impl CacheHierarchy {
    /// Builds the Table 1 hierarchy over a NUCA layout/policy.
    pub fn new(layout: NucaLayout, policy: NucaPolicy) -> CacheHierarchy {
        CacheHierarchy {
            l1i: SetAssocCache::new(CacheConfig::l1_32k_2way()),
            l1d: SetAssocCache::new(CacheConfig::l1_32k_2way()),
            l2: NucaCache::new(layout, policy),
            mem_cycles: 300,
            instructions: 0,
        }
    }

    /// Overrides the memory latency (in reference-clock cycles).
    pub fn set_memory_cycles(&mut self, cycles: u32) {
        self.mem_cycles = cycles;
    }

    /// Memory latency in reference-clock cycles.
    pub fn memory_cycles(&self) -> u32 {
        self.mem_cycles
    }

    /// The L2 NUCA cache (e.g. for per-bank power accounting).
    pub fn l2(&self) -> &NucaCache {
        &self.l2
    }

    /// Instruction-fetch access: returns the front-end stall in cycles
    /// beyond the pipelined L1I hit (0 on a hit).
    #[inline]
    pub fn fetch(&mut self, pc: u64) -> u32 {
        if self.l1i.access(pc, false) {
            0
        } else {
            let l2 = self.l2.access(pc, false);
            if l2.hit {
                l2.cycles
            } else {
                l2.cycles + self.mem_cycles
            }
        }
    }

    /// Data access (load or store address `addr`). Returns the total
    /// latency and the level that serviced it.
    #[inline]
    pub fn data_access(&mut self, addr: u64, write: bool) -> DataAccess {
        let l1_lat = self.l1d.config().latency;
        if self.l1d.access(addr, write) {
            DataAccess {
                cycles: l1_lat,
                level: 1,
            }
        } else {
            let l2 = self.l2.access(addr, write);
            if l2.hit {
                DataAccess {
                    cycles: l1_lat + l2.cycles,
                    level: 2,
                }
            } else {
                DataAccess {
                    cycles: l1_lat + l2.cycles + self.mem_cycles,
                    level: 3,
                }
            }
        }
    }

    /// Records committed instructions (for misses-per-10K reporting).
    pub fn add_instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Warms the data path with a region `[base, base + bytes)`: every
    /// line is touched in L2 and L1D in address order. Emulates the
    /// steady state a long-running program would have reached (the paper
    /// simulates 100M-instruction windows of warmed-up SimPoints).
    /// Regions larger than a cache leave its most-recently-touched tail
    /// resident — the correct LRU steady state for a sequential sweep.
    pub fn prefill_data_region(&mut self, base: u64, bytes: u64) {
        let mut addr = base;
        while addr < base + bytes {
            self.l2.access(addr, false);
            self.l1d.access(addr, false);
            addr += 64;
        }
    }

    /// Warms the instruction path with the code footprint.
    pub fn prefill_code_region(&mut self, base: u64, bytes: u64) {
        let mut addr = base;
        while addr < base + bytes {
            self.l1i.access(addr, false);
            self.l2.access(addr, false);
            addr += 64;
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2_accesses: self.l2.stats().accesses,
            l2_misses: self.l2.stats().misses,
            instructions: self.instructions,
        }
    }

    /// Mean L2 hit latency observed so far (cycles).
    pub fn l2_mean_hit_cycles(&self) -> f64 {
        self.l2.stats().mean_hit_cycles()
    }

    /// Resets all statistics, keeping cache contents (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.instructions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets)
    }

    #[test]
    fn l1_hit_is_two_cycles() {
        let mut h = hierarchy();
        h.data_access(0x1000, false); // warm
        let a = h.data_access(0x1000, false);
        assert_eq!(a.level, 1);
        assert_eq!(a.cycles, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        h.data_access(0x1000, false);
        // Evict from L1 by filling its set (stride = sets*line = 16 KB).
        h.data_access(0x1000 + 16 * 1024, false);
        h.data_access(0x1000 + 32 * 1024, false);
        let a = h.data_access(0x1000, false);
        assert_eq!(a.level, 2);
        assert!(
            a.cycles > 2 && a.cycles < 40,
            "L2 hit ~2+18 cycles: {}",
            a.cycles
        );
    }

    #[test]
    fn memory_miss_costs_300_plus() {
        let mut h = hierarchy();
        let a = h.data_access(0x7000_0000, false);
        assert_eq!(a.level, 3);
        assert!(a.cycles >= 300, "memory access {}", a.cycles);
    }

    #[test]
    fn fetch_hits_are_free_after_warmup() {
        let mut h = hierarchy();
        assert!(h.fetch(0x40_0000) > 0, "cold I-fetch stalls");
        assert_eq!(h.fetch(0x40_0000), 0, "warm I-fetch");
    }

    #[test]
    fn misses_per_10k_metric() {
        let mut h = hierarchy();
        // Generate exactly 2 L2 misses over 20 000 "instructions".
        h.data_access(0x7000_0000, false);
        h.data_access(0x7100_0000, false);
        h.add_instructions(20_000);
        assert!((h.stats().l2_misses_per_10k() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_keeps_contents() {
        let mut h = hierarchy();
        h.data_access(0x1000, false);
        h.reset_stats();
        assert_eq!(h.stats().l1d.accesses, 0);
        let a = h.data_access(0x1000, false);
        assert_eq!(a.level, 1, "contents survive stat reset");
    }

    #[test]
    fn instruction_and_data_paths_are_separate() {
        let mut h = hierarchy();
        h.fetch(0x40_0000);
        // The same address via the data path still misses L1D.
        let a = h.data_access(0x40_0000, false);
        assert_ne!(a.level, 1, "L1I fill must not populate L1D");
    }
}
