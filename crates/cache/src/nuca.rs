//! Banked NUCA L2 cache with grid-network access latencies.

use crate::config::{CacheConfig, NucaLayout, NucaPolicy};
use crate::set_assoc::SetAssocCache;

/// Lines per 1 MB bank (64 B lines).
const LINES_PER_BANK: u64 = (1024 * 1024) / 64;

/// Result of one NUCA access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NucaAccess {
    /// Whether the block was found in the L2.
    pub hit: bool,
    /// L2-side latency in cycles (controller + network + bank + central
    /// tag where applicable). Memory latency on a miss is *not* included;
    /// the hierarchy adds it.
    pub cycles: u32,
    /// Bank that serviced (or allocated) the block.
    pub bank: usize,
}

/// Aggregate NUCA statistics for performance and power accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct NucaStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Per-bank access counts (for per-bank power/thermal maps).
    pub bank_accesses: Vec<u64>,
    /// Total router/link hops traversed (for NoC power).
    pub total_hops: u64,
    /// Central tag-array lookups (distributed-ways only).
    pub tag_lookups: u64,
    /// Sum of hit latencies (for mean hit latency).
    pub hit_cycles_sum: u64,
    /// Block migrations performed (distributed-ways only).
    pub migrations: u64,
}

impl NucaStats {
    fn new(banks: usize) -> NucaStats {
        NucaStats {
            accesses: 0,
            hits: 0,
            misses: 0,
            bank_accesses: vec![0; banks],
            total_hops: 0,
            tag_lookups: 0,
            hit_cycles_sum: 0,
            migrations: 0,
        }
    }

    /// Mean latency of hits in cycles.
    pub fn mean_hit_cycles(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.hit_cycles_sum as f64 / self.hits as f64
        }
    }

    /// Miss ratio.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Central tag entry for the distributed-ways policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WayEntry {
    tag: u64,
    bank: u16,
    valid: bool,
}

/// The paper's NUCA L2: 1 MB banks on a grid, reached from the L2
/// controller at 4 cycles/hop.
///
/// Two placement policies (§3.1):
///
/// * [`NucaPolicy::DistributedSets`]: an address maps to one bank
///   (uniform bank load). Within a bank we model an 8-way 1 MB array — a
///   power-of-two-friendly stand-in for the paper's `capacity/1 MB`-way
///   global associativity; at these sizes the within-bank associativity
///   has negligible effect on miss rate.
/// * [`NucaPolicy::DistributedWays`]: one way of every set per bank, a
///   centralized tag array consulted first, and hit-triggered migration
///   toward banks closer to the controller.
#[derive(Debug, Clone)]
pub struct NucaCache {
    layout: NucaLayout,
    policy: NucaPolicy,
    /// Data banks (tag-only models; used for the sets policy).
    banks: Vec<SetAssocCache>,
    /// Central tags for the ways policy: `sets x nbanks`, LRU first.
    central: Vec<Vec<WayEntry>>,
    /// Extra cycles for the central tag lookup.
    tag_cycles: u32,
    stats: NucaStats,
}

impl NucaCache {
    /// Creates an empty NUCA cache for a layout and policy.
    pub fn new(layout: NucaLayout, policy: NucaPolicy) -> NucaCache {
        let n = layout.bank_count();
        let banks = (0..n)
            .map(|_| SetAssocCache::new(CacheConfig::l2_bank_1mb(8, layout.bank_cycles)))
            .collect();
        let central = match policy {
            NucaPolicy::DistributedSets => Vec::new(),
            NucaPolicy::DistributedWays => {
                let entry = WayEntry {
                    tag: 0,
                    bank: 0,
                    valid: false,
                };
                (0..LINES_PER_BANK)
                    .map(|_| {
                        (0..n)
                            .map(|b| WayEntry {
                                bank: b as u16,
                                ..entry
                            })
                            .collect()
                    })
                    .collect()
            }
        };
        NucaCache {
            stats: NucaStats::new(n),
            layout,
            policy,
            banks,
            central,
            tag_cycles: 2,
        }
    }

    /// The bank layout.
    pub fn layout(&self) -> &NucaLayout {
        &self.layout
    }

    /// The placement policy.
    pub fn policy(&self) -> NucaPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NucaStats {
        &self.stats
    }

    /// Resets statistics, keeping contents (for post-warm-up measurement).
    pub fn reset_stats(&mut self) {
        self.stats = NucaStats::new(self.layout.bank_count());
    }

    /// Accesses a physical address.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> NucaAccess {
        self.stats.accesses += 1;
        let r = match self.policy {
            NucaPolicy::DistributedSets => self.access_sets(addr, write),
            NucaPolicy::DistributedWays => self.access_ways(addr),
        };
        self.stats.bank_accesses[r.bank] += 1;
        self.stats.total_hops += self.layout.hops_to(r.bank) as u64;
        if r.hit {
            self.stats.hits += 1;
            self.stats.hit_cycles_sum += r.cycles as u64;
        } else {
            self.stats.misses += 1;
        }
        r
    }

    #[inline]
    fn access_sets(&mut self, addr: u64, write: bool) -> NucaAccess {
        let line = addr / 64;
        let n = self.layout.bank_count() as u64;
        let bank = (line % n) as usize;
        // Index the bank with the bank-local line number: using the raw
        // line for both bank selection (mod n) and set indexing (mod
        // sets) would alias whenever gcd(n, sets) > 1, wasting sets.
        let local_addr = (line / n) * 64 + (addr % 64);
        let hit = self.banks[bank].access(local_addr, write);
        NucaAccess {
            hit,
            cycles: self.layout.access_cycles(bank),
            bank,
        }
    }

    #[inline]
    fn access_ways(&mut self, addr: u64) -> NucaAccess {
        self.stats.tag_lookups += 1;
        let line = addr / 64;
        let set = (line % LINES_PER_BANK) as usize;
        let tag = line / LINES_PER_BANK;
        let ways = &mut self.central[set];

        if let Some(pos) = ways.iter().position(|w| w.valid && w.tag == tag) {
            let bank = ways[pos].bank as usize;
            // Migration: if a less-recently-used way sits in a strictly
            // closer bank, swap bank assignments (gradual migration of
            // hot blocks toward the controller, §3.3).
            let my_cost = self.layout.access_cycles(bank);
            let mut migrated_bank = bank;
            if let Some(victim) = (pos + 1..ways.len())
                .find(|&j| self.layout.access_cycles(ways[j].bank as usize) < my_cost)
            {
                let b = ways[victim].bank;
                ways[victim].bank = ways[pos].bank;
                ways[pos].bank = b;
                migrated_bank = b as usize;
                self.stats.migrations += 1;
            }
            // Move to MRU.
            ways[..=pos].rotate_right(1);
            NucaAccess {
                hit: true,
                cycles: self.tag_cycles + self.layout.access_cycles(bank),
                bank: migrated_bank,
            }
        } else {
            // Miss: evict LRU way, reuse its bank for the new block.
            let last = ways.len() - 1;
            let bank = ways[last].bank as usize;
            ways[last] = WayEntry {
                tag,
                bank: bank as u16,
                valid: true,
            };
            ways.rotate_right(1);
            NucaAccess {
                hit: false,
                cycles: self.tag_cycles + self.layout.access_cycles(bank),
                bank,
            }
        }
    }

    /// Fraction of total capacity currently valid.
    pub fn occupancy(&self) -> f64 {
        match self.policy {
            NucaPolicy::DistributedSets => {
                self.banks.iter().map(|b| b.occupancy()).sum::<f64>() / self.banks.len() as f64
            }
            NucaPolicy::DistributedWays => {
                let valid: usize = self
                    .central
                    .iter()
                    .map(|s| s.iter().filter(|w| w.valid).count())
                    .sum();
                valid as f64 / (self.central.len() * self.layout.bank_count()) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_policy_miss_then_hit() {
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets);
        let a = c.access(0x4000_0000, false);
        assert!(!a.hit);
        let b = c.access(0x4000_0000, false);
        assert!(b.hit);
        assert_eq!(a.bank, b.bank, "sets policy pins an address to a bank");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn ways_policy_miss_then_hit() {
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedWays);
        assert!(!c.access(0x4000_0000, false).hit);
        assert!(c.access(0x4000_0000, false).hit);
        assert_eq!(c.stats().tag_lookups, 2);
    }

    #[test]
    fn ways_policy_migrates_hot_blocks_closer() {
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedWays);
        let addr = 0x4000_0000u64;
        c.access(addr, false);
        // Repeated hits migrate the block to the closest bank.
        let mut last_bank = usize::MAX;
        for _ in 0..8 {
            last_bank = c.access(addr, false).bank;
        }
        let closest = (0..c.layout().bank_count())
            .min_by_key(|&i| c.layout().access_cycles(i))
            .unwrap();
        assert_eq!(
            c.layout().access_cycles(last_bank),
            c.layout().access_cycles(closest),
            "hot block should end up at the cheapest bank"
        );
        assert!(c.stats().migrations > 0);
    }

    #[test]
    fn ways_policy_is_faster_on_skewed_reuse() {
        // With a small hot set, migration should beat the static set
        // interleaving (paper: distributed-way < 2% better overall).
        let mut sets = NucaCache::new(NucaLayout::two_d_2a(), NucaPolicy::DistributedSets);
        let mut ways = NucaCache::new(NucaLayout::two_d_2a(), NucaPolicy::DistributedWays);
        for rep in 0..200 {
            for i in 0..64u64 {
                let addr = 0x4000_0000 + i * 64;
                sets.access(addr, false);
                ways.access(addr, false);
                let _ = rep;
            }
        }
        assert!(ways.stats().mean_hit_cycles() < sets.stats().mean_hit_cycles());
    }

    #[test]
    fn capacity_eviction_under_sets_policy() {
        // Touch 2x the 6 MB capacity; early lines must be evicted.
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets);
        let lines = 2 * 6 * 1024 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        c.reset_stats();
        let r = c.access(0, false);
        assert!(!r.hit, "oldest line must have been evicted");
    }

    #[test]
    fn ways_policy_respects_total_capacity() {
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedWays);
        // Fill exactly the capacity: 6 ways x LINES_PER_BANK sets.
        for w in 0..6u64 {
            for s in 0..LINES_PER_BANK {
                c.access((w * LINES_PER_BANK + s) * 64, false);
            }
        }
        assert!((c.occupancy() - 1.0).abs() < 1e-9);
        c.reset_stats();
        // Everything still fits.
        for w in 0..6u64 {
            for s in 0..100 {
                assert!(c.access((w * LINES_PER_BANK + s) * 64, false).hit);
            }
        }
        // One more way's worth starts evicting.
        let evicting = c.access(6 * LINES_PER_BANK * 64, false);
        assert!(!evicting.hit);
    }

    #[test]
    fn hop_accounting() {
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets);
        c.access(0, false);
        // Address 0 maps to bank 0 under distributed sets.
        let bank = 0usize;
        assert_eq!(c.stats().total_hops, c.layout().hops_to(bank) as u64);
        assert_eq!(c.stats().bank_accesses[bank], 1);
    }

    #[test]
    fn mean_hit_latency_tracks_layout_mean() {
        // Uniform traffic under distributed sets -> mean hit latency ~=
        // layout mean access latency.
        let mut c = NucaCache::new(NucaLayout::two_d_a(), NucaPolicy::DistributedSets);
        for i in 0..60_000u64 {
            c.access((i % 30_000) * 64, false);
        }
        let measured = c.stats().mean_hit_cycles();
        let expected = c.layout().mean_access_cycles();
        assert!(
            (measured - expected).abs() < 1.0,
            "measured {measured} vs layout {expected}"
        );
    }
}
