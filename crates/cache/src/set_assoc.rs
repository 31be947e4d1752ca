//! Line-granular set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

/// Hit/miss counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses caused by writes.
    pub write_misses: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with LRU replacement and write-allocate
/// policy, tracking tags only (the simulator carries values elsewhere).
///
/// # Examples
///
/// ```
/// use rmt3d_cache::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2, 64, 1).unwrap());
/// assert!(!c.access(0, false));
/// assert!(c.access(0, false));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Tag storage: `sets x ways`, most-recently-used first within each
    /// set. `u64::MAX` marks an invalid way.
    tags: Vec<u64>,
    /// `log2(line_bytes)`: address bits below the set index.
    line_shift: u32,
    /// `log2(sets)`: width of the set index.
    set_bits: u32,
    stats: CacheStats,
}

/// Sentinel for an empty way.
const INVALID: u64 = u64::MAX;

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size or set count is not a power of two
    /// ([`CacheConfig::new`] rejects such geometries).
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let sets = config.sets();
        assert!(
            config.line_bytes.is_power_of_two() && sets.is_power_of_two(),
            "cache geometry must be a power of two: {config}"
        );
        SetAssocCache {
            config,
            tags: vec![INVALID; sets as usize * config.ways as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// [`CacheConfig::index_tag`] by shift and mask: the geometry is a
    /// power of two, so the hot path needs no division.
    #[inline]
    fn index_tag(&self, addr: u64) -> (u64, u64) {
        let line = addr >> self.line_shift;
        (line & ((1 << self.set_bits) - 1), line >> self.set_bits)
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept — useful after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate the line
    /// (write-allocate for stores).
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.index_tag(addr);
        let ways = self.config.ways as usize;
        let base = set as usize * ways;
        let slot = &mut self.tags[base..base + ways];
        self.stats.accesses += 1;

        if let Some(pos) = slot.iter().position(|&t| t == tag) {
            // Move to MRU position.
            slot[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            // Evict LRU (last), insert at MRU.
            slot.rotate_right(1);
            slot[0] = tag;
            self.stats.misses += 1;
            if write {
                self.stats.write_misses += 1;
            }
            false
        }
    }

    /// Installs the `count` consecutive lines from line number `first`
    /// (an address shifted right by `log2(line_bytes)`), leaving exactly
    /// the contents that accessing those lines one at a time, in
    /// ascending order, would leave. Statistics are left untouched.
    ///
    /// Lines of one set lie `sets` apart, so a run's lines in a set have
    /// consecutive tags. Each set the run touches ends up holding the
    /// run's last `min(m, ways)` lines there (`m` lines fell in the set),
    /// most recently used first, followed by its old entries whose tags
    /// the run did not touch, in their old order: the true-LRU stack
    /// after the walk, cut to `ways`.
    pub fn install_run(&mut self, first: u64, count: u64) {
        let ways = self.config.ways as usize;
        let sets = 1u64 << self.set_bits;
        let last = first + count;
        for line in first..last.min(first + sets) {
            let in_set = (last - 1 - line) / sets + 1;
            let lo = line >> self.set_bits;
            let hi = lo + in_set - 1;
            let base = (line & (sets - 1)) as usize * ways;
            let slot = &mut self.tags[base..base + ways];
            // Compact the untouched entries to the front, in order. At
            // most `fresh` entries are touched, so at least `ways -
            // fresh` survive to be shifted behind the run's lines.
            let mut kept = 0;
            for i in 0..ways {
                let t = slot[i];
                if t < lo || t > hi {
                    slot[kept] = t;
                    kept += 1;
                }
            }
            let fresh = (in_set as usize).min(ways);
            debug_assert!(kept + fresh >= ways);
            slot.copy_within(0..ways - fresh, fresh);
            for (tag, s) in (0..fresh as u64).map(|j| hi - j).zip(&mut slot[..fresh]) {
                *s = tag;
            }
        }
    }

    /// Probes without updating LRU or statistics; returns `true` when the
    /// line is resident.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        let ways = self.config.ways as usize;
        let base = set as usize * ways;
        self.tags[base..base + ways].contains(&tag)
    }

    /// Invalidates a line if present; returns whether it was resident.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        let ways = self.config.ways as usize;
        let base = set as usize * ways;
        let slot = &mut self.tags[base..base + ways];
        if let Some(pos) = slot.iter().position(|&t| t == tag) {
            // Shift the invalidated entry to LRU and clear it.
            slot[pos..].rotate_left(1);
            slot[ways - 1] = INVALID;
            true
        } else {
            false
        }
    }

    /// Fraction of ways currently valid (occupancy).
    pub fn occupancy(&self) -> f64 {
        let valid = self.tags.iter().filter(|&&t| t != INVALID).count();
        valid as f64 / self.tags.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64, 1).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false), "same line");
        assert!(!c.access(64, false), "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 in a 2-way cache: stride = sets*line = 256.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch 0: now 256 is LRU
        c.access(512, false); // evicts 256
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn write_miss_counted_and_allocated() {
        let mut c = small();
        assert!(!c.access(128, true));
        assert_eq!(c.stats().write_misses, 1);
        assert!(c.access(128, false), "write-allocate");
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0, false);
        c.access(256, false);
        // Probing 256 must not refresh its LRU position.
        assert!(c.probe(256));
        c.access(0, false);
        c.access(512, false); // should evict 256 (LRU), not 0
        assert!(c.probe(0));
        assert!(!c.probe(256));
        let s = c.stats();
        assert_eq!(s.accesses, 4, "probes are not accesses");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0, false);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0), "second invalidate is a no-op");
        // The freed way is reused before evicting the other way.
        c.access(256, false);
        c.access(512, false);
        assert!(c.probe(256) && c.probe(512));
    }

    #[test]
    fn occupancy_grows_to_full() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0.0);
        for i in 0..8 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 1.0);
    }

    #[test]
    fn uniform_working_set_miss_rates() {
        // A working set twice the cache size gives ~50% hit rate under
        // uniform random access; within the cache size it gives ~100%.
        let mut c = SetAssocCache::new(CacheConfig::new(32 * 1024, 2, 64, 1).unwrap());
        let mut x = 12345u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200_000 {
            let addr = (rng() % (16 * 1024 / 64)) * 64;
            c.access(addr, false);
        }
        assert!(c.stats().miss_rate() < 0.01, "16K set in 32K cache");
        c.reset_stats();
        for _ in 0..200_000 {
            let addr = (rng() % (64 * 1024 / 64)) * 64;
            c.access(addr, false);
        }
        let mr = c.stats().miss_rate();
        assert!(mr > 0.3 && mr < 0.7, "64K set in 32K cache: {mr}");
    }

    #[test]
    fn shift_mask_index_matches_index_tag() {
        use crate::NucaLayout;
        let mut geometries = vec![CacheConfig::l1_32k_2way()];
        for layout in [
            NucaLayout::two_d_a(),
            NucaLayout::two_d_2a(),
            NucaLayout::three_d_2a(),
            NucaLayout::three_d_hetero_90nm(),
        ] {
            geometries.push(CacheConfig::l2_bank_1mb(8, layout.bank_cycles));
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for config in geometries {
            let c = SetAssocCache::new(config);
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(c.index_tag(x), config.index_tag(x), "{config} at {x:#x}");
            }
            assert_eq!(c.index_tag(u64::MAX), config.index_tag(u64::MAX));
        }
    }

    #[test]
    fn run_installer_equals_the_line_walk() {
        use rmt3d_workload::SplitMix64;
        let mut rng = SplitMix64::new(0x5eed_cafe);
        // 8 sets x 4 ways, so short runs stay inside a set's tag range
        // and long ones wrap every set several times.
        let config = CacheConfig::new(2048, 4, 64, 1).unwrap();
        for case in 0..2_000 {
            let mut walk = SetAssocCache::new(config);
            // Random prior contents over a small line space, so runs
            // often hit resident lines; some invalidated ways too.
            for _ in 0..rng.below(80) {
                let line = rng.below(96);
                if rng.below(8) == 0 {
                    walk.invalidate(line * 64);
                } else {
                    walk.access(line * 64, rng.below(2) == 0);
                }
            }
            walk.reset_stats();
            let mut installed = walk.clone();
            let first = rng.below(96);
            // Up to 3x the cache's 32 lines, and sometimes empty.
            let count = rng.below(100);
            for line in first..first + count {
                walk.access(line * 64, false);
            }
            installed.install_run(first, count);
            assert_eq!(
                installed.tags, walk.tags,
                "case {case}: run of {count} from line {first}"
            );
            assert_eq!(installed.stats(), CacheStats::default());
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0, false), "contents survive reset");
    }
}
