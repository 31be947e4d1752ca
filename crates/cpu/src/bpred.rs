//! Combined bimodal / 2-level branch predictor (paper Table 1).
//!
//! The leading core uses a per-core combined predictor: a 16384-entry
//! bimodal table, a 2-level predictor with a 16384-entry level-1 history
//! table (12 bits of history) indexing a 16384-entry level-2 pattern
//! table, and a 16384-entry chooser. The trailing core needs no predictor
//! at all: branch outcomes arrive through the BOQ (Fig. 1).

/// 2-bit saturating counter helpers.
#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        if *counter < 3 {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

#[inline]
fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// Combined bimodal + 2-level predictor with a chooser.
#[derive(Debug, Clone)]
pub struct CombinedPredictor {
    bimodal: Vec<u8>,
    /// Level 1: per-branch history registers.
    history: Vec<u16>,
    history_bits: u32,
    /// Level 2: pattern table of 2-bit counters.
    pattern: Vec<u8>,
    /// Chooser: 2-bit counters, high = trust the 2-level side.
    chooser: Vec<u8>,
    lookups: u64,
    mispredicts: u64,
}

impl CombinedPredictor {
    /// Builds the Table 1 predictor: 16K-entry tables, 12-bit history.
    pub fn table1() -> CombinedPredictor {
        CombinedPredictor::new(16384, 16384, 12, 16384)
    }

    /// Builds a predictor with the given table sizes.
    ///
    /// # Panics
    ///
    /// Panics if a table size is zero or not a power of two, or history
    /// bits exceed 16.
    pub fn new(
        bimodal_entries: usize,
        l1_entries: usize,
        history_bits: u32,
        l2_entries: usize,
    ) -> CombinedPredictor {
        for n in [bimodal_entries, l1_entries, l2_entries] {
            assert!(
                n > 0 && n.is_power_of_two(),
                "table sizes must be powers of two"
            );
        }
        assert!(history_bits <= 16, "history register is 16 bits wide");
        CombinedPredictor {
            bimodal: vec![2; bimodal_entries], // weakly taken
            history: vec![0; l1_entries],
            history_bits,
            pattern: vec![2; l2_entries],
            chooser: vec![2; bimodal_entries],
            lookups: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bimodal.len() - 1)
    }

    #[inline]
    fn l1_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.history.len() - 1)
    }

    #[inline]
    fn pattern_index(&self, pc: u64, hist: u16) -> usize {
        // Gshare-style hash of history and PC into the pattern table.
        (((pc >> 2) as usize) ^ (hist as usize)) & (self.pattern.len() - 1)
    }

    /// Predicts `pc`, then updates all tables with the actual outcome.
    /// Returns the prediction made *before* the update.
    #[inline]
    pub fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        self.lookups += 1;
        let bi = self.bimodal_index(pc);
        let l1 = self.l1_index(pc);
        let hist = self.history[l1] & ((1 << self.history_bits) - 1);
        let pt = self.pattern_index(pc, hist);

        let bimodal_pred = predicts_taken(self.bimodal[bi]);
        let twolevel_pred = predicts_taken(self.pattern[pt]);
        let use_twolevel = predicts_taken(self.chooser[bi]);
        let pred = if use_twolevel {
            twolevel_pred
        } else {
            bimodal_pred
        };

        // Train: chooser moves toward whichever component was right
        // (when they disagree).
        if bimodal_pred != twolevel_pred {
            bump(&mut self.chooser[bi], twolevel_pred == taken);
        }
        bump(&mut self.bimodal[bi], taken);
        bump(&mut self.pattern[pt], taken);
        self.history[l1] = (hist << 1) | taken as u16;

        if pred != taken {
            self.mispredicts += 1;
        }
        pred
    }

    /// Total predictions made.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction rate (0 when never used).
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }

    /// Resets statistics, keeping learned state.
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.mispredicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = CombinedPredictor::table1();
        for _ in 0..64 {
            p.predict_and_train(0x400_000, true);
        }
        p.reset_stats();
        for _ in 0..1000 {
            p.predict_and_train(0x400_000, true);
        }
        assert_eq!(p.mispredicts(), 0);
    }

    #[test]
    fn learns_periodic_pattern_via_history() {
        // Period-4 pattern TTTN is hopeless for bimodal (75% taken) but
        // perfectly learnable with 12 bits of history.
        let mut p = CombinedPredictor::table1();
        let pattern = [true, true, true, false];
        for i in 0..4000usize {
            p.predict_and_train(0x400_100, pattern[i % 4]);
        }
        p.reset_stats();
        for i in 0..4000usize {
            p.predict_and_train(0x400_100, pattern[i % 4]);
        }
        assert!(
            p.mispredict_rate() < 0.01,
            "2-level should nail a periodic pattern, got {}",
            p.mispredict_rate()
        );
    }

    #[test]
    fn random_branches_mispredict_about_half() {
        let mut p = CombinedPredictor::table1();
        let mut x = 9u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        };
        for _ in 0..20_000 {
            p.predict_and_train(0x400_200, rng());
        }
        let r = p.mispredict_rate();
        assert!(r > 0.4 && r < 0.6, "random branch rate {r}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_much() {
        let mut p = CombinedPredictor::table1();
        for i in 0..256u64 {
            // Alternate biases across sites.
            for _ in 0..100 {
                p.predict_and_train(0x400_000 + i * 16, i % 2 == 0);
            }
        }
        p.reset_stats();
        for i in 0..256u64 {
            for _ in 0..100 {
                p.predict_and_train(0x400_000 + i * 16, i % 2 == 0);
            }
        }
        assert!(p.mispredict_rate() < 0.02);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_non_power_of_two() {
        let _ = CombinedPredictor::new(1000, 16384, 12, 16384);
    }

    #[test]
    fn counter_saturation() {
        let mut c = 3u8;
        bump(&mut c, true);
        assert_eq!(c, 3);
        let mut c = 0u8;
        bump(&mut c, false);
        assert_eq!(c, 0);
    }
}
