//! Transient-fault injection (paper §2 fault model).
//!
//! The system must detect any single transient fault in the datapath and
//! recover from it provided the ECC-protected structures (D-cache, LVQ,
//! load-value buses, trailer register file) hold. Faults are injected as
//! single-bit flips at the sites below; ECC-protected sites correct the
//! flip (and count it) instead of propagating it.

use rmt3d_cpu::CommittedOp;
use rmt3d_workload::SplitMix64;

/// Where a transient fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The leading core's computed result (datapath upset before the
    /// value enters the RVQ).
    LeaderResult,
    /// An operand value in the RVQ payload (the RVQ itself is
    /// unprotected by design: disagreements are caught by checking).
    RvqOperand,
    /// A load value in the LVQ (ECC-protected per §2).
    LvqValue,
    /// A branch outcome in the BOQ (unprotected: outcomes are hints
    /// confirmed by the trailing pipeline).
    BoqOutcome,
    /// The trailer's register file (ECC-protected per §2; without ECC,
    /// recovery may be impossible).
    TrailerRegfile,
}

impl FaultSite {
    /// All sites.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::LeaderResult,
        FaultSite::RvqOperand,
        FaultSite::LvqValue,
        FaultSite::BoqOutcome,
        FaultSite::TrailerRegfile,
    ];

    /// Stable snake_case label used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::LeaderResult => "leader_result",
            FaultSite::RvqOperand => "rvq_operand",
            FaultSite::LvqValue => "lvq_value",
            FaultSite::BoqOutcome => "boq_outcome",
            FaultSite::TrailerRegfile => "trailer_regfile",
        }
    }

    /// Parses a [`FaultSite::name`] label back to the site.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized label.
    pub fn parse(label: &str) -> Result<FaultSite, String> {
        FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == label)
            .ok_or_else(|| format!("unknown fault site '{label}'"))
    }

    /// True when `item` is a payload a fault at this site can strike:
    /// the flip must be able to reach an architectural comparison.
    /// `TrailerRegfile` strikes hit core state, not payloads, so this is
    /// always false for it.
    pub fn can_strike(self, item: &CommittedOp) -> bool {
        match self {
            FaultSite::LeaderResult => item.op.dest.is_some(),
            FaultSite::RvqOperand => item.op.src1_reg.is_some(),
            FaultSite::LvqValue => item.load_value().is_some(),
            FaultSite::BoqOutcome => item.op.branch().is_some(),
            FaultSite::TrailerRegfile => false,
        }
    }
}

/// Result of a directed single-fault injection attempt
/// ([`crate::RmtSystem::inject_directed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectedOutcome {
    /// ECC absorbed the strike before it could propagate (counted, no
    /// state touched — single-bit faults are always correctable).
    CorrectedByEcc,
    /// The fault was applied to an in-flight payload or to the trailer
    /// register file.
    Applied,
    /// No suitable target was in flight this cycle; the caller may step
    /// the system and retry.
    NoTarget,
}

/// Which structures carry ECC (paper §2 requirements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccConfig {
    /// LVQ + load-value buses + D-cache.
    pub lvq: bool,
    /// Trailer register file.
    pub trailer_regfile: bool,
}

impl EccConfig {
    /// The paper's protection set: both on.
    pub fn paper() -> EccConfig {
        EccConfig {
            lvq: true,
            trailer_regfile: true,
        }
    }

    /// No protection anywhere (for the ablation showing why the paper
    /// requires ECC for recovery).
    pub fn none() -> EccConfig {
        EccConfig {
            lvq: false,
            trailer_regfile: false,
        }
    }

    /// True when a fault at `site` is corrected by ECC before it can
    /// propagate. Single-bit model: ECC always corrects.
    pub fn corrects(&self, site: FaultSite) -> bool {
        match site {
            FaultSite::LvqValue => self.lvq,
            FaultSite::TrailerRegfile => self.trailer_regfile,
            _ => false,
        }
    }
}

impl Default for EccConfig {
    fn default() -> EccConfig {
        EccConfig::paper()
    }
}

/// Outcome of one injected fault, as classified by the detection logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultFate {
    /// Corrected in place by ECC; invisible to execution.
    CorrectedByEcc,
    /// Detected by the checker and recovered (trailer state intact).
    DetectedRecovered,
    /// Detected, but the trailer's recovery state was itself corrupt —
    /// detected-unrecoverable (the §3.5 multi-error concern).
    DetectedUnrecoverable,
    /// Masked: the flipped bit never influenced an architectural
    /// comparison (e.g. a BOQ hint that only cost a pipeline bubble, or
    /// a value overwritten before use).
    Masked,
}

/// Poisson-ish fault injector: each committed instruction is struck with
/// probability `rate` at a uniformly chosen site.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
    /// Faults per committed instruction.
    rate: f64,
    ecc: EccConfig,
    injected: u64,
    corrected: u64,
}

/// A fault drawn for a specific instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawnFault {
    /// Strike location.
    pub site: FaultSite,
    /// Bit position flipped (0..64).
    pub bit: u8,
    /// For regfile strikes: the register index.
    pub reg: u8,
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn new(seed: u64, rate: f64, ecc: EccConfig) -> FaultInjector {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultInjector {
            rng: SplitMix64::new(seed),
            rate,
            ecc,
            injected: 0,
            corrected: 0,
        }
    }

    /// The ECC configuration in force.
    pub fn ecc(&self) -> EccConfig {
        self.ecc
    }

    /// Total faults drawn (including ECC-corrected ones).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Faults absorbed by ECC.
    pub fn corrected(&self) -> u64 {
        self.corrected
    }

    /// Rolls for a fault on one instruction. Returns the drawn fault if
    /// one should be applied to the datapath (ECC-corrected strikes are
    /// counted and return `None`).
    pub fn draw(&mut self) -> Option<DrawnFault> {
        self.draw_event()
            .and_then(|(fault, corrected)| (!corrected).then_some(fault))
    }

    /// Like [`FaultInjector::draw`], but also reports ECC-corrected
    /// strikes (as `(fault, true)`) so telemetry can log every strike.
    /// Corrected strikes carry dummy `bit`/`reg` values: no extra
    /// randomness is consumed for them, which keeps the RNG stream — and
    /// therefore seed-determinism — identical to [`FaultInjector::draw`].
    pub fn draw_event(&mut self) -> Option<(DrawnFault, bool)> {
        if self.rate == 0.0 || self.rng.next_f64() >= self.rate {
            return None;
        }
        self.injected += 1;
        let site = FaultSite::ALL[self.rng.below_usize(FaultSite::ALL.len())];
        if self.ecc.corrects(site) {
            self.corrected += 1;
            return Some((
                DrawnFault {
                    site,
                    bit: 0,
                    reg: 0,
                },
                true,
            ));
        }
        Some((
            DrawnFault {
                site,
                bit: self.rng.below(64) as u8,
                reg: self.rng.range_u64(1, 32) as u8,
            },
            false,
        ))
    }

    /// Applies a drawn fault to an in-transit committed op (the
    /// leader-side and queue-payload sites). Returns `true` when the op
    /// was mutated; `TrailerRegfile` faults must be applied to the core
    /// instead.
    pub fn apply_to_payload(fault: DrawnFault, item: &mut CommittedOp) -> bool {
        let mask = 1u64 << fault.bit;
        match fault.site {
            FaultSite::LeaderResult => {
                item.result ^= mask;
                true
            }
            FaultSite::RvqOperand => {
                item.src1_value ^= mask;
                true
            }
            FaultSite::LvqValue => {
                if item.load_value().is_some() {
                    // The trailer's load "result" is the LVQ value, so the
                    // leader-recorded result must stay what the leader
                    // wrote — only the queued copy is corrupted.
                    item.mem_value ^= mask;
                    true
                } else {
                    false
                }
            }
            FaultSite::BoqOutcome => {
                if item.op.branch().is_some() {
                    item.op.flip_branch_taken();
                    true
                } else {
                    false
                }
            }
            FaultSite::TrailerRegfile => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let mut f = FaultInjector::new(1, 0.0, EccConfig::paper());
        for _ in 0..10_000 {
            assert!(f.draw().is_none());
        }
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn rate_one_always_fires_or_corrects() {
        let mut f = FaultInjector::new(2, 1.0, EccConfig::paper());
        let mut applied = 0;
        for _ in 0..1000 {
            if f.draw().is_some() {
                applied += 1;
            }
        }
        assert_eq!(f.injected(), 1000);
        // 2 of 5 sites are ECC-protected under the paper config.
        assert!(
            f.corrected() > 250 && f.corrected() < 550,
            "{}",
            f.corrected()
        );
        assert_eq!(applied as u64 + f.corrected(), 1000);
    }

    #[test]
    fn ecc_none_never_corrects() {
        let mut f = FaultInjector::new(3, 1.0, EccConfig::none());
        for _ in 0..500 {
            f.draw();
        }
        assert_eq!(f.corrected(), 0);
    }

    #[test]
    fn ecc_coverage_matches_paper() {
        let ecc = EccConfig::paper();
        assert!(ecc.corrects(FaultSite::LvqValue));
        assert!(ecc.corrects(FaultSite::TrailerRegfile));
        assert!(!ecc.corrects(FaultSite::LeaderResult));
        assert!(!ecc.corrects(FaultSite::RvqOperand));
        assert!(!ecc.corrects(FaultSite::BoqOutcome), "BOQ is hints-only");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_rate_panics() {
        let _ = FaultInjector::new(0, 1.5, EccConfig::paper());
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let collect = |seed| {
            let mut f = FaultInjector::new(seed, 0.5, EccConfig::none());
            (0..100).map(|_| f.draw()).collect::<Vec<_>>()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }
}
