//! One fault-injection trial: start from a shared fault-free
//! checkpoint of the RMT system, run to the injection point, strike,
//! and classify the outcome against the paper's coverage invariant and
//! a differential oracle.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CoreConfig, OooCore, ReferenceExecutor};
use rmt3d_rmt::{DirectedOutcome, DrawnFault, EccConfig, FaultSite, RmtConfig, RmtSystem};
use rmt3d_workload::{Benchmark, TraceGenerator};
use std::sync::OnceLock;

/// A fully-determined single-fault experiment. Two runs of the same
/// spec produce bit-identical [`TrialResult`]s, which is what lets the
/// campaign run in parallel, the shrinker re-execute candidates, and a
/// fixture replay a failure years later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Position in the campaign grid (0 for ad-hoc/shrunk trials).
    pub index: usize,
    /// Strike site.
    pub site: FaultSite,
    /// Workload driving the leader.
    pub benchmark: Benchmark,
    /// ECC protection in force (the sabotage knob disables one site).
    pub ecc: EccConfig,
    /// Leader commits before the final drain.
    pub instructions: u64,
    /// Committed-instruction count at which the fault strikes.
    pub inject_at: u64,
    /// Bit position flipped.
    pub bit: u8,
    /// Register index (trailer-regfile strikes only).
    pub reg: u8,
}

impl TrialSpec {
    /// Human-readable label (`"leader_result/gzip@4000"`).
    pub fn label(&self) -> String {
        format!(
            "{}/{}@{}",
            self.site.name(),
            self.benchmark.name(),
            self.inject_at
        )
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the injection point falls outside the run
    /// or the bit/register indices are out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.inject_at == 0 || self.inject_at >= self.instructions {
            return Err(format!(
                "inject_at {} must be in 1..{}",
                self.inject_at, self.instructions
            ));
        }
        if self.bit >= 64 {
            return Err(format!("bit {} out of range", self.bit));
        }
        if self.reg == 0 || self.reg >= 64 {
            return Err(format!("reg {} must be in 1..64", self.reg));
        }
        Ok(())
    }
}

/// How a trial's fault played out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialFate {
    /// ECC absorbed the strike.
    CorrectedByEcc,
    /// The checker flagged the corruption and recovery restored clean
    /// state.
    DetectedRecovered,
    /// The flip never reached an architectural comparison and the final
    /// state is clean (BOQ hints).
    MaskedHarmless,
    /// No suitable target op ever appeared (grid bug, not a coverage
    /// result).
    NotInjected,
}

impl TrialFate {
    /// All fates.
    pub const ALL: [TrialFate; 4] = [
        TrialFate::CorrectedByEcc,
        TrialFate::DetectedRecovered,
        TrialFate::MaskedHarmless,
        TrialFate::NotInjected,
    ];

    /// Parses a [`TrialFate::name`] label.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized label.
    pub fn parse(label: &str) -> Result<TrialFate, String> {
        TrialFate::ALL
            .into_iter()
            .find(|f| f.name() == label)
            .ok_or_else(|| format!("unknown fate '{label}'"))
    }

    /// Stable snake_case label for reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            TrialFate::CorrectedByEcc => "corrected_by_ecc",
            TrialFate::DetectedRecovered => "detected_recovered",
            TrialFate::MaskedHarmless => "masked_harmless",
            TrialFate::NotInjected => "not_injected",
        }
    }
}

/// A breach of the paper's coverage invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Architectural state diverged from the reference executor with no
    /// detection — corruption escaped to commit.
    SilentCorruption,
    /// The checker detected the fault but recovery restored corrupt
    /// state (the §3.5 multi-error concern).
    UnrecoverableRecovery,
    /// The site's faults must be detected, but this one was masked.
    MissedDetection,
    /// The site's faults must be invisible (corrected or masked), but
    /// the checker flagged one — a false positive costing a recovery.
    UnexpectedDetection,
    /// The injector never found a target op, so the trial proves
    /// nothing.
    TargetUnavailable,
}

impl Violation {
    /// All violation kinds.
    pub const ALL: [Violation; 5] = [
        Violation::SilentCorruption,
        Violation::UnrecoverableRecovery,
        Violation::MissedDetection,
        Violation::UnexpectedDetection,
        Violation::TargetUnavailable,
    ];

    /// Parses a [`Violation::name`] label.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized label.
    pub fn parse(label: &str) -> Result<Violation, String> {
        Violation::ALL
            .into_iter()
            .find(|v| v.name() == label)
            .ok_or_else(|| format!("unknown violation '{label}'"))
    }

    /// Stable snake_case label for reports and fixtures.
    pub fn name(self) -> &'static str {
        match self {
            Violation::SilentCorruption => "silent_corruption",
            Violation::UnrecoverableRecovery => "unrecoverable_recovery",
            Violation::MissedDetection => "missed_detection",
            Violation::UnexpectedDetection => "unexpected_detection",
            Violation::TargetUnavailable => "target_unavailable",
        }
    }
}

/// What the coverage invariant demands of a strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// ECC must absorb it.
    Corrected,
    /// The checker must flag it and recovery must restore clean state.
    Detected,
    /// It must stay invisible (never compared architecturally) and the
    /// final state must be clean.
    Masked,
    /// No guarantee beyond "detected faults recover and nothing escapes
    /// silently" — the sabotaged-ECC regime, where violations are the
    /// expected find.
    AnyClean,
}

/// The paper's §2 coverage table. Deliberately a wildcard-free match:
/// adding a [`FaultSite`] variant fails compilation here until the
/// campaign states what the invariant requires of it.
pub fn expected_fate(site: FaultSite, ecc: EccConfig) -> Expectation {
    match site {
        FaultSite::LeaderResult => Expectation::Detected,
        FaultSite::RvqOperand => Expectation::Detected,
        FaultSite::LvqValue => {
            if ecc.lvq {
                Expectation::Corrected
            } else {
                // Without ECC the corrupt LVQ value still feeds the
                // checker's result comparison.
                Expectation::Detected
            }
        }
        FaultSite::BoqOutcome => Expectation::Masked,
        FaultSite::TrailerRegfile => {
            if ecc.trailer_regfile {
                Expectation::Corrected
            } else {
                // The recovery point itself is unprotected: the paper
                // makes no promise (that is why it requires this ECC).
                Expectation::AnyClean
            }
        }
    }
}

/// Everything one trial observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialResult {
    /// Classified fate.
    pub fate: TrialFate,
    /// The invariant breach, if any.
    pub violation: Option<Violation>,
    /// Leader cycles from injection to the checker's first detection
    /// (0 when nothing was detected).
    pub detect_cycles: u64,
    /// Checker mismatches flagged.
    pub detections: u64,
    /// Recovery procedures executed.
    pub recoveries: u64,
    /// Instructions the leader committed.
    pub committed: u64,
}

impl TrialResult {
    /// True when the coverage invariant held.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Fault-free state shared by the trials of one benchmark at one run
/// length, so a trial starts from a checkpoint near its strike instead
/// of rebuilding, prefilling and re-stepping the system from cycle 0.
///
/// Before the strike a trial's trajectory depends only on the
/// benchmark: the core, the 3d-2a layout, [`RmtConfig::paper`] and the
/// null sink are the same for every trial, and the spec's ECC is first
/// read by the strike. A checkpoint is the state at the first cycle
/// whose committed count reaches its target, and a trial starts from a
/// checkpoint whose target is at most its `inject_at`, so stepping on
/// until `inject_at` stops at the same cycle, in the same state, as
/// stepping from cycle 0 — the trial's result is bit-identical.
///
/// A strike that ECC absorbs changes no state, and a BOQ-outcome
/// strike flips a bit nothing reads, so such a trial runs the
/// fault-free trajectory to its end; the warm start runs that end
/// once, on first demand, and every such trial reads it.
#[derive(Debug)]
pub(crate) struct WarmStart {
    benchmark: Benchmark,
    instructions: u64,
    /// `(target, state)` in ascending target order: the prefilled
    /// system at target 0, then one state per multiple of
    /// [`checkpoint_spacing`] up to the last strike served.
    checkpoints: Vec<(u64, RmtSystem)>,
    /// The reference executor, already run to `instructions`.
    oracle: ReferenceExecutor,
    /// The fault-free run's ending, built from the last checkpoint.
    fault_free: OnceLock<Ending>,
}

/// What a system shows at the end of a trial: run to `instructions`
/// committed, drained, and compared with the oracle.
#[derive(Debug, Clone, Copy)]
struct Ending {
    /// Leader cycle of the checker's first detection.
    detect_cycle: Option<u64>,
    committed: u64,
    detections: u64,
    recoveries: u64,
    unrecoverable: bool,
    /// Leader, trailer and golden register files all equal the oracle's.
    states_clean: bool,
}

impl Ending {
    /// Steps `sys` until `instructions` have committed, drains the
    /// checker, replays `oracle` to the final committed count, and
    /// cross-checks three independent views of the architectural state:
    /// the leader register file, the trailer register file, and the
    /// oracle's — ground truth computed with no pipeline, queue, or
    /// recovery machinery.
    fn reach(mut sys: RmtSystem, instructions: u64, oracle: &ReferenceExecutor) -> Ending {
        let mut detect_cycle = None;
        while sys.leader().activity().committed < instructions {
            sys.step();
            if detect_cycle.is_none() && sys.stats().detected > 0 {
                detect_cycle = Some(sys.total_cycles());
            }
        }
        sys.drain();
        if detect_cycle.is_none() && sys.stats().detected > 0 {
            // Flagged during the drain; the leader clock stops there, so
            // charge the end-of-run cycle.
            detect_cycle = Some(sys.total_cycles());
        }

        // Differential oracle: replay the committed stream independently.
        let committed = sys.leader().activity().committed;
        let mut oracle = oracle.clone();
        oracle.run_to(committed);
        let states_clean = sys.leader().regfile() == oracle.regfile()
            && sys.trailer().regfile() == oracle.regfile()
            && sys.leader_matches_golden();
        Ending {
            detect_cycle,
            committed,
            detections: sys.stats().detected,
            recoveries: sys.stats().recoveries,
            unrecoverable: sys.stats().unrecoverable > 0,
            states_clean,
        }
    }

    /// Classifies the ending of `spec`'s trial, struck at leader cycle
    /// `inject_cycle` with outcome `fate`.
    fn result(&self, spec: &TrialSpec, fate: TrialFate, inject_cycle: u64) -> TrialResult {
        TrialResult {
            fate,
            violation: classify(spec, fate, self.unrecoverable, self.states_clean),
            detect_cycles: self
                .detect_cycle
                .map_or(0, |c| c.saturating_sub(inject_cycle)),
            detections: self.detections,
            recoveries: self.recoveries,
            committed: self.committed,
        }
    }
}

/// Commits between checkpoints: the grid's lowest injection point
/// ([`CampaignSpec::expand`](crate::CampaignSpec::expand) draws
/// `inject_at` from `instructions/8 .. instructions*3/4`), so no trial
/// steps further than one spacing past its checkpoint.
fn checkpoint_spacing(instructions: u64) -> u64 {
    (instructions / 8).max(1)
}

/// The trial system of `benchmark` at cycle 0, caches prefilled.
fn prefilled_system(benchmark: Benchmark) -> RmtSystem {
    let leader = OooCore::new(
        CoreConfig::leading_ev7_like(),
        TraceGenerator::new(benchmark.profile()),
        CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
    );
    let mut sys = RmtSystem::new(leader, RmtConfig::paper());
    sys.prefill_caches();
    sys
}

impl WarmStart {
    /// Runs one fault-free system of `benchmark`, checkpointing it at
    /// target 0 and at every multiple of [`checkpoint_spacing`] up to
    /// `last_inject`, and runs the reference executor to
    /// `instructions`.
    pub(crate) fn new(benchmark: Benchmark, instructions: u64, last_inject: u64) -> WarmStart {
        let mut sys = prefilled_system(benchmark);
        let spacing = checkpoint_spacing(instructions);
        let mut checkpoints = vec![(0, sys.clone())];
        let mut target = spacing;
        while target <= last_inject {
            while sys.leader().activity().committed < target {
                sys.step();
            }
            checkpoints.push((target, sys.clone()));
            target += spacing;
        }
        let mut oracle = ReferenceExecutor::new(TraceGenerator::new(benchmark.profile()));
        oracle.run_to(instructions);
        WarmStart {
            benchmark,
            instructions,
            checkpoints,
            oracle,
            fault_free: OnceLock::new(),
        }
    }

    /// The ending of the fault-free run, built on first use from a
    /// clone of the last checkpoint. Every checkpoint lies on that one
    /// trajectory, so it is the ending of every trial whose strike
    /// changes no state that execution reads.
    fn fault_free(&self) -> &Ending {
        self.fault_free.get_or_init(|| {
            let (_, last) = self.checkpoints.last().expect("the target-0 checkpoint");
            Ending::reach(last.clone(), self.instructions, &self.oracle)
        })
    }
}

/// Runs one trial to completion and classifies it.
///
/// The system runs to `inject_at` committed instructions, strikes (or
/// lets ECC absorb the strike), runs to `instructions`, drains the
/// checker, and then cross-checks three independent views of the final
/// architectural state: the leader register file, the trailer register
/// file, and a [`ReferenceExecutor`] replay of the same trace — ground
/// truth computed with no pipeline, queue, or recovery machinery.
///
/// Campaigns run the same code from shared fault-free checkpoints; a
/// lone trial starts it from the prefilled system at cycle 0. A strike
/// that ECC absorbs, or a BOQ-outcome strike once it lands, leaves the
/// system on its fault-free trajectory, so unless the fault-free run
/// itself detects something, such a trial takes the fault-free run's
/// ending instead of stepping to it.
///
/// # Panics
///
/// Panics if the spec fails [`TrialSpec::validate`].
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    run_trial_from(&WarmStart::new(spec.benchmark, spec.instructions, 0), spec)
}

/// [`run_trial`] starting from the latest checkpoint of `warm` at or
/// before the strike, with the oracle resumed from `warm`'s.
///
/// # Panics
///
/// Panics if the spec fails [`TrialSpec::validate`] or does not match
/// `warm`'s benchmark and run length.
pub(crate) fn run_trial_from(warm: &WarmStart, spec: &TrialSpec) -> TrialResult {
    spec.validate().expect("invalid trial spec");
    assert!(
        spec.benchmark == warm.benchmark && spec.instructions == warm.instructions,
        "trial {} does not match its warm start",
        spec.label()
    );
    if spec.ecc.corrects(spec.site) {
        let free = warm.fault_free();
        if free.detections == 0 {
            return free.result(spec, TrialFate::CorrectedByEcc, 0);
        }
    }
    let (_, checkpoint) = warm
        .checkpoints
        .iter()
        .rev()
        .find(|(target, _)| *target <= spec.inject_at)
        .expect("the target-0 checkpoint precedes every strike");
    let mut sys = checkpoint.clone();
    while sys.leader().activity().committed < spec.inject_at {
        sys.step();
    }

    let fault = DrawnFault {
        site: spec.site,
        bit: spec.bit,
        reg: spec.reg,
    };
    let mut injected = sys.inject_directed(fault, spec.ecc);
    // Payload sites need a suitable op in the RVQ; step until one shows
    // up (a branch or load is at most a few commits away).
    while injected == DirectedOutcome::NoTarget
        && sys.leader().activity().committed < spec.instructions
    {
        sys.step();
        injected = sys.inject_directed(fault, spec.ecc);
    }
    if injected == DirectedOutcome::NoTarget {
        return TrialResult {
            fate: TrialFate::NotInjected,
            violation: Some(Violation::TargetUnavailable),
            detect_cycles: 0,
            detections: 0,
            recoveries: 0,
            committed: sys.leader().activity().committed,
        };
    }
    let inject_cycle = sys.total_cycles();
    if spec.site == FaultSite::BoqOutcome && warm.fault_free().detections == 0 {
        // The flipped outcome bit is a hint nothing downstream reads:
        // the system is still on the fault-free trajectory.
        return warm
            .fault_free()
            .result(spec, TrialFate::MaskedHarmless, inject_cycle);
    }

    let ending = Ending::reach(sys, spec.instructions, &warm.oracle);
    let fate = if injected == DirectedOutcome::CorrectedByEcc {
        TrialFate::CorrectedByEcc
    } else if ending.detections > 0 {
        TrialFate::DetectedRecovered
    } else {
        TrialFate::MaskedHarmless
    };
    ending.result(spec, fate, inject_cycle)
}

/// Applies the coverage invariant to one trial's observations.
fn classify(
    spec: &TrialSpec,
    fate: TrialFate,
    unrecoverable: bool,
    states_clean: bool,
) -> Option<Violation> {
    if unrecoverable {
        return Some(Violation::UnrecoverableRecovery);
    }
    if !states_clean {
        return Some(match fate {
            // Detected, recovery claimed success, yet the final state
            // disagrees with the oracle: the recovery point was bad.
            TrialFate::DetectedRecovered => Violation::UnrecoverableRecovery,
            _ => Violation::SilentCorruption,
        });
    }
    match expected_fate(spec.site, spec.ecc) {
        Expectation::Corrected => match fate {
            TrialFate::CorrectedByEcc => None,
            TrialFate::DetectedRecovered => Some(Violation::UnexpectedDetection),
            _ => Some(Violation::MissedDetection),
        },
        Expectation::Detected => match fate {
            TrialFate::DetectedRecovered => None,
            _ => Some(Violation::MissedDetection),
        },
        Expectation::Masked => match fate {
            TrialFate::MaskedHarmless => None,
            _ => Some(Violation::UnexpectedDetection),
        },
        Expectation::AnyClean => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignSpec;

    fn spec(site: FaultSite) -> TrialSpec {
        TrialSpec {
            index: 0,
            site,
            benchmark: Benchmark::Gzip,
            ecc: EccConfig::paper(),
            instructions: 8_000,
            inject_at: 3_000,
            bit: 21,
            reg: 9,
        }
    }

    #[test]
    fn unprotected_sites_detect_with_positive_latency() {
        for site in [FaultSite::LeaderResult, FaultSite::RvqOperand] {
            let r = run_trial(&spec(site));
            assert_eq!(r.fate, TrialFate::DetectedRecovered, "{site:?}");
            assert!(r.ok(), "{site:?}: {:?}", r.violation);
            assert!(r.detect_cycles > 0, "{site:?} latency");
            assert!(r.recoveries >= 1);
        }
    }

    #[test]
    fn ecc_sites_are_corrected() {
        for site in [FaultSite::LvqValue, FaultSite::TrailerRegfile] {
            let r = run_trial(&spec(site));
            assert_eq!(r.fate, TrialFate::CorrectedByEcc, "{site:?}");
            assert!(r.ok());
            assert_eq!(r.detect_cycles, 0);
        }
    }

    #[test]
    fn boq_faults_are_masked_and_clean() {
        let r = run_trial(&spec(FaultSite::BoqOutcome));
        assert_eq!(r.fate, TrialFate::MaskedHarmless);
        assert!(r.ok());
    }

    #[test]
    fn lvq_without_ecc_is_still_detected() {
        let mut s = spec(FaultSite::LvqValue);
        s.ecc = EccConfig {
            lvq: false,
            trailer_regfile: true,
        };
        let r = run_trial(&s);
        assert_eq!(r.fate, TrialFate::DetectedRecovered);
        assert!(r.ok(), "{:?}", r.violation);
    }

    #[test]
    fn trials_are_deterministic() {
        let s = spec(FaultSite::RvqOperand);
        assert_eq!(run_trial(&s), run_trial(&s));
    }

    /// A trial run the long way, with no warm start and no shortcut:
    /// the system from cycle 0 stepped to `inject_at`, struck (stepping
    /// on while no target is queued, as [`run_trial_from`] does),
    /// stepped to `instructions`, drained, and compared with a fresh
    /// reference executor.
    fn stepped_trial(spec: &TrialSpec) -> TrialResult {
        let mut sys = prefilled_system(spec.benchmark);
        while sys.leader().activity().committed < spec.inject_at {
            sys.step();
        }
        let fault = DrawnFault {
            site: spec.site,
            bit: spec.bit,
            reg: spec.reg,
        };
        let mut injected = sys.inject_directed(fault, spec.ecc);
        while injected == DirectedOutcome::NoTarget
            && sys.leader().activity().committed < spec.instructions
        {
            sys.step();
            injected = sys.inject_directed(fault, spec.ecc);
        }
        assert_ne!(injected, DirectedOutcome::NoTarget, "{}", spec.label());
        let inject_cycle = sys.total_cycles();
        let mut detect_cycle = None;
        while sys.leader().activity().committed < spec.instructions {
            sys.step();
            if detect_cycle.is_none() && sys.stats().detected > 0 {
                detect_cycle = Some(sys.total_cycles());
            }
        }
        sys.drain();
        if detect_cycle.is_none() && sys.stats().detected > 0 {
            detect_cycle = Some(sys.total_cycles());
        }
        let committed = sys.leader().activity().committed;
        let mut oracle = ReferenceExecutor::new(TraceGenerator::new(spec.benchmark.profile()));
        oracle.run_to(committed);
        let states_clean = sys.leader().regfile() == oracle.regfile()
            && sys.trailer().regfile() == oracle.regfile()
            && sys.leader_matches_golden();
        let fate = if injected == DirectedOutcome::CorrectedByEcc {
            TrialFate::CorrectedByEcc
        } else if sys.stats().detected > 0 {
            TrialFate::DetectedRecovered
        } else {
            TrialFate::MaskedHarmless
        };
        TrialResult {
            fate,
            violation: classify(spec, fate, sys.stats().unrecoverable > 0, states_clean),
            detect_cycles: detect_cycle.map_or(0, |c| c - inject_cycle),
            detections: sys.stats().detected,
            recoveries: sys.stats().recoveries,
            committed,
        }
    }

    /// Runs every trial of `grid` from one shared warm start per
    /// benchmark and requires each result to equal a fresh
    /// [`run_trial`], and each absorbed or BOQ strike's to equal
    /// [`stepped_trial`]; returns the results.
    fn assert_warm_matches_fresh(grid: &CampaignSpec) -> Vec<TrialResult> {
        let trials = grid.expand();
        let mut results = Vec::new();
        for &b in &grid.benchmarks {
            let mine = || trials.iter().filter(move |t| t.benchmark == b);
            let last = mine().map(|t| t.inject_at).max().unwrap_or(0);
            let mut warm = WarmStart::new(b, grid.instructions, last);
            assert!(warm.checkpoints.len() > 1, "the grid uses the ladder");
            let (mut absorbed, mut boq) = (0, 0);
            for t in mine() {
                let r = run_trial_from(&warm, t);
                assert_eq!(r, run_trial(t), "{}", t.label());
                let on_boq = t.site == FaultSite::BoqOutcome;
                if t.ecc.corrects(t.site) || on_boq {
                    assert_eq!(r, stepped_trial(t), "{}", t.label());
                }
                absorbed += usize::from(t.ecc.corrects(t.site));
                boq += usize::from(on_boq);
                results.push(r);
            }
            assert!(absorbed > 0 && boq > 0, "the grid has dead strikes");

            // Plant an ending no stepped run reaches: a trial that
            // returns it took the shortcut.
            let free = *warm.fault_free.get().expect("dead strikes shortcut");
            let planted = Ending {
                committed: free.committed + 1_000,
                ..free
            };
            warm.fault_free = OnceLock::from(planted);
            let shortcut = mine()
                .filter(|t| t.site == FaultSite::BoqOutcome)
                .filter(|t| run_trial_from(&warm, t).committed == planted.committed)
                .count();
            assert_eq!(shortcut, boq, "every BOQ strike takes the shortcut");
        }
        results
    }

    #[test]
    fn warm_start_matches_fresh_trials_on_smoke_grids() {
        for seed in [1, 7, 42] {
            assert_warm_matches_fresh(&CampaignSpec::smoke(seed));
        }
    }

    #[test]
    fn warm_start_matches_fresh_trials_with_ecc_sabotaged() {
        let mut violations = 0;
        for site in [FaultSite::LvqValue, FaultSite::TrailerRegfile] {
            let grid = CampaignSpec::smoke(5).sabotage(site).expect("ECC site");
            let results = assert_warm_matches_fresh(&grid);
            violations += results.iter().filter(|r| !r.ok()).count();
        }
        assert!(violations > 0, "sabotage must reach the violation paths");
    }

    #[test]
    fn warm_start_matches_fresh_trials_around_a_checkpoint() {
        let base = spec(FaultSite::RvqOperand);
        let target = 3 * checkpoint_spacing(base.instructions);
        let warm = WarmStart::new(base.benchmark, base.instructions, target + 1);
        let targets: Vec<u64> = warm.checkpoints.iter().map(|(t, _)| *t).collect();
        assert_eq!(targets, [0, target / 3, target * 2 / 3, target]);
        for inject_at in [target - 1, target, target + 1] {
            for site in FaultSite::ALL {
                let s = TrialSpec {
                    site,
                    inject_at,
                    ..base
                };
                assert_eq!(run_trial_from(&warm, &s), run_trial(&s), "{}", s.label());
            }
        }
    }

    /// The shortcut classifies the ending it recorded, whatever that
    /// holds; fault-free runs of real grids all end clean, so only a
    /// planted ending shows it does not assume so.
    #[test]
    fn absorbed_strikes_classify_the_recorded_fault_free_ending() {
        let s = spec(FaultSite::TrailerRegfile);
        let ending = Ending {
            detect_cycle: None,
            committed: 8_003,
            detections: 0,
            recoveries: 0,
            unrecoverable: false,
            states_clean: false,
        };
        let warm = WarmStart::new(s.benchmark, s.instructions, 0);
        warm.fault_free.set(ending).expect("unset");
        let r = run_trial_from(&warm, &s);
        assert_eq!(r.violation, Some(Violation::SilentCorruption));
        assert_eq!(r.committed, 8_003);

        // A fault-free run that detects something is no ending to
        // share: the trial runs in full.
        let warm = WarmStart::new(s.benchmark, s.instructions, 0);
        let detecting = Ending {
            detect_cycle: Some(1),
            detections: 1,
            ..ending
        };
        warm.fault_free.set(detecting).expect("unset");
        assert_eq!(run_trial_from(&warm, &s), stepped_trial(&s));
    }

    #[test]
    #[should_panic(expected = "does not match its warm start")]
    fn a_warm_start_serves_only_its_benchmark() {
        let warm = WarmStart::new(Benchmark::Mcf, 8_000, 0);
        run_trial_from(&warm, &spec(FaultSite::LeaderResult));
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut s = spec(FaultSite::LeaderResult);
        s.inject_at = s.instructions;
        assert!(s.validate().is_err());
        s = spec(FaultSite::LeaderResult);
        s.bit = 64;
        assert!(s.validate().is_err());
        s = spec(FaultSite::LeaderResult);
        s.reg = 0;
        assert!(s.validate().is_err());
    }
}
