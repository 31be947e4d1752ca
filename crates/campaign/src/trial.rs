//! One fault-injection trial: fork from a fault-free cursor of the RMT
//! system at the injection point, strike, and classify the outcome
//! against the paper's coverage invariant and a differential oracle.

use rmt3d_cache::{CacheHierarchy, NucaLayout, NucaPolicy};
use rmt3d_cpu::{CoreConfig, OooCore, ReferenceExecutor, FETCH_RUN_AHEAD};
use rmt3d_rmt::{DirectedOutcome, DrawnFault, EccConfig, FaultSite, RmtConfig, RmtSystem};
use rmt3d_workload::{Benchmark, Trace};
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
/// length, so a trial forks from a [`Cursor`] near its strike instead
/// of rebuilding, prefilling and re-stepping the system from cycle 0.
///
/// Before the strike a trial's trajectory depends only on the
/// benchmark: the core, the 3d-2a layout, [`RmtConfig::paper`] and the
/// null sink are the same for every trial, and the spec's ECC is first
/// read by the strike. Every cursor starts from the one prefilled
/// cycle-0 state and steps that one fault-free trajectory.
///
/// A strike that ECC absorbs changes no state, and a BOQ-outcome
/// strike flips a bit nothing reads, so such a trial runs the
/// fault-free trajectory to its end; the warm start runs that end
/// once, on first demand, and every such trial reads it.
///
/// The instruction stream is generated once, as one [`Trace`] of the
/// run's length shared by the prefilled system, every cursor, every
/// trial and the oracle.
#[derive(Debug)]
pub(crate) struct WarmStart {
    benchmark: Benchmark,
    instructions: u64,
    /// The prefilled system at cycle 0, where every cursor starts.
    start: RmtSystem,
    /// The reference executor, already run to `instructions`.
    oracle: ReferenceExecutor,
    /// The fault-free run's ending, built from the first trajectory
    /// state that needs it.
    fault_free: OnceLock<Ending>,
}

/// One pool worker's fault-free system: a state on a warm start's
/// trajectory that only moves forward. A trial forks from it at its
/// strike; a campaign hands each worker its trials in ascending
/// `inject_at` order, so the cursor steps every prefix once.
#[derive(Debug)]
pub(crate) struct Cursor {
    benchmark: Benchmark,
    instructions: u64,
    sys: RmtSystem,
    /// `Some(t)` while `sys` is the first cycle whose committed count
    /// reached `t`; `None` once it has stepped on past such a cycle.
    reached: Option<u64>,
}

impl Cursor {
    /// True when `sys` lies on `warm`'s trajectory (the trajectory is a
    /// function of the benchmark and the run length alone).
    fn follows(&self, warm: &WarmStart) -> bool {
        self.benchmark == warm.benchmark && self.instructions == warm.instructions
    }

    /// True when stepping on until `inject_at` has committed stops at
    /// the cycle, and in the state, that stepping from cycle 0 does:
    /// the cursor has committed less than `inject_at`, or it sits at
    /// the first cycle that reached a target no later than `inject_at`
    /// (and so at the first that reached `inject_at` too).
    fn serves(&self, warm: &WarmStart, inject_at: u64) -> bool {
        self.follows(warm)
            && (self.sys.leader().activity().committed < inject_at
                || self.reached.is_some_and(|t| t <= inject_at))
    }

    /// Steps to the first cycle whose committed count reaches `target`
    /// (no step when [`Cursor::serves`] it and it is already there).
    fn step_to(&mut self, target: u64) {
        if self.sys.leader().activity().committed < target {
            while self.sys.leader().activity().committed < target {
                self.sys.step();
            }
            self.reached = Some(target);
        }
    }
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

/// The trial system at cycle 0 fetching from `trace`, caches
/// prefilled.
fn prefilled_system(trace: Trace) -> RmtSystem {
    let leader = OooCore::new(
        CoreConfig::leading_ev7_like(),
        trace,
        CacheHierarchy::new(NucaLayout::three_d_2a(), NucaPolicy::DistributedSets),
    );
    let mut sys = RmtSystem::new(leader, RmtConfig::paper());
    sys.prefill_caches();
    sys
}

impl WarmStart {
    /// Builds and prefills the fault-free system of `benchmark` at
    /// cycle 0, and runs the reference executor to `instructions`.
    pub(crate) fn new(benchmark: Benchmark, instructions: u64) -> WarmStart {
        let trace = Trace::new(
            benchmark.profile(),
            (instructions + FETCH_RUN_AHEAD) as usize,
        );
        let start = prefilled_system(trace.clone());
        let mut oracle = ReferenceExecutor::new(trace);
        oracle.run_to(instructions);
        WarmStart {
            benchmark,
            instructions,
            start,
            oracle,
            fault_free: OnceLock::new(),
        }
    }

    /// A cursor at cycle 0.
    fn cursor(&self) -> Cursor {
        Cursor {
            benchmark: self.benchmark,
            instructions: self.instructions,
            sys: self.start.clone(),
            reached: None,
        }
    }

    /// The ending of the fault-free run, built on first use from a
    /// clone of `on_trajectory`, a state of that run no further than
    /// the first cycle that committed `instructions`. Every such state
    /// steps to the same ending, so it is the ending of every trial
    /// whose strike changes no state that execution reads.
    fn fault_free(&self, on_trajectory: &RmtSystem) -> &Ending {
        self.fault_free
            .get_or_init(|| Ending::reach(on_trajectory.clone(), self.instructions, &self.oracle))
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
/// Campaigns run the same code on each worker's fault-free cursor; a
/// lone trial runs it on a fresh cursor at cycle 0. A strike that ECC
/// absorbs, or a BOQ-outcome strike once it lands, leaves the system
/// on its fault-free trajectory, so unless the fault-free run itself
/// detects something, such a trial takes the fault-free run's ending
/// instead of stepping to it (a lone BOQ trial steps on from the
/// strike: building the ending would cost it the same run, and no
/// other trial would share it).
///
/// # Panics
///
/// Panics if the spec fails [`TrialSpec::validate`].
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    let warm = WarmStart::new(spec.benchmark, spec.instructions);
    run_trial_from(&warm, &mut None, spec)
}

/// [`run_trial`] forking from `cursor`, with the oracle resumed from
/// `warm`'s. A cursor that cannot serve the strike
/// ([`Cursor::serves`]), or none, is first reset to `warm`'s cycle-0
/// state, so the result is the same whatever the cursor held; only the
/// cost differs. On return the cursor sits at or past the strike.
///
/// # Panics
///
/// Panics if the spec fails [`TrialSpec::validate`] or does not match
/// `warm`'s benchmark and run length.
pub(crate) fn run_trial_from(
    warm: &WarmStart,
    cursor: &mut Option<Cursor>,
    spec: &TrialSpec,
) -> TrialResult {
    spec.validate().expect("invalid trial spec");
    assert!(
        spec.benchmark == warm.benchmark && spec.instructions == warm.instructions,
        "trial {} does not match its warm start",
        spec.label()
    );
    if spec.ecc.corrects(spec.site) {
        let on_trajectory = match cursor {
            Some(c) if c.follows(warm) => &c.sys,
            _ => &warm.start,
        };
        let free = warm.fault_free(on_trajectory);
        if free.detections == 0 {
            return free.result(spec, TrialFate::CorrectedByEcc, 0);
        }
    }
    let reset = !cursor
        .as_ref()
        .is_some_and(|c| c.serves(warm, spec.inject_at));
    if reset {
        *cursor = Some(warm.cursor());
    }
    let cursor = cursor.as_mut().expect("set above");
    cursor.step_to(spec.inject_at);

    // The flipped outcome bit is a hint nothing downstream reads: the
    // trial's inject cycle is the first at or after `inject_at` with a
    // branch queued, and its ending is the fault-free run's. The cursor
    // steps there (as the retry below would) and serves on. A lone
    // trial (a fresh cursor, no ending built) steps on from the strike
    // instead: building the ending would cost it the same run.
    if spec.site == FaultSite::BoqOutcome && !(reset && warm.fault_free.get().is_none()) {
        while cursor.sys.strike_target(spec.site).is_none()
            && cursor.sys.leader().activity().committed < spec.instructions
        {
            cursor.sys.step();
            cursor.reached = None;
        }
        if cursor.sys.strike_target(spec.site).is_none() {
            return not_injected(&cursor.sys);
        }
        let free = warm.fault_free(&cursor.sys);
        if free.detections == 0 {
            return free.result(spec, TrialFate::MaskedHarmless, cursor.sys.total_cycles());
        }
    }

    let mut sys = cursor.sys.clone();
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
        return not_injected(&sys);
    }
    let inject_cycle = sys.total_cycles();
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

/// The result of a trial whose strike found no target before `sys`
/// committed the whole run.
fn not_injected(sys: &RmtSystem) -> TrialResult {
    TrialResult {
        fate: TrialFate::NotInjected,
        violation: Some(Violation::TargetUnavailable),
        detect_cycles: 0,
        detections: 0,
        recoveries: 0,
        committed: sys.leader().activity().committed,
    }
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
    use rmt3d_workload::SplitMix64;

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

    /// A lone BOQ trial has no fault-free ending to share: it steps on
    /// from the strike, to the stepped result, and leaves none built.
    #[test]
    fn a_lone_boq_trial_steps_on_from_the_strike() {
        let s = spec(FaultSite::BoqOutcome);
        let warm = WarmStart::new(s.benchmark, s.instructions);
        assert_eq!(run_trial_from(&warm, &mut None, &s), stepped_trial(&s));
        assert!(
            warm.fault_free.get().is_none(),
            "no second run from cycle 0"
        );
        assert_eq!(run_trial(&s), stepped_trial(&s));
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
        let mut sys = prefilled_system(Trace::new(spec.benchmark.profile(), 0));
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
        let mut oracle = ReferenceExecutor::new(Trace::new(spec.benchmark.profile(), 0));
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

    /// Serves every trial of `grid` through one cursor per benchmark,
    /// once in ascending `inject_at` order (the campaign's, where the
    /// cursor never resets) and once shuffled (where it must), and
    /// requires each result to equal a fresh [`run_trial`] and
    /// [`stepped_trial`]; returns the results in grid order.
    fn assert_cursor_matches_fresh(grid: &CampaignSpec) -> Vec<TrialResult> {
        let trials = grid.expand();
        let fresh: Vec<TrialResult> = trials.iter().map(run_trial).collect();
        for (t, r) in trials.iter().zip(&fresh) {
            assert_eq!(*r, stepped_trial(t), "{}", t.label());
        }
        let mut rng = SplitMix64::new(grid.seed);
        for &b in &grid.benchmarks {
            let mut mine: Vec<&TrialSpec> = trials.iter().filter(|t| t.benchmark == b).collect();
            mine.sort_by_key(|t| t.inject_at);
            let mut shuffled = mine.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below_usize(i + 1));
            }
            for (order, ascending) in [(mine, true), (shuffled, false)] {
                let warm = WarmStart::new(b, grid.instructions);
                let mut cursor: Option<Cursor> = None;
                let mut resets = 0;
                for t in &order {
                    if let Some(c) = &cursor {
                        let absorbed = t.ecc.corrects(t.site);
                        resets += usize::from(!absorbed && !c.serves(&warm, t.inject_at));
                    }
                    let r = run_trial_from(&warm, &mut cursor, t);
                    assert_eq!(r, fresh[t.index], "{}", t.label());
                }
                if ascending {
                    assert_eq!(resets, 0, "{b:?}: ascending strikes never reset");
                } else {
                    assert!(resets > 0, "{b:?}: the shuffle must force resets");
                }
            }

            // Plant an ending no stepped run reaches: a trial that
            // returns it took the shortcut.
            let warm = WarmStart::new(b, grid.instructions);
            let mut cursor = Some(warm.cursor());
            let free = *warm.fault_free(&warm.start);
            let planted = Ending {
                committed: free.committed + 1_000,
                ..free
            };
            let warm = WarmStart {
                fault_free: OnceLock::from(planted),
                ..warm
            };
            let mut shortcut = 0;
            let mut dead = 0;
            for t in trials.iter().filter(|t| t.benchmark == b) {
                let on_boq = t.site == FaultSite::BoqOutcome;
                if t.ecc.corrects(t.site) || on_boq {
                    dead += 1;
                    let r = run_trial_from(&warm, &mut cursor, t);
                    shortcut += usize::from(r.committed == planted.committed);
                }
            }
            assert!(dead > 0, "the grid has dead strikes");
            assert_eq!(
                shortcut, dead,
                "every absorbed and BOQ strike takes the shortcut"
            );
        }
        fresh
    }

    #[test]
    fn warm_start_matches_fresh_trials_on_smoke_grids() {
        for seed in [1, 7, 42] {
            assert_cursor_matches_fresh(&CampaignSpec::smoke(seed));
        }
    }

    #[test]
    fn warm_start_matches_fresh_trials_with_ecc_sabotaged() {
        let mut violations = 0;
        for site in [FaultSite::LvqValue, FaultSite::TrailerRegfile] {
            let grid = CampaignSpec::smoke(5).sabotage(site).expect("ECC site");
            let results = assert_cursor_matches_fresh(&grid);
            violations += results.iter().filter(|r| !r.ok()).count();
        }
        assert!(violations > 0, "sabotage must reach the violation paths");
    }

    /// A cursor stepped to a target serves strikes at and after it, and
    /// resets for one before it; one that stepped on past a BOQ strike
    /// serves only strikes beyond what it committed. Every result
    /// equals a fresh trial's.
    #[test]
    fn cursors_serve_strikes_around_their_target() {
        let base = spec(FaultSite::RvqOperand);
        let target = base.inject_at;
        let warm = WarmStart::new(base.benchmark, base.instructions);
        for inject_at in [target - 1, target, target + 1] {
            for site in FaultSite::ALL {
                let s = TrialSpec {
                    site,
                    inject_at,
                    ..base
                };
                let mut cursor = Some(warm.cursor());
                cursor.as_mut().unwrap().step_to(target);
                let c = cursor.as_ref().unwrap();
                assert_eq!(c.serves(&warm, inject_at), inject_at >= target);
                assert_eq!(
                    run_trial_from(&warm, &mut cursor, &s),
                    run_trial(&s),
                    "{}",
                    s.label()
                );
            }
        }

        // Fill in the ending so the BOQ strike reads off the cursor, and
        // step past a first cycle to find its branch.
        warm.fault_free(&warm.start);
        let boq = TrialSpec {
            site: FaultSite::BoqOutcome,
            ..base
        };
        let mut cursor = Some(warm.cursor());
        let mut inject_at = target;
        let (s, r) = loop {
            let s = TrialSpec { inject_at, ..boq };
            let r = run_trial_from(&warm, &mut cursor, &s);
            if cursor.as_ref().unwrap().reached.is_none() {
                break (s, r);
            }
            inject_at += 1;
        };
        assert_eq!(r, stepped_trial(&s));
        let c = cursor.as_ref().unwrap();
        let committed = c.sys.leader().activity().committed;
        assert!(!c.serves(&warm, committed));
        assert!(c.serves(&warm, committed + 1));
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
        let warm = WarmStart::new(s.benchmark, s.instructions);
        warm.fault_free.set(ending).expect("unset");
        let r = run_trial_from(&warm, &mut None, &s);
        assert_eq!(r.violation, Some(Violation::SilentCorruption));
        assert_eq!(r.committed, 8_003);

        // A fault-free run that detects something is no ending to
        // share: the trial runs in full.
        let warm = WarmStart::new(s.benchmark, s.instructions);
        let detecting = Ending {
            detect_cycle: Some(1),
            detections: 1,
            ..ending
        };
        warm.fault_free.set(detecting).expect("unset");
        assert_eq!(run_trial_from(&warm, &mut None, &s), stepped_trial(&s));
    }

    #[test]
    #[should_panic(expected = "does not match its warm start")]
    fn a_warm_start_serves_only_its_benchmark() {
        let warm = WarmStart::new(Benchmark::Mcf, 8_000);
        run_trial_from(&warm, &mut None, &spec(FaultSite::LeaderResult));
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
