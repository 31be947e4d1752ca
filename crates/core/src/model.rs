//! Processor models and system configuration.

use rmt3d_cache::{NucaLayout, NucaPolicy};
use rmt3d_floorplan::ChipFloorplan;
use std::fmt;

/// The processor organizations evaluated in the paper (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorModel {
    /// Single die, 6 MB L2, no checker — the unreliable baseline
    /// customers with low reliability requirements buy.
    TwoDA,
    /// Single large die with checker and 15 MB L2 — the iso-transistor
    /// 2D comparison point.
    TwoD2A,
    /// The proposal: 2d-a die plus a stacked die carrying the checker
    /// and 9 more MB of L2.
    ThreeD2A,
    /// A stacked die carrying only the checker (no extra cache) — used
    /// to isolate cache effects in §3.3 and the inactive-silicon thermal
    /// variant in §3.2.
    ThreeDChecker,
}

impl ProcessorModel {
    /// All four models in the paper's presentation order.
    pub const ALL: [ProcessorModel; 4] = [
        ProcessorModel::TwoDA,
        ProcessorModel::TwoD2A,
        ProcessorModel::ThreeD2A,
        ProcessorModel::ThreeDChecker,
    ];

    /// The paper's name for this model.
    pub fn name(self) -> &'static str {
        match self {
            ProcessorModel::TwoDA => "2d-a",
            ProcessorModel::TwoD2A => "2d-2a",
            ProcessorModel::ThreeD2A => "3d-2a",
            ProcessorModel::ThreeDChecker => "3d-checker",
        }
    }

    /// Whether the model carries a checker core.
    pub fn has_checker(self) -> bool {
        !matches!(self, ProcessorModel::TwoDA)
    }

    /// The NUCA bank layout of this model's L2.
    pub fn nuca_layout(self) -> NucaLayout {
        match self {
            ProcessorModel::TwoDA | ProcessorModel::ThreeDChecker => NucaLayout::two_d_a(),
            ProcessorModel::TwoD2A => NucaLayout::two_d_2a(),
            ProcessorModel::ThreeD2A => NucaLayout::three_d_2a(),
        }
    }

    /// The physical floorplan of this model.
    pub fn floorplan(self) -> ChipFloorplan {
        match self {
            ProcessorModel::TwoDA => ChipFloorplan::two_d_a(),
            ProcessorModel::TwoD2A => ChipFloorplan::two_d_2a(),
            ProcessorModel::ThreeD2A => ChipFloorplan::three_d_2a(),
            ProcessorModel::ThreeDChecker => ChipFloorplan::three_d_checker_only(),
        }
    }
}

impl fmt::Display for ProcessorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown processor-model name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError(String);

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown processor model `{}` (expected 2d-a, 2d-2a, 3d-2a or 3d-checker)",
            self.0
        )
    }
}

impl std::error::Error for ParseModelError {}

impl std::str::FromStr for ProcessorModel {
    type Err = ParseModelError;

    fn from_str(s: &str) -> Result<ProcessorModel, ParseModelError> {
        let t = s.trim().to_ascii_lowercase();
        ProcessorModel::ALL
            .into_iter()
            .find(|m| m.name() == t)
            .ok_or_else(|| ParseModelError(s.to_string()))
    }
}

/// How much simulation to spend per data point.
///
/// The paper simulates 100M-instruction SimPoint windows on a 50×50
/// thermal grid; [`RunScale::paper`] approaches that regime,
/// [`RunScale::quick`] is for tests and iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Instructions of predictor/DFS warm-up before measurement (caches
    /// are warmed analytically via prefill).
    pub warmup_instructions: u64,
    /// Measured instructions per benchmark.
    pub instructions: u64,
    /// Thermal grid resolution.
    pub thermal_grid: usize,
}

impl RunScale {
    /// Full-scale runs for the benchmark harness.
    pub fn paper() -> RunScale {
        RunScale {
            warmup_instructions: 100_000,
            instructions: 1_000_000,
            thermal_grid: 50,
        }
    }

    /// Fast runs for tests.
    pub fn quick() -> RunScale {
        RunScale {
            warmup_instructions: 20_000,
            instructions: 120_000,
            thermal_grid: 25,
        }
    }

    /// Ops a run at this scale fetches, at most: the warm-up and
    /// measured instructions plus the leader's fetch run-ahead. Runs of
    /// one benchmark at this scale can share one trace this long (see
    /// [`crate::simulate_on`]).
    pub fn trace_len(&self) -> usize {
        (self.warmup_instructions + self.instructions + rmt3d_cpu::FETCH_RUN_AHEAD) as usize
    }
}

/// NUCA policy re-export for configuration convenience.
pub type L2Policy = NucaPolicy;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_inventory() {
        assert_eq!(ProcessorModel::ALL.len(), 4);
        assert!(!ProcessorModel::TwoDA.has_checker());
        for m in [
            ProcessorModel::TwoD2A,
            ProcessorModel::ThreeD2A,
            ProcessorModel::ThreeDChecker,
        ] {
            assert!(m.has_checker());
        }
    }

    #[test]
    fn cache_capacities_follow_the_paper() {
        assert_eq!(ProcessorModel::TwoDA.nuca_layout().bank_count(), 6);
        assert_eq!(ProcessorModel::TwoD2A.nuca_layout().bank_count(), 15);
        assert_eq!(ProcessorModel::ThreeD2A.nuca_layout().bank_count(), 15);
        // 3d-checker has no extra cache: same 6 MB as the baseline.
        assert_eq!(ProcessorModel::ThreeDChecker.nuca_layout().bank_count(), 6);
    }

    #[test]
    fn floorplans_match_models() {
        assert_eq!(ProcessorModel::TwoDA.floorplan().dies.len(), 1);
        assert_eq!(ProcessorModel::ThreeD2A.floorplan().dies.len(), 2);
        assert_eq!(ProcessorModel::ThreeD2A.floorplan().total_banks(), 15);
    }

    #[test]
    fn names() {
        assert_eq!(ProcessorModel::ThreeD2A.to_string(), "3d-2a");
    }

    #[test]
    fn parse_round_trip() {
        for m in ProcessorModel::ALL {
            assert_eq!(m.name().parse::<ProcessorModel>().unwrap(), m);
        }
        let err = "4d".parse::<ProcessorModel>().unwrap_err();
        assert!(err.to_string().contains("4d"));
    }
}
