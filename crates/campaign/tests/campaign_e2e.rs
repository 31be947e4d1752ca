//! End-to-end campaign tests: determinism across worker counts, the
//! seeded-bug shrinker demonstration, and replay of the committed
//! regression fixture.

use rmt3d_campaign::{
    parse_fixture, replay_fixture, run_campaign_with, shrink, write_fixture, CampaignOptions,
    CampaignReport, CampaignSpec,
};
use rmt3d_rmt::FaultSite;
use rmt3d_telemetry::NullSink;

/// An unjournaled campaign on `jobs` workers (0 = all cores).
fn run(spec: &CampaignSpec, jobs: usize) -> CampaignReport {
    let opts = CampaignOptions {
        jobs,
        ..CampaignOptions::default()
    };
    run_campaign_with(spec, &opts, &mut NullSink)
        .expect("campaign runs")
        .report
}

/// The paper's coverage claim holds on the smoke grid, and the JSONL
/// report is byte-identical between a serial and a parallel run — the
/// campaign is a pure function of its spec, worker count
/// notwithstanding.
#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let spec = CampaignSpec::smoke(7);
    let serial = run(&spec, 1);
    assert!(serial.full_coverage(), "{}", serial.summary());
    for jobs in [2, 4] {
        let parallel = run(&spec, jobs);
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl(), "jobs {jobs}");
        assert_eq!(serial.summary(), parallel.summary(), "jobs {jobs}");
    }
}

/// Seeded-bug demonstration: disable trailer-regfile ECC (the oracle's
/// own protection) and the campaign finds real violations; the shrinker
/// minimizes the first one, and the emitted fixture replays.
#[test]
fn sabotaged_campaign_shrinks_violation_to_replayable_fixture() {
    let mut spec = CampaignSpec::smoke(21)
        .sabotage(FaultSite::TrailerRegfile)
        .expect("trailer regfile carries ECC");
    spec.sites = vec![FaultSite::TrailerRegfile];
    spec.faults_per_cell = 12;
    let report = run(&spec, 0);
    let violations = report.violations();
    assert!(
        !violations.is_empty(),
        "sabotaged ECC must surface violations: {}",
        report.summary()
    );

    let victim = violations[0];
    let violation = victim
        .outcome
        .as_ref()
        .expect("violating trial ran")
        .violation
        .expect("violating trial has a violation");
    let shrunk = shrink(&victim.spec, 200).expect("violating trial shrinks");
    assert_eq!(shrunk.result.violation, Some(violation));
    assert!(
        shrunk.spec.instructions <= victim.spec.instructions
            && shrunk.spec.inject_at <= victim.spec.inject_at,
        "shrinking never grows the reproduction"
    );
    assert!(
        shrunk.accepted > 0,
        "a mid-run violation admits at least a tail truncation"
    );

    let dir = std::env::temp_dir().join("rmt3d_campaign_e2e_fixture");
    let path = write_fixture(&dir, &shrunk.spec, violation).expect("fixture writes");
    let text = std::fs::read_to_string(&path).expect("fixture reads");
    assert_eq!(
        replay_fixture(&text),
        Ok(true),
        "minimized fixture reproduces its violation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed regression fixture — minimized from a real sabotaged
/// campaign run — still reproduces its violation.
#[test]
fn committed_fixture_still_reproduces() {
    let text = include_str!("fixtures/silent_corruption_trailer_regfile_gzip.json");
    let (spec, violation) = parse_fixture(text).expect("committed fixture parses");
    assert_eq!(spec.site, FaultSite::TrailerRegfile);
    assert!(!spec.ecc.trailer_regfile, "fixture records the sabotage");
    assert_eq!(
        replay_fixture(text),
        Ok(true),
        "{spec:?} no longer reproduces {violation:?}"
    );
}
