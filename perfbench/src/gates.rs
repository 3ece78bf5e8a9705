//! Correctness gates, run on reduced inputs before anything is timed, and
//! the checks every timed epoch must pass.

use crate::epoch::{run_epoch, DiskRun, EpochOptions, EpochRun, Instrument};
use crate::scenario::{AnalystChoice, Deployment, Scenario, Size, StrategyChoice, Workload};
use crate::trace::SpanKind;
use dpsync_core::strategy::StrategyKind;
use dpsync_edb::LeakagePolicy;

fn ok_run(run: &EpochRun, what: &str) -> Result<(), String> {
    if let Err(e) = &run.report {
        return Err(format!("{what}: the epoch aborted: {e}"));
    }
    if run.failures() != 0 {
        return Err(format!("{what}: {} failed operation(s)", run.failures()));
    }
    Ok(())
}

fn same_digest(a: &EpochRun, b: &EpochRun, what: &str) -> Result<(), String> {
    ok_run(a, what)?;
    ok_run(b, what)?;
    if a.digest() != b.digest() {
        return Err(format!(
            "{what}: normalized reports or adversary views differ ({:016x?} vs {:016x?})",
            a.digest(),
            b.digest()
        ));
    }
    Ok(())
}

/// Decorated runs must be byte-identical to the bare run, and DP-Timer
/// owners must stay on the sparse schedule behind the strategy decorator.
pub fn decorator_equivalence(scenario: &Scenario, disk: &DiskRun) -> Result<String, String> {
    let bare = run_epoch(scenario, EpochOptions::new(Instrument::Bare), disk);
    let untraced = run_epoch(scenario, EpochOptions::new(Instrument::Untraced), disk);
    let traced = run_epoch(scenario, EpochOptions::new(Instrument::Traced), disk);
    same_digest(&bare, &untraced, "untraced decorators vs bare")?;
    same_digest(&bare, &traced, "traced decorators vs bare")?;
    let spans = traced.probe.spans();
    let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count() as u64;
    let on_ticks = count(SpanKind::StrategyOnTick);
    // A decorator that fell back to a trait default would silently turn
    // view or index reads into scans without changing a released answer.
    let (path, reads) = match scenario.analyst {
        AnalystChoice::Scan => ("scan", 1),
        AnalystChoice::Views => ("view", count(SpanKind::EngineQueryView)),
        AnalystChoice::Indexes(LeakagePolicy::TranscriptOnly) => ("scan", 1),
        AnalystChoice::Indexes(LeakagePolicy::AllowIndexedVolume) => {
            ("index", count(SpanKind::EngineQueryIndexed))
        }
    };
    if reads == 0 {
        return Err(format!(
            "the analyst never read through a {path} behind the decorators"
        ));
    }
    let dense = scenario.fleet.len() as u64 * scenario.horizon;
    if scenario.strategy_kind() == StrategyKind::DpTimer && on_ticks * 4 > dense {
        return Err(format!(
            "DP-Timer ran {on_ticks} on_tick calls for {dense} owner-ticks: the strategy \
             decorator turned the sparse driver dense"
        ));
    }
    Ok(format!(
        "decorated == bare (digest {:016x}); on_tick {on_ticks} of {dense} owner-ticks",
        bare.digest().unwrap_or_default()
    ))
}

/// Under synchronize-upon-receipt every released answer equals the truth.
pub fn exactness(scenario: &Scenario, disk: &DiskRun) -> Result<String, String> {
    let mut sur = scenario.clone();
    sur.strategy = StrategyChoice::Sur;
    let run = run_epoch(&sur, EpochOptions::new(Instrument::Untraced), disk);
    ok_run(&run, "SUR exactness")?;
    let report = run.report.as_ref().expect("checked by ok_run");
    if report.query_samples.is_empty() {
        return Err("SUR exactness: the analyst posed no query".into());
    }
    if let Some(bad) = report.query_samples.iter().find(|s| s.l1_error != 0.0) {
        return Err(format!(
            "SUR exactness: {} at t={} released an answer off by {}",
            bad.query, bad.time, bad.l1_error
        ));
    }
    Ok(format!(
        "{} SUR answers equal the ground truth",
        report.query_samples.len()
    ))
}

/// The indexed analyst must release exactly the answers of a scan-only
/// (`TranscriptOnly`) run, and must actually use an index.
pub fn indexed_answers(scenario: &Scenario, disk: &DiskRun) -> Result<String, String> {
    let capture = EpochOptions {
        capture_answers: true,
        ..EpochOptions::new(Instrument::Untraced)
    };
    let indexed = run_epoch(scenario, capture, disk);
    let mut scan = scenario.clone();
    scan.analyst = AnalystChoice::Indexes(LeakagePolicy::TranscriptOnly);
    let scanned = run_epoch(&scan, capture, disk);
    ok_run(&indexed, "indexed analyst")?;
    ok_run(&scanned, "scan analyst")?;
    let (a, b) = (indexed.probe.answers(), scanned.probe.answers());
    if a.is_empty() || a != b {
        return Err(format!(
            "indexed answers differ from the TranscriptOnly scan ({} vs {} answers)",
            a.len(),
            b.len()
        ));
    }
    let index_reads = indexed
        .view
        .queries()
        .iter()
        .filter(|q| q.kind == "index")
        .count();
    if index_reads == 0 {
        return Err("the indexed analyst never read through an index".into());
    }
    Ok(format!(
        "{} released answers equal the scan run ({index_reads} indexed reads)",
        a.len()
    ))
}

/// In process on memory, over TCP on memory, and over TCP onto the durable
/// group-commit segment log must agree byte for byte.
pub fn wire_equivalence(scenario: &Scenario, disk: &DiskRun) -> Result<String, String> {
    let run = |deployment| {
        run_epoch(
            scenario,
            EpochOptions {
                deployment: Some(deployment),
                ..EpochOptions::new(Instrument::Untraced)
            },
            disk,
        )
    };
    let local = run(Deployment::InprocMemory);
    same_digest(&local, &run(Deployment::TcpMemory), "in-process vs TCP")?;
    same_digest(
        &local,
        &run(Deployment::TcpSegmentLog),
        "in-process vs TCP + segment log",
    )?;
    Ok(format!(
        "in-process == TCP == TCP + segment log (digest {:016x})",
        local.digest().unwrap_or_default()
    ))
}

/// Every gate of `workload`, on reduced inputs from `seed`.
pub fn run_gates(workload: Workload, seed: u64, disk: &DiskRun) -> Result<Vec<String>, String> {
    let scenario = Scenario::generate(workload, seed, Size::Reduced);
    let mut notes = vec![
        decorator_equivalence(&scenario, disk)?,
        exactness(&scenario, disk)?,
    ];
    match workload {
        Workload::FleetIngest => {}
        Workload::TaxiAnalytics => notes.push(indexed_answers(&scenario, disk)?),
        Workload::WireDurable => notes.push(wire_equivalence(&scenario, disk)?),
    }
    Ok(notes)
}

/// Accounting checks on one timed epoch: every record the owners sent is
/// on the server and in the transcript, and the analyst's ground truth
/// holds every row the owners received.
pub fn check_epoch(scenario: &Scenario, run: &EpochRun) -> Result<(), String> {
    ok_run(run, "timed epoch")?;
    let report = run.report.as_ref().expect("checked by ok_run");
    let sent: u64 = run
        .probe
        .spans()
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ClientSetup | SpanKind::ClientUpdate))
        .map(|s| s.work)
        .sum();
    let transcript: u64 = run.view.update_events().iter().map(|e| e.volume).sum();
    let last = report
        .final_sizes()
        .ok_or("timed epoch: no size sample at the horizon")?;
    if sent != transcript || sent != last.outsourced_records {
        return Err(format!(
            "timed epoch: owners sent {sent} ciphertexts, the transcript shows {transcript}, \
             the server stores {}",
            last.outsourced_records
        ));
    }
    if last.logical_records != scenario.received_rows() {
        return Err(format!(
            "timed epoch: ground truth holds {} rows, owners received {}",
            last.logical_records,
            scenario.received_rows()
        ));
    }
    if report.query_samples.iter().any(|s| !s.l1_error.is_finite()) {
        return Err("timed epoch: a non-finite L1 error".into());
    }
    Ok(())
}
