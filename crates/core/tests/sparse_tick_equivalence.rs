//! Sparse-tick equivalence suite: eliding idle ticks must be invisible in
//! everything DP-Sync's guarantees are stated over.
//!
//! The sparse-tick scheduler ([`Simulation::run_sparse`], ARCHITECTURE.md
//! §9) skips every tick on which no owner has work.  Definition 2's
//! adversary observes the update pattern — the set of `(t, |γ_t|)` events —
//! and the analyst observes query answers at tick boundaries, so on a
//! fixed-seed workload the sparse driver must leave three things
//! byte-identical to the dense reference driver:
//!
//! 1. every query answer the analyst receives,
//! 2. the full [`SimulationReport::normalized`] (errors, sizes, sync
//!    counts), and
//! 3. the complete adversary view (update pattern, query transcript, byte
//!    totals) that the privacy verifier consumes.
//!
//! The suite covers every engine × {SET, DP-Timer, DP-ANT} — the strategies
//! with the three distinct wake behaviours (dense every tick, boundary-only,
//! dense with per-tick noise) — plus a churn workload where owners join and
//! leave mid-run, exercising deferred `Π_Setup` on both drivers.

use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig, TableWorkload};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
    SynchronizeEveryTime,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::engines::EngineKind;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

fn make_table(name: &str, offset: u64, horizon: u64) -> TableWorkload {
    TableWorkload {
        table: name.into(),
        schema: schema(),
        initial_rows: (0..8).map(|i| row(0, 40 + offset as i64 + i)).collect(),
        arrivals: (1..=horizon)
            .map(|t| {
                if (t + offset).is_multiple_of(3) {
                    vec![row(t, ((t + offset) % 150) as i64)]
                } else if (t + offset).is_multiple_of(17) {
                    vec![row(t, 60), row(t, 61)]
                } else {
                    vec![]
                }
            })
            .collect(),
        join_time: 0,
        leave_time: None,
    }
}

/// The backend-equivalence suite's two-table workload: bursts and quiet
/// stretches, no churn.
fn steady_workloads(horizon: u64) -> Vec<TableWorkload> {
    vec![
        make_table("yellow", 0, horizon),
        make_table("green", 5, horizon),
    ]
}

/// Three tables with churn: `yellow` is present for the whole run (and is
/// the only table queried), `late` joins mid-run, `early` leaves mid-run.
fn churn_workloads(horizon: u64) -> Vec<TableWorkload> {
    let mut late = make_table("late", 2, horizon);
    late.join_time = horizon / 3;
    let mut early = make_table("early", 7, horizon);
    early.leave_time = Some(horizon / 2);
    vec![make_table("yellow", 0, horizon), late, early]
}

fn simulation(horizon: u64, seed: u64, join: bool) -> Simulation {
    let mut queries = vec![
        ("Q1".into(), paper_queries::q1_range_count("yellow")),
        ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
    ];
    if join {
        queries.push(("Q3".into(), paper_queries::q3_join_count("yellow", "green")));
    }
    Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries,
        seed,
    })
}

fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    match kind {
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            30,
            Some(CacheFlush::new(300, 15)),
        )),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            15,
            Some(CacheFlush::new(300, 15)),
        )),
        other => panic!("not used in this suite: {other:?}"),
    }
}

enum Driver {
    Sequential,
    Sparse,
}

/// Runs one fixed-seed simulation through the chosen driver; returns the
/// normalized report and the final adversary view.
fn run_driver(
    driver: Driver,
    engine: &dyn SecureOutsourcedDatabase,
    dense: &[TableWorkload],
    kind: StrategyKind,
    horizon: u64,
    seed: u64,
) -> (SimulationReport, AdversaryView) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let join = matches!(engine.name(), "oblidb") && dense.iter().any(|w| w.table == "green");
    let sim = simulation(horizon, seed, join);
    let report = match driver {
        Driver::Sequential => sim.run(dense, engine, &master, |_| strategy_for(kind)),
        Driver::Sparse => {
            let sparse: Vec<OwnerWorkload> = dense.iter().map(OwnerWorkload::from).collect();
            sim.run_sparse(&sparse, horizon, engine, &master, |_| strategy_for(kind))
        }
    }
    .expect("simulation succeeds")
    .normalized();
    (report, engine.adversary_view())
}

fn assert_drivers_agree(
    workloads_for: impl Fn(u64) -> Vec<TableWorkload>,
    horizon: u64,
    seed: u64,
    label: &str,
) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let dense = workloads_for(horizon);
    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            let reference_engine = engine_kind.build(&master);
            let (reference_report, reference_view) = run_driver(
                Driver::Sequential,
                reference_engine.as_ref(),
                &dense,
                strategy,
                horizon,
                seed,
            );

            let engine = engine_kind.build(&master);
            let (report, view) = run_driver(
                Driver::Sparse,
                engine.as_ref(),
                &dense,
                strategy,
                horizon,
                seed,
            );
            assert_eq!(
                reference_report, report,
                "{label}: report mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                reference_view, view,
                "{label}: adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{reference_view:?}"),
                format!("{view:?}"),
                "{label}: debug rendering must also be byte-identical"
            );
        }
    }
}

#[test]
fn sparse_driver_matches_the_sequential_reference() {
    assert_drivers_agree(steady_workloads, 360, 7, "steady");
}

#[test]
fn churn_workload_is_driver_invariant() {
    // Owners joining and leaving mid-run: deferred Π_Setup at the join tick
    // and an abandoned cache after the leave tick must look the same through
    // both drivers — reports, query answers, and adversary transcripts.
    assert_drivers_agree(churn_workloads, 300, 23, "churn");
}

#[test]
fn join_tick_arrivals_are_delivered_and_driver_invariant() {
    // Regression for the churn off-by-one: the active window used to start
    // strictly after the join tick, so a record arriving exactly when its
    // owner joined was silently dropped from both the owner's cache and the
    // ground truth.  The join tick now runs the deferred Π_Setup followed by
    // a normal tick on both drivers.
    let horizon = 42u64;
    let master = MasterKey::from_bytes([0xEE; 32]);
    let workloads_for = |horizon: u64| {
        let mut arrivals: Vec<Vec<Row>> = vec![Vec::new(); horizon as usize];
        arrivals[13] = vec![row(14, 7)]; // t = 14: exactly the join tick
        arrivals[27] = vec![row(28, 8)]; // t = 28: mid-window control
        let late = TableWorkload {
            table: "late".into(),
            schema: schema(),
            initial_rows: (0..3).map(|i| row(0, 60 + i)).collect(),
            arrivals,
            join_time: 14,
            leave_time: None,
        };
        vec![make_table("yellow", 0, horizon), late]
    };
    assert_drivers_agree(workloads_for, horizon, 31, "join-tick arrival");

    // And the join-tick record actually lands: with SET every active tick
    // syncs, so by the horizon the mirror holds all five real records —
    // three initial rows plus both arrivals, including the join-tick one.
    let engine = EngineKind::ObliDb.build(&master);
    let dense = workloads_for(horizon);
    run_driver(
        Driver::Sparse,
        engine.as_ref(),
        &dense,
        StrategyKind::Set,
        horizon,
        31,
    );
    assert_eq!(engine.table_stats("late").real_records, 5);
}

#[test]
fn sparse_driver_accepts_sparse_native_churn_workloads() {
    // The same invariants hold when the workload is authored sparse-first
    // (event lists with join/leave) and densified for the reference driver —
    // the round trip OwnerWorkload -> TableWorkload -> OwnerWorkload is
    // semantics-preserving.
    let horizon = 300u64;
    let master = MasterKey::from_bytes([0xEE; 32]);
    let dense = churn_workloads(horizon);
    let sparse: Vec<OwnerWorkload> = dense.iter().map(OwnerWorkload::from).collect();
    let redensified: Vec<TableWorkload> = sparse.iter().map(|w| w.to_dense(horizon)).collect();

    let reference_engine = EngineKind::ObliDb.build(&master);
    let (reference_report, reference_view) = run_driver(
        Driver::Sequential,
        reference_engine.as_ref(),
        &redensified,
        StrategyKind::DpTimer,
        horizon,
        23,
    );
    let sparse_engine = EngineKind::ObliDb.build(&master);
    let (sparse_report, sparse_view) = run_driver(
        Driver::Sparse,
        sparse_engine.as_ref(),
        &dense,
        StrategyKind::DpTimer,
        horizon,
        23,
    );
    assert_eq!(reference_report, sparse_report);
    assert_eq!(reference_view, sparse_view);
}
