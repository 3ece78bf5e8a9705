//! The benchmark's own contract: its decorators change nothing the program
//! computes, its gates pass, and its inputs are a pure function of the seed.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use dpsync_core::strategy::{StrategyKind, SyncDecision, SyncStrategy, TickContext};
use dpsync_crypto::EncryptedRecord;
use dpsync_dp::Epsilon;
use dpsync_edb::cost::CostModel;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::leakage::LeakageProfile;
use dpsync_edb::{
    AdversaryView, EdbError, Query, QueryOutcome, Schema, SecureOutsourcedDatabase, TableStats,
    ViewDef,
};
use perfbench::decor::{TracedEdb, TracedStrategy};
use perfbench::epoch::{run_epoch, DiskRun, EpochOptions, Instrument};
use perfbench::gates::{decorator_equivalence, run_gates};
use perfbench::scenario::{Scenario, Size, Workload};
use perfbench::trace::Probe;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Keeps the wire workload's segment logs inside the build directory.
fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("DPSYNC_DISK_ROOT", env!("CARGO_TARGET_TMPDIR")));
}

#[test]
fn decorated_and_bare_runs_are_byte_identical_on_every_workload() {
    init();
    for workload in Workload::ALL {
        let scenario = Scenario::generate(workload, 2021, Size::Reduced);
        if let Err(e) = decorator_equivalence(&scenario, &DiskRun::new()) {
            panic!("{}: {e}", workload.name());
        }
    }
}

#[test]
fn every_gate_passes_at_reduced_size() {
    init();
    for workload in Workload::ALL {
        if let Err(e) = run_gates(workload, 7, &DiskRun::new()) {
            panic!("{}: {e}", workload.name());
        }
    }
}

#[test]
fn same_seed_same_digest_and_different_seeds_different_inputs() {
    init();
    for workload in Workload::ALL {
        let a = Scenario::generate(workload, 11, Size::Reduced);
        let b = Scenario::generate(workload, 11, Size::Reduced);
        let c = Scenario::generate(workload, 12, Size::Reduced);
        assert_eq!(a.inputs_digest(), b.inputs_digest(), "{}", workload.name());
        assert_ne!(a.inputs_digest(), c.inputs_digest(), "{}", workload.name());
        let disk = DiskRun::new();
        let run =
            |s: &Scenario| run_epoch(s, EpochOptions::new(Instrument::Untraced), &disk).digest();
        let (da, db) = (run(&a), run(&b));
        assert!(da.is_some(), "{}: the epoch aborted", workload.name());
        assert_eq!(da, db, "{}", workload.name());
    }
}

/// A decorator in the shape of `exp_scale`'s `LatencyProbe`: it forwards the
/// views but inherits the index methods' defaults.
struct ViewsOnlyProbe(Arc<dyn SecureOutsourcedDatabase>);

impl SecureOutsourcedDatabase for ViewsOnlyProbe {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn leakage_profile(&self) -> LeakageProfile {
        self.0.leakage_profile()
    }
    fn cost_model(&self) -> CostModel {
        self.0.cost_model()
    }
    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.0.setup(table, schema, records)
    }
    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.0.update(table, time, records)
    }
    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.0.query(query, rng)
    }
    fn supports(&self, query: &Query) -> bool {
        self.0.supports(query)
    }
    fn table_stats(&self, table: &str) -> TableStats {
        self.0.table_stats(table)
    }
    fn adversary_view(&self) -> AdversaryView {
        self.0.adversary_view()
    }
    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.0.register_view(def)
    }
    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.0.query_view(name, rng)
    }
}

#[test]
fn a_decorator_missing_the_index_methods_is_caught_by_the_transcript() {
    let scenario = Scenario::generate(Workload::TaxiAnalytics, 5, Size::Reduced);
    let sim = scenario.simulation();
    let view_through =
        |wrap: &dyn Fn(Arc<dyn SecureOutsourcedDatabase>) -> Box<dyn SecureOutsourcedDatabase>| {
            let engine: Arc<dyn SecureOutsourcedDatabase> =
                Arc::new(ObliDbEngine::new(&scenario.master));
            let handle = wrap(Arc::clone(&engine));
            sim.run_sparse(
                &scenario.fleet,
                scenario.horizon,
                &*handle,
                &scenario.master,
                |_| scenario.make_strategy(),
            )
            .expect("the run succeeds");
            engine.adversary_view()
        };
    let incomplete =
        view_through(&|e| Box::new(ViewsOnlyProbe(e)) as Box<dyn SecureOutsourcedDatabase>);
    let reference = view_through(&|e| {
        Box::new(TracedEdb::client(e, Probe::new(false, None, false)))
            as Box<dyn SecureOutsourcedDatabase>
    });
    let index_reads = |v: &AdversaryView| v.queries().iter().filter(|q| q.kind == "index").count();
    assert_eq!(
        index_reads(&incomplete),
        0,
        "the incomplete probe silently scans"
    );
    assert!(
        index_reads(&reference) > 0,
        "the full decorator keeps the indexed path"
    );
    assert_ne!(
        incomplete, reference,
        "the equivalence check sees the difference"
    );
}

/// A strategy wrapper that counts `on_tick` calls but inherits the dense
/// `next_wake` default.
struct DenseWrapper(Box<dyn SyncStrategy>, Arc<AtomicU64>);

impl SyncStrategy for DenseWrapper {
    fn kind(&self) -> StrategyKind {
        self.0.kind()
    }
    fn epsilon(&self) -> Option<Epsilon> {
        self.0.epsilon()
    }
    fn initial_fetch(&mut self, initial_size: u64, rng: &mut dyn RngCore) -> u64 {
        self.0.initial_fetch(initial_size, rng)
    }
    fn on_tick(&mut self, ctx: &TickContext, rng: &mut dyn RngCore) -> SyncDecision {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.on_tick(ctx, rng)
    }
}

#[test]
fn a_strategy_wrapper_on_the_dense_default_keeps_transcripts_but_not_the_schedule() {
    let scenario = Scenario::generate(Workload::FleetIngest, 9, Size::Reduced);
    let sim = scenario.simulation();
    let owner_ticks = scenario.fleet.len() as u64 * scenario.horizon;

    let dense_calls = Arc::new(AtomicU64::new(0));
    let dense_engine = ObliDbEngine::new(&scenario.master);
    let dense = sim
        .run_sparse(
            &scenario.fleet,
            scenario.horizon,
            &dense_engine,
            &scenario.master,
            |_| {
                Box::new(DenseWrapper(
                    scenario.make_strategy(),
                    Arc::clone(&dense_calls),
                ))
            },
        )
        .expect("the run succeeds")
        .normalized();

    let probe = Probe::new(true, None, false);
    let engine = ObliDbEngine::new(&scenario.master);
    let traced = sim
        .run_sparse(
            &scenario.fleet,
            scenario.horizon,
            &engine,
            &scenario.master,
            |_| {
                Box::new(TracedStrategy::new(
                    scenario.make_strategy(),
                    Arc::clone(&probe),
                ))
            },
        )
        .expect("the run succeeds")
        .normalized();
    let sparse_calls = probe
        .spans()
        .iter()
        .filter(|s| s.kind == perfbench::trace::SpanKind::StrategyOnTick)
        .count() as u64;

    // Identical transcripts: only the call count tells the two apart.
    assert_eq!(dense, traced);
    assert_eq!(dense_engine.adversary_view(), engine.adversary_view());
    assert!(
        dense_calls.load(Ordering::Relaxed) * 2 > owner_ticks,
        "the default wakes every tick"
    );
    assert!(
        sparse_calls * 4 < owner_ticks,
        "{sparse_calls} on_tick calls of {owner_ticks}"
    );
}
