//! Multi-owner concurrency: two owners driving `Π_Update` against one shared
//! engine from separate threads, with a barrier per time unit, must leave the
//! adversary with exactly the transcript a single-threaded run produces.
//!
//! This is the execution-model half of Definition 2: the update pattern is a
//! set of `(t, |γ_t|)` events, so as long as no upload crosses a tick
//! boundary, intra-tick interleaving of per-table uploads must be invisible
//! in the canonical merged [`AdversaryView`].
//!
//! The concurrent run takes two engine inputs: the in-process engine, and
//! the same engine behind a shared-mode loopback server reached through one
//! [`RemoteEdb`] handle, so both owner threads call that handle at once and
//! its connection must serialize their request/response pairs.

use dpsync_core::owner::Owner;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, StrategyKind, SyncStrategy, SynchronizeEveryTime,
    SynchronizeUponReceipt,
};
use dpsync_core::timeline::Timestamp;
use dpsync_crypto::MasterKey;
use dpsync_dp::{DpRng, Epsilon};
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::view::AdversaryView;
use dpsync_edb::{DataType, Row, Schema, Value};
use dpsync_net::{EdbTcpServer, EngineProvider, RemoteEdb};
use std::sync::{Arc, Barrier};
use std::thread;

const HORIZON: u64 = 600;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

/// Table-specific arrivals: yellow receives on even ticks, green on ticks
/// divisible by 3, so the two owners' sync schedules genuinely interleave.
fn arrivals(table: &str, t: u64) -> Vec<Row> {
    match table {
        "yellow" if t.is_multiple_of(2) => vec![row(t, (t % 100) as i64)],
        "green" if t.is_multiple_of(3) => vec![row(t, (t % 50) as i64)],
        _ => vec![],
    }
}

fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    match kind {
        StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            10,
            Some(CacheFlush::new(150, 5)),
        )),
        other => panic!("not exercised here: {other:?}"),
    }
}

fn make_owner(table: &str, master: &MasterKey, kind: StrategyKind) -> (Owner, DpRng) {
    let owner = Owner::new(table, schema(), master, strategy_for(kind));
    let rng = DpRng::seed_from_u64(41).derive(&format!("owner-ticks/{table}"));
    (owner, rng)
}

/// The single-threaded reference: owners tick back to back on one thread.
fn sequential_transcript(kind: StrategyKind) -> AdversaryView {
    let master = MasterKey::from_bytes([8u8; 32]);
    let engine = ObliDbEngine::new(&master);
    let mut owners: Vec<(Owner, DpRng)> = ["yellow", "green"]
        .iter()
        .map(|table| make_owner(table, &master, kind))
        .collect();
    for (owner, rng) in &mut owners {
        owner.setup(vec![row(0, 1)], &engine, rng).unwrap();
    }
    for t in 1..=HORIZON {
        for (owner, rng) in &mut owners {
            let batch = arrivals(owner.table(), t);
            owner.tick(Timestamp(t), &batch, &engine, rng).unwrap();
        }
    }
    engine.adversary_view()
}

/// Where the concurrent run's owners send their calls.
#[derive(Debug, Clone, Copy)]
enum EngineInput {
    InProcess,
    SharedRemote,
}

/// The concurrent run on a fresh engine of the given input.
fn interleaved_transcript(kind: StrategyKind, input: EngineInput) -> AdversaryView {
    let master = MasterKey::from_bytes([8u8; 32]);
    match input {
        EngineInput::InProcess => interleaved_run(&ObliDbEngine::new(&master), &master, kind),
        EngineInput::SharedRemote => {
            let engine: Arc<dyn SecureOutsourcedDatabase> = Arc::new(ObliDbEngine::new(&master));
            let server = EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(engine))
                .expect("loopback server binds");
            let remote = RemoteEdb::connect(server.local_addr()).expect("shared session opens");
            let view = interleaved_run(&remote, &master, kind);
            assert_eq!(server.handler_panics(), 0);
            view
        }
    }
}

/// One thread per owner, barrier-synchronized per tick, both calling
/// `Π_Update` through the same engine handle.
fn interleaved_run(
    engine: &dyn SecureOutsourcedDatabase,
    master: &MasterKey,
    kind: StrategyKind,
) -> AdversaryView {
    // Setup runs on the main thread (the paper's Π_Setup precedes the
    // synchronized timeline).
    let mut owners: Vec<(Owner, DpRng)> = ["yellow", "green"]
        .iter()
        .map(|table| make_owner(table, master, kind))
        .collect();
    for (owner, rng) in &mut owners {
        owner.setup(vec![row(0, 1)], engine, rng).unwrap();
    }

    let barrier = Barrier::new(owners.len());
    thread::scope(|scope| {
        for (mut owner, mut rng) in owners.drain(..) {
            let barrier = &barrier;
            scope.spawn(move || {
                for t in 1..=HORIZON {
                    barrier.wait();
                    let batch = arrivals(owner.table(), t);
                    owner.tick(Timestamp(t), &batch, engine, &mut rng).unwrap();
                }
            });
        }
    });
    engine.adversary_view()
}

#[test]
fn interleaved_owners_produce_the_reference_transcript() {
    for kind in [StrategyKind::Sur, StrategyKind::Set, StrategyKind::DpAnt] {
        let reference = sequential_transcript(kind);
        for input in [EngineInput::InProcess, EngineInput::SharedRemote] {
            let interleaved = interleaved_transcript(kind, input);
            assert_eq!(
                reference, interleaved,
                "merged transcript diverged from the single-threaded reference for \
                 {kind:?} on {input:?}"
            );
        }
        // Sanity: the run actually produced interleavable work.
        assert!(reference.update_pattern().len() > 10, "{kind:?} too quiet");
    }
}

#[test]
fn merged_transcript_is_time_ordered_with_table_tiebreak() {
    let view = interleaved_transcript(StrategyKind::Set, EngineInput::InProcess);
    let events = view.update_events();
    assert!(
        events.windows(2).all(|w| w[0].time <= w[1].time),
        "canonical transcript must be time-sorted"
    );
    // SET posts one upload per table per tick: every tick appears twice.
    let times: Vec<u64> = view.update_pattern().times();
    for t in 1..=HORIZON {
        assert_eq!(
            times.iter().filter(|&&x| x == t).count(),
            2,
            "tick {t} should carry one upload per owner"
        );
    }
}
