//! The in-memory span recorder behind the forwarding decorators.
//!
//! Every decorator call becomes a [`Span`]: what was called, when it started
//! and ended, which span caused it, and how much work it carried (records,
//! touched rows or bytes).  Spans stay in memory until the epoch ends; the
//! benchmark then derives self times (a span's duration minus the part its
//! children cover) and writes the spans out.
//!
//! Parents are tracked per thread.  The one cross-thread edge — a server
//! worker running an engine call on behalf of the client call waiting on the
//! socket — is linked through [`Probe`]'s in-flight client span, which is
//! unambiguous because the benchmark drives one closed-loop client thread.

use dpsync_edb::QueryAnswer;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The program layers a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// `dpsync_core::strategy` and the DP mechanisms it calls.
    Strategy,
    /// The owner runtime between a Sync decision and the protocol call:
    /// cache read, dummy padding, ChaCha20 encryption.
    Owner,
    /// The wire client, frame codec, reactor and worker hand-off (client
    /// call time not covered by the server-side engine call).
    Net,
    /// The engine: decrypt, validate, mirror append, views, EMM, queries.
    Engine,
    /// The storage backend: append (including any wait for durability), scan.
    Backend,
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `SyncStrategy::initial_fetch`.
    StrategyInitialFetch,
    /// `SyncStrategy::on_tick`.
    StrategyOnTick,
    /// `SyncStrategy::next_wake`.
    StrategyNextWake,
    /// From a Sync decision to the matching `setup`/`update` call.
    OwnerEncrypt,
    /// `Π_Setup` at the owner's handle.
    ClientSetup,
    /// `Π_Update` at the owner's handle.
    ClientUpdate,
    /// `Π_Query` (scan, view or indexed) at the analyst's handle.
    ClientQuery,
    /// Registrations, statistics and transcript reads at a handle.
    ClientOther,
    /// `Π_Setup` in the engine.
    EngineSetup,
    /// `Π_Update` in the engine.
    EngineUpdate,
    /// A scanned range or selection count.
    EngineQueryCount,
    /// A scanned group-by count.
    EngineQueryGroupBy,
    /// A scanned join count.
    EngineQueryJoin,
    /// A scanned selection.
    EngineQuerySelect,
    /// A materialized-view read.
    EngineQueryView,
    /// An encrypted-multimap read.
    EngineQueryIndexed,
    /// View or index registration.
    EngineRegister,
    /// Statistics and transcript reads in the engine.
    EngineOther,
    /// `StorageBackend::open_table`.
    BackendOpen,
    /// `TableStore::append_batch`, including the wait for durability.
    BackendAppend,
    /// `TableStore::scan`.
    BackendScan,
}

impl SpanKind {
    /// The layer this span's self time belongs to; `None` for the client
    /// handle of an in-process deployment, which is the driver's own call.
    pub fn layer(self, client_layer: Option<Layer>) -> Option<Layer> {
        use SpanKind::*;
        match self {
            StrategyInitialFetch | StrategyOnTick | StrategyNextWake => Some(Layer::Strategy),
            OwnerEncrypt => Some(Layer::Owner),
            ClientSetup | ClientUpdate | ClientQuery | ClientOther => client_layer,
            EngineSetup | EngineUpdate | EngineQueryCount | EngineQueryGroupBy
            | EngineQueryJoin | EngineQuerySelect | EngineQueryView | EngineQueryIndexed
            | EngineRegister | EngineOther => Some(Layer::Engine),
            BackendOpen | BackendAppend | BackendScan => Some(Layer::Backend),
        }
    }

    /// Whether this is a query in the engine (scan, view or indexed).
    pub fn is_engine_query(self) -> bool {
        use SpanKind::*;
        matches!(
            self,
            EngineQueryCount
                | EngineQueryGroupBy
                | EngineQueryJoin
                | EngineQuerySelect
                | EngineQueryView
                | EngineQueryIndexed
        )
    }
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub kind: SpanKind,
    /// Unique within the probe, starting at 1.
    pub id: u32,
    /// The span that caused this one (0 = none: the driver).
    pub parent: u32,
    /// Start, in ns since the probe was created.
    pub start_ns: u64,
    /// End, in ns since the probe was created.
    pub end_ns: u64,
    /// Records carried (setup, update, encrypt), rows touched (queries) or
    /// bytes appended (backend).
    pub work: u64,
    /// Kind-specific second count: ciphertexts per append, the scan-path row
    /// count behind an indexed read.
    pub aux: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Owner-side Sync decisions seen by the strategy decorator.
#[derive(Debug, Default)]
pub struct Decisions {
    /// `Sync` decisions returned by `on_tick`.
    pub syncs: AtomicU64,
    /// Records fetched by all decisions, `initial_fetch` included.
    pub fetched: AtomicU64,
    /// Dummy records those fetches pad with.
    pub dummies: AtomicU64,
}

thread_local! {
    /// The spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// An open span, closed by [`Probe::exit`].
#[derive(Debug)]
pub struct Open {
    kind: SpanKind,
    id: u32,
    parent: u32,
    start_ns: u64,
    client: bool,
}

/// The shared recorder of one simulation epoch.
///
/// Created the instant the epoch's set-up starts, so [`Probe::setup_s`]
/// covers building the engine, backend, server and connections plus every
/// t=0 `Π_Setup`, and ends at the first `on_tick`.
#[derive(Debug)]
pub struct Probe {
    tracing: bool,
    client_layer: Option<Layer>,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    in_flight_client: AtomicU32,
    first_tick: OnceLock<Instant>,
    pending_encrypt: AtomicU64,
    attempted: AtomicU64,
    failed: AtomicU64,
    answers: Option<Mutex<Vec<QueryAnswer>>>,
    /// Decision counters (traced runs only).
    pub decisions: Decisions,
}

impl Probe {
    /// A probe for one epoch.  `tracing` turns on spans below the client
    /// handles; `client_layer` is `Some(Layer::Net)` when the handles are
    /// remote sessions; `capture_answers` keeps every released answer.
    pub fn new(tracing: bool, client_layer: Option<Layer>, capture_answers: bool) -> Arc<Self> {
        Arc::new(Self {
            tracing,
            client_layer,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            in_flight_client: AtomicU32::new(0),
            first_tick: OnceLock::new(),
            pending_encrypt: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            answers: capture_answers.then(|| Mutex::new(Vec::new())),
            decisions: Decisions::default(),
        })
    }

    /// Whether spans below the client handles are recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The layer client-handle spans are attributed to.
    pub fn client_layer(&self) -> Option<Layer> {
        self.client_layer
    }

    /// Nanoseconds since the probe was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the probe's creation to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span on this thread.  A span opened on a thread with nothing
    /// open (a server worker) is parented to the in-flight client call.
    pub fn enter(&self, kind: SpanKind) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let client = matches!(
            kind,
            SpanKind::ClientSetup
                | SpanKind::ClientUpdate
                | SpanKind::ClientQuery
                | SpanKind::ClientOther
        );
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let parent = parent.unwrap_or_else(|| {
            if client {
                0
            } else {
                self.in_flight_client.load(Ordering::SeqCst)
            }
        });
        if client {
            self.in_flight_client.store(id, Ordering::SeqCst);
        }
        Open {
            kind,
            id,
            parent,
            start_ns: self.now_ns(),
            client,
        }
    }

    /// Closes `open` now, with its work counts.
    pub fn exit(&self, open: Open, work: u64, aux: u64) {
        self.exit_at(open, self.now_ns(), work, aux);
    }

    /// Closes `open` at `end_ns`, with its work counts.
    pub fn exit_at(&self, open: Open, end_ns: u64, work: u64, aux: u64) {
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&open.id) {
                stack.pop();
            }
        });
        if open.client {
            self.in_flight_client.store(0, Ordering::SeqCst);
        }
        self.push(Span {
            kind: open.kind,
            id: open.id,
            parent: open.parent,
            start_ns: open.start_ns,
            end_ns,
            work,
            aux,
        });
    }

    /// Records an already-closed top-level span.
    fn record(&self, kind: SpanKind, start_ns: u64, end_ns: u64, work: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            kind,
            id,
            parent: 0,
            start_ns,
            end_ns,
            work,
            aux: 0,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Marks the first `on_tick` (the end of set-up); later calls are no-ops.
    pub fn mark_first_tick(&self) {
        self.first_tick.get_or_init(Instant::now);
    }

    /// The first `on_tick`, if the epoch reached one.
    pub fn first_tick(&self) -> Option<Instant> {
        self.first_tick.get().copied()
    }

    /// Set-up seconds: probe creation to the first `on_tick` (or to `end`
    /// when no owner ever ticked).
    pub fn setup_s(&self, end: Instant) -> f64 {
        self.first_tick()
            .unwrap_or(end)
            .saturating_duration_since(self.origin)
            .as_secs_f64()
    }

    /// Notes that an owner decided to send records now: the owner's cache
    /// read and encryption run until the matching protocol call.
    pub fn note_sync_decision(&self) {
        self.pending_encrypt
            .store(self.now_ns() + 1, Ordering::SeqCst);
    }

    /// Closes the owner-encryption interval opened by the last Sync
    /// decision, ending at `end_ns`.
    pub fn close_encrypt(&self, end_ns: u64, records: u64) {
        let start = self.pending_encrypt.swap(0, Ordering::SeqCst);
        if start != 0 {
            self.record(SpanKind::OwnerEncrypt, start - 1, end_ns, records);
        }
    }

    /// Counts one protocol call made at a client handle.
    pub fn note_attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed call, at any layer.
    pub fn note_failure(&self, failures: u64) {
        self.failed.fetch_add(failures, Ordering::Relaxed);
    }

    /// Protocol calls made at the client handles.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// `Err` results seen by every decorator, plus any failures noted by
    /// the epoch runner.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Keeps a released answer when this probe captures answers.
    pub fn capture(&self, answer: &QueryAnswer) {
        if let Some(answers) = &self.answers {
            answers
                .lock()
                .expect("answer log lock")
                .push(answer.clone());
        }
    }

    /// The captured answers, in release order.
    pub fn answers(&self) -> Vec<QueryAnswer> {
        self.answers
            .as_ref()
            .map(|a| a.lock().expect("answer log lock").clone())
            .unwrap_or_default()
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span (duration minus the time its children cover),
/// indexed like `spans`, which must be sorted by id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent == 0 {
            continue;
        }
        if let Ok(p) = spans.binary_search_by_key(&span.parent, |s| s.id) {
            child_ns[p] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Writes spans as tab-separated `id parent name start_ns end_ns work aux`
/// lines.
pub fn write_tsv(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\twork\taux")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{:?}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.kind, s.start_ns, s.end_ns, s.work, s.aux
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let probe = Probe::new(true, Some(Layer::Net), false);
        let outer = probe.enter(SpanKind::ClientUpdate);
        let inner = probe.enter(SpanKind::EngineUpdate);
        std::thread::sleep(std::time::Duration::from_millis(2));
        probe.exit(inner, 3, 0);
        probe.exit(outer, 3, 0);
        let spans = probe.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
    }

    #[test]
    fn server_side_span_is_parented_to_the_in_flight_client_call() {
        let probe = Probe::new(true, Some(Layer::Net), false);
        let outer = probe.enter(SpanKind::ClientQuery);
        let worker_probe = Arc::clone(&probe);
        std::thread::spawn(move || {
            let open = worker_probe.enter(SpanKind::EngineQueryCount);
            worker_probe.exit(open, 10, 0);
        })
        .join()
        .expect("worker thread");
        probe.exit(outer, 10, 0);
        let spans = probe.spans();
        let engine = spans
            .iter()
            .find(|s| s.kind == SpanKind::EngineQueryCount)
            .expect("engine span");
        assert_eq!(engine.parent, spans[0].id);
    }
}
