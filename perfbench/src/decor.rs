//! Forwarding decorators around the program's layer boundaries.
//!
//! Each decorator delegates every method of the trait it wraps — including
//! the ones with default bodies, which a decorator must never inherit: a
//! `SecureOutsourcedDatabase` wrapper that kept the default
//! `register_index` would turn an indexed analyst into a silent scanner, and
//! a `SyncStrategy` wrapper that kept the default `next_wake` would turn the
//! sparse driver dense.  The benchmark's equivalence tests pin both.

use crate::trace::{Open, Probe, SpanKind};
use bytes::Bytes;
use dpsync_core::strategy::{StrategyKind, SyncDecision, SyncStrategy, TickContext};
use dpsync_core::timeline::Timestamp;
use dpsync_crypto::EncryptedRecord;
use dpsync_dp::{Epsilon, PrivacyAccountant};
use dpsync_edb::backend::AppendAck;
use dpsync_edb::cost::CostModel;
use dpsync_edb::leakage::{LeakageProfile, UpdateEvent};
use dpsync_edb::{
    AdversaryView, EdbError, IndexDef, Query, QueryOutcome, Schema, SecureOutsourcedDatabase,
    StorageBackend, StorageError, TableStats, TableStore, ViewDef,
};
use rand::RngCore;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which side of the wire an engine decorator sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The owner's or the analyst's handle: end-to-end latencies, attempts,
    /// released answers.
    Client,
    /// The engine itself (in process, or behind the TCP server).
    Engine,
}

/// A `SecureOutsourcedDatabase` that forwards every call and records it.
pub struct TracedEdb {
    inner: Arc<dyn SecureOutsourcedDatabase>,
    probe: Arc<Probe>,
    role: Role,
}

impl TracedEdb {
    /// Wraps a handle the owner or the analyst calls.
    pub fn client(inner: Arc<dyn SecureOutsourcedDatabase>, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            role: Role::Client,
        }
    }

    /// Wraps an engine (the `Arc` handed to the server, or the in-process
    /// engine below the client handle).
    pub fn engine(inner: Arc<dyn SecureOutsourcedDatabase>, probe: Arc<Probe>) -> Self {
        Self {
            inner,
            probe,
            role: Role::Engine,
        }
    }

    fn is_client(&self) -> bool {
        self.role == Role::Client
    }

    /// Opens a span when this call is recorded: client-handle protocol calls
    /// always (they carry the end-to-end latencies), everything else only in
    /// traced runs.
    fn enter(&self, client_kind: SpanKind, engine_kind: SpanKind, always: bool) -> Option<Open> {
        if self.is_client() {
            self.probe.note_attempt();
            (always || self.probe.tracing()).then(|| self.probe.enter(client_kind))
        } else {
            Some(self.probe.enter(engine_kind))
        }
    }

    fn exit<T>(&self, open: Option<Open>, result: &Result<T, EdbError>, work: u64, aux: u64) {
        if result.is_err() {
            self.probe.note_failure(1);
        }
        if let Some(open) = open {
            self.probe.exit(open, work, aux);
        }
    }

    fn query_outcome(
        &self,
        kind: SpanKind,
        scan_rows: impl FnOnce() -> u64,
        call: impl FnOnce() -> Result<QueryOutcome, EdbError>,
    ) -> Result<QueryOutcome, EdbError> {
        let open = self.enter(SpanKind::ClientQuery, kind, true);
        let result = call();
        let end_ns = self.probe.now_ns();
        if result.is_err() {
            self.probe.note_failure(1);
        }
        let touched = result.as_ref().map_or(0, |o| o.touched_records);
        // The scan-path row count behind an indexed read is taken after the
        // span's end time, so it costs the measured call nothing.
        let rows = if result.is_ok() && kind == SpanKind::EngineQueryIndexed && !self.is_client() {
            scan_rows()
        } else {
            0
        };
        if let Some(open) = open {
            self.probe.exit_at(open, end_ns, touched, rows);
        }
        if let (Ok(outcome), true) = (&result, self.is_client()) {
            self.probe.capture(&outcome.answer);
        }
        result
    }
}

fn query_kind(query: &Query) -> SpanKind {
    match query {
        Query::Count { .. } => SpanKind::EngineQueryCount,
        Query::GroupByCount { .. } => SpanKind::EngineQueryGroupBy,
        Query::JoinCount { .. } => SpanKind::EngineQueryJoin,
        Query::Select { .. } => SpanKind::EngineQuerySelect,
    }
}

impl SecureOutsourcedDatabase for TracedEdb {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn leakage_profile(&self) -> LeakageProfile {
        self.inner.leakage_profile()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let n = records.len() as u64;
        if self.is_client() && self.probe.tracing() {
            self.probe.close_encrypt(self.probe.now_ns(), n);
        }
        let open = self.enter(SpanKind::ClientSetup, SpanKind::EngineSetup, true);
        let result = self.inner.setup(table, schema, records);
        self.exit(open, &result, n, 0);
        result
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let n = records.len() as u64;
        if self.is_client() && self.probe.tracing() {
            self.probe.close_encrypt(self.probe.now_ns(), n);
        }
        let open = self.enter(SpanKind::ClientUpdate, SpanKind::EngineUpdate, true);
        let result = self.inner.update(table, time, records);
        self.exit(open, &result, n, 0);
        result
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.query_outcome(query_kind(query), || 0, || self.inner.query(query, rng))
    }

    fn supports(&self, query: &Query) -> bool {
        self.inner.supports(query)
    }

    fn table_stats(&self, table: &str) -> TableStats {
        let open = self.enter(SpanKind::ClientOther, SpanKind::EngineOther, false);
        let stats = self.inner.table_stats(table);
        self.exit::<()>(open, &Ok(()), 0, 0);
        stats
    }

    fn adversary_view(&self) -> AdversaryView {
        let open = self.enter(SpanKind::ClientOther, SpanKind::EngineOther, false);
        let view = self.inner.adversary_view();
        self.exit::<()>(open, &Ok(()), 0, 0);
        view
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        let open = self.enter(SpanKind::ClientOther, SpanKind::EngineRegister, false);
        let result = self.inner.register_view(def);
        self.exit(open, &result, 0, 0);
        result
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.query_outcome(
            SpanKind::EngineQueryView,
            || 0,
            || self.inner.query_view(name, rng),
        )
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        let open = self.enter(SpanKind::ClientOther, SpanKind::EngineRegister, false);
        let result = self.inner.register_index(def);
        self.exit(open, &result, 0, 0);
        result
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.query_outcome(
            SpanKind::EngineQueryIndexed,
            || {
                query
                    .tables()
                    .iter()
                    .map(|t| self.inner.table_stats(t).ciphertext_count)
                    .sum()
            },
            || self.inner.query_indexed(name, query, rng),
        )
    }
}

/// A `SyncStrategy` that forwards every call, marks the end of set-up at the
/// first `on_tick`, and in traced runs records spans and decisions.
pub struct TracedStrategy {
    inner: Box<dyn SyncStrategy>,
    probe: Arc<Probe>,
}

impl TracedStrategy {
    /// Wraps one owner's strategy.
    pub fn new(inner: Box<dyn SyncStrategy>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }

    fn note_fetch(&self, fetch: u64, available: u64) {
        let d = &self.probe.decisions;
        d.fetched.fetch_add(fetch, Ordering::Relaxed);
        d.dummies
            .fetch_add(fetch.saturating_sub(available), Ordering::Relaxed);
    }
}

impl SyncStrategy for TracedStrategy {
    fn kind(&self) -> StrategyKind {
        self.inner.kind()
    }

    fn epsilon(&self) -> Option<Epsilon> {
        self.inner.epsilon()
    }

    fn initial_fetch(&mut self, initial_size: u64, rng: &mut dyn RngCore) -> u64 {
        if !self.probe.tracing() {
            return self.inner.initial_fetch(initial_size, rng);
        }
        let open = self.probe.enter(SpanKind::StrategyInitialFetch);
        let fetch = self.inner.initial_fetch(initial_size, rng);
        self.probe.exit(open, fetch, 0);
        self.note_fetch(fetch, initial_size);
        // `Π_Setup` always follows, even for an empty fetch.
        self.probe.note_sync_decision();
        fetch
    }

    fn on_tick(&mut self, ctx: &TickContext, rng: &mut dyn RngCore) -> SyncDecision {
        self.probe.mark_first_tick();
        if !self.probe.tracing() {
            return self.inner.on_tick(ctx, rng);
        }
        let open = self.probe.enter(SpanKind::StrategyOnTick);
        let decision = self.inner.on_tick(ctx, rng);
        self.probe.exit(open, decision.fetch(), 0);
        if decision.is_sync() {
            self.probe.decisions.syncs.fetch_add(1, Ordering::Relaxed);
            self.note_fetch(decision.fetch(), ctx.cache_len);
            // An empty fetch sends nothing, so no protocol call follows.
            if decision.fetch() > 0 {
                self.probe.note_sync_decision();
            }
        }
        decision
    }

    fn next_wake(&self, now: Timestamp) -> Option<Timestamp> {
        if !self.probe.tracing() {
            return self.inner.next_wake(now);
        }
        let open = self.probe.enter(SpanKind::StrategyNextWake);
        let wake = self.inner.next_wake(now);
        self.probe.exit(open, 0, 0);
        wake
    }

    fn accountant(&self) -> Option<&PrivacyAccountant> {
        self.inner.accountant()
    }
}

/// A `StorageBackend` whose tables are [`TracedStore`]s.
pub struct TracedBackend {
    inner: Arc<dyn StorageBackend>,
    probe: Arc<Probe>,
}

impl TracedBackend {
    /// Wraps the backend handed to `ObliDbEngine::with_backend`.
    pub fn new(inner: Arc<dyn StorageBackend>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl std::fmt::Debug for TracedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedBackend")
            .field("inner", &self.inner)
            .finish()
    }
}

impl StorageBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open_table(&self, table: &str) -> Result<Box<dyn TableStore>, StorageError> {
        let open = self.probe.enter(SpanKind::BackendOpen);
        let result = self.inner.open_table(table);
        self.probe.exit(open, 0, 0);
        match result {
            Ok(inner) => Ok(Box::new(TracedStore {
                inner,
                probe: Arc::clone(&self.probe),
            })),
            Err(e) => {
                self.probe.note_failure(1);
                Err(e)
            }
        }
    }

    fn existing_tables(&self) -> Result<Vec<String>, StorageError> {
        let result = self.inner.existing_tables();
        if result.is_err() {
            self.probe.note_failure(1);
        }
        result
    }
}

/// A `TableStore` that forwards every call and records appends and scans.
pub struct TracedStore {
    inner: Box<dyn TableStore>,
    probe: Arc<Probe>,
}

impl std::fmt::Debug for TracedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedStore")
            .field("inner", &self.inner)
            .finish()
    }
}

impl TableStore for TracedStore {
    /// Appends and then waits for durability inside the span, so
    /// `backend.append` includes any group-commit wait.  The engine would
    /// wait on the same ticket right after releasing its shard lock; with one
    /// closed-loop client there is never a second appender that the held
    /// lock could delay, so the wait moves but does not change.
    fn append_batch(
        &mut self,
        time: u64,
        ciphertexts: &[Bytes],
    ) -> Result<AppendAck, StorageError> {
        let bytes: u64 = ciphertexts.iter().map(|c| c.len() as u64).sum();
        let open = self.probe.enter(SpanKind::BackendAppend);
        let result = self
            .inner
            .append_batch(time, ciphertexts)
            .and_then(|ack| ack.wait().map(|()| AppendAck::Durable));
        self.probe.exit(open, bytes, ciphertexts.len() as u64);
        if result.is_err() {
            self.probe.note_failure(1);
        }
        result
    }

    fn ciphertext_count(&self) -> u64 {
        self.inner.ciphertext_count()
    }

    fn ciphertext_bytes(&self) -> u64 {
        self.inner.ciphertext_bytes()
    }

    fn updates(&self) -> &[UpdateEvent] {
        self.inner.updates()
    }

    fn scan(&self, visit: &mut dyn FnMut(&[u8])) -> Result<(), StorageError> {
        let open = self.probe.enter(SpanKind::BackendScan);
        let mut visited = 0u64;
        let result = self.inner.scan(&mut |c| {
            visited += 1;
            visit(c);
        });
        self.probe.exit(open, visited, 0);
        if result.is_err() {
            self.probe.note_failure(1);
        }
        result
    }
}
