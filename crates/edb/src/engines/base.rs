//! Shared plumbing for the simulated engines.
//!
//! Both engines follow the same storage discipline:
//!
//! 1. Every `Π_Setup` / `Π_Update` batch is stored as ciphertext on the
//!    [`ServerStorage`] (this is what the adversary sees and what the size
//!    metrics measure), and
//! 2. decrypted once into an internal plaintext mirror ("inside the enclave"
//!    for ObliDB, "inside the MPC" for Crypt-ε) with the recovered
//!    `is_dummy` flag appended, so queries can be executed with the
//!    dummy-aware rewriting of Appendix B.
//!
//! The engines differ only in leakage, cost model, answer perturbation and
//! query support, which live in their own modules.
//!
//! # Concurrency
//!
//! [`EngineCore`] is sharded the same way the server storage is: the
//! decrypted mirror of each table sits behind its own `RwLock`, and the table
//! map is only write-locked at `Π_Setup` time.  `ingest` therefore takes
//! `&self` and serializes only with other operations on the *same* table, so
//! one owner per table can run `Π_Update` concurrently (the paper's
//! multi-table workload: "yellow" + "green").  Queries take read locks on the
//! tables they touch, mirroring an enclave that scans a stable snapshot.

use crate::backend::{StorageBackend, StorageError};
use crate::emm::{EncryptedMultimap, IndexDef};
use crate::exec::{self, ExecError};
use crate::query::{Query, QueryAnswer};
use crate::rewrite;
use crate::row::Row;
use crate::schema::{Schema, Value};
use crate::server::ServerStorage;
use crate::sogdb::{EdbError, TableStats};
use crate::views::{MaterializedView, ViewDef};
use bytes::Bytes;
use dpsync_crypto::{EncryptedRecord, KeyPurpose, MasterKey, Prf, RecordCryptor};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One decrypted table held inside the trusted boundary of the engine.
#[derive(Debug, Clone)]
pub struct EngineTable {
    /// Schema extended with the `is_dummy` flag column.
    pub schema: Schema,
    /// Decrypted rows (flag column included).
    pub rows: Vec<Row>,
    /// Number of real records ingested.
    pub real_records: u64,
    /// Number of dummy records ingested.
    pub dummy_records: u64,
    /// Index of the `is_dummy` flag column, cached at `Π_Setup` so queries
    /// and ingest never search the schema by name.
    pub flag_column: usize,
    /// The padded dummy row for this schema (all NULLs plus `is_dummy =
    /// true`), precomputed once at `Π_Setup` and cloned per ingested dummy.
    pub dummy_row: Row,
    /// Materialized views registered over this table, maintained
    /// incrementally by `ingest` under the same per-table lock (so a view
    /// answer can never be observed out of sync with the mirror).
    pub views: BTreeMap<String, MaterializedView>,
    /// Encrypted multimap indexes registered over this table, maintained by
    /// `ingest` under the same per-table lock and with the same one-step-per-
    /// record discipline as the views (dummies file under the dummy label).
    pub indexes: BTreeMap<String, EncryptedMultimap>,
}

/// A shareable handle to one decrypted table.
type TableHandle = Arc<RwLock<EngineTable>>;

/// Shared engine state: ciphertext storage plus the decrypted mirror.
///
/// All methods take `&self`; per-table state lives behind per-table locks so
/// concurrent `Π_Update` calls on distinct tables never contend.
#[derive(Debug)]
pub struct EngineCore {
    cryptor: RecordCryptor,
    storage: ServerStorage,
    tables: RwLock<BTreeMap<String, TableHandle>>,
    /// View name → owning table.  View names are global per engine so the
    /// analyst addresses a view without naming its table; the index keeps
    /// `view_read` O(log views) instead of a scan over every table shard.
    /// Lock order: this index is always taken *before* any table lock.
    view_index: RwLock<BTreeMap<String, String>>,
    /// Index name → owning table, with the same global-namespace and lock
    /// ordering rules as `view_index` (registry before any table lock).
    index_registry: RwLock<BTreeMap<String, String>>,
    /// Root PRF for searchable-index labels, derived from the master key's
    /// [`KeyPurpose::IndexToken`] subkey; each registered index derives its
    /// own PRF from this root so labels never collide across indexes.
    index_prf: Prf,
    query_sequence: AtomicU64,
}

impl EngineCore {
    /// Creates the core with the owner's master key (the engine needs the key
    /// material inside its trusted boundary to process queries), storing
    /// ciphertexts in memory.
    pub fn new(master: &MasterKey) -> Self {
        Self {
            cryptor: RecordCryptor::new(master),
            storage: ServerStorage::new(),
            tables: RwLock::new(BTreeMap::new()),
            view_index: RwLock::new(BTreeMap::new()),
            index_registry: RwLock::new(BTreeMap::new()),
            index_prf: Prf::new(*master.derive(KeyPurpose::IndexToken).bytes()),
            query_sequence: AtomicU64::new(0),
        }
    }

    /// Creates the core over an explicit storage backend.
    ///
    /// Tables already present on a durable backend's medium are recovered
    /// into the server storage (their transcript becomes visible through
    /// [`EngineCore::storage`] immediately), but they have no *decrypted
    /// mirror* — schemas are not persisted by the storage layer — so
    /// recovered tables cannot be queried or appended to through this
    /// engine; [`EngineCore::setup`] refuses them rather than corrupt the
    /// recovered log.  Serve them via [`crate::server::ServerStorage`]
    /// until a schema-aware reopen path exists.
    pub fn with_backend(
        master: &MasterKey,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, StorageError> {
        Ok(Self {
            cryptor: RecordCryptor::new(master),
            storage: ServerStorage::with_backend(backend)?,
            tables: RwLock::new(BTreeMap::new()),
            view_index: RwLock::new(BTreeMap::new()),
            index_registry: RwLock::new(BTreeMap::new()),
            index_prf: Prf::new(*master.derive(KeyPurpose::IndexToken).bytes()),
            query_sequence: AtomicU64::new(0),
        })
    }

    /// Whether `table` has been set up.
    pub fn has_table(&self, table: &str) -> bool {
        self.tables.read().contains_key(table)
    }

    fn table_handle(&self, table: &str) -> Option<TableHandle> {
        self.tables.read().get(table).map(Arc::clone)
    }

    /// `Π_Setup` plumbing: registers the schema and ingests the initial batch
    /// at time 0.
    ///
    /// Refuses tables the *storage* already holds, not just tables this
    /// engine instance set up: on a recovered durable backend, re-running
    /// `Π_Setup` would append a duplicate time-0 batch to a log that already
    /// contains the table's full history, corrupting the recovered
    /// transcript.  (Rebuilding the decrypted mirror from recovered
    /// ciphertexts needs the schema re-registered through a dedicated reopen
    /// path — future work; until then, recovered tables are served by
    /// `ServerStorage` directly.)
    pub fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        {
            let mut tables = self.tables.write();
            if tables.contains_key(table) || self.storage.existing_shard(table).is_some() {
                return Err(EdbError::AlreadySetUp(table.to_string()));
            }
            let extended = rewrite::schema_with_dummy_flag(&schema);
            let flag_column = extended
                .column_index(rewrite::IS_DUMMY_COLUMN)
                .expect("flag column was just appended");
            let dummy_row = Row::new(rewrite::values_with_dummy_flag(
                vec![Value::Null; extended.arity() - 1],
                true,
            ));
            tables.insert(
                table.to_string(),
                Arc::new(RwLock::new(EngineTable {
                    schema: extended,
                    rows: Vec::new(),
                    real_records: 0,
                    dummy_records: 0,
                    flag_column,
                    dummy_row,
                    views: BTreeMap::new(),
                    indexes: BTreeMap::new(),
                })),
            );
        }
        self.ingest(table, 0, records)
    }

    /// `Π_Update` plumbing: ingests an encrypted batch at `time`.
    ///
    /// Write-locks only `table`'s shard (storage and mirror), so owners of
    /// other tables proceed concurrently.
    pub fn ingest(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let Some(handle) = self.table_handle(table) else {
            return Err(EdbError::NotSetUp(table.to_string()));
        };
        // The trusted side validates the whole batch first: a record that
        // fails authentication or row decoding rejects the batch before
        // anything is persisted or observed, so a failed protocol run leaves
        // no trace in the durable log, the transcript, or the mirror.
        // Dummies take the fast path (`None`): the padded dummy row was
        // precomputed per schema at setup, so each dummy ingest is one clone
        // — no per-record value construction.  (The *ciphertexts* arriving
        // here are still unique: freshness is enforced at encryption time,
        // see `dpsync_crypto::PreparedPlaintext`.)
        // The batch open visits records in order, so the first failure in
        // batch order — authentication or decoding — is the one reported.
        let mut decoded: Vec<Option<Row>> = Vec::with_capacity(records.len());
        self.cryptor.decrypt_batch(&records, |opened| {
            let view = opened?;
            decoded.push(if view.is_dummy() {
                None
            } else {
                Some(
                    Row::from_bytes(view.payload())
                        .map_err(|e| EdbError::CorruptRow(e.to_string()))?,
                )
            });
            Ok::<_, EdbError>(())
        })?;

        // Then the server stores (and observes) the ciphertexts; a backend
        // I/O failure still aborts before the mirror is touched, so an
        // unacknowledged batch is visible nowhere.  The batch is serialized
        // into one buffer and stored as slices of it.
        let mut serialized = Vec::with_capacity(records.len() * EncryptedRecord::TOTAL_LEN);
        for record in &records {
            record.append_to(&mut serialized);
        }
        let serialized = Bytes::from(serialized);
        let ciphertexts: Vec<Bytes> = (0..serialized.len())
            .step_by(EncryptedRecord::TOTAL_LEN)
            .map(|start| serialized.slice(start..start + EncryptedRecord::TOTAL_LEN))
            .collect();
        self.storage.ingest(table, time, &ciphertexts)?;

        // Mirror append + incremental view and index maintenance, under one
        // table write lock.  Every record of the batch — dummy or real —
        // takes exactly one maintenance step per registered view (dummies as
        // explicit no-ops) and inserts exactly one entry per registered index
        // (dummies under the dummy label), so maintenance cost and index
        // growth depend only on the padded batch volume the transcript
        // already reveals, never on the data.
        let mut guard = handle.write();
        let entry = &mut *guard;
        for row in decoded {
            let position = entry.rows.len() as u64;
            match row {
                None => {
                    for view in entry.views.values_mut() {
                        view.apply_dummy();
                    }
                    for index in entry.indexes.values_mut() {
                        index.apply_dummy(position);
                    }
                    let dummy = entry.dummy_row.clone();
                    entry.rows.push(dummy);
                    entry.dummy_records += 1;
                }
                Some(row) => {
                    let mirror =
                        Row::new(rewrite::values_with_dummy_flag(row.into_values(), false));
                    for view in entry.views.values_mut() {
                        view.apply_row(&mirror);
                    }
                    for index in entry.indexes.values_mut() {
                        index.apply_row(&mirror, position);
                    }
                    entry.rows.push(mirror);
                    entry.real_records += 1;
                }
            }
        }
        Ok(())
    }

    /// Registers a materialized view over an existing table, backfilling its
    /// state from the mirror (dummy rows take the no-op path, exactly as
    /// they would have during live maintenance).
    ///
    /// View names are global per engine.  Re-registering an identical
    /// definition is an idempotent no-op — the analyst helper re-registers
    /// its hot queries freely — while binding an existing name to a
    /// different definition is rejected.
    pub fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        let Some(handle) = self.table_handle(def.table()) else {
            return Err(EdbError::NotSetUp(def.table().to_string()));
        };
        let mut index = self.view_index.write();
        if let Some(owner) = index.get(def.name()) {
            let existing = self
                .table_handle(owner)
                .and_then(|h| h.read().views.get(def.name()).map(|v| v.def().clone()));
            return if existing.as_ref() == Some(def) {
                Ok(())
            } else {
                Err(EdbError::InvalidView(format!(
                    "view `{}` is already registered with a different definition",
                    def.name()
                )))
            };
        }
        let mut guard = handle.write();
        let entry = &mut *guard;
        let mut view = MaterializedView::new(def.clone(), &entry.schema)?;
        for row in &entry.rows {
            view.apply_mirror_row(row, entry.flag_column);
        }
        entry.views.insert(def.name().to_string(), view);
        index.insert(def.name().to_string(), def.table().to_string());
        Ok(())
    }

    /// Reads a registered view: returns the underlying query (for the
    /// engine's cost estimate and query observation), the current answer,
    /// and the touched-record count a full scan would have reported.
    ///
    /// The answer itself is produced in O(result size); the returned touch
    /// count is the *transcript* value — engines observe a view read exactly
    /// as they would the equivalent scan, so the adversary cannot tell views
    /// are on.
    pub fn view_read(&self, name: &str) -> Result<(Query, QueryAnswer, u64), EdbError> {
        let owner = self
            .view_index
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EdbError::UnknownView(name.to_string()))?;
        let handle = self
            .table_handle(&owner)
            .ok_or_else(|| EdbError::UnknownView(name.to_string()))?;
        let entry = handle.read();
        let view = entry
            .views
            .get(name)
            .ok_or_else(|| EdbError::UnknownView(name.to_string()))?;
        Ok((
            view.def().query().clone(),
            view.answer(),
            entry.rows.len() as u64,
        ))
    }

    /// Registers an encrypted multimap index over an existing table,
    /// backfilling its entries from the mirror (dummy rows file under the
    /// dummy label, exactly as they would have during live maintenance).
    ///
    /// Index names are global per engine, with the same idempotency rule as
    /// views: re-registering an identical definition is a no-op, binding an
    /// existing name to a different definition is rejected.
    pub fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        let Some(handle) = self.table_handle(def.table()) else {
            return Err(EdbError::NotSetUp(def.table().to_string()));
        };
        let mut registry = self.index_registry.write();
        if let Some(owner) = registry.get(def.name()) {
            let existing = self
                .table_handle(owner)
                .and_then(|h| h.read().indexes.get(def.name()).map(|i| i.def().clone()));
            return if existing.as_ref() == Some(def) {
                Ok(())
            } else {
                Err(EdbError::InvalidIndex(format!(
                    "index `{}` is already registered with a different definition",
                    def.name()
                )))
            };
        }
        let mut guard = handle.write();
        let entry = &mut *guard;
        let prf = Prf::new(self.index_prf.derive_key(&format!(
            "emm/{}/{}",
            def.table(),
            def.column()
        )));
        let mut index = EncryptedMultimap::new(def.clone(), &entry.schema, prf)?;
        for (position, row) in entry.rows.iter().enumerate() {
            index.apply_mirror_row(row, entry.flag_column, position as u64);
        }
        entry.indexes.insert(def.name().to_string(), index);
        registry.insert(def.name().to_string(), def.table().to_string());
        Ok(())
    }

    /// Serves `query` through the registered index `name` instead of a full
    /// scan, returning the answer and the number of index entries fetched
    /// (the response-volume signal an indexed read reveals).
    ///
    /// The answer is byte-identical to [`EngineCore::execute`] on the same
    /// query: the index yields a candidate superset of the rows matching its
    /// column's condition (in mirror order), and the full rewritten query is
    /// then executed over exactly those candidates — so residual predicate
    /// conjuncts, grouping, projection, and dummy filtering all behave as in
    /// the scan path.
    pub fn indexed_read(&self, name: &str, query: &Query) -> Result<(QueryAnswer, u64), EdbError> {
        let owner = self
            .index_registry
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| EdbError::UnknownIndex(name.to_string()))?;
        let handle = self
            .table_handle(&owner)
            .ok_or_else(|| EdbError::UnknownIndex(name.to_string()))?;
        if let Query::JoinCount { .. } = query {
            return self.indexed_join(name, &owner, &handle, query);
        }
        let (table, predicate) = match query {
            Query::Count { table, predicate }
            | Query::GroupByCount {
                table, predicate, ..
            }
            | Query::Select {
                table, predicate, ..
            } => (table, predicate.as_ref()),
            Query::JoinCount { .. } => unreachable!("joins handled above"),
        };
        if table != &owner {
            return Err(EdbError::InvalidIndex(format!(
                "index `{name}` covers table `{owner}`, not `{table}`"
            )));
        }
        let entry = handle.read();
        let index = entry
            .indexes
            .get(name)
            .ok_or_else(|| EdbError::UnknownIndex(name.to_string()))?;
        let positions = index.lookup(predicate)?;
        let candidates: Vec<&Row> = positions.iter().map(|&p| &entry.rows[p as usize]).collect();
        let rewritten = rewrite::rewrite_query(query);
        let answer = exec::execute(&rewritten, |n| {
            (n == owner).then(|| (Some(&entry.schema), candidates.as_slice()))
        })?;
        Ok((answer, positions.len() as u64))
    }

    /// Index-nested-loop join: scans the non-indexed side's mirror and
    /// probes the index with each real row's join value, re-checking the
    /// fetched candidates with the executor's exact match semantics
    /// (dummy-flag filter, NULL-key skip, typed `group_key` equality).
    ///
    /// Touched count = the probe side's full padded mirror plus every index
    /// entry fetched — the honest cost/leakage of this plan.
    fn indexed_join(
        &self,
        name: &str,
        owner: &str,
        handle: &TableHandle,
        query: &Query,
    ) -> Result<(QueryAnswer, u64), EdbError> {
        let Query::JoinCount {
            left,
            right,
            left_column,
            right_column,
        } = query
        else {
            unreachable!("caller matched JoinCount");
        };
        let column = {
            let entry = handle.read();
            let index = entry
                .indexes
                .get(name)
                .ok_or_else(|| EdbError::UnknownIndex(name.to_string()))?;
            index.def().column().to_string()
        };
        // Orient the loop: the indexed side is probed, the other side drives.
        let (outer_table, outer_column) = if owner == right && &column == right_column {
            (left.as_str(), left_column.as_str())
        } else if owner == left && &column == left_column {
            (right.as_str(), right_column.as_str())
        } else {
            return Err(EdbError::InvalidIndex(format!(
                "index `{name}` is on `{owner}.{column}`, which is not a join column of this query"
            )));
        };
        let Some(outer_handle) = self.table_handle(outer_table) else {
            return Err(EdbError::NotSetUp(outer_table.to_string()));
        };
        // Read-lock in name order, same discipline as `execute`.
        let handles: BTreeMap<&str, TableHandle> =
            [(owner, Arc::clone(handle)), (outer_table, outer_handle)]
                .into_iter()
                .collect();
        let guards: BTreeMap<&str, parking_lot::RwLockReadGuard<'_, EngineTable>> =
            handles.iter().map(|(n, h)| (*n, h.read())).collect();
        let inner = guards.get(owner).expect("locked above");
        let outer = guards.get(outer_table).expect("locked above");
        let index = inner
            .indexes
            .get(name)
            .ok_or_else(|| EdbError::UnknownIndex(name.to_string()))?;
        let oi =
            outer
                .schema
                .column_index(outer_column)
                .ok_or_else(|| ExecError::UnknownColumn {
                    table: outer_table.to_string(),
                    column: outer_column.to_string(),
                })?;
        let ii = index.column_index();
        let mut pairs = 0u64;
        let mut fetched = 0u64;
        for row in &outer.rows {
            if row.value(outer.flag_column) != Some(&Value::Bool(false)) {
                continue;
            }
            let Some(v) = row.value(oi) else { continue };
            if v.is_null() {
                continue;
            }
            let Some(positions) = index.probe(v) else {
                // No exact integer image: such a value can never equal one of
                // the indexed column's (integer-typed) values.
                continue;
            };
            fetched += positions.len() as u64;
            for p in positions {
                let candidate = &inner.rows[p as usize];
                if candidate.value(inner.flag_column) != Some(&Value::Bool(false)) {
                    continue;
                }
                let Some(cv) = candidate.value(ii) else {
                    continue;
                };
                if !cv.is_null() && cv.group_key() == v.group_key() {
                    pairs += 1;
                }
            }
        }
        Ok((
            QueryAnswer::Scalar(pairs as f64),
            outer.rows.len() as u64 + fetched,
        ))
    }

    /// Executes `query` over the decrypted mirror with dummy-aware rewriting.
    ///
    /// Returns the exact answer plus the number of ciphertexts touched (used
    /// by the cost models and the adversary's transcript).  Takes read locks
    /// on every table the query names, held for the duration of execution.
    pub fn execute(&self, query: &Query) -> Result<(QueryAnswer, u64), EdbError> {
        let rewritten = rewrite::rewrite_query(query);
        // Resolve handles first (map read lock released immediately), then
        // read-lock the touched tables in name order for a stable snapshot.
        let handles: BTreeMap<&str, TableHandle> = {
            let tables = self.tables.read();
            query
                .tables()
                .iter()
                .filter_map(|name| tables.get(*name).map(|h| (*name, Arc::clone(h))))
                .collect()
        };
        let guards: BTreeMap<&str, parking_lot::RwLockReadGuard<'_, EngineTable>> =
            handles.iter().map(|(name, h)| (*name, h.read())).collect();

        // Count per *mention*, not per distinct table: a self-join touches the
        // table once per side, and the cost model / adversary transcript must
        // reflect that.
        let touched: u64 = query
            .tables()
            .iter()
            .map(|name| guards.get(*name).map_or(0, |t| t.rows.len() as u64))
            .sum();
        // Joins: the AST rewrite is the identity, so filter dummies by
        // selecting each side's real rows here — by reference, like the
        // schemas, which are borrowed from the guards for the duration of
        // execution.
        let answer = match &*rewritten {
            Query::JoinCount { .. } => {
                let filtered: BTreeMap<&str, Vec<&Row>> = guards
                    .iter()
                    .map(|(name, t)| {
                        let rows = t
                            .rows
                            .iter()
                            .filter(|r| r.value(t.flag_column) == Some(&Value::Bool(false)))
                            .collect();
                        (*name, rows)
                    })
                    .collect();
                exec::execute(&rewritten, |name| {
                    let table = guards.get(name)?;
                    let rows = filtered.get(name)?;
                    Some((Some(&table.schema), rows.as_slice()))
                })?
            }
            _ => exec::execute(&rewritten, |name| {
                let table = guards.get(name)?;
                Some((Some(&table.schema), table.rows.as_slice()))
            })?,
        };
        Ok((answer, touched))
    }

    /// Number of ciphertexts stored for `table`.
    pub fn ciphertext_count(&self, table: &str) -> u64 {
        self.storage.ciphertext_count(table)
    }

    /// Size statistics for `table`.
    pub fn table_stats(&self, table: &str) -> TableStats {
        let (real, dummy) = self
            .table_handle(table)
            .map(|h| {
                let t = h.read();
                (t.real_records, t.dummy_records)
            })
            .unwrap_or((0, 0));
        TableStats {
            ciphertext_count: self.storage.ciphertext_count(table),
            ciphertext_bytes: self.storage.table_bytes(table),
            real_records: real,
            dummy_records: dummy,
        }
    }

    /// Access to the server storage (interior-mutable: recording query
    /// observations also goes through `&self`).
    pub fn storage(&self) -> &ServerStorage {
        &self.storage
    }

    /// Returns and increments the query sequence counter.
    pub fn next_query_sequence(&self) -> u64 {
        self.query_sequence.fetch_add(1, Ordering::Relaxed)
    }

    /// A snapshot of the decrypted mirror for `table` (used in white-box
    /// tests; clones the rows).
    pub fn table_snapshot(&self, table: &str) -> Option<EngineTable> {
        self.table_handle(table).map(|h| h.read().clone())
    }
}

/// Helper shared by the engines' tests and the workload crate: encrypts a
/// batch of plaintext rows (plus `dummies` dummy records) with the owner-side
/// cryptor.
///
/// One payload buffer is reused across all rows, and the dummies ride the
/// prepared fast path — each one still a fresh encryption (fresh nonce and
/// keystream), only the padded plaintext is shared.
pub fn encrypt_batch(
    cryptor: &mut RecordCryptor,
    rows: &[Row],
    dummies: usize,
) -> Vec<EncryptedRecord> {
    let mut out = Vec::with_capacity(rows.len() + dummies);
    cryptor
        .encrypt_batch_into(rows, |row, buf| row.encode_into(buf), dummies, &mut out)
        .expect("row fits record payload");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{paper_queries, Predicate};
    use crate::schema::DataType;
    use dpsync_crypto::CryptoError;
    use std::thread;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn core_with_data() -> (EngineCore, RecordCryptor) {
        let master = MasterKey::from_bytes([9u8; 32]);
        let mut owner_cryptor = RecordCryptor::new(&master);
        let core = EngineCore::new(&master);
        let initial = encrypt_batch(&mut owner_cryptor, &[row(1, 60), row(2, 80)], 3);
        core.setup("yellow", schema(), initial).unwrap();
        (core, owner_cryptor)
    }

    #[test]
    fn setup_then_update_accumulates_rows_and_ciphertexts() {
        let (core, mut cryptor) = core_with_data();
        let batch = encrypt_batch(&mut cryptor, &[row(3, 90)], 1);
        core.ingest("yellow", 30, batch).unwrap();
        let stats = core.table_stats("yellow");
        assert_eq!(stats.ciphertext_count, 7);
        assert_eq!(stats.real_records, 3);
        assert_eq!(stats.dummy_records, 4);
        assert_eq!(
            stats.ciphertext_bytes,
            7 * EncryptedRecord::TOTAL_LEN as u64
        );
        // The adversary saw two updates: setup (t=0) and the t=30 batch.
        let view = core.storage().adversary_view();
        assert_eq!(view.update_pattern().times(), vec![0, 30]);
        assert_eq!(view.update_pattern().volumes(), vec![5, 2]);
    }

    #[test]
    fn execute_ignores_dummies() {
        let (core, _) = core_with_data();
        let (answer, touched) = core
            .execute(&paper_queries::q1_range_count("yellow"))
            .unwrap();
        assert_eq!(answer, QueryAnswer::Scalar(2.0));
        assert_eq!(touched, 5);
    }

    #[test]
    fn join_execution_filters_both_sides() {
        let master = MasterKey::from_bytes([9u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let core = EngineCore::new(&master);
        core.setup(
            "yellow",
            schema(),
            encrypt_batch(&mut cryptor, &[row(5, 1), row(6, 2)], 4),
        )
        .unwrap();
        core.setup(
            "green",
            schema(),
            encrypt_batch(&mut cryptor, &[row(5, 3), row(7, 4)], 4),
        )
        .unwrap();
        let (answer, touched) = core
            .execute(&paper_queries::q3_join_count("yellow", "green"))
            .unwrap();
        // Only t=5 matches, and dummy rows (NULL pick_time) must not join.
        assert_eq!(answer, QueryAnswer::Scalar(1.0));
        assert_eq!(touched, 12);
    }

    #[test]
    fn join_with_asymmetric_pad_volumes_leaks_no_dummies() {
        // The two sides carry *different* DP pad volumes (4 vs 9 dummies):
        // a dummy leaking into either side of the join would change the
        // count — all-NULL dummy rows joining each other would add 4 × 9
        // phantom pairs, and a dummy pairing with a real row would add at
        // least one.  The flag filter and the executor's NULL-key skip keep
        // the answer the pure real-row join count.
        let master = MasterKey::from_bytes([9u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let core = EngineCore::new(&master);
        core.setup(
            "yellow",
            schema(),
            encrypt_batch(&mut cryptor, &[row(5, 1), row(6, 2), row(6, 3)], 4),
        )
        .unwrap();
        core.setup(
            "green",
            schema(),
            encrypt_batch(&mut cryptor, &[row(6, 4), row(8, 5)], 9),
        )
        .unwrap();
        let (answer, touched) = core
            .execute(&paper_queries::q3_join_count("yellow", "green"))
            .unwrap();
        // Real matches only: yellow's two t=6 rows join green's one t=6 row.
        assert_eq!(answer, QueryAnswer::Scalar(2.0));
        // The transcript still reflects the padded volumes on both sides.
        assert_eq!(touched, (3 + 4) + (2 + 9));
    }

    /// Records in the rejection tests' batch: two full four-lane groups of
    /// the crypto kernel plus a remainder of three.
    const MIXED_BATCH: usize = 2 * 4 + 3;

    /// A mixed batch of `MIXED_BATCH` records: seven real rows, four dummies.
    fn mixed_batch(cryptor: &mut RecordCryptor) -> Vec<EncryptedRecord> {
        let rows: Vec<Row> = (0..7).map(|i| row(10 + i, i as i64)).collect();
        let batch = encrypt_batch(cryptor, &rows, MIXED_BATCH - rows.len());
        assert_eq!(batch.len(), MIXED_BATCH);
        batch
    }

    fn with_tampered_tag(record: &EncryptedRecord) -> EncryptedRecord {
        let mut bytes = record.to_bytes().to_vec();
        *bytes.last_mut().expect("non-empty record") ^= 0x80;
        EncryptedRecord::from_bytes(&bytes).expect("same length")
    }

    /// Everything a rejected batch must leave untouched: the table's stored
    /// and mirrored counts, the adversary view, and the mirror rows.
    fn observable_state(core: &EngineCore) -> (TableStats, crate::view::AdversaryView, Vec<Row>) {
        let rows = core
            .table_handle("yellow")
            .expect("set up")
            .read()
            .rows
            .clone();
        (
            core.table_stats("yellow"),
            core.storage().adversary_view(),
            rows,
        )
    }

    #[test]
    fn ingest_rejects_a_batch_with_any_tampered_tag() {
        for position in [0, 3, 4, MIXED_BATCH - 1] {
            let (core, mut cryptor) = core_with_data();
            let before = observable_state(&core);
            let mut batch = mixed_batch(&mut cryptor);
            batch[position] = with_tampered_tag(&batch[position]);
            let result = core.ingest("yellow", 30, batch);
            assert!(
                matches!(
                    result,
                    Err(EdbError::Crypto(CryptoError::AuthenticationFailed))
                ),
                "position {position}: {result:?}"
            );
            assert_eq!(observable_state(&core), before, "position {position}");
        }
    }

    #[test]
    fn ingest_reports_the_first_failure_in_batch_order() {
        // A record with a valid tag whose payload is no row, and a record
        // whose tag fails, at positions in one lane group and across groups:
        // whichever comes first in the batch is the error reported.
        for (first, second) in [(1, 2), (2, 9), (5, 6)] {
            for corrupt_first in [true, false] {
                let (core, mut cryptor) = core_with_data();
                let before = observable_state(&core);
                let mut batch = mixed_batch(&mut cryptor);
                let (corrupt, tampered) = if corrupt_first {
                    (first, second)
                } else {
                    (second, first)
                };
                batch[corrupt] = cryptor.encrypt_payload(&[0xFF; 3]).expect("fits");
                batch[tampered] = with_tampered_tag(&batch[tampered]);
                let result = core.ingest("yellow", 30, batch);
                if corrupt_first {
                    assert!(
                        matches!(result, Err(EdbError::CorruptRow(_))),
                        "{first}/{second}: {result:?}"
                    );
                } else {
                    assert!(
                        matches!(
                            result,
                            Err(EdbError::Crypto(CryptoError::AuthenticationFailed))
                        ),
                        "{first}/{second}: {result:?}"
                    );
                }
                assert_eq!(observable_state(&core), before);
            }
        }
    }

    #[test]
    fn concurrent_ingest_to_distinct_tables() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let core = EngineCore::new(&master);
        {
            let mut cryptor = RecordCryptor::with_sequence(&master, 1 << 40);
            core.setup("yellow", schema(), encrypt_batch(&mut cryptor, &[], 0))
                .unwrap();
            let mut cryptor = RecordCryptor::with_sequence(&master, 2 << 40);
            core.setup("green", schema(), encrypt_batch(&mut cryptor, &[], 0))
                .unwrap();
        }
        thread::scope(|scope| {
            for (i, table) in ["yellow", "green"].into_iter().enumerate() {
                let core = &core;
                let master = &master;
                scope.spawn(move || {
                    let mut cryptor = RecordCryptor::with_sequence(master, ((i as u64) + 10) << 40);
                    for t in 1..=50u64 {
                        let batch = encrypt_batch(&mut cryptor, &[row(t, t as i64)], 1);
                        core.ingest(table, t, batch).unwrap();
                    }
                });
            }
        });
        for table in ["yellow", "green"] {
            let stats = core.table_stats(table);
            assert_eq!(stats.real_records, 50);
            assert_eq!(stats.dummy_records, 50);
        }
        // The merged transcript covers both tables' uploads plus both setups.
        let view = core.storage().adversary_view();
        assert_eq!(view.update_pattern().len(), 2 + 2 * 50);
    }

    #[test]
    fn double_setup_and_missing_table_errors() {
        let (core, mut cryptor) = core_with_data();
        assert!(matches!(
            core.setup("yellow", schema(), vec![]),
            Err(EdbError::AlreadySetUp(_))
        ));
        let batch = encrypt_batch(&mut cryptor, &[row(9, 9)], 0);
        assert!(matches!(
            core.ingest("green", 10, batch),
            Err(EdbError::NotSetUp(_))
        ));
        assert!(core.has_table("yellow"));
        assert!(!core.has_table("green"));
    }

    #[test]
    fn wrong_key_records_fail_to_ingest() {
        let master = MasterKey::from_bytes([9u8; 32]);
        let other = MasterKey::from_bytes([1u8; 32]);
        let mut wrong_cryptor = RecordCryptor::new(&other);
        let core = EngineCore::new(&master);
        let batch = encrypt_batch(&mut wrong_cryptor, &[row(1, 1)], 0);
        let err = core.setup("yellow", schema(), batch).unwrap_err();
        assert!(matches!(err, EdbError::Crypto(_)));
    }

    #[test]
    fn rejected_batch_leaves_no_trace_anywhere() {
        // Validation happens before the durable append and before the
        // mirror is touched: a batch with one bad record must be invisible
        // in storage, the transcript, and the decrypted mirror — otherwise a
        // crash-recovered log would replay a batch the protocol never
        // acknowledged.
        let (core, mut cryptor) = core_with_data();
        let stats_before = core.table_stats("yellow");
        let view_before = core.storage().adversary_view();

        let wrong = MasterKey::from_bytes([1u8; 32]);
        let mut wrong_cryptor = RecordCryptor::new(&wrong);
        let mut batch = encrypt_batch(&mut cryptor, &[row(7, 70)], 1);
        batch.extend(encrypt_batch(&mut wrong_cryptor, &[row(8, 80)], 0));

        let err = core.ingest("yellow", 60, batch).unwrap_err();
        assert!(matches!(err, EdbError::Crypto(_)));
        assert_eq!(core.table_stats("yellow"), stats_before);
        assert_eq!(core.storage().adversary_view(), view_before);
        let mirror = core.table_snapshot("yellow").unwrap();
        assert_eq!(
            mirror.rows.len() as u64,
            stats_before.real_records + stats_before.dummy_records
        );
    }

    #[test]
    fn query_sequence_increments() {
        let (core, _) = core_with_data();
        assert_eq!(core.next_query_sequence(), 0);
        assert_eq!(core.next_query_sequence(), 1);
    }

    #[test]
    fn view_backfills_then_tracks_ingest_incrementally() {
        let (core, mut cryptor) = core_with_data();
        let def = ViewDef::new("q1", paper_queries::q1_range_count("yellow")).unwrap();
        core.register_view(&def).unwrap();
        // Backfill covers the already-ingested batch (2 real + 3 dummies).
        let (query, answer, touched) = core.view_read("q1").unwrap();
        assert_eq!(query, paper_queries::q1_range_count("yellow"));
        assert_eq!(answer, QueryAnswer::Scalar(2.0));
        assert_eq!(touched, 5);
        // New batches are applied as deltas, dummies as no-ops.
        let batch = encrypt_batch(&mut cryptor, &[row(3, 90), row(4, 900)], 2);
        core.ingest("yellow", 30, batch).unwrap();
        let (_, answer, touched) = core.view_read("q1").unwrap();
        assert_eq!(answer, QueryAnswer::Scalar(3.0));
        assert_eq!(touched, 9);
        // The view answer matches the rewritten full scan bit-for-bit.
        let (scan, _) = core
            .execute(&paper_queries::q1_range_count("yellow"))
            .unwrap();
        assert_eq!(scan, answer);
        // Maintenance touched every mirror record exactly once.
        let snapshot = core.table_snapshot("yellow").unwrap();
        assert_eq!(snapshot.views["q1"].maintained_records(), 9);
    }

    #[test]
    fn group_view_matches_scan_after_mixed_batches() {
        let (core, mut cryptor) = core_with_data();
        let def = ViewDef::new("q2", paper_queries::q2_group_by_count("yellow")).unwrap();
        core.register_view(&def).unwrap();
        let batch = encrypt_batch(&mut cryptor, &[row(3, 60), row(4, 80), row(5, 60)], 3);
        core.ingest("yellow", 42, batch).unwrap();
        let (_, view_answer, _) = core.view_read("q2").unwrap();
        let (scan_answer, _) = core
            .execute(&paper_queries::q2_group_by_count("yellow"))
            .unwrap();
        assert_eq!(view_answer, scan_answer);
    }

    #[test]
    fn view_registration_errors_and_idempotency() {
        let (core, _) = core_with_data();
        let def = ViewDef::new("q1", paper_queries::q1_range_count("yellow")).unwrap();
        core.register_view(&def).unwrap();
        // Same definition again: idempotent.
        core.register_view(&def).unwrap();
        // Same name, different definition: rejected.
        let other = ViewDef::new("q1", paper_queries::q2_group_by_count("yellow")).unwrap();
        assert!(matches!(
            core.register_view(&other),
            Err(EdbError::InvalidView(_))
        ));
        // Unknown table and unknown group column.
        let missing = ViewDef::new("g", paper_queries::q1_range_count("green")).unwrap();
        assert!(matches!(
            core.register_view(&missing),
            Err(EdbError::NotSetUp(_))
        ));
        let bad_column = ViewDef::new(
            "bad",
            Query::GroupByCount {
                table: "yellow".into(),
                group_by: "ghost".into(),
                predicate: None,
            },
        )
        .unwrap();
        assert!(matches!(
            core.register_view(&bad_column),
            Err(EdbError::Exec(_))
        ));
        // Reads of unregistered names fail cleanly.
        assert!(matches!(
            core.view_read("nope"),
            Err(EdbError::UnknownView(_))
        ));
    }

    #[test]
    fn rejected_batch_leaves_views_untouched() {
        let (core, mut cryptor) = core_with_data();
        let def = ViewDef::new("q1", paper_queries::q1_range_count("yellow")).unwrap();
        core.register_view(&def).unwrap();
        let before = core.view_read("q1").unwrap();

        let wrong = MasterKey::from_bytes([1u8; 32]);
        let mut wrong_cryptor = RecordCryptor::new(&wrong);
        let mut batch = encrypt_batch(&mut cryptor, &[row(7, 70)], 1);
        batch.extend(encrypt_batch(&mut wrong_cryptor, &[row(8, 80)], 0));
        assert!(core.ingest("yellow", 60, batch).is_err());

        assert_eq!(core.view_read("q1").unwrap(), before);
        let snapshot = core.table_snapshot("yellow").unwrap();
        assert_eq!(snapshot.views["q1"].maintained_records(), 5);
    }

    #[test]
    fn index_backfills_then_tracks_ingest_incrementally() {
        let (core, mut cryptor) = core_with_data();
        let def = IndexDef::new("idx", "yellow", "pickup_id").unwrap();
        core.register_index(&def).unwrap();
        // Backfill covers the already-ingested batch (2 real + 3 dummies).
        let q1 = paper_queries::q1_range_count("yellow");
        let (answer, fetched) = core.indexed_read("idx", &q1).unwrap();
        assert_eq!(answer, QueryAnswer::Scalar(2.0));
        assert_eq!(fetched, 2);
        // New batches maintain the index as deltas; dummies add entries too,
        // but under the dummy label, so lookups never fetch them.
        let batch = encrypt_batch(&mut cryptor, &[row(3, 90), row(4, 900)], 2);
        core.ingest("yellow", 30, batch).unwrap();
        let (answer, fetched) = core.indexed_read("idx", &q1).unwrap();
        assert_eq!(answer, QueryAnswer::Scalar(3.0));
        assert_eq!(fetched, 3);
        // The indexed answer matches the full scan bit-for-bit.
        let (scan, _) = core.execute(&q1).unwrap();
        assert_eq!(scan, answer);
        // Maintenance inserted exactly one entry per padded record.
        let snapshot = core.table_snapshot("yellow").unwrap();
        assert_eq!(snapshot.indexes["idx"].maintained_records(), 9);
        assert_eq!(snapshot.indexes["idx"].entry_count(), 9);
    }

    #[test]
    fn indexed_group_by_and_select_match_scan() {
        let (core, mut cryptor) = core_with_data();
        let batch = encrypt_batch(&mut cryptor, &[row(3, 60), row(4, 60), row(5, 90)], 3);
        core.ingest("yellow", 30, batch).unwrap();
        let def = IndexDef::new("idx", "yellow", "pickup_id").unwrap();
        core.register_index(&def).unwrap();
        // A grouped query with an equality conjunct on the indexed column.
        let grouped = Query::GroupByCount {
            table: "yellow".into(),
            group_by: "pick_time".into(),
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(60))),
        };
        let (indexed, fetched) = core.indexed_read("idx", &grouped).unwrap();
        let (scan, _) = core.execute(&grouped).unwrap();
        assert_eq!(indexed, scan);
        assert_eq!(fetched, 3);
        // A projection with a residual conjunct the index cannot serve:
        // candidates are re-filtered by the executor.
        let select = Query::Select {
            table: "yellow".into(),
            columns: vec!["pick_time".into()],
            predicate: Some(
                Predicate::Eq("pickup_id".into(), Value::Int(60))
                    .and(Predicate::GreaterThan("pick_time".into(), 2.0)),
            ),
        };
        let (indexed, _) = core.indexed_read("idx", &select).unwrap();
        let (scan, _) = core.execute(&select).unwrap();
        assert_eq!(indexed, scan);
        assert_eq!(indexed.as_rows().unwrap().len(), 2);
    }

    #[test]
    fn indexed_join_matches_scan_join() {
        let master = MasterKey::from_bytes([9u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let core = EngineCore::new(&master);
        core.setup(
            "yellow",
            schema(),
            encrypt_batch(&mut cryptor, &[row(5, 1), row(6, 2), row(6, 3)], 4),
        )
        .unwrap();
        core.setup(
            "green",
            schema(),
            encrypt_batch(&mut cryptor, &[row(6, 4), row(8, 5), row(6, 6)], 9),
        )
        .unwrap();
        let def = IndexDef::new("jix", "green", "pick_time").unwrap();
        core.register_index(&def).unwrap();
        let q3 = paper_queries::q3_join_count("yellow", "green");
        let (indexed, touched) = core.indexed_read("jix", &q3).unwrap();
        let (scan, _) = core.execute(&q3).unwrap();
        assert_eq!(indexed, scan);
        assert_eq!(indexed, QueryAnswer::Scalar(4.0));
        // Probe side scans yellow's padded mirror (7); the two t=6 probes
        // each fetch green's two t=6 entries, the t=5 probe fetches none.
        assert_eq!(touched, 7 + 4);
    }

    #[test]
    fn index_registration_errors_and_idempotency() {
        let (core, _) = core_with_data();
        let def = IndexDef::new("idx", "yellow", "pickup_id").unwrap();
        core.register_index(&def).unwrap();
        // Same definition again: idempotent.
        core.register_index(&def).unwrap();
        // Same name, different definition: rejected.
        let other = IndexDef::new("idx", "yellow", "pick_time").unwrap();
        assert!(matches!(
            core.register_index(&other),
            Err(EdbError::InvalidIndex(_))
        ));
        // Unknown table and unknown column.
        let missing = IndexDef::new("g", "green", "pickup_id").unwrap();
        assert!(matches!(
            core.register_index(&missing),
            Err(EdbError::NotSetUp(_))
        ));
        let ghost = IndexDef::new("ghost", "yellow", "ghost").unwrap();
        assert!(matches!(
            core.register_index(&ghost),
            Err(EdbError::Exec(_))
        ));
        // Reads through unregistered names fail cleanly.
        assert!(matches!(
            core.indexed_read("nope", &paper_queries::q1_range_count("yellow")),
            Err(EdbError::UnknownIndex(_))
        ));
        // Reads naming a table the index does not cover are rejected.
        assert!(matches!(
            core.indexed_read("idx", &paper_queries::q1_range_count("blue")),
            Err(EdbError::InvalidIndex(_))
        ));
        // A join whose columns the index does not serve is rejected.
        assert!(matches!(
            core.indexed_read("idx", &paper_queries::q3_join_count("yellow", "yellow")),
            Err(EdbError::InvalidIndex(_))
        ));
    }

    #[test]
    fn rejected_batch_leaves_indexes_untouched() {
        let (core, mut cryptor) = core_with_data();
        let def = IndexDef::new("idx", "yellow", "pickup_id").unwrap();
        core.register_index(&def).unwrap();
        let q1 = paper_queries::q1_range_count("yellow");
        let before = core.indexed_read("idx", &q1).unwrap();

        let wrong = MasterKey::from_bytes([1u8; 32]);
        let mut wrong_cryptor = RecordCryptor::new(&wrong);
        let mut batch = encrypt_batch(&mut cryptor, &[row(7, 70)], 1);
        batch.extend(encrypt_batch(&mut wrong_cryptor, &[row(8, 80)], 0));
        assert!(core.ingest("yellow", 60, batch).is_err());

        assert_eq!(core.indexed_read("idx", &q1).unwrap(), before);
        let snapshot = core.table_snapshot("yellow").unwrap();
        assert_eq!(snapshot.indexes["idx"].maintained_records(), 5);
    }

    #[test]
    fn stats_for_unknown_table_are_zero() {
        let (core, _) = core_with_data();
        assert_eq!(core.table_stats("nope"), TableStats::default());
        assert!(core.table_snapshot("nope").is_none());
        assert_eq!(core.ciphertext_count("yellow"), 5);
    }
}
