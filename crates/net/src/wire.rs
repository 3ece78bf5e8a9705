//! The binary wire codec for the Π_Setup / Π_Update / Π_Query messages.
//!
//! Every protocol message is encoded into one [`crate::frame`] payload:
//! a one-byte message tag followed by the message body.  The codec is
//! **canonical** — for any value our encoder can produce, `decode(encode(v))
//! == v` and `encode(decode(bytes)) == bytes` — and **strict**: decoders
//! reject non-canonical input (booleans other than 0/1, unsorted group maps,
//! duplicate schema columns, over-deep predicates) instead of normalizing it,
//! so a byte stream either round-trips exactly or fails cleanly.
//!
//! # Encoding rules
//!
//! * integers are little-endian fixed width; `f64` is `to_bits()` LE (every
//!   bit pattern round-trips, including NaN payloads);
//! * `bool` is one byte, `0` or `1` (anything else is malformed);
//! * strings are a `u32` byte length followed by UTF-8 bytes;
//! * sequences are a `u32` element count followed by the elements;
//! * options are a one-byte tag (`0` absent, `1` present);
//! * encrypted records are exactly [`EncryptedRecord::TOTAL_LEN`] raw bytes
//!   (their length is part of the ciphertext format, not the wire format);
//! * enums are a one-byte tag followed by the variant's fields, in
//!   declaration order.
//!
//! Decoding never panics on arbitrary input: sequence counts are validated
//! against the remaining input before any allocation, predicates carry a
//! recursion-depth cap ([`MAX_PREDICATE_DEPTH`]), and [`Schema`] input is
//! checked for duplicate column names *before* calling the (panicking)
//! constructor.

use dpsync_crypto::{CryptoError, EncryptedRecord};
use dpsync_edb::cost::CostModel;
use dpsync_edb::engines::EngineKind;
use dpsync_edb::exec::ExecError;
use dpsync_edb::leakage::{LeakageClass, LeakageProfile, UpdateEvent, UpdatePattern};
use dpsync_edb::schema::{ColumnDef, DataType, GroupKey, Value};
use dpsync_edb::sogdb::QueryOutcome;
use dpsync_edb::view::QueryObservation;
use dpsync_edb::{
    AdversaryView, EdbError, Predicate, Query, QueryAnswer, Schema, StorageError, TableStats,
};
use std::collections::BTreeMap;

/// Maximum nesting depth a decoded [`Predicate`] may have.
///
/// Bounds both the decoder's own recursion and the recursion of everything
/// downstream that walks the AST (rewriting, execution), so a hostile client
/// cannot drive the server into a stack overflow.
pub const MAX_PREDICATE_DEPTH: usize = 64;

/// A decoding failure.  Carries a static description only — no allocation
/// happens on the failure path, which matters when fuzz input fails by the
/// millions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// The input was well-framed but semantically invalid.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The first frame a client sends: how this connection's engine is obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionRequest {
    /// Attach to the server's shared engine (rejected by factory servers).
    Shared,
    /// Ask the server to build a fresh engine for this connection (rejected
    /// by shared servers).  Carries the owner's master key: in this
    /// simulation the engine sits inside the trusted boundary and needs the
    /// key material to process queries, exactly as the in-process
    /// constructors do.
    NewEngine {
        /// Which engine to build.
        engine: EngineKind,
        /// The owner's master key bytes.
        master_key: [u8; 32],
        /// Which ciphertext-storage backend the engine should run on.
        backend: BackendRequest,
    },
}

/// The storage backend a [`SessionRequest::NewEngine`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendRequest {
    /// The in-memory backend.
    Memory,
    /// The durable segment-log backend, in a per-session scratch directory
    /// under the server's configured disk root (an error if the server was
    /// started without one).
    Disk,
    /// [`BackendRequest::Disk`] with group commit enabled (default window
    /// bounds): concurrent `Π_Update` acknowledgments coalesce into shared
    /// fsync windows.  Same durability contract, amortized cost.
    DiskGroup,
}

/// An asynchronous randomness draw the server requests mid-`Π_Query`.
///
/// The SOGDB trait hands `Π_Query` a caller-supplied RNG; over the wire the
/// caller's RNG stays on the client, and the server forwards each individual
/// draw through this sub-protocol.  Draws map 1:1 onto [`rand::RngCore`]
/// methods, so the client's RNG consumes exactly the same stream it would
/// have in-process — the property the remote/in-process equivalence suite
/// pins down to the byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntropyDraw {
    /// `next_u32`: the client replies with 4 bytes, little-endian.
    U32,
    /// `next_u64`: the client replies with 8 bytes, little-endian.
    U64,
    /// `fill_bytes`: the client replies with exactly this many bytes.
    Fill(u32),
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session; must be the first message on a connection.
    Hello(SessionRequest),
    /// `Π_Setup`.
    Setup {
        /// Table to create.
        table: String,
        /// Its schema.
        schema: Schema,
        /// The encrypted initial batch.
        records: Vec<EncryptedRecord>,
    },
    /// `Π_Update`.
    Update {
        /// Table to append to.
        table: String,
        /// Discrete protocol time of the batch.
        time: u64,
        /// The encrypted batch.
        records: Vec<EncryptedRecord>,
    },
    /// `Π_Query`.  The server may interleave [`Response::EntropyRequest`]
    /// frames before the final outcome.
    Query(Query),
    /// Whether the engine supports this query shape.
    Supports(Query),
    /// Size statistics for one table.
    TableStats(String),
    /// The full adversary transcript.
    AdversaryView,
    /// The client's answer to an [`Response::EntropyRequest`]; only valid
    /// while a `Π_Query` is executing on this connection.
    EntropyReply(Vec<u8>),
    /// Registers a materialized view over `query` (the server re-validates
    /// the definition; see `dpsync_edb::views::ViewDef`).
    RegisterView {
        /// The view's (engine-global) name.
        name: String,
        /// The query shape to materialize.
        query: Query,
    },
    /// `Π_Query` served from a registered view.  As with [`Request::Query`],
    /// the server may interleave [`Response::EntropyRequest`] frames before
    /// the final outcome.
    QueryView(String),
    /// Registers an encrypted-multimap index over `table.column` (the server
    /// re-validates the definition; see `dpsync_edb::emm::IndexDef`).
    RegisterIndex {
        /// The index's (engine-global) name.
        name: String,
        /// The table the index covers.
        table: String,
        /// The indexed column.
        column: String,
    },
    /// `Π_Query` served through a registered index.  As with
    /// [`Request::Query`], the server may interleave
    /// [`Response::EntropyRequest`] frames before the final outcome.
    QueryIndexed {
        /// The registered index to use.
        name: String,
        /// The query to serve through it.
        query: Query,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded and has no payload (`Π_Setup`, `Π_Update`).
    Ok,
    /// Session metadata, sent in answer to [`Request::Hello`].
    EngineInfo {
        /// The engine name ("oblidb", "crypt-epsilon").
        name: String,
        /// The engine's leakage profile.
        profile: LeakageProfile,
        /// The engine's cost model.
        cost: CostModel,
    },
    /// The outcome of a `Π_Query`.
    Outcome(QueryOutcome),
    /// Answer to [`Request::Supports`].
    Supported(bool),
    /// Answer to [`Request::TableStats`].
    Stats(TableStats),
    /// Answer to [`Request::AdversaryView`].
    View(AdversaryView),
    /// The server needs randomness from the caller's RNG (mid-`Π_Query`).
    EntropyRequest(EntropyDraw),
    /// The protocol ran and failed; round-trips the full [`EdbError`],
    /// including the `Storage` variant's source chain as text.
    Edb(EdbError),
    /// The server could not make sense of the request (framing or decoding
    /// failure).  The connection may be closed right after.
    Protocol(String),
}

// ---------------------------------------------------------------------------
// Primitive encoders / decoders
// ---------------------------------------------------------------------------

/// A strict decoding cursor over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless every byte was consumed — trailing garbage is malformed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Invalid("trailing bytes after message"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("boolean byte must be 0 or 1")),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("string is not UTF-8"))
    }

    /// Reads a sequence count, validating it against the remaining input so
    /// a hostile length can never trigger a huge allocation: every element
    /// occupies at least `min_element_len` bytes.
    fn count(&mut self, min_element_len: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count
            .checked_mul(min_element_len.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v.as_bytes());
}

// ---------------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            out.push(0);
            put_i64(out, *x);
        }
        Value::Float(x) => {
            out.push(1);
            put_f64(out, *x);
        }
        Value::Timestamp(x) => {
            out.push(2);
            put_u64(out, *x);
        }
        Value::Bool(b) => {
            out.push(3);
            put_bool(out, *b);
        }
        Value::Text(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Null => out.push(5),
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<Value, WireError> {
    Ok(match c.u8()? {
        0 => Value::Int(c.i64()?),
        1 => Value::Float(c.f64()?),
        2 => Value::Timestamp(c.u64()?),
        3 => Value::Bool(c.bool()?),
        4 => Value::Text(c.string()?),
        5 => Value::Null,
        _ => return Err(WireError::Invalid("unknown value tag")),
    })
}

fn put_group_key(out: &mut Vec<u8>, k: &GroupKey) {
    match k {
        GroupKey::Null => out.push(0),
        GroupKey::Bool(b) => {
            out.push(1);
            put_bool(out, *b);
        }
        GroupKey::Int(v) => {
            out.push(2);
            put_i64(out, *v);
        }
        GroupKey::Timestamp(v) => {
            out.push(3);
            put_u64(out, *v);
        }
        GroupKey::FloatBits(v) => {
            out.push(4);
            put_u64(out, *v);
        }
        GroupKey::Text(s) => {
            out.push(5);
            put_str(out, s);
        }
    }
}

fn get_group_key(c: &mut Cursor<'_>) -> Result<GroupKey, WireError> {
    Ok(match c.u8()? {
        0 => GroupKey::Null,
        1 => GroupKey::Bool(c.bool()?),
        2 => GroupKey::Int(c.i64()?),
        3 => GroupKey::Timestamp(c.u64()?),
        4 => GroupKey::FloatBits(c.u64()?),
        5 => GroupKey::Text(c.string()?),
        _ => return Err(WireError::Invalid("unknown group-key tag")),
    })
}

fn put_data_type(out: &mut Vec<u8>, t: DataType) {
    out.push(match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Timestamp => 2,
        DataType::Bool => 3,
        DataType::Text => 4,
    });
}

fn get_data_type(c: &mut Cursor<'_>) -> Result<DataType, WireError> {
    Ok(match c.u8()? {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Timestamp,
        3 => DataType::Bool,
        4 => DataType::Text,
        _ => return Err(WireError::Invalid("unknown data-type tag")),
    })
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns().len() as u32);
    for col in schema.columns() {
        put_str(out, &col.name);
        put_data_type(out, col.data_type);
    }
}

fn get_schema(c: &mut Cursor<'_>) -> Result<Schema, WireError> {
    let count = c.count(5)?; // 4-byte name length + 1-byte type, minimum
    let mut columns = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count {
        let name = c.string()?;
        let data_type = get_data_type(c)?;
        // `Schema::new` panics on duplicates (a programming error in-process);
        // on the wire a duplicate is hostile input and must fail cleanly.
        if !seen.insert(name.clone()) {
            return Err(WireError::Invalid("duplicate column name in schema"));
        }
        columns.push(ColumnDef::new(name, data_type));
    }
    Ok(Schema::new(columns))
}

fn put_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Eq(col, v) => {
            out.push(0);
            put_str(out, col);
            put_value(out, v);
        }
        Predicate::Between(col, lo, hi) => {
            out.push(1);
            put_str(out, col);
            put_f64(out, *lo);
            put_f64(out, *hi);
        }
        Predicate::LessThan(col, v) => {
            out.push(2);
            put_str(out, col);
            put_f64(out, *v);
        }
        Predicate::GreaterThan(col, v) => {
            out.push(3);
            put_str(out, col);
            put_f64(out, *v);
        }
        Predicate::And(a, b) => {
            out.push(4);
            put_predicate(out, a);
            put_predicate(out, b);
        }
        Predicate::Or(a, b) => {
            out.push(5);
            put_predicate(out, a);
            put_predicate(out, b);
        }
        Predicate::Not(inner) => {
            out.push(6);
            put_predicate(out, inner);
        }
        Predicate::True => out.push(7),
    }
}

fn get_predicate(c: &mut Cursor<'_>, depth: usize) -> Result<Predicate, WireError> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(WireError::Invalid("predicate nests too deeply"));
    }
    Ok(match c.u8()? {
        0 => Predicate::Eq(c.string()?, get_value(c)?),
        1 => Predicate::Between(c.string()?, c.f64()?, c.f64()?),
        2 => Predicate::LessThan(c.string()?, c.f64()?),
        3 => Predicate::GreaterThan(c.string()?, c.f64()?),
        4 => Predicate::And(
            Box::new(get_predicate(c, depth + 1)?),
            Box::new(get_predicate(c, depth + 1)?),
        ),
        5 => Predicate::Or(
            Box::new(get_predicate(c, depth + 1)?),
            Box::new(get_predicate(c, depth + 1)?),
        ),
        6 => Predicate::Not(Box::new(get_predicate(c, depth + 1)?)),
        7 => Predicate::True,
        _ => return Err(WireError::Invalid("unknown predicate tag")),
    })
}

fn put_opt_predicate(out: &mut Vec<u8>, p: &Option<Predicate>) {
    match p {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_predicate(out, p);
        }
    }
}

fn get_opt_predicate(c: &mut Cursor<'_>) -> Result<Option<Predicate>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_predicate(c, 0)?)),
        _ => Err(WireError::Invalid("option tag must be 0 or 1")),
    }
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    match q {
        Query::Count { table, predicate } => {
            out.push(0);
            put_str(out, table);
            put_opt_predicate(out, predicate);
        }
        Query::GroupByCount {
            table,
            group_by,
            predicate,
        } => {
            out.push(1);
            put_str(out, table);
            put_str(out, group_by);
            put_opt_predicate(out, predicate);
        }
        Query::JoinCount {
            left,
            right,
            left_column,
            right_column,
        } => {
            out.push(2);
            put_str(out, left);
            put_str(out, right);
            put_str(out, left_column);
            put_str(out, right_column);
        }
        Query::Select {
            table,
            columns,
            predicate,
        } => {
            out.push(3);
            put_str(out, table);
            put_u32(out, columns.len() as u32);
            for col in columns {
                put_str(out, col);
            }
            put_opt_predicate(out, predicate);
        }
    }
}

fn get_query(c: &mut Cursor<'_>) -> Result<Query, WireError> {
    Ok(match c.u8()? {
        0 => Query::Count {
            table: c.string()?,
            predicate: get_opt_predicate(c)?,
        },
        1 => Query::GroupByCount {
            table: c.string()?,
            group_by: c.string()?,
            predicate: get_opt_predicate(c)?,
        },
        2 => Query::JoinCount {
            left: c.string()?,
            right: c.string()?,
            left_column: c.string()?,
            right_column: c.string()?,
        },
        3 => {
            let table = c.string()?;
            let count = c.count(4)?;
            let mut columns = Vec::with_capacity(count);
            for _ in 0..count {
                columns.push(c.string()?);
            }
            Query::Select {
                table,
                columns,
                predicate: get_opt_predicate(c)?,
            }
        }
        _ => return Err(WireError::Invalid("unknown query tag")),
    })
}

fn put_answer(out: &mut Vec<u8>, a: &QueryAnswer) {
    match a {
        QueryAnswer::Scalar(v) => {
            out.push(0);
            put_f64(out, *v);
        }
        QueryAnswer::Groups(groups) => {
            out.push(1);
            put_u32(out, groups.len() as u32);
            for (key, count) in groups {
                put_group_key(out, key);
                put_f64(out, *count);
            }
        }
        QueryAnswer::Rows(rows) => {
            out.push(2);
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_u32(out, row.len() as u32);
                for value in row {
                    put_value(out, value);
                }
            }
        }
    }
}

fn get_answer(c: &mut Cursor<'_>) -> Result<QueryAnswer, WireError> {
    Ok(match c.u8()? {
        0 => QueryAnswer::Scalar(c.f64()?),
        1 => {
            let count = c.count(9)?; // 1-byte key tag + 8-byte count, minimum
            let mut groups = BTreeMap::new();
            let mut last: Option<GroupKey> = None;
            for _ in 0..count {
                let key = get_group_key(c)?;
                // Canonical form: strictly ascending keys (BTreeMap iteration
                // order).  Anything else would decode to a map that re-encodes
                // differently, so it is rejected as non-canonical.
                if last.as_ref().is_some_and(|prev| *prev >= key) {
                    return Err(WireError::Invalid("group keys must be strictly ascending"));
                }
                let value = c.f64()?;
                last = Some(key.clone());
                groups.insert(key, value);
            }
            QueryAnswer::Groups(groups)
        }
        2 => {
            let count = c.count(4)?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let arity = c.count(1)?;
                let mut row = Vec::with_capacity(arity);
                for _ in 0..arity {
                    row.push(get_value(c)?);
                }
                rows.push(row);
            }
            QueryAnswer::Rows(rows)
        }
        _ => return Err(WireError::Invalid("unknown answer tag")),
    })
}

fn put_records(out: &mut Vec<u8>, records: &[EncryptedRecord]) {
    put_u32(out, records.len() as u32);
    for record in records {
        record.append_to(out);
    }
}

fn get_records(c: &mut Cursor<'_>) -> Result<Vec<EncryptedRecord>, WireError> {
    let count = c.count(EncryptedRecord::TOTAL_LEN)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let bytes = c.take(EncryptedRecord::TOTAL_LEN)?;
        records.push(
            EncryptedRecord::from_bytes(bytes)
                .map_err(|_| WireError::Invalid("malformed encrypted record"))?,
        );
    }
    Ok(records)
}

fn put_outcome(out: &mut Vec<u8>, o: &QueryOutcome) {
    put_answer(out, &o.answer);
    put_f64(out, o.estimated_seconds);
    put_f64(out, o.measured_seconds);
    put_u64(out, o.touched_records);
}

fn get_outcome(c: &mut Cursor<'_>) -> Result<QueryOutcome, WireError> {
    Ok(QueryOutcome {
        answer: get_answer(c)?,
        estimated_seconds: c.f64()?,
        measured_seconds: c.f64()?,
        touched_records: c.u64()?,
    })
}

fn put_stats(out: &mut Vec<u8>, s: &TableStats) {
    put_u64(out, s.ciphertext_count);
    put_u64(out, s.ciphertext_bytes);
    put_u64(out, s.real_records);
    put_u64(out, s.dummy_records);
}

fn get_stats(c: &mut Cursor<'_>) -> Result<TableStats, WireError> {
    Ok(TableStats {
        ciphertext_count: c.u64()?,
        ciphertext_bytes: c.u64()?,
        real_records: c.u64()?,
        dummy_records: c.u64()?,
    })
}

fn put_profile(out: &mut Vec<u8>, p: &LeakageProfile) {
    out.push(match p.class {
        LeakageClass::L0ResponseVolumeHiding => 0,
        LeakageClass::LDpDifferentiallyPrivateVolume => 1,
        LeakageClass::L1RevealResponseVolume => 2,
        LeakageClass::L2RevealAccessPattern => 3,
    });
    put_bool(out, p.update_leaks_beyond_pattern);
    put_bool(out, p.native_dummy_support);
}

fn get_profile(c: &mut Cursor<'_>) -> Result<LeakageProfile, WireError> {
    let class = match c.u8()? {
        0 => LeakageClass::L0ResponseVolumeHiding,
        1 => LeakageClass::LDpDifferentiallyPrivateVolume,
        2 => LeakageClass::L1RevealResponseVolume,
        3 => LeakageClass::L2RevealAccessPattern,
        _ => return Err(WireError::Invalid("unknown leakage-class tag")),
    };
    Ok(LeakageProfile {
        class,
        update_leaks_beyond_pattern: c.bool()?,
        native_dummy_support: c.bool()?,
    })
}

fn put_cost(out: &mut Vec<u8>, m: &CostModel) {
    put_f64(out, m.query_overhead);
    put_f64(out, m.count_per_record);
    put_f64(out, m.group_by_per_record);
    put_f64(out, m.join_per_pair);
    put_f64(out, m.update_per_record);
    put_f64(out, m.setup_per_record);
}

fn get_cost(c: &mut Cursor<'_>) -> Result<CostModel, WireError> {
    Ok(CostModel {
        query_overhead: c.f64()?,
        count_per_record: c.f64()?,
        group_by_per_record: c.f64()?,
        join_per_pair: c.f64()?,
        update_per_record: c.f64()?,
        setup_per_record: c.f64()?,
    })
}

fn put_view(out: &mut Vec<u8>, view: &AdversaryView) {
    let events = view.update_events();
    put_u32(out, events.len() as u32);
    for e in events {
        put_u64(out, e.time);
        put_u64(out, e.volume);
    }
    let queries = view.queries();
    put_u32(out, queries.len() as u32);
    for q in queries {
        put_u64(out, q.sequence);
        put_str(out, &q.kind);
        put_u64(out, q.touched_records);
        match q.observed_response_volume {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                put_u64(out, v);
            }
        }
    }
    put_u64(out, view.total_ciphertext_bytes());
}

fn get_view(c: &mut Cursor<'_>) -> Result<AdversaryView, WireError> {
    let count = c.count(16)?;
    let mut pattern = UpdatePattern::new();
    for _ in 0..count {
        let event = UpdateEvent {
            time: c.u64()?,
            volume: c.u64()?,
        };
        pattern.record(event.time, event.volume);
    }
    let count = c.count(21)?; // sequence + kind length + touched + option tag
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        queries.push(QueryObservation {
            sequence: c.u64()?,
            kind: c.string()?,
            touched_records: c.u64()?,
            observed_response_volume: match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                _ => return Err(WireError::Invalid("option tag must be 0 or 1")),
            },
        });
    }
    let total_bytes = c.u64()?;
    Ok(AdversaryView::from_parts(pattern, queries, total_bytes))
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Maps a decoded engine name back onto the `&'static str` the
/// [`EdbError::UnsupportedQuery`] variant requires.  Unknown names collapse
/// onto a sentinel instead of leaking memory per hostile frame.
fn intern_engine(name: &str) -> &'static str {
    match name {
        "oblidb" => "oblidb",
        "crypt-epsilon" => "crypt-epsilon",
        "remote" => "remote",
        _ => "unknown-engine",
    }
}

/// As [`intern_engine`], for the rejected query kind.
fn intern_kind(kind: &str) -> &'static str {
    match kind {
        "count" => "count",
        "group-by" => "group-by",
        "join" => "join",
        "select" => "select",
        "view" => "view",
        "index" => "index",
        _ => "unknown-query",
    }
}

fn put_storage_error(out: &mut Vec<u8>, e: &StorageError) {
    match e {
        StorageError::Io { path, message } => {
            out.push(0);
            put_str(out, path);
            put_str(out, message);
        }
        StorageError::Corrupt {
            path,
            offset,
            message,
        } => {
            out.push(1);
            put_str(out, path);
            put_u64(out, *offset);
            put_str(out, message);
        }
        StorageError::Backend { message } => {
            out.push(2);
            put_str(out, message);
        }
    }
}

fn get_storage_error(c: &mut Cursor<'_>) -> Result<StorageError, WireError> {
    Ok(match c.u8()? {
        0 => StorageError::Io {
            path: c.string()?,
            message: c.string()?,
        },
        1 => StorageError::Corrupt {
            path: c.string()?,
            offset: c.u64()?,
            message: c.string()?,
        },
        2 => StorageError::Backend {
            message: c.string()?,
        },
        _ => return Err(WireError::Invalid("unknown storage-error tag")),
    })
}

fn put_edb_error(out: &mut Vec<u8>, e: &EdbError) {
    match e {
        EdbError::Crypto(inner) => {
            out.push(0);
            match inner {
                CryptoError::AuthenticationFailed => out.push(0),
                CryptoError::PayloadTooLarge { got, max } => {
                    out.push(1);
                    put_u64(out, *got as u64);
                    put_u64(out, *max as u64);
                }
                CryptoError::MalformedCiphertext { got, expected } => {
                    out.push(2);
                    put_u64(out, *got as u64);
                    put_u64(out, *expected as u64);
                }
            }
        }
        EdbError::Exec(inner) => {
            out.push(1);
            match inner {
                ExecError::UnknownTable(t) => {
                    out.push(0);
                    put_str(out, t);
                }
                ExecError::UnknownColumn { table, column } => {
                    out.push(1);
                    put_str(out, table);
                    put_str(out, column);
                }
            }
        }
        EdbError::UnsupportedQuery { engine, kind } => {
            out.push(2);
            put_str(out, engine);
            put_str(out, kind);
        }
        EdbError::AlreadySetUp(t) => {
            out.push(3);
            put_str(out, t);
        }
        EdbError::NotSetUp(t) => {
            out.push(4);
            put_str(out, t);
        }
        EdbError::CorruptRow(msg) => {
            out.push(5);
            put_str(out, msg);
        }
        EdbError::Storage(inner) => {
            out.push(6);
            put_storage_error(out, inner);
        }
        EdbError::UnknownView(name) => {
            out.push(7);
            put_str(out, name);
        }
        EdbError::InvalidView(msg) => {
            out.push(8);
            put_str(out, msg);
        }
        EdbError::UnknownIndex(name) => {
            out.push(9);
            put_str(out, name);
        }
        EdbError::InvalidIndex(msg) => {
            out.push(10);
            put_str(out, msg);
        }
    }
}

fn usize_from(v: u64) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Invalid("length does not fit usize"))
}

fn get_edb_error(c: &mut Cursor<'_>) -> Result<EdbError, WireError> {
    Ok(match c.u8()? {
        0 => EdbError::Crypto(match c.u8()? {
            0 => CryptoError::AuthenticationFailed,
            1 => CryptoError::PayloadTooLarge {
                got: usize_from(c.u64()?)?,
                max: usize_from(c.u64()?)?,
            },
            2 => CryptoError::MalformedCiphertext {
                got: usize_from(c.u64()?)?,
                expected: usize_from(c.u64()?)?,
            },
            _ => return Err(WireError::Invalid("unknown crypto-error tag")),
        }),
        1 => EdbError::Exec(match c.u8()? {
            0 => ExecError::UnknownTable(c.string()?),
            1 => ExecError::UnknownColumn {
                table: c.string()?,
                column: c.string()?,
            },
            _ => return Err(WireError::Invalid("unknown exec-error tag")),
        }),
        2 => EdbError::UnsupportedQuery {
            engine: intern_engine(&c.string()?),
            kind: intern_kind(&c.string()?),
        },
        3 => EdbError::AlreadySetUp(c.string()?),
        4 => EdbError::NotSetUp(c.string()?),
        5 => EdbError::CorruptRow(c.string()?),
        6 => EdbError::Storage(get_storage_error(c)?),
        7 => EdbError::UnknownView(c.string()?),
        8 => EdbError::InvalidView(c.string()?),
        9 => EdbError::UnknownIndex(c.string()?),
        10 => EdbError::InvalidIndex(c.string()?),
        _ => return Err(WireError::Invalid("unknown edb-error tag")),
    })
}

// ---------------------------------------------------------------------------
// Top-level messages
// ---------------------------------------------------------------------------

fn put_engine_kind(out: &mut Vec<u8>, kind: EngineKind) {
    out.push(match kind {
        EngineKind::ObliDb => 0,
        EngineKind::CryptEpsilon => 1,
    });
}

fn get_engine_kind(c: &mut Cursor<'_>) -> Result<EngineKind, WireError> {
    Ok(match c.u8()? {
        0 => EngineKind::ObliDb,
        1 => EngineKind::CryptEpsilon,
        _ => return Err(WireError::Invalid("unknown engine tag")),
    })
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello(session) => {
                out.push(0x01);
                match session {
                    SessionRequest::Shared => out.push(0),
                    SessionRequest::NewEngine {
                        engine,
                        master_key,
                        backend,
                    } => {
                        out.push(1);
                        put_engine_kind(&mut out, *engine);
                        out.extend_from_slice(master_key);
                        out.push(match backend {
                            BackendRequest::Memory => 0,
                            BackendRequest::Disk => 1,
                            BackendRequest::DiskGroup => 2,
                        });
                    }
                }
            }
            Request::Setup {
                table,
                schema,
                records,
            } => {
                out.push(0x02);
                put_str(&mut out, table);
                put_schema(&mut out, schema);
                put_records(&mut out, records);
            }
            Request::Update {
                table,
                time,
                records,
            } => {
                out.push(0x03);
                put_str(&mut out, table);
                put_u64(&mut out, *time);
                put_records(&mut out, records);
            }
            Request::Query(query) => {
                out.push(0x04);
                put_query(&mut out, query);
            }
            Request::Supports(query) => {
                out.push(0x05);
                put_query(&mut out, query);
            }
            Request::TableStats(table) => {
                out.push(0x06);
                put_str(&mut out, table);
            }
            Request::AdversaryView => out.push(0x07),
            Request::EntropyReply(bytes) => {
                out.push(0x08);
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Request::RegisterView { name, query } => {
                out.push(0x09);
                put_str(&mut out, name);
                put_query(&mut out, query);
            }
            Request::QueryView(name) => {
                out.push(0x0A);
                put_str(&mut out, name);
            }
            Request::RegisterIndex {
                name,
                table,
                column,
            } => {
                out.push(0x0B);
                put_str(&mut out, name);
                put_str(&mut out, table);
                put_str(&mut out, column);
            }
            Request::QueryIndexed { name, query } => {
                out.push(0x0C);
                put_str(&mut out, name);
                put_query(&mut out, query);
            }
        }
        out
    }

    /// Decodes a request from a frame payload.  Never panics; every byte of
    /// the payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let request = match c.u8()? {
            0x01 => Request::Hello(match c.u8()? {
                0 => SessionRequest::Shared,
                1 => {
                    let engine = get_engine_kind(&mut c)?;
                    let key: [u8; 32] = c.take(32)?.try_into().unwrap();
                    let backend = match c.u8()? {
                        0 => BackendRequest::Memory,
                        1 => BackendRequest::Disk,
                        2 => BackendRequest::DiskGroup,
                        _ => return Err(WireError::Invalid("unknown backend tag")),
                    };
                    SessionRequest::NewEngine {
                        engine,
                        master_key: key,
                        backend,
                    }
                }
                _ => return Err(WireError::Invalid("unknown session tag")),
            }),
            0x02 => Request::Setup {
                table: c.string()?,
                schema: get_schema(&mut c)?,
                records: get_records(&mut c)?,
            },
            0x03 => Request::Update {
                table: c.string()?,
                time: c.u64()?,
                records: get_records(&mut c)?,
            },
            0x04 => Request::Query(get_query(&mut c)?),
            0x05 => Request::Supports(get_query(&mut c)?),
            0x06 => Request::TableStats(c.string()?),
            0x07 => Request::AdversaryView,
            0x08 => {
                let len = c.count(1)?;
                Request::EntropyReply(c.take(len)?.to_vec())
            }
            0x09 => Request::RegisterView {
                name: c.string()?,
                query: get_query(&mut c)?,
            },
            0x0A => Request::QueryView(c.string()?),
            0x0B => Request::RegisterIndex {
                name: c.string()?,
                table: c.string()?,
                column: c.string()?,
            },
            0x0C => Request::QueryIndexed {
                name: c.string()?,
                query: get_query(&mut c)?,
            },
            _ => return Err(WireError::Invalid("unknown request tag")),
        };
        c.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(0x80),
            Response::EngineInfo {
                name,
                profile,
                cost,
            } => {
                out.push(0x81);
                put_str(&mut out, name);
                put_profile(&mut out, profile);
                put_cost(&mut out, cost);
            }
            Response::Outcome(outcome) => {
                out.push(0x82);
                put_outcome(&mut out, outcome);
            }
            Response::Supported(supported) => {
                out.push(0x83);
                put_bool(&mut out, *supported);
            }
            Response::Stats(stats) => {
                out.push(0x84);
                put_stats(&mut out, stats);
            }
            Response::View(view) => {
                out.push(0x85);
                put_view(&mut out, view);
            }
            Response::EntropyRequest(draw) => {
                out.push(0x90);
                match draw {
                    EntropyDraw::U32 => out.push(0),
                    EntropyDraw::U64 => out.push(1),
                    EntropyDraw::Fill(n) => {
                        out.push(2);
                        put_u32(&mut out, *n);
                    }
                }
            }
            Response::Edb(error) => {
                out.push(0xFF);
                put_edb_error(&mut out, error);
            }
            Response::Protocol(message) => {
                out.push(0xFE);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decodes a response from a frame payload.  Never panics; every byte of
    /// the payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let response = match c.u8()? {
            0x80 => Response::Ok,
            0x81 => Response::EngineInfo {
                name: c.string()?,
                profile: get_profile(&mut c)?,
                cost: get_cost(&mut c)?,
            },
            0x82 => Response::Outcome(get_outcome(&mut c)?),
            0x83 => Response::Supported(c.bool()?),
            0x84 => Response::Stats(get_stats(&mut c)?),
            0x85 => Response::View(get_view(&mut c)?),
            0x90 => Response::EntropyRequest(match c.u8()? {
                0 => EntropyDraw::U32,
                1 => EntropyDraw::U64,
                2 => EntropyDraw::Fill(c.u32()?),
                _ => return Err(WireError::Invalid("unknown entropy tag")),
            }),
            0xFF => Response::Edb(get_edb_error(&mut c)?),
            0xFE => Response::Protocol(c.string()?),
            _ => return Err(WireError::Invalid("unknown response tag")),
        };
        c.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_crypto::{MasterKey, RecordCryptor, RecordPlaintext};

    fn sample_records(n: usize) -> Vec<EncryptedRecord> {
        let master = MasterKey::from_bytes([7u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        (0..n)
            .map(|i| {
                cryptor
                    .encrypt(&RecordPlaintext::real(vec![i as u8; 8]))
                    .unwrap()
            })
            .collect()
    }

    fn round_trip_request(request: Request) {
        let bytes = request.encode();
        let decoded = Request::decode(&bytes).expect("valid request decodes");
        assert_eq!(decoded, request);
        assert_eq!(decoded.encode(), bytes, "canonical re-encoding");
    }

    fn round_trip_response(response: Response) {
        let bytes = response.encode();
        let decoded = Response::decode(&bytes).expect("valid response decodes");
        assert_eq!(decoded, response);
        assert_eq!(decoded.encode(), bytes, "canonical re-encoding");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello(SessionRequest::Shared));
        for backend in [
            BackendRequest::Memory,
            BackendRequest::Disk,
            BackendRequest::DiskGroup,
        ] {
            round_trip_request(Request::Hello(SessionRequest::NewEngine {
                engine: EngineKind::CryptEpsilon,
                master_key: [3u8; 32],
                backend,
            }));
        }
        round_trip_request(Request::Setup {
            table: "yellow".into(),
            schema: Schema::from_pairs(&[
                ("pick_time", DataType::Timestamp),
                ("pickup_id", DataType::Int),
            ]),
            records: sample_records(3),
        });
        round_trip_request(Request::Update {
            table: "yellow".into(),
            time: 42,
            records: sample_records(2),
        });
        round_trip_request(Request::Query(Query::Count {
            table: "t".into(),
            predicate: Some(Predicate::And(
                Box::new(Predicate::Between("a".into(), -1.5, f64::INFINITY)),
                Box::new(Predicate::Not(Box::new(Predicate::Eq(
                    "b".into(),
                    Value::Text("x".into()),
                )))),
            )),
        }));
        round_trip_request(Request::Supports(Query::JoinCount {
            left: "l".into(),
            right: "r".into(),
            left_column: "c".into(),
            right_column: "d".into(),
        }));
        round_trip_request(Request::TableStats("yellow".into()));
        round_trip_request(Request::AdversaryView);
        round_trip_request(Request::EntropyReply(vec![1, 2, 3, 4, 5, 6, 7, 8]));
        round_trip_request(Request::RegisterView {
            name: "q1".into(),
            query: Query::Count {
                table: "yellow".into(),
                predicate: Some(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
            },
        });
        round_trip_request(Request::QueryView("q1".into()));
        round_trip_request(Request::RegisterIndex {
            name: "idx_yellow_pickup_id".into(),
            table: "yellow".into(),
            column: "pickup_id".into(),
        });
        round_trip_request(Request::QueryIndexed {
            name: "idx_yellow_pickup_id".into(),
            query: Query::Count {
                table: "yellow".into(),
                predicate: Some(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
            },
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Ok);
        round_trip_response(Response::EngineInfo {
            name: "oblidb".into(),
            profile: LeakageProfile {
                class: LeakageClass::L0ResponseVolumeHiding,
                update_leaks_beyond_pattern: false,
                native_dummy_support: true,
            },
            cost: CostModel::oblidb(),
        });
        let mut groups = BTreeMap::new();
        groups.insert(GroupKey::Int(-4), 2.5);
        groups.insert(GroupKey::Text("z".into()), 3.75);
        round_trip_response(Response::Outcome(QueryOutcome {
            answer: QueryAnswer::Groups(groups),
            estimated_seconds: 1.25,
            measured_seconds: 0.5,
            touched_records: 99,
        }));
        round_trip_response(Response::Supported(false));
        round_trip_response(Response::Stats(TableStats {
            ciphertext_count: 1,
            ciphertext_bytes: 95,
            real_records: 1,
            dummy_records: 0,
        }));
        let mut view = AdversaryView::new();
        view.observe_update(0, 10, 950);
        view.observe_update(30, 2, 190);
        view.observe_query(QueryObservation {
            sequence: 0,
            kind: "count".into(),
            touched_records: 12,
            observed_response_volume: Some(7),
        });
        round_trip_response(Response::View(view));
        round_trip_response(Response::EntropyRequest(EntropyDraw::U64));
        round_trip_response(Response::EntropyRequest(EntropyDraw::Fill(32)));
        round_trip_response(Response::Protocol("bad frame".into()));
    }

    #[test]
    fn every_edb_error_round_trips_with_its_source_chain() {
        use std::error::Error as _;
        let errors = vec![
            EdbError::Crypto(CryptoError::AuthenticationFailed),
            EdbError::Crypto(CryptoError::PayloadTooLarge { got: 99, max: 64 }),
            EdbError::Crypto(CryptoError::MalformedCiphertext {
                got: 3,
                expected: 95,
            }),
            EdbError::Exec(ExecError::UnknownTable("t".into())),
            EdbError::Exec(ExecError::UnknownColumn {
                table: "t".into(),
                column: "c".into(),
            }),
            EdbError::UnsupportedQuery {
                engine: "crypt-epsilon",
                kind: "join",
            },
            EdbError::AlreadySetUp("yellow".into()),
            EdbError::NotSetUp("green".into()),
            EdbError::CorruptRow("bad tag".into()),
            EdbError::Storage(StorageError::Io {
                path: "/data/seg-000001.dpl".into(),
                message: "disk full".into(),
            }),
            EdbError::Storage(StorageError::Corrupt {
                path: "seg".into(),
                offset: 42,
                message: "bad crc".into(),
            }),
            EdbError::Storage(StorageError::Backend {
                message: "no disk root".into(),
            }),
            EdbError::UnknownView("q1".into()),
            EdbError::InvalidView("join queries cannot be materialized".into()),
            EdbError::UnsupportedQuery {
                engine: "remote",
                kind: "view",
            },
            EdbError::UnknownIndex("idx".into()),
            EdbError::InvalidIndex("range spans too many buckets".into()),
            EdbError::UnsupportedQuery {
                engine: "remote",
                kind: "index",
            },
        ];
        for error in errors {
            let bytes = Response::Edb(error.clone()).encode();
            let decoded = Response::decode(&bytes).unwrap();
            let Response::Edb(back) = &decoded else {
                panic!("decoded to a different response kind");
            };
            assert_eq!(*back, error);
            // The rendered message and the source chain survive the wire.
            assert_eq!(back.to_string(), error.to_string());
            match (back.source(), error.source()) {
                (Some(a), Some(b)) => assert_eq!(a.to_string(), b.to_string()),
                (None, None) => {}
                _ => panic!("source chain changed across the wire"),
            }
            assert_eq!(decoded.encode(), bytes);
        }
    }

    #[test]
    fn truncated_inputs_fail_cleanly() {
        let full = Request::Setup {
            table: "yellow".into(),
            schema: Schema::from_pairs(&[("a", DataType::Int)]),
            records: sample_records(2),
        }
        .encode();
        for len in 0..full.len() {
            let err = Request::decode(&full[..len]).unwrap_err();
            assert!(matches!(err, WireError::Truncated | WireError::Invalid(_)));
        }
        let full = Request::RegisterView {
            name: "q1".into(),
            query: Query::GroupByCount {
                table: "yellow".into(),
                group_by: "pickup_id".into(),
                predicate: None,
            },
        }
        .encode();
        for len in 0..full.len() {
            let err = Request::decode(&full[..len]).unwrap_err();
            assert!(matches!(err, WireError::Truncated | WireError::Invalid(_)));
        }
        let full = Request::QueryIndexed {
            name: "idx".into(),
            query: Query::Count {
                table: "yellow".into(),
                predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(60))),
            },
        }
        .encode();
        for len in 0..full.len() {
            let err = Request::decode(&full[..len]).unwrap_err();
            assert!(matches!(err, WireError::Truncated | WireError::Invalid(_)));
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A Setup frame claiming u32::MAX records must fail on the count
        // check, not attempt a 400 GB allocation.
        let mut payload = vec![0x02];
        put_str(&mut payload, "t");
        put_u32(&mut payload, 0); // empty schema
        put_u32(&mut payload, u32::MAX); // record count
        assert_eq!(Request::decode(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn duplicate_schema_columns_are_rejected_not_panicking() {
        let mut payload = vec![0x02];
        put_str(&mut payload, "t");
        put_u32(&mut payload, 2);
        put_str(&mut payload, "a");
        payload.push(0);
        put_str(&mut payload, "a");
        payload.push(0);
        put_u32(&mut payload, 0); // no records
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::Invalid("duplicate column name in schema"))
        );
    }

    #[test]
    fn over_deep_predicates_are_rejected() {
        let mut predicate = Predicate::True;
        for _ in 0..(MAX_PREDICATE_DEPTH + 2) {
            predicate = Predicate::Not(Box::new(predicate));
        }
        let bytes = Request::Query(Query::Count {
            table: "t".into(),
            predicate: Some(predicate),
        })
        .encode();
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::Invalid("predicate nests too deeply"))
        );
    }

    #[test]
    fn non_canonical_group_order_is_rejected() {
        // Encode Groups{2: x, 1: y} manually (descending keys): the decoder
        // must reject it, because accepting it would break byte-identical
        // re-encoding.
        let mut payload = vec![0x82, 1];
        put_u32(&mut payload, 2);
        put_group_key(&mut payload, &GroupKey::Int(2));
        put_f64(&mut payload, 1.0);
        put_group_key(&mut payload, &GroupKey::Int(1));
        put_f64(&mut payload, 2.0);
        put_f64(&mut payload, 0.0); // estimated
        put_f64(&mut payload, 0.0); // measured
        put_u64(&mut payload, 0); // touched
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::Invalid("group keys must be strictly ascending"))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::AdversaryView.encode();
        bytes.push(0);
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::Invalid("trailing bytes after message"))
        );
    }
}
