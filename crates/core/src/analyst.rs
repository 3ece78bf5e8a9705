//! The analyst's runtime.
//!
//! The analyst is the (trusted, authorized) party that poses queries against
//! the outsourced database.  In the evaluation the analyst also knows the
//! ground truth — the logical database — so it can measure the L1 error of
//! every answer; in production the error is of course unknown, which is
//! exactly why the paper proves the logical-gap bounds instead.

use crate::metrics::QuerySample;
use crate::timeline::Timestamp;
use dpsync_edb::emm::IndexDef;
use dpsync_edb::exec::PlainDatabase;
use dpsync_edb::planner::{LeakagePolicy, Plan, Planner, Statistics};
use dpsync_edb::query::QueryAnswer;
use dpsync_edb::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase};
use dpsync_edb::views::ViewDef;
use dpsync_edb::Query;
use rand::RngCore;
use std::collections::BTreeSet;

/// A named query in the analyst's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedQuery {
    /// Short label ("Q1", "Q2", "Q3").
    pub label: String,
    /// The query itself.
    pub query: Query,
}

impl NamedQuery {
    /// Creates a named query.
    pub fn new(label: impl Into<String>, query: Query) -> Self {
        Self {
            label: label.into(),
            query,
        }
    }
}

/// Registration status of one recurring query's server-side view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ViewState {
    /// Not yet registered (e.g. the table has not been set up yet); the
    /// analyst retries at the next pose.
    Pending,
    /// Registered; reads go through `query_view`.
    Registered,
    /// The query shape or the engine cannot serve this as a view; reads
    /// stay on the scan path permanently.
    Unsupported,
}

/// Registration status of one workload-derived encrypted-multimap index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexState {
    /// Not yet registered (the table may not exist yet); retried next pose.
    Pending,
    /// Registered on the server; the planner may route reads through it.
    Registered,
    /// The engine or column cannot carry this index; never retried.
    Unsupported,
}

/// The analyst: a fixed set of queries posed periodically.
///
/// With [`Analyst::with_views`], the analyst treats its workload as *hot*:
/// each materializable query is auto-registered as a server-side view (named
/// after its label) the first time its table exists, and subsequent poses
/// read the view in O(result size).  Answers and the adversary's transcript
/// are unchanged — only the measured query latency drops.
///
/// With [`Analyst::with_indexes`], the analyst derives candidate
/// encrypted-multimap indexes from its workload (one per predicate or join
/// column, named `idx_{table}_{column}`), registers them lazily, and keeps
/// one leakage-aware [`Planner`] across poses, folding each pose's newly
/// arrived rows into its statistics before planning: under
/// [`LeakagePolicy::TranscriptOnly`] every read stays a full scan (and the
/// adversary's view is byte-identical to an index-free run), while
/// [`LeakagePolicy::AllowIndexedVolume`] lets selective reads pay the
/// declared indexed-volume leakage for sub-scan cost.
#[derive(Debug, Clone, Default)]
pub struct Analyst {
    queries: Vec<NamedQuery>,
    use_views: bool,
    view_states: Vec<ViewState>,
    /// The planner of an index-planning analyst, kept across poses.
    planner: Option<Planner>,
    index_states: Vec<(IndexDef, IndexState)>,
}

impl Analyst {
    /// Creates an analyst with the given query workload (scan reads).
    pub fn new(queries: Vec<NamedQuery>) -> Self {
        Self {
            queries,
            use_views: false,
            view_states: Vec::new(),
            planner: None,
            index_states: Vec::new(),
        }
    }

    /// Creates an analyst that auto-registers its recurring queries as
    /// materialized views and serves reads from them where possible.
    pub fn with_views(queries: Vec<NamedQuery>) -> Self {
        let view_states = vec![ViewState::Pending; queries.len()];
        Self {
            queries,
            use_views: true,
            view_states,
            planner: None,
            index_states: Vec::new(),
        }
    }

    /// Creates an analyst that derives selection indexes from its workload
    /// and plans each pose under the given leakage policy.
    pub fn with_indexes(queries: Vec<NamedQuery>, policy: LeakagePolicy) -> Self {
        let index_states = candidate_indexes(&queries)
            .into_iter()
            .map(|def| (def, IndexState::Pending))
            .collect();
        Self {
            queries,
            use_views: false,
            view_states: Vec::new(),
            planner: Some(Planner::new(policy, Statistics::new())),
            index_states,
        }
    }

    /// The configured queries.
    pub fn queries(&self) -> &[NamedQuery] {
        &self.queries
    }

    /// Whether this analyst serves recurring queries from materialized views.
    pub fn uses_views(&self) -> bool {
        self.use_views
    }

    /// The leakage policy of an index-planning analyst, if any.
    pub fn index_policy(&self) -> Option<LeakagePolicy> {
        self.planner.as_ref().map(Planner::policy)
    }

    /// Poses every supported query against `edb`, comparing each answer with
    /// the ground truth computed over `logical`, and returns one sample per
    /// query.  Unsupported queries (e.g. joins on the Crypt-ε-like engine)
    /// are skipped, mirroring the paper's footnote 2.
    ///
    /// A views-enabled analyst first (lazily, idempotently) registers each
    /// materializable query and then reads through the view; queries whose
    /// shape or engine cannot be served by a view fall back to the scan
    /// path, and tables that have not been set up yet are retried at the
    /// next pose.
    pub fn pose_all(
        &mut self,
        time: Timestamp,
        edb: &dyn SecureOutsourcedDatabase,
        logical: &PlainDatabase,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<QuerySample>, EdbError> {
        let registered = self.refresh_index_plan(edb, logical)?;
        let mut samples = Vec::with_capacity(self.queries.len());
        for index in 0..self.queries.len() {
            let named = &self.queries[index];
            if !edb.supports(&named.query) {
                continue;
            }
            if self.use_views && self.view_states[index] == ViewState::Pending {
                self.view_states[index] = register_hot_query(edb, named)?;
            }
            let named = &self.queries[index];
            let truth = logical.execute(&named.query)?;
            let outcome = if self.use_views && self.view_states[index] == ViewState::Registered {
                edb.query_view(&named.label, rng)?
            } else if let Some(planner) = &self.planner {
                pose_planned(edb, planner, &registered, &named.query, rng)?
            } else {
                edb.query(&named.query, rng)?
            };
            // The analyst is the trust boundary for released answers: a
            // Laplace-perturbed count can come back negative, and a count
            // below zero is never a useful answer, so it is floored at zero
            // *here* — never inside the engine, whose release (and whose
            // server-side transcript) must keep the raw perturbed value.
            let released = clamp_released(outcome.answer);
            samples.push(QuerySample {
                time: time.value(),
                query: named.label.clone(),
                l1_error: released.l1_error(&truth),
                estimated_qet: outcome.estimated_seconds,
                measured_qet: outcome.measured_seconds,
            });
        }
        Ok(samples)
    }

    /// Index-planning bookkeeping done once per pose: retries pending
    /// registrations, folds the rows the analyst's logical copy gained since
    /// the last pose into the planner's statistics, and returns the
    /// registered indexes (none for non-index analysts).
    fn refresh_index_plan(
        &mut self,
        edb: &dyn SecureOutsourcedDatabase,
        logical: &PlainDatabase,
    ) -> Result<Vec<IndexDef>, EdbError> {
        let Some(planner) = self.planner.as_mut() else {
            return Ok(Vec::new());
        };
        for (def, state) in &mut self.index_states {
            if *state == IndexState::Pending {
                *state = register_workload_index(edb, def)?;
            }
        }
        let stats = planner.stats_mut();
        let mut observed = BTreeSet::new();
        for named in &self.queries {
            for table in named.query.tables() {
                if !observed.insert(table) {
                    continue;
                }
                match logical
                    .table(table)
                    .and_then(|t| Some((t.schema()?, t.rows())))
                {
                    Some((schema, rows)) => stats.observe_table(table, schema, rows),
                    None => stats.forget_table(table),
                }
            }
        }
        Ok(self.registered_indexes())
    }

    /// The workload indexes the engine has registered so far.
    fn registered_indexes(&self) -> Vec<IndexDef> {
        self.index_states
            .iter()
            .filter(|(_, state)| *state == IndexState::Registered)
            .map(|(def, _)| def.clone())
            .collect()
    }
}

/// Poses one query through the plan the leakage-aware planner chose.
fn pose_planned(
    edb: &dyn SecureOutsourcedDatabase,
    planner: &Planner,
    indexes: &[IndexDef],
    query: &Query,
    rng: &mut dyn RngCore,
) -> Result<QueryOutcome, EdbError> {
    let planned = planner.plan(query, indexes, &edb.cost_model());
    match planned.plan {
        Plan::FullScan => edb.query(query, rng),
        Plan::IndexLookup { index } | Plan::IndexNestedLoop { index } => {
            match edb.query_indexed(&index, query, rng) {
                Ok(outcome) => Ok(outcome),
                // Defensive: the engine refused the indexed path at read
                // time (e.g. shape restrictions); answer by scan instead.
                Err(EdbError::UnsupportedQuery { .. } | EdbError::InvalidIndex(_)) => {
                    edb.query(query, rng)
                }
                Err(other) => Err(other),
            }
        }
    }
}

/// Derives the workload's candidate indexes: one per (table, predicate
/// column) and one per join side, named `idx_{table}_{column}`.
fn candidate_indexes(queries: &[NamedQuery]) -> Vec<IndexDef> {
    let mut seen = BTreeSet::new();
    let mut defs = Vec::new();
    for named in queries {
        let pairs: Vec<(&str, &str)> = match &named.query {
            Query::Count { table, predicate }
            | Query::GroupByCount {
                table, predicate, ..
            }
            | Query::Select {
                table, predicate, ..
            } => predicate
                .iter()
                .flat_map(|p| p.columns())
                .map(|column| (table.as_str(), column))
                .collect(),
            Query::JoinCount {
                left,
                right,
                left_column,
                right_column,
            } => vec![
                (left.as_str(), left_column.as_str()),
                (right.as_str(), right_column.as_str()),
            ],
        };
        for (table, column) in pairs {
            if !seen.insert((table.to_string(), column.to_string())) {
                continue;
            }
            if let Ok(def) = IndexDef::new(format!("idx_{table}_{column}"), table, column) {
                defs.push(def);
            }
        }
    }
    defs
}

/// One lazy registration attempt for a workload-derived index.
fn register_workload_index(
    edb: &dyn SecureOutsourcedDatabase,
    def: &IndexDef,
) -> Result<IndexState, EdbError> {
    match edb.register_index(def) {
        Ok(()) => Ok(IndexState::Registered),
        // No index support on this engine, a name/definition conflict, or a
        // column the table lacks or cannot index: permanent scan fallback.
        Err(EdbError::UnsupportedQuery { .. } | EdbError::InvalidIndex(_) | EdbError::Exec(_)) => {
            Ok(IndexState::Unsupported)
        }
        // The table has not joined the fleet yet: retry at the next pose.
        Err(EdbError::NotSetUp(_)) => Ok(IndexState::Pending),
        Err(other) => Err(other),
    }
}

/// Floors noisy counts at zero on the analyst's side of the trust boundary.
///
/// Selection results pass through unchanged — only count shapes can go
/// negative under Laplace perturbation.
fn clamp_released(answer: QueryAnswer) -> QueryAnswer {
    match answer {
        QueryAnswer::Scalar(v) => QueryAnswer::Scalar(v.max(0.0)),
        QueryAnswer::Groups(groups) => {
            QueryAnswer::Groups(groups.into_iter().map(|(k, v)| (k, v.max(0.0))).collect())
        }
        rows @ QueryAnswer::Rows(_) => rows,
    }
}

/// One lazy registration attempt for a recurring query.
fn register_hot_query(
    edb: &dyn SecureOutsourcedDatabase,
    named: &NamedQuery,
) -> Result<ViewState, EdbError> {
    // A shape that cannot be materialized (joins, selects) stays on the
    // scan path without ever hitting the server.
    let Ok(def) = ViewDef::new(named.label.clone(), named.query.clone()) else {
        return Ok(ViewState::Unsupported);
    };
    match edb.register_view(&def) {
        Ok(()) => Ok(ViewState::Registered),
        // No view support on this engine, a name conflict, or a column the
        // table does not have: permanent fallback to scans.
        Err(EdbError::UnsupportedQuery { .. } | EdbError::InvalidView(_) | EdbError::Exec(_)) => {
            Ok(ViewState::Unsupported)
        }
        // The table has not joined the fleet yet: retry at the next pose.
        Err(EdbError::NotSetUp(_)) => Ok(ViewState::Pending),
        Err(other) => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_crypto::{MasterKey, RecordCryptor};
    use dpsync_dp::DpRng;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::engines::{CryptEpsilonEngine, ObliDbEngine};
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{DataType, Row, Schema, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn analyst() -> Analyst {
        Analyst::new(vec![
            NamedQuery::new("Q1", paper_queries::q1_range_count("yellow")),
            NamedQuery::new("Q2", paper_queries::q2_group_by_count("yellow")),
            NamedQuery::new("Q3", paper_queries::q3_join_count("yellow", "green")),
        ])
    }

    fn logical(rows_yellow: &[Row], rows_green: &[Row]) -> PlainDatabase {
        let mut db = PlainDatabase::new();
        db.create_table("yellow", schema());
        db.create_table("green", schema());
        for r in rows_yellow {
            db.insert("yellow", r.clone());
        }
        for r in rows_green {
            db.insert("green", r.clone());
        }
        db
    }

    #[test]
    fn oblidb_samples_have_zero_error_when_fully_synced() {
        let master = MasterKey::from_bytes([1u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let yellow: Vec<Row> = (0..30).map(|i| row(i, 50 + i as i64)).collect();
        let green: Vec<Row> = (0..10).map(|i| row(i, 5)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 3))
            .unwrap();
        engine
            .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 3))
            .unwrap();
        let mut rng = DpRng::seed_from_u64(1);
        let samples = analyst()
            .pose_all(Timestamp(360), &engine, &logical(&yellow, &green), &mut rng)
            .unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert_eq!(s.l1_error, 0.0, "query {} should be exact", s.query);
            assert!(s.estimated_qet > 0.0);
            assert_eq!(s.time, 360);
        }
    }

    #[test]
    fn unsynced_records_create_error() {
        let master = MasterKey::from_bytes([2u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let synced: Vec<Row> = (0..20).map(|i| row(i, 60)).collect();
        let all: Vec<Row> = (0..50).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &synced, 0))
            .unwrap();
        engine.setup("green", schema(), vec![]).unwrap();
        let mut rng = DpRng::seed_from_u64(2);
        let samples = analyst()
            .pose_all(Timestamp(720), &engine, &logical(&all, &[]), &mut rng)
            .unwrap();
        let q1 = samples.iter().find(|s| s.query == "Q1").unwrap();
        assert_eq!(q1.l1_error, 30.0, "30 unsynced matching records");
    }

    #[test]
    fn crypt_epsilon_skips_joins() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::new(&master);
        let yellow: Vec<Row> = (0..10).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 0))
            .unwrap();
        engine.setup("green", schema(), vec![]).unwrap();
        let mut rng = DpRng::seed_from_u64(3);
        let samples = analyst()
            .pose_all(Timestamp(360), &engine, &logical(&yellow, &[]), &mut rng)
            .unwrap();
        let labels: Vec<_> = samples.iter().map(|s| s.query.as_str()).collect();
        assert_eq!(labels, vec!["Q1", "Q2"], "Q3 must be skipped for Crypt-ε");
    }

    #[test]
    fn negative_noisy_counts_are_clamped_at_the_analyst_boundary() {
        use dpsync_dp::Epsilon;
        // Fixed seed exercising a Laplace draw that goes negative: the
        // engine releases the raw perturbed count (the transcript keeps it),
        // and the analyst floors it at zero before scoring, so the sample's
        // L1 error against the empty ground truth is exactly zero.
        let master = MasterKey::from_bytes([7u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::with_query_epsilon(&master, Epsilon::new_unchecked(0.05));
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &[], 0))
            .unwrap();
        let db = logical(&[], &[]);
        let q1 = paper_queries::q1_range_count("yellow");

        // Probe the exact draw the analyst will consume: seed 0's first
        // Laplace sample on the empty table is negative.
        let mut probe_rng = DpRng::seed_from_u64(0);
        let raw = engine
            .query(&q1, &mut probe_rng)
            .unwrap()
            .answer
            .as_scalar()
            .unwrap();
        assert!(raw < 0.0, "seed 0 must produce a negative draw, got {raw}");

        let mut rng = DpRng::seed_from_u64(0);
        let samples = Analyst::new(vec![NamedQuery::new("Q1", q1)])
            .pose_all(Timestamp(60), &engine, &db, &mut rng)
            .unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].l1_error, 0.0,
            "the clamped answer must match the empty ground truth exactly"
        );
    }

    #[test]
    fn accessors() {
        let a = analyst();
        assert_eq!(a.queries().len(), 3);
        assert_eq!(a.queries()[0].label, "Q1");
        assert!(!a.uses_views());
        assert!(Analyst::with_views(vec![]).uses_views());
        assert!(Analyst::default().queries().is_empty());
    }

    #[test]
    fn view_analyst_samples_match_scan_analyst() {
        // Two identically-loaded engines, same seeds: the views-enabled
        // analyst must release identical samples except for the measured
        // wall clock.  Q3 (a join) silently stays on the scan path.
        let build = || {
            let master = MasterKey::from_bytes([5u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            let yellow: Vec<Row> = (0..25).map(|i| row(i, 50 + i as i64)).collect();
            let green: Vec<Row> = (0..8).map(|i| row(i, 5)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 4))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 2))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (view_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(11);
        let mut view_rng = DpRng::seed_from_u64(11);
        let mut hot = Analyst::with_views(analyst().queries().to_vec());
        // Pose twice: the first registers + backfills, the second reads the
        // maintained state.  Samples must match the scan path both times.
        for _ in 0..2 {
            let scan_samples = analyst()
                .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
                .unwrap();
            let view_samples = hot
                .pose_all(Timestamp(360), &view_engine, &db, &mut view_rng)
                .unwrap();
            assert_eq!(view_samples.len(), scan_samples.len());
            for (v, s) in view_samples.iter().zip(&scan_samples) {
                assert_eq!(v.query, s.query);
                assert_eq!(v.l1_error, s.l1_error);
                assert_eq!(v.estimated_qet, s.estimated_qet);
            }
        }
        // Two poses each: the servers' query transcripts are identical.
        assert_eq!(
            scan_engine.adversary_view().queries(),
            view_engine.adversary_view().queries()
        );
    }

    #[test]
    fn transcript_only_index_analyst_is_byte_identical_to_scans() {
        // Indexes get registered and maintained server-side, but the
        // TranscriptOnly policy keeps every read on the scan plan — so the
        // adversary's entire view must match an index-free run byte for byte.
        let build = || {
            let master = MasterKey::from_bytes([8u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            let yellow: Vec<Row> = (0..40).map(|i| row(i, 40 + i as i64)).collect();
            let green: Vec<Row> = (0..12).map(|i| row(i % 4, 7)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 5))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 3))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (index_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(21);
        let mut index_rng = DpRng::seed_from_u64(21);
        let mut planned = Analyst::with_indexes(
            analyst().queries().to_vec(),
            dpsync_edb::planner::LeakagePolicy::TranscriptOnly,
        );
        for _ in 0..2 {
            let scan_samples = analyst()
                .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
                .unwrap();
            let index_samples = planned
                .pose_all(Timestamp(360), &index_engine, &db, &mut index_rng)
                .unwrap();
            assert_eq!(index_samples.len(), scan_samples.len());
            for (i, s) in index_samples.iter().zip(&scan_samples) {
                assert_eq!((i.l1_error, i.estimated_qet), (s.l1_error, s.estimated_qet));
            }
        }
        assert_eq!(
            scan_engine.adversary_view(),
            index_engine.adversary_view(),
            "TranscriptOnly must not change the adversary's view at all"
        );
    }

    #[test]
    fn permissive_index_analyst_matches_answers_and_declares_index_reads() {
        let build = || {
            let master = MasterKey::from_bytes([9u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            // Selective pickup ids: Q1's [50, 100] range catches few rows,
            // so the planner routes Q1 through the index.
            let yellow: Vec<Row> = (0..60).map(|i| row(i, (i as i64) * 10)).collect();
            let green: Vec<Row> = (0..10).map(|i| row(i % 3, 7)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 6))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 2))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (index_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(31);
        let mut index_rng = DpRng::seed_from_u64(31);
        let mut planned = Analyst::with_indexes(
            analyst().queries().to_vec(),
            dpsync_edb::planner::LeakagePolicy::AllowIndexedVolume,
        );
        let scan_samples = analyst()
            .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
            .unwrap();
        let index_samples = planned
            .pose_all(Timestamp(360), &index_engine, &db, &mut index_rng)
            .unwrap();
        assert_eq!(index_samples.len(), scan_samples.len());
        for (i, s) in index_samples.iter().zip(&scan_samples) {
            assert_eq!(
                i.l1_error, s.l1_error,
                "indexed answers must equal scan answers bit for bit"
            );
        }
        let view = index_engine.adversary_view();
        assert!(
            view.queries().iter().any(|o| o.kind == "index"),
            "at least one read must go through the index under the permissive policy"
        );
    }

    /// The planner kept across poses must plan every query exactly as one
    /// rebuilt from the logical copy at that pose, with equal statistics
    /// (row cursors included), while rows arrive at every pose and the
    /// analyst is once posed against a shorter copy.
    #[test]
    fn kept_planner_matches_a_rebuilt_planner_at_every_pose() {
        let master = MasterKey::from_bytes([10u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        engine.setup("yellow", schema(), vec![]).unwrap();
        engine.setup("green", schema(), vec![]).unwrap();
        let policy = LeakagePolicy::AllowIndexedVolume;
        let mut planned = Analyst::with_indexes(analyst().queries().to_vec(), policy);
        let mut rng = DpRng::seed_from_u64(41);
        let mut db = logical(&[], &[]);
        let mut plans = BTreeSet::new();
        for pose in 0..24u64 {
            // Pickup ids start inside Q1's [50, 100] range (the index would
            // fetch everything: scan) and later spread out (index wins).
            let yellow: Vec<Row> = (0..(pose * 7) % 5 + 1)
                .map(|i| {
                    let id = if pose < 8 {
                        50 + i as i64
                    } else {
                        (pose * 40 + i) as i64
                    };
                    row(pose * 10 + i, id)
                })
                .collect();
            let green: Vec<Row> = (0..pose % 3).map(|i| row(pose * 10 + i, 7)).collect();
            for (table, rows) in [("yellow", &yellow), ("green", &green)] {
                let batch = encrypt_batch(&mut cryptor, rows, 1);
                engine.update(table, pose, batch).unwrap();
                for r in rows {
                    db.insert(table, r.clone());
                }
            }
            // One pose against a shorter copy: the statistics start over.
            let posed = if pose == 12 {
                let short = db.table("yellow").unwrap().rows()[..3].to_vec();
                logical(&short, &[])
            } else {
                db.clone()
            };
            planned
                .pose_all(Timestamp(pose), &engine, &posed, &mut rng)
                .unwrap();

            let mut rebuilt = Statistics::new();
            for table in ["yellow", "green"] {
                let plain = posed.table(table).unwrap();
                rebuilt.observe_table(table, plain.schema().unwrap(), plain.rows());
            }
            let kept = planned.planner.as_mut().unwrap();
            assert_eq!(kept.stats_mut(), &rebuilt, "statistics at pose {pose}");
            let rebuilt = Planner::new(policy, rebuilt);
            let registered = planned.registered_indexes();
            let kept = planned.planner.as_ref().unwrap();
            for named in planned.queries() {
                let plan = kept.plan(&named.query, &registered, &engine.cost_model());
                assert_eq!(
                    plan,
                    rebuilt.plan(&named.query, &registered, &engine.cost_model()),
                    "{} at pose {pose}",
                    named.label
                );
                plans.insert(format!("{}: {:?}", named.label, plan.plan));
            }
        }
        assert!(
            plans.contains("Q1: FullScan") && plans.iter().any(|p| p.starts_with("Q1: Index")),
            "Q1's plan must change as the statistics move: {plans:?}"
        );
    }

    #[test]
    fn view_registration_retries_until_table_exists() {
        let master = MasterKey::from_bytes([6u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let mut hot = Analyst::with_views(vec![NamedQuery::new(
            "Q1",
            paper_queries::q1_range_count("yellow"),
        )]);
        let mut rng = DpRng::seed_from_u64(12);
        // Table missing: the pose fails downstream (logical db also lacks
        // it), but registration must not poison the state.
        let empty = PlainDatabase::new();
        assert!(hot
            .pose_all(Timestamp(30), &engine, &empty, &mut rng)
            .is_err());
        // Once the table exists the view registers and serves reads.
        let yellow: Vec<Row> = (0..10).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 0))
            .unwrap();
        let db = logical(&yellow, &[]);
        let samples = hot.pose_all(Timestamp(60), &engine, &db, &mut rng).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].l1_error, 0.0);
    }
}
