//! A client-side leakage-aware query planner.
//!
//! The planner decides, per query, whether to answer by full scan or through
//! a registered encrypted-multimap index ([`crate::emm`]).  The decision has
//! two axes:
//!
//! * **Leakage**: an indexed read reveals the number of index entries
//!   fetched for the query's condition ([`PlanLeakage::IndexedVolume`]) —
//!   a signal correlated with the condition's true selectivity that a full
//!   scan never emits.  Under [`LeakagePolicy::TranscriptOnly`] the planner
//!   refuses to pay this and always scans; under
//!   [`LeakagePolicy::AllowIndexedVolume`] it may trade the declared leakage
//!   for speed.
//! * **Cost**: using the engine's own [`CostModel`] and per-column
//!   [`ColumnStats`] held client-side (the analyst knows its own data), the
//!   planner estimates how many entries a lookup would fetch and compares the
//!   indexed cost against the scan cost.  A low-selectivity condition (or a
//!   tiny table) stays on the scan plan even when the policy would allow the
//!   index.
//!
//! The planner runs entirely on the trusted client — plan *selection* leaks
//! nothing; only plan *execution* does, and each plan carries the
//! [`PlanLeakage`] tag it declares.

use crate::cost::CostModel;
use crate::emm::{index_condition, IndexCondition, IndexDef};
use crate::leakage::PlanLeakage;
use crate::query::Query;
use crate::row::Row;
use crate::schema::{Schema, Value};
use std::collections::{BTreeMap, HashSet};

/// What extra leakage the analyst is willing to accept from query plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakagePolicy {
    /// Never leak beyond the engine's baseline transcript: every query runs
    /// as a full scan and the adversary's view is byte-identical to a run
    /// without any indexes registered.
    TranscriptOnly,
    /// Allow plans that reveal per-query indexed fetch volumes in exchange
    /// for sub-scan query cost.
    AllowIndexedVolume,
}

/// The physical plan chosen for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Scan every stored ciphertext (the engines' default path).
    FullScan,
    /// Serve a single-table query through the named index's candidates.
    IndexLookup {
        /// Name of the registered index to use.
        index: String,
    },
    /// Serve an equi-join by scanning the non-indexed side and probing the
    /// named index with each join value.
    IndexNestedLoop {
        /// Name of the registered index to probe.
        index: String,
    },
}

impl Plan {
    /// The leakage this plan declares when executed.
    pub fn leakage(&self) -> PlanLeakage {
        match self {
            Plan::FullScan => PlanLeakage::TranscriptOnly,
            Plan::IndexLookup { .. } | Plan::IndexNestedLoop { .. } => PlanLeakage::IndexedVolume,
        }
    }
}

/// A chosen plan together with its declared leakage and cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The physical plan.
    pub plan: Plan,
    /// The leakage executing the plan declares.
    pub leakage: PlanLeakage,
    /// The planner's cost estimate for the plan, in model seconds.
    pub estimated_seconds: f64,
}

/// Client-side statistics for one indexable column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Records the planner believes the table stores (the analyst's best
    /// estimate of the server-side ciphertext count; using the real row
    /// count instead merely under-costs the scan, biasing toward scans).
    pub rows: u64,
    /// Distinct non-NULL values observed in the column (≥ 1 when any row
    /// has a value).
    pub distinct: u64,
    /// Smallest observed value (as `i64` image).
    pub min: i64,
    /// Largest observed value.
    pub max: i64,
}

impl ColumnStats {
    /// Expected rows matching an equality on this column (uniformity
    /// assumption: rows / distinct).
    fn expected_eq(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct as f64
        }
    }

    /// Expected rows matching `BETWEEN lo AND hi` (uniform spread over the
    /// observed [min, max] span).
    fn expected_range(&self, lo: f64, hi: f64) -> f64 {
        if self.rows == 0 || hi < lo {
            return 0.0;
        }
        let span = (self.max - self.min) as f64;
        if span <= 0.0 {
            // Single-valued column: all or nothing.
            let v = self.min as f64;
            return if (lo..=hi).contains(&v) {
                self.rows as f64
            } else {
                0.0
            };
        }
        let overlap = (hi.min(self.max as f64) - lo.max(self.min as f64)).max(0.0);
        self.rows as f64 * (overlap / span).min(1.0)
    }
}

/// Per-(table, column) statistics the analyst feeds the planner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Statistics {
    columns: BTreeMap<(String, String), ColumnStats>,
    /// Running state behind [`Statistics::observe_table`], per table.
    observed: BTreeMap<String, Observed>,
}

/// What [`Statistics::observe_table`] has folded in for one table.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    /// The schema the rows were read under.
    schema: Schema,
    /// Rows folded in so far: the first `cursor` rows of the table.
    cursor: usize,
    /// Per column, in schema order.
    columns: Vec<ColumnRun>,
}

/// The distinct integer images seen so far in one column, and their span.
#[derive(Debug, Clone, Default, PartialEq)]
struct ColumnRun {
    distinct: HashSet<i64>,
    span: Option<(i64, i64)>,
}

impl Observed {
    fn new(schema: &Schema) -> Self {
        Self {
            schema: schema.clone(),
            cursor: 0,
            columns: vec![ColumnRun::default(); schema.arity()],
        }
    }
}

impl Statistics {
    /// Creates an empty statistics set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or replaces) the stats for `table.column`.
    pub fn record(&mut self, table: &str, column: &str, stats: ColumnStats) {
        self.columns
            .insert((table.to_string(), column.to_string()), stats);
    }

    /// The stats for `table.column`, if recorded.
    pub fn get(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.columns.get(&(table.to_string(), column.to_string()))
    }

    /// Derives stats for every indexable column of `table` from plaintext
    /// rows (the analyst's logical copy of its own data).
    ///
    /// Incremental under an **append-only contract**: between two calls for
    /// the same table, `rows` may only grow at its end, so each call folds
    /// in just the rows appended since the last one — O(Δ), not O(table).
    /// A call with fewer rows than before, or under a different schema,
    /// starts the table over: its earlier stats (recorded ones included) are
    /// dropped and every row is read again.  The result always equals what
    /// a fresh [`Statistics`] would derive from the same rows.
    pub fn observe_table(&mut self, table: &str, schema: &Schema, rows: &[Row]) {
        let seen = match self.observed.get_mut(table) {
            Some(seen) if seen.cursor <= rows.len() && seen.schema == *schema => seen,
            _ => {
                self.forget_table(table);
                self.observed
                    .entry(table.to_string())
                    .or_insert_with(|| Observed::new(schema))
            }
        };
        for row in &rows[seen.cursor..] {
            for (ci, run) in seen.columns.iter_mut().enumerate() {
                if let Some(v) = row.value(ci).and_then(Value::as_i64) {
                    run.distinct.insert(v);
                    run.span = Some(run.span.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
                }
            }
        }
        seen.cursor = rows.len();
        for (col, run) in schema.columns().iter().zip(&seen.columns) {
            let Some((min, max)) = run.span else { continue };
            let stats = ColumnStats {
                rows: rows.len() as u64,
                distinct: run.distinct.len() as u64,
                min,
                max,
            };
            self.columns
                .insert((table.to_string(), col.name.clone()), stats);
        }
    }

    /// Drops every stat of `table`, recorded or observed (the analyst's
    /// logical copy no longer has the table).
    pub fn forget_table(&mut self, table: &str) {
        self.observed.remove(table);
        self.columns.retain(|(t, _), _| t != table);
    }
}

/// The leakage-aware planner.
#[derive(Debug, Clone)]
pub struct Planner {
    policy: LeakagePolicy,
    stats: Statistics,
}

impl Planner {
    /// Creates a planner with the given policy and statistics.
    pub fn new(policy: LeakagePolicy, stats: Statistics) -> Self {
        Self { policy, stats }
    }

    /// The policy this planner enforces.
    pub fn policy(&self) -> LeakagePolicy {
        self.policy
    }

    /// Mutable access to the statistics (the analyst refreshes them as its
    /// logical database grows).
    pub fn stats_mut(&mut self) -> &mut Statistics {
        &mut self.stats
    }

    /// Chooses a plan for `query` given the registered indexes and the
    /// engine's cost model.
    ///
    /// Under [`LeakagePolicy::TranscriptOnly`] this is always the full scan.
    /// Otherwise the cheapest eligible indexed plan is compared against the
    /// scan estimate, and the index wins only when its estimated cost is
    /// strictly lower.
    pub fn plan(&self, query: &Query, indexes: &[IndexDef], cost: &CostModel) -> PlannedQuery {
        let scan = PlannedQuery {
            plan: Plan::FullScan,
            leakage: PlanLeakage::TranscriptOnly,
            estimated_seconds: self.scan_estimate(query, cost),
        };
        if self.policy == LeakagePolicy::TranscriptOnly {
            return scan;
        }
        let mut best = scan;
        for def in indexes {
            if let Some(candidate) = self.indexed_estimate(query, def, cost) {
                if candidate.estimated_seconds < best.estimated_seconds {
                    best = candidate;
                }
            }
        }
        best
    }

    fn table_rows(&self, table: &str) -> u64 {
        // Any recorded column of the table carries its row count.
        self.stats
            .columns
            .iter()
            .find(|((t, _), _)| t == table)
            .map_or(0, |(_, s)| s.rows)
    }

    fn scan_estimate(&self, query: &Query, cost: &CostModel) -> f64 {
        match query {
            Query::Count { table, .. } | Query::Select { table, .. } => {
                cost.count_cost(self.table_rows(table))
            }
            Query::GroupByCount { table, .. } => cost.group_by_cost(self.table_rows(table)),
            Query::JoinCount { left, right, .. } => {
                cost.join_cost(self.table_rows(left), self.table_rows(right))
            }
        }
    }

    /// The cost of serving `query` through `def`, or `None` when the index
    /// cannot serve it (wrong table/column, no usable condition, no stats).
    fn indexed_estimate(
        &self,
        query: &Query,
        def: &IndexDef,
        cost: &CostModel,
    ) -> Option<PlannedQuery> {
        match query {
            Query::Count { table, predicate }
            | Query::GroupByCount {
                table, predicate, ..
            }
            | Query::Select {
                table, predicate, ..
            } => {
                if table != def.table() {
                    return None;
                }
                let stats = self.stats.get(def.table(), def.column())?;
                let expected = match index_condition(predicate.as_ref(), def.column())? {
                    IndexCondition::Eq(_) => stats.expected_eq(),
                    IndexCondition::Range(lo, hi) => stats.expected_range(lo, hi),
                };
                Some(PlannedQuery {
                    plan: Plan::IndexLookup {
                        index: def.name().to_string(),
                    },
                    leakage: PlanLeakage::IndexedVolume,
                    estimated_seconds: cost.count_cost(expected.ceil() as u64),
                })
            }
            Query::JoinCount {
                left,
                right,
                left_column,
                right_column,
            } => {
                // The index must sit on one join side; the other side drives.
                let outer = if def.table() == right && def.column() == right_column {
                    left
                } else if def.table() == left && def.column() == left_column {
                    right
                } else {
                    return None;
                };
                let inner = self.stats.get(def.table(), def.column())?;
                let outer_rows = self.table_rows(outer);
                let fetched = outer_rows as f64 * inner.expected_eq();
                Some(PlannedQuery {
                    plan: Plan::IndexNestedLoop {
                        index: def.name().to_string(),
                    },
                    leakage: PlanLeakage::IndexedVolume,
                    estimated_seconds: cost.count_cost(outer_rows + fetched.ceil() as u64),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{paper_queries, Predicate};
    use crate::row::Row;
    use crate::schema::{DataType, Schema, Value};

    fn stats_with(table: &str, column: &str, stats: ColumnStats) -> Statistics {
        let mut s = Statistics::new();
        s.record(table, column, stats);
        s
    }

    fn selective_stats() -> Statistics {
        // 100k rows, 10k distinct pickup ids spread over [0, 100k].
        stats_with(
            "yellow",
            "pickup_id",
            ColumnStats {
                rows: 100_000,
                distinct: 10_000,
                min: 0,
                max: 100_000,
            },
        )
    }

    fn idx() -> IndexDef {
        IndexDef::new("idx", "yellow", "pickup_id").unwrap()
    }

    #[test]
    fn transcript_only_policy_always_scans() {
        let planner = Planner::new(LeakagePolicy::TranscriptOnly, selective_stats());
        let planned = planner.plan(
            &paper_queries::q1_range_count("yellow"),
            &[idx()],
            &CostModel::oblidb(),
        );
        assert_eq!(planned.plan, Plan::FullScan);
        assert_eq!(planned.leakage, PlanLeakage::TranscriptOnly);
    }

    #[test]
    fn selective_lookup_beats_scan_under_permissive_policy() {
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, selective_stats());
        let cost = CostModel::oblidb();
        // Q1's range [50, 100] covers 0.05% of the value span: the index
        // fetches ~50 of 100k rows.
        let planned = planner.plan(&paper_queries::q1_range_count("yellow"), &[idx()], &cost);
        assert_eq!(
            planned.plan,
            Plan::IndexLookup {
                index: "idx".into()
            }
        );
        assert_eq!(planned.leakage, PlanLeakage::IndexedVolume);
        assert!(planned.estimated_seconds < cost.count_cost(100_000));
    }

    #[test]
    fn unselective_conditions_stay_on_the_scan_plan() {
        // Every row shares one value: the "index" would fetch the whole
        // table, so the scan (identical fetch, no extra leakage) wins.
        let stats = stats_with(
            "yellow",
            "pickup_id",
            ColumnStats {
                rows: 10_000,
                distinct: 1,
                min: 75,
                max: 75,
            },
        );
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, stats);
        let q = Query::Count {
            table: "yellow".into(),
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(75))),
        };
        let planned = planner.plan(&q, &[idx()], &CostModel::oblidb());
        assert_eq!(planned.plan, Plan::FullScan);
    }

    #[test]
    fn queries_the_index_cannot_serve_fall_back() {
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, selective_stats());
        let cost = CostModel::oblidb();
        // No condition on the indexed column.
        let q = Query::Count {
            table: "yellow".into(),
            predicate: Some(Predicate::GreaterThan("pick_time".into(), 10.0)),
        };
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
        // Wrong table.
        let q = paper_queries::q1_range_count("green");
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
        // No stats for the column.
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, Statistics::new());
        let q = paper_queries::q1_range_count("yellow");
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
    }

    #[test]
    fn join_prefers_index_nested_loop_when_probes_are_cheap() {
        let mut stats = Statistics::new();
        stats.record(
            "yellow",
            "pick_time",
            ColumnStats {
                rows: 200_000,
                distinct: 160_000,
                min: 0,
                max: 259_200,
            },
        );
        stats.record(
            "green",
            "pick_time",
            ColumnStats {
                rows: 200_000,
                distinct: 160_000,
                min: 0,
                max: 259_200,
            },
        );
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, stats);
        let jix = IndexDef::new("jix", "green", "pick_time").unwrap();
        let cost = CostModel::oblidb();
        let planned = planner.plan(
            &paper_queries::q3_join_count("yellow", "green"),
            &[jix],
            &cost,
        );
        assert_eq!(
            planned.plan,
            Plan::IndexNestedLoop {
                index: "jix".into()
            }
        );
        assert!(planned.estimated_seconds < cost.join_cost(200_000, 200_000));
        // An index on a non-join column cannot serve the join.
        let other = IndexDef::new("other", "green", "pickup_id").unwrap();
        let planned = planner.plan(
            &paper_queries::q3_join_count("yellow", "green"),
            &[other],
            &cost,
        );
        assert_eq!(planned.plan, Plan::FullScan);
    }

    #[test]
    fn observe_table_derives_stats_from_logical_rows() {
        let schema = Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("fare", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Timestamp(i),
                    Value::Int(50 + (i as i64 % 5)),
                    Value::Float(1.5),
                ])
            })
            .collect();
        let mut stats = Statistics::new();
        stats.observe_table("yellow", &schema, &rows);
        let s = stats.get("yellow", "pickup_id").unwrap();
        assert_eq!(s.rows, 10);
        assert_eq!(s.distinct, 5);
        assert_eq!((s.min, s.max), (50, 54));
        // Float columns have no i64 image and get no stats.
        assert!(stats.get("yellow", "fare").is_none());
        // Timestamp columns do.
        assert!(stats.get("yellow", "pick_time").is_some());
    }

    /// Folding rows in step by step — appends, a table that shrinks, a
    /// table replaced under a new schema — must leave exactly the state a
    /// fresh [`Statistics`] derives from the final rows in one call, cursor
    /// included, so a skipped or re-read row fails the comparison.
    #[test]
    fn incremental_observation_equals_a_rebuild_after_every_step() {
        use rand::{Rng, SeedableRng};
        let trips = Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("fare", DataType::Float),
        ]);
        let zones =
            Schema::from_pairs(&[("pickup_id", DataType::Int), ("dropoff_id", DataType::Int)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57a7);
        let cell = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::Float(1.5),
            _ => Value::Int(rng.gen_range(-40..40)),
        };
        let tables = ["yellow", "green"];
        let mut schemas = [trips.clone(), trips.clone()];
        let mut data: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
        let mut incremental = Statistics::new();
        let (mut shrinks, mut replacements) = (0, 0);
        for _ in 0..400 {
            let t = rng.gen_range(0..2);
            match rng.gen_range(0..12) {
                0 => {
                    let keep = rng.gen_range(0..=data[t].len());
                    shrinks += usize::from(keep < data[t].len());
                    data[t].truncate(keep);
                }
                1 => {
                    schemas[t] = if schemas[t] == trips {
                        zones.clone()
                    } else {
                        trips.clone()
                    };
                    let keep = rng.gen_range(0..=data[t].len());
                    data[t].truncate(keep);
                    for row in &mut data[t] {
                        *row = Row::new((0..schemas[t].arity()).map(|_| cell(&mut rng)).collect());
                    }
                    replacements += 1;
                }
                _ => {
                    for _ in 0..rng.gen_range(0..6) {
                        let row = (0..schemas[t].arity()).map(|_| cell(&mut rng)).collect();
                        data[t].push(Row::new(row));
                    }
                }
            }
            incremental.observe_table(tables[t], &schemas[t], &data[t]);
            let mut rebuilt = Statistics::new();
            for u in 0..2 {
                if incremental.observed.contains_key(tables[u]) {
                    rebuilt.observe_table(tables[u], &schemas[u], &data[u]);
                }
            }
            assert_eq!(incremental, rebuilt);
        }
        assert!(shrinks > 5 && replacements > 5, "both reset paths ran");
        incremental.forget_table("yellow");
        assert!(incremental.get("yellow", "pickup_id").is_none());
    }

    #[test]
    fn expected_range_handles_degenerate_spans() {
        let single = ColumnStats {
            rows: 100,
            distinct: 1,
            min: 7,
            max: 7,
        };
        assert_eq!(single.expected_range(0.0, 10.0), 100.0);
        assert_eq!(single.expected_range(8.0, 10.0), 0.0);
        let empty = ColumnStats {
            rows: 0,
            distinct: 0,
            min: 0,
            max: 0,
        };
        assert_eq!(empty.expected_eq(), 0.0);
        assert_eq!(empty.expected_range(0.0, 10.0), 0.0);
    }
}
