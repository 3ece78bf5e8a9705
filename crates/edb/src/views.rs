//! Incremental materialized views: O(Δ) maintenance for recurring analytics.
//!
//! DP-Sync's analyst workload is *recurring* — the paper's Q1 range count and
//! Q2 group-by are re-posed every sync epoch — yet a plain `Π_Query` rescans
//! the whole decrypted mirror, O(total records) per query.  Following the
//! IncShrink direction (incremental view maintenance at `Π_Update` time), a
//! [`ViewDef`] registers a supported query shape once and a
//! [`MaterializedView`] keeps its aggregate state up to date *inside the
//! ingest path*: each decrypted `Π_Update` batch is applied as a delta, so a
//! view read is O(result size) no matter how large the table has grown.
//!
//! # Privacy: maintenance adds no leakage
//!
//! The maintenance access pattern is data-independent in the sense Adore
//! argues for: **every record of the DP-padded batch is touched exactly
//! once** per registered view — dummies apply as explicit no-ops through the
//! same per-record step ([`MaterializedView::apply_dummy`]) — so maintenance
//! cost is a function only of the batch volumes `|γ_t|`, which the
//! Definition-2 update-pattern transcript already reveals.  View reads
//! observe exactly what the equivalent full scan would observe (same query
//! kind, same touched-record count, same — possibly DP-noised — response
//! volume), so the adversary's transcript is byte-identical with views on or
//! off; see ARCHITECTURE.md §10 for the full argument.
//!
//! # Supported shapes
//!
//! * `Count` with any (or no) selection predicate — Q1 is the range-count
//!   special case;
//! * `GroupByCount` with any (or no) selection predicate — Q2.
//!
//! Both are insert-monotone (DP-Sync databases are append-only), so the
//! delta rule is exact: a matching inserted row increments one counter.
//! Joins and row-returning selections are rejected at definition time.

use crate::exec::{ExecError, ResolvedPredicate};
use crate::query::{Query, QueryAnswer};
use crate::rewrite;
use crate::row::Row;
use crate::schema::{GroupKey, Schema, Value};
use crate::sogdb::EdbError;
use std::collections::BTreeMap;

/// Maximum length of a view name accepted at registration (keeps hostile
/// remote registrations from storing unbounded identifiers).
pub const MAX_VIEW_NAME_LEN: usize = 128;

/// A registered view: a name bound to a materializable query shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    name: String,
    query: Query,
}

impl ViewDef {
    /// Validates and creates a view definition.
    ///
    /// Rejects empty or oversized names, query shapes that cannot be
    /// maintained incrementally (joins, row-returning selects), and queries
    /// that reference the engine-internal dummy-flag column.
    pub fn new(name: impl Into<String>, query: Query) -> Result<Self, EdbError> {
        let name = name.into();
        if name.is_empty() || name.len() > MAX_VIEW_NAME_LEN {
            return Err(EdbError::InvalidView(format!(
                "view name must be 1..={MAX_VIEW_NAME_LEN} bytes"
            )));
        }
        let (predicate, group_by) = match &query {
            Query::Count { predicate, .. } => (predicate.as_ref(), None),
            Query::GroupByCount {
                predicate,
                group_by,
                ..
            } => (predicate.as_ref(), Some(group_by.as_str())),
            Query::JoinCount { .. } | Query::Select { .. } => {
                return Err(EdbError::InvalidView(format!(
                    "{} queries cannot be materialized incrementally",
                    query.kind()
                )));
            }
        };
        let references_flag = group_by == Some(rewrite::IS_DUMMY_COLUMN)
            || predicate.is_some_and(|p| p.columns().contains(&rewrite::IS_DUMMY_COLUMN));
        if references_flag {
            return Err(EdbError::InvalidView(format!(
                "views may not reference the reserved `{}` column",
                rewrite::IS_DUMMY_COLUMN
            )));
        }
        Ok(Self { name, query })
    }

    /// The view's name (the handle used by `query_view`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The query this view materializes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The single table the view is defined over.
    pub fn table(&self) -> &str {
        match &self.query {
            Query::Count { table, .. } | Query::GroupByCount { table, .. } => table,
            // Unreachable by construction: `new` rejects other shapes.
            Query::JoinCount { left, .. } => left,
            Query::Select { table, .. } => table,
        }
    }
}

/// The incremental aggregate state of one registered view.
///
/// Counts are exact `u64`s (the mirror is append-only, so deltas only ever
/// increment) and are converted to the engine's f64 answer representation at
/// read time — byte-identical to what the full-scan executor produces.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    def: ViewDef,
    /// The selection predicate, resolved once against the mirror schema.
    filter: ResolvedPredicate,
    /// Pre-resolved group column index (`GroupByCount` only).
    group_index: Option<usize>,
    /// Scalar count state (`Count` views).
    count: u64,
    /// Per-group count state (`GroupByCount` views).
    groups: BTreeMap<GroupKey, u64>,
    /// Total records this view's maintenance has touched — real *and* dummy,
    /// since every record of a padded batch takes the per-record step.
    maintained_records: u64,
}

impl MaterializedView {
    /// Creates empty view state over `schema` (the engine's mirror schema,
    /// i.e. the logical schema extended with the dummy flag).
    ///
    /// Resolves the predicate and group column once, with the scan
    /// executor's semantics, and fails like it does when the group column is
    /// unknown.
    pub fn new(def: ViewDef, schema: &Schema) -> Result<Self, EdbError> {
        let (predicate, group_index) = match def.query() {
            Query::Count { predicate, .. } => (predicate.as_ref(), None),
            Query::GroupByCount {
                table,
                group_by,
                predicate,
            } => {
                let index =
                    schema
                        .column_index(group_by)
                        .ok_or_else(|| ExecError::UnknownColumn {
                            table: table.clone(),
                            column: group_by.clone(),
                        })?;
                (predicate.as_ref(), Some(index))
            }
            // Unreachable by construction: `ViewDef::new` rejects the rest.
            Query::JoinCount { .. } | Query::Select { .. } => (None, None),
        };
        Ok(Self {
            filter: ResolvedPredicate::filter(predicate, schema),
            def,
            group_index,
            count: 0,
            groups: BTreeMap::new(),
            maintained_records: 0,
        })
    }

    /// The definition this state maintains.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// Applies one real inserted row, laid out as the schema the view was
    /// created over.  Predicates never reference the dummy flag (rejected at
    /// definition time) and the flag is the last mirror column, so the same
    /// call works for logical rows and for flag-extended mirror rows.
    pub fn apply_row(&mut self, row: &Row) {
        self.maintained_records += 1;
        if !self.filter.matches(row) {
            return;
        }
        match self.group_index {
            None => self.count += 1,
            Some(index) => {
                let key = row.value(index).map_or(GroupKey::Null, Value::group_key);
                *self.groups.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Applies one dummy record: a deliberate no-op that still takes the
    /// per-record maintenance step, so the per-batch maintenance cost depends
    /// only on the (already leaked) padded batch volume.
    pub fn apply_dummy(&mut self) {
        self.maintained_records += 1;
    }

    /// Applies a mirror row (flag column included): dummies take the no-op
    /// path, real rows the delta path.  Used to backfill a view registered
    /// after data has already been ingested.
    pub fn apply_mirror_row(&mut self, row: &Row, flag_column: usize) {
        if row.value(flag_column) == Some(&Value::Bool(true)) {
            self.apply_dummy();
        } else {
            self.apply_row(row);
        }
    }

    /// The current answer, in the executor's representation.
    pub fn answer(&self) -> QueryAnswer {
        match self.group_index {
            None => QueryAnswer::Scalar(self.count as f64),
            Some(_) => QueryAnswer::Groups(
                self.groups
                    .iter()
                    .map(|(k, n)| (k.clone(), *n as f64))
                    .collect(),
            ),
        }
    }

    /// Number of values a read of this view releases (1 for counts, one per
    /// group otherwise).
    pub fn result_size(&self) -> u64 {
        match self.group_index {
            None => 1,
            Some(_) => self.groups.len() as u64,
        }
    }

    /// Total records (real + dummy) maintenance has touched so far.
    pub fn maintained_records(&self) -> u64 {
        self.maintained_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{paper_queries, Predicate};
    use crate::schema::DataType;

    fn schema() -> Schema {
        rewrite::schema_with_dummy_flag(&Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ]))
    }

    fn mirror_row(t: u64, p: i64, dummy: bool) -> Row {
        Row::new(rewrite::values_with_dummy_flag(
            if dummy {
                vec![Value::Null, Value::Null]
            } else {
                vec![Value::Timestamp(t), Value::Int(p)]
            },
            dummy,
        ))
    }

    #[test]
    fn def_validation() {
        assert!(ViewDef::new("q1", paper_queries::q1_range_count("yellow")).is_ok());
        assert!(ViewDef::new("q2", paper_queries::q2_group_by_count("yellow")).is_ok());
        assert!(matches!(
            ViewDef::new("", paper_queries::q1_range_count("yellow")),
            Err(EdbError::InvalidView(_))
        ));
        assert!(matches!(
            ViewDef::new("x".repeat(200), paper_queries::q1_range_count("yellow")),
            Err(EdbError::InvalidView(_))
        ));
        assert!(matches!(
            ViewDef::new("j", paper_queries::q3_join_count("yellow", "green")),
            Err(EdbError::InvalidView(_))
        ));
        assert!(matches!(
            ViewDef::new(
                "s",
                Query::Select {
                    table: "yellow".into(),
                    columns: vec![],
                    predicate: None,
                }
            ),
            Err(EdbError::InvalidView(_))
        ));
        // The engine-internal flag column is out of bounds for analysts.
        assert!(matches!(
            ViewDef::new(
                "d",
                Query::GroupByCount {
                    table: "yellow".into(),
                    group_by: rewrite::IS_DUMMY_COLUMN.into(),
                    predicate: None,
                }
            ),
            Err(EdbError::InvalidView(_))
        ));
        assert!(matches!(
            ViewDef::new(
                "d2",
                Query::Count {
                    table: "yellow".into(),
                    predicate: Some(Predicate::Eq(
                        rewrite::IS_DUMMY_COLUMN.into(),
                        Value::Bool(false)
                    )),
                }
            ),
            Err(EdbError::InvalidView(_))
        ));
        let def = ViewDef::new("q1", paper_queries::q1_range_count("yellow")).unwrap();
        assert_eq!(def.name(), "q1");
        assert_eq!(def.table(), "yellow");
    }

    #[test]
    fn count_view_tracks_matching_rows_and_ignores_dummies() {
        let def = ViewDef::new("q1", paper_queries::q1_range_count("yellow")).unwrap();
        let mut view = MaterializedView::new(def, &schema()).unwrap();
        for (p, dummy) in [(60, false), (200, false), (75, false), (0, true)] {
            view.apply_mirror_row(&mirror_row(1, p, dummy), 2);
        }
        assert_eq!(view.answer(), QueryAnswer::Scalar(2.0));
        assert_eq!(view.result_size(), 1);
        assert_eq!(view.maintained_records(), 4);
    }

    #[test]
    fn group_view_matches_scan_semantics() {
        let def = ViewDef::new("q2", paper_queries::q2_group_by_count("yellow")).unwrap();
        let mut view = MaterializedView::new(def, &schema()).unwrap();
        for p in [5, 5, 9] {
            view.apply_row(&mirror_row(1, p, false));
        }
        view.apply_dummy();
        let answer = view.answer();
        let groups = answer.as_groups().unwrap();
        assert_eq!(groups.get(&Value::Int(5).group_key()), Some(&2.0));
        assert_eq!(groups.get(&Value::Int(9).group_key()), Some(&1.0));
        assert_eq!(view.result_size(), 2);
        assert_eq!(view.maintained_records(), 4);
    }

    #[test]
    fn unknown_group_column_is_rejected_like_the_scan() {
        let def = ViewDef::new(
            "bad",
            Query::GroupByCount {
                table: "yellow".into(),
                group_by: "ghost".into(),
                predicate: None,
            },
        )
        .unwrap();
        assert!(matches!(
            MaterializedView::new(def, &schema()),
            Err(EdbError::Exec(_))
        ));
    }
}
