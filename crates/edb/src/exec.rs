//! A plaintext reference query executor.
//!
//! The executor serves two purposes:
//!
//! 1. It computes the **true answers** over the owner's logical database —
//!    the baseline against which the paper's query-error metric (§4.5.2) is
//!    measured.
//! 2. It is the computational core reused by both simulated engines after
//!    they have decrypted their records (conceptually "inside the enclave"
//!    for the ObliDB-like engine, "inside the MPC" for the Crypt-ε-like
//!    engine).  The engines differ in their leakage and their cost model, not
//!    in the relational algebra.

use crate::query::{Predicate, Query, QueryAnswer};
use crate::row::Row;
use crate::schema::{GroupKey, Schema, Value};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// Errors raised while executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query referenced a table that does not exist.
    UnknownTable(String),
    /// The query referenced a column that does not exist in the table.
    UnknownColumn {
        /// Table being queried.
        table: String,
        /// Missing column.
        column: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            ExecError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A predicate with every column name resolved to its position in one
/// schema.
///
/// The executor resolves a query's predicate once and a materialized view
/// resolves its predicate once at registration, so evaluating a row is a
/// walk over positions with no per-row name search.  An unknown column
/// resolves to a leaf that never matches, and comparisons against NULL or
/// non-numeric values are `false` — SQL's three-valued logic collapsed to a
/// boolean filter (so `NOT` over an unknown column matches every row).
#[derive(Debug, Clone)]
pub(crate) enum ResolvedPredicate {
    True,
    /// A leaf over a column the schema does not have.
    Never,
    Eq(usize, Value),
    Between(usize, f64, f64),
    LessThan(usize, f64),
    GreaterThan(usize, f64),
    And(Box<ResolvedPredicate>, Box<ResolvedPredicate>),
    Or(Box<ResolvedPredicate>, Box<ResolvedPredicate>),
    Not(Box<ResolvedPredicate>),
}

impl ResolvedPredicate {
    /// Resolves `predicate` against `schema`.
    pub(crate) fn new(predicate: &Predicate, schema: &Schema) -> Self {
        let at = |column: &str| schema.column_index(column);
        let node = |p: &Predicate| Box::new(Self::new(p, schema));
        match predicate {
            Predicate::True => Self::True,
            Predicate::Eq(c, v) => at(c).map_or(Self::Never, |i| Self::Eq(i, v.clone())),
            Predicate::Between(c, lo, hi) => {
                at(c).map_or(Self::Never, |i| Self::Between(i, *lo, *hi))
            }
            Predicate::LessThan(c, b) => at(c).map_or(Self::Never, |i| Self::LessThan(i, *b)),
            Predicate::GreaterThan(c, b) => at(c).map_or(Self::Never, |i| Self::GreaterThan(i, *b)),
            Predicate::And(a, b) => Self::And(node(a), node(b)),
            Predicate::Or(a, b) => Self::Or(node(a), node(b)),
            Predicate::Not(inner) => Self::Not(node(inner)),
        }
    }

    /// Resolves an optional filter; no filter matches every row.
    pub(crate) fn filter(predicate: Option<&Predicate>, schema: &Schema) -> Self {
        predicate.map_or(Self::True, |p| Self::new(p, schema))
    }

    /// Whether `row` satisfies the predicate.
    pub(crate) fn matches(&self, row: &Row) -> bool {
        let numeric = |i: &usize| row.value(*i).and_then(Value::as_f64);
        match self {
            Self::True => true,
            Self::Never => false,
            Self::Eq(i, expected) => row.value(*i) == Some(expected),
            Self::Between(i, lo, hi) => numeric(i).is_some_and(|v| v >= *lo && v <= *hi),
            Self::LessThan(i, bound) => numeric(i).is_some_and(|v| v < *bound),
            Self::GreaterThan(i, bound) => numeric(i).is_some_and(|v| v > *bound),
            Self::And(a, b) => a.matches(row) && b.matches(row),
            Self::Or(a, b) => a.matches(row) || b.matches(row),
            Self::Not(inner) => !inner.matches(row),
        }
    }
}

/// A plaintext table: schema plus rows.
#[derive(Debug, Clone, Default)]
pub struct PlainTable {
    schema: Option<Schema>,
    rows: Vec<Row>,
}

impl PlainTable {
    /// Creates an empty table with a schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema: Some(schema),
            rows: Vec::new(),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// The stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }
}

/// An in-memory plaintext database: a set of named tables.
///
/// This is the executor used for ground-truth answers; the engines embed
/// their own (decrypted) tables and call [`execute`] on them.
#[derive(Debug, Clone, Default)]
pub struct PlainDatabase {
    tables: BTreeMap<String, PlainTable>,
}

impl PlainDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or replaces) a table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) {
        self.tables.insert(name.into(), PlainTable::new(schema));
    }

    /// Whether the named table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Inserts a row into the named table, creating the table schemalessly if
    /// it does not exist (used by engines that defer schema registration).
    ///
    /// Called once per logical row by the simulation drivers, so an existing
    /// table is found without allocating its name.
    pub fn insert(&mut self, table: &str, row: Row) {
        match self.tables.get_mut(table) {
            Some(t) => t.push(row),
            None => self.tables.entry(table.to_string()).or_default().push(row),
        }
    }

    /// Returns the named table.
    pub fn table(&self, name: &str) -> Option<&PlainTable> {
        self.tables.get(name)
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(PlainTable::len).sum()
    }

    /// Executes a query and returns its answer.
    pub fn execute(&self, query: &Query) -> Result<QueryAnswer, ExecError> {
        execute(query, |name| {
            self.tables
                .get(name)
                .map(|t| (t.schema.as_ref(), t.rows.as_slice()))
        })
    }
}

/// Executes `query` against tables resolved through `lookup`.
///
/// `lookup` returns the (optional) schema and row slice for a table name, or
/// `None` when the table does not exist.  Engines use this entry point so
/// they can resolve tables from their own storage structures.
///
/// Nothing is copied on this per-query hot path: schemas are borrowed, and
/// rows may be borrowed too (`R` is `Row` for a stored slice, `&Row` for a
/// selection of stored rows such as index candidates or a join side with
/// its dummies filtered out).  Each predicate and column is resolved to a
/// position once per query, before the first row is read.
pub fn execute<'a, R, F>(query: &Query, lookup: F) -> Result<QueryAnswer, ExecError>
where
    R: Borrow<Row> + 'a,
    F: Fn(&str) -> Option<(Option<&'a Schema>, &'a [R])>,
{
    let resolve = |name: &str| -> Result<(Option<&'a Schema>, &'a [R]), ExecError> {
        lookup(name).ok_or_else(|| ExecError::UnknownTable(name.to_string()))
    };
    let unknown = |table: &str, column: &str| ExecError::UnknownColumn {
        table: table.to_string(),
        column: column.to_string(),
    };
    let column = |table: &str, schema: &Schema, column: &str| {
        schema
            .column_index(column)
            .ok_or_else(|| unknown(table, column))
    };

    match query {
        Query::Count { table, predicate } => {
            let (schema, rows) = resolve(table)?;
            let filter = match (schema_or_err(table, schema, predicate.as_ref())?, predicate) {
                (Some(s), p) => ResolvedPredicate::filter(p.as_ref(), s),
                (None, None) => ResolvedPredicate::True,
                (None, Some(_)) => ResolvedPredicate::Never,
            };
            let count = rows
                .iter()
                .map(Borrow::borrow)
                .filter(|row| filter.matches(row))
                .count();
            Ok(QueryAnswer::Scalar(count as f64))
        }
        Query::GroupByCount {
            table,
            group_by,
            predicate,
        } => {
            let (schema, rows) = resolve(table)?;
            let schema = schema_or_err(table, schema, predicate.as_ref())?
                .ok_or_else(|| unknown(table, group_by))?;
            let group_index = column(table, schema, group_by)?;
            let filter = ResolvedPredicate::filter(predicate.as_ref(), schema);
            // Hot path: group keys are built by reference (no per-row `Value`
            // clone) and counts accumulate as exact `u64` in a hash map; the
            // ordered f64 answer map is built once at the end.
            let mut groups: HashMap<GroupKey, u64> = HashMap::new();
            for row in rows {
                let row = row.borrow();
                if !filter.matches(row) {
                    continue;
                }
                let key = row
                    .value(group_index)
                    .map_or(GroupKey::Null, Value::group_key);
                *groups.entry(key).or_insert(0) += 1;
            }
            Ok(QueryAnswer::Groups(
                groups.into_iter().map(|(k, n)| (k, n as f64)).collect(),
            ))
        }
        Query::JoinCount {
            left,
            right,
            left_column,
            right_column,
        } => {
            let (left_schema, left_rows) = resolve(left)?;
            let (right_schema, right_rows) = resolve(right)?;
            let left_schema = left_schema.ok_or_else(|| unknown(left, left_column))?;
            let right_schema = right_schema.ok_or_else(|| unknown(right, right_column))?;
            let li = column(left, left_schema, left_column)?;
            let ri = column(right, right_schema, right_column)?;
            // Hash join on the grouping key of the join value.
            let mut build: HashMap<GroupKey, u64> = HashMap::new();
            for row in right_rows {
                if let Some(v) = row.borrow().value(ri) {
                    if !v.is_null() {
                        *build.entry(v.group_key()).or_insert(0) += 1;
                    }
                }
            }
            let mut matches = 0u64;
            for row in left_rows {
                if let Some(v) = row.borrow().value(li) {
                    if !v.is_null() {
                        if let Some(count) = build.get(&v.group_key()) {
                            matches += count;
                        }
                    }
                }
            }
            Ok(QueryAnswer::Scalar(matches as f64))
        }
        Query::Select {
            table,
            columns,
            predicate,
        } => {
            let (schema, rows) = resolve(table)?;
            let schema =
                schema.ok_or_else(|| unknown(table, columns.first().map_or("", String::as_str)))?;
            let indices: Vec<usize> = if columns.is_empty() {
                (0..schema.arity()).collect()
            } else {
                columns
                    .iter()
                    .map(|c| column(table, schema, c))
                    .collect::<Result<_, _>>()?
            };
            let filter = ResolvedPredicate::filter(predicate.as_ref(), schema);
            let out = rows
                .iter()
                .map(Borrow::borrow)
                .filter(|row| filter.matches(row))
                .map(|row| row.project(&indices).values().to_vec())
                .collect();
            Ok(QueryAnswer::Rows(out))
        }
    }
}

fn schema_or_err<'a>(
    table: &str,
    schema: Option<&'a Schema>,
    predicate: Option<&Predicate>,
) -> Result<Option<&'a Schema>, ExecError> {
    if schema.is_none() {
        if let Some(p) = predicate {
            if let Some(col) = p.columns().first() {
                return Err(ExecError::UnknownColumn {
                    table: table.to_string(),
                    column: (*col).to_string(),
                });
            }
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::paper_queries;
    use crate::schema::DataType;

    fn taxi_schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("dropoff_id", DataType::Int),
            ("distance", DataType::Float),
            ("fare", DataType::Float),
        ])
    }

    fn taxi_row(time: u64, pickup: i64, dropoff: i64) -> Row {
        Row::new(vec![
            Value::Timestamp(time),
            Value::Int(pickup),
            Value::Int(dropoff),
            Value::Float(1.0),
            Value::Float(10.0),
        ])
    }

    fn sample_db() -> PlainDatabase {
        let mut db = PlainDatabase::new();
        db.create_table("yellow", taxi_schema());
        db.create_table("green", taxi_schema());
        for (t, p, d) in [
            (1u64, 55i64, 10i64),
            (2, 99, 11),
            (3, 120, 12),
            (4, 75, 13),
            (4, 55, 14),
        ] {
            db.insert("yellow", taxi_row(t, p, d));
        }
        for (t, p, d) in [(2u64, 7i64, 1i64), (4, 8, 2), (9, 9, 3)] {
            db.insert("green", taxi_row(t, p, d));
        }
        db
    }

    #[test]
    fn count_without_predicate() {
        let db = sample_db();
        let q = Query::Count {
            table: "yellow".into(),
            predicate: None,
        };
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(5.0));
    }

    #[test]
    fn q1_range_count_matches_manual_count() {
        let db = sample_db();
        let q = paper_queries::q1_range_count("yellow");
        // pickup_id in [50,100]: 55, 99, 75, 55 -> 4
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(4.0));
    }

    #[test]
    fn q2_group_by_count() {
        let db = sample_db();
        let q = paper_queries::q2_group_by_count("yellow");
        let answer = db.execute(&q).unwrap();
        let groups = answer.as_groups().unwrap();
        assert_eq!(groups.get(&Value::Int(55).group_key()), Some(&2.0));
        assert_eq!(groups.get(&Value::Int(99).group_key()), Some(&1.0));
        assert_eq!(groups.len(), 4);
        assert_eq!(answer.total(), 5.0);
    }

    #[test]
    fn q3_join_count_on_pick_time() {
        let db = sample_db();
        let q = paper_queries::q3_join_count("yellow", "green");
        // yellow times {1,2,3,4,4}, green times {2,4,9}: t=2 matches 1*1, t=4 matches 2*1 -> 3.
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(3.0));
    }

    #[test]
    fn join_handles_duplicate_keys_on_both_sides() {
        let mut db = PlainDatabase::new();
        db.create_table("a", taxi_schema());
        db.create_table("b", taxi_schema());
        for _ in 0..3 {
            db.insert("a", taxi_row(5, 1, 1));
        }
        for _ in 0..4 {
            db.insert("b", taxi_row(5, 2, 2));
        }
        let q = paper_queries::q3_join_count("a", "b");
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(12.0));
    }

    #[test]
    fn select_projects_requested_columns() {
        let db = sample_db();
        let q = Query::Select {
            table: "green".into(),
            columns: vec!["pickup_id".into()],
            predicate: Some(Predicate::GreaterThan("pick_time".into(), 3.0)),
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(
            rows.as_rows().unwrap(),
            &[vec![Value::Int(8)], vec![Value::Int(9)]]
        );
    }

    #[test]
    fn select_all_columns_when_none_specified() {
        let db = sample_db();
        let q = Query::Select {
            table: "green".into(),
            columns: vec![],
            predicate: None,
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows.as_rows().unwrap().len(), 3);
        assert_eq!(rows.as_rows().unwrap()[0].len(), 5);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = sample_db();
        let q = Query::Count {
            table: "missing".into(),
            predicate: None,
        };
        assert_eq!(
            db.execute(&q),
            Err(ExecError::UnknownTable("missing".into()))
        );

        let q = Query::GroupByCount {
            table: "yellow".into(),
            group_by: "no_such".into(),
            predicate: None,
        };
        assert!(matches!(
            db.execute(&q),
            Err(ExecError::UnknownColumn { .. })
        ));
        assert!(db.execute(&q).unwrap_err().to_string().contains("no_such"));
    }

    #[test]
    fn predicate_logic_operators() {
        let schema = taxi_schema();
        let row = taxi_row(10, 60, 5);
        let matches = |p: &Predicate| ResolvedPredicate::new(p, &schema).matches(&row);
        let p = Predicate::And(
            Box::new(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
            Box::new(Predicate::Not(Box::new(Predicate::Eq(
                "dropoff_id".into(),
                Value::Int(99),
            )))),
        );
        assert!(matches(&p));
        let p_or = Predicate::Or(
            Box::new(Predicate::LessThan("pickup_id".into(), 10.0)),
            Box::new(Predicate::GreaterThan("pick_time".into(), 5.0)),
        );
        assert!(matches(&p_or));
        assert!(matches(&Predicate::True));
        // Unknown column is simply false, not an error at predicate level,
        // so its negation holds.
        let ghost = Predicate::Eq("ghost".into(), Value::Int(1));
        assert!(!matches(&ghost));
        assert!(matches(&Predicate::Not(Box::new(ghost))));
    }

    #[test]
    fn join_over_borrowed_rows_counts_duplicate_keys_on_both_sides() {
        let schema = taxi_schema();
        // A NULL join value (the last row of each side) matches nothing,
        // not even another NULL.
        let null = Row::new(vec![Value::Null; 5]);
        let left: Vec<Row> = [5u64, 5, 5, 7, 8].map(|t| taxi_row(t, 1, 1)).into();
        let right: Vec<Row> = [5u64, 5, 7, 7, 7, 9].map(|t| taxi_row(t, 2, 2)).into();
        let left: Vec<&Row> = left.iter().chain([&null]).collect();
        let right: Vec<&Row> = right.iter().chain([&null]).collect();
        let answer = execute(&paper_queries::q3_join_count("a", "b"), |name| match name {
            "a" => Some((Some(&schema), left.as_slice())),
            "b" => Some((Some(&schema), right.as_slice())),
            _ => None,
        });
        // t=5: 3 x 2, t=7: 1 x 3.
        assert_eq!(answer, Ok(QueryAnswer::Scalar(9.0)));
    }

    #[test]
    fn grouping_nulls_together() {
        let mut db = PlainDatabase::new();
        db.create_table("t", taxi_schema());
        let mut row = taxi_row(1, 5, 5);
        db.insert("t", row.clone());
        row = Row::new(vec![
            Value::Timestamp(2),
            Value::Null,
            Value::Int(1),
            Value::Float(0.0),
            Value::Float(0.0),
        ]);
        db.insert("t", row.clone());
        db.insert("t", row);
        let q = Query::GroupByCount {
            table: "t".into(),
            group_by: "pickup_id".into(),
            predicate: None,
        };
        let groups = db.execute(&q).unwrap();
        let groups = groups.as_groups().unwrap();
        assert_eq!(groups.get(&Value::Null.group_key()), Some(&2.0));
        assert_eq!(groups.get(&Value::Int(5).group_key()), Some(&1.0));
    }

    #[test]
    fn database_bookkeeping() {
        let db = sample_db();
        assert!(db.has_table("yellow"));
        assert!(!db.has_table("red"));
        assert_eq!(db.total_rows(), 8);
        assert_eq!(db.table("green").unwrap().len(), 3);
        assert!(!db.table("green").unwrap().is_empty());
        assert!(db.table("green").unwrap().schema().is_some());
    }

    #[test]
    fn count_with_predicate_but_schemaless_table_errors() {
        let mut db = PlainDatabase::new();
        db.insert("bare", taxi_row(1, 2, 3)); // inserted without create_table => no schema
        let q = Query::Count {
            table: "bare".into(),
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(2))),
        };
        assert!(matches!(
            db.execute(&q),
            Err(ExecError::UnknownColumn { .. })
        ));
        // Without a predicate the count still works.
        let q = Query::Count {
            table: "bare".into(),
            predicate: None,
        };
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(1.0));
    }

    /// The resolved evaluator against a name-resolving reference, on random
    /// predicate trees over rows with unknown columns, NULLs, NaNs, text and
    /// short rows.
    mod resolved {
        use super::*;
        use proptest::prelude::*;

        const COLUMNS: [&str; 4] = ["a", "b", "c", "ghost"];
        const BOUNDS: [f64; 7] = [f64::NAN, -1.0, 0.0, 1.5, 2.0, 3.0, f64::INFINITY];

        fn schema() -> Schema {
            Schema::from_pairs(&[
                ("a", DataType::Int),
                ("b", DataType::Float),
                ("c", DataType::Timestamp),
            ])
        }

        fn value(code: u64) -> Value {
            match code % 8 {
                0 => Value::Null,
                1 => Value::Int(0),
                2 => Value::Int(2),
                3 => Value::Float(1.5),
                4 => Value::Float(f64::NAN),
                5 => Value::Timestamp(3),
                6 => Value::Bool(true),
                _ => Value::Text("x".into()),
            }
        }

        /// Decodes a predicate tree of at most `depth` levels from a tape.
        fn decode(tape: &mut impl Iterator<Item = u64>, depth: u32) -> Predicate {
            let mut next = || tape.next().unwrap_or(0);
            let op = next() % if depth == 0 { 5 } else { 8 };
            let column = COLUMNS[(next() % 4) as usize].to_string();
            let bound = |x: u64| BOUNDS[(x % 7) as usize];
            match op {
                0 => Predicate::True,
                1 => Predicate::Eq(column, value(next())),
                2 => Predicate::Between(column, bound(next()), bound(next())),
                3 => Predicate::LessThan(column, bound(next())),
                4 => Predicate::GreaterThan(column, bound(next())),
                5 => Predicate::And(
                    Box::new(decode(tape, depth - 1)),
                    Box::new(decode(tape, depth - 1)),
                ),
                6 => Predicate::Or(
                    Box::new(decode(tape, depth - 1)),
                    Box::new(decode(tape, depth - 1)),
                ),
                _ => Predicate::Not(Box::new(decode(tape, depth - 1))),
            }
        }

        /// Reference semantics: look every column up by name, per row.
        fn reference(p: &Predicate, schema: &Schema, row: &Row) -> bool {
            let value = |c: &str| schema.column_index(c).and_then(|i| row.value(i));
            let numeric = |c: &str| value(c).and_then(Value::as_f64);
            match p {
                Predicate::True => true,
                Predicate::Eq(c, v) => value(c) == Some(v),
                Predicate::Between(c, lo, hi) => numeric(c).is_some_and(|v| v >= *lo && v <= *hi),
                Predicate::LessThan(c, b) => numeric(c).is_some_and(|v| v < *b),
                Predicate::GreaterThan(c, b) => numeric(c).is_some_and(|v| v > *b),
                Predicate::And(a, b) => reference(a, schema, row) && reference(b, schema, row),
                Predicate::Or(a, b) => reference(a, schema, row) || reference(b, schema, row),
                Predicate::Not(inner) => !reference(inner, schema, row),
            }
        }

        #[test]
        fn not_over_a_missing_column_is_true() {
            let row = Row::new(vec![Value::Int(1)]);
            for column in ["ghost", "c"] {
                // `c` is in the schema but past the end of this short row.
                let p = Predicate::Not(Box::new(Predicate::LessThan(column.into(), 9.0)));
                assert!(reference(&p, &schema(), &row));
                assert!(ResolvedPredicate::new(&p, &schema()).matches(&row));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn resolved_evaluator_agrees_with_name_lookup(
                tape in prop::collection::vec(any::<u64>(), 1..48),
                cells in prop::collection::vec(prop::collection::vec(0u64..8, 0..=3), 1..12),
            ) {
                let schema = schema();
                let predicate = decode(&mut tape.iter().copied(), 4);
                let rows: Vec<Row> = cells
                    .iter()
                    .map(|codes| Row::new(codes.iter().map(|&c| value(c)).collect()))
                    .collect();
                let resolved = ResolvedPredicate::new(&predicate, &schema);
                let mut expected = 0;
                for row in &rows {
                    let want = reference(&predicate, &schema, row);
                    prop_assert_eq!(resolved.matches(row), want, "{:?} on {:?}", predicate, row);
                    expected += usize::from(want);
                }
                // The executor resolves the same predicate once per query.
                let borrowed: Vec<&Row> = rows.iter().collect();
                let query = Query::Count {
                    table: "t".into(),
                    predicate: Some(predicate.clone()),
                };
                let answer = execute(&query, |name| {
                    (name == "t").then_some((Some(&schema), borrowed.as_slice()))
                });
                prop_assert_eq!(answer, Ok(QueryAnswer::Scalar(expected as f64)));
            }
        }
    }
}
