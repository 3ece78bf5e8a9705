//! Discrete time, logical updates and the growing database.
//!
//! The paper models time as discrete units (one minute in the evaluation's
//! client simulation) and a growing database as an initial database `D₀` plus
//! a sequence of logical updates `u_t`, each either a single record or ∅
//! (§4.1).  The generalization to multiple records per unit mentioned in the
//! paper is supported: a [`LogicalUpdate`] may carry any number of rows.

use dpsync_edb::Row;

/// A discrete time unit (the evaluation uses one-minute units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// The raw tick count.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The next time unit.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Whether this time is a multiple of `period` (and not the epoch).
    pub fn is_multiple_of(self, period: u64) -> bool {
        period > 0 && self.0 > 0 && self.0.is_multiple_of(period)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// The logical update at one time unit: zero, one, or several rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogicalUpdate {
    rows: Vec<Row>,
}

impl LogicalUpdate {
    /// No record arrived (`u_t = ∅`).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A single arriving record.
    pub fn single(row: Row) -> Self {
        Self { rows: vec![row] }
    }

    /// Several records arriving in the same time unit.
    pub fn batch(rows: Vec<Row>) -> Self {
        Self { rows }
    }

    /// The arriving rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of arriving rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing arrived.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The logical growing database `D = {D_t}` held by the owner.
///
/// `D_t = D₀ ∪ u₁ ∪ ... ∪ u_t`; this structure tracks the accumulated rows so
/// the simulation can compute ground-truth query answers at any point.
#[derive(Debug, Clone, Default)]
pub struct GrowingDatabase {
    initial: Vec<Row>,
    updates: Vec<LogicalUpdate>,
}

impl GrowingDatabase {
    /// Creates a growing database with initial contents `D₀`.
    pub fn new(initial: Vec<Row>) -> Self {
        Self {
            initial,
            updates: Vec::new(),
        }
    }

    /// Appends the logical update for the next time unit.
    pub fn push_update(&mut self, update: LogicalUpdate) {
        self.updates.push(update);
    }

    /// `|D₀|`.
    pub fn initial_len(&self) -> u64 {
        self.initial.len() as u64
    }

    /// The initial rows.
    pub fn initial_rows(&self) -> &[Row] {
        &self.initial
    }

    /// The logical update at time `t` (1-based as in the paper; `t = 0` is
    /// the initial database).  Returns an empty update beyond the recorded
    /// horizon.
    pub fn update_at(&self, t: Timestamp) -> LogicalUpdate {
        if t.0 == 0 {
            return LogicalUpdate::empty();
        }
        self.updates
            .get((t.0 - 1) as usize)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of recorded time units (the database length `L`).
    pub fn horizon(&self) -> u64 {
        self.updates.len() as u64
    }

    /// `|D_t|`: the number of rows the owner has logically received by `t`.
    pub fn len_at(&self, t: Timestamp) -> u64 {
        let upto = (t.0 as usize).min(self.updates.len());
        self.initial.len() as u64
            + self.updates[..upto]
                .iter()
                .map(|u| u.len() as u64)
                .sum::<u64>()
    }

    /// All rows received by time `t` (initial rows first, then arrivals in order).
    pub fn rows_at(&self, t: Timestamp) -> Vec<Row> {
        let upto = (t.0 as usize).min(self.updates.len());
        let mut rows = self.initial.clone();
        for update in &self.updates[..upto] {
            rows.extend(update.rows().iter().cloned());
        }
        rows
    }

    /// Total number of rows across the entire horizon.
    pub fn total_len(&self) -> u64 {
        self.len_at(Timestamp(self.horizon()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_edb::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(29);
        assert_eq!(t.next(), Timestamp(30));
        assert_eq!(t.value(), 29);
        assert!(Timestamp(60).is_multiple_of(30));
        assert!(!Timestamp(45).is_multiple_of(30));
        assert!(
            !Timestamp(0).is_multiple_of(30),
            "the epoch is not a sync point"
        );
        assert!(!Timestamp(10).is_multiple_of(0), "period zero never fires");
        assert_eq!(Timestamp::ZERO.to_string(), "t=0");
        assert_eq!(Timestamp::from(7u64), Timestamp(7));
    }

    #[test]
    fn logical_update_variants() {
        assert!(LogicalUpdate::empty().is_empty());
        assert_eq!(LogicalUpdate::single(row(1)).len(), 1);
        let batch = LogicalUpdate::batch(vec![row(1), row(2), row(3)]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.rows()[2], row(3));
    }

    #[test]
    fn growing_database_accumulates() {
        let mut db = GrowingDatabase::new(vec![row(0), row(1)]);
        db.push_update(LogicalUpdate::single(row(2)));
        db.push_update(LogicalUpdate::empty());
        db.push_update(LogicalUpdate::batch(vec![row(3), row(4)]));

        assert_eq!(db.initial_len(), 2);
        assert_eq!(db.horizon(), 3);
        assert_eq!(db.len_at(Timestamp(0)), 2);
        assert_eq!(db.len_at(Timestamp(1)), 3);
        assert_eq!(db.len_at(Timestamp(2)), 3);
        assert_eq!(db.len_at(Timestamp(3)), 5);
        assert_eq!(
            db.len_at(Timestamp(100)),
            5,
            "beyond the horizon the database stops growing"
        );
        assert_eq!(db.total_len(), 5);
        assert_eq!(db.rows_at(Timestamp(3)).len(), 5);
        assert_eq!(db.rows_at(Timestamp(0)), vec![row(0), row(1)]);
    }

    #[test]
    fn update_at_is_one_based() {
        let mut db = GrowingDatabase::new(vec![]);
        db.push_update(LogicalUpdate::single(row(7)));
        assert!(db.update_at(Timestamp(0)).is_empty());
        assert_eq!(db.update_at(Timestamp(1)).rows(), &[row(7)]);
        assert!(db.update_at(Timestamp(2)).is_empty());
    }
}
