//! The sparse-tick simulation driver: event-driven scheduling for fleets of
//! mostly-idle owners, and the driver every production caller runs.
//!
//! The dense reference driver ([`Simulation::run`]) steps every owner
//! through every time unit, which costs `O(owners × horizon)` even when
//! almost every tick is a no-op.  At the scale the harness targets
//! (10^5–10^6 owners, see `exp_scale` in `dpsync-bench`) a typical owner has
//! work at a few dozen ticks out of thousands, so this module replaces the
//! per-tick sweep with a time-ordered **ready queue** of
//! `(next-event-time, owner)` entries and only wakes owners that have work:
//!
//! * an **arrival** — records reaching the owner's cache at that tick;
//! * a **strategy deadline** — the next tick at which the owner's
//!   [`SyncStrategy`] must be consulted even without arrivals, reported by
//!   [`next_wake`](SyncStrategy::next_wake)
//!   (DP-Timer's period and flush boundaries; SET and DP-ANT stay dense);
//! * the owner's **join tick** when it enters the simulation mid-run.
//!
//! The analyst still observes the engine exactly at tick boundaries, so the
//! Definition 2 transcript — the set of `(t, |γ_t|)` update events — is
//! unchanged: elided ticks are precisely those on which no owner would have
//! acted and no randomness would have been drawn, so eliding them reorders
//! nothing the adversary observes and perturbs no RNG stream.  The full
//! argument lives in ARCHITECTURE.md §9; the invariant is pinned by the
//! `sparse_tick_equivalence` integration suite, which requires normalized
//! reports and adversary views byte-identical to the dense reference driver
//! under fixed seeds.
//!
//! # Ready-queue invariants
//!
//! 1. Every queue entry `(t, i)` satisfies `t_now < t ≤ min(leave_i,
//!    horizon)` — no event is ever scheduled in the past or outside the
//!    owner's active window.
//! 2. At most one entry per owner is in the queue at any moment; popping it
//!    processes the owner and pushes its next event (if any).
//! 3. Entries are popped in `(time, owner index)` order — the min-heap over
//!    `(u64, usize)` tuples breaks time ties by owner index, matching the
//!    dense driver's per-tick owner iteration order exactly.
//! 4. Observation boundaries (analyst queries, size samples, the horizon)
//!    are merged into the same timeline: the loop never advances past the
//!    next boundary, so the analyst runs at exactly the ticks the dense
//!    driver runs it, with all owner work at that tick already applied.

use crate::metrics::SimulationReport;
use crate::simulation::{OwnerSpec, Simulation, TableWorkload};
use crate::strategy::SyncStrategy;
use crate::timeline::Timestamp;
use dpsync_crypto::MasterKey;
use dpsync_edb::sogdb::{EdbError, SecureOutsourcedDatabase};
use dpsync_edb::{Row, Schema};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The workload for one owner in sparse (event-list) form: arrivals are kept
/// as a sorted `(time, rows)` list instead of one vector slot per tick, so a
/// million mostly-idle owners cost memory proportional to their *events*,
/// not to the horizon.
#[derive(Debug, Clone)]
pub struct OwnerWorkload {
    /// Table name (one table per owner).
    pub table: String,
    /// Table schema.
    pub schema: Schema,
    /// Initial database `D₀`, outsourced at setup.
    pub initial_rows: Vec<Row>,
    /// Tick at which the owner joins (`0` = present from the start; see
    /// [`TableWorkload::join_time`]).
    pub join_time: u64,
    /// Last tick the owner is online, inclusive (`None` = whole run; see
    /// [`TableWorkload::leave_time`]).
    pub leave_time: Option<u64>,
    /// Arrival events, strictly increasing in time, each with a non-empty
    /// batch of rows.  The first time must be at least `max(1, join_time)`
    /// (the join tick itself may carry arrivals, delivered right after the
    /// deferred `Π_Setup`); [`Simulation::run_sparse`] asserts this.
    /// Arrivals after `leave_time` or past the horizon are legal and
    /// dropped.
    pub arrivals: Vec<(u64, Vec<Row>)>,
}

impl OwnerWorkload {
    /// Whether the owner is online and tickable at time `t` (same semantics
    /// as [`TableWorkload::active_at`]).
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.join_time && self.leave_time.is_none_or(|leave| t <= leave)
    }

    /// Total rows (initial plus arrivals).
    pub fn total_rows(&self) -> u64 {
        self.initial_rows.len() as u64
            + self
                .arrivals
                .iter()
                .map(|(_, rows)| rows.len() as u64)
                .sum::<u64>()
    }

    /// The time of the last arrival event, if any.
    pub fn last_arrival_time(&self) -> Option<u64> {
        self.arrivals.last().map(|(t, _)| *t)
    }

    /// Expands back into the dense per-tick representation over
    /// `1..=horizon` (arrivals past `horizon` are dropped).  Used by the
    /// equivalence suite to replay the same workload through the dense
    /// reference driver.
    pub fn to_dense(&self, horizon: u64) -> TableWorkload {
        let mut arrivals: Vec<Vec<Row>> = vec![Vec::new(); horizon as usize];
        for (t, rows) in &self.arrivals {
            if (1..=horizon).contains(t) {
                arrivals[(*t - 1) as usize] = rows.clone();
            }
        }
        TableWorkload {
            table: self.table.clone(),
            schema: self.schema.clone(),
            initial_rows: self.initial_rows.clone(),
            arrivals,
            join_time: self.join_time,
            leave_time: self.leave_time,
        }
    }
}

impl From<&TableWorkload> for OwnerWorkload {
    /// Compresses a dense workload into event-list form, keeping only
    /// non-empty arrival batches inside the owner's active window (the dense
    /// driver skips out-of-window arrivals too, so nothing observable is
    /// lost).
    fn from(dense: &TableWorkload) -> Self {
        let arrivals = dense
            .arrivals
            .iter()
            .enumerate()
            .filter_map(|(index, rows)| {
                let t = index as u64 + 1;
                (!rows.is_empty() && dense.active_at(t)).then(|| (t, rows.clone()))
            })
            .collect();
        Self {
            table: dense.table.clone(),
            schema: dense.schema.clone(),
            initial_rows: dense.initial_rows.clone(),
            join_time: dense.join_time,
            leave_time: dense.leave_time,
            arrivals,
        }
    }
}

impl Simulation {
    /// Runs the simulation with the sparse-tick scheduler against one shared
    /// engine: the production driver.
    ///
    /// Semantically identical to the dense reference [`Simulation::run`] on
    /// the dense expansion of `workloads` (see [`OwnerWorkload::to_dense`]):
    /// with a fixed seed the normalized report and the engine's adversary
    /// view are byte-identical.  The difference is cost —
    /// `O(events + boundaries)` owner work instead of `O(owners × horizon)`.
    /// A dense [`TableWorkload`] converts with [`OwnerWorkload::from`].
    ///
    /// # Panics
    ///
    /// If an owner's arrival times are not strictly increasing or start
    /// before `max(1, join_time)`: the scheduler would silently drop every
    /// later arrival of that owner.
    pub fn run_sparse(
        &self,
        workloads: &[OwnerWorkload],
        horizon: u64,
        engine: &dyn SecureOutsourcedDatabase,
        master: &MasterKey,
        make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<SimulationReport, EdbError> {
        let engines: Vec<&dyn SecureOutsourcedDatabase> = vec![engine; workloads.len()];
        self.run_sparse_multi(workloads, horizon, &engines, engine, master, make_strategy)
    }

    /// Runs the sparse-tick scheduler with per-owner engine handles.
    ///
    /// All handles must address the *same* underlying database (e.g. many
    /// multiplexed client sessions onto one server): `owner_engines[i]`
    /// carries owner `i`'s `Π_Setup` / `Π_Update` calls and `analyst_engine`
    /// carries the analyst's queries and the size samples.  `exp_scale
    /// --transport tcp` uses this to spread a million owners over a bounded
    /// pool of reactor sessions.  Panics as [`Simulation::run_sparse`] does.
    pub fn run_sparse_multi(
        &self,
        workloads: &[OwnerWorkload],
        horizon: u64,
        owner_engines: &[&dyn SecureOutsourcedDatabase],
        analyst_engine: &dyn SecureOutsourcedDatabase,
        master: &MasterKey,
        make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<SimulationReport, EdbError> {
        // The cursor below only ever looks forward, so an arrival before the
        // owner's first tick, or out of order, would stall it for good.
        for w in workloads {
            let first = w.join_time.max(1);
            let mut previous = None;
            for &(t, _) in &w.arrivals {
                assert!(
                    t >= first && previous.is_none_or(|p| t > p),
                    "table {}: arrival at t = {t} breaks the precondition that arrival \
                     times are strictly increasing and start at max(1, join_time) = {first} \
                     or later",
                    w.table
                );
                previous = Some(t);
            }
        }
        let specs: Vec<OwnerSpec<'_>> = workloads
            .iter()
            .map(|w| OwnerSpec {
                table: &w.table,
                schema: &w.schema,
                initial_rows: &w.initial_rows,
                join_time: w.join_time,
            })
            .collect();
        let mut run = self.prepare_specs(&specs, horizon, owner_engines, master, make_strategy)?;
        let mut query_samples = Vec::new();
        let mut size_samples = Vec::new();

        // Per-owner cursor into its sorted arrival list; invariant: every
        // arrival before the cursor has been delivered.
        let mut cursors = vec![0usize; workloads.len()];
        // The ready queue: `Reverse` turns `BinaryHeap`'s max-heap into a
        // min-heap, and tuple ordering breaks equal times by owner index —
        // exactly the dense driver's per-tick iteration order.
        let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        // An owner's events never extend past its leave tick or the horizon.
        let bound = |w: &OwnerWorkload| w.leave_time.unwrap_or(horizon).min(horizon);

        // The next tick strictly after `now` at which owner `i` has work:
        // its next undelivered arrival or its strategy's wake deadline,
        // whichever comes first, clamped to the owner's active window.
        let next_event = |run: &crate::simulation::PreparedRun,
                          cursors: &[usize],
                          i: usize,
                          now: u64|
         -> Option<u64> {
            let w = &workloads[i];
            let mut next: Option<u64> = w
                .arrivals
                .get(cursors[i])
                .map(|(t, _)| *t)
                .filter(|t| *t > now);
            if let Some(wake) = run.owners[i].strategy().next_wake(Timestamp(now)) {
                // Defensive clamp: the contract says strictly after `now`.
                let wake = wake.value().max(now + 1);
                next = Some(next.map_or(wake, |n| n.min(wake)));
            }
            next.filter(|t| *t <= bound(w))
        };

        // Seed the queue: joined owners from their first post-zero event,
        // late joiners from their join tick (Π_Setup runs there even when
        // the active window is empty, matching the dense driver).
        for (i, w) in workloads.iter().enumerate() {
            if w.join_time == 0 {
                if let Some(t) = next_event(&run, &cursors, i, 0) {
                    queue.push(Reverse((t, i)));
                }
            } else if (1..=horizon).contains(&w.join_time) {
                queue.push(Reverse((w.join_time, i)));
            }
        }

        let qi = self.config().query_interval;
        let si = self.config().size_sample_interval;
        let mut t = 0u64;
        while t < horizon {
            // Advance to the next owner event or observation boundary,
            // whichever comes first; the horizon itself is always observed
            // (final size sample).
            let mut target = horizon;
            if let Some(periods) = t.checked_div(qi) {
                target = target.min((periods + 1) * qi);
            }
            if let Some(periods) = t.checked_div(si) {
                target = target.min((periods + 1) * si);
            }
            if let Some(Reverse((event_time, _))) = queue.peek() {
                target = target.min(*event_time);
            }
            t = target;
            let time = Timestamp(t);

            // 1. Owner events due now, in owner-index order.
            while let Some(Reverse((event_time, i))) = queue.peek().copied() {
                if event_time != t {
                    break;
                }
                queue.pop();
                let w = &workloads[i];
                if t == w.join_time {
                    for row in &w.initial_rows {
                        run.logical.insert(&w.table, row.clone());
                    }
                    let rng = run.setup_rngs[i].as_mut().expect("join tick reached once");
                    run.owners[i].setup(w.initial_rows.clone(), owner_engines[i], rng)?;
                    run.sync_count += 1;
                }
                // The join tick is inside the active window: the freshly
                // set-up owner ticks immediately, so arrivals landing on its
                // join tick are delivered exactly as the dense driver does.
                if w.active_at(t) {
                    let arrivals: &[Row] = match w.arrivals.get(cursors[i]) {
                        Some((arrival_time, rows)) if *arrival_time == t => {
                            cursors[i] += 1;
                            rows
                        }
                        _ => &[],
                    };
                    for row in arrivals {
                        run.logical.insert(&w.table, row.clone());
                    }
                    let report = run.owners[i].tick(
                        time,
                        arrivals,
                        owner_engines[i],
                        &mut run.owner_rngs[i],
                    )?;
                    if report.synced {
                        run.sync_count += 1;
                    }
                }
                if let Some(next) = next_event(&run, &cursors, i, t) {
                    queue.push(Reverse((next, i)));
                }
            }

            // 2. The analyst observes at exactly the dense driver's ticks.
            if qi > 0 && t.is_multiple_of(qi) {
                query_samples.extend(run.analyst.pose_all(
                    time,
                    analyst_engine,
                    &run.logical,
                    &mut run.analyst_rng,
                )?);
            }

            // 3. Size samples on the same schedule (plus the horizon).
            if (si > 0 && t.is_multiple_of(si)) || t == horizon {
                let gap = run
                    .owners
                    .iter()
                    .map(crate::owner::Owner::logical_gap)
                    .sum();
                size_samples.push(self.sample_sizes(
                    time,
                    workloads.iter().map(|w| w.table.as_str()),
                    analyst_engine,
                    gap,
                    &run.logical,
                ));
            }
        }

        Ok(SimulationReport {
            strategy: run.strategy_kind,
            engine: analyst_engine.name().to_string(),
            epsilon: run.epsilon,
            query_samples,
            size_samples,
            sync_count: run.sync_count,
            horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimulationConfig;
    use crate::strategy::{CacheFlush, DpTimerStrategy, SynchronizeUponReceipt};
    use dpsync_dp::Epsilon;
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn dense_workload(horizon: u64) -> TableWorkload {
        TableWorkload {
            table: "yellow".into(),
            schema: schema(),
            initial_rows: (0..5).map(|i| row(0, 50 + i)).collect(),
            arrivals: (1..=horizon)
                .map(|t| {
                    if t % 7 == 0 {
                        vec![row(t, (t % 100) as i64)]
                    } else {
                        vec![]
                    }
                })
                .collect(),
            join_time: 0,
            leave_time: None,
        }
    }

    #[test]
    fn dense_sparse_round_trip() {
        let dense = dense_workload(50);
        let sparse = OwnerWorkload::from(&dense);
        assert_eq!(sparse.arrivals.len(), 7); // t = 7, 14, ..., 49
        assert_eq!(sparse.total_rows(), dense.total_rows());
        assert_eq!(sparse.last_arrival_time(), Some(49));
        let back = sparse.to_dense(50);
        assert_eq!(back.arrivals, dense.arrivals);
        assert_eq!(back.join_time, 0);
        assert_eq!(back.leave_time, None);
    }

    #[test]
    fn from_dense_drops_out_of_window_arrivals() {
        let mut dense = dense_workload(50);
        dense.join_time = 14;
        dense.leave_time = Some(28);
        let sparse = OwnerWorkload::from(&dense);
        // t = 14 (exactly the join tick), 21, 28 (exactly the leave tick)
        // survive; 7 (< join), 35, 42, 49 (> leave) do not.
        assert_eq!(
            sparse.arrivals.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![14, 21, 28]
        );
        assert!(sparse.active_at(14) && sparse.active_at(28));
        assert!(!sparse.active_at(13) && !sparse.active_at(29));
    }

    #[test]
    fn sparse_matches_dense_reference() {
        let horizon = 400u64;
        let master = MasterKey::from_bytes([9u8; 32]);
        let config = SimulationConfig {
            query_interval: 50,
            size_sample_interval: 100,
            queries: vec![("Q1".into(), paper_queries::q1_range_count("yellow"))],
            seed: 41,
        };
        let sim = Simulation::new(config);
        let dense = dense_workload(horizon);
        let sparse = OwnerWorkload::from(&dense);
        let make = |_: &str| -> Box<dyn SyncStrategy> {
            Box::new(DpTimerStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                30,
                Some(CacheFlush::new(200, 15)),
            ))
        };

        let dense_engine = ObliDbEngine::new(&master);
        let reference = sim
            .run(std::slice::from_ref(&dense), &dense_engine, &master, make)
            .unwrap()
            .normalized();

        let sparse_engine = ObliDbEngine::new(&master);
        let report = sim
            .run_sparse(
                std::slice::from_ref(&sparse),
                horizon,
                &sparse_engine,
                &master,
                make,
            )
            .unwrap()
            .normalized();

        assert_eq!(reference, report);
        assert_eq!(
            dense_engine.adversary_view(),
            sparse_engine.adversary_view()
        );
    }

    /// Runs one SUR owner over `arrivals`; returns the report and the
    /// engine it synced to.
    fn run_sur(
        join_time: u64,
        arrivals: Vec<(u64, Vec<Row>)>,
        horizon: u64,
    ) -> (SimulationReport, ObliDbEngine) {
        let master = MasterKey::from_bytes([3u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(SimulationConfig {
            query_interval: 0,
            size_sample_interval: 0,
            queries: vec![],
            seed: 7,
        });
        let workload = OwnerWorkload {
            table: "yellow".into(),
            schema: schema(),
            initial_rows: vec![row(0, 1)],
            join_time,
            leave_time: None,
            arrivals,
        };
        let report = sim
            .run_sparse(&[workload], horizon, &engine, &master, |_| {
                Box::new(SynchronizeUponReceipt::new())
            })
            .unwrap();
        (report, engine)
    }

    #[test]
    fn arrival_driven_owner_skips_idle_stretches() {
        // A SUR owner with two arrivals across a long horizon: the engine
        // must see exactly setup + two updates, and the report must still
        // cover the full horizon.
        let arrivals = vec![(5, vec![row(5, 2)]), (90_000, vec![row(90_000, 3)])];
        let (report, engine) = run_sur(0, arrivals, 100_000);
        assert_eq!(report.sync_count, 3); // setup + two arrival-driven syncs
        assert_eq!(report.horizon, 100_000);
        assert_eq!(engine.table_stats("yellow").real_records, 3);
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at t = 5 breaks the precondition")]
    fn arrival_before_the_join_tick_is_rejected() {
        // The cursor would stop at t = 5 and the arrival at t = 20 would
        // never reach the engine or the ground truth.
        run_sur(10, vec![(5, vec![row(5, 2)]), (20, vec![row(20, 3)])], 30);
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at t = 10 breaks the precondition")]
    fn unsorted_arrivals_are_rejected() {
        run_sur(0, vec![(20, vec![row(20, 2)]), (10, vec![row(10, 3)])], 30);
    }
}
