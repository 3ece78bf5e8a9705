//! The end-to-end simulation driver.
//!
//! A simulation replays a timestamped workload through the full DP-Sync
//! stack: one [`Owner`] per table (each running its own copy of the
//! configured strategy), one shared engine, and an [`Analyst`] that poses the
//! evaluation queries on a fixed schedule.  The driver also maintains the
//! plaintext logical database so that every query answer can be scored
//! against the ground truth, and samples storage sizes for the data-volume
//! figures.  Its output, a [`SimulationReport`], is what the experiment
//! binaries in `dpsync-bench` turn into the paper's tables and figures.
//!
//! # Production and reference drivers
//!
//! Two drivers share the same semantics:
//!
//! * [`Simulation::run_sparse`] (in [`crate::sparse`]) — the production
//!   driver: an event-driven scheduler that wakes an owner only at ticks on
//!   which it has work, so its cost follows events rather than
//!   `owners × horizon`; see ARCHITECTURE.md §9.
//! * [`Simulation::run`] — the dense reference: every owner ticks at every
//!   time unit, in workload order, on the calling thread.  It is kept so
//!   tests (and `exp_scale`'s self-check) can compare the sparse driver
//!   against the plain per-tick loop.
//!
//! With fixed seeds both drivers produce identical reports up to measured
//! wall-clock fields (see [`SimulationReport::normalized`]) and identical
//! adversary views.
//!
//! # Owner churn
//!
//! A [`TableWorkload`] may give its owner a `join_time` and/or `leave_time`:
//! the owner's `Π_Setup` then runs at the join tick instead of during
//! preparation, followed immediately by a normal tick (so records arriving
//! exactly at the join tick are delivered, not dropped), and the owner is
//! never ticked outside its active window `join_time ≤ t ≤ leave_time`.
//! Both drivers apply identical churn semantics.

use crate::analyst::{Analyst, NamedQuery};
use crate::metrics::{SimulationReport, SizeSample};
use crate::owner::Owner;
use crate::strategy::{StrategyKind, SyncStrategy};
use crate::timeline::Timestamp;
use dpsync_crypto::MasterKey;
use dpsync_dp::DpRng;
use dpsync_edb::exec::PlainDatabase;
use dpsync_edb::planner::LeakagePolicy;
use dpsync_edb::sogdb::{EdbError, SecureOutsourcedDatabase};
use dpsync_edb::{Query, Row, Schema};

/// The workload for one outsourced table.
#[derive(Debug, Clone)]
pub struct TableWorkload {
    /// Table name ("yellow", "green").
    pub table: String,
    /// Table schema.
    pub schema: Schema,
    /// Initial database `D₀`.
    pub initial_rows: Vec<Row>,
    /// Arrivals per time unit: `arrivals[t - 1]` are the rows received at
    /// time `t` (empty vectors model `u_t = ∅`).  Arrivals indexed outside
    /// the owner's active window (see [`TableWorkload::active_at`]) are
    /// skipped by every driver.
    pub arrivals: Vec<Vec<Row>>,
    /// The tick at which the owner joins the simulation.  `0` (the default)
    /// means the owner is present from the start and `Π_Setup` runs during
    /// preparation; `J > 0` defers `Π_Setup` (and the insertion of
    /// `initial_rows` into the ground truth) to tick `J`, modelling an owner
    /// who comes online mid-run.  The join tick is part of the active
    /// window: after the deferred `Π_Setup` the owner is ticked normally, so
    /// arrivals landing exactly at tick `J` reach its cache like any others.
    pub join_time: u64,
    /// The last tick at which the owner is online, inclusive; `None` keeps
    /// the owner for the whole run.  After `leave_time` the owner is never
    /// ticked again — whatever its cache holds stays unsynced.
    pub leave_time: Option<u64>,
}

impl TableWorkload {
    /// Number of time units covered by this workload.
    pub fn horizon(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Total rows (initial plus arrivals).
    pub fn total_rows(&self) -> u64 {
        self.initial_rows.len() as u64 + self.arrivals.iter().map(|a| a.len() as u64).sum::<u64>()
    }

    /// Whether the owner is online and tickable at time `t`: from its join
    /// tick (inclusive — a deferred `Π_Setup` runs there first, then the
    /// owner ticks normally) through its leave tick, inclusive.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.join_time && self.leave_time.is_none_or(|leave| t <= leave)
    }

    /// The rows arriving at time `t` (1-based; empty past the horizon).
    fn arrivals_at(&self, t: u64) -> &[Row] {
        self.arrivals
            .get((t - 1) as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Pose the analyst's queries every this many time units (§8 uses 360,
    /// i.e. every six hours of one-minute ticks).
    pub query_interval: u64,
    /// Sample storage sizes every this many time units (Figure 3 samples
    /// every 7200 units); a sample is always taken at the horizon.
    pub size_sample_interval: u64,
    /// The analyst's queries.
    pub queries: Vec<(String, Query)>,
    /// Master seed for every random draw in the run.
    pub seed: u64,
}

impl SimulationConfig {
    /// The evaluation defaults: queries every 360 units, sizes every 7200.
    pub fn paper_default(queries: Vec<(String, Query)>, seed: u64) -> Self {
        Self {
            query_interval: 360,
            size_sample_interval: 7200,
            queries,
            seed,
        }
    }
}

/// What the drivers need to know about one owner before the clock starts:
/// a borrowed view shared by the dense ([`TableWorkload`]) and sparse
/// ([`crate::sparse::OwnerWorkload`]) workload representations so both go
/// through one `Π_Setup` / RNG-derivation code path.
pub(crate) struct OwnerSpec<'a> {
    pub(crate) table: &'a str,
    pub(crate) schema: &'a Schema,
    pub(crate) initial_rows: &'a [Row],
    pub(crate) join_time: u64,
}

/// Pre-run state shared by both drivers: present-from-the-start owners set
/// up, logical database seeded with their initial rows, per-component RNGs
/// derived.  Owners joining mid-run keep their setup RNG in `setup_rngs`
/// until their join tick.
pub(crate) struct PreparedRun {
    pub(crate) owners: Vec<Owner>,
    pub(crate) owner_rngs: Vec<DpRng>,
    pub(crate) setup_rngs: Vec<Option<DpRng>>,
    pub(crate) analyst: Analyst,
    pub(crate) analyst_rng: DpRng,
    pub(crate) logical: PlainDatabase,
    pub(crate) sync_count: u64,
    pub(crate) strategy_kind: StrategyKind,
    pub(crate) epsilon: Option<f64>,
    pub(crate) horizon: u64,
}

/// The simulation driver.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    use_views: bool,
    index_policy: Option<LeakagePolicy>,
}

impl Simulation {
    /// Creates a driver for `config`.
    pub fn new(config: SimulationConfig) -> Self {
        Self {
            config,
            use_views: false,
            index_policy: None,
        }
    }

    /// Serves the analyst's recurring queries from auto-registered
    /// materialized views (see [`Analyst::with_views`]).  Released answers
    /// and the adversary view are byte-identical to the scan path; only
    /// measured query latencies change.
    pub fn with_views(mut self) -> Self {
        self.use_views = true;
        self.index_policy = None;
        self
    }

    /// Plans the analyst's queries over auto-registered encrypted-multimap
    /// indexes under `policy` (see [`Analyst::with_indexes`]).  Released
    /// answers are byte-identical to the scan path; under
    /// [`LeakagePolicy::TranscriptOnly`] so is the adversary view.
    pub fn with_indexes(mut self, policy: LeakagePolicy) -> Self {
        self.index_policy = Some(policy);
        self.use_views = false;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Whether the analyst serves recurring queries from materialized views.
    pub fn uses_views(&self) -> bool {
        self.use_views
    }

    /// The analyst's index-planning leakage policy, if indexes are enabled.
    pub fn index_policy(&self) -> Option<LeakagePolicy> {
        self.index_policy
    }

    /// Runs `Π_Setup` for every table present from the start and derives the
    /// per-component RNG streams: the preparation path behind both drivers,
    /// with one engine reference per owner (the dense driver passes the same
    /// engine for all) and an explicit horizon.
    ///
    /// `DpRng::derive` is stateless and label-keyed, so the per-owner streams
    /// (`owner/{table}`, `owner-ticks/{table}`) and the analyst stream are
    /// identical no matter which driver derives them or in what order.
    pub(crate) fn prepare_specs(
        &self,
        specs: &[OwnerSpec<'_>],
        horizon: u64,
        engines: &[&dyn SecureOutsourcedDatabase],
        master: &MasterKey,
        mut make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<PreparedRun, EdbError> {
        assert!(!specs.is_empty(), "at least one table workload is required");
        assert_eq!(specs.len(), engines.len(), "one engine reference per owner");
        let rng = DpRng::seed_from_u64(self.config.seed);

        let mut logical = PlainDatabase::new();
        for spec in specs {
            logical.create_table(spec.table, spec.schema.clone());
        }

        let mut owners: Vec<Owner> = Vec::with_capacity(specs.len());
        let mut setup_rngs: Vec<Option<DpRng>> = Vec::with_capacity(specs.len());
        let mut sync_count = 0u64;
        let mut strategy_kind = None;
        let mut epsilon = None;
        for (spec, engine) in specs.iter().zip(engines) {
            let strategy = make_strategy(spec.table);
            strategy_kind.get_or_insert(strategy.kind());
            if epsilon.is_none() {
                epsilon = strategy.epsilon().map(|e| e.value());
            }
            let mut owner = Owner::new(spec.table, spec.schema.clone(), master, strategy);
            let mut owner_rng = rng.derive(&format!("owner/{}", spec.table));
            if spec.join_time == 0 {
                for row in spec.initial_rows {
                    logical.insert(spec.table, row.clone());
                }
                owner.setup(spec.initial_rows.to_vec(), *engine, &mut owner_rng)?;
                sync_count += 1;
                setup_rngs.push(None);
            } else {
                // The owner joins mid-run: Π_Setup is deferred to its join
                // tick, but its RNG stream is derived here from the same
                // label so the transcript is a pure function of the seed.
                setup_rngs.push(Some(owner_rng));
            }
            owners.push(owner);
        }

        let named: Vec<NamedQuery> = self
            .config
            .queries
            .iter()
            .map(|(label, q)| NamedQuery::new(label.clone(), q.clone()))
            .collect();
        let analyst = if self.use_views {
            Analyst::with_views(named)
        } else if let Some(policy) = self.index_policy {
            Analyst::with_indexes(named, policy)
        } else {
            Analyst::new(named)
        };
        let analyst_rng = rng.derive("analyst");
        let owner_rngs: Vec<DpRng> = specs
            .iter()
            .map(|spec| rng.derive(&format!("owner-ticks/{}", spec.table)))
            .collect();

        Ok(PreparedRun {
            owners,
            owner_rngs,
            setup_rngs,
            analyst,
            analyst_rng,
            logical,
            sync_count,
            strategy_kind: strategy_kind.expect("at least one workload"),
            epsilon,
            horizon,
        })
    }

    /// Runs the simulation on the dense reference driver: every owner ticks
    /// at every time unit.  Production callers use
    /// [`Simulation::run_sparse`], which this driver exists to check.
    ///
    /// * `workloads` — one entry per table; all are replayed on a shared clock.
    /// * `engine` — the shared encrypted database.
    /// * `master` — the owners' master key (must be the key the engine was
    ///   constructed with).
    /// * `make_strategy` — called once per table to create that owner's
    ///   strategy instance.
    pub fn run(
        &self,
        workloads: &[TableWorkload],
        engine: &dyn SecureOutsourcedDatabase,
        master: &MasterKey,
        make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<SimulationReport, EdbError> {
        let specs: Vec<OwnerSpec<'_>> = workloads
            .iter()
            .map(|w| OwnerSpec {
                table: &w.table,
                schema: &w.schema,
                initial_rows: &w.initial_rows,
                join_time: w.join_time,
            })
            .collect();
        let horizon = workloads
            .iter()
            .map(TableWorkload::horizon)
            .max()
            .unwrap_or(0);
        let engines = vec![engine; workloads.len()];
        let mut run = self.prepare_specs(&specs, horizon, &engines, master, make_strategy)?;
        let mut query_samples = Vec::new();
        let mut size_samples = Vec::new();

        for t in 1..=run.horizon {
            let time = Timestamp(t);
            for (((owner, workload), owner_rng), setup_rng) in run
                .owners
                .iter_mut()
                .zip(workloads)
                .zip(run.owner_rngs.iter_mut())
                .zip(run.setup_rngs.iter_mut())
            {
                if t == workload.join_time {
                    for row in &workload.initial_rows {
                        run.logical.insert(&workload.table, row.clone());
                    }
                    let rng = setup_rng.as_mut().expect("join tick reached once");
                    owner.setup(workload.initial_rows.clone(), engine, rng)?;
                    run.sync_count += 1;
                }
                // The join tick is inside the active window: a freshly
                // set-up owner immediately ticks, delivering any arrivals
                // landing exactly at its join tick.
                if workload.active_at(t) {
                    let arrivals = workload.arrivals_at(t);
                    for row in arrivals {
                        run.logical.insert(&workload.table, row.clone());
                    }
                    let report = owner.tick(time, arrivals, engine, owner_rng)?;
                    if report.synced {
                        run.sync_count += 1;
                    }
                }
            }

            if self.config.query_interval > 0 && t % self.config.query_interval == 0 {
                query_samples.extend(run.analyst.pose_all(
                    time,
                    engine,
                    &run.logical,
                    &mut run.analyst_rng,
                )?);
            }

            if (self.config.size_sample_interval > 0 && t % self.config.size_sample_interval == 0)
                || t == run.horizon
            {
                let gap = run.owners.iter().map(Owner::logical_gap).sum();
                size_samples.push(self.sample_sizes(
                    time,
                    workloads.iter().map(|w| w.table.as_str()),
                    engine,
                    gap,
                    &run.logical,
                ));
            }
        }

        Ok(SimulationReport {
            strategy: run.strategy_kind,
            engine: engine.name().to_string(),
            epsilon: run.epsilon,
            query_samples,
            size_samples,
            sync_count: run.sync_count,
            horizon: run.horizon,
        })
    }

    pub(crate) fn sample_sizes<'a>(
        &self,
        time: Timestamp,
        tables: impl IntoIterator<Item = &'a str>,
        engine: &dyn SecureOutsourcedDatabase,
        logical_gap: u64,
        logical: &PlainDatabase,
    ) -> SizeSample {
        let mut outsourced_records = 0u64;
        let mut outsourced_bytes = 0u64;
        let mut dummy_records = 0u64;
        let mut dummy_bytes = 0u64;
        for table in tables {
            let stats = engine.table_stats(table);
            outsourced_records += stats.ciphertext_count;
            outsourced_bytes += stats.ciphertext_bytes;
            dummy_records += stats.dummy_records;
            dummy_bytes += stats.dummy_bytes();
        }
        SizeSample {
            time: time.value(),
            outsourced_records,
            outsourced_bytes,
            dummy_records,
            dummy_bytes,
            logical_records: logical.total_rows() as u64,
            logical_gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
        SynchronizeEveryTime, SynchronizeUponReceipt,
    };
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

    /// A small deterministic workload: one arrival every other tick.
    fn workload(horizon: u64) -> TableWorkload {
        TableWorkload {
            table: "yellow".into(),
            schema: schema(),
            initial_rows: (0..5).map(|i| row(0, 50 + i)).collect(),
            arrivals: (1..=horizon)
                .map(|t| {
                    if t % 2 == 0 {
                        vec![row(t, (t % 200) as i64)]
                    } else {
                        vec![]
                    }
                })
                .collect(),
            join_time: 0,
            leave_time: None,
        }
    }

    fn config(horizon: u64) -> SimulationConfig {
        SimulationConfig {
            query_interval: horizon / 8,
            size_sample_interval: horizon / 4,
            queries: vec![
                ("Q1".into(), paper_queries::q1_range_count("yellow")),
                ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
            ],
            seed: 99,
        }
    }

    fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
        match kind {
            StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
            StrategyKind::Oto => Box::new(OneTimeOutsourcing::new()),
            StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
            StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                30,
                Some(CacheFlush::new(400, 15)),
            )),
            StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                15,
                Some(CacheFlush::new(400, 15)),
            )),
        }
    }

    fn run(strategy: StrategyKind, horizon: u64) -> SimulationReport {
        let master = MasterKey::from_bytes([5u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(config(horizon));
        sim.run(&[workload(horizon)], &engine, &master, |_| {
            strategy_for(strategy)
        })
        .unwrap()
    }

    #[test]
    fn sur_has_zero_error_and_zero_gap() {
        let report = run(StrategyKind::Sur, 800);
        assert_eq!(report.strategy, StrategyKind::Sur);
        assert_eq!(report.mean_l1_error("Q1"), 0.0);
        assert_eq!(report.mean_l1_error("Q2"), 0.0);
        assert_eq!(report.mean_logical_gap(), 0.0);
        assert_eq!(report.final_sizes().unwrap().dummy_records, 0);
    }

    #[test]
    fn oto_error_grows_with_unsynced_data() {
        let report = run(StrategyKind::Oto, 800);
        // OTO outsources only the 5 initial rows; by the end ~400 rows are missing.
        assert!(report.mean_l1_error("Q2") > 100.0);
        assert_eq!(report.final_sizes().unwrap().outsourced_records, 5);
        assert_eq!(report.sync_count, 1);
    }

    #[test]
    fn set_outsources_one_record_per_tick() {
        let report = run(StrategyKind::Set, 800);
        let sizes = report.final_sizes().unwrap();
        assert_eq!(sizes.outsourced_records, 5 + 800);
        // Half the ticks had no arrival, so roughly half the uploads are dummies.
        assert!(sizes.dummy_records >= 390 && sizes.dummy_records <= 410);
        assert_eq!(report.mean_l1_error("Q2"), 0.0);
    }

    #[test]
    fn dp_strategies_bound_error_and_overhead() {
        for kind in [StrategyKind::DpTimer, StrategyKind::DpAnt] {
            let report = run(kind, 800);
            let sizes = report.final_sizes().unwrap();
            // Bounded error: far below OTO's hundreds.
            assert!(
                report.mean_l1_error("Q2") < 60.0,
                "{kind:?} mean error {}",
                report.mean_l1_error("Q2")
            );
            // Bounded overhead: clearly fewer dummies than SET, which uploads
            // a dummy at every one of the ~400 empty ticks.
            assert!(
                sizes.dummy_records < 280,
                "{kind:?} dummies {}",
                sizes.dummy_records
            );
            assert!(report.epsilon.is_some());
            assert!(report.sync_count > 2);
        }
    }

    #[test]
    fn join_workload_runs_two_owners() {
        let master = MasterKey::from_bytes([6u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let mut cfg = config(400);
        cfg.queries = vec![("Q3".into(), paper_queries::q3_join_count("yellow", "green"))];
        let sim = Simulation::new(cfg);
        let mut green = workload(400);
        green.table = "green".into();
        let report = sim
            .run(&[workload(400), green], &engine, &master, |_| {
                Box::new(SynchronizeUponReceipt::new())
            })
            .unwrap();
        assert_eq!(report.mean_l1_error("Q3"), 0.0);
        assert!(report.final_sizes().unwrap().outsourced_records > 0);
    }

    #[test]
    fn reports_are_deterministic_for_a_fixed_seed() {
        // Everything except wall-clock timings must be bit-identical across
        // runs with the same seed.
        let a = run(StrategyKind::DpTimer, 400).normalized();
        let b = run(StrategyKind::DpTimer, 400).normalized();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_accessors() {
        let w = workload(100);
        assert_eq!(w.horizon(), 100);
        assert_eq!(w.total_rows(), 5 + 50);
        let cfg = SimulationConfig::paper_default(vec![], 1);
        assert_eq!(cfg.query_interval, 360);
        assert_eq!(cfg.size_sample_interval, 7200);
        let sim = Simulation::new(cfg);
        assert_eq!(sim.config().seed, 1);
    }
}
