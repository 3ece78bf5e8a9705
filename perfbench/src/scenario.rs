//! The benchmark's workloads: seeded generators of the inputs one
//! simulation epoch replays.
//!
//! The program receives only what these functions generate — owner
//! workloads, the analyst's queries and schedule, the strategy parameters and
//! the master key — all derived from the workload seed.

use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
    SynchronizeUponReceipt,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::{DpRng, Epsilon};
use dpsync_edb::{LeakagePolicy, Predicate, Query, Row, Value};
use dpsync_workloads::queries;
use dpsync_workloads::scale::ScaleProfile;
use dpsync_workloads::taxi::{TaxiConfig, TaxiDataset, JUNE_2020_MINUTES};
use rand::Rng;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A large mostly-idle fleet on DP-Timer, in process: the strategy, the
    /// owners' padding and encryption, engine ingest and the ready queue do
    /// the work; the analyst is nearly idle.
    FleetIngest,
    /// The paper's month of taxi trips on DP-ANT with an indexing analyst:
    /// scans, group-by, join, EMM reads and the planner do the work.
    TaxiAnalytics,
    /// A small fleet over loopback TCP with a view-reading analyst: the
    /// wire and the reactor do the work.  Its gate replays the fleet onto
    /// the durable segment log.
    WireDurable,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetIngest,
        Workload::TaxiAnalytics,
        Workload::WireDurable,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIngest => "fleet-ingest",
            Workload::TaxiAnalytics => "taxi-analytics",
            Workload::WireDurable => "wire-durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large an epoch's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The timed size.
    Full,
    /// The correctness-gate and test size.
    Reduced,
}

/// Where the engine runs and what it stores on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// The engine in this process on the memory backend; handles are the
    /// engine itself.
    InprocMemory,
    /// The engine behind an in-process `EdbTcpServer` on loopback, on the
    /// memory backend; owners reach it over [`CONNECTIONS`] ×
    /// [`SESSIONS_PER_CONNECTION`] sessions, the analyst over one more.
    TcpMemory,
    /// As [`Deployment::TcpMemory`], on a segment log with the default
    /// `GroupCommitConfig` and fdatasync: the durable deployment, replayed
    /// by the `wire-durable` gate but not timed.
    ///
    /// Timing it on a 2-vCPU VM with a shared ext4 disk gave no figure a
    /// regression bound could hold: over ten 20-second runs `update_p99_us`
    /// spread 0.37–1.04 of its median, and every run's creating and deleting
    /// its table directories slowed the next run's set-up, 0.03 s to 0.23 s
    /// over ten runs (fdatasync off only removed the first effect).
    TcpSegmentLog,
}

/// Multiplexed connections of a TCP epoch.
pub const CONNECTIONS: usize = 2;
/// Owner sessions per connection of a TCP epoch.
pub const SESSIONS_PER_CONNECTION: usize = 2;

/// The owners' synchronization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// DP-Timer, ε = 1, period 30, flush every 240 ticks by 15.
    DpTimer,
    /// DP-ANT, ε = 0.5, threshold 15, flush every 2000 ticks by 15.
    DpAnt,
    /// Synchronize upon receipt: the exactness gate's strategy, under which
    /// every released answer must equal the ground truth.
    Sur,
}

/// How the analyst reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalystChoice {
    /// Full scans.
    Scan,
    /// Auto-registered materialized views.
    Views,
    /// Workload-derived EMM indexes behind the leakage-aware planner.
    Indexes(LeakagePolicy),
}

/// The inputs of one simulation epoch.
#[derive(Clone)]
pub struct Scenario {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// One entry per owner.
    pub fleet: Vec<OwnerWorkload>,
    /// Ticks simulated.
    pub horizon: u64,
    /// Analyst queries, schedule and the run's RNG seed.
    pub config: SimulationConfig,
    /// How the analyst reads.
    pub analyst: AnalystChoice,
    /// The owners' strategy.
    pub strategy: StrategyChoice,
    /// Where the engine runs.
    pub deployment: Deployment,
    /// The owners' (and the engine's) master key.
    pub master: MasterKey,
}

/// SplitMix64: a full-period mixer for deriving sub-seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`: the benchmark's stable digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The seed of epoch `index` of a run seeded with `seed`.
pub fn epoch_seed(seed: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(index.wrapping_add(0x5EED)))
}

fn master_key(seed: u64) -> MasterKey {
    let mut bytes = [0u8; 32];
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix64(seed ^ (0xD5_u64 << 8 | i as u64)).to_le_bytes());
    }
    MasterKey::from_bytes(bytes)
}

/// The analyst's queried tables: the (at most) `n` owners that join at t=0,
/// never leave, and have the most arrivals (lowest index on ties).  Busy tables
/// make released answers lag behind the truth often enough for the error to
/// be measured.
fn steady_tables(fleet: &[OwnerWorkload], n: usize) -> Vec<String> {
    let mut steady: Vec<&OwnerWorkload> = fleet
        .iter()
        .filter(|w| w.join_time == 0 && w.leave_time.is_none())
        .collect();
    steady.sort_by(|a, b| {
        b.arrivals
            .len()
            .cmp(&a.arrivals.len())
            .then_with(|| a.table.cmp(&b.table))
    });
    assert!(!steady.is_empty(), "an owner is present for the whole run");
    steady.iter().take(n).map(|w| w.table.clone()).collect()
}

fn fleet(
    owners: usize,
    horizon: u64,
    initial_records: usize,
    seed: u64,
    size: Size,
) -> Vec<OwnerWorkload> {
    let mut profile = ScaleProfile::new(owners, horizon, seed);
    profile.mean_rate = 0.02;
    profile.initial_records = initial_records;
    // The default two 30-tick flash crowds carry as much traffic as a third
    // of the run, and where they land on the diurnal curve swings the whole
    // fleet's volume by a fifth between seeds; eight 8-tick crowds carry the
    // same boosted traffic with a steadier total.
    profile.flash_crowds = 8;
    profile.flash_width = 8;
    if size == Size::Reduced {
        profile.churn_fraction = 0.25;
    }
    profile.generate()
}

fn reading_queries(tables: &[String], with_group_by: bool) -> Vec<(String, Query)> {
    // Q1 (and Q2) from the paper, rebound to the fleet schema's `reading`
    // column, which the generator draws in 0..1000.
    let mut set = Vec::new();
    for table in tables {
        set.push((
            format!("Q1/{table}"),
            Query::Count {
                table: table.clone(),
                predicate: Some(Predicate::Between("reading".into(), 100.0, 400.0)),
            },
        ));
        if with_group_by {
            set.push((
                format!("Q2/{table}"),
                Query::GroupByCount {
                    table: table.clone(),
                    group_by: "reading".into(),
                    predicate: None,
                },
            ));
        }
    }
    set
}

impl Scenario {
    /// Generates the inputs of `workload` at `size` from `seed`.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Self {
        let reduced = size == Size::Reduced;
        let master = master_key(seed);
        match workload {
            Workload::FleetIngest => {
                let (owners, horizon, qi, si) = if reduced {
                    (300, 96, 8, 24)
                } else {
                    (10_000, 480, 5, 60)
                };
                let mut fleet = fleet(owners, horizon, 2, seed, size);
                let tables = steady_tables(&fleet, 8);
                // The queried owners start with a large `D₀`, ingested in
                // one batch, so each query streams through thousands of
                // contiguous rows: a scan over a few hundred rows scattered
                // between ten thousand tables swung 40% with the host's
                // memory traffic, where the same code over big tables stays
                // within the regression bound.
                let initial = if reduced { 50 } else { 5_000 };
                let mut rng = DpRng::seed_from_u64(mix64(seed ^ 0xD0));
                for owner in fleet.iter_mut().filter(|w| tables.contains(&w.table)) {
                    owner.initial_rows = (0..initial)
                        .map(|_| {
                            Row::new(vec![
                                Value::Timestamp(0),
                                Value::Int(rng.gen_range(0..1000)),
                            ])
                        })
                        .collect();
                }
                let queries = reading_queries(&tables, false);
                Self {
                    workload,
                    fleet,
                    horizon,
                    config: SimulationConfig {
                        query_interval: qi,
                        size_sample_interval: si,
                        queries,
                        seed,
                    },
                    analyst: AnalystChoice::Scan,
                    strategy: StrategyChoice::DpTimer,
                    deployment: Deployment::InprocMemory,
                    master,
                }
            }
            Workload::TaxiAnalytics => {
                let (scale, initial) = if reduced { (12, 1_000) } else { (1, 20_000) };
                let yellow =
                    TaxiDataset::generate(TaxiConfig::scaled_yellow(mix64(seed ^ 1), scale));
                let green = TaxiDataset::generate(TaxiConfig::scaled_green(mix64(seed ^ 2), scale));
                // Yellow's D₀ is enlarged with trips stamped t=0 so full scans
                // dominate the analyst's cost.
                let d0 = TaxiDataset::generate(TaxiConfig {
                    record_count: initial,
                    horizon: initial,
                    seed: mix64(seed ^ 3),
                });
                let mut yellow_owner =
                    OwnerWorkload::from(&yellow.to_workload(queries::YELLOW_TABLE));
                yellow_owner.initial_rows = d0
                    .records()
                    .iter()
                    .map(|r| {
                        let mut trip = *r;
                        trip.pick_time = 0;
                        trip.to_row()
                    })
                    .collect();
                let green_owner = OwnerWorkload::from(&green.to_workload(queries::GREEN_TABLE));
                Self {
                    workload,
                    fleet: vec![yellow_owner, green_owner],
                    horizon: JUNE_2020_MINUTES / scale,
                    config: SimulationConfig {
                        query_interval: 360 / scale,
                        // Sampled at every pose rather than the paper's 7200
                        // ticks: two tables cost nothing to sample, and 120
                        // samples make the mean gap a steady figure.
                        size_sample_interval: 360 / scale,
                        queries: queries::paper_query_set(),
                        seed,
                    },
                    analyst: AnalystChoice::Indexes(LeakagePolicy::AllowIndexedVolume),
                    strategy: StrategyChoice::DpAnt,
                    deployment: Deployment::InprocMemory,
                    master,
                }
            }
            Workload::WireDurable => {
                let (owners, horizon, qi, si) = if reduced {
                    (120, 64, 8, 32)
                } else {
                    (128, 480, 8, 60)
                };
                let fleet = fleet(owners, horizon, 2, seed, size);
                let queries = reading_queries(&steady_tables(&fleet, 8), true);
                Self {
                    workload,
                    fleet,
                    horizon,
                    config: SimulationConfig {
                        query_interval: qi,
                        size_sample_interval: si,
                        queries,
                        seed,
                    },
                    analyst: AnalystChoice::Views,
                    strategy: StrategyChoice::DpTimer,
                    deployment: Deployment::TcpMemory,
                    master,
                }
            }
        }
    }

    /// The simulation driver for these inputs.
    pub fn simulation(&self) -> Simulation {
        let sim = Simulation::new(self.config.clone());
        match self.analyst {
            AnalystChoice::Scan => sim,
            AnalystChoice::Views => sim.with_views(),
            AnalystChoice::Indexes(policy) => sim.with_indexes(policy),
        }
    }

    /// A fresh strategy instance for one owner.
    pub fn make_strategy(&self) -> Box<dyn SyncStrategy> {
        match self.strategy {
            StrategyChoice::DpTimer => Box::new(DpTimerStrategy::with_flush(
                Epsilon::new_unchecked(1.0),
                30,
                Some(CacheFlush::new(240, 15)),
            )),
            StrategyChoice::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                15,
                Some(CacheFlush::new(2000, 15)),
            )),
            StrategyChoice::Sur => Box::new(SynchronizeUponReceipt::new()),
        }
    }

    /// The strategy kind the owners run.
    pub fn strategy_kind(&self) -> StrategyKind {
        self.make_strategy().kind()
    }

    /// Rows the owners receive over the run: `D₀` and every arrival inside
    /// each owner's active window, for owners that join by the horizon.
    pub fn received_rows(&self) -> u64 {
        self.fleet
            .iter()
            .filter(|w| w.join_time <= self.horizon)
            .map(|w| {
                let last = w.leave_time.unwrap_or(self.horizon).min(self.horizon);
                w.initial_rows.len() as u64
                    + w.arrivals
                        .iter()
                        .filter(|(t, _)| *t >= w.join_time && *t <= last)
                        .map(|(_, rows)| rows.len() as u64)
                        .sum::<u64>()
            })
            .sum()
    }

    /// A digest of everything the program receives.
    pub fn inputs_digest(&self) -> u64 {
        fnv64(
            format!(
                "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.fleet,
                self.horizon,
                self.config,
                self.analyst,
                self.strategy,
                self.deployment,
                self.master.bytes()
            )
            .as_bytes(),
        )
    }
}
