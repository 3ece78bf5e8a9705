//! Runs one simulation epoch through `Simulation::run_sparse_multi`.
//!
//! The epoch builds everything it measures — backend, engine, server,
//! connections — after its [`Probe`] exists, so the probe's set-up interval
//! covers them.  Decorators sit at every layer boundary the program exposes:
//! the owner's and the analyst's handles, the engine (the `Arc` handed to the
//! TCP server in remote deployments), the storage backend handed to
//! `ObliDbEngine::with_backend`, and each owner's strategy.  An untraced
//! epoch installs only the handle and strategy decorators, which record the
//! end-to-end latencies and the end of set-up.

use crate::decor::{TracedBackend, TracedEdb, TracedStrategy};
use crate::scenario::{fnv64, Deployment, Scenario, CONNECTIONS, SESSIONS_PER_CONNECTION};
use crate::trace::{Layer, Probe};
use dpsync_bench::experiments::config::ScratchDir;
use dpsync_bench::experiments::runner::disk_scratch_root;
use dpsync_core::metrics::SimulationReport;
use dpsync_core::strategy::SyncStrategy;
use dpsync_edb::backend::{GroupCommitConfig, MemoryBackend, SegmentLogBackend, SegmentLogConfig};
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::{AdversaryView, SecureOutsourcedDatabase, StorageBackend};
use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection, ServeOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to install around the program for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    /// No decorators at all: the reference for the equivalence checks.
    Bare,
    /// Handle and strategy decorators only: the end-to-end run.
    Untraced,
    /// Every decorator, recording spans: the per-layer run.
    Traced,
}

/// Options of one epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochOptions {
    /// Which decorators to install.
    pub instrument: Instrument,
    /// Keep every released answer (correctness gates).
    pub capture_answers: bool,
    /// Overrides the scenario's deployment (the wire gate replays one
    /// scenario in both).
    pub deployment: Option<Deployment>,
}

impl EpochOptions {
    /// Options for `instrument` with the scenario's own deployment.
    pub fn new(instrument: Instrument) -> Self {
        Self {
            instrument,
            capture_answers: false,
            deployment: None,
        }
    }
}

/// Load counters of the TCP server, zero in process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    /// Request handlers that panicked.
    pub handler_panics: u64,
    /// Connections dropped by the progress deadline.
    pub reaped_connections: u64,
    /// Largest per-connection outbound backlog, bytes.
    pub peak_outbound_bytes: u64,
}

/// The outcome of one epoch.
pub struct EpochRun {
    /// The simulation report, or why the epoch aborted.
    pub report: Result<SimulationReport, String>,
    /// The engine's adversary view, read directly from the engine.
    pub view: AdversaryView,
    /// Everything the decorators recorded.
    pub probe: Arc<Probe>,
    /// When `run_sparse_multi` returned.
    pub end: Instant,
    /// TCP server counters.
    pub server: ServerCounters,
}

impl EpochRun {
    /// Failures of the epoch: `Err`s seen by the decorators, server handler
    /// panics and reaped connections, and one more when the epoch aborted.
    pub fn failures(&self) -> u64 {
        self.probe.failed()
            + self.server.handler_panics
            + self.server.reaped_connections
            + u64::from(self.report.is_err())
    }

    /// The digest of (normalized report, adversary view); `None` when the
    /// epoch aborted.
    pub fn digest(&self) -> Option<u64> {
        self.report.as_ref().ok().map(|report| {
            fnv64(format!("{:?}|{:?}", report.clone().normalized(), self.view).as_bytes())
        })
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The per-run directory under `disk_scratch_root()` holding every epoch's
/// segment log; dropping it (also while unwinding from a panic) removes them
/// all.
///
/// Epoch logs are deliberately not removed one by one: deleting hundreds of
/// table directories between epochs loads the filesystem journal, and the
/// next epoch's fsyncs pay for it.
#[derive(Debug)]
pub struct DiskRun {
    dir: ScratchDir,
    epochs: AtomicU64,
}

impl DiskRun {
    /// Claims a fresh run directory (created lazily by the first epoch that
    /// needs one).
    pub fn new() -> Self {
        Self {
            dir: ScratchDir::claim(disk_scratch_root().join(format!(
                "perfbench-{}-{}",
                std::process::id(),
                RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))),
            epochs: AtomicU64::new(0),
        }
    }

    fn epoch_dir(&self) -> PathBuf {
        self.dir.path().join(format!(
            "epoch-{}",
            self.epochs.fetch_add(1, Ordering::Relaxed)
        ))
    }
}

impl Default for DiskRun {
    fn default() -> Self {
        Self::new()
    }
}

fn connect(addr: std::net::SocketAddr) -> MuxConnection {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match MuxConnection::connect_with_timeout(addr, Some(Duration::from_secs(60))) {
            Ok(conn) => return conn,
            Err(e) if Instant::now() > deadline => {
                panic!("cannot connect to the loopback server: {e}")
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Runs one epoch of `scenario`; a segment-log deployment keeps its log in
/// a new directory of `disk`.
pub fn run_epoch(scenario: &Scenario, options: EpochOptions, disk: &DiskRun) -> EpochRun {
    let deployment = options.deployment.unwrap_or(scenario.deployment);
    let tracing = options.instrument == Instrument::Traced;
    let decorated = options.instrument != Instrument::Bare;
    let client_layer = (deployment != Deployment::InprocMemory).then_some(Layer::Net);
    // Set-up starts here.
    let probe = Probe::new(tracing, client_layer, options.capture_answers);

    let log_dir = (deployment == Deployment::TcpSegmentLog).then(|| disk.epoch_dir());
    let mut backend: Arc<dyn StorageBackend> = match &log_dir {
        None => Arc::new(MemoryBackend::new()),
        Some(dir) => Arc::new(
            SegmentLogBackend::open(
                SegmentLogConfig::new(dir).with_group_commit(GroupCommitConfig::default()),
            )
            .expect("the per-run segment-log directory is creatable"),
        ),
    };
    if tracing {
        backend = Arc::new(TracedBackend::new(backend, Arc::clone(&probe)));
    }
    let bare_engine: Arc<dyn SecureOutsourcedDatabase> = Arc::new(
        ObliDbEngine::with_backend(&scenario.master, backend).expect("a fresh backend opens"),
    );
    let engine: Arc<dyn SecureOutsourcedDatabase> = if tracing {
        Arc::new(TracedEdb::engine(
            Arc::clone(&bare_engine),
            Arc::clone(&probe),
        ))
    } else {
        Arc::clone(&bare_engine)
    };
    let handle = |inner: Arc<dyn SecureOutsourcedDatabase>| -> Arc<dyn SecureOutsourcedDatabase> {
        if decorated {
            Arc::new(TracedEdb::client(inner, Arc::clone(&probe)))
        } else {
            inner
        }
    };

    let mut server = None;
    let mut connections = Vec::new();
    let (owner_handles, analyst): (Vec<Arc<dyn SecureOutsourcedDatabase>>, _) = match deployment {
        Deployment::InprocMemory => {
            let h = handle(Arc::clone(&engine));
            (vec![Arc::clone(&h)], h)
        }
        Deployment::TcpMemory | Deployment::TcpSegmentLog => {
            let s = EdbTcpServer::bind_with_options(
                "127.0.0.1:0",
                EngineProvider::Shared(Arc::clone(&engine)),
                ServeOptions {
                    io_deadline: Duration::from_secs(60),
                    ..Default::default()
                },
            )
            .expect("the loopback server binds");
            connections = (0..CONNECTIONS).map(|_| connect(s.local_addr())).collect();
            server = Some(s);
            let owners = connections
                .iter()
                .flat_map(|c| (0..SESSIONS_PER_CONNECTION).map(move |_| c))
                .map(|c| handle(Arc::new(c.open_shared().expect("an owner session opens"))))
                .collect();
            let analyst = handle(Arc::new(
                connections[0]
                    .open_shared()
                    .expect("the analyst session opens"),
            ));
            (owners, analyst)
        }
    };
    let owner_refs: Vec<&dyn SecureOutsourcedDatabase> = (0..scenario.fleet.len())
        .map(|i| &*owner_handles[i % owner_handles.len()])
        .collect();

    let sim = scenario.simulation();
    let make = |_: &str| -> Box<dyn SyncStrategy> {
        let inner = scenario.make_strategy();
        if decorated {
            Box::new(TracedStrategy::new(inner, Arc::clone(&probe)))
        } else {
            inner
        }
    };
    let report = catch_unwind(AssertUnwindSafe(|| {
        sim.run_sparse_multi(
            &scenario.fleet,
            scenario.horizon,
            &owner_refs,
            &*analyst,
            &scenario.master,
            make,
        )
    }));
    let end = Instant::now();
    let report = match report {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("protocol error: {e}")),
        Err(panic) => Err(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    };
    let view = bare_engine.adversary_view();

    drop(owner_refs);
    drop(owner_handles);
    drop(analyst);
    drop(connections);
    let server = server
        .map(|mut s| {
            s.shutdown();
            ServerCounters {
                handler_panics: s.handler_panics() as u64,
                reaped_connections: s.stats().reaped_connections() as u64,
                peak_outbound_bytes: s.stats().peak_outbound_bytes() as u64,
            }
        })
        .unwrap_or_default();
    drop(engine);
    drop(bare_engine);
    EpochRun {
        report,
        view,
        probe,
        end,
        server,
    }
}
