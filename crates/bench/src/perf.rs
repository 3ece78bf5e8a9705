//! Performance telemetry: a fixed, seeded microbenchmark suite with
//! machine-readable reports and a regression-gate comparator.
//!
//! The ROADMAP demands "as fast as the hardware allows"; this module gives
//! that demand teeth.  [`run_suite`] times the hot paths that dominate
//! DP-Sync's cost — record encryption/decryption, the DP sampling primitives,
//! engine `Π_Update` ingest (against the in-memory store and the durable
//! segment log, both with per-batch fsync and with concurrent appenders
//! amortized through group-commit sync windows), the same ingest through
//! the reactor service tier (multiplexed sessions over real loopback
//! sockets), query execution (full scans, materialized-view reads and
//! encrypted-multimap selection-index reads, plus the view- and
//! index-maintenance ingest overheads), and a
//! small end-to-end sync — and renders the medians into a versioned
//! [`BenchReport`].  The `exp_bench`
//! binary writes the report as `BENCH_<label>.json`, and its `compare`
//! subcommand diffs two reports with a configurable tolerance, exiting
//! nonzero on regression so CI can gate on it (see `bench/baseline.json`).
//!
//! Reports are serialized through the dependency-free [`json`] submodule —
//! the vendored crate set has no `serde_json`, and the schema is small enough
//! that a hand-rolled reader/writer is simpler than growing the vendor tree.
//!
//! Timing methodology: each benchmark runs a fixed number of samples; every
//! sample sets up fresh state *outside* the timed region (so `Π_Update`
//! ingest is measured against an empty table every time, not an ever-growing
//! one) and then processes a fixed record count inside it.  The reported
//! `median_ns_per_op` is the median across samples of `elapsed / records`,
//! which is robust to the occasional scheduler hiccup on shared CI runners.

use crate::experiments::config::{EngineKind, ExperimentConfig};
use crate::experiments::runner::{run_simulation, RunSpec};
use crate::report::TextTable;
use dpsync_core::strategy::StrategyKind;
use dpsync_crypto::{MasterKey, RecordCryptor};
use dpsync_dp::{AboveNoisyThreshold, DpRng, Epsilon, Laplace};
use dpsync_edb::engines::base::encrypt_batch;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{DataType, IndexDef, Row, Schema, Value, ViewDef};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub mod json;

use json::JsonValue;

/// Version stamp embedded in every report; bump when the schema changes.
pub const REPORT_VERSION: u64 = 1;

/// Errors raised while loading, parsing or comparing benchmark reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// A report file could not be read.
    Io {
        /// Path the caller supplied.
        path: String,
        /// Underlying IO error message.
        message: String,
    },
    /// A report file is not valid JSON.
    Json {
        /// Path the caller supplied.
        path: String,
        /// Parse error with position information.
        message: String,
    },
    /// A report file is valid JSON but not a valid benchmark report.
    Schema {
        /// Path the caller supplied.
        path: String,
        /// What was missing or malformed.
        message: String,
    },
    /// A tolerance argument could not be parsed.
    BadTolerance(String),
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Io { path, message } => {
                write!(f, "cannot read benchmark report `{path}`: {message}")
            }
            PerfError::Json { path, message } => {
                write!(f, "benchmark report `{path}` is not valid JSON: {message}")
            }
            PerfError::Schema { path, message } => {
                write!(f, "benchmark report `{path}` is malformed: {message}")
            }
            PerfError::BadTolerance(raw) => write!(
                f,
                "cannot parse tolerance `{raw}` (expected a percentage like `25%` or a fraction like `0.25`)"
            ),
        }
    }
}

impl std::error::Error for PerfError {}

/// The measured outcome of one microbenchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable benchmark name (the compare key).
    pub name: String,
    /// Median nanoseconds per record/operation across samples.
    pub median_ns_per_op: f64,
    /// Median throughput in records (or operations) per second.
    pub throughput_per_sec: f64,
    /// Records/operations processed inside the timed region of one sample.
    pub records_processed: u64,
    /// Number of timed samples the median was taken over.
    pub samples: u64,
}

/// One versioned benchmark report (the contents of a `BENCH_<label>.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`REPORT_VERSION`]).
    pub version: u64,
    /// Human-chosen label (git SHA, "baseline", "pr3", ...).
    pub label: String,
    /// Master seed the suite ran with.
    pub seed: u64,
    /// Whether the suite ran at the reduced `--smoke` scale.
    pub smoke: bool,
    /// Worker-pool width the run was configured with.
    pub workers: u64,
    /// One entry per microbenchmark.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Looks up a result by benchmark name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let results: Vec<JsonValue> = self
            .results
            .iter()
            .map(|r| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(r.name.clone())),
                    (
                        "median_ns_per_op".into(),
                        JsonValue::Number(r.median_ns_per_op),
                    ),
                    (
                        "throughput_per_sec".into(),
                        JsonValue::Number(r.throughput_per_sec),
                    ),
                    (
                        "records_processed".into(),
                        JsonValue::Number(r.records_processed as f64),
                    ),
                    ("samples".into(), JsonValue::Number(r.samples as f64)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("version".into(), JsonValue::Number(self.version as f64)),
            ("label".into(), JsonValue::String(self.label.clone())),
            ("seed".into(), JsonValue::Number(self.seed as f64)),
            ("smoke".into(), JsonValue::Bool(self.smoke)),
            ("workers".into(), JsonValue::Number(self.workers as f64)),
            ("results".into(), JsonValue::Array(results)),
        ])
        .render_pretty()
    }

    /// Parses a report from JSON text; `path` is used in error messages only.
    pub fn from_json(text: &str, path: &str) -> Result<Self, PerfError> {
        let value = JsonValue::parse(text).map_err(|message| PerfError::Json {
            path: path.to_string(),
            message,
        })?;
        let schema_err = |message: String| PerfError::Schema {
            path: path.to_string(),
            message,
        };
        let field = |name: &str| -> Result<&JsonValue, PerfError> {
            value
                .get(name)
                .ok_or_else(|| schema_err(format!("missing top-level field `{name}`")))
        };
        let number = |v: &JsonValue, what: &str| -> Result<f64, PerfError> {
            v.as_f64()
                .ok_or_else(|| schema_err(format!("field `{what}` is not a number")))
        };

        let version = number(field("version")?, "version")? as u64;
        if version != REPORT_VERSION {
            return Err(schema_err(format!(
                "unsupported report version {version} (this build reads version {REPORT_VERSION})"
            )));
        }
        let label = field("label")?
            .as_str()
            .ok_or_else(|| schema_err("field `label` is not a string".into()))?
            .to_string();
        let seed = number(field("seed")?, "seed")? as u64;
        let smoke = field("smoke")?
            .as_bool()
            .ok_or_else(|| schema_err("field `smoke` is not a boolean".into()))?;
        let workers = number(field("workers")?, "workers")? as u64;
        let raw_results = field("results")?
            .as_array()
            .ok_or_else(|| schema_err("field `results` is not an array".into()))?;

        let mut results = Vec::with_capacity(raw_results.len());
        for (i, entry) in raw_results.iter().enumerate() {
            let entry_field = |name: &str| -> Result<&JsonValue, PerfError> {
                entry
                    .get(name)
                    .ok_or_else(|| schema_err(format!("results[{i}] is missing field `{name}`")))
            };
            results.push(BenchResult {
                name: entry_field("name")?
                    .as_str()
                    .ok_or_else(|| schema_err(format!("results[{i}].name is not a string")))?
                    .to_string(),
                median_ns_per_op: number(entry_field("median_ns_per_op")?, "median_ns_per_op")?,
                throughput_per_sec: number(
                    entry_field("throughput_per_sec")?,
                    "throughput_per_sec",
                )?,
                records_processed: number(entry_field("records_processed")?, "records_processed")?
                    as u64,
                samples: number(entry_field("samples")?, "samples")? as u64,
            });
        }
        Ok(Self {
            version,
            label,
            seed,
            smoke,
            workers,
            results,
        })
    }

    /// Renders the report as an aligned text table for stdout.
    pub fn to_table(&self) -> TextTable {
        let mut table =
            TextTable::new(["benchmark", "median ns/op", "throughput", "records/sample"]);
        for r in &self.results {
            table.add_row([
                r.name.clone(),
                format!("{:.1}", r.median_ns_per_op),
                format_throughput(r.throughput_per_sec),
                r.records_processed.to_string(),
            ]);
        }
        table
    }
}

/// Formats a records-per-second figure with a compact SI suffix.
pub fn format_throughput(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2}M rec/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}k rec/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0} rec/s")
    }
}

/// Loads and parses a report file.
pub fn load_report(path: &str) -> Result<BenchReport, PerfError> {
    let text = std::fs::read_to_string(path).map_err(|e| PerfError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    BenchReport::from_json(&text, path)
}

/// A relative tolerance for throughput comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance(pub f64);

impl Tolerance {
    /// Parses `"25%"` or `"0.25"` into a fraction; rejects negatives and NaN.
    pub fn parse(raw: &str) -> Result<Self, PerfError> {
        let trimmed = raw.trim();
        let (body, percent) = match trimmed.strip_suffix('%') {
            Some(body) => (body, true),
            None => (trimmed, false),
        };
        let value: f64 = body
            .trim()
            .parse()
            .map_err(|_| PerfError::BadTolerance(raw.to_string()))?;
        let fraction = if percent { value / 100.0 } else { value };
        if !fraction.is_finite() || fraction < 0.0 {
            return Err(PerfError::BadTolerance(raw.to_string()));
        }
        Ok(Self(fraction))
    }
}

/// The comparison of one benchmark between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Benchmark name.
    pub name: String,
    /// Baseline throughput (rec/s), when the baseline has this benchmark.
    pub baseline: Option<f64>,
    /// Current throughput (rec/s), when the current report has it.
    pub current: Option<f64>,
    /// Relative throughput change (`current/baseline - 1`), when both exist.
    pub change: Option<f64>,
    /// Whether this line violates the tolerance (regression or missing).
    pub regressed: bool,
}

impl CompareLine {
    /// Renders the line for terminal output.
    pub fn render(&self) -> String {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => {
                let change = self.change.unwrap_or(0.0) * 100.0;
                let verdict = if self.regressed { "REGRESSED" } else { "ok" };
                format!(
                    "{:<22} {:>14} -> {:>14}  ({:+.1}%)  {}",
                    self.name,
                    format_throughput(b),
                    format_throughput(c),
                    change,
                    verdict
                )
            }
            (Some(b), None) => format!(
                "{:<22} {:>14} -> {:>14}  MISSING from current report",
                self.name,
                format_throughput(b),
                "-"
            ),
            (None, Some(c)) => format!(
                "{:<22} {:>14} -> {:>14}  (new benchmark, not gated)",
                self.name,
                "-",
                format_throughput(c)
            ),
            (None, None) => unreachable!("a compare line references at least one report"),
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One line per benchmark (union of both reports, baseline order first).
    pub lines: Vec<CompareLine>,
    /// Tolerance the comparison ran with.
    pub tolerance: Tolerance,
}

impl Comparison {
    /// Whether any benchmark regressed beyond the tolerance (or disappeared).
    pub fn has_regressions(&self) -> bool {
        self.lines.iter().any(|l| l.regressed)
    }

    /// The names of regressed benchmarks.
    pub fn regressions(&self) -> Vec<&str> {
        self.lines
            .iter()
            .filter(|l| l.regressed)
            .map(|l| l.name.as_str())
            .collect()
    }
}

/// Compares `current` against `baseline` with the given throughput tolerance.
///
/// A benchmark regresses when its current throughput falls below
/// `baseline * (1 - tolerance)`; improvements never fail the gate.  A
/// benchmark present in the baseline but missing from the current report also
/// counts as a regression (coverage must not silently shrink); benchmarks new
/// in the current report are listed but not gated.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: Tolerance) -> Comparison {
    let mut lines = Vec::new();
    for base in &baseline.results {
        match current.result(&base.name) {
            Some(cur) => {
                let floor = base.throughput_per_sec * (1.0 - tolerance.0);
                let change = if base.throughput_per_sec > 0.0 {
                    cur.throughput_per_sec / base.throughput_per_sec - 1.0
                } else {
                    0.0
                };
                lines.push(CompareLine {
                    name: base.name.clone(),
                    baseline: Some(base.throughput_per_sec),
                    current: Some(cur.throughput_per_sec),
                    change: Some(change),
                    regressed: cur.throughput_per_sec < floor,
                });
            }
            None => lines.push(CompareLine {
                name: base.name.clone(),
                baseline: Some(base.throughput_per_sec),
                current: None,
                change: None,
                regressed: true,
            }),
        }
    }
    for cur in &current.results {
        if baseline.result(&cur.name).is_none() {
            lines.push(CompareLine {
                name: cur.name.clone(),
                baseline: None,
                current: Some(cur.throughput_per_sec),
                change: None,
                regressed: false,
            });
        }
    }
    Comparison { lines, tolerance }
}

/// Configuration for one suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Report label (becomes part of the output file name).
    pub label: String,
    /// Master seed for every randomized input.
    pub seed: u64,
    /// Reduced scale for CI smoke runs.
    pub smoke: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            label: "local".into(),
            seed: 2021,
            smoke: false,
        }
    }
}

/// Scale knobs derived from [`SuiteConfig::smoke`].
struct SuiteScale {
    samples: usize,
    crypto_records: usize,
    ingest_batches: usize,
    ingest_batch_size: usize,
    dp_draws: usize,
    query_rows: usize,
    queries_per_sample: usize,
    e2e_scale: u64,
    e2e_samples: usize,
    sparse_owners: usize,
    sparse_horizon: u64,
    sparse_samples: usize,
}

impl SuiteScale {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                samples: 5,
                crypto_records: 512,
                ingest_batches: 64,
                ingest_batch_size: 4,
                dp_draws: 20_000,
                query_rows: 2_000,
                queries_per_sample: 8,
                e2e_scale: 480,
                e2e_samples: 5,
                sparse_owners: 400,
                sparse_horizon: 180,
                sparse_samples: 3,
            }
        } else {
            Self {
                samples: 11,
                crypto_records: 4_096,
                ingest_batches: 256,
                ingest_batch_size: 8,
                dp_draws: 200_000,
                query_rows: 20_000,
                queries_per_sample: 16,
                e2e_scale: 120,
                e2e_samples: 7,
                sparse_owners: 2_000,
                sparse_horizon: 360,
                sparse_samples: 5,
            }
        }
    }
}

fn taxi_like_schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
        ("dropoff_id", DataType::Int),
        ("distance", DataType::Float),
        ("fare", DataType::Float),
    ])
}

fn synthetic_rows(n: usize, seed: u64) -> Vec<Row> {
    // A cheap deterministic mix; the values only need to exercise realistic
    // row serialization sizes and group cardinalities.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Timestamp(i as u64),
                Value::Int((next() % 265) as i64 + 1),
                Value::Int((next() % 265) as i64 + 1),
                Value::Float((next() % 3_000) as f64 / 100.0),
                Value::Float((next() % 10_000) as f64 / 100.0),
            ])
        })
        .collect()
}

/// Times `samples` runs of `sample` (each sets up its own state and returns
/// the duration of its timed region) and folds them into a [`BenchResult`].
fn run_bench(
    name: &str,
    samples: usize,
    records_per_sample: u64,
    mut sample: impl FnMut() -> Duration,
) -> BenchResult {
    let mut elapsed: Vec<Duration> = (0..samples).map(|_| sample()).collect();
    elapsed.sort();
    let median = if elapsed.len() % 2 == 1 {
        elapsed[elapsed.len() / 2]
    } else {
        (elapsed[elapsed.len() / 2 - 1] + elapsed[elapsed.len() / 2]) / 2
    };
    // Floor the median at 1 ns so a timed region that rounds to zero (coarse
    // platform timers) yields a large-but-finite throughput instead of the
    // +inf that would poison JSON serialization.
    let median_ns = median.as_nanos().max(1) as f64 / records_per_sample as f64;
    BenchResult {
        name: name.to_string(),
        median_ns_per_op: median_ns,
        throughput_per_sec: 1e9 / median_ns,
        records_processed: records_per_sample,
        samples: samples as u64,
    }
}

fn bench_crypto_encrypt(scale: &SuiteScale, seed: u64) -> BenchResult {
    let rows = synthetic_rows(scale.crypto_records, seed);
    let dummies = scale.crypto_records / 4;
    let master = MasterKey::from_bytes([0xA1; 32]);
    run_bench(
        "crypto_encrypt",
        scale.samples,
        (rows.len() + dummies) as u64,
        || {
            let mut cryptor = RecordCryptor::new(&master);
            let started = Instant::now();
            let out = encrypt_batch(&mut cryptor, &rows, dummies);
            let elapsed = started.elapsed();
            black_box(out.len());
            elapsed
        },
    )
}

fn bench_crypto_decrypt(scale: &SuiteScale, seed: u64) -> BenchResult {
    let rows = synthetic_rows(scale.crypto_records, seed);
    let master = MasterKey::from_bytes([0xA2; 32]);
    let mut cryptor = RecordCryptor::new(&master);
    let records = encrypt_batch(&mut cryptor, &rows, scale.crypto_records / 4);
    run_bench(
        "crypto_decrypt",
        scale.samples,
        records.len() as u64,
        || {
            let started = Instant::now();
            for record in &records {
                black_box(cryptor.decrypt(record).expect("round trip"));
            }
            started.elapsed()
        },
    )
}

fn bench_crypto_decrypt_batch(scale: &SuiteScale, seed: u64) -> BenchResult {
    // Same records as `crypto_decrypt`, opened through the batch path that
    // `Π_Update` ingest runs.
    let rows = synthetic_rows(scale.crypto_records, seed);
    let master = MasterKey::from_bytes([0xA2; 32]);
    let mut cryptor = RecordCryptor::new(&master);
    let records = encrypt_batch(&mut cryptor, &rows, scale.crypto_records / 4);
    run_bench(
        "crypto_decrypt_batch",
        scale.samples,
        records.len() as u64,
        || {
            let started = Instant::now();
            cryptor
                .decrypt_batch(&records, |view| {
                    black_box(view.expect("round trip"));
                    Ok::<_, ()>(())
                })
                .expect("visitor never fails");
            started.elapsed()
        },
    )
}

fn bench_dp_laplace(scale: &SuiteScale, seed: u64) -> BenchResult {
    let noise = Laplace::new(0.0, 2.0).expect("valid scale");
    run_bench("dp_laplace", scale.samples, scale.dp_draws as u64, || {
        let mut rng = DpRng::seed_from_u64(seed);
        let started = Instant::now();
        let mut acc = 0.0;
        for _ in 0..scale.dp_draws {
            acc += noise.sample(&mut rng);
        }
        let elapsed = started.elapsed();
        black_box(acc);
        elapsed
    })
}

fn bench_dp_svt(scale: &SuiteScale, seed: u64) -> BenchResult {
    run_bench("dp_svt", scale.samples, scale.dp_draws as u64, || {
        let mut rng = DpRng::seed_from_u64(seed ^ 0x5157);
        let mut svt = AboveNoisyThreshold::new(15.0, Epsilon::new_unchecked(0.5), &mut rng);
        let started = Instant::now();
        let mut positives = 0u64;
        for i in 0..scale.dp_draws {
            match svt.observe((i % 32) as u64, &mut rng) {
                dpsync_dp::SvtOutcome::Above => {
                    positives += 1;
                    svt.reset(&mut rng);
                }
                dpsync_dp::SvtOutcome::Below => {}
            }
        }
        let elapsed = started.elapsed();
        black_box(positives);
        elapsed
    })
}

/// Pre-encrypts the shared ingest workload: one quarter of every batch is
/// dummy padding, matching a DP-Timer-like steady state.  Batches are
/// deliberately small — a Π_Update flush is a per-timestep cache of a few
/// records plus its padding, not a bulk load — which is also the regime
/// where the durable-backend benches measure what they claim to: per-sync
/// cost (the thing DP-Sync's update cadence multiplies and group commit
/// amortizes) rather than raw byte throughput.
fn ingest_batches(
    scale: &SuiteScale,
    seed: u64,
    master: &MasterKey,
) -> Vec<Vec<dpsync_crypto::EncryptedRecord>> {
    let mut cryptor = RecordCryptor::new(master);
    (0..scale.ingest_batches)
        .map(|b| {
            let rows = synthetic_rows(
                scale.ingest_batch_size * 3 / 4,
                seed ^ (b as u64).wrapping_mul(0x9e37),
            );
            encrypt_batch(&mut cryptor, &rows, scale.ingest_batch_size / 4)
        })
        .collect()
}

fn bench_pi_update_ingest(scale: &SuiteScale, seed: u64) -> BenchResult {
    let master = MasterKey::from_bytes([0xB3; 32]);
    // Batches are encrypted once up front; each sample clones them outside
    // the timed region (Π_Update consumes the batch by value).
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    run_bench("pi_update_ingest", scale.samples, records, || {
        let engine = ObliDbEngine::new(&master);
        engine
            .setup("bench", taxi_like_schema(), Vec::new())
            .expect("fresh engine");
        let cloned: Vec<_> = batches.to_vec();
        let started = Instant::now();
        for (time, batch) in cloned.into_iter().enumerate() {
            engine
                .update("bench", time as u64 + 1, batch)
                .expect("ingest cannot fail");
        }
        let elapsed = started.elapsed();
        black_box(engine.table_stats("bench").ciphertext_count);
        elapsed
    })
}

fn bench_pi_update_ingest_disk(scale: &SuiteScale, seed: u64) -> BenchResult {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    // The scratch root rides behind a drop guard so the directory disappears
    // even when a sample panics mid-ingest (a trailing `remove_dir_all`
    // would be skipped during unwinding).
    let root = crate::experiments::config::ScratchDir::claim(
        crate::experiments::runner::disk_scratch_root()
            .join(format!("dpsync-perf-disk-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(root.path());
    let mut sample_index = 0u64;
    run_bench("pi_update_ingest_disk", scale.samples, records, || {
        // A fresh segment log per sample, full durability: every Π_Update
        // batch is CRC-framed and fsynced, so this measures the real disk
        // ingest path, not just the framing.
        let dir = root.path().join(format!("sample-{sample_index}"));
        sample_index += 1;
        let backend = dpsync_edb::BackendConfig::segment_log(&dir)
            .build()
            .expect("scratch dir is creatable");
        let engine = ObliDbEngine::with_backend(&master, backend).expect("fresh log opens");
        engine
            .setup("bench", taxi_like_schema(), Vec::new())
            .expect("fresh engine");
        let cloned: Vec<_> = batches.to_vec();
        let started = Instant::now();
        for (time, batch) in cloned.into_iter().enumerate() {
            engine
                .update("bench", time as u64 + 1, batch)
                .expect("disk ingest succeeds");
        }
        let elapsed = started.elapsed();
        black_box(engine.table_stats("bench").ciphertext_count);
        elapsed
    })
}

/// Concurrent appender threads for the group-commit ingest benchmark.  The
/// point of group commit is amortization across concurrent `Π_Update`
/// streams: while one window's `fdatasync` is in flight, the other appenders
/// stage the next window.  A serial caller (one batch acknowledged before
/// the next is sent) cannot amortize anything under an ack-means-durable
/// contract, so the benchmark drives one shared table from several threads —
/// the same shape as `dpsync-serve` hosting concurrent sessions.  More
/// appenders means more batches share each `fdatasync` window, and sizing
/// the pool at *twice* [`GROUP_INGEST_WINDOW`] double-buffers the log: one
/// window's sync is in flight while the other half of the pool runs the
/// engine and stages the next window, so neither the disk nor the (single)
/// CPU sits idle waiting for the other.
const GROUP_INGEST_APPENDERS: usize = 64;

/// Window batch cap for the group-commit ingest benchmark (see
/// [`GROUP_INGEST_APPENDERS`] for why it is half the appender pool).
const GROUP_INGEST_WINDOW: u64 = 32;

fn bench_pi_update_ingest_disk_group(scale: &SuiteScale, seed: u64) -> BenchResult {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let root = crate::experiments::config::ScratchDir::claim(
        crate::experiments::runner::disk_scratch_root()
            .join(format!("dpsync-perf-disk-group-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(root.path());
    let mut sample_index = 0u64;
    run_bench(
        "pi_update_ingest_disk_group",
        scale.samples,
        records,
        || {
            // A fresh group-commit segment log per sample, full durability:
            // every Π_Update still returns only once its batch is synced;
            // the syncs themselves are shared across the appender threads.
            let dir = root.path().join(format!("sample-{sample_index}"));
            sample_index += 1;
            let config = dpsync_edb::backend::SegmentLogConfig::new(&dir).with_group_commit(
                dpsync_edb::backend::GroupCommitConfig {
                    max_window_batches: GROUP_INGEST_WINDOW,
                    ..dpsync_edb::backend::GroupCommitConfig::default()
                },
            );
            let backend = dpsync_edb::BackendConfig::SegmentLog(config)
                .build()
                .expect("scratch dir is creatable");
            let engine = ObliDbEngine::with_backend(&master, backend).expect("fresh log opens");
            engine
                .setup("bench", taxi_like_schema(), Vec::new())
                .expect("fresh engine");
            // Pre-split the batches into one work list per appender, clones
            // and all, outside the timed region.
            let mut work: Vec<Vec<_>> = (0..GROUP_INGEST_APPENDERS).map(|_| Vec::new()).collect();
            for (i, batch) in batches.iter().enumerate() {
                work[i % GROUP_INGEST_APPENDERS].push((i as u64 + 1, batch.clone()));
            }
            let engine = &engine;
            let started = Instant::now();
            std::thread::scope(|scope| {
                for list in work {
                    scope.spawn(move || {
                        for (time, batch) in list {
                            engine
                                .update("bench", time, batch)
                                .expect("disk ingest succeeds");
                        }
                    });
                }
            });
            let elapsed = started.elapsed();
            black_box(engine.table_stats("bench").ciphertext_count);
            elapsed
        },
    )
}

/// Socket fan-in for the reactor ingest benchmark: a scaled-down `exp_c10k`
/// shape (real TCP connections, multiplexed sessions, the full frame/wire
/// codec and worker pool) small enough to run per sample.
const REACTOR_CONNECTIONS: usize = 8;

/// Logical owner sessions per connection for the reactor ingest benchmark.
const REACTOR_SESSIONS_PER_CONN: usize = 4;

fn bench_reactor_ingest(scale: &SuiteScale, seed: u64) -> BenchResult {
    use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection, MuxSession};
    use std::sync::Arc;

    let master = MasterKey::from_bytes([0xD5; 32]);
    let sessions_total = REACTOR_CONNECTIONS * REACTOR_SESSIONS_PER_CONN;
    // The same pre-encrypted Π_Update workload as the in-process ingest
    // benches, dealt round-robin across the sessions so the comparison
    // `pi_update_ingest` → `reactor_ingest` isolates the service tier's
    // cost: framing, CRC, readiness scheduling and worker-pool handoff.
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let mut per_session: Vec<Vec<(u64, Vec<dpsync_crypto::EncryptedRecord>)>> =
        (0..sessions_total).map(|_| Vec::new()).collect();
    for (i, batch) in batches.iter().enumerate() {
        per_session[i % sessions_total].push((i as u64 + 1, batch.clone()));
    }
    run_bench("reactor_ingest", scale.samples, records, || {
        // Fresh server, connections and tables per sample, outside the
        // timed region; the timed region is pure multiplexed ingest.
        let engine: Arc<dyn SecureOutsourcedDatabase> = Arc::new(ObliDbEngine::new(&master));
        let server =
            EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(engine)).expect("binds");
        let conns: Vec<MuxConnection> = (0..REACTOR_CONNECTIONS)
            .map(|_| MuxConnection::connect(server.local_addr()).expect("connects"))
            .collect();
        let sessions: Vec<Vec<MuxSession>> = conns
            .iter()
            .map(|conn| {
                (0..REACTOR_SESSIONS_PER_CONN)
                    .map(|_| conn.open_shared().expect("session opens"))
                    .collect()
            })
            .collect();
        for (c, conn_sessions) in sessions.iter().enumerate() {
            for (m, session) in conn_sessions.iter().enumerate() {
                session
                    .setup(
                        &format!("bench_{}", c * REACTOR_SESSIONS_PER_CONN + m),
                        taxi_like_schema(),
                        Vec::new(),
                    )
                    .expect("fresh table");
            }
        }
        let per_session = &per_session;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (c, conn_sessions) in sessions.iter().enumerate() {
                scope.spawn(move || {
                    for (m, session) in conn_sessions.iter().enumerate() {
                        let index = c * REACTOR_SESSIONS_PER_CONN + m;
                        let table = format!("bench_{index}");
                        for (time, batch) in &per_session[index] {
                            session
                                .update(&table, *time, batch.clone())
                                .expect("framed ingest succeeds");
                        }
                    }
                });
            }
        });
        let elapsed = started.elapsed();
        black_box(server.handler_panics());
        assert_eq!(server.handler_panics(), 0);
        elapsed
    })
}

fn query_engine(scale: &SuiteScale, seed: u64) -> ObliDbEngine {
    let master = MasterKey::from_bytes([0xC4; 32]);
    let mut cryptor = RecordCryptor::new(&master);
    let rows = synthetic_rows(scale.query_rows, seed);
    let engine = ObliDbEngine::new(&master);
    engine
        .setup(
            "yellow",
            taxi_like_schema(),
            encrypt_batch(&mut cryptor, &rows, scale.query_rows / 4),
        )
        .expect("fresh engine");
    engine
}

fn bench_query(
    name: &str,
    scale: &SuiteScale,
    engine: &ObliDbEngine,
    query: &dpsync_edb::Query,
    seed: u64,
) -> BenchResult {
    let records =
        (scale.query_rows + scale.query_rows / 4) as u64 * scale.queries_per_sample as u64;
    run_bench(name, scale.samples, records, || {
        let mut rng = DpRng::seed_from_u64(seed);
        let started = Instant::now();
        for _ in 0..scale.queries_per_sample {
            black_box(engine.query(query, &mut rng).expect("query succeeds"));
        }
        started.elapsed()
    })
}

/// Times `Π_Query` served from a registered materialized view.  The records
/// divisor is the same as [`bench_query`]'s (rows the equivalent scan would
/// touch), so `query_q1_view` vs `query_q1_count` ns/op compare directly and
/// the view speedup is the throughput ratio.
fn bench_view_query(
    name: &str,
    scale: &SuiteScale,
    engine: &ObliDbEngine,
    view: &str,
    seed: u64,
) -> BenchResult {
    let records =
        (scale.query_rows + scale.query_rows / 4) as u64 * scale.queries_per_sample as u64;
    run_bench(name, scale.samples, records, || {
        let mut rng = DpRng::seed_from_u64(seed);
        let started = Instant::now();
        for _ in 0..scale.queries_per_sample {
            black_box(
                engine
                    .query_view(view, &mut rng)
                    .expect("view read succeeds"),
            );
        }
        started.elapsed()
    })
}

/// The same `Π_Update` workload as [`bench_pi_update_ingest`] but with both
/// paper views registered up front, so every ingested record (dummies
/// included) also flows through the incremental maintenance path.  The delta
/// against `pi_update_ingest` is the per-record maintenance overhead.
fn bench_view_maintenance(scale: &SuiteScale, seed: u64) -> BenchResult {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    run_bench("view_maintenance", scale.samples, records, || {
        let engine = ObliDbEngine::new(&master);
        engine
            .setup("bench", taxi_like_schema(), Vec::new())
            .expect("fresh engine");
        for def in [
            ViewDef::new("q1", paper_queries::q1_range_count("bench")).expect("supported shape"),
            ViewDef::new("q2", paper_queries::q2_group_by_count("bench")).expect("supported shape"),
        ] {
            engine.register_view(&def).expect("view registers");
        }
        let cloned: Vec<_> = batches.to_vec();
        let started = Instant::now();
        for (time, batch) in cloned.into_iter().enumerate() {
            engine
                .update("bench", time as u64 + 1, batch)
                .expect("ingest cannot fail");
        }
        let elapsed = started.elapsed();
        black_box(engine.table_stats("bench").ciphertext_count);
        elapsed
    })
}

/// Times a selective `Π_Query` served through a registered encrypted-multimap
/// index.  The records divisor matches [`bench_query`]'s (rows the equivalent
/// scan would touch), so `query_q1_emm_select` vs `query_q1_count` ns/op
/// compare directly and the index speedup is the throughput ratio.
fn bench_indexed_query(
    name: &str,
    scale: &SuiteScale,
    engine: &ObliDbEngine,
    index: &str,
    query: &dpsync_edb::Query,
    seed: u64,
) -> BenchResult {
    let records =
        (scale.query_rows + scale.query_rows / 4) as u64 * scale.queries_per_sample as u64;
    run_bench(name, scale.samples, records, || {
        let mut rng = DpRng::seed_from_u64(seed);
        let started = Instant::now();
        for _ in 0..scale.queries_per_sample {
            black_box(
                engine
                    .query_indexed(index, query, &mut rng)
                    .expect("indexed read succeeds"),
            );
        }
        started.elapsed()
    })
}

/// The same `Π_Update` workload as [`bench_pi_update_ingest`] but with two
/// selection indexes registered up front, so every ingested record (dummies
/// included — each inserts exactly one entry) also flows through the
/// encrypted-multimap maintenance path.  The delta against
/// `pi_update_ingest` is the per-record index-maintenance overhead.
fn bench_emm_maintenance(scale: &SuiteScale, seed: u64) -> BenchResult {
    let master = MasterKey::from_bytes([0xB3; 32]);
    let batches = ingest_batches(scale, seed, &master);
    let records: u64 = batches.iter().map(|b| b.len() as u64).sum();
    run_bench("emm_maintenance", scale.samples, records, || {
        let engine = ObliDbEngine::new(&master);
        engine
            .setup("bench", taxi_like_schema(), Vec::new())
            .expect("fresh engine");
        for (name, column) in [("emm_pickup", "pickup_id"), ("emm_dropoff", "dropoff_id")] {
            let def = IndexDef::new(name, "bench", column).expect("indexable column");
            engine.register_index(&def).expect("index registers");
        }
        let cloned: Vec<_> = batches.to_vec();
        let started = Instant::now();
        for (time, batch) in cloned.into_iter().enumerate() {
            engine
                .update("bench", time as u64 + 1, batch)
                .expect("ingest cannot fail");
        }
        let elapsed = started.elapsed();
        black_box(engine.table_stats("bench").ciphertext_count);
        elapsed
    })
}

fn bench_e2e_sync(scale: &SuiteScale, seed: u64) -> BenchResult {
    let spec = RunSpec {
        engine: EngineKind::ObliDb,
        strategy: StrategyKind::DpTimer,
        config: ExperimentConfig {
            scale: scale.e2e_scale,
            seed,
            ..Default::default()
        }
        .rescale(),
    };
    // Record count is deterministic given the seed; probe it once.
    let records = {
        let report = run_simulation(&spec);
        report
            .final_sizes()
            .map(|s| s.outsourced_records)
            .unwrap_or(1)
            .max(1)
    };
    run_bench("e2e_sync", scale.e2e_samples, records, || {
        let started = Instant::now();
        black_box(run_simulation(&spec).sync_count);
        started.elapsed()
    })
}

/// The sparse-tick scheduler end to end: a churned open-loop fleet
/// (`dpsync_workloads::scale`) driven through `Simulation::run_sparse` with
/// DP-Timer — the exact shape `exp_scale` runs at 10^5+ owners, scaled down
/// to a per-sample size.  Gating this pins the scheduler's per-wake cost
/// (heap churn, cursor advance, deferred setup) alongside the engine paths.
fn bench_sparse_tick_sim(scale: &SuiteScale, seed: u64) -> BenchResult {
    use dpsync_core::simulation::{Simulation, SimulationConfig};
    use dpsync_edb::query::Predicate;
    use dpsync_workloads::ScaleProfile;

    let master = MasterKey::from_bytes([0xE7; 32]);
    let mut profile = ScaleProfile::new(scale.sparse_owners, scale.sparse_horizon, seed);
    // Denser than the exp_scale default so the per-sample run has real work.
    profile.mean_rate = 0.02;
    let fleet = profile.generate();
    let steady = fleet
        .iter()
        .find(|w| w.join_time == 0)
        .expect("some owner joins at t=0");
    let sim = Simulation::new(SimulationConfig {
        query_interval: (profile.horizon / 4).max(1),
        size_sample_interval: (profile.horizon / 2).max(1),
        queries: vec![(
            "Q1".into(),
            dpsync_edb::Query::Count {
                table: steady.table.clone(),
                predicate: Some(Predicate::Between("reading".into(), 100.0, 400.0)),
            },
        )],
        seed,
    });
    let strategy = crate::experiments::config::StrategyParams::default();
    let run = |master: &MasterKey| {
        let engine = ObliDbEngine::new(master);
        sim.run_sparse(&fleet, profile.horizon, &engine, master, |_| {
            strategy.build(StrategyKind::DpTimer)
        })
        .expect("sparse run succeeds")
    };
    // The record count is deterministic given the seed; probe it once.
    let records = run(&master)
        .final_sizes()
        .map(|s| s.outsourced_records)
        .unwrap_or(1)
        .max(1);
    run_bench("sparse_tick_sim", scale.sparse_samples, records, || {
        let started = Instant::now();
        black_box(run(&master).sync_count);
        started.elapsed()
    })
}

/// Runs the full suite and returns the report.
pub fn run_suite(config: &SuiteConfig) -> BenchReport {
    let scale = SuiteScale::new(config.smoke);
    let seed = config.seed;
    let engine = query_engine(&scale, seed);
    // The view benchmarks read from the same loaded engine as the scan
    // benchmarks; registration backfills from the mirror once, here, outside
    // every timed region.
    for (name, query) in [
        ("q1", paper_queries::q1_range_count("yellow")),
        ("q2", paper_queries::q2_group_by_count("yellow")),
    ] {
        let def = ViewDef::new(name, query).expect("paper queries are view-supported");
        engine.register_view(&def).expect("view registers");
    }
    // The indexed-read benchmark probes the same loaded engine through an
    // EMM on Q1's predicate column; registration backfills once, here.
    engine
        .register_index(&IndexDef::new("emm_pickup", "yellow", "pickup_id").expect("valid index"))
        .expect("index registers");
    let results = vec![
        bench_crypto_encrypt(&scale, seed),
        bench_crypto_decrypt(&scale, seed),
        bench_crypto_decrypt_batch(&scale, seed),
        bench_dp_laplace(&scale, seed),
        bench_dp_svt(&scale, seed),
        bench_pi_update_ingest(&scale, seed),
        bench_pi_update_ingest_disk(&scale, seed),
        bench_pi_update_ingest_disk_group(&scale, seed),
        bench_reactor_ingest(&scale, seed),
        bench_query(
            "query_q1_count",
            &scale,
            &engine,
            &paper_queries::q1_range_count("yellow"),
            seed,
        ),
        bench_query(
            "query_q2_group_by",
            &scale,
            &engine,
            &paper_queries::q2_group_by_count("yellow"),
            seed,
        ),
        bench_view_query("query_q1_view", &scale, &engine, "q1", seed),
        bench_view_query("query_q2_view", &scale, &engine, "q2", seed),
        bench_indexed_query(
            "query_q1_emm_select",
            &scale,
            &engine,
            "emm_pickup",
            &paper_queries::q1_range_count("yellow"),
            seed,
        ),
        bench_view_maintenance(&scale, seed),
        bench_emm_maintenance(&scale, seed),
        bench_e2e_sync(&scale, seed),
        bench_sparse_tick_sim(&scale, seed),
    ];
    BenchReport {
        version: REPORT_VERSION,
        label: config.label.clone(),
        seed,
        smoke: config.smoke,
        workers: crate::pool::worker_count(usize::MAX) as u64,
        results,
    }
}

/// Sanitizes a label for use in a `BENCH_<label>.json` file name.
pub fn sanitize_label(raw: &str) -> String {
    let cleaned: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "local".into()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(results: Vec<(&str, f64)>) -> BenchReport {
        BenchReport {
            version: REPORT_VERSION,
            label: "test".into(),
            seed: 1,
            smoke: true,
            workers: 1,
            results: results
                .into_iter()
                .map(|(name, throughput)| BenchResult {
                    name: name.into(),
                    median_ns_per_op: 1e9 / throughput,
                    throughput_per_sec: throughput,
                    records_processed: 100,
                    samples: 3,
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let original = report(vec![("a", 1_000.0), ("b", 2_500_000.5)]);
        let text = original.to_json();
        let parsed = BenchReport::from_json(&text, "mem").unwrap();
        assert_eq!(parsed.label, "test");
        assert_eq!(parsed.results.len(), 2);
        assert!((parsed.results[1].throughput_per_sec - 2_500_000.5).abs() < 1e-6);
        assert_eq!(parsed.version, REPORT_VERSION);
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(Tolerance::parse("25%").unwrap().0, 0.25);
        assert_eq!(Tolerance::parse("0.1").unwrap().0, 0.1);
        assert_eq!(Tolerance::parse(" 10 % ").unwrap().0, 0.10);
        assert!(Tolerance::parse("abc").is_err());
        assert!(Tolerance::parse("-5%").is_err());
        let err = Tolerance::parse("nope").unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let baseline = report(vec![("ingest", 1_000.0), ("query", 500.0)]);
        let current = report(vec![("ingest", 700.0), ("query", 490.0)]);
        let cmp = compare(&baseline, &current, Tolerance(0.25));
        assert!(cmp.has_regressions());
        assert_eq!(cmp.regressions(), vec!["ingest"]);
        // 700 < 1000 * 0.75 regresses; 490 >= 500 * 0.75 passes.
        assert!(cmp.lines[0].regressed);
        assert!(!cmp.lines[1].regressed);
        assert!(cmp.lines[0].render().contains("REGRESSED"));
    }

    #[test]
    fn compare_passes_within_tolerance_and_on_improvement() {
        let baseline = report(vec![("ingest", 1_000.0)]);
        let faster = report(vec![("ingest", 1_900.0)]);
        let cmp = compare(&baseline, &faster, Tolerance(0.25));
        assert!(!cmp.has_regressions());
        assert!(cmp.lines[0].render().contains("+90.0%"));
    }

    #[test]
    fn compare_treats_missing_benchmark_as_regression() {
        let baseline = report(vec![("ingest", 1_000.0), ("gone", 10.0)]);
        let current = report(vec![("ingest", 1_000.0), ("brand_new", 42.0)]);
        let cmp = compare(&baseline, &current, Tolerance(0.25));
        assert!(cmp.has_regressions());
        assert_eq!(cmp.regressions(), vec!["gone"]);
        let rendered: Vec<String> = cmp.lines.iter().map(CompareLine::render).collect();
        assert!(rendered.iter().any(|l| l.contains("MISSING")));
        assert!(rendered.iter().any(|l| l.contains("new benchmark")));
    }

    #[test]
    fn malformed_reports_produce_readable_errors() {
        let err = BenchReport::from_json("{ not json", "bench/x.json").unwrap_err();
        assert!(matches!(err, PerfError::Json { .. }));
        assert!(err.to_string().contains("bench/x.json"));

        let err = BenchReport::from_json("{\"version\": 1}", "y.json").unwrap_err();
        assert!(matches!(err, PerfError::Schema { .. }));
        assert!(err.to_string().contains("label"));

        let err = BenchReport::from_json("{\"version\": 99}", "z.json").unwrap_err();
        assert!(err.to_string().contains("version 99"));

        let err = load_report("/nonexistent/definitely/missing.json").unwrap_err();
        assert!(matches!(err, PerfError::Io { .. }));
        assert!(err.to_string().contains("missing.json"));
    }

    #[test]
    fn label_sanitization() {
        assert_eq!(sanitize_label("abc123"), "abc123");
        assert_eq!(sanitize_label("../etc/passwd"), "..-etc-passwd");
        assert_eq!(sanitize_label(""), "local");
        assert_eq!(sanitize_label("v1.2-rc_3"), "v1.2-rc_3");
    }

    #[test]
    fn smoke_suite_produces_all_benchmarks() {
        // One real (tiny) run of the whole suite: every benchmark present,
        // every median positive and finite.
        let report = run_suite(&SuiteConfig {
            label: "unit".into(),
            seed: 7,
            smoke: true,
        });
        let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "crypto_encrypt",
            "crypto_decrypt",
            "crypto_decrypt_batch",
            "dp_laplace",
            "dp_svt",
            "pi_update_ingest",
            "pi_update_ingest_disk",
            "pi_update_ingest_disk_group",
            "reactor_ingest",
            "query_q1_count",
            "query_q2_group_by",
            "query_q1_view",
            "query_q2_view",
            "query_q1_emm_select",
            "view_maintenance",
            "emm_maintenance",
            "e2e_sync",
            "sparse_tick_sim",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for r in &report.results {
            assert!(
                r.median_ns_per_op.is_finite() && r.median_ns_per_op > 0.0,
                "{}: {}",
                r.name,
                r.median_ns_per_op
            );
            assert!(r.records_processed > 0);
        }
        assert!(report.smoke);
        // The table renderer covers every row.
        assert_eq!(report.to_table().len(), report.results.len());
    }
}
