//! `perfbench` — the end-to-end DP-Sync benchmark.
//!
//! ```text
//! perfbench --workload fleet-ingest|taxi-analytics|wire-durable
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs the workload's correctness gates on reduced inputs, then replays
//! full-size epochs (each generated from the seed and its index) until `S`
//! seconds have passed, with at least three epochs.  With `--trace 0` the
//! last stdout line is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` every epoch also runs a second time fully decorated, and the
//! JSON carries the per-layer metrics plus the tracing overhead.  The first
//! spans of the first traced epoch are written under `.bench_build/`.
//!
//! Exits 2 on a bad argument and 1 when a gate or an epoch check fails.

use perfbench::epoch::{run_epoch, DiskRun, EpochOptions, EpochRun, Instrument};
use perfbench::gates::{check_epoch, run_gates};
use perfbench::metrics::{end_to_end, per_layer, percentile, EpochE2e, Metric};
use perfbench::scenario::{epoch_seed, Scenario, Size, Workload};
use perfbench::trace::write_tsv;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewer epochs than this leave no median set-up time to report.
const MIN_EPOCHS: u64 = 3;

/// Spans written per run: the first this many of the first traced epoch
/// (a full fleet epoch records over a million).
const MAX_SPANS_WRITTEN: usize = 100_000;

/// Where the benchmark writes: segment logs and span files.
const OUT_DIR: &str = ".bench_build";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload fleet-ingest|taxi-analytics|wire-durable \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pairs = args.chunks(2);
    for pair in pairs.by_ref() {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_trace(args: &Args, run: &EpochRun) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(OUT_DIR).join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let spans = run.probe.spans();
    write_tsv(&spans[..spans.len().min(MAX_SPANS_WRITTEN)], &mut out)?;
    out.flush()?;
    Ok(path)
}

fn main() {
    let args = parse_args();
    // Segment logs go under the benchmark's own output directory unless the
    // caller chose a disk root.
    if std::env::var_os("DPSYNC_DISK_ROOT").is_none() {
        let root = std::env::current_dir()
            .expect("the working directory is readable")
            .join(OUT_DIR)
            .join("perfbench-scratch");
        std::fs::create_dir_all(&root).expect("the scratch root is creatable");
        std::env::set_var("DPSYNC_DISK_ROOT", root);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // The run directory must be dropped (and removed) before exiting.
    let code = run(&args, &DiskRun::new());
    std::process::exit(code);
}

/// Gates, epochs and the report; returns the exit code.
fn run(args: &Args, disk: &DiskRun) -> i32 {
    match run_gates(args.workload, args.seed, disk) {
        Ok(notes) => notes.iter().for_each(|n| println!("gate: {n}")),
        Err(e) => {
            eprintln!("FAILED correctness gate: {e}");
            return 1;
        }
    }

    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut e2e = Vec::new();
    let mut traced = Vec::new();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut epoch = 0u64;
    while epoch < MIN_EPOCHS || started.elapsed() < budget {
        let scenario = Scenario::generate(args.workload, epoch_seed(args.seed, epoch), Size::Full);
        let mut runs = vec![run_epoch(
            &scenario,
            EpochOptions::new(Instrument::Untraced),
            disk,
        )];
        if args.trace {
            runs.push(run_epoch(
                &scenario,
                EpochOptions::new(Instrument::Traced),
                disk,
            ));
        }
        for run in &runs {
            attempted += run.probe.attempted();
            failed += run.failures();
            if let Err(e) = check_epoch(&scenario, run) {
                eprintln!("FAILED epoch {epoch}: {e}");
                correct = false;
            }
        }
        let untraced = runs.remove(0);
        let figures = EpochE2e::of(&untraced);
        println!(
            "epoch {epoch}: {} owners, {} ticks, inputs {:016x}, digest {}, setup {:.3} s, \
             run {:.3} s, update p50/p99 {:.1}/{:.1} us, L1 {:.3}",
            scenario.fleet.len(),
            scenario.horizon,
            scenario.inputs_digest(),
            untraced
                .digest()
                .map_or("<aborted>".to_string(), |d| format!("{d:016x}")),
            figures.setup_s,
            untraced.probe.ns_at(untraced.end) as f64 / 1e9,
            percentile(&mut figures.update_ns.clone(), 0.50) as f64 / 1e3,
            percentile(&mut figures.update_ns.clone(), 0.99) as f64 / 1e3,
            figures.l1_error.unwrap_or(f64::NAN),
        );
        e2e.push(figures);
        if let Some(run) = runs.pop() {
            untraced_ns += untraced.probe.ns_at(untraced.end);
            traced_ns += run.probe.ns_at(run.end);
            traced.push(run);
        }
        epoch += 1;
    }

    let (metrics, [updates, queries]) = end_to_end(&e2e);
    let failed_op_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "end-to-end over {} epochs ({updates} updates, {queries} queries):",
        e2e.len()
    );
    for m in &metrics {
        println!("  {:<22} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<22} {:>16.4} ratio",
        "failed_op_ratio", failed_op_ratio
    );

    let reported = if args.trace {
        let overhead_pct =
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0;
        let layers = per_layer(&traced, overhead_pct);
        println!("per-layer over {} traced epochs:", traced.len());
        for m in &layers {
            println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
        }
        match write_trace(args, &traced[0]) {
            Ok(path) => println!("spans of the first traced epoch: {}", path.display()),
            Err(e) => eprintln!("could not write the span file: {e}"),
        }
        layers
    } else {
        metrics
    };
    println!("{}", json(correct, attempted, failed, &reported));
    i32::from(!correct)
}
