//! End-to-end and per-layer metrics derived from recorded epochs.

use crate::epoch::EpochRun;
use crate::trace::{self_times, Layer, SpanKind};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What the end-to-end metrics need from one untraced epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochE2e {
    /// Set-up seconds (probe creation to the first `on_tick`).
    pub setup_s: f64,
    /// Nanoseconds from the first `on_tick` to the end of the run.
    pub timed_ns: u64,
    /// Ciphertexts the owners sent during the timed part.
    pub records: u64,
    /// `Π_Update` latencies at the owners' handles, ns.
    pub update_ns: Vec<u64>,
    /// `Π_Query` latencies at the analyst's handle, ns.
    pub query_ns: Vec<u64>,
    /// Server ciphertext bytes per logical row received (`None` when the
    /// epoch aborted).
    pub bytes_per_row: Option<f64>,
    /// Mean L1 error of the released answers.
    pub l1_error: Option<f64>,
    /// Mean logical gap over the size samples.
    pub logical_gap: Option<f64>,
}

impl EpochE2e {
    /// Extracts the end-to-end figures of `run`.
    pub fn of(run: &EpochRun) -> Self {
        let first = run.probe.first_tick().map_or(0, |t| run.probe.ns_at(t));
        let end = run.probe.ns_at(run.end);
        let mut out = Self {
            setup_s: run.probe.setup_s(run.end),
            timed_ns: end.saturating_sub(first),
            ..Self::default()
        };
        for span in run.probe.spans() {
            match span.kind {
                SpanKind::ClientSetup if span.start_ns >= first => out.records += span.work,
                SpanKind::ClientUpdate => {
                    if span.start_ns >= first {
                        out.records += span.work;
                    }
                    out.update_ns.push(span.dur_ns());
                }
                SpanKind::ClientQuery => out.query_ns.push(span.dur_ns()),
                _ => {}
            }
        }
        if let Ok(report) = &run.report {
            out.bytes_per_row = report
                .final_sizes()
                .map(|last| last.outsourced_bytes as f64 / last.logical_records.max(1) as f64);
            out.l1_error = Some(report.mean_l1_error_all());
            out.logical_gap = Some(report.mean_logical_gap());
        }
        out
    }
}

/// The end-to-end metrics over the untraced epochs of one run, plus the
/// sample counts behind the update and query percentiles.
///
/// Every timing is taken per epoch — each epoch has over a thousand updates
/// and hundreds of queries, enough for a p90 — and reported as the
/// median over epochs, so one epoch disturbed by the host does not move the
/// result.  The report-derived figures are means over epochs, because they
/// vary with each epoch's seed rather than with the host.
pub fn end_to_end(epochs: &[EpochE2e]) -> (Vec<Metric>, [usize; 2]) {
    let per_epoch =
        |f: &dyn Fn(&EpochE2e) -> f64| -> f64 { median(&epochs.iter().map(f).collect::<Vec<_>>()) };
    let latency_us = |values: &[u64], q: f64| percentile(&mut values.to_vec(), q) as f64 / 1e3;
    let collect =
        |f: fn(&EpochE2e) -> Option<f64>| -> Vec<f64> { epochs.iter().filter_map(f).collect() };
    let counts = [
        epochs.iter().map(|e| e.update_ns.len()).sum(),
        epochs.iter().map(|e| e.query_ns.len()).sum(),
    ];
    let metrics = vec![
        metric("setup_s", "s", per_epoch(&|e| e.setup_s)),
        metric(
            "throughput_rec_per_s",
            "rec/s",
            per_epoch(&|e| e.records as f64 / (e.timed_ns.max(1) as f64 / 1e9)),
        ),
        metric(
            "update_p50_us",
            "us",
            per_epoch(&|e| latency_us(&e.update_ns, 0.50)),
        ),
        metric(
            "update_p90_us",
            "us",
            per_epoch(&|e| latency_us(&e.update_ns, 0.90)),
        ),
        metric(
            "query_p50_us",
            "us",
            per_epoch(&|e| latency_us(&e.query_ns, 0.50)),
        ),
        metric(
            "query_p90_us",
            "us",
            per_epoch(&|e| latency_us(&e.query_ns, 0.90)),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mib()),
        metric(
            "stored_bytes_per_row",
            "B",
            mean(&collect(|e| e.bytes_per_row)),
        ),
        metric("l1_error_mean", "count", mean(&collect(|e| e.l1_error))),
        metric(
            "logical_gap_mean",
            "rows",
            mean(&collect(|e| e.logical_gap)),
        ),
    ];
    (metrics, counts)
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer sums of one traced epoch.
#[derive(Debug, Default, Clone)]
struct LayerSums {
    on_tick_calls: f64,
    on_tick_ns: f64,
    next_wake_calls: f64,
    encrypt_ns: f64,
    encrypt_records: f64,
    setup_ns: f64,
    update_calls: f64,
    update_ns: f64,
    update_self_ns: f64,
    update_records: f64,
    query_calls: f64,
    query_ns: f64,
    touched_ns: f64,
    touched: f64,
    indexed_touched: f64,
    indexed_scan_rows: f64,
    register_ns: f64,
    append_calls: f64,
    append_ns: f64,
    append_bytes: f64,
    append_rows: f64,
    self_ns: [f64; 5],
    driver_ns: f64,
}

/// The per-layer metrics over the traced epochs of one run.
///
/// Counts and busy times are per epoch (the mean over the traced epochs);
/// latency percentiles pool every traced epoch's calls.
pub fn per_layer(runs: &[EpochRun], trace_overhead_pct: f64) -> Vec<Metric> {
    let mut sums = LayerSums::default();
    let mut net_update = Vec::new();
    let mut net_query = Vec::new();
    let mut count_us = Vec::new();
    let mut group_by_us = Vec::new();
    let mut join_us = Vec::new();
    let mut indexed_us = Vec::new();
    let mut view_us = Vec::new();
    let mut bytes_per_row = Vec::new();
    let (mut syncs, mut fetched, mut dummies) = (0f64, 0f64, 0f64);
    let (mut panics, mut reaped, mut peak_outbound) = (0u64, 0u64, 0u64);
    for run in runs {
        let spans = run.probe.spans();
        let selfs = self_times(&spans);
        let client_layer = run.probe.client_layer();
        let mut attributed = 0u64;
        let mut appended_bytes = 0u64;
        let mut appended_rows = 0u64;
        for (span, &self_ns) in spans.iter().zip(&selfs) {
            let dur = span.dur_ns() as f64;
            if let Some(layer) = span.kind.layer(client_layer) {
                sums.self_ns[layer as usize] += self_ns as f64;
                attributed += self_ns;
            }
            match span.kind {
                SpanKind::StrategyOnTick => {
                    sums.on_tick_calls += 1.0;
                    sums.on_tick_ns += dur;
                }
                SpanKind::StrategyNextWake => sums.next_wake_calls += 1.0,
                SpanKind::OwnerEncrypt => {
                    sums.encrypt_ns += dur;
                    sums.encrypt_records += span.work as f64;
                }
                SpanKind::ClientUpdate if client_layer.is_some() => net_update.push(self_ns),
                SpanKind::ClientQuery if client_layer.is_some() => net_query.push(self_ns),
                SpanKind::EngineSetup => sums.setup_ns += dur,
                SpanKind::EngineUpdate => {
                    sums.update_calls += 1.0;
                    sums.update_ns += dur;
                    sums.update_self_ns += self_ns as f64;
                    sums.update_records += span.work as f64;
                }
                SpanKind::EngineRegister => sums.register_ns += dur,
                SpanKind::BackendAppend => {
                    sums.append_calls += 1.0;
                    sums.append_ns += dur;
                    appended_bytes += span.work;
                    appended_rows += span.aux;
                }
                _ => {}
            }
            if span.kind.is_engine_query() {
                sums.query_calls += 1.0;
                sums.query_ns += dur;
                if span.kind != SpanKind::EngineQueryView {
                    sums.touched_ns += dur;
                    sums.touched += span.work as f64;
                }
                match span.kind {
                    SpanKind::EngineQueryCount => count_us.push(span.dur_ns()),
                    SpanKind::EngineQueryGroupBy => group_by_us.push(span.dur_ns()),
                    SpanKind::EngineQueryJoin => join_us.push(span.dur_ns()),
                    SpanKind::EngineQueryView => view_us.push(span.dur_ns()),
                    SpanKind::EngineQueryIndexed => {
                        indexed_us.push(span.dur_ns());
                        sums.indexed_touched += span.work as f64;
                        sums.indexed_scan_rows += span.aux as f64;
                    }
                    _ => {}
                }
            }
        }
        sums.append_bytes += appended_bytes as f64;
        sums.append_rows += appended_rows as f64;
        if appended_rows > 0 {
            bytes_per_row.push(appended_bytes as f64 / appended_rows as f64);
        }
        sums.driver_ns += run.probe.ns_at(run.end).saturating_sub(attributed) as f64;
        let d = &run.probe.decisions;
        syncs += d.syncs.load(std::sync::atomic::Ordering::Relaxed) as f64;
        fetched += d.fetched.load(std::sync::atomic::Ordering::Relaxed) as f64;
        dummies += d.dummies.load(std::sync::atomic::Ordering::Relaxed) as f64;
        panics += run.server.handler_panics;
        reaped += run.server.reaped_connections;
        peak_outbound = peak_outbound.max(run.server.peak_outbound_bytes);
    }
    let epochs = runs.len().max(1) as f64;
    let per_epoch = |v: f64| v / epochs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let us = |ns: u64| ns as f64 / 1e3;
    let s = |ns: f64| ns / 1e9 / epochs;
    let layer_s = |layer: Layer| s(sums.self_ns[layer as usize]);
    vec![
        metric(
            "strategy.on_tick.calls",
            "count",
            per_epoch(sums.on_tick_calls),
        ),
        metric(
            "strategy.on_tick.ns_per_call",
            "ns",
            ratio(sums.on_tick_ns, sums.on_tick_calls),
        ),
        metric(
            "strategy.sync_ratio",
            "ratio",
            ratio(syncs, sums.on_tick_calls),
        ),
        metric(
            "strategy.next_wake.calls",
            "count",
            per_epoch(sums.next_wake_calls),
        ),
        metric("strategy.self_s", "s", layer_s(Layer::Strategy)),
        metric("owner.encrypt.busy_s", "s", s(sums.encrypt_ns)),
        metric(
            "owner.encrypt.ns_per_record",
            "ns",
            ratio(sums.encrypt_ns, sums.encrypt_records),
        ),
        metric("owner.dummy_share", "ratio", ratio(dummies, fetched)),
        metric(
            "net.update.overhead_us_p50",
            "us",
            us(percentile(&mut net_update, 0.50)),
        ),
        metric(
            "net.update.overhead_us_p99",
            "us",
            us(percentile(&mut net_update, 0.99)),
        ),
        metric(
            "net.query.overhead_us_p50",
            "us",
            us(percentile(&mut net_query, 0.50)),
        ),
        metric("net.server.handler_panics", "count", panics as f64),
        metric("net.server.reaped_connections", "count", reaped as f64),
        metric("net.server.peak_outbound_bytes", "B", peak_outbound as f64),
        metric("net.self_s", "s", layer_s(Layer::Net)),
        metric("engine.setup.busy_s", "s", s(sums.setup_ns)),
        metric("engine.update.calls", "count", per_epoch(sums.update_calls)),
        metric("engine.update.busy_s", "s", s(sums.update_ns)),
        metric(
            "engine.update.ns_per_record",
            "ns",
            ratio(sums.update_ns, sums.update_records),
        ),
        metric("engine.update.self_s", "s", s(sums.update_self_ns)),
        metric("engine.query.calls", "count", per_epoch(sums.query_calls)),
        metric("engine.query.busy_s", "s", s(sums.query_ns)),
        metric(
            "engine.query.ns_per_touched_record",
            "ns",
            ratio(sums.touched_ns, sums.touched),
        ),
        metric(
            "engine.query.count.us_p50",
            "us",
            us(percentile(&mut count_us, 0.50)),
        ),
        metric(
            "engine.query.group_by.us_p50",
            "us",
            us(percentile(&mut group_by_us, 0.50)),
        ),
        metric(
            "engine.query.join.us_p50",
            "us",
            us(percentile(&mut join_us, 0.50)),
        ),
        metric(
            "engine.query_indexed.us_p50",
            "us",
            us(percentile(&mut indexed_us, 0.50)),
        ),
        metric(
            "engine.query_indexed.touched_per_scan_row",
            "ratio",
            ratio(sums.indexed_touched, sums.indexed_scan_rows),
        ),
        metric(
            "engine.query_view.us_p50",
            "us",
            us(percentile(&mut view_us, 0.50)),
        ),
        metric("engine.register.busy_s", "s", s(sums.register_ns)),
        metric("engine.self_s", "s", layer_s(Layer::Engine)),
        metric(
            "backend.append.calls",
            "count",
            per_epoch(sums.append_calls),
        ),
        metric("backend.append.busy_s", "s", s(sums.append_ns)),
        metric("backend.append.bytes", "B", per_epoch(sums.append_bytes)),
        metric("backend.bytes_per_row", "B", mean(&bytes_per_row)),
        metric("backend.self_s", "s", layer_s(Layer::Backend)),
        metric("driver.self_s", "s", s(sums.driver_ns)),
        metric("trace.overhead_pct", "%", trace_overhead_pct),
    ]
}
