//! The traced run: per-layer times and exact work counts.
//!
//! Spans are recorded from this file only, around the benchmark's calls
//! into each layer's public functions; the program's own observer stays
//! disabled. One traced request replays `DeepEye::recommend` step by step
//! (ingest, rules, the parallel node build, recognition when the workload
//! uses it, rank) under a `request` span with one child per layer, so the
//! request span's self time is the time outside every layer. Layers that
//! run inside those steps (parse, scan, features, factors, scores, the
//! ranker) and the other request types' layers (progressive, keyword) are
//! then timed on their own under a `layers` span.
//!
//! Every table also gets one untraced `recommend` from CSV bytes; its top-k
//! must match the traced replay's, and the pair gives the tracing overhead.

use crate::check::{check, digest};
use crate::output::{Metric, Outcome};
use crate::pipeline::{deepeye, request, train_ltr, train_recognizer, training_corpus, Models, Op};
use crate::proc::cpu_ms;
use crate::stats::median;
use crate::workload::{Input, Workload, K};
use deepeye_core::{
    build_nodes_parallel, build_nodes_serial_costed, build_nodes_serial_observed, compute_factors,
    partial_order_log_scores, rank_by_partial_order, rules, DeepEye, HybridRanker, KeywordQuery,
    NodeFeatures, ProgressiveSelector, VisNode,
};
use deepeye_data::csv::parse_records;
use deepeye_data::{table_from_csv_str, DataType};
use deepeye_obs::{CostCollector, Observer, Op as CostOp, SpanId, SpanRecord};
use deepeye_query::{execute_with, UdfRegistry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Exact work counts of one pass over a workload's tables. Two traced
/// runs with the same seed give identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub csv_rows: u64,
    pub csv_bytes: u64,
    /// Candidate queries from the rules (`rules.candidates`).
    pub candidates: u64,
    pub exec_failed: u64,
    pub rows_scanned: u64,
    pub group_probes: u64,
    pub agg_updates: u64,
    pub output_rows: u64,
    /// Built nodes with at least two marks, which reach rank.
    pub useful: u64,
    pub recognition_in: u64,
    pub recognition_kept: u64,
    /// Nodes the ranker orders (`ranking.nodes`).
    pub ranked: u64,
    pub leaves_pruned: u64,
    pub leaves_total: u64,
    pub shared_scans: u64,
}

/// What one pass measured outside the spans.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub counts: Counts,
    pub parallel_cpu_ms: f64,
    /// `(request span, untraced request ms)` per table.
    pub untraced: Vec<(SpanId, f64)>,
}

/// The traced run: train the models, then passes over the tables until
/// another pass would end after `seconds` (at least one).
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<(Outcome, String), String> {
    let obs = Observer::enabled();
    let (inputs, models) = {
        let _setup = obs.span("setup");
        let inputs = {
            let _s = obs.span("inputs");
            crate::workload::inputs(workload, seed)
        };
        let corpus = {
            let _s = obs.span("ml.corpus");
            training_corpus()
        };
        let recognizer = {
            let _s = obs.span("ml.recognizer_train");
            train_recognizer(&corpus)
        };
        let ltr = {
            let _s = obs.span("ml.ltr_train");
            train_ltr(&corpus)
        };
        (inputs, Models { recognizer, ltr })
    };
    let eye = deepeye(workload.trained().then_some(&models));

    let mut outcome = Outcome::default();
    let mut passes: Vec<(SpanId, Pass)> = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let span = obs.span("pass");
        let id = span.id().ok_or("observer disabled")?;
        let pass = layer_pass(
            &obs,
            &inputs,
            &eye,
            &models,
            workload.trained(),
            &mut outcome,
        )?;
        drop(span);
        if let Some((_, first)) = passes.first() {
            if first.counts != pass.counts {
                outcome.failures.push(format!(
                    "pass {}: work counts differ from the first pass",
                    passes.len() + 1
                ));
            }
        }
        passes.push((id, pass));
        if start.elapsed() + pass_start.elapsed() > std::time::Duration::from_secs(seconds) {
            break;
        }
    }

    let spans = obs.finished_spans();
    let trace = obs.chrome_trace_json();
    deepeye_obs::validate_chrome_trace(&trace)?;
    outcome.metrics = metrics(&spans, &passes)?;
    outcome.notes = self_time_report(&spans, &passes);
    Ok((outcome, trace))
}

/// One pass over `inputs`: per table an untraced request, the traced
/// replay, and the layers timed on their own.
pub fn layer_pass(
    obs: &Observer,
    inputs: &[Input],
    eye: &DeepEye,
    models: &Models,
    trained: bool,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let udfs = UdfRegistry::default();
    let mut pass = Pass::default();
    let c = &mut pass.counts;
    for input in inputs {
        c.requests += 1;
        outcome.attempted += 1;
        let clock = Instant::now();
        let (table, recs) = request(eye, Op::Recommend, input)?;
        let untraced_ms = clock.elapsed().as_secs_f64() * 1e3;
        let real = check(&table, &recs).map(|()| digest(&table, &recs));

        // The traced replay of `DeepEye::recommend`.
        let request_span = obs.span("request");
        let table = {
            let _s = obs.span("csv.table");
            table_from_csv_str(&input.name, &input.csv).map_err(|e| e.to_string())?
        };
        let queries = {
            let _s = obs.span("rules");
            rules::rule_based_queries(&table)
        };
        c.candidates += queries.len() as u64;
        let cpu_before = cpu_ms().ok_or("/proc/self/stat unreadable")?;
        let built = {
            let _s = obs.span("parallel");
            build_nodes_parallel(&table, queries, &udfs, false)
        };
        pass.parallel_cpu_ms += cpu_ms().ok_or("/proc/self/stat unreadable")? - cpu_before;
        c.useful += built.iter().filter(|n| n.data.series.len() >= 2).count() as u64;
        let built = if trained {
            c.recognition_in += built.len() as u64;
            let kept = {
                let _s = obs.span("recognition");
                models.recognizer.filter_good(built)
            };
            c.recognition_kept += kept.len() as u64;
            kept
        } else {
            built
        };
        let nodes: Vec<VisNode> = built
            .into_iter()
            .filter(|n| n.data.series.len() >= 2)
            .collect();
        let replay = {
            let _s = obs.span("deepeye.rank_nodes");
            eye.rank_nodes(nodes, K)
        };
        let request_id = request_span.id().ok_or("observer disabled")?;
        drop(request_span);
        pass.untraced.push((request_id, untraced_ms));
        match real {
            Ok(d) if d == digest(&table, &replay) => {}
            Ok(_) => outcome.failures.push(format!(
                "{}: traced replay's top-k differs from recommend's",
                input.name
            )),
            Err(e) => outcome.failures.push(format!("{}: {e}", input.name)),
        }

        // The layers on their own, in pipeline order.
        let _layers = obs.span("layers");
        {
            let _s = obs.span("csv.parse");
            parse_records(&input.csv, ',').map_err(|e| e.to_string())?;
        }
        c.csv_rows += table.row_count() as u64;
        c.csv_bytes += input.csv.len() as u64;
        let queries = rules::rule_based_queries(&table);
        let charts = {
            let _s = obs.span("exec.scan");
            queries
                .iter()
                .map(|q| execute_with(&table, q, &udfs).ok())
                .collect::<Vec<_>>()
        };
        c.exec_failed += charts.iter().filter(|r| r.is_none()).count() as u64;
        let x_types: Vec<DataType> = queries
            .iter()
            .map(|q| {
                table
                    .column_by_name(&q.x)
                    .map_or(DataType::Categorical, |col| col.data_type())
            })
            .collect();
        {
            let _s = obs.span("features");
            for (chart, x_type) in charts.iter().zip(&x_types) {
                if let Some(chart) = chart {
                    std::hint::black_box(NodeFeatures::from_chart(
                        chart,
                        table.row_count(),
                        *x_type,
                    ));
                }
            }
        }
        let costs = CostCollector::enabled();
        {
            let _s = obs.span("exec.costed");
            let disabled = Observer::disabled();
            build_nodes_serial_costed(
                &table,
                queries.clone(),
                &udfs,
                false,
                &disabled,
                None,
                &costs,
            );
        }
        let totals = costs.report().totals;
        c.rows_scanned += totals.get(CostOp::RowsScanned);
        c.group_probes += totals.get(CostOp::GroupProbes);
        c.agg_updates += totals.get(CostOp::AggUpdates);
        c.output_rows += totals.get(CostOp::OutputRows);
        let serial = {
            let _s = obs.span("parallel.serial");
            build_nodes_serial_observed(&table, queries, &udfs, false, &Observer::disabled(), None)
        };
        // Recognition is on the request path only when the workload is
        // trained; otherwise it is timed here and its verdicts unused.
        let to_rank = if trained {
            models.recognizer.filter_good(serial)
        } else {
            c.recognition_in += serial.len() as u64;
            let kept = {
                let _s = obs.span("recognition");
                models.recognizer.filter_good(serial.clone())
            };
            c.recognition_kept += kept.len() as u64;
            serial
        };
        let ranked: Vec<VisNode> = to_rank
            .into_iter()
            .filter(|n| n.data.series.len() >= 2)
            .collect();
        c.ranked += ranked.len() as u64;
        let factors = {
            let _s = obs.span("partial_order.factors");
            compute_factors(&ranked)
        };
        {
            let _s = obs.span("graph.scores");
            std::hint::black_box(partial_order_log_scores(&factors));
        }
        let order = {
            let _s = obs.span("ranking");
            if trained {
                HybridRanker::default().rank(&models.ltr, &ranked)
            } else {
                rank_by_partial_order(&ranked)
            }
        };
        let (_, stats) = {
            let _s = obs.span("progressive");
            ProgressiveSelector::new(&table, &udfs).top_k(K)
        };
        c.leaves_pruned += stats.leaves_pruned as u64;
        c.leaves_total += stats.leaves_total as u64;
        c.shared_scans += stats.shared_scans as u64;
        {
            let _s = obs.span("keyword.rerank");
            let query = KeywordQuery::parse(&input.keywords);
            std::hint::black_box(query.rerank(&ranked, &order));
        }
    }
    Ok(pass)
}

/// Per span name: total duration and self time (duration minus the
/// durations of its children), in nanoseconds, for the spans under each
/// pass span.
type SpanTotals = BTreeMap<&'static str, (u64, u64)>;

fn totals_by_pass(spans: &[SpanRecord]) -> HashMap<SpanId, SpanTotals> {
    let by_id: HashMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns: HashMap<SpanId, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    let pass_of = |mut i: usize| -> Option<SpanId> {
        loop {
            if spans[i].name == "pass" {
                return Some(spans[i].id);
            }
            i = *by_id.get(&spans[i].parent?)?;
        }
    };
    let mut out: HashMap<SpanId, SpanTotals> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(pass) = pass_of(i) {
            let self_ns = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let slot = out.entry(pass).or_default().entry(s.name).or_default();
            slot.0 += s.dur_ns;
            slot.1 += self_ns;
        }
    }
    out
}

/// Span names timed as per-layer metrics, with the metric each feeds
/// (mean self time per request, in ms).
const LAYER_TIMES: [(&str, &str); 14] = [
    ("csv.table", "csv.table_ms"),
    ("csv.parse", "csv.parse_ms"),
    ("rules", "rules.ms"),
    ("exec.scan", "exec.scan_ms"),
    ("features", "features.ms"),
    ("parallel", "parallel.ms"),
    ("parallel.serial", "parallel.serial_ms"),
    ("recognition", "recognition.ms"),
    ("partial_order.factors", "partial_order.factors_ms"),
    ("graph.scores", "graph.scores_ms"),
    ("ranking", "ranking.ms"),
    ("deepeye.rank_nodes", "deepeye.rank_nodes_ms"),
    ("progressive", "progressive.ms"),
    ("keyword.rerank", "keyword.rerank_ms"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics: times are medians over passes of each pass's
/// mean per request; counts are one pass's totals.
fn metrics(spans: &[SpanRecord], passes: &[(SpanId, Pass)]) -> Result<Vec<Metric>, String> {
    let totals = totals_by_pass(spans);
    let dur_of: HashMap<SpanId, u64> = spans.iter().map(|s| (s.id, s.dur_ns)).collect();
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (id, pass) in passes {
        let t = totals.get(id).ok_or("pass without spans")?;
        let self_ms = |name: &str| t.get(name).map_or(0, |v| v.1) as f64 / 1e6;
        let n = pass.counts.requests.max(1) as f64;
        let mut push = |name: &'static str, v: f64| per_pass.entry(name).or_default().push(v);
        for (span, metric) in LAYER_TIMES {
            push(metric, self_ms(span) / n);
        }
        push(
            "csv.mb_per_s",
            pass.counts.csv_bytes as f64 / 1e6 / (self_ms("csv.table") / 1e3),
        );
        push("parallel.cpu_ms", pass.parallel_cpu_ms / n);
        push(
            "parallel.speedup",
            self_ms("parallel.serial") / self_ms("parallel"),
        );
        let request = t.get("request").copied().unwrap_or((0, 0));
        push("trace.coverage", 1.0 - ratio(request.1, request.0));
        let overheads: Vec<f64> = pass
            .untraced
            .iter()
            .filter_map(|(id, untraced_ms)| Some(*dur_of.get(id)? as f64 / 1e6 / untraced_ms - 1.0))
            .collect();
        push("trace.overhead", median(&overheads).unwrap_or(f64::NAN));
    }
    let setup_s = |name: &str| -> f64 {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.dur_ns as f64 / 1e9)
    };
    let c = passes.first().ok_or("no pass ran")?.1.counts;
    let mut out: Vec<Metric> = Vec::new();
    let mut timed = |name: &'static str, unit: &'static str| {
        let v = per_pass
            .get(name)
            .and_then(|v| median(v))
            .unwrap_or(f64::NAN);
        out.push(Metric::new(name, v, unit));
    };
    for (_, metric) in LAYER_TIMES {
        timed(metric, "ms");
    }
    timed("csv.mb_per_s", "MB/s");
    timed("parallel.cpu_ms", "ms");
    timed("parallel.speedup", "ratio");
    timed("trace.coverage", "ratio");
    timed("trace.overhead", "ratio");
    out.extend([
        Metric::new("csv.rows", c.csv_rows as f64, "count"),
        Metric::new("rules.candidates", c.candidates as f64, "count"),
        Metric::new(
            "exec.failed_share",
            ratio(c.exec_failed, c.candidates),
            "ratio",
        ),
        Metric::new("exec.rows_scanned", c.rows_scanned as f64, "count"),
        Metric::new("exec.group_probes", c.group_probes as f64, "count"),
        Metric::new("exec.agg_updates", c.agg_updates as f64, "count"),
        Metric::new("exec.output_rows", c.output_rows as f64, "count"),
        Metric::new(
            "parallel.useful_share",
            ratio(c.useful, c.candidates),
            "ratio",
        ),
        Metric::new(
            "recognition.kept_share",
            ratio(c.recognition_kept, c.recognition_in),
            "ratio",
        ),
        Metric::new("ranking.nodes", c.ranked as f64, "count"),
        Metric::new(
            "progressive.pruned_share",
            ratio(c.leaves_pruned, c.leaves_total),
            "ratio",
        ),
        Metric::new("progressive.shared_scans", c.shared_scans as f64, "count"),
        Metric::new("ml.recognizer_train_s", setup_s("ml.recognizer_train"), "s"),
        Metric::new("ml.ltr_train_s", setup_s("ml.ltr_train"), "s"),
    ]);
    Ok(out)
}

/// Per-layer self time of the first pass, largest first, with each
/// request-path layer's share of the traced request time.
fn self_time_report(spans: &[SpanRecord], passes: &[(SpanId, Pass)]) -> Vec<String> {
    let Some((id, pass)) = passes.first() else {
        return Vec::new();
    };
    let totals = totals_by_pass(spans);
    let Some(t) = totals.get(id) else {
        return Vec::new();
    };
    let request_ns = t.get("request").map_or(0, |v| v.0);
    let requests: HashSet<SpanId> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.id)
        .collect();
    let on_path: HashSet<&str> = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| requests.contains(&p)))
        .map(|s| s.name)
        .collect();
    let mut rows: Vec<(&str, u64)> = t.iter().map(|(n, v)| (*n, v.1)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = vec![format!(
        "self time of pass 1 ({} requests; share of traced request time for request-path layers):",
        pass.counts.requests
    )];
    for (name, self_ns) in rows {
        let share = if name == "request" || on_path.contains(&name) {
            format!("{:5.1}%", 100.0 * ratio(self_ns, request_ns))
        } else {
            String::new()
        };
        out.push(format!(
            "  {:<24} {:>10.1} ms {share}",
            name,
            self_ns as f64 / 1e6
        ));
    }
    out
}
