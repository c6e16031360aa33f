//! The end-to-end run, tracing off: set up, then a closed loop with one
//! client that sends each request only after the previous one returned.
//!
//! A pass visits every table of the workload once and sends it the three
//! request types in turn (recommend, progressive, search), as one user
//! exploring that table would. Pass `p` sends recommend and search to
//! draw `p` (modulo the draws) of the table; progressive, which costs
//! about a thirtieth of a recommend, goes to every draw of the table, so
//! its median rests on all of them. `--seconds` sets the number of passes
//! through the workload's nominal pass time, so every run — and the
//! parent and child of a change — sends the same requests, and a slow
//! moment on the machine cannot change how many samples the percentiles
//! rest on.

use crate::check::{check, digest, Digests, DEFAULT_SEED};
use crate::output::{Metric, Outcome};
use crate::pipeline::{request, setup, Op, Setup};
use crate::proc::{cpu_ms, peak_rss_mib};
use crate::stats::{median, tail};
use crate::workload::Workload;
use std::time::{Duration, Instant};

/// A run sets up at least `MIN_SETUPS` times and until it has spent
/// `SETUP_BUDGET`, at most `MAX_SETUPS` times; `setup_s` is the median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 15;
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Run `workload` for about `seconds` and measure the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready: Option<Setup> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && setup_s.len() < MAX_SETUPS)
    {
        // Free the previous set-up first so each one starts alike.
        drop(ready.take());
        let clock = Instant::now();
        ready = Some(setup(workload, seed));
        setup_s.push(clock.elapsed().as_secs_f64());
    }
    let ready = ready.ok_or("no set-up ran")?;
    let digests = match seed {
        DEFAULT_SEED => Some(Digests::kept(workload)?),
        _ => None,
    };
    // One untimed request lets allocator and page-cache warm-up finish.
    request(&ready.eye, Op::Recommend, &ready.draws[0][0])?;

    let tables = ready.draws[0].len();
    let mut latency_ms: [Vec<f64>; 3] = Default::default();
    let mut outcome = Outcome::default();
    let (mut busy, mut cpu) = (Duration::ZERO, 0.0);
    let passes = workload.passes(seconds);
    let draws = ready.draws.len();
    for pass in 0..passes {
        for table in 0..tables {
            for (slot, op) in Op::ALL.into_iter().enumerate() {
                let sent = match op {
                    Op::Progressive => draws,
                    Op::Recommend | Op::Search => 1,
                };
                for draw in (pass..pass + sent).map(|d| d % draws) {
                    let input = &ready.draws[draw][table];
                    outcome.attempted += 1;
                    let cpu_before = cpu_ms().ok_or("/proc/self/stat unreadable")?;
                    let clock = Instant::now();
                    let response = request(&ready.eye, op, input);
                    let elapsed = clock.elapsed();
                    cpu += cpu_ms().ok_or("/proc/self/stat unreadable")? - cpu_before;
                    busy += elapsed;
                    let verdict = response.and_then(|(table, recs)| {
                        check(&table, &recs)?;
                        match &digests {
                            Some(kept) => kept.verify(op, &input.key(), digest(&table, &recs)),
                            None => Ok(()),
                        }
                    });
                    match verdict {
                        Ok(()) => latency_ms[slot].push(elapsed.as_secs_f64() * 1e3),
                        Err(e) => outcome.failures.push(format!(
                            "request {} ({} on {}): {e}",
                            outcome.attempted,
                            op.name(),
                            input.key()
                        )),
                    }
                }
            }
        }
    }

    let completed = outcome.attempted - outcome.failures.len() as u64;
    let [recommend, progressive, search] = &latency_ms;
    let tail = tail(recommend, TAIL_BEYOND);
    let nan = f64::NAN;
    outcome.metrics = vec![
        Metric::new("latency_p50_ms", median(recommend).unwrap_or(nan), "ms"),
        // Too few requests for a tail leaves the slowest one.
        Metric::new(
            "latency_tail_ms",
            tail.map_or_else(
                || recommend.iter().copied().fold(nan, f64::max),
                |t| t.value,
            ),
            "ms",
        ),
        Metric::new(
            "requests_per_s",
            completed as f64 / busy.as_secs_f64(),
            "1/s",
        ),
        Metric::new("cpu_ms_per_request", cpu / completed as f64, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(nan), "MiB"),
        Metric::new("setup_s", median(&setup_s).unwrap_or(nan), "s"),
        Metric::new(
            "progressive_p50_ms",
            median(progressive).unwrap_or(nan),
            "ms",
        ),
        Metric::new("search_p50_ms", median(search).unwrap_or(nan), "ms"),
    ];
    outcome.notes = vec![
        match tail {
            Some(t) => format!(
                "latency_tail_ms is p{:.1} of {} recommend requests",
                t.percentile, t.samples
            ),
            None => format!(
                "latency_tail_ms is the slowest of {} recommend requests",
                recommend.len()
            ),
        },
        format!(
            "{passes} passes over {} tables in {draws} draws, {:.1} s in requests, {} set-ups",
            tables,
            busy.as_secs_f64(),
            setup_s.len()
        ),
    ];
    Ok(outcome)
}
