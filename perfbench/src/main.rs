//! `perfbench`: run one workload of the DeepEye benchmark.
//!
//! ```text
//! perfbench --workload tall|wide|session [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload W --write-digests
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it measures the per-layer metrics and writes the Chrome
//! trace to `perfbench/out/`. The report goes to stderr and the last line
//! of stdout is the result as one JSON object. `--write-digests` rewrites
//! `digests/<workload>.txt` from every draw of the default seed's tables.

use deepeye_perfbench::check::{check, digest, Digests, DEFAULT_SEED};
use deepeye_perfbench::pipeline::{request, setup, Op};
use deepeye_perfbench::workload::Workload;
use deepeye_perfbench::{e2e, layers};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Tall,
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
        write_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            args.write_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn write_digests(workload: Workload) -> Result<(), String> {
    let ready = setup(workload, DEFAULT_SEED);
    let mut kept = Digests::default();
    for input in ready.draws.iter().flatten() {
        for op in Op::ALL {
            let (table, recs) = request(&ready.eye, op, input)?;
            check(&table, &recs).map_err(|e| format!("{op:?} on {}: {e}", input.key()))?;
            kept.insert(op, &input.key(), digest(&table, &recs));
        }
    }
    let path = format!(
        "{}/digests/{}.txt",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    );
    std::fs::write(&path, kept.render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let result = if args.write_digests {
        write_digests(args.workload).map(|()| None)
    } else if args.trace {
        layers::run(args.workload, args.seed, args.seconds).and_then(|(outcome, trace)| {
            let dir = "perfbench/out";
            let path = format!("{dir}/trace-{name}-seed{}.json", args.seed);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, trace))
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace written to {path}");
            Ok(Some(outcome))
        })
    } else {
        e2e::run(args.workload, args.seed, args.seconds).map(Some)
    };
    match result {
        Ok(Some(outcome)) => {
            let mode = if args.trace {
                "per-layer"
            } else {
                "end-to-end"
            };
            eprint!(
                "{}",
                outcome.report(&format!("{name} seed {} ({mode})", args.seed))
            );
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
