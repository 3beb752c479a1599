//! Benchmark entry point. Usage:
//!
//! ```text
//! ncbench --workload <vector_4m|halo3d_1024|host_zoo|jobmix>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the environment header, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Writes the full
//! result (header, per-round figures, notes) to `out/<workload>.json` in
//! this package's directory, and in traced runs the benchmark's spans to
//! `out/<workload>.spans.jsonl` beside it.

use std::path::PathBuf;
use std::process::ExitCode;

use ncbench::env::{header, pin_allocator};
use ncbench::json::Json;
use ncbench::runner::measure;
use ncbench::trace::spans_jsonl;
use ncbench::workloads::{from_seed, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if !pin_allocator() {
        eprintln!("ncbench: mallopt refused the pinned thresholds");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ncbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = from_seed(&args.workload, args.seed) else {
        eprintln!(
            "ncbench: unknown workload {} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = measure(bench.as_ref(), args.seconds, args.trace);
    let head = header(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        report.peak_threads,
    );
    println!("{head}");
    let doc = Json::obj([
        ("header", head),
        ("result", report.result_json()),
        (
            "notes",
            Json::Arr(report.notes.iter().map(Json::str).collect()),
        ),
        ("rounds", report.rounds_json()),
    ]);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{}.json", args.workload)),
            format!("{doc}\n"),
        )?;
        if args.trace {
            let spans = spans_jsonl(&report.spans());
            std::fs::write(dir.join(format!("{}.spans.jsonl", args.workload)), spans)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("ncbench: writing results: {e}");
    }
    for n in &report.notes {
        eprintln!("ncbench: {n}");
    }
    let Json::Obj(fields) = doc else {
        unreachable!()
    };
    println!("{}", fields[0].1);
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
