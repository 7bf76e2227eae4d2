//! corepart benchmark binary: runs one workload for a fixed time and
//! prints one JSON result line (the last line of standard output).
//!
//! ```text
//! corepart-perfbench --workload <cold_flow|corpus_gen|serve_zipf|verify_batch>
//!     --seed N --seconds S --trace <0|1> [--corepart PATH] [--out-dir DIR]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of the traced run, whose per-layer
//! table goes to standard error and whose spans are written to
//! `DIR/trace-<workload>-<seed>.jsonl`. Progress and check failures go
//! to standard error. `perfbench/run.py` builds and runs this binary.

mod cold_flow;
mod corpus_gen;
mod serve_zipf;
mod trace;
mod util;
mod verify_batch;

use std::path::PathBuf;

use trace::Tracer;
use util::Timing;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer its workload does not touch
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.frontend_ms", "ms"),
    ("prepare.ms", "ms"),
    ("engine.baseline_ms", "ms"),
    ("isa.trace_events", "count"),
    ("engine.baseline_ns_per_event", "ns"),
    ("partition.search_ms", "ms"),
    ("partition.estimated", "count"),
    ("sched.cache_hits", "count"),
    ("sched.cache_misses", "count"),
    ("sched.cache_hit_ratio", "ratio"),
    ("verify.finish_ms", "ms"),
    ("json.render_ms", "ms"),
    ("corpus.gen_ms", "ms"),
    ("corpus.entry_ms", "ms"),
    ("corpus.runner_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.bytes", "MiB"),
    ("verify.build_ms", "ms"),
    ("verify.batch_ms", "ms"),
    ("verify.lanes", "count"),
    ("verify.ns_per_lane_event", "ns"),
    ("verify.batch_shards", "count"),
    ("other_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corepart: PathBuf,
    pub out_dir: PathBuf,
}

/// What one workload run hands back: its timing record, the per-layer
/// values of a traced run, and whether every output check passed.
#[derive(Debug, Default)]
pub struct Report {
    pub timing: Timing,
    pub layers: Vec<(&'static str, f64)>,
    pub checks_ok: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        corepart: PathBuf::from("target/release/corepart"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--corepart" => args.corepart = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(report: &Report, trace: bool) -> String {
    let t = &report.timing;
    let metrics: Vec<(String, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name.to_owned(), value, unit)
            })
            .collect()
    } else {
        t.end_to_end()
    };
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.checks_ok && t.failed == 0 && t.attempted > 0,
        t.attempted,
        t.failed,
        rendered.join(",")
    )
}

/// The traced run's per-layer table, on standard error.
fn print_layer_table(workload: &str, report: &Report) {
    eprintln!("per-layer ({workload}, traced ops; p50 per op unless a count or ratio):");
    for &(name, unit) in PER_LAYER {
        if let Some(&(_, v)) = report.layers.iter().find(|(n, _)| *n == name) {
            eprintln!("  {name:<30} {v:>14.4} {unit}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let mut tracer = Tracer::new(false);
    let report = match args.workload.as_str() {
        "cold_flow" => cold_flow::run(&args, &mut tracer),
        "corpus_gen" => corpus_gen::run(&args, &mut tracer),
        "serve_zipf" => serve_zipf::run(&args, &mut tracer),
        "verify_batch" => verify_batch::run(&args, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        print_layer_table(&args.workload, &report);
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.spans_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", result_json(&report, args.trace));
}
