//! `cold_flow`: one caller runs one paper app's whole Fig. 1 flow per
//! op on a fresh `Engine` at `threads = 1` — parse, lower, then
//! `Partitioner::run` (prepare, baseline simulation with trace capture,
//! search, the K=1 batched verify of the winner, finish), and the JSON
//! rendering. Apps rotate through the six Table-1 apps in whole
//! rotations.
//!
//! Untraced ops call the program's own `Partitioner::run`. Traced ops
//! run the same sequence split at its layer boundaries
//! ([`session_flow`]), so the tracing overhead covers the split too.
//!
//! Set-up (`setup_s`) is the program configuration plus the six apps'
//! seeded input arrays, repeated and reported as the median. One
//! untimed rotation then computes the per-app references and warms the
//! process; it is not set-up.
//!
//! Checks, outside the timed region: every op's Table-1 entry equals
//! the reference one of its app; at seed 1 the six entries equal
//! `tests/goldens/table1.json`; at every seed each verified winner
//! equals a direct instruction-set simulation of it (no replay).

use std::hint::black_box;
use std::time::Instant;

use corepart::engine::{Engine, Session};
use corepart::error::CorepartError;
use corepart::evaluate::evaluate_partition;
use corepart::ir::lower::lower;
use corepart::ir::parser::parse;
use corepart::json::{entry_to_json, outcome_to_json, table1_to_json};
use corepart::partition::{PartitionOutcome, Partitioner};
use corepart::prepare::Workload;
use corepart::report::{Table1, Table1Entry};
use corepart::system::SystemConfig;
use corepart::verify::BatchOptions;

use crate::trace::{overhead_ms, p50_over, self_p50s, Tracer};
use crate::util::{ms, peak_rss_mb, print_per_app, time_setup};
use crate::{Args, Report};

/// Golden Table-1 output of the six apps at input seed 1.
const GOLDEN: &str = "tests/goldens/table1.json";

/// Set-up repetitions; their median is `setup_s`.
const SETUP_REPS: usize = 1001;

/// At least this many ops per run, so p90 has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// One paper app with its seeded input arrays.
pub struct PaperApp {
    pub source: &'static str,
    pub workload: Workload,
}

/// The six Table-1 apps in paper order, inputs drawn for `seed`.
pub fn paper_apps(seed: u64) -> Vec<PaperApp> {
    corepart_workloads::all()
        .into_iter()
        .map(|w| PaperApp {
            source: w.source,
            workload: Workload::from_arrays(w.arrays(seed)),
        })
        .collect()
}

/// The session half of a cold flow — prepare, baseline, search, the
/// K=1 batched verify of the winner and finish, as `Partitioner::run`
/// sequences them, with its batch accounting — with a span around each
/// layer and the layer counters recorded.
pub fn session_flow(session: &Session, tr: &mut Tracer) -> Result<PartitionOutcome, CorepartError> {
    tr.span("prepare", || session.prepared().map(|_| ()))?;
    let baseline = tr.span("engine.baseline", || session.baseline())?;
    // Events count where the baseline was simulated, not where a
    // sibling session's was reused.
    if !session.stats().baseline_shared {
        let events = baseline.replay.as_ref().map_or(0, |r| r.trace().events());
        tr.count("isa.trace_events", events as f64);
    }
    let part = Partitioner::new(session)?;
    let cache = part.schedule_cache();
    let (hits, misses) = (cache.hits(), cache.misses());
    let phase = tr.span("partition.search", || part.search())?;
    tr.count("sched.cache_hits", (cache.hits() - hits) as f64);
    tr.count("sched.cache_misses", (cache.misses() - misses) as f64);
    let replay = part.replay_engine();
    let (batches, shards) = replay.map_or((0, 0), |r| (r.batches(), r.batch_shards()));
    let mut outcome = tr.span("verify.finish", || {
        if let (Some(best), Some(replay)) = (phase.best(), replay) {
            // Like `Partitioner::run`: a batch error is reproduced by
            // `finish` through the ordinary evaluation path.
            let _ = replay.verify_batch_with(
                part.config(),
                std::slice::from_ref(&part.hw_set_of(&best.partition)),
                BatchOptions::threaded(part.threads()),
            );
        }
        part.finish(phase)
    })?;
    if let Some(replay) = replay {
        outcome.search.batched_replays += (replay.batches() - batches) as usize;
        outcome.search.batch_shards += (replay.batch_shards() - shards) as usize;
    }
    tr.count("partition.estimated", outcome.search.estimated as f64);
    Ok(outcome)
}

/// One op: the whole cold flow of `app` on a fresh engine — through
/// `Partitioner::run` untraced, through [`session_flow`] traced.
fn flow(
    app: &PaperApp,
    config: &SystemConfig,
    tr: &mut Tracer,
) -> Result<(String, PartitionOutcome), CorepartError> {
    let lowered = tr.span("ir.frontend", || parse(app.source).and_then(|p| lower(&p)))?;
    let engine = Engine::new(config.clone())?;
    let session = engine.session(&lowered, &app.workload);
    let outcome = if tr.is_on() {
        session_flow(&session, tr)?
    } else {
        Partitioner::new(&session)?.run()?
    };
    let name = lowered.name().to_owned();
    black_box(tr.span("json.render", || outcome_to_json(&name, &outcome)));
    Ok((name, outcome))
}

/// The per-layer values of the session flow over `ops`, shared with
/// `corpus_gen`, which drives its entries through the same calls.
pub fn flow_layers(tr: &Tracer, ops: &[u64]) -> Vec<(&'static str, f64)> {
    let mut out = self_p50s(
        tr,
        ops,
        &[
            ("ir.frontend_ms", "ir.frontend"),
            ("prepare.ms", "prepare"),
            ("engine.baseline_ms", "engine.baseline"),
            ("partition.search_ms", "partition.search"),
            ("verify.finish_ms", "verify.finish"),
            ("json.render_ms", "json.render"),
        ],
    );
    let events = tr.counts("isa.trace_events");
    let baseline = tr.total_ms("engine.baseline");
    let ns_per_event = ops
        .iter()
        .filter_map(|op| {
            let n = events.get(op).copied().filter(|&n| n > 0.0)?;
            Some((*op, baseline.get(op).copied().unwrap_or(0.0) * 1e6 / n))
        })
        .collect();
    let hits = tr.counts("sched.cache_hits");
    let misses = tr.counts("sched.cache_misses");
    let (hit_sum, miss_sum): (f64, f64) = (hits.values().sum(), misses.values().sum());
    out.extend([
        ("isa.trace_events", p50_over(ops, &events)),
        ("engine.baseline_ns_per_event", p50_over(ops, &ns_per_event)),
        (
            "partition.estimated",
            p50_over(ops, &tr.counts("partition.estimated")),
        ),
        ("sched.cache_hits", p50_over(ops, &hits)),
        ("sched.cache_misses", p50_over(ops, &misses)),
        (
            "sched.cache_hit_ratio",
            if hit_sum + miss_sum > 0.0 {
                hit_sum / (hit_sum + miss_sum)
            } else {
                0.0
            },
        ),
    ]);
    out
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (inputs, secs) =
            time_setup(|| (SystemConfig::new().with_threads(1), paper_apps(args.seed)));
        report.timing.setup_s.push(secs);
        prepared = Some(inputs);
    }
    let (config, apps) = prepared.ok_or("no set-up")?;

    // One untimed rotation: the per-app references every timed op must
    // reproduce.
    let reference = apps
        .iter()
        .map(|app| flow(app, &config, tr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference flow failed: {e}"))?;
    let reference_json: Vec<String> = reference
        .iter()
        .map(|(name, outcome)| entry_to_json(&Table1Entry::from_outcome(name.clone(), outcome)))
        .collect();

    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut traced_ops = Vec::new();
    let mut op = 0u64;
    let started = Instant::now();
    for rotation in 0usize.. {
        // The traced run alternates traced and untraced rotations.
        let traced = args.trace && rotation % 2 == 0;
        tr.set_on(traced);
        for (app, expected) in apps.iter().zip(&reference_json) {
            let root = tr.begin_op(op);
            let t0 = Instant::now();
            let result = flow(app, &config, tr);
            let op_ms = ms(t0.elapsed());
            tr.exit(root);
            let ok = match &result {
                Ok((name, outcome)) => {
                    entry_to_json(&Table1Entry::from_outcome(name.clone(), outcome)) == *expected
                }
                Err(e) => {
                    eprintln!("cold_flow: op {op} failed: {e}");
                    false
                }
            };
            report.timing.record(op_ms, ok);
            if traced {
                traced_ms.push(op_ms);
                traced_ops.push(op);
            } else {
                untraced_ms.push(op_ms);
            }
            op += 1;
        }
        if started.elapsed().as_secs_f64() >= args.seconds && op as usize >= MIN_OPS {
            break;
        }
    }
    report.timing.wall_s = started.elapsed().as_secs_f64();
    tr.set_on(false);
    let names: Vec<&str> = reference.iter().map(|(name, _)| name.as_str()).collect();
    print_per_app("cold_flow", &names, &report.timing.op_ms);
    report.timing.peak_rss_mb = peak_rss_mb("self")?;

    report.checks_ok = check(args.seed, &apps, &config, &reference);
    if args.trace {
        report.layers = flow_layers(tr, &traced_ops);
        report.layers.push(overhead_ms(&traced_ms, &untraced_ms));
    }
    Ok(report)
}

/// The reference checks (golden table at seed 1, direct simulation of
/// every verified winner at every seed).
fn check(
    seed: u64,
    apps: &[PaperApp],
    config: &SystemConfig,
    reference: &[(String, PartitionOutcome)],
) -> bool {
    let mut ok = true;
    if seed == 1 {
        let mut table = Table1::new();
        for (name, outcome) in reference {
            table.push(Table1Entry::from_outcome(name.clone(), outcome));
        }
        let actual = table1_to_json(&table) + "\n";
        match std::fs::read_to_string(GOLDEN) {
            Ok(golden) if golden == actual => {}
            Ok(_) => {
                eprintln!("cold_flow: Table 1 differs from {GOLDEN}");
                ok = false;
            }
            Err(e) => {
                eprintln!("cold_flow: cannot read {GOLDEN}: {e}");
                ok = false;
            }
        }
    }
    for (app, (name, outcome)) in apps.iter().zip(reference) {
        let Some((partition, detail)) = &outcome.best else {
            continue;
        };
        let direct = (|| {
            let lowered = lower(&parse(app.source)?)?;
            let engine = Engine::new(config.clone())?;
            let session = engine.session(&lowered, &app.workload);
            let prepared = session.prepared()?;
            let stats = &session.baseline()?.stats;
            evaluate_partition(prepared, partition, stats, session.config())
        })();
        match direct {
            Ok(direct) if direct == *detail => {}
            Ok(_) => {
                eprintln!("cold_flow: {name}: verified winner differs from direct simulation");
                ok = false;
            }
            Err(e) => {
                eprintln!("cold_flow: {name}: direct simulation failed: {e}");
                ok = false;
            }
        }
    }
    ok
}
