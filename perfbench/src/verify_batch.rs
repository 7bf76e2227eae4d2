//! `verify_batch`: one caller verifies batches of hardware-block sets
//! with the batched replay kernel at `threads = 1`. Set-up captures
//! each paper app's reference trace once; an op builds a fresh
//! `ReplayEngine` from one app's trace (cloned outside the timer) and
//! verifies up to 16 distinct seeded sets in one `verify_batch_with`.
//! Apps rotate.
//!
//! Checks, outside the timed region: every lane equals the first op's
//! lane for the same set, and that one equals a direct
//! instruction-set simulation of the set.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use corepart::cache::hierarchy::Hierarchy;
use corepart::engine::Engine;
use corepart::ir::cluster::ClusterId;
use corepart::ir::lower::lower;
use corepart::ir::op::BlockId;
use corepart::ir::parser::parse;
use corepart::isa::simulator::{MemSink, SimConfig, SimError, Simulator};
use corepart::isa::trace::ReferenceTrace;
use corepart::prepare::PreparedApp;
use corepart::system::SystemConfig;
use corepart::verify::{BatchOptions, ReplayEngine, VerifiedRun};

use crate::cold_flow::{paper_apps, MIN_OPS};
use crate::trace::{overhead_ms, p50_over, self_p50s, Tracer};
use crate::util::{ms, peak_rss_mb, print_per_app, time_setup, Rng};
use crate::{Args, Report};

/// Widest batch per op.
const MAX_LANES: usize = 16;

/// Worker threads of the batched walk. One, not the automatic two of a
/// two-CPU host: the two-thread walk's lane groups meet at every
/// stretch shard, so one busy CPU elsewhere on the host cuts its rate
/// by about 37% (to the one-thread rate), while the one-thread walk
/// does not notice it (NOTES.md, "Threads").
const THREADS: usize = 1;

/// Trace captures (of all six apps) before timing; their median is
/// `setup_s`.
const SETUP_CAPTURES: usize = 3;

/// One app ready for replay: its prepared form, captured trace, and
/// the space of candidate sets its ops draw lanes from.
struct Captured {
    name: String,
    prepared: Arc<PreparedApp>,
    trace: ReferenceTrace,
    space: Vec<HashSet<BlockId>>,
}

/// Captures every paper app's reference trace (the set-up work).
fn capture(
    seed: u64,
    config: &SystemConfig,
) -> Result<Vec<(String, Arc<PreparedApp>, ReferenceTrace)>, String> {
    let mut out = Vec::new();
    for app in paper_apps(seed) {
        let lowered = parse(app.source)
            .and_then(|p| lower(&p))
            .map_err(|e| e.to_string())?;
        let engine = Engine::new(config.clone()).map_err(|e| e.to_string())?;
        let session = engine.session(&lowered, &app.workload);
        let prepared = session.prepared_arc().map_err(|e| e.to_string())?;
        let replay = session
            .replay_engine()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{}: trace capture overflowed its cap", lowered.name()))?;
        out.push((lowered.name().to_owned(), prepared, replay.trace().clone()));
    }
    Ok(out)
}

/// Every distinct hardware-block set made of one or two clusters of
/// the app's chain, in a fixed order. Ops draw their lanes from it; an
/// app with at most [`MAX_LANES`] such sets verifies all of them in
/// every op, so its per-op work does not depend on the draw.
fn set_space(prepared: &PreparedApp) -> Vec<HashSet<BlockId>> {
    let n = prepared.chain.len() as u32;
    let mut seen: HashSet<Vec<BlockId>> = HashSet::new();
    let mut space = Vec::new();
    for a in 0..n {
        for b in a..n {
            let mut blocks: Vec<BlockId> = [a, b]
                .iter()
                .flat_map(|&id| prepared.chain.cluster(ClusterId(id)).blocks.iter().copied())
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            if !blocks.is_empty() && seen.insert(blocks.clone()) {
                space.push(blocks.into_iter().collect());
            }
        }
    }
    space
}

/// `k` distinct indices into `0..n`, seeded (partial Fisher-Yates),
/// in ascending order: lane order decides how lanes split across the
/// walk's threads, so a fixed order keeps that split from varying.
fn draw(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = i + rng.below((n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

struct HierarchySink<'a>(&'a mut Hierarchy);

impl MemSink for HierarchySink<'_> {
    fn ifetch(&mut self, addr: u32) {
        self.0.ifetch(addr);
    }
    fn read(&mut self, addr: u32) {
        self.0.dread(addr);
    }
    fn write(&mut self, addr: u32) {
        self.0.dwrite(addr);
    }
}

/// Direct (non-replay) simulation of `prepared` with `hw` on the ASIC.
fn direct(
    prepared: &PreparedApp,
    config: &SystemConfig,
    hw: &HashSet<BlockId>,
) -> Result<VerifiedRun, SimError> {
    let mut hierarchy = Hierarchy::new(
        config.icache.clone(),
        config.dcache.clone(),
        &config.process,
        config.memory_bytes,
    );
    let mut sim =
        Simulator::with_energy_table(&prepared.prog, &prepared.app, config.energy_table.clone());
    for (name, data) in &prepared.workload.arrays {
        sim.set_array(name, data)?;
    }
    let stats = sim.run(
        &SimConfig::partitioned(config.max_cycles, hw.clone()),
        &mut HierarchySink(&mut hierarchy),
    )?;
    Ok(VerifiedRun {
        stats,
        report: hierarchy.report(),
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let config = SystemConfig::new();
    let mut report = Report::default();
    let mut captured = Vec::new();
    for _ in 0..SETUP_CAPTURES {
        let (out, secs) = time_setup(|| capture(args.seed, &config));
        captured = out?;
        report.timing.setup_s.push(secs);
    }
    let apps: Vec<Captured> = captured
        .into_iter()
        .map(|(name, prepared, trace)| {
            let space = set_space(&prepared);
            Captured {
                name,
                prepared,
                trace,
                space,
            }
        })
        .collect();
    let mut rng = Rng::new(args.seed, 0x5E75);

    // First result per (app, set); later lanes must reproduce it.
    let mut reference: HashMap<(usize, usize), Arc<VerifiedRun>> = HashMap::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut traced_ops = Vec::new();
    let mut op = 0u64;
    let started = Instant::now();
    for rotation in 0usize.. {
        let traced = args.trace && rotation % 2 == 0;
        tr.set_on(traced);
        for (a, app) in apps.iter().enumerate() {
            let picked = draw(&mut rng, app.space.len(), MAX_LANES);
            let sets: Vec<HashSet<BlockId>> =
                picked.iter().map(|&i| app.space[i].clone()).collect();
            let trace = app.trace.clone();
            let root = tr.begin_op(op);
            let t0 = Instant::now();
            let engine = tr.span("verify.build", || {
                ReplayEngine::new(&app.prepared, &config, trace)
            });
            let result = tr.span("verify.batch", || {
                engine.verify_batch_with(&config, &sets, BatchOptions::threaded(THREADS))
            });
            let op_ms = ms(t0.elapsed());
            tr.exit(root);
            tr.count("verify.lanes", sets.len() as f64);
            tr.count("verify.batch_shards", engine.batch_shards() as f64);
            tr.count("isa.trace_events", engine.trace().events() as f64);
            let ok = match result {
                Ok(lanes) => picked.iter().zip(lanes).all(|(&set, run)| {
                    let first = reference
                        .entry((a, set))
                        .or_insert_with(|| Arc::clone(&run));
                    **first == *run
                }),
                Err(e) => {
                    eprintln!("verify_batch: {}: op {op} failed: {e}", app.name);
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
    let names: Vec<&str> = apps.iter().map(|app| app.name.as_str()).collect();
    print_per_app("verify_batch", &names, &report.timing.op_ms);
    report.timing.peak_rss_mb = peak_rss_mb("self")?;

    report.checks_ok = true;
    for (a, app) in apps.iter().enumerate() {
        for (set, hw) in app.space.iter().enumerate() {
            let Some(replayed) = reference.get(&(a, set)) else {
                continue;
            };
            match direct(&app.prepared, &config, hw) {
                Ok(run) if run == **replayed => {}
                Ok(_) => {
                    eprintln!(
                        "verify_batch: {} set {set}: replay differs from direct simulation",
                        app.name
                    );
                    report.checks_ok = false;
                }
                Err(e) => {
                    eprintln!(
                        "verify_batch: {} set {set}: direct simulation failed: {e}",
                        app.name
                    );
                    report.checks_ok = false;
                }
            }
        }
    }

    if args.trace {
        let ops = &traced_ops;
        let batch = tr.total_ms("verify.batch");
        let lanes = tr.counts("verify.lanes");
        let events = tr.counts("isa.trace_events");
        let ns_per_lane_event = ops
            .iter()
            .map(|op| {
                let work =
                    lanes.get(op).copied().unwrap_or(0.0) * events.get(op).copied().unwrap_or(0.0);
                (
                    *op,
                    batch.get(op).copied().unwrap_or(0.0) * 1e6 / work.max(1.0),
                )
            })
            .collect();
        report.layers = self_p50s(
            tr,
            ops,
            &[
                ("verify.build_ms", "verify.build"),
                ("verify.batch_ms", "verify.batch"),
            ],
        );
        report.layers.extend([
            ("isa.trace_events", p50_over(ops, &events)),
            ("verify.lanes", p50_over(ops, &lanes)),
            (
                "verify.ns_per_lane_event",
                p50_over(ops, &ns_per_lane_event),
            ),
            (
                "verify.batch_shards",
                p50_over(ops, &tr.counts("verify.batch_shards")),
            ),
            overhead_ms(&traced_ms, &untraced_ms),
        ]);
    }
    Ok(report)
}
