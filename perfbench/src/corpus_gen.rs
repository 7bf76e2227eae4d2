//! `corpus_gen`: the real chunked corpus runner
//! (`corepart_conform::corpus::run_gen_corpus`) at `threads = 1`, with
//! its journal and TSV in a scratch directory. One op is one chunk of
//! generated apps under a per-op corpus seed derived from the workload
//! seed.
//!
//! Set-up (`setup_s`) is building the measured runner's options (the
//! program configuration), repeated and reported as the median. The
//! scratch directory is created before it and not timed: a directory
//! operation waits on the file system's journal, still busy with the
//! files a previous run wrote, and reads 3.4–5.9 µs for the same work.
//!
//! Check, outside the timed region: every op's TSV bytes equal the
//! same corpus seed run at `threads = 2` (compared by 64-bit FNV-1a
//! fingerprint). (In the traced run the TSV must equal the rows of the
//! per-entry calls instead.)
//!
//! The traced run times, per chunk, the runner at one thread, then
//! `gen_entry` and `evaluate_corpus_entry` per app, then drives the
//! same entries through the session calls `cold_flow` traces, so the
//! prepare/baseline/search/verify rows show the generated mix too.

use std::path::{Path, PathBuf};
use std::time::Instant;

use corepart::corpus::{evaluate_corpus_entry, fingerprint64, render_columnar, CorpusOptions};
use corepart::engine::Engine;
use corepart::system::SystemConfig;
use corepart_conform::corpus::{gen_entry, run_gen_corpus};

use crate::cold_flow::{flow_layers, session_flow, MIN_OPS};
use crate::trace::{overhead_ms, p50_over, Tracer};
use crate::util::{median, ms, peak_rss_mb, time_setup, Rng};
use crate::{Args, Report};

/// Generated apps per op (one journal chunk).
const CHUNK: u64 = 32;

/// Worker threads of the measured runner. One, not two: with one busy
/// CPU elsewhere on a two-CPU host the two-thread runner loses about
/// 36% of its rate, the one-thread runner nothing (NOTES.md,
/// "Threads").
const THREADS: usize = 1;

/// Worker threads of the reference run each measured chunk must match.
const CHECK_THREADS: usize = 2;

/// Set-up repetitions; their median is `setup_s`.
const SETUP_REPS: usize = 1001;

fn options(threads: usize) -> CorpusOptions {
    let mut options = CorpusOptions::new(SystemConfig::new());
    options.chunk = CHUNK as usize;
    options.threads = threads;
    options
}

/// The corpus seed of op `op`.
fn chunk_seed(seed: u64, op: u64) -> u64 {
    Rng::new(seed ^ op.wrapping_mul(0x2545_F491_4F6C_DD1D), 2).next_u64()
}

/// A chunk's journal and TSV paths. Every run gets fresh files: on
/// ext4, truncating and rewriting a file that still has unwritten
/// blocks forces a flush (`auto_da_alloc`, ~50 ms here), which a
/// reused path would add to every op.
struct ChunkFiles {
    journal: PathBuf,
    tsv: PathBuf,
}

impl ChunkFiles {
    fn new(dir: &Path, name: &str) -> ChunkFiles {
        ChunkFiles {
            journal: dir.join(format!("{name}.journal")),
            tsv: dir.join(format!("{name}.tsv")),
        }
    }

    /// Runs the chunk `corpus_seed` through the runner (the timed part).
    fn run(&self, corpus_seed: u64, options: CorpusOptions) -> Result<(), String> {
        run_gen_corpus(corpus_seed, CHUNK, options, &self.journal, &self.tsv, false)
            .map(|_| ())
            .map_err(|e| format!("corpus seed {corpus_seed}: {e}"))
    }

    /// Reads the TSV bytes and removes both files.
    fn take_tsv(self) -> Result<Vec<u8>, String> {
        let tsv = std::fs::read(&self.tsv).map_err(|e| format!("{}: {e}", self.tsv.display()));
        let _ = std::fs::remove_file(&self.tsv);
        let _ = std::fs::remove_file(&self.journal);
        tsv
    }
}

/// The traced run's op: the one-thread runner, the runner's two
/// per-entry calls, and the session layers, all on chunk `corpus_seed`.
fn traced_chunk(dir: &Path, op: u64, corpus_seed: u64, tr: &mut Tracer) -> Result<(), String> {
    let files = ChunkFiles::new(dir, &format!("traced-{op}"));
    tr.span("corpus.runner", || files.run(corpus_seed, options(1)))?;
    let tsv = files.take_tsv()?;
    let opts = options(1);
    let engine = Engine::new(opts.base.clone().with_threads(1)).map_err(|e| e.to_string())?;
    let mut entries = Vec::with_capacity(CHUNK as usize);
    let mut rows = Vec::with_capacity(CHUNK as usize);
    for index in 0..CHUNK {
        let entry = tr
            .span("corpus.gen", || gen_entry(corpus_seed, index))
            .map_err(|e| e.to_string())?;
        let (row, _) = tr
            .span("corpus.entry", || {
                evaluate_corpus_entry(&engine, &entry, &opts)
            })
            .map_err(|e| e.to_string())?;
        rows.push(row);
        entries.push(entry);
    }
    // The traced run's output check: the runner's TSV is exactly the
    // rows its per-entry calls give.
    if render_columnar(&rows).into_bytes() != tsv {
        return Err(format!(
            "corpus seed {corpus_seed}: TSV differs from the per-entry rows"
        ));
    }
    // The same entries once more, through the session calls one by one
    // (the sweep configurations `evaluate_corpus_entry` uses).
    let engine = Engine::new(opts.base.clone().with_threads(1)).map_err(|e| e.to_string())?;
    for entry in &entries {
        for &g in &opts.g_sweep {
            let config = opts
                .base
                .clone()
                .with_factors(opts.base.factor_f, g)
                .with_threads(1);
            let session = engine
                .session_with_config(&entry.app, &entry.workload, config)
                .map_err(|e| e.to_string())?;
            session_flow(&session, tr).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let dir: PathBuf = args
        .out_dir
        .join(format!("corpus_gen-{}", std::process::id()));
    let result = measure(args, tr, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(args: &Args, tr: &mut Tracer, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut measured = None;
    for _ in 0..SETUP_REPS {
        let (opts, secs) = time_setup(|| options(THREADS));
        report.timing.setup_s.push(secs);
        measured = Some(opts);
    }
    let measured = measured.ok_or("no set-up")?;

    // Each op's TSV is kept as a fingerprint, and the per-op records are
    // reserved up front: buffers the harness keeps growing between ops
    // would pin heap pages and add allocator noise to the peak RSS.
    let mut outputs: Vec<(u64, u64)> = Vec::with_capacity(1 << 14);
    report.timing.op_ms.reserve(1 << 14);
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut traced_ops = Vec::new();
    let started = Instant::now();
    for op in 0u64.. {
        let corpus_seed = chunk_seed(args.seed, op);
        let ok = if args.trace {
            // The traced run alternates traced and untraced ops.
            let traced = op % 2 == 0;
            tr.set_on(traced);
            let root = tr.begin_op(op);
            let t0 = Instant::now();
            let result = traced_chunk(dir, op, corpus_seed, tr);
            let op_ms = ms(t0.elapsed());
            tr.exit(root);
            if traced {
                traced_ms.push(op_ms);
                traced_ops.push(op);
            } else {
                untraced_ms.push(op_ms);
            }
            report.timing.op_ms.push(op_ms);
            result
                .map_err(|e| eprintln!("corpus_gen: op {op}: {e}"))
                .is_ok()
        } else {
            let files = ChunkFiles::new(dir, &format!("op-{op}"));
            let t0 = Instant::now();
            let result = files.run(corpus_seed, measured.clone());
            report.timing.op_ms.push(ms(t0.elapsed()));
            match result.and_then(|()| files.take_tsv()) {
                Ok(tsv) => {
                    outputs.push((corpus_seed, fingerprint64(&tsv)));
                    true
                }
                Err(e) => {
                    eprintln!("corpus_gen: op {op}: {e}");
                    false
                }
            }
        };
        report.timing.attempted += 1;
        report.timing.failed += u64::from(!ok);
        if started.elapsed().as_secs_f64() >= args.seconds && op as usize + 1 >= MIN_OPS {
            break;
        }
    }
    report.timing.wall_s = started.elapsed().as_secs_f64();
    tr.set_on(false);
    report.timing.peak_rss_mb = peak_rss_mb("self")?;

    // Every measured chunk must reproduce its TSV bytes at another
    // thread count.
    report.checks_ok = true;
    for (n, (corpus_seed, fingerprint)) in outputs.iter().enumerate() {
        let files = ChunkFiles::new(dir, &format!("check-{n}"));
        match files
            .run(*corpus_seed, options(CHECK_THREADS))
            .and_then(|()| files.take_tsv())
        {
            Ok(reference) if fingerprint64(&reference) == *fingerprint => {}
            Ok(_) => {
                eprintln!("corpus_gen: corpus seed {corpus_seed}: TSV differs from threads={CHECK_THREADS}");
                report.checks_ok = false;
            }
            Err(e) => {
                eprintln!("corpus_gen: reference run failed: {e}");
                report.checks_ok = false;
            }
        }
    }

    if args.trace {
        let ops = &traced_ops;
        let runner = tr.total_ms("corpus.runner");
        let gen = tr.total_ms("corpus.gen");
        let entry = tr.total_ms("corpus.entry");
        let residual = ops
            .iter()
            .map(|op| {
                let get =
                    |m: &std::collections::BTreeMap<u64, f64>| m.get(op).copied().unwrap_or(0.0);
                (*op, get(&runner) - get(&gen) - get(&entry))
            })
            .collect();
        report.layers = flow_layers(tr, ops);
        report.layers.extend([
            ("corpus.gen_ms", p50_over(ops, &gen)),
            ("corpus.entry_ms", p50_over(ops, &entry)),
            ("corpus.runner_ms", p50_over(ops, &residual)),
            overhead_ms(&traced_ms, &untraced_ms),
        ]);
        eprintln!(
            "corpus_gen: traced op = runner at 1 thread + per-entry calls + session layers \
             (median {:.2} ms); untraced op median {:.2} ms",
            median(&traced_ms),
            median(&untraced_ms)
        );
    }
    Ok(report)
}
