//! `serve_zipf`: two closed-loop connections, one request in flight
//! each, against a `corepart serve` daemon run with its default
//! options (on an ephemeral port). Requests are a seeded Zipf mix of
//! partition/explore/verify over the six paper apps (the head) and
//! enough generated apps (the tail) to overflow the default 128 MiB
//! store, so the head is served warm while the tail is evicted and
//! recomputed.
//!
//! Set-up starts the daemon and prewarms it (every distinct request
//! once, then the head again so it is hot). The op count per run is
//! fixed by `--seconds` alone, so the admission and eviction work of a
//! run does not depend on how fast the daemon answers.
//!
//! Check, outside the timed region: every response's `result` equals
//! `serve::respond_fresh` on a fresh engine (a typed error equal to the
//! fresh one is a success).
//!
//! The traced run also answers the same lines in process through
//! `serve::handle_line` on an `ArtifactStore` warmed the same way, so
//! each op's round trip splits into handle time and wire time.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use corepart::json::{parse_json, result_field, JsonValue};
use corepart::prepare::{prepare, Workload};
use corepart::serve::{handle_line, respond_fresh, ComputeKind, ComputeRequest};
use corepart::store::{ArtifactStore, StoreOptions};
use corepart::system::SystemConfig;
use corepart_conform::corpus::gen_entry;

use crate::trace::{p50_over, Tracer};
use crate::util::{median, ms, peak_rss_mb, time_setup, Rng};
use crate::{Args, Report};

/// Client connections (= client threads), one request in flight each.
const CONNECTIONS: usize = 2;

/// Generated tail apps: at about 0.7 MB of store bytes each, enough to
/// overflow the default 128 MiB budget.
const TAIL_APPS: u64 = 320;

/// Zipf exponent over the ranked request items.
const ZIPF_S: f64 = 1.0;

/// Ops per second of `--seconds`: the op count is fixed per run, not
/// timed, at about the rate the daemon answers on a two-CPU host.
const OPS_PER_SECOND: f64 = 44.0;

/// Daemon start-ups (each with its prewarm) before timing; their
/// median is `setup_s`, and the last one serves the timed ops.
const SETUP_REPS: usize = 5;

/// How long a daemon may take to exit after `shutdown`.
const EXIT_WAIT: Duration = Duration::from_secs(20);

/// One distinct request of the mix.
struct Item {
    line: String,
    req: ComputeRequest,
}

/// The ranked items: the head (paper apps × three commands, in seeded
/// order), then one item per generated app with a seeded command.
fn items(seed: u64, config: &SystemConfig) -> Result<(Vec<Item>, usize), String> {
    let mut rng = Rng::new(seed, 0x5E2E);
    let kinds = [
        ComputeKind::Partition,
        ComputeKind::Explore,
        ComputeKind::Verify,
    ];
    let sets = config.resource_sets.len() as u64;
    let make =
        |source: String, arrays: Vec<(String, Vec<i64>)>, kind: ComputeKind, rng: &mut Rng| {
            let mut req = ComputeRequest::new(kind, &source);
            req.arrays = arrays;
            if kind == ComputeKind::Verify {
                let app = corepart::ir::parser::parse(&source)
                    .and_then(|p| corepart::ir::lower::lower(&p))
                    .map_err(|e| e.to_string())?;
                let prepared = prepare(app, Workload::from_arrays(req.arrays.clone()), config)
                    .map_err(|e| e.to_string())?;
                req.clusters = vec![rng.below(prepared.chain.len().max(1) as u64) as u32];
                req.set_index = rng.below(sets) as usize;
            }
            Ok::<Item, String>(Item {
                line: req.to_json(),
                req,
            })
        };
    let mut head = Vec::new();
    for w in corepart_workloads::all() {
        for kind in kinds {
            head.push(make(w.source.to_owned(), w.arrays(seed), kind, &mut rng)?);
        }
    }
    for i in (1..head.len()).rev() {
        head.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let head_len = head.len();
    let mut all = head;
    for index in 0..TAIL_APPS {
        let entry = gen_entry(seed, index).map_err(|e| e.to_string())?;
        let kind = kinds[rng.below(3) as usize];
        all.push(make(entry.source, entry.workload.arrays, kind, &mut rng)?);
    }
    Ok((all, head_len))
}

/// Each connection's op sequence: item indices drawn from the Zipf law.
fn schedule(seed: u64, n_items: usize, ops: usize) -> Vec<Vec<usize>> {
    let mut cdf = Vec::with_capacity(n_items);
    let mut total = 0.0;
    for rank in 1..=n_items {
        total += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut rng = Rng::new(seed, 0x21FF);
    let mut per_conn = vec![Vec::new(); CONNECTIONS];
    for op in 0..ops {
        let u = rng.unit() * total;
        let item = cdf.partition_point(|&c| c <= u).min(n_items - 1);
        per_conn[op % CONNECTIONS].push(item);
    }
    per_conn
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream
            .write_all(framed.as_bytes())
            .map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A running daemon child.
struct Daemon {
    child: Child,
    // Held open so the daemon can still print on its way out.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(corepart: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(corepart)
            .args(["serve", "--port", "0"])
            .env_remove("COREPART_THREADS")
            .env_remove("RAYON_NUM_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", corepart.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon has no stdout")?);
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report its address: {line:?}"));
        };
        let addr = addr.to_owned();
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Sends `shutdown`, closes `conns`, and waits for the child.
    fn stop(mut self, conns: Vec<Conn>) -> Result<(), String> {
        let asked = Conn::open(&self.addr).and_then(|mut c| c.ask("{\"cmd\":\"shutdown\"}"));
        drop(conns);
        let deadline = Instant::now() + EXIT_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked.map(|_| ()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path before `stop`: never leave the
        // daemon running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The prewarm sequence: every item once in reverse rank order (tail
/// first), then the head again so its artifacts are hot.
fn prewarm_order(n_items: usize, head_len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_items).rev().collect();
    order.extend((0..head_len).rev());
    order
}

/// Sends `lines` over `conns`, split round-robin, each connection
/// writing all its lines from a helper thread while this side reads
/// the answers.
fn pipelined(conns: &mut [Conn], lines: &[&str]) -> Result<(), String> {
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mine: Vec<&str> = lines.iter().skip(c).step_by(CONNECTIONS).copied().collect();
            let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
            let reader = &mut conn.reader;
            let count = mine.len();
            scope.spawn(move || {
                for line in mine {
                    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                        break;
                    }
                }
            });
            readers.push(scope.spawn(move || -> Result<(), String> {
                for _ in 0..count {
                    let mut line = String::new();
                    if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                        return Err("daemon closed the connection during prewarm".into());
                    }
                }
                Ok(())
            }));
        }
        for r in readers {
            r.join()
                .map_err(|_| "prewarm reader panicked".to_string())??;
        }
        Ok(())
    })
}

/// One measured op as the client saw it.
struct Sample {
    conn: usize,
    index: usize,
    item: usize,
    start: Instant,
    end: Instant,
    response: Result<String, String>,
}

/// Counters from the `stats` endpoint.
#[derive(Debug, Clone, Copy)]
struct StoreCounters {
    requests: f64,
    hits: f64,
    evictions: f64,
    bytes: f64,
}

fn store_counters(conn: &mut Conn) -> Result<StoreCounters, String> {
    let response = conn.ask("{\"cmd\":\"stats\"}")?;
    let v = parse_json(&response)?;
    let r = v.get("result").ok_or("stats response has no result")?;
    let num = |k: &str| {
        r.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("stats has no {k}"))
    };
    Ok(StoreCounters {
        requests: num("requests")?,
        hits: num("hits")?,
        evictions: num("evictions")?,
        bytes: num("bytes")?,
    })
}

/// Starts a daemon and prewarms it; returns it with open connections.
fn setup(corepart: &Path, items: &[Item], head_len: usize) -> Result<(Daemon, Vec<Conn>), String> {
    let daemon = Daemon::start(corepart)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let lines: Vec<&str> = prewarm_order(items.len(), head_len)
        .into_iter()
        .map(|i| items[i].line.as_str())
        .collect();
    pipelined(&mut conns, &lines)?;
    Ok((daemon, conns))
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Report, String> {
    let config = SystemConfig::new();
    let (items, head_len) = items(args.seed, &config)?;
    let ops = ((args.seconds * OPS_PER_SECOND).round() as usize).max(crate::cold_flow::MIN_OPS);
    let plan = schedule(args.seed, items.len(), ops);
    let mut report = Report::default();

    let mut running = None;
    for rep in 0..SETUP_REPS {
        let (started, secs) = time_setup(|| setup(&args.corepart, &items, head_len));
        let (daemon, conns) = started?;
        report.timing.setup_s.push(secs);
        if rep + 1 < SETUP_REPS {
            daemon.stop(conns)?;
        } else {
            running = Some((daemon, conns));
        }
    }
    let (daemon, mut conns) = running.ok_or("no daemon")?;
    let before = store_counters(&mut conns[0])?;

    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan)
            .enumerate()
            .map(|(c, (conn, seq))| {
                let items = &items;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(seq.len());
                    for (index, &item) in seq.iter().enumerate() {
                        let start = Instant::now();
                        let response = conn.ask(&items[item].line);
                        let end = Instant::now();
                        let failed = response.is_err();
                        out.push(Sample {
                            conn: c,
                            index,
                            item,
                            start,
                            end,
                            response,
                        });
                        if failed {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    report.timing.wall_s = samples
        .iter()
        .map(|s| s.end.duration_since(started).as_secs_f64())
        .fold(0.0, f64::max);
    let after = store_counters(&mut conns[0])?;
    report.timing.peak_rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.stop(conns)?;

    // Checks: each distinct item against a fresh engine.
    let mut fresh: HashMap<usize, String> = HashMap::new();
    for s in &samples {
        fresh
            .entry(s.item)
            .or_insert_with(|| respond_fresh(&config, &items[s.item].req));
    }
    report.checks_ok = true;
    for s in &samples {
        let ok = match &s.response {
            Ok(response) => same_answer(response, &fresh[&s.item]),
            Err(e) => {
                eprintln!("serve_zipf: conn {} op {}: {e}", s.conn, s.index);
                false
            }
        };
        if !ok && s.response.is_ok() {
            eprintln!(
                "serve_zipf: item {} answered differently from a fresh engine",
                s.item
            );
        }
        report.timing.record(ms(s.end.duration_since(s.start)), ok);
    }
    // Ops a broken connection never sent count as failed.
    let missing = (ops - samples.len()) as u64;
    report.timing.attempted += missing;
    report.timing.failed += missing;

    if args.trace {
        report.layers = trace_layers(tr, &samples, &items, head_len, &config, before, after)?;
    }
    eprintln!(
        "serve_zipf: {} ops over {} items ({} head), store hits {} of {} requests, {} evictions",
        samples.len(),
        items.len(),
        head_len,
        after.hits - before.hits,
        after.requests - before.requests,
        after.evictions - before.evictions
    );
    Ok(report)
}

/// A served answer matches the fresh one: equal `result` bytes, or the
/// identical (typed error) response.
fn same_answer(served: &str, fresh: &str) -> bool {
    match (result_field(served), result_field(fresh)) {
        (Some(a), Some(b)) => a == b,
        (None, None) => served == fresh,
        _ => false,
    }
}

/// The traced run's layers: round trip, in-process handle time, their
/// difference (the wire), the daemon-reported queue/compute split, and
/// the store counters over the timed ops.
fn trace_layers(
    tr: &mut Tracer,
    samples: &[Sample],
    items: &[Item],
    head_len: usize,
    config: &SystemConfig,
    before: StoreCounters,
    after: StoreCounters,
) -> Result<Vec<(&'static str, f64)>, String> {
    // The same lines through `handle_line` on an in-process store,
    // warmed the same way, in the order the ops were issued.
    let store =
        ArtifactStore::new(config.clone(), &StoreOptions::default()).map_err(|e| e.to_string())?;
    // Prewarm starts with the tail: until the first eviction, the
    // store's bytes over the apps admitted give the bytes per app.
    let mut per_app = None;
    for (n, i) in prewarm_order(items.len(), head_len).into_iter().enumerate() {
        handle_line(&store, &items[i].line);
        let stats = store.stats();
        if stats.evictions == 0 && i >= head_len {
            per_app = Some((n + 1, stats.bytes as f64 / (n + 1) as f64 / 1e6));
        }
    }
    if let Some((apps, mb)) = per_app {
        eprintln!("serve_zipf: {mb:.3} MB of store bytes per generated app ({apps} apps before the first eviction)");
    }
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| (s.index, s.conn));
    let mut handle_ms: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for s in &order {
        let t0 = Instant::now();
        let (response, _) = handle_line(&store, &items[s.item].line);
        handle_ms.insert((s.conn, s.index), ms(t0.elapsed()));
        std::hint::black_box(response);
    }

    let mut rtt = BTreeMap::new();
    let mut handle = BTreeMap::new();
    let mut wire = BTreeMap::new();
    let mut queue = BTreeMap::new();
    let mut compute = BTreeMap::new();
    let mut outside = BTreeMap::new();
    let mut ops = Vec::new();
    tr.set_on(true);
    for (op, s) in order.iter().enumerate() {
        let op = op as u64;
        let r = ms(s.end.duration_since(s.start));
        let h = handle_ms[&(s.conn, s.index)];
        tr.record_op(op, "serve.rtt", s.start, s.end);
        ops.push(op);
        rtt.insert(op, r);
        handle.insert(op, h);
        wire.insert(op, r - h);
        let stats = s
            .response
            .as_ref()
            .ok()
            .and_then(|r| parse_json(r).ok())
            .and_then(|v| v.get("stats").cloned());
        if let Some(stats) = stats {
            let nanos = |k: &str| stats.get(k).and_then(JsonValue::as_f64);
            if let (Some(q), Some(c)) = (nanos("queue_nanos"), nanos("compute_nanos")) {
                queue.insert(op, q / 1e6);
                compute.insert(op, c / 1e6);
                outside.insert(op, r - (q + c) / 1e6);
            }
        }
    }
    tr.set_on(false);
    let requests = after.requests - before.requests;
    Ok(vec![
        ("serve.rtt_ms", p50_over(&ops, &rtt)),
        ("serve.handle_ms", p50_over(&ops, &handle)),
        ("serve.wire_ms", p50_over(&ops, &wire)),
        (
            "serve.queue_ms",
            median(&queue.values().copied().collect::<Vec<_>>()),
        ),
        (
            "serve.compute_ms",
            median(&compute.values().copied().collect::<Vec<_>>()),
        ),
        // Outside every layer the daemon reports: round trip minus its
        // own queue and compute time.
        (
            "other_ms",
            median(&outside.values().copied().collect::<Vec<_>>()),
        ),
        (
            "store.hit_ratio",
            if requests > 0.0 {
                (after.hits - before.hits) / requests
            } else {
                0.0
            },
        ),
        ("store.evictions", after.evictions - before.evictions),
        ("store.bytes", after.bytes / (1u64 << 20) as f64),
        // The client loop is the same code in both modes and spans are
        // recorded from its timestamps afterwards, so there is no
        // tracing overhead to measure.
        ("trace.overhead_ms", 0.0),
    ])
}
