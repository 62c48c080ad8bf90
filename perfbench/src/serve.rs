//! `serve-mix`: an in-process `serve::Server` driven over HTTP.
//!
//! The server binds 127.0.0.1:0 with [`WORKERS`] workers, in-request
//! fan-out 1 (`VERIBUG_THREADS`) and a queue of [`QUEUE`], and loads the
//! fixture model from disk. [`CLIENTS`] closed-loop clients share one op
//! counter; each request is its own connection, as the server answers
//! `Connection: close`. Workers × fan-out = 2 = nproc, and the queue holds
//! every client's request, so no request is ever refused with 429.
//!
//! The mix repeats every [`PERIOD`] = 23 ops:
//! - 21 hot localizes from a hot set (three mutants per catalog case)
//!   that set-up pre-warms, so both design-cache lookups hit;
//! - 1 fresh localize: an op-list mutant whose golden and buggy sources
//!   carry a trailing `// perfbench op <k>` comment, so both lookups miss
//!   (parse, elaborate and compile, then written into the LRU);
//! - 1 `/v1/analyze` of a catalog case.
//!
//! The hit rate of its lookups, 42 of 44 (0.9545), is the design-cache
//! hit rate the repository's load test records in `BENCH_serve.json`
//! (504 hits, 24 misses). That is the only measured serve traffic the
//! repository has; the miss path keeps a share of its own through the
//! fresh op, and its layers are timed on their own in the traced run.
//!
//! Why: it is the only workload through HTTP, JSON, the worker pool and
//! the design cache, and it uses the cache both as reader and as writer.
//! Every localize body must equal `serve::api::render_report` of the
//! direct library call, and every cache header must match the schedule.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use serve::{Server, ServerConfig, ServerHandle};
use sim::CancelToken;
use veribug::localize::{self, LocalizeOptions};
use veribug::model::VeriBugModel;
use veribug::persist;

use crate::harness::{self, Outcome, Probe, Quality};
use crate::inputs::{self, derive, tag, Case, LocalizeInput};
use crate::spans::{self, Ledger};
use crate::{stats, Args};

pub const WORKERS: usize = 2;
pub const CLIENTS: usize = 2;
pub const QUEUE: usize = 8;
pub const CACHE_CAPACITY: usize = 64;
/// Set-up children: fewer than the other workloads'
/// [`crate::SETUP_CHILDREN`], as each binds a server and warms the 24
/// hot localizes (≈0.5–0.9 s).
const SETUP_CHILDREN: usize = 5;
/// Hot-set entries per catalog case.
const HOT_PER_CASE: usize = 3;
/// Campaign seed of the hot set, which is the same on every `--seed`. A
/// hot op's cost follows its mutant (how many runs fail, how far the
/// attention walk goes), and hot ops are 21 of every 23, so a hot set
/// drawn from the seed's list put the seed's latency wherever its few
/// mutants fell: with one per case, p50 over seeds 1–5 read 27.9–32.7 ms
/// in two clusters, and with three per case the tail still read 67–93 ms.
/// The seed sets the fresh requests and the order of everything.
const HOT_SEED: u64 = 0x407_5E7;
/// Ops after which the hot, fresh and analyze mix repeats.
const PERIOD: usize = 23;
/// Slots of a period that send a fresh localize and an analyze.
const FRESH_SLOT: usize = 0;
const ANALYZE_SLOT: usize = 11;
/// Requests per second at the nominal probe time; sets the op count of a
/// run (see [`harness::op_budget`]).
const NOMINAL_RATE: f64 = 52.0;

/// Share of a request's time that moves with the host probe (see
/// [`harness::at_nominal`]): fitted 0.71–0.80 over twenty runs. Less than
/// the single-caller workloads: a request also waits on the other
/// client's request, the socket and the round barrier.
const HOST_EXPONENT: f64 = 0.75;
/// The fewest ops of a timed phase: nine periods, which put the tail at
/// p95. A fresh op costs little more than a hot one (parse, elaborate and
/// compile of two small designs beside a ≈50 ms localize), so the tail
/// follows the hot set's design mix, which every period repeats.
const MIN_OPS: usize = 9 * PERIOD;
/// Ops the clients run between two probe samples; the server is idle
/// while the probe runs (see [`drive`]).
const ROUND: usize = PERIOD;
/// Ops per request pass of the traced run: six periods, six of them fresh.
const TRACED_OPS: usize = 6 * PERIOD;

/// What op `k` sends.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// List entry, untagged sources (cache hits).
    Hot(usize),
    /// List entry `.0`, tagged sources (cache misses).
    Fresh(usize),
    /// Catalog case.
    Analyze(usize),
}

/// The seeded request order over the localize op list, and the hot set.
///
/// Ops index one request list: the seed's op list, followed by the hot
/// set.
struct Schedule {
    order: Vec<usize>,
    hot: Vec<usize>,
    cases: usize,
}

impl Schedule {
    /// `list_len` op-list entries, then `hot_len` hot-set entries.
    fn new(seed: u64, list_len: usize, hot_len: usize, cases: usize) -> Self {
        let mut order: Vec<usize> = (0..list_len).collect();
        let mut state = derive(seed, tag::SERVE);
        for i in (1..order.len()).rev() {
            state = derive(state, i as u64);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        Schedule {
            order,
            hot: (list_len..list_len + hot_len).collect(),
            cases,
        }
    }

    fn hot(&self) -> &[usize] {
        &self.hot
    }

    fn kind(&self, k: usize) -> Kind {
        let round = k / PERIOD;
        match k % PERIOD {
            FRESH_SLOT => Kind::Fresh(self.order[round % self.order.len()]),
            ANALYZE_SLOT => Kind::Analyze(round % self.cases),
            _ => Kind::Hot(self.hot[k % self.hot.len()]),
        }
    }
}

/// The hot set: the first [`HOT_PER_CASE`] observable mutants of each
/// catalog case from the [`HOT_SEED`] campaigns, interleaved by case.
fn hot_set(cases: &[Case]) -> Result<Vec<LocalizeInput>, String> {
    let all = inputs::localize_list(HOT_SEED, cases)?;
    let mut taken = vec![0; cases.len()];
    let mut hot = Vec::new();
    for m in all {
        let ci = cases
            .iter()
            .position(|c| c.source == m.golden && c.target == m.target)
            .expect("op-list entries come from catalog cases");
        if taken[ci] < HOT_PER_CASE {
            taken[ci] += 1;
            hot.push(m);
        }
    }
    Ok(hot)
}

/// What the quality pass sends: every op-list entry once, fresh.
fn quality_kind(k: usize) -> Kind {
    Kind::Fresh(k)
}

fn tagged(source: &str, tag: usize) -> String {
    format!("{source}\n// perfbench op {tag}\n")
}

fn localize_body(golden: &str, buggy: &str, target: &str) -> String {
    let mut body = String::from("{\"golden\":");
    obs::json::write_str(&mut body, golden);
    body.push_str(",\"buggy\":");
    obs::json::write_str(&mut body, buggy);
    body.push_str(",\"target\":");
    obs::json::write_str(&mut body, target);
    body.push('}');
    body
}

/// Path and body of an op of kind `kind`, op index `k`. `tag_base`
/// shifts fresh tags so another pass over the same ops misses the cache
/// again.
fn request_for(
    kind: Kind,
    list: &[LocalizeInput],
    cases: &[Case],
    k: usize,
    tag_base: usize,
) -> (&'static str, String) {
    match kind {
        Kind::Hot(li) => {
            let m = &list[li];
            ("/v1/localize", localize_body(m.golden, &m.buggy, m.target))
        }
        Kind::Fresh(li) => {
            let m = &list[li];
            let t = tag_base + k;
            (
                "/v1/localize",
                localize_body(&tagged(m.golden, t), &tagged(&m.buggy, t), m.target),
            )
        }
        Kind::Analyze(ci) => {
            let mut body = String::from("{\"design\":");
            obs::json::write_str(&mut body, cases[ci].source);
            body.push_str(",\"target\":");
            obs::json::write_str(&mut body, cases[ci].target);
            body.push('}');
            ("/v1/analyze", body)
        }
    }
}

/// One response: status, `x-veribug-cache` header, body.
struct Response {
    status: u16,
    cache: String,
    body: String,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cache = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-veribug-cache")
                .then(|| value.trim().to_owned())
        })
        .unwrap_or_default();
    Ok(Response {
        status,
        cache,
        body: body.to_owned(),
    })
}

/// A running server and the thread its accept loop runs on.
struct Running {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| e.to_string())
    }
}

/// `Server::bind` plus warming the hot set: the service's work before its
/// first measured request. `hot` holds the hot set's request bodies.
fn start(model_path: &std::path::Path, hot: &[String]) -> Result<(Running, f64), String> {
    let t = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_capacity: QUEUE,
        cache_capacity: CACHE_CAPACITY,
        deadline: Duration::from_secs(60),
        model_path: Some(model_path.display().to_string()),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let handle = server.handle();
    let running = Running {
        handle: handle.clone(),
        thread: std::thread::spawn(move || server.run()),
    };
    for body in hot {
        match request(handle.addr(), "POST", "/v1/localize", body) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return Err(format!("warming answered {}", r.status)),
            Err(e) => return Err(format!("warming: {e}")),
        }
    }
    Ok((running, t.elapsed().as_secs_f64()))
}

fn hot_bodies(sched: &Schedule, list: &[LocalizeInput]) -> Vec<String> {
    sched
        .hot()
        .iter()
        .map(|&li| localize_body(list[li].golden, &list[li].buggy, list[li].target))
        .collect()
}

/// A set-up child: `args` are the model file and a file holding the hot
/// set's request bodies, one per line.
pub fn setup_child(args: &[String]) -> Result<(), String> {
    let [model, hot] = args else {
        return Err("set-up child needs the model and hot-set files".into());
    };
    let hot = std::fs::read_to_string(hot).map_err(|e| format!("{hot}: {e}"))?;
    let hot: Vec<String> = hot.lines().map(str::to_owned).collect();
    let mut server = None;
    harness::setup_child(|| {
        let (running, s) = start(std::path::Path::new(model), &hot)?;
        server = Some(running);
        Ok(s)
    })?;
    server.map_or(Ok(()), Running::stop)
}

/// One completed op.
struct Sample {
    k: usize,
    kind: Kind,
    lat_ms: f64,
    /// Mean of the probe samples taken just before and just after the
    /// op's round.
    probe_ms: f64,
    response: Option<Response>,
}

/// What one [`drive`] pass measured.
struct Driven {
    /// Samples ordered by op.
    samples: Vec<Sample>,
    /// Wall time minus the time spent probing.
    wall_s: f64,
    probe: Probe,
    /// Total probing time in milliseconds.
    probe_ms: f64,
    spans: Vec<spans::Span>,
}

/// Runs ops `0..ops` of kind `kind(k)` from [`CLIENTS`] closed-loop
/// clients, in rounds of [`ROUND`] ops. Between rounds both clients wait
/// at a barrier, and one of them takes a [`Probe`] sample while the other
/// waits and the server's workers are idle, so the probe shares the cores
/// with no program code; then both go on. An op's probe time is the mean
/// of the samples before and after its round.
fn drive(
    addr: SocketAddr,
    kind: &(dyn Fn(usize) -> Kind + Sync),
    list: &[LocalizeInput],
    cases: &[Case],
    ops: usize,
    tag_base: usize,
) -> Driven {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CLIENTS);
    let probe = Mutex::new((Probe::new(), Vec::<f64>::new()));
    let rounds = ops.div_ceil(ROUND);
    let take_probe = || {
        let mut p = probe.lock().expect("probe lock");
        let ms = p.0.sample();
        p.1.push(ms);
    };
    take_probe();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut client_spans = Vec::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next, barrier, take_probe) = (&next, &barrier, &take_probe);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for r in 0..rounds {
                        let end = ((r + 1) * ROUND).min(ops);
                        loop {
                            let k = next.load(Ordering::Relaxed);
                            if k >= end {
                                break;
                            }
                            if next
                                .compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
                                .is_err()
                            {
                                continue;
                            }
                            let kind = kind(k);
                            let (path, body) = request_for(kind, list, cases, k, tag_base);
                            let t = Instant::now();
                            let response = {
                                let _span = spans::span("serve.request", k as u64);
                                request(addr, "POST", path, &body).ok()
                            };
                            mine.push((r, k, kind, t.elapsed().as_secs_f64() * 1e3, response));
                        }
                        barrier.wait();
                        if c == 0 {
                            take_probe();
                        }
                        barrier.wait();
                    }
                    (mine, spans::take())
                })
            })
            .collect();
        for client in clients {
            let (mine, sp) = client.join().expect("client thread panicked");
            samples.extend(mine);
            client_spans.extend(sp);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (probe, round_ms) = probe.into_inner().expect("probe lock");
    // The first sample was taken before the clock started.
    let probe_ms: f64 = round_ms[1..].iter().sum();
    let mut samples: Vec<Sample> = samples
        .into_iter()
        .map(|(r, k, kind, lat_ms, response)| Sample {
            k,
            kind,
            lat_ms,
            probe_ms: (round_ms[r] + round_ms[r + 1]) / 2.0,
            response,
        })
        .collect();
    samples.sort_by_key(|s| s.k);
    Driven {
        samples,
        wall_s: elapsed - probe_ms / 1e3,
        probe,
        probe_ms,
        spans: client_spans,
    }
}

/// Statement names of the suspects in a `/v1/localize` body.
fn suspects_of(body: &str) -> Option<Vec<String>> {
    let doc = obs::json::parse(body).ok()?;
    match doc.get("suspects")? {
        obs::json::Json::Arr(items) => items
            .iter()
            .map(|s| s.get("stmt").and_then(|v| v.as_str()).map(str::to_owned))
            .collect(),
        _ => None,
    }
}

/// The direct library call on op-list entry `m`, rendered as serve does.
fn expected_body(model: &VeriBugModel, m: &LocalizeInput) -> Result<String, String> {
    crate::localize::op(model, m).map(|r| serve::api::render_report(&r))
}

/// Checks every sample against its kind; returns the number failed.
fn verify(
    samples: &[Sample],
    expected: &mut std::collections::BTreeMap<usize, String>,
    model: &VeriBugModel,
    list: &[LocalizeInput],
    out: &mut Outcome,
) -> usize {
    let mut failed = 0;
    let mut analyze: std::collections::BTreeMap<usize, &str> = Default::default();
    for s in samples {
        let Some(r) = s.response.as_ref().filter(|r| r.status == 200) else {
            failed += 1;
            continue;
        };
        match s.kind {
            Kind::Hot(li) | Kind::Fresh(li) => {
                let want = expected
                    .entry(li)
                    .or_insert_with(|| expected_body(model, &list[li]).unwrap_or_default());
                out.check(
                    r.body == *want,
                    &format!("op {} body equals the direct call", s.k),
                );
                let note = if matches!(s.kind, Kind::Hot(_)) {
                    "golden=hit,buggy=hit"
                } else {
                    "golden=miss,buggy=miss"
                };
                out.check(
                    r.cache == note,
                    &format!("op {} cache header {}", s.k, r.cache),
                );
            }
            Kind::Analyze(ci) => {
                let first = *analyze.entry(ci).or_insert(&r.body);
                out.check(
                    r.body == first && r.body.contains("\"slice\""),
                    &format!("op {} analyze body", s.k),
                );
            }
        }
    }
    failed
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cases = inputs::catalog_cases();
    let list = inputs::localize_list(args.seed, &cases)?;
    let list_len = list.len();
    let hot_set = hot_set(&cases)?;
    let sched = Schedule::new(args.seed, list_len, hot_set.len(), cases.len());
    // Ops index this request list: the op list, then the hot set.
    let list: Vec<LocalizeInput> = list.into_iter().chain(hot_set).collect();
    let (fixture, holdout_acc) = inputs::fixture_model()?;
    let hot = hot_bodies(&sched, &list);
    let path = inputs::work_file("fixture.model")?;
    let hot_path = inputs::work_file("hot-set")?;
    let written = persist::save(&fixture, &path)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            std::fs::write(&hot_path, hot.join("\n"))
                .map_err(|e| format!("{}: {e}", hot_path.display()))
        });
    let weights = persist::content_hash_hex(&fixture);
    out.fact("weights_hash", format!("\"{weights}\""));
    out.fact(
        "threads",
        format!(
            "{{\"workers\":{WORKERS},\"in_request_par\":{},\"queue_capacity\":{QUEUE},\"clients\":{CLIENTS},\"cache_capacity\":{CACHE_CAPACITY}}}",
            crate::DEFAULT_FANOUT
        ),
    );
    out.fact("op_list", list_len.to_string());
    let result = written.and_then(|()| {
        if args.trace {
            start(&path, &hot).and_then(|(server, _)| {
                traced_phase(&server, &fixture, &sched, &list, &cases, out).and(server.stop())
            })
        } else {
            let setup_times = harness::setup_in_children(
                &args.workload,
                &[&path.display().to_string(), &hot_path.display().to_string()],
                SETUP_CHILDREN,
            )?;
            let (server, _) = start(&path, &hot)?;
            untraced(
                args,
                list_len,
                server,
                setup_times,
                &fixture,
                holdout_acc,
                &weights,
                &sched,
                &list,
                &cases,
                out,
            )
        }
    });
    inputs::remove_work_file(&hot_path);
    inputs::remove_work_file(&path);
    result
}

#[allow(clippy::too_many_arguments)]
fn untraced(
    args: &Args,
    list_len: usize,
    server: Running,
    setup_times: harness::SetupTimes,
    fixture: &VeriBugModel,
    holdout_acc: f64,
    weights: &str,
    sched: &Schedule,
    list: &[LocalizeInput],
    cases: &[Case],
    out: &mut Outcome,
) -> Result<(), String> {
    let addr = server.handle.addr();
    let health = request(addr, "GET", "/healthz", "").map_err(|e| e.to_string())?;
    out.check(
        health.status == 200
            && health
                .body
                .contains(&format!("\"weights_hash\":\"{weights}\"")),
        "the server loaded the fixture weights",
    );
    let ops = harness::op_budget(args.seconds, NOMINAL_RATE, MIN_OPS, PERIOD);
    let (tail_p, _) = stats::tail_percentile(ops).expect("ops ≥ 20");
    crate::alloc::reset_peak();
    let cpu0 = harness::cpu_seconds();
    let driven = drive(addr, &|k| sched.kind(k), list, cases, ops, 0);
    let timed = harness::Timed {
        lat_ms: driven.samples.iter().map(|s| s.lat_ms).collect(),
        wall_s: driven.wall_s,
        cpu_s: harness::cpu_seconds() - cpu0 - driven.probe_ms / 1e3,
        peak_heap: crate::alloc::peak(),
        failed: 0,
        probe: driven.probe,
        op_probe_ms: driven.samples.iter().map(|s| s.probe_ms).collect(),
    };
    // Quality: every op-list entry once, fresh, untimed.
    let scored = drive(addr, &quality_kind, list, cases, list_len, 1 << 32);
    server.stop()?;
    let mut expected = Default::default();
    let mut failed = verify(&driven.samples, &mut expected, fixture, list, out);
    failed += verify(&scored.samples, &mut expected, fixture, list, out);
    let mut quality = Quality::default();
    for s in &scored.samples {
        let Kind::Fresh(li) = s.kind else { continue };
        let suspects = s.response.as_ref().and_then(|r| suspects_of(&r.body));
        quality.push(
            suspects
                .and_then(|v| harness::rank_of(v.iter().map(String::as_str), &list[li].bug_stmt)),
        );
    }
    out.check(
        quality.len() == list_len,
        "every op-list entry was localized",
    );
    out.attempted = driven.samples.len() + scored.samples.len();
    out.failed = failed;
    harness::end_to_end(
        out,
        &setup_times,
        &timed,
        tail_p,
        &quality,
        holdout_acc,
        HOST_EXPONENT,
    );
    Ok(())
}

/// Traced run: the same op prefix sent untraced, traced, and untraced
/// again (fresh tags each pass, so misses stay misses), then each traced
/// localize op replayed through the library on the main thread, layer by
/// layer, for the request − direct split.
fn traced_phase(
    server: &Running,
    model: &VeriBugModel,
    sched: &Schedule,
    list: &[LocalizeInput],
    cases: &[Case],
    out: &mut Outcome,
) -> Result<(), String> {
    let addr = server.handle.addr();
    let ops = TRACED_OPS;
    let a = drive(addr, &|k| sched.kind(k), list, cases, ops, 1_000_000);
    spans::set_enabled(true);
    let t = drive(addr, &|k| sched.kind(k), list, cases, ops, 2_000_000);
    spans::set_enabled(false);
    let b = drive(addr, &|k| sched.kind(k), list, cases, ops, 3_000_000);
    let (wall_a, wall_t, wall_b) = (a.wall_s, t.wall_s, b.wall_s);
    let (a, traced, b, client_spans) = (a.samples, t.samples, b.samples, t.spans);
    let mut expected = Default::default();
    let mut failed = 0;
    for samples in [&a, &traced, &b] {
        failed += verify(samples, &mut expected, model, list, out);
    }
    out.attempted = a.len() + traced.len() + b.len();
    out.failed = failed;

    // Replay: the server's steps for each traced localize op, on a
    // benchmark-side cache warmed with the same hot set.
    let cache = serve::DesignCache::new(CACHE_CAPACITY);
    for &li in sched.hot() {
        cache.get(list[li].golden).map_err(|e| e.to_string())?;
        cache.get(&list[li].buggy).map_err(|e| e.to_string())?;
    }
    let mut faithful = true;
    spans::set_enabled(true);
    for s in &traced {
        if matches!(s.kind, Kind::Analyze(_)) {
            continue;
        }
        let op = s.k as u64;
        let (_, body) = request_for(s.kind, list, cases, s.k, 2_000_000);
        let _root = spans::span("replay", op);
        let req = spans::timed("serve.api_parse", op, || {
            serve::api::parse_localize(body.as_bytes())
        })
        .map_err(|e| e.message)?;
        if let Kind::Fresh(..) = s.kind {
            // Parse and elaborate alone, for the layers a miss pays.
            let parsed = spans::timed("verilog.parse", op, || {
                (verilog::parse(&req.golden), verilog::parse(&req.buggy))
            });
            if let (Ok(g), Ok(b)) = parsed {
                let _ = spans::timed("sim.elaborate", op, || {
                    (sim::Simulator::new(g.top()), sim::Simulator::new(b.top()))
                });
            }
        }
        let (mut g, mut b) = {
            let _c = spans::span("serve.cache_build", op);
            (
                cache.get(&req.golden).map_err(|e| e.to_string())?,
                cache.get(&req.buggy).map_err(|e| e.to_string())?,
            )
        };
        let report = spans::timed("serve.direct", op, || {
            localize::run_with_sims(
                model,
                &mut g.sim,
                &mut b.sim,
                &req.target,
                &LocalizeOptions::default(),
                &CancelToken::inert(),
            )
        })
        .map_err(|e| e.to_string())?;
        let rendered = spans::timed("serve.render", op, || serve::api::render_report(&report));
        faithful &= s.response.as_ref().is_some_and(|r| r.body == rendered);
    }
    spans::set_enabled(false);
    let replay = spans::take();

    // Per-op durations by span name.
    let mut per_op: std::collections::BTreeMap<(&str, u64), f64> = Default::default();
    for sp in client_spans.iter().chain(&replay) {
        *per_op.entry((sp.name, sp.op)).or_default() += sp.dur_ns() as f64 / 1e6;
    }
    let series = |name: &str, fresh_only: bool| -> Vec<f64> {
        let mut v: Vec<f64> = traced
            .iter()
            .filter(|s| match s.kind {
                Kind::Analyze(_) => false,
                Kind::Hot(_) => !fresh_only,
                Kind::Fresh(..) => true,
            })
            .filter_map(|s| per_op.get(&(name, s.k as u64)).copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let p50_tail = |v: &[f64]| -> (f64, f64) {
        if v.is_empty() {
            return (0.0, 0.0);
        }
        let tail = stats::tail_percentile(v.len()).map_or(100.0, |(p, _)| p);
        (stats::percentile(v, 50.0), stats::percentile(v, tail))
    };
    let request = series("serve.request", false);
    let direct = series("serve.direct", false);
    let mut overhead: Vec<f64> = traced
        .iter()
        .filter(|s| !matches!(s.kind, Kind::Analyze(_)))
        .filter_map(|s| {
            let k = s.k as u64;
            Some(per_op.get(&("serve.request", k))? - per_op.get(&("serve.direct", k))?)
        })
        .collect();
    overhead.sort_by(f64::total_cmp);
    let (req_p50, _) = p50_tail(&request);
    let (direct_p50, _) = p50_tail(&direct);
    let (over_p50, over_tail) = p50_tail(&overhead);
    let (parse_p50, parse_tail) = p50_tail(&series("serve.api_parse", false));
    let (render_p50, render_tail) = p50_tail(&series("serve.render", false));
    let (build_p50, build_tail) = p50_tail(&series("serve.cache_build", true));
    let localize_ops: Vec<&Sample> = traced
        .iter()
        .filter(|s| !matches!(s.kind, Kind::Analyze(_)))
        .collect();
    let hits: usize = localize_ops
        .iter()
        .filter_map(|s| s.response.as_ref())
        .map(|r| r.cache.matches("=hit").count())
        .sum();
    let fresh_ops = series("verilog.parse", true).len().max(1);
    let sum = |name: &str| series(name, true).iter().sum::<f64>();
    out.metric("serve.request_ms", req_p50, "ms");
    out.metric("serve.direct_ms", direct_p50, "ms");
    out.metric("serve.overhead_p50_ms", over_p50, "ms");
    out.metric("serve.overhead_tail_ms", over_tail, "ms");
    out.metric("serve.api_parse_p50_ms", parse_p50, "ms");
    out.metric("serve.api_parse_tail_ms", parse_tail, "ms");
    out.metric("serve.render_p50_ms", render_p50, "ms");
    out.metric("serve.render_tail_ms", render_tail, "ms");
    out.metric("serve.cache_build_p50_ms", build_p50, "ms");
    out.metric("serve.cache_build_tail_ms", build_tail, "ms");
    out.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (2 * localize_ops.len()).max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.rejected",
        failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric(
        "verilog.parse_ms",
        sum("verilog.parse") / fresh_ops as f64,
        "ms",
    );
    out.metric(
        "sim.elaborate_ms",
        sum("sim.elaborate") / fresh_ops as f64,
        "ms",
    );
    out.metric("op_ms", stats::median(&request), "ms");
    // Request time the replayed server steps do not cover: HTTP, queueing
    // and socket I/O.
    let mut ledger = Ledger::default();
    ledger.add(&replay);
    let covered: f64 = [
        "serve.api_parse",
        "serve.cache_build",
        "serve.direct",
        "serve.render",
    ]
    .iter()
    .map(|n| ledger.total_ns.get(n).copied().unwrap_or(0) as f64 / 1e6)
    .sum();
    let requested: f64 = request.iter().sum();
    out.metric(
        "unattributed_pct",
        100.0 * (requested - covered).max(0.0) / requested.max(1e-9),
        "%",
    );
    out.metric(
        "tracing_overhead_pct",
        100.0 * (wall_t / ((wall_a + wall_b) / 2.0) - 1.0),
        "%",
    );
    out.metric("traced.faithful", f64::from(u8::from(faithful)), "bool");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_period_has_the_load_tests_hit_rate() {
        let sched = Schedule::new(1, 10, 3, 3);
        assert_eq!(sched.hot, [10, 11, 12]);
        let kinds: Vec<Kind> = (0..PERIOD).map(|k| sched.kind(k)).collect();
        let count = |f: fn(&Kind) -> bool| kinds.iter().filter(|k| f(k)).count();
        let hot = count(|k| matches!(k, Kind::Hot(_)));
        let fresh = count(|k| matches!(k, Kind::Fresh(_)));
        assert_eq!(
            (hot, fresh, count(|k| matches!(k, Kind::Analyze(_)))),
            (21, 1, 1)
        );
        // Two lookups per localize; BENCH_serve.json: 504 hits, 24 misses.
        assert_eq!(2 * hot * 528, 504 * 2 * (hot + fresh));
        // Fresh ops walk the seeded order, one per period.
        assert_eq!(sched.kind(PERIOD), Kind::Fresh(sched.order[1]));
    }
}
