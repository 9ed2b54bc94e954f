//! The serve layers: interactive BFS queries through
//! `ibfs_serve::serve_with` on the CPU backend (`ServeConfig::default()`,
//! two workers with one lane each), on a Graph500 R-MAT graph of scale 16
//! (`serve-kron16`). The traced `kron17-batch` run measures them through
//! [`layers`]; `serve-kron16` is not a workload of its own (README.md).
//!
//! The load comes from a single-threaded open-loop generator: one submit
//! thread walks a seeded schedule and hands each ticket to one reply
//! thread. Two phases alternate in one server, [`ROUNDS`] times each
//! (ABAB), so that a burst of host noise hits one round of each:
//!
//! * *light* — a Poisson schedule at [`RATE`] requests per second; each
//!   request's latency runs from its due time to its reply, so a stalled
//!   generator counts against the server, and the generator's own
//!   lateness is reported beside it;
//! * *backlog* — a fixed number of requests submitted back to back through
//!   the blocking `submit_tagged`, which keeps the bounded admission queue
//!   full; throughput is completed requests over first submit to last reply.
//!
//! The reply thread waits on tickets in submission order, so a reply that
//! overtakes an earlier one is timed when the earlier one arrives. Every
//! [`CHECK_EVERY`]-th reply's depths are checked against `reference_bfs`
//! after the server has stopped.

use crate::spans::SpanLog;
use crate::stats::{mean, median, quantile, ratio};
use crate::{draw_group, draw_source, rng, Metrics, Stream};
use ibfs::cpu::CpuOptions;
use ibfs::trace::{TraceLog, TraceRecord};
use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, Depth, VertexId};
use ibfs_obs::span::SpanStage;
use ibfs_obs::{labeled, EngineProfiler, ProfPhase, Registry};
use ibfs_serve::{
    effective_max_batch, plan, serve_with, Class, ServeConfig, ServeError, ServeHandle,
    ServeReport, ServeTelemetry, TenantId, Ticket,
};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SCALE: u32 = 16;
const EDGE_FACTOR: usize = 16;
/// Light-phase arrival rate, requests per second.
const RATE: f64 = 20.0;
/// Share of the budget given to the light phases.
const LIGHT_SHARE: f64 = 0.6;
/// Light/backlog rounds per server; backlog metrics are round medians.
const ROUNDS: usize = 8;
/// Backlog requests per second of budget.
const BACKLOG_PER_S: f64 = 60.0;
/// Tail percentile (`tail_ms` and `gen.late_ms`). In the traced 40 s run
/// the serve layers get 20 s, so the light phases hold about 240 requests
/// and about 12 samples lie beyond p95: at least the ten a tail needs, and
/// fewer host-noise outliers than a higher percentile.
const TAIL_Q: f64 = 0.95;
/// Every this-many-th reply is checked against `reference_bfs`.
const CHECK_EVERY: usize = 8;
/// Warm-up requests allowed while waiting for every worker to serve one.
const WARMUP_TRIES: usize = 16;
/// `(window size, timed calls)` for the coalescing cost.
const PLAN_WINDOWS: [(usize, usize); 2] = [(1, 21), (64, 5)];

fn config() -> ServeConfig {
    ServeConfig {
        cpu: Some(CpuOptions {
            threads: 1,
            ..CpuOptions::default()
        }),
        ..ServeConfig::default()
    }
}

/// One round of the seeded schedule.
struct Round {
    /// Seconds after the light phase starts, and the source.
    light: Vec<(f64, VertexId)>,
    backlog: Vec<VertexId>,
}

/// The seeded request schedule: [`ROUNDS`] rounds.
fn schedule(g: &Csr, seed: u64, budget: f64) -> Vec<Round> {
    let mut light_rng = rng(seed, Stream::Light);
    let mut backlog_rng = rng(seed, Stream::Backlog);
    let light_s = LIGHT_SHARE * budget / ROUNDS as f64;
    let backlog_n = (BACKLOG_PER_S * budget / ROUNDS as f64).round().max(1.0) as usize;
    (0..ROUNDS)
        .map(|_| {
            let mut light = Vec::new();
            let mut t = 0.0;
            loop {
                let u: f64 = light_rng.gen();
                t += -(1.0 - u).ln() / RATE;
                if t >= light_s {
                    break;
                }
                light.push((t, draw_source(&mut light_rng, g)));
            }
            let backlog = (0..backlog_n)
                .map(|_| draw_source(&mut backlog_rng, g))
                .collect();
            Round { light, backlog }
        })
        .collect()
}

/// What the generator knows about one submitted request.
struct Sent {
    source: VertexId,
    due: Instant,
    submit_at: Instant,
    submit_s: f64,
}

/// The parts of a reply the benchmark keeps.
struct Resp {
    request: u64,
    source: VertexId,
    batch: u64,
    batch_sources: usize,
    queue_wait_s: f64,
    /// Kept for every [`CHECK_EVERY`]-th request only.
    depths: Option<Vec<Depth>>,
}

struct Reply {
    sent: Sent,
    replied: Instant,
    resp: Result<Resp, ServeError>,
}

impl Reply {
    fn latency_s(&self) -> f64 {
        (self.replied - self.sent.due).as_secs_f64()
    }
}

/// Submits `sources` (due at `offsets`, or as fast as admission allows when
/// `offsets` is `None`) from this thread; one reply thread collects.
fn drive(
    h: &ServeHandle<'_>,
    sources: &[VertexId],
    offsets: Option<&[f64]>,
    log: &mut SpanLog,
) -> Vec<Reply> {
    let (tx, rx) = mpsc::channel::<(usize, Sent, Result<Ticket, ServeError>)>();
    let mut reply_log = log.sibling("reply");
    std::thread::scope(|s| {
        let replier = s.spawn(move || {
            let mut replies = Vec::new();
            for (i, sent, ticket) in rx {
                let resp = ticket.and_then(Ticket::wait);
                let replied = Instant::now();
                reply_log.record("reply", sent.due);
                let resp = resp.map(|r| Resp {
                    request: r.request,
                    source: r.source,
                    batch: r.batch,
                    batch_sources: r.batch_sources,
                    queue_wait_s: r.queue_wait.as_secs_f64(),
                    depths: (i % CHECK_EVERY == 0).then_some(r.depths),
                });
                replies.push(Reply {
                    sent,
                    replied,
                    resp,
                });
            }
            (replies, reply_log)
        });
        let t0 = Instant::now();
        for (i, &source) in sources.iter().enumerate() {
            let due = match offsets {
                Some(o) => t0 + Duration::from_secs_f64(o[i]),
                None => Instant::now(),
            };
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let submit_at = Instant::now();
            let (ticket, submit_s) = log.time("submit", || {
                h.submit_tagged(source, TenantId::DEFAULT, Class::Interactive)
            });
            let sent = Sent {
                source,
                due,
                submit_at,
                submit_s,
            };
            tx.send((i, sent, ticket))
                .expect("reply thread outlives the generator");
        }
        drop(tx);
        let (replies, reply_log) = replier.join().expect("reply thread panicked");
        log.merge(reply_log);
        replies
    })
}

/// One request at a time until every worker has served one.
fn warm_up(h: &ServeHandle<'_>, g: &Csr, seed: u64, workers: usize) -> (u64, u64) {
    let mut r = rng(seed, Stream::WarmUp);
    let mut seen = vec![false; workers];
    let (mut attempted, mut failed) = (0, 0);
    while seen.contains(&false) && (attempted as usize) < WARMUP_TRIES {
        attempted += 1;
        match h.submit(draw_source(&mut r, g)).and_then(Ticket::wait) {
            Ok(resp) => seen[resp.device] = true,
            Err(e) => {
                eprintln!("warm-up request failed: {e}");
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// One server lifetime: start, warm-up, then the phases.
struct Session {
    warm_attempted: u64,
    warm_failed: u64,
    /// Body start to the last backlog reply.
    body_s: f64,
    /// Light-phase replies of all rounds.
    light: Vec<Reply>,
    /// Backlog-phase replies, one vector per round.
    backlog: Vec<Vec<Reply>>,
}

fn session(
    g: &Csr,
    rev: &Csr,
    telemetry: ServeTelemetry,
    seed: u64,
    schedule: &[Round],
    log: &mut SpanLog,
) -> (Session, ServeReport) {
    let cfg = config();
    let workers = cfg.workers;
    let t0 = Instant::now();
    serve_with(g, rev, cfg, telemetry, |h| {
        log.record("server_start", t0);
        let body = Instant::now();
        let ((warm_attempted, warm_failed), _) =
            log.time("warmup", || warm_up(h, g, seed, workers));
        let (mut light, mut backlog) = (Vec::new(), Vec::new());
        for round in schedule {
            let (offsets, sources): (Vec<f64>, Vec<VertexId>) = round.light.iter().copied().unzip();
            log.enter("light_phase");
            light.extend(drive(h, &sources, Some(&offsets), log));
            log.exit();
            log.enter("backlog_phase");
            backlog.push(drive(h, &round.backlog, None, log));
            log.exit();
        }
        let body_s = body.elapsed().as_secs_f64();
        Session {
            warm_attempted,
            warm_failed,
            body_s,
            light,
            backlog,
        }
    })
}

/// Counts operations and checks sampled depths; `(attempted, failed,
/// mismatches)`.
fn check(g: &Csr, replies: &[Reply], log: &mut SpanLog) -> (u64, u64, u64) {
    let (mut failed, mut mismatches) = (0, 0);
    for r in replies {
        match &r.resp {
            Err(e) => {
                eprintln!("request for {} failed: {e}", r.sent.source);
                failed += 1;
            }
            Ok(resp) => {
                let wrong_depths = resp.depths.as_ref().is_some_and(|d| {
                    let (want, _) = log.time("reference_bfs", || reference_bfs(g, resp.source));
                    *d != want
                });
                if resp.source != r.sent.source || wrong_depths {
                    eprintln!(
                        "depth mismatch: request {} source {}",
                        resp.request, r.sent.source
                    );
                    mismatches += 1;
                    failed += 1;
                }
            }
        }
    }
    (replies.len() as u64, failed, mismatches)
}

fn ok<'a>(
    replies: impl IntoIterator<Item = &'a Reply>,
) -> impl Iterator<Item = (&'a Reply, &'a Resp)> {
    replies
        .into_iter()
        .filter_map(|r| r.resp.as_ref().ok().map(|resp| (r, resp)))
}

/// Batch id → `(engine seconds, traversed edges)` from the report.
fn batch_table(report: &ServeReport) -> HashMap<u64, (f64, u64)> {
    report
        .batches
        .iter()
        .map(|b| (b.batch, (b.sim_seconds, b.traversed_edges)))
        .collect()
}

/// Engine seconds of each distinct batch that carried `replies`, and the
/// traversed edges summed over those batches.
fn engine_s<'a>(
    replies: impl IntoIterator<Item = &'a Reply>,
    batches: &HashMap<u64, (f64, u64)>,
) -> (Vec<f64>, u64) {
    let ids: HashSet<u64> = ok(replies).map(|(_, resp)| resp.batch).collect();
    let rows: Vec<(f64, u64)> = ids
        .iter()
        .filter_map(|id| batches.get(id).copied())
        .collect();
    (
        rows.iter().map(|r| r.0).collect(),
        rows.iter().map(|r| r.1).sum(),
    )
}

/// The serve workload's own end-to-end figures, printed but not gated.
fn figures(s: &Session, report: &ServeReport) -> Metrics {
    let lat: Vec<f64> = ok(&s.light).map(|(r, _)| r.latency_s()).collect();
    let batches = batch_table(report);
    // Per backlog round: (completed per second, traversed edges per second),
    // each over the round's first submit to its last reply.
    let (rps, teps): (Vec<f64>, Vec<f64>) = s
        .backlog
        .iter()
        .map(|round| {
            let first = round.iter().map(|r| r.sent.submit_at).min();
            let last = round.iter().map(|r| r.replied).max();
            let wall = match (first, last) {
                (Some(a), Some(b)) => (b - a).as_secs_f64(),
                _ => 0.0,
            };
            let edges = engine_s(round, &batches).1 as f64;
            (ratio(ok(round).count() as f64, wall), ratio(edges, wall))
        })
        .unzip();
    println!("backlog rounds: requests/s {rps:.2?}");
    Metrics::from([
        ("gteps", median(&teps) / 1e9),
        ("p50_ms", median(&lat) * 1e3),
        ("tail_ms", quantile(&lat, TAIL_Q) * 1e3),
        ("sat_rps", median(&rps)),
    ])
}

/// Light-phase latency split: lateness + admission→dispatch + engine +
/// remainder, as mean milliseconds; returns the unaccounted share.
fn latency_split(s: &Session, report: &ServeReport) -> f64 {
    let batches = batch_table(report);
    let (mut total, mut late, mut wait, mut engine) = (0.0, 0.0, 0.0, 0.0);
    let mut n = 0.0;
    for (r, resp) in ok(&s.light) {
        total += r.latency_s();
        late += (r.sent.submit_at - r.sent.due).as_secs_f64();
        wait += resp.queue_wait_s;
        engine += batches.get(&resp.batch).map_or(0.0, |b| b.0);
        n += 1.0;
    }
    let rest = total - late - wait - engine;
    let ms = |x: f64| ratio(x, n) * 1e3;
    println!(
        "light latency split (mean ms): total {:.3} = lateness {:.3} + admission->dispatch {:.3} \
         + engine {:.3} + unaccounted {:.3} ({:.1}% unaccounted)",
        ms(total),
        ms(late),
        ms(wait),
        ms(engine),
        ms(rest),
        ratio(rest, total) * 100.0
    );
    ratio(rest, total)
}

/// Mean gaps between the server's own span stages for the light requests.
fn print_server_spans(trace: &TraceLog, light: &[Reply]) {
    let ids: HashSet<u64> = ok(light).map(|(_, resp)| resp.request).collect();
    let mut at: HashMap<u64, [Option<f64>; 4]> = HashMap::new();
    for rec in trace.records() {
        if let TraceRecord::Span(ev) = rec {
            let slot = match ev.stage {
                SpanStage::Admitted => 0,
                SpanStage::Batched => 1,
                SpanStage::Dispatched => 2,
                SpanStage::Completed => 3,
                _ => continue,
            };
            if ids.contains(&ev.request) {
                at.entry(ev.request).or_default()[slot] = Some(ev.t_s);
            }
        }
    }
    let gap = |a: usize, b: usize| {
        let v: Vec<f64> = at.values().filter_map(|t| Some(t[b]? - t[a]?)).collect();
        mean(&v) * 1e3
    };
    println!(
        "server spans over {} light requests (mean ms): admitted->batched {:.3}, \
         batched->dispatched {:.3}, dispatched->completed {:.3}",
        at.len(),
        gap(0, 1),
        gap(1, 2),
        gap(2, 3)
    );
}

/// Median milliseconds of `ibfs_serve::plan` on seeded windows of each
/// size in [`PLAN_WINDOWS`], with the workload's policy and clamp.
fn plan_ms(g: &Csr, seed: u64, log: &mut SpanLog) -> [f64; 2] {
    let cfg = config();
    let max_batch = effective_max_batch(g, &cfg);
    let mut r = rng(seed, Stream::Windows);
    PLAN_WINDOWS.map(|(size, calls)| {
        let times: Vec<f64> = (0..calls)
            .map(|_| {
                let window = draw_group(&mut r, g, size);
                let (p, secs) = log.time("plan", || {
                    plan(g, &window, max_batch, cfg.policy, &cfg.groupby)
                });
                assert_eq!(p.total_sources(), size, "plan must partition its window");
                secs
            })
            .collect();
        median(&times) * 1e3
    })
}

/// The `serve.*`, `gen.*`, `coalesce.*` and `router.*` metrics.
fn per_layer(
    s: &Session,
    report: &ServeReport,
    profiler: &EngineProfiler,
    unaccounted: f64,
    plans: [f64; 2],
) -> Metrics {
    let batches = batch_table(report);
    let snap = &report.snapshot;
    let routed: Vec<f64> = (0..config().workers)
        .map(|d| {
            let name = labeled("ibfs_cluster_routed_total", &[("device", &d.to_string())]);
            snap.counter(&name).unwrap_or(0) as f64
        })
        .collect();
    let busy: f64 = profiler
        .report("perfbench")
        .records
        .iter()
        .filter(|r| r.phase == ProfPhase::ServeBatch)
        .map(|r| r.seconds)
        .sum();
    let phase = |replies: Vec<&Reply>| {
        let wait: Vec<f64> = ok(replies.iter().copied())
            .map(|(_, r)| r.queue_wait_s)
            .collect();
        let size: Vec<f64> = ok(replies.iter().copied())
            .map(|(_, r)| r.batch_sources as f64)
            .collect();
        let engine = engine_s(replies.iter().copied(), &batches).0;
        (median(&wait) * 1e3, median(&engine) * 1e3, mean(&size))
    };
    let (light_wait, light_engine, light_size) = phase(s.light.iter().collect());
    let (back_wait, back_engine, back_size) = phase(s.backlog.iter().flatten().collect());
    let late: Vec<f64> = s
        .light
        .iter()
        .map(|r| (r.sent.submit_at - r.sent.due).as_secs_f64())
        .collect();
    let submit: Vec<f64> = s.light.iter().map(|r| r.sent.submit_s).collect();
    Metrics::from([
        ("serve.submit_us", median(&submit) * 1e6),
        ("gen.late_ms", quantile(&late, TAIL_Q) * 1e3),
        ("coalesce.plan_ms.w1", plans[0]),
        ("coalesce.plan_ms.w64", plans[1]),
        ("serve.queue_wait_ms", light_wait),
        ("serve.engine_ms", light_engine),
        ("serve.batch_size", light_size),
        ("serve.unaccounted_share", unaccounted),
        ("serve.backlog.queue_wait_ms", back_wait),
        ("serve.backlog.engine_ms", back_engine),
        ("serve.backlog.batch_size", back_size),
        (
            "serve.groupby_share",
            ratio(
                report.groupby_batches as f64,
                (report.groupby_batches + report.arrival_batches) as f64,
            ),
        ),
        (
            "serve.worker_busy_share",
            ratio(busy, s.body_s * config().workers as f64),
        ),
        (
            "router.max_share",
            ratio(
                routed.iter().copied().fold(0.0, f64::max),
                routed.iter().sum(),
            ),
        ),
    ])
}

fn summarize(label: &str, s: &Session, report: &ServeReport) {
    let lat: Vec<f64> = ok(&s.light).map(|(r, _)| r.latency_s() * 1e3).collect();
    println!(
        "{label}: light latency over {} replies (ms): p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        lat.len(),
        median(&lat),
        quantile(&lat, 0.9),
        quantile(&lat, 0.95),
        quantile(&lat, 0.99),
        quantile(&lat, 1.0)
    );
    println!(
        "{label}: light {} requests, backlog {} requests, in {ROUNDS} rounds; batches {} \
         ({} groupby, {} arrival); conserved {}",
        s.light.len(),
        s.backlog.iter().map(Vec::len).sum::<usize>(),
        report.batches.len(),
        report.groupby_batches,
        report.arrival_batches,
        report.is_conserved()
    );
}

/// The serve layers for the traced `kron17-batch` run: one server with its
/// spans and batch profiling on, on this workload's graph and schedule for
/// `budget` seconds. Prints the serve figures (not gated), the latency
/// split and the server's span stages, checks the replies, and returns the
/// per-layer metrics with the operation counts `[attempted, failed,
/// mismatches]`.
pub fn layers(seed: u64, budget: f64, log: &mut SpanLog) -> (Metrics, [u64; 3]) {
    log.enter("serve_layers");
    let (g, _) = log.time("graph_build", || {
        rmat(SCALE, EDGE_FACTOR, RmatParams::graph500(), seed)
    });
    let (rev, _) = log.time("csr_reverse", || g.reverse());
    let schedule = schedule(&g, seed, budget);
    let trace = TraceLog::new();
    let profiler = Arc::new(EngineProfiler::new());
    let telemetry = ServeTelemetry::with_registry(Registry::shared())
        .traced(trace.clone())
        .profiled(Arc::clone(&profiler));
    let (traced, report) = session(&g, &rev, telemetry, seed, &schedule, log);
    summarize("serve-kron16", &traced, &report);
    let unaccounted = latency_split(&traced, &report);
    print_server_spans(&trace, &traced.light);
    let mut ops = [traced.warm_attempted, traced.warm_failed, 0];
    for phase in std::iter::once(&traced.light).chain(&traced.backlog) {
        let (a, f, m) = check(&g, phase, log);
        ops[0] += a;
        ops[1] += f;
        ops[2] += m;
    }
    let plans = plan_ms(&g, seed, log);
    log.exit();
    println!("serve-kron16 end-to-end figures (traced, not gated):");
    for (name, v) in figures(&traced, &report) {
        println!("  {name:<10} {v:>14.6}");
    }
    let layers = per_layer(&traced, &report, &profiler, unaccounted, plans);
    (layers, ops)
}
