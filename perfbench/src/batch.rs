//! `kron17-batch` and `grid3d-batch`: offline many-source BFS, groups of
//! 64 sources through one resident `CpuService` (default options, two
//! lanes), the paper's own use case.
//!
//! A run sets the workload up (graph build, `Csr::reverse`,
//! `CpuService::new`, one warm-up group) and then runs groups back to back
//! for the budget. After each group one seeded instance is checked against
//! `reference_bfs`, outside the timed call. Spread evenly through the
//! budget, between engine groups, come four more set-ups, whose services
//! are dropped again (`setup_s` is the median of all five, without their
//! warm-up groups, so a short burst of host noise moves at most one of
//! them), and a fixed number of
//! frozen `run_cpu_baseline` groups on the sources the engine just ran, as
//! the in-run host control. The traced half of a traced run makes its own
//! five set-ups under tracing, so every end-to-end metric, `setup_s` too,
//! has a traced and an untraced value.

use crate::spans::SpanLog;
use crate::stats::{harmonic_mean, median, quantile, ratio};
use crate::{draw_group, host, rng, serve, Args, Metrics, Outcome, Stream, Traced};
use ibfs::cpu::{CpuOptions, CpuService, CpuStatsSnapshot};
use ibfs::cpu_baseline::run_cpu_baseline;
use ibfs_graph::generators::{rmat, RmatParams};
use ibfs_graph::validate::reference_bfs;
use ibfs_graph::{Csr, CsrBuilder, VertexId};
use ibfs_obs::{EngineProfiler, ProfPhase};
use std::sync::Arc;
use std::time::Instant;

/// Sources per group (one 64-bit status word).
pub const GROUP: usize = 64;
/// Engine lanes, and baseline threads.
const THREADS: usize = 2;
/// Set-ups per measuring phase; `setup_s` is their median.
const SETUPS: usize = 5;
/// Side of the 3D grid: 262,144 vertices, eccentricity at most 189.
const GRID_SIDE: usize = 64;

/// Profiler phases reported as `prof.<phase>_share`.
const PROF_PHASES: [(ProfPhase, &str); 8] = [
    (ProfPhase::TopDownExpand, "prof.top_down_expand_share"),
    (ProfPhase::BottomUpSweep, "prof.bottom_up_sweep_share"),
    (ProfPhase::BarrierWait, "prof.barrier_wait_share"),
    (ProfPhase::Repair, "prof.repair_share"),
    (ProfPhase::StatusSweep, "prof.status_sweep_share"),
    (ProfPhase::Identify, "prof.identify_share"),
    (ProfPhase::QueueBuild, "prof.queue_build_share"),
    (ProfPhase::Cleanup, "prof.cleanup_share"),
];

#[derive(Clone, Copy)]
pub enum Kind {
    /// Graph500 R-MAT, scale 17, edge factor 16.
    Kron17,
    /// 64×64×64 six-neighbour grid.
    Grid3d,
}

impl Kind {
    fn build(self, seed: u64) -> Csr {
        match self {
            Kind::Kron17 => rmat(17, 16, RmatParams::graph500(), seed),
            Kind::Grid3d => grid3d(GRID_SIDE),
        }
    }

    /// Frozen-baseline groups per untraced budget: about 6% of a 40 s one.
    fn baselines(self) -> usize {
        match self {
            Kind::Kron17 => 16,
            Kind::Grid3d => 4,
        }
    }
}

/// A `k × k × k` grid, each vertex joined to its (up to) six axis
/// neighbours in both directions.
pub fn grid3d(k: usize) -> Csr {
    let n = k * k * k;
    let mut b = CsrBuilder::new(n).with_edge_capacity(6 * n);
    let id = |x: usize, y: usize, z: usize| ((x * k + y) * k + z) as VertexId;
    for x in 0..k {
        for y in 0..k {
            for z in 0..k {
                if z + 1 < k {
                    b.add_undirected_edge(id(x, y, z), id(x, y, z + 1));
                }
                if y + 1 < k {
                    b.add_undirected_edge(id(x, y, z), id(x, y + 1, z));
                }
                if x + 1 < k {
                    b.add_undirected_edge(id(x, y, z), id(x + 1, y, z));
                }
            }
        }
    }
    b.build()
}

/// Seconds spent in each part of one set-up.
#[derive(Default)]
struct Setup {
    build_s: f64,
    reverse_s: f64,
    new_s: f64,
    warmup_s: f64,
}

impl Setup {
    /// What `setup_s` counts. The warm-up group is left out (it is
    /// `cpu.warmup_s`): on `grid3d-batch` it is a whole 0.6 s group, most
    /// of the set-up, and moves with the host's state as `p50_ms` does;
    /// two ten-seed sets put that set-up median 23% apart.
    fn total(&self) -> f64 {
        self.build_s + self.reverse_s + self.new_s
    }
}

fn build_pair(kind: Kind, seed: u64, log: &mut SpanLog, st: &mut Setup) -> (Csr, Csr) {
    let (g, build_s) = log.time("graph_build", || kind.build(seed));
    let (rev, reverse_s) = log.time("csr_reverse", || g.reverse());
    st.build_s = build_s;
    st.reverse_s = reverse_s;
    (g, rev)
}

fn start_service<'g>(
    g: &'g Csr,
    rev: &'g Csr,
    seed: u64,
    log: &mut SpanLog,
    st: &mut Setup,
) -> CpuService<'g> {
    let opts = CpuOptions {
        threads: THREADS,
        ..CpuOptions::default()
    };
    let (mut svc, new_s) = log.time("service_new", || CpuService::new(g, rev, opts));
    let warm = draw_group(&mut rng(seed, Stream::WarmUp), g, GROUP);
    let (run, warmup_s) = log.time("warmup_group", || svc.run_group(&warm));
    run.expect("warm-up group of valid sources");
    st.new_s = new_s;
    st.warmup_s = warmup_s;
    svc
}

/// What one measuring phase saw.
struct Samples {
    /// `run_group` wall seconds per group.
    walls: Vec<f64>,
    /// Traversed edges per second per group.
    teps: Vec<f64>,
    /// Every level's wall seconds, all groups.
    level_s: Vec<f64>,
    /// Per group, the sum of its level seconds.
    level_sums: Vec<f64>,
    /// Traversed edges summed over groups.
    edges: u64,
    /// Frozen-baseline TEPS per interleaved control group.
    baseline_teps: Vec<f64>,
    /// The interleaved set-ups.
    setups: Vec<Setup>,
    before: CpuStatsSnapshot,
    after: CpuStatsSnapshot,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

/// One set-up whose service is dropped again.
fn setup(kind: Kind, seed: u64, log: &mut SpanLog) -> Setup {
    let mut st = Setup::default();
    log.enter("setup");
    let (g, rev) = build_pair(kind, seed, log, &mut st);
    drop(start_service(&g, &rev, seed, log, &mut st));
    log.exit();
    st
}

/// Whether the next of `total` events spread evenly through the budget is
/// due, `done` of them having run, at `share` of the budget.
fn due(done: usize, total: usize, share: f64) -> bool {
    done < total && share >= (done as f64 + 0.5) / total as f64
}

/// Runs groups for `budget_s` seconds, with `baselines` control groups and
/// `setups` set-ups interleaved (checks included).
#[allow(clippy::too_many_arguments)]
fn measure(
    svc: &mut CpuService<'_>,
    g: &Csr,
    rev: &Csr,
    kind: Kind,
    seed: u64,
    budget_s: f64,
    baselines: usize,
    setups: usize,
    log: &mut SpanLog,
) -> Samples {
    let mut sources = rng(seed, Stream::Groups);
    let mut checks = rng(seed, Stream::Checks);
    let before = svc.stats();
    let mut s = Samples {
        walls: Vec::new(),
        teps: Vec::new(),
        level_s: Vec::new(),
        level_sums: Vec::new(),
        edges: 0,
        baseline_teps: Vec::new(),
        setups: Vec::new(),
        before,
        after: before,
        attempted: 0,
        failed: 0,
        mismatches: 0,
    };
    let baseline = |group: &[VertexId], log: &mut SpanLog, out: &mut Vec<f64>| {
        let (run, wall) = log.time("run_cpu_baseline", || {
            let policy = CpuOptions::default().policy;
            run_cpu_baseline(g, rev, group, policy, THREADS, true, false, 0)
        });
        out.push(run.traversed_edges as f64 / wall);
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < budget_s {
        let group = draw_group(&mut sources, g, GROUP);
        s.attempted += 1;
        let (res, wall) = log.time("run_group", || svc.run_group(&group));
        let run = match res {
            Ok(run) => run,
            Err(e) => {
                eprintln!("run_group failed: {e:?}");
                s.failed += 1;
                continue;
            }
        };
        let levels: f64 = run.level_seconds.iter().sum();
        s.walls.push(wall);
        s.teps.push(run.traversed_edges as f64 / wall);
        s.level_s.extend_from_slice(&run.level_seconds);
        s.level_sums.push(levels);
        s.edges += run.traversed_edges;
        let j = checks.gen_range(0..group.len());
        let (want, _) = log.time("reference_bfs", || reference_bfs(g, group[j]));
        if run.instance_depths(j) != want.as_slice() {
            eprintln!("depth mismatch: group {} source {}", s.attempted, group[j]);
            s.mismatches += 1;
            s.failed += 1;
        }
        // ABAB: a control group on the same sources, or a set-up, whenever
        // the elapsed share of the budget passes the next of its even marks.
        let share = start.elapsed().as_secs_f64() / budget_s;
        if due(s.baseline_teps.len(), baselines, share) {
            baseline(&group, log, &mut s.baseline_teps);
        }
        if due(s.setups.len(), setups, share) {
            s.setups.push(setup(kind, seed, log));
        }
    }
    s.after = svc.stats();
    while s.baseline_teps.len() < baselines {
        let group = draw_group(&mut sources, g, GROUP);
        baseline(&group, log, &mut s.baseline_teps);
    }
    while s.setups.len() < setups {
        s.setups.push(setup(kind, seed, log));
    }
    s
}

fn end_to_end(s: &Samples) -> Metrics {
    let total_wall: f64 = s.walls.iter().sum();
    Metrics::from([
        ("gteps", median(&s.teps) / 1e9),
        (
            "setup_s",
            median(&s.setups.iter().map(Setup::total).collect::<Vec<_>>()),
        ),
        ("p50_ms", median(&s.walls) * 1e3),
        ("tail_ms", quantile(&s.level_s, 0.9) * 1e3),
        ("sat_rps", ratio((GROUP * s.walls.len()) as f64, total_wall)),
    ])
}

fn per_layer(s: &Samples, profiler: &EngineProfiler) -> Metrics {
    let groups = s.walls.len() as f64;
    let (a, b) = (s.after.stats, s.before.stats);
    let per_group = |after: u64, before: u64| ratio((after - before) as f64, groups);
    let phases = (s.after.pool_phases - s.before.pool_phases) as f64;
    let chunks = (a.td_chunks - b.td_chunks + a.bu_chunks - b.bu_chunks) as f64;
    let steal_max = (a.steal_max_chunks - b.steal_max_chunks) as f64;
    let outside: Vec<f64> = s
        .walls
        .iter()
        .zip(&s.level_sums)
        .map(|(w, l)| w - l)
        .collect();
    let med = |f: fn(&Setup) -> f64| median(&s.setups.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::from([
        ("graph.build_s", med(|st| st.build_s)),
        ("graph.reverse_s", med(|st| st.reverse_s)),
        ("cpu.service_new_s", med(|st| st.new_s)),
        ("cpu.warmup_s", med(|st| st.warmup_s)),
        ("cpu.group_ms", median(&s.walls) * 1e3),
        ("cpu.level_ms", median(&s.level_sums) * 1e3),
        ("cpu.outside_levels_ms", median(&outside) * 1e3),
        ("cpu.levels", per_group(a.levels, b.levels)),
        ("cpu.edges", ratio(s.edges as f64, groups)),
        (
            "cpu.chunks_touched",
            per_group(a.chunks_touched, b.chunks_touched),
        ),
        ("cpu.full_sweeps", per_group(a.full_sweeps, b.full_sweeps)),
        (
            "cpu.dense_levels",
            per_group(a.dense_levels, b.dense_levels),
        ),
        (
            "cpu.steal_balance",
            ratio(steal_max * s.after.pool_threads as f64, chunks),
        ),
        ("pool.phases", ratio(phases, groups)),
        (
            "pool.us_per_phase",
            ratio(s.walls.iter().sum::<f64>(), phases) * 1e6,
        ),
        ("host.baseline_gteps", median(&s.baseline_teps) / 1e9),
        ("mem.peak_rss_mb", host::peak_rss_mb()),
    ]);
    let report = profiler.report("perfbench");
    let total: f64 = report.records.iter().map(|r| r.seconds).sum();
    for (phase, name) in PROF_PHASES {
        m.insert(name, ratio(report.phase_seconds(phase), total));
    }
    m
}

fn summarize(label: &str, s: &Samples) {
    println!(
        "{label}: set-ups (s): {:?}",
        s.setups.iter().map(Setup::total).collect::<Vec<_>>()
    );
    let gteps = median(&s.teps) / 1e9;
    let base = median(&s.baseline_teps) / 1e9;
    println!(
        "{label}: {} groups, GTEPS median {:.4} (Graph500 harmonic mean {:.4}), \
         frozen baseline median {:.4} over {} control groups, speedup {:.3}x",
        s.walls.len(),
        gteps,
        harmonic_mean(&s.teps) / 1e9,
        base,
        s.baseline_teps.len(),
        ratio(gteps, base),
    );
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut quiet = SpanLog::new(false, "main", Instant::now());
    let mut first = Setup::default();
    let (g, rev) = build_pair(kind, args.seed, &mut quiet, &mut first);
    let mut svc = start_service(&g, &rev, args.seed, &mut quiet, &mut first);
    println!(
        "graph: {} vertices, {} directed edges",
        g.num_vertices(),
        g.num_edges()
    );

    let budget = args.budget();
    let baselines = if args.trace {
        kind.baselines() / 2
    } else {
        kind.baselines()
    };
    let (seed, more) = (args.seed, SETUPS - 1);
    let mut plain = measure(
        &mut svc, &g, &rev, kind, seed, budget, baselines, more, &mut quiet,
    );
    plain.setups.insert(0, first);
    summarize("untraced", &plain);
    let mut out = Outcome {
        attempted: plain.attempted,
        failed: plain.failed,
        mismatches: plain.mismatches,
        end_to_end: end_to_end(&plain),
        traced: None,
    };
    if args.trace {
        // Same seeded groups again, now with the engine profiler attached
        // and the benchmark's spans on.
        let mut log = SpanLog::new(true, "main", Instant::now());
        let profiler = Arc::new(EngineProfiler::new());
        svc.set_profiler(Arc::clone(&profiler));
        let traced = measure(
            &mut svc, &g, &rev, kind, seed, budget, baselines, SETUPS, &mut log,
        );
        summarize("traced", &traced);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.mismatches += traced.mismatches;
        let mut layers = per_layer(&traced, &profiler);
        if let Kind::Kron17 = kind {
            // The serve layers ride on this traced run: `serve-kron16` is too
            // host-sensitive to gate (see README.md), but its admission,
            // coalescing, worker and router layers stay measured.
            drop(svc);
            let (serve, ops) = serve::layers(seed, budget, &mut log);
            layers.extend(serve);
            out.attempted += ops[0];
            out.failed += ops[1];
            out.mismatches += ops[2];
        }
        out.traced = Some(Traced {
            end_to_end: end_to_end(&traced),
            per_layer: layers,
            spans: log,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_the_stated_shape() {
        let g = grid3d(GRID_SIDE);
        assert_eq!(g.num_vertices(), 262_144);
        assert_eq!(g.num_edges(), 1_548_288);
        // Corner to opposite corner: the eccentricity bound under the u8 cap.
        let d = reference_bfs(&g, 0);
        assert_eq!(d.iter().copied().max(), Some(189));
    }
}
