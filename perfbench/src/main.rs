//! The repository benchmark.
//!
//! ```text
//! ibfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload's inputs from the seed, measures it for about the
//! given number of seconds through the public APIs of `ibfs-graph`,
//! `ibfs::cpu` and `ibfs-serve`, checks a seeded sample of depth arrays
//! against `reference_bfs`, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits non-zero on any depth mismatch. See
//! README.md for the workloads and what each metric measures.

mod batch;
mod host;
mod serve;
mod spans;
mod stats;

use ibfs_graph::{Csr, VertexId};
use ibfs_util::{Json, Rng};
use spans::SpanLog;
use std::collections::BTreeMap;
use std::path::Path;

/// Gated metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("gteps", "GTEPS"),
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("sat_rps", "1/s"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer that is not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.reverse_s", "s"),
    ("cpu.service_new_s", "s"),
    ("cpu.warmup_s", "s"),
    ("cpu.group_ms", "ms"),
    ("cpu.level_ms", "ms"),
    ("cpu.outside_levels_ms", "ms"),
    ("cpu.levels", "count"),
    ("cpu.edges", "count"),
    ("cpu.chunks_touched", "count"),
    ("cpu.full_sweeps", "count"),
    ("cpu.dense_levels", "count"),
    ("cpu.steal_balance", "ratio"),
    ("pool.phases", "count"),
    ("pool.us_per_phase", "us"),
    ("prof.top_down_expand_share", "ratio"),
    ("prof.bottom_up_sweep_share", "ratio"),
    ("prof.barrier_wait_share", "ratio"),
    ("prof.repair_share", "ratio"),
    ("prof.status_sweep_share", "ratio"),
    ("prof.identify_share", "ratio"),
    ("prof.queue_build_share", "ratio"),
    ("prof.cleanup_share", "ratio"),
    ("serve.submit_us", "us"),
    ("gen.late_ms", "ms"),
    ("coalesce.plan_ms.w1", "ms"),
    ("coalesce.plan_ms.w64", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.unaccounted_share", "ratio"),
    ("serve.backlog.queue_wait_ms", "ms"),
    ("serve.backlog.engine_ms", "ms"),
    ("serve.backlog.batch_size", "count"),
    ("serve.groupby_share", "ratio"),
    ("serve.worker_busy_share", "ratio"),
    ("router.max_share", "ratio"),
    ("host.baseline_gteps", "GTEPS"),
    ("mem.peak_rss_mb", "MiB"),
];

/// The workloads `--workload` accepts, as `BENCHMARK.json` lists them.
/// The serve layers are measured in the traced `kron17-batch` run
/// (README.md explains why `serve-kron16` is not a workload of its own).
pub const WORKLOADS: [&str; 2] = ["kron17-batch", "grid3d-batch"];
/// Seed when `--seed` is absent; claims are validated on seed 2 as well.
pub const DEFAULT_SEED: u64 = 1;

/// Metric values by name (units come from [`END_TO_END`] / [`PER_LAYER`]).
pub type Metrics = BTreeMap<&'static str, f64>;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measuring budget of the run, in seconds.
    pub seconds: f64,
    /// Traced run: half the budget untraced, half traced.
    pub trace: bool,
}

impl Args {
    /// The untraced budget (all of it, or half in a traced run).
    pub fn budget(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted (groups, and requests of the serve layers).
    pub attempted: u64,
    /// Error results, refused submits and depth mismatches.
    pub failed: u64,
    /// Depth arrays that differed from `reference_bfs`.
    pub mismatches: u64,
    /// End-to-end metrics of the untraced measurement.
    pub end_to_end: Metrics,
    /// Set in a traced run.
    pub traced: Option<Traced>,
}

/// The traced half of a traced run.
pub struct Traced {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub spans: SpanLog,
}

/// Streams of the seeded inputs; each stream is independent of the others
/// and of how far the program under test gets in a run.
#[derive(Clone, Copy)]
pub enum Stream {
    WarmUp = 1,
    Groups = 2,
    Checks = 3,
    Light = 4,
    Backlog = 5,
    Windows = 6,
}

/// The generator for `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream) -> Rng {
    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64)
}

/// A uniformly drawn vertex with at least one out-edge.
pub fn draw_source(rng: &mut Rng, g: &Csr) -> VertexId {
    loop {
        let v = rng.gen_range(0..g.num_vertices()) as VertexId;
        if g.out_degree(v) > 0 {
            return v;
        }
    }
}

/// `size` distinct, non-isolated, uniformly drawn vertices.
pub fn draw_group(rng: &mut Rng, g: &Csr, size: usize) -> Vec<VertexId> {
    let mut group = Vec::with_capacity(size);
    while group.len() < size {
        let v = draw_source(rng, g);
        if !group.contains(&v) {
            group.push(v);
        }
    }
    group
}

const USAGE: &str = "usage: ibfs-perfbench --workload <kron17-batch|grid3d-batch> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// `v` as reported: non-finite values never leave the benchmark, and
/// `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
fn reported(v: Option<&f64>) -> f64 {
    match v {
        Some(v) if v.is_finite() => v + 0.0,
        _ => 0.0,
    }
}

/// Every listed metric in list order, with its unit; missing ones are 0.
fn metrics_json(list: &[(&'static str, &'static str)], values: &Metrics) -> Json {
    for name in values.keys() {
        assert!(
            list.iter().any(|(n, _)| n == name),
            "metric {name} is not listed"
        );
    }
    Json::Obj(
        list.iter()
            .map(|&(name, unit)| {
                let v = reported(values.get(name));
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Float(v)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

fn print_traced(args: &Args, out: &Outcome, traced: &Traced) {
    println!("per-layer metrics (traced half):");
    for &(name, unit) in PER_LAYER {
        let v = reported(traced.per_layer.get(name));
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    println!("benchmark spans (count, total s, self s):");
    for (name, (count, total, own)) in traced.spans.summary() {
        println!("  {name:<30} {count:>8} {total:>12.4} {own:>12.4}");
    }
    println!("tracing overhead (traced - untraced, same inputs):");
    for &(name, unit) in END_TO_END {
        let plain = out.end_to_end.get(name).copied().unwrap_or(0.0);
        let with = traced.end_to_end.get(name).copied().unwrap_or(0.0);
        let rel = stats::ratio(with - plain, plain) * 100.0;
        println!(
            "  {name:<10} untraced {plain:>12.4} traced {with:>12.4} {unit:<6} diff {rel:+.2}%"
        );
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match traced.spans.write_json(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={} cpu=\"{}\" profile={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::cores(),
        host::cpu_model(),
        host::profile(),
    );
    let kind = match args.workload.as_str() {
        "kron17-batch" => batch::Kind::Kron17,
        _ => batch::Kind::Grid3d,
    };
    let out = batch::run(kind, &args);
    println!("end-to-end metrics (untraced):");
    for &(name, unit) in END_TO_END {
        let v = out.end_to_end.get(name).copied().unwrap_or(0.0);
        println!("  {name:<10} {v:>14.6} {unit}");
    }
    let metrics = match &out.traced {
        Some(traced) => {
            print_traced(&args, &out, traced);
            metrics_json(PER_LAYER, &traced.per_layer)
        }
        None => metrics_json(END_TO_END, &out.end_to_end),
    };
    println!(
        "operations: attempted {} failed {} depth mismatches {}",
        out.attempted, out.failed, out.mismatches
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.mismatches == 0)),
        ("attempted".into(), Json::UInt(out.attempted)),
        ("failed".into(), Json::UInt(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.to_string());
    if out.mismatches > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = Json::parse(&text).expect("valid JSON");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&j, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&j, "per_layer"), own(PER_LAYER));
        let names: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload grid3d-batch --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert_eq!(a.budget(), 1.5);
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload serve-kron16")).is_err());
        assert!(parse_args(argv("--workload kron17-batch --trace 2")).is_err());
        assert!(parse_args(argv("--workload kron17-batch --seconds 0")).is_err());
    }

    #[test]
    fn groups_are_distinct_non_isolated_and_seeded() {
        let g =
            ibfs_graph::generators::rmat(10, 4, ibfs_graph::generators::RmatParams::graph500(), 3);
        let a = draw_group(&mut rng(5, Stream::Groups), &g, 64);
        let b = draw_group(&mut rng(5, Stream::Groups), &g, 64);
        assert_eq!(a, b);
        assert_ne!(a, draw_group(&mut rng(6, Stream::Groups), &g, 64));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
        assert!(a.iter().all(|&v| g.out_degree(v) > 0));
    }
}
