//! Differential tests pinning the pooled CPU engine to the frozen pre-pool
//! implementation: bit-identical depths and `traversed_edges` across seeded
//! suite graphs, thread counts {1, 3, 8}, every status-word width, and
//! duplicate sources within a group — plus the no-per-level-spawn
//! acceptance check and the `traversed_edges` oracle wall.

use ibfs_repro::graph::generators::{chung_lu, powerlaw_weights, rmat, uniform_random, RmatParams};
use ibfs_repro::graph::reorder::ReorderKind;
use ibfs_repro::graph::validate::reference_bfs;
use ibfs_repro::graph::{Csr, VertexId};
use ibfs_repro::ibfs::cpu::{CpuEngine, CpuIbfs, CpuMsBfs};
use ibfs_repro::ibfs::cpu_baseline::{run_cpu_baseline, BASELINE_GROUP};
use ibfs_repro::ibfs::direction::DirectionPolicy;
use ibfs_repro::ibfs::engine::traversed_edges_for;
use ibfs_repro::ibfs::word::WordWidth;

const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

fn seeded_graphs() -> Vec<(String, Csr)> {
    vec![
        ("figure1".to_string(), ibfs_repro::graph::suite::figure1()),
        ("rmat".to_string(), rmat(8, 8, RmatParams::graph500(), 42)),
        ("uniform".to_string(), uniform_random(400, 5, 13)),
        (
            "chung-lu".to_string(),
            chung_lu(&powerlaw_weights(300, 7.0, 2.1), 29),
        ),
    ]
}

fn source_sets(g: &Csr) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices() as VertexId;
    let mut sets = vec![
        (0..n.min(8)).collect::<Vec<_>>(),
        (0..n.min(32)).collect(),
        // Duplicate sources within a group: each must get its own lane.
        vec![0, n / 2, 0, n - 1, n / 2],
    ];
    sets.retain(|s| !s.is_empty());
    sets
}

/// Pooled engine vs the frozen pre-pool `run_cpu` — both engine flavors,
/// every thread count, depths and traversed_edges bit-identical.
#[test]
fn pooled_engine_is_bit_identical_to_baseline() {
    for (name, g) in seeded_graphs() {
        let r = g.reverse();
        for sources in source_sets(&g) {
            for threads in THREAD_COUNTS {
                for msbfs in [false, true] {
                    let baseline = run_cpu_baseline(
                        &g,
                        &r,
                        &sources,
                        DirectionPolicy::default(),
                        threads,
                        !msbfs,
                        msbfs,
                        0,
                    );
                    let pooled = if msbfs {
                        CpuMsBfs { threads, ..Default::default() }
                            .run_group(&g, &r, &sources)
                            .unwrap()
                    } else {
                        CpuIbfs { threads, ..Default::default() }
                            .run_group(&g, &r, &sources)
                            .unwrap()
                    };
                    let what = format!(
                        "{name}: {} sources={sources:?} threads={threads}",
                        if msbfs { "msbfs" } else { "ibfs" }
                    );
                    assert_eq!(pooled.depths, baseline.depths, "{what}: depths diverge");
                    assert_eq!(
                        pooled.traversed_edges, baseline.traversed_edges,
                        "{what}: traversed_edges diverge"
                    );
                }
            }
        }
    }
}

/// Every word width produces the same depths as the u64 baseline (sources
/// capped at 32 so the narrowest width can hold the group).
#[test]
fn every_width_is_bit_identical_to_baseline() {
    for (name, g) in seeded_graphs() {
        let r = g.reverse();
        let sources: Vec<VertexId> =
            (0..(g.num_vertices() as VertexId).min(32)).collect();
        for threads in THREAD_COUNTS {
            let baseline = run_cpu_baseline(
                &g,
                &r,
                &sources,
                DirectionPolicy::default(),
                threads,
                true,
                false,
                0,
            );
            for width in WordWidth::all() {
                let pooled = CpuIbfs { threads, width, ..Default::default() }
                    .run_group(&g, &r, &sources)
                    .unwrap();
                assert_eq!(
                    pooled.depths, baseline.depths,
                    "{name}: width {width} threads {threads}: depths diverge"
                );
                assert_eq!(pooled.traversed_edges, baseline.traversed_edges);
            }
        }
    }
}

/// Groups wider than the baseline's 64-instance cap (only reachable with
/// wide words) still match the per-source reference BFS.
#[test]
fn wide_groups_beyond_baseline_capacity_match_reference() {
    let g = rmat(8, 8, RmatParams::graph500(), 42);
    let r = g.reverse();
    let sources: Vec<VertexId> = (0..100).collect();
    assert!(sources.len() > BASELINE_GROUP);
    for width in [WordWidth::W128, WordWidth::W256] {
        let run = CpuIbfs { threads: 3, width, ..Default::default() }
            .run_group(&g, &r, &sources)
            .unwrap();
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(
                run.instance_depths(j),
                &reference_bfs(&g, s)[..],
                "width {width}: source {s}"
            );
        }
    }
}

/// The acceptance criterion: a multi-level, multi-group run creates no OS
/// threads beyond the ones the services spawned at construction. Counted
/// per pool, so pools that sibling tests build concurrently do not count.
#[test]
fn no_per_level_thread_spawns() {
    let g = rmat(9, 8, RmatParams::graph500(), 42);
    let r = g.reverse();
    let sources: Vec<VertexId> = (0..96).collect();
    let mut ibfs = CpuIbfs { threads: 4, ..Default::default() }.service(&g, &r);
    let mut msbfs = CpuMsBfs { threads: 4, ..Default::default() }.service(&g, &r);
    assert_eq!(ibfs.pool().threads_spawned(), 3);
    assert_eq!(msbfs.pool().threads_spawned(), 3);
    let mut levels = 0usize;
    let mut groups = 0usize;
    for group in sources.chunks(24) {
        levels += ibfs.run_group(group).unwrap().level_seconds.len();
        levels += msbfs.run_group(group).unwrap().level_seconds.len();
        groups += 2;
    }
    assert!(groups >= 8, "want a multi-group run, got {groups}");
    assert!(levels > groups, "want multi-level traversals, got {levels} levels");
    for svc in [&ibfs, &msbfs] {
        assert_eq!(
            svc.pool().threads_spawned(),
            3,
            "worker threads must be created once per engine lifetime, not per level/group"
        );
    }
}

/// `traversed_edges` is the sum the level loop keeps while identifying,
/// not a recount; it must equal the depth-table oracle for every engine,
/// width and ordering, on duplicate and single-source groups, and under a
/// level cap that stops traversals early.
#[test]
fn traversed_edges_match_the_depth_table_oracle() {
    let graphs = [
        ("rmat", rmat(8, 8, RmatParams::graph500(), 42)),
        ("chung-lu", chung_lu(&powerlaw_weights(300, 7.0, 2.1), 29)),
    ];
    for (name, g) in &graphs {
        let r = g.reverse();
        let n = g.num_vertices() as VertexId;
        let source_sets: [Vec<VertexId>; 3] = [
            (0..n.min(32)).collect(),
            vec![0, n / 2, 0, n - 1, n / 2],
            vec![n / 3],
        ];
        for engine in CpuEngine::all() {
            for width in WordWidth::all() {
                for reorder in ReorderKind::all() {
                    for max_levels in [0, 2] {
                        let mut svc = CpuIbfs {
                            threads: 2,
                            width,
                            engine,
                            reorder,
                            max_levels,
                            ..Default::default()
                        }
                        .service(g, &r);
                        for sources in &source_sets {
                            let run = svc.run_group(sources).unwrap();
                            assert_eq!(
                                run.traversed_edges,
                                traversed_edges_for(g, &run.depths, run.num_instances),
                                "{name}: {engine} {width} {reorder} max_levels={max_levels} \
                                 sources={sources:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
