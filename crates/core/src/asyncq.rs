//! Asynchronous (label-correcting) FIFO engine — the `async.rs` of the
//! CPU engine round 2 (named `asyncq` because `async` is a Rust keyword).
//!
//! The pooled and tiled engines are *level-synchronous*: every BFS level
//! costs three to four pool barriers, which dominates on high-diameter
//! inputs — a road-network-like mesh has O(√n) levels of tiny frontiers,
//! so the engine spends its time in condvar handshakes, not edge work
//! (Buluç & Madduri, arXiv:1104.4518; Galois' Async variant). This engine
//! removes the level barrier entirely:
//!
//! * **One parallel phase.** The whole traversal is a single
//!   [`WorkerPool::run`] dispatch; lanes run until global quiescence.
//! * **CAS-min depth words.** Per-`(instance, vertex)` depths in
//!   [`AtomicDepth`] cells, lowered through a compare-exchange min (the
//!   parlay `multi_BFS` idiom). Depths only ever decrease, so work order
//!   is free: any interleaving converges to the true BFS depths.
//! * **Concurrent FIFO of tile blocks.** The winner of a relaxation
//!   enqueues the vertex's [`TilePlan`] tiles as work items; items travel
//!   in blocks through a shared deque, with a per-lane buffer absorbing
//!   the common case (AsyncTile: hubs split here too).
//! * **Quiescence counter.** A pending-items counter is incremented
//!   before items become visible and decremented only after a block is
//!   fully processed; lanes exit when the queue, their own buffer, and
//!   the counter are all drained. The counter over-approximates live
//!   work, so no lane can exit while another still holds items — and no
//!   lane blocks on another's progress, so thread counts far above the
//!   frontier width cannot deadlock (pinned by `tests/async_equivalence.rs`).
//!
//! The price of reordering: per-level timings and the level-synchronous
//! direction machinery do not exist here, and a vertex may be relaxed
//! several times as better depths race in. Final depths are the invariant
//! (equal to `reference_bfs`); `traversed_edges` is still reported because
//! it is *derived from depths*, but the amount of work actually performed
//! is nondeterministic — which is why the async test wall pins depths, not
//! edge counts.
//!
//! Vertex reordering ([`CpuOptions::reorder`]) composes with this engine
//! for free: [`crate::cpu::CpuService::run_group`] hands `run_async` the
//! relabeled CSR, pre-mapped sources and the old → new vertex map, which
//! only the final depth collection reads, so the traversal never knows
//! whether the space is permuted — `tests/reorder_differential.rs` pins
//! the async rows of that wall.

use crate::cpu::{CpuOptions, CpuRun, CpuStats};
use crate::pool::WorkerPool;
use crate::word::AtomicDepth;
use ibfs_graph::tiling::TilePlan;
use ibfs_graph::{Csr, VertexId, DEPTH_UNVISITED};
use ibfs_obs::{EngineProfiler, ProfPhase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Items per FIFO block: big enough to amortize the deque lock, small
/// enough that stragglers get shared promptly.
const BLOCK: usize = 256;

/// One unit of async work: tile `t` of instance `j`'s copy of vertex `v`.
#[derive(Clone, Copy)]
struct Item {
    v: VertexId,
    j: u32,
    t: u32,
}

struct Fifo {
    global: Mutex<VecDeque<Vec<Item>>>,
    /// Items created but not yet fully processed (see module docs).
    pending: AtomicUsize,
    items: AtomicU64,
    relaxed: AtomicU64,
}

/// Runs one group through the asynchronous engine. Width plays no role
/// here (depths are per-instance bytes, not shared status words); the
/// group size limit is enforced by the caller's admission. With `perm`
/// (old → new ids of a reordered service) the returned depth table is
/// mapped back to original vertex ids.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_async(
    csr: &Csr,
    opts: &CpuOptions,
    pool: &WorkerPool,
    plan: &TilePlan,
    stats: &mut CpuStats,
    prof: Option<&EngineProfiler>,
    sources: &[VertexId],
    perm: Option<&[VertexId]>,
) -> CpuRun {
    let ni = sources.len();
    let n = csr.num_vertices();
    let cap = if opts.max_levels == 0 {
        crate::sequential::MAX_LEVELS
    } else {
        opts.max_levels.min(crate::sequential::MAX_LEVELS)
    } as u8;

    let start = Instant::now();
    let depths: Vec<AtomicDepth> = (0..ni * n).map(|_| AtomicDepth::unvisited()).collect();
    let fifo = Fifo {
        global: Mutex::new(VecDeque::new()),
        pending: AtomicUsize::new(0),
        items: AtomicU64::new(0),
        relaxed: AtomicU64::new(0),
    };

    // Seed: depth 0 for every source, its tiles as the initial work.
    {
        let mut seed: Vec<Item> = Vec::new();
        for (j, &s) in sources.iter().enumerate() {
            depths[j * n + s as usize].store(0);
            let deg = csr.out_degree(s);
            if deg > 0 {
                for t in 0..plan.tile_count(deg) {
                    seed.push(Item { v: s, j: j as u32, t: t as u32 });
                }
            }
        }
        fifo.pending.store(seed.len(), Ordering::Relaxed);
        let mut q = fifo.global.lock().unwrap();
        for block in seed.chunks(BLOCK) {
            q.push_back(block.to_vec());
        }
    }

    let phase_start = Instant::now();
    let track = prof.map(|p| p.open_track()).unwrap_or(0);
    let (depths_ref, fifo_ref) = (&depths[..], &fifo);
    // The whole traversal is one barrier-free drain phase; level 0 stands
    // in for "no levels here" (see module docs).
    pool.run_profiled(prof, track, 0, ProfPhase::AsyncDrain, |_lane| {
        let mut out: Vec<Item> = Vec::with_capacity(BLOCK);
        let mut items = 0u64;
        let mut relaxed = 0u64;
        loop {
            let block = fifo_ref.global.lock().unwrap().pop_front();
            let block = match block {
                Some(b) => b,
                None if !out.is_empty() => std::mem::take(&mut out),
                None => {
                    // `pending` counts every item not yet fully processed,
                    // including blocks mid-flight on other lanes whose
                    // relaxations may still enqueue new work here.
                    if fifo_ref.pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
            };
            for &Item { v, j, t } in &block {
                items += 1;
                // Re-read the depth at processing time: it can only have
                // improved since the enqueue, and relaxing from the
                // better depth is both correct and less work.
                let d = depths_ref[j as usize * n + v as usize].load();
                if d >= cap {
                    continue;
                }
                let nd = d + 1;
                let (lo, hi) = plan.tile_range(csr.out_degree(v), t as usize);
                for &w in &csr.neighbors(v)[lo..hi] {
                    if depths_ref[j as usize * n + w as usize].relax_to(nd) {
                        relaxed += 1;
                        let deg = csr.out_degree(w);
                        if deg == 0 {
                            continue;
                        }
                        let count = plan.tile_count(deg);
                        // Publish the count before the items can reach the
                        // shared deque, so `pending == 0` implies no work
                        // anywhere.
                        fifo_ref.pending.fetch_add(count, Ordering::Release);
                        for t in 0..count {
                            out.push(Item { v: w, j, t: t as u32 });
                        }
                        if out.len() >= BLOCK {
                            let full = std::mem::replace(&mut out, Vec::with_capacity(BLOCK));
                            fifo_ref.global.lock().unwrap().push_back(full);
                        }
                    }
                }
            }
            // Only now is the block's work (including its enqueues) done.
            fifo_ref.pending.fetch_sub(block.len(), Ordering::AcqRel);
        }
        fifo_ref.items.fetch_add(items, Ordering::Relaxed);
        fifo_ref.relaxed.fetch_add(relaxed, Ordering::Relaxed);
        (items, relaxed)
    });
    let phase_seconds = phase_start.elapsed().as_secs_f64();

    debug_assert_eq!(fifo.pending.load(Ordering::Relaxed), 0);
    stats.groups += 1;
    stats.async_items += fifo.items.load(Ordering::Relaxed);
    stats.async_relaxed += fifo.relaxed.load(Ordering::Relaxed);

    debug_assert!(sources
        .iter()
        .enumerate()
        .all(|(j, &s)| depths[j * n + s as usize].load() == 0));
    let _ = DEPTH_UNVISITED; // sentinel identity: AtomicDepth::unvisited() == DEPTH_UNVISITED
    // Out-degrees are permutation-invariant, so counting in permuted space
    // gives the original-space total.
    let cells: Vec<u8> = depths.iter().map(|c| c.load()).collect();
    let traversed = crate::engine::traversed_edges_for(csr, &cells, ni);
    let depths = match perm {
        None => cells,
        Some(p) => cells
            .chunks(n)
            .flat_map(|row| p.iter().map(move |&new| row[new as usize]))
            .collect(),
    };
    CpuRun {
        num_instances: ni,
        num_vertices: n,
        depths,
        wall_seconds: start.elapsed().as_secs_f64(),
        traversed_edges: traversed,
        level_seconds: vec![phase_seconds],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuService;
    use ibfs_graph::generators::{grid2d, rmat, RmatParams};
    use ibfs_graph::suite::{figure1, FIGURE1_SOURCES};
    use ibfs_graph::validate::reference_bfs;

    fn async_opts(threads: usize) -> CpuOptions {
        CpuOptions {
            engine: crate::cpu::CpuEngine::Async,
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn async_matches_reference_figure1() {
        let g = figure1();
        let r = g.reverse();
        let mut svc = CpuService::new(&g, &r, async_opts(3));
        let run = svc.run_group(&FIGURE1_SOURCES).unwrap();
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
        assert_eq!(run.level_seconds.len(), 1, "async is a single phase");
        assert!(svc.stats().stats.async_items > 0);
    }

    #[test]
    fn async_matches_reference_on_rmat_hubs() {
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..40).collect();
        let mut svc = CpuService::new(&g, &r, async_opts(4));
        let run = svc.run_group(&sources).unwrap();
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn async_mesh_more_threads_than_frontier() {
        // A path-like mesh keeps every frontier at width <= 2 while 8
        // lanes hunt for work: the quiescence protocol must terminate.
        let g = grid2d(2, 40);
        let r = g.reverse();
        let mut svc = CpuService::new(&g, &r, async_opts(8));
        let run = svc.run_group(&[0]).unwrap();
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn async_respects_level_cap() {
        let g = grid2d(1, 30); // a path: vertex i at depth i
        let r = g.reverse();
        let mut svc = CpuService::new(
            &g,
            &r,
            CpuOptions { max_levels: 5, ..async_opts(2) },
        );
        let run = svc.run_group(&[0]).unwrap();
        let d = run.instance_depths(0);
        assert_eq!(d[5], 5);
        assert_eq!(d[6], DEPTH_UNVISITED, "cap must stop the wave");
    }
}
