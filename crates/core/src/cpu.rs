//! Real multithreaded CPU implementations (§7, Figure 22, Table 1), rebuilt
//! around a persistent worker pool and a resident scratch arena.
//!
//! Two engines, both measured in *wall-clock* time rather than the GPU
//! simulator's model:
//!
//! * [`CpuIbfs`] — iBFS ported to CPUs as §7 describes: the same bitwise
//!   status arrays, joint traversal and early termination, with atomic
//!   fetch-OR for the multi-threaded bitwise updates.
//! * [`CpuMsBfs`] — the MS-BFS baseline of Then et al. (VLDB'15): no early
//!   termination, plus the per-level `visit`-map maintenance sweep the paper
//!   attributes to [26].
//!
//! # Architecture
//!
//! The pre-pool implementation (frozen in [`crate::cpu_baseline`]) respawned
//! scoped threads in 3–4 waves per BFS level, copied the whole status array
//! every level, and reallocated its scratch per group. [`CpuService`] is the
//! rebuilt hot path, mirroring [`crate::service::IbfsService`]'s upload-once
//! design:
//!
//! * **Persistent pool** — one [`WorkerPool`] spawned at service
//!   construction; every phase of every level of every group runs on it
//!   (see `tests`: the pool's spawn count is constant across a
//!   multi-level, multi-group run).
//! * **Resident arena** — the `cur`/`next` status arrays, touched-chunk
//!   epochs, per-lane queue segments and a vertex-major depth table are
//!   allocated once and reused across groups; only the returned depth
//!   table is allocated per group (it is the result, not scratch).
//! * **Wide words** — the engine is generic over [`StatusWord`] width
//!   through the [`AtomicStatus`] lanes in [`crate::word`]; with
//!   [`WordWidth::W256`] a 128-source set runs as one group instead of two.
//! * **Vertex-major depths** — identification records depths in a
//!   resident `[vertex][instance]` table, so every newly set bit of a
//!   vertex lands in the same cache line (the paper's JSA layout: one
//!   vertex's status for all instances is contiguous). One pool-parallel,
//!   blocked finalize pass ([`ProfPhase::MapOut`]) transposes it into the
//!   returned `[instance][vertex]` table, mapping vertices back to their
//!   original ids when the service is reordered, and resets each row as it
//!   reads it, so the resident table is clean for the next group without a
//!   separate clear. `traversed_edges` is the sum identification already
//!   keeps, not a recount over the depth table.
//! * **Dirty chunks** — vertices are grouped into [`CHUNK`]-sized chunks; a
//!   per-chunk epoch records the last level that wrote new bits into it.
//!   The identification sweep visits only touched chunks, so sparse levels
//!   cost O(frontier), not O(n). Invariant: at the start of every level's
//!   traversal, `next[v] == cur[v]` for all `v`. Traversal adds bits to
//!   `next` only inside chunks it marks touched, and the identifying lane,
//!   which owns `v`, stores `cur[v] = next[v]` whenever `v` gained bits, so
//!   the invariant holds again when identification ends.
//! * **Work stealing** — top-down and bottom-up frontiers are pre-split
//!   into degree-balanced chunks (weight = degree + 1) and claimed through
//!   a shared atomic cursor, so a lane that lands on a power-law hub simply
//!   claims fewer chunks; the old static `even_ranges` split is gone.
//!
//! # Round 2: edge tiles and the async variant
//!
//! [`CpuEngine`] selects among three hot paths sharing the pool and arena:
//!
//! * [`CpuEngine::Pooled`] — the PR 5 engine above, unchanged.
//! * [`CpuEngine::Tiled`] — same level loop, but the top-down frontier is
//!   expanded into [`crate::tile::EdgeTile`]s under the service's
//!   [`TilePlan`] before the degree-balanced split, so a hub's edge list
//!   spreads across every lane instead of pinning one. The relaxation is
//!   a commutative monotone OR, so tiling cannot change any depth or
//!   `traversed_edges` (the sum of out-degrees over visited cells) —
//!   bit-identity to Pooled is pinned by `tests/tiled_differential.rs`.
//!   Bottom-up is untouched (its single-writer-per-word invariant would
//!   not survive splitting).
//! * [`CpuEngine::Async`] — no level loop at all; see [`crate::asyncq`].
//!
//! The tile size and the steal-chunk count are autotuned from the degree
//! histogram at [`CpuService::new`] (override with
//! [`CpuOptions::tile_size`]): tile size targets a small multiple of the
//! average degree, and skewed graphs get more, finer steal chunks.
//!
//! Capacity is [`CPU_GROUP`] instances, further limited by the configured
//! word width. Oversized or malformed groups are typed
//! [`RequestError`]s, matching the GPU service's admission style.

use crate::direction::{Direction, DirectionPolicy, DirectionTuner};
use crate::pool::{ChunkCursor, WorkerPool};
use crate::service::{admit_sources, RequestError};
use crate::tile::{build_frontier_tiles, build_tile_bounds, build_weighted_bounds, ClaimTally, EdgeTile};
use crate::word::{
    AtomicStatus, AtomicW128, AtomicW256, AtomicW32, AtomicW64, StatusWord, WordWidth,
};
use ibfs_graph::reorder::{ReorderKind, VertexPerm};
use ibfs_graph::tiling::TilePlan;
use ibfs_graph::{Csr, Depth, VertexId, DEPTH_UNVISITED};
use ibfs_obs::{EngineProfiler, ProfPhase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum instances per CPU group (one [`crate::word::W256`] register
/// word); the effective capacity is `min(CPU_GROUP, width.bits())`.
pub const CPU_GROUP: usize = 256;

/// log2 of the dirty-chunk granularity.
pub const CHUNK_BITS: usize = 10;

/// Vertices per dirty chunk.
pub const CHUNK: usize = 1 << CHUNK_BITS;

/// Degree-balanced steal chunks handed to each pool lane per phase, for
/// graphs with mild degree skew. The autotuner raises this on skewed
/// graphs (see [`autotune_chunks_per_lane`]).
const STEAL_CHUNKS_PER_LANE: usize = 8;

/// Seed for the RCM pseudo-peripheral root search (see
/// [`ibfs_graph::reorder::VertexPerm::rcm`]). Fixed so every service built
/// over the same graph with [`ReorderKind::Rcm`] uses the same labeling —
/// reorderings must be reproducible for the differential walls and the
/// committed bench trajectory to be meaningful.
pub const REORDER_SEED: u64 = 42;

/// Frontier occupancy divisor for the adaptive frontier representation: a
/// level whose queue holds at least `n / DENSE_FRONTIER_DIV` vertices is
/// normalized to ascending vertex order through a dense bitmap (cost
/// O(n/64 + frontier)), so the traversal walks the CSR near-sequentially.
/// Sparse levels keep the queue in lane-concatenation order — for them the
/// O(n/64) bitmap scan would dominate the level itself.
pub const DENSE_FRONTIER_DIV: usize = 16;

/// The CPU hot path to run a group through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CpuEngine {
    /// PR 5 level-synchronous engine: vertex-granular work stealing.
    #[default]
    Pooled,
    /// Level-synchronous with edge-tiled top-down frontiers (SyncTile).
    Tiled,
    /// Asynchronous label-correcting FIFO, no level barrier (Async).
    Async,
}

impl CpuEngine {
    /// Stable lowercase name, used by the CLI and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            CpuEngine::Pooled => "pooled",
            CpuEngine::Tiled => "tiled",
            CpuEngine::Async => "async",
        }
    }

    /// Parses a [`CpuEngine::name`] string.
    pub fn parse(s: &str) -> Option<CpuEngine> {
        CpuEngine::all().into_iter().find(|e| e.name() == s)
    }

    /// Every engine, in name order of the CLI help.
    pub fn all() -> [CpuEngine; 3] {
        [CpuEngine::Pooled, CpuEngine::Tiled, CpuEngine::Async]
    }
}

impl std::fmt::Display for CpuEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Worker threads to use when a config says `0`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Result of a CPU group run.
#[derive(Clone, Debug)]
pub struct CpuRun {
    /// Instances in the group.
    pub num_instances: usize,
    /// Vertices in the graph.
    pub num_vertices: usize,
    /// Depths, flattened `[instance][vertex]`.
    pub depths: Vec<Depth>,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Traversed directed edges summed over instances.
    pub traversed_edges: u64,
    /// Wall-clock seconds of each BFS level, in level order.
    pub level_seconds: Vec<f64>,
}

impl CpuRun {
    /// Instance `j`'s depth array.
    pub fn instance_depths(&self, j: usize) -> &[Depth] {
        &self.depths[j * self.num_vertices..(j + 1) * self.num_vertices]
    }

    /// Traversal rate.
    pub fn teps(&self) -> f64 {
        crate::metrics::teps(self.traversed_edges, self.wall_seconds)
    }
}

/// Full configuration of a [`CpuService`].
#[derive(Clone, Copy, Debug)]
pub struct CpuOptions {
    /// Direction-switch policy (group-wide).
    pub policy: DirectionPolicy,
    /// Worker threads; 0 = all available.
    pub threads: usize,
    /// Cap on traversal levels; 0 means unlimited.
    pub max_levels: u32,
    /// Status-word width (group capacity).
    pub width: WordWidth,
    /// iBFS bottom-up early termination.
    pub early_termination: bool,
    /// MS-BFS per-level visit-map maintenance sweep.
    pub per_level_reset: bool,
    /// Which hot path serves groups.
    pub engine: CpuEngine,
    /// Edge-tile size for [`CpuEngine::Tiled`] / [`CpuEngine::Async`];
    /// 0 = autotune from the degree histogram at service build.
    pub tile_size: usize,
    /// Vertex reordering applied once at service build: the CSR is
    /// relabeled for locality, sources map in at [`CpuService::run_group`]
    /// and depths map back out, so results are bit-identical to the
    /// unreordered engines (pinned by `tests/reorder_differential.rs`).
    pub reorder: ReorderKind,
    /// Online α/β direction autotuning from measured per-direction phase
    /// cost over the first groups of the service's lifetime (see
    /// [`DirectionTuner`]). Off by default; results are unaffected either
    /// way — depths are invariant to the direction schedule.
    pub adaptive: bool,
}

impl Default for CpuOptions {
    fn default() -> Self {
        CpuOptions {
            policy: DirectionPolicy::default(),
            threads: 0,
            max_levels: 0,
            width: WordWidth::default(),
            early_termination: true,
            per_level_reset: false,
            engine: CpuEngine::Pooled,
            tile_size: 0,
            reorder: ReorderKind::None,
            adaptive: false,
        }
    }
}

/// The CPU port of bitwise iBFS.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuIbfs {
    /// Direction-switch policy (group-wide).
    pub policy: DirectionPolicy,
    /// Worker threads; 0 = all available.
    pub threads: usize,
    /// Cap on traversal levels; 0 means unlimited.
    pub max_levels: u32,
    /// Status-word width (group capacity).
    pub width: WordWidth,
    /// Hot path: pooled (default), tiled, or async.
    pub engine: CpuEngine,
    /// Edge-tile size; 0 = autotune.
    pub tile_size: usize,
    /// Vertex reordering applied at service build.
    pub reorder: ReorderKind,
    /// Online α/β direction autotuning.
    pub adaptive: bool,
}

impl CpuIbfs {
    /// Builds a resident [`CpuService`] (pool + arena spawned once) serving
    /// group after group against `csr`/`rev`.
    pub fn service<'g>(&self, csr: &'g Csr, rev: &'g Csr) -> CpuService<'g> {
        CpuService::new(csr, rev, CpuOptions {
            policy: self.policy,
            threads: self.threads,
            max_levels: self.max_levels,
            width: self.width,
            early_termination: true,
            per_level_reset: false,
            engine: self.engine,
            tile_size: self.tile_size,
            reorder: self.reorder,
            adaptive: self.adaptive,
        })
    }

    /// Runs one group through a transient service. Prefer
    /// [`CpuIbfs::service`] + [`CpuService::run_group`] when running many
    /// groups, which reuses the pool and arena.
    pub fn run_group(
        &self,
        csr: &Csr,
        rev: &Csr,
        sources: &[VertexId],
    ) -> Result<CpuRun, RequestError> {
        self.service(csr, rev).run_group(sources)
    }
}

/// The MS-BFS baseline on CPUs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuMsBfs {
    /// Direction-switch policy (group-wide).
    pub policy: DirectionPolicy,
    /// Worker threads; 0 = all available.
    pub threads: usize,
    /// Cap on traversal levels; 0 means unlimited.
    pub max_levels: u32,
    /// Status-word width (group capacity).
    pub width: WordWidth,
}

impl CpuMsBfs {
    /// Builds a resident [`CpuService`] running MS-BFS semantics (no early
    /// termination, per-level visit-map sweep).
    pub fn service<'g>(&self, csr: &'g Csr, rev: &'g Csr) -> CpuService<'g> {
        CpuService::new(csr, rev, CpuOptions {
            policy: self.policy,
            threads: self.threads,
            max_levels: self.max_levels,
            width: self.width,
            early_termination: false,
            per_level_reset: true,
            // MS-BFS is the fixed level-synchronous baseline of Figure 22;
            // it never runs tiled, async, reordered, or adaptive.
            engine: CpuEngine::Pooled,
            tile_size: 0,
            reorder: ReorderKind::None,
            adaptive: false,
        })
    }

    /// Runs one group through a transient service; see
    /// [`CpuIbfs::run_group`].
    pub fn run_group(
        &self,
        csr: &Csr,
        rev: &Csr,
        sources: &[VertexId],
    ) -> Result<CpuRun, RequestError> {
        self.service(csr, rev).run_group(sources)
    }
}

/// Counters accumulated by a [`CpuService`] across its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Groups served.
    pub groups: u64,
    /// BFS levels executed.
    pub levels: u64,
    /// Chunks marked dirty by traversal (identification visits exactly
    /// these).
    pub chunks_touched: u64,
    /// Full O(n) sweeps (MS-BFS visit-map maintenance and top-down →
    /// bottom-up switches).
    pub full_sweeps: u64,
    /// Degree-balanced steal chunks claimed in top-down phases.
    pub td_chunks: u64,
    /// Degree-balanced steal chunks claimed in bottom-up phases.
    pub bu_chunks: u64,
    /// Edge tiles built for tiled top-down phases.
    pub tiles_built: u64,
    /// Frontier vertices whose edge list split into more than one tile.
    pub tile_split_vertices: u64,
    /// Sum over traversal phases of the busiest lane's steal-chunk claims.
    /// With `td_chunks + bu_chunks` this yields the steal-balance ratio
    /// (`max_lane * threads / total`, 1.0 = perfectly even).
    pub steal_max_chunks: u64,
    /// FIFO items processed by the async engine.
    pub async_items: u64,
    /// Successful CAS-min depth relaxations in the async engine.
    pub async_relaxed: u64,
    /// Levels whose frontier was normalized through the dense bitmap.
    pub dense_levels: u64,
    /// Levels that kept the sparse lane-order queue.
    pub sparse_levels: u64,
    /// Microseconds spent in top-down traversal phases (tuner input).
    pub td_micros: u64,
    /// Microseconds spent in bottom-up traversal phases (tuner input).
    pub bu_micros: u64,
    /// α/β retunes applied by the adaptive direction tuner.
    pub retunes: u64,
    /// Current effective α in milli-units (`u64::MAX` for +inf); 0 until
    /// the first group runs with the tuner attached.
    pub tuned_alpha_milli: u64,
    /// Current effective β in milli-units; 0 until the first tuned group.
    pub tuned_beta_milli: u64,
}

/// Point-in-time view of a service's counters, including its pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStatsSnapshot {
    /// Engine counters.
    pub stats: CpuStats,
    /// Barrier-synced phases dispatched on the pool.
    pub pool_phases: u64,
    /// Pool lanes (including the caller's lane 0).
    pub pool_threads: usize,
    /// OS threads the pool owns (`pool_threads - 1`).
    pub os_threads: usize,
}

/// Per-vertex-chunk range, clipped to `n`.
#[inline]
fn chunk_range(c: usize, n: usize) -> std::ops::Range<usize> {
    (c << CHUNK_BITS)..(((c + 1) << CHUNK_BITS).min(n))
}

/// Width-specific resident status arrays.
struct Arena<A> {
    cur: Vec<A>,
    next: Vec<A>,
}

impl<A: AtomicStatus> Arena<A> {
    fn new(n: usize) -> Self {
        Arena {
            cur: (0..n).map(|_| A::zeroed()).collect(),
            next: (0..n).map(|_| A::zeroed()).collect(),
        }
    }
}

enum ArenaAny {
    W32(Arena<AtomicW32>),
    W64(Arena<AtomicW64>),
    W128(Arena<AtomicW128>),
    W256(Arena<AtomicW256>),
}

/// Per-lane scratch, locked by its own lane for the duration of a phase.
#[derive(Default)]
struct LaneScratch {
    queue: Vec<VertexId>,
    unfinished: Vec<VertexId>,
    new_marked: u64,
    new_edges: u64,
}

/// Width-independent resident scratch.
struct Scratch {
    lanes: Vec<Mutex<LaneScratch>>,
    /// Per chunk: the epoch (global level counter) that last dirtied it.
    touched_epoch: Vec<AtomicU64>,
    /// This level's dirty chunks, ascending.
    touched: Vec<u32>,
    /// Chunks dirtied at any point of the current group (for cleanup).
    ever: Vec<bool>,
    ever_list: Vec<u32>,
    queue: Vec<VertexId>,
    next_queue: Vec<VertexId>,
    /// Degree-balanced steal-chunk boundaries into `queue` (or, in tiled
    /// top-down phases, into `tiles`).
    bounds: Vec<(u32, u32)>,
    /// Tiled top-down work list, rebuilt per level from `queue`.
    tiles: Vec<EdgeTile>,
    cursor: ChunkCursor,
    /// Per-lane claim counts for the steal-balance metric.
    tally: ClaimTally,
    /// Dense frontier bitmap (one bit per vertex), used to normalize
    /// high-occupancy queues to ascending order (see
    /// [`DENSE_FRONTIER_DIV`]). Allocated lazily on the first dense level.
    bitmap: Vec<u64>,
    /// Vertex-major depth table: cell `v * ni + j` is instance `j`'s depth
    /// of vertex `v`. All [`DEPTH_UNVISITED`] between groups (the finalize
    /// pass resets what it reads). Grown lazily by the first group that
    /// needs more cells, so service construction does not pay for it.
    vm: Vec<Depth>,
}

impl Scratch {
    fn new(n: usize, threads: usize) -> Self {
        let num_chunks = n.div_ceil(CHUNK);
        Scratch {
            lanes: (0..threads).map(|_| Mutex::new(LaneScratch::default())).collect(),
            touched_epoch: (0..num_chunks).map(|_| AtomicU64::new(0)).collect(),
            touched: Vec::new(),
            ever: vec![false; num_chunks],
            ever_list: Vec::new(),
            queue: Vec::new(),
            next_queue: Vec::new(),
            bounds: Vec::new(),
            tiles: Vec::new(),
            cursor: ChunkCursor::default(),
            tally: ClaimTally::new(threads),
            bitmap: Vec::new(),
            vm: Vec::new(),
        }
    }
}

/// A depth table shared by the lanes of one phase.
///
/// Lanes touch disjoint cells: every chunk is claimed by exactly one lane,
/// a vertex belongs to exactly one chunk, and a lane only touches the
/// cells of vertices in its chunks (for the reorder map, of their images
/// under the permutation, which is a bijection).
#[derive(Clone, Copy)]
struct DepthTable(*mut Depth);

// SAFETY: see the type docs — cells are disjoint by chunk ownership, and
// a cell written in one phase is only read after the phase barrier.
unsafe impl Send for DepthTable {}
unsafe impl Sync for DepthTable {}

impl DepthTable {
    /// # Safety
    /// `idx` must be in bounds and touched by at most one lane per phase.
    #[inline]
    unsafe fn set(&self, idx: usize, d: Depth) {
        unsafe { *self.0.add(idx) = d };
    }

    /// # Safety
    /// As [`DepthTable::set`].
    #[inline]
    unsafe fn get(&self, idx: usize) -> Depth {
        unsafe { *self.0.add(idx) }
    }

    /// Sets cells `idx..idx + len` to [`DEPTH_UNVISITED`].
    ///
    /// # Safety
    /// As [`DepthTable::set`], for every cell of the range.
    #[inline]
    unsafe fn clear(&self, idx: usize, len: usize) {
        unsafe { std::ptr::write_bytes(self.0.add(idx), DEPTH_UNVISITED, len) };
    }
}

/// Splits `queue` into degree-balanced contiguous chunks (weight
/// `deg(v) + 1`), appended to `bounds` as `(start, end)` index pairs.
fn build_bounds(
    queue: &[VertexId],
    deg: impl Fn(VertexId) -> u64,
    threads: usize,
    chunks_per_lane: usize,
    bounds: &mut Vec<(u32, u32)>,
) {
    build_weighted_bounds(
        queue.len(),
        |i| deg(queue[i]) + 1,
        threads,
        chunks_per_lane,
        bounds,
    );
}

/// Picks the steal-chunk count per lane from the degree histogram: the
/// more the maximum degree dominates the average (power-law skew), the
/// finer the chunks, so a lane that lands on hub-adjacent work leaves
/// more chunks for the others to steal.
fn autotune_chunks_per_lane(csr: &Csr) -> usize {
    let hist = ibfs_graph::degree::log2_degree_histogram(csr);
    if hist.is_empty() {
        return STEAL_CHUNKS_PER_LANE;
    }
    let max_degree = 1u64 << (hist.len() - 1);
    let skew = max_degree as f64 / csr.avg_degree().max(1.0);
    if skew >= 64.0 {
        4 * STEAL_CHUNKS_PER_LANE
    } else if skew >= 8.0 {
        2 * STEAL_CHUNKS_PER_LANE
    } else {
        STEAL_CHUNKS_PER_LANE
    }
}

/// The relabeled graphs and permutation a reordered service runs on.
/// Built once at [`CpuService::new`]; the borrowed originals stay the
/// admission/result space.
struct Reordered {
    csr: Csr,
    rev: Csr,
    perm: VertexPerm,
}

/// A resident CPU traversal service: persistent pool + reusable arena
/// serving group after group against one graph.
pub struct CpuService<'g> {
    csr: &'g Csr,
    rev: &'g Csr,
    opts: CpuOptions,
    pool: WorkerPool,
    arena: ArenaAny,
    scratch: Scratch,
    stats: CpuStats,
    /// The edge-tiling policy: explicit [`CpuOptions::tile_size`] or
    /// autotuned from the degree histogram at construction.
    plan: TilePlan,
    /// Steal chunks per lane, autotuned from degree skew.
    chunks_per_lane: usize,
    /// Monotone level counter tagging dirty chunks; never reset, so marks
    /// from earlier groups can never alias a current level.
    epoch: u64,
    /// When set, every phase of every level records per-lane
    /// [`PhaseRecord`](ibfs_obs::PhaseRecord)s into it.
    profiler: Option<Arc<EngineProfiler>>,
    /// Relabeled graphs + permutation when [`CpuOptions::reorder`] is set.
    reordered: Option<Box<Reordered>>,
    /// Online α/β tuner when [`CpuOptions::adaptive`] is set.
    tuner: Option<DirectionTuner>,
}

impl<'g> CpuService<'g> {
    /// Spawns the pool and allocates the arena. `rev` must be
    /// `csr.reverse()` (pass the same graph when symmetric).
    pub fn new(csr: &'g Csr, rev: &'g Csr, mut opts: CpuOptions) -> Self {
        if opts.threads == 0 {
            opts.threads = available_threads();
        }
        let n = csr.num_vertices();
        let arena = match opts.width {
            WordWidth::W32 => ArenaAny::W32(Arena::new(n)),
            WordWidth::W64 => ArenaAny::W64(Arena::new(n)),
            WordWidth::W128 => ArenaAny::W128(Arena::new(n)),
            WordWidth::W256 => ArenaAny::W256(Arena::new(n)),
        };
        // Relabel once at build: every group then runs in permuted space
        // against the relabeled CSR pair; the borrowed originals stay the
        // admission and result space. Degrees are permutation-invariant,
        // so the tile plan and steal-chunk autotuners see the same
        // histogram either way.
        let reordered = VertexPerm::build(opts.reorder, csr, REORDER_SEED).map(|perm| {
            let rcsr = perm.apply(csr);
            let rrev = rcsr.reverse();
            Box::new(Reordered { csr: rcsr, rev: rrev, perm })
        });
        let plan = if opts.tile_size > 0 {
            TilePlan::uniform(opts.tile_size)
        } else {
            TilePlan::autotune(csr)
        };
        CpuService {
            csr,
            rev,
            opts,
            pool: WorkerPool::new(opts.threads),
            arena,
            scratch: Scratch::new(n, opts.threads),
            stats: CpuStats::default(),
            plan,
            chunks_per_lane: autotune_chunks_per_lane(csr),
            epoch: 0,
            profiler: None,
            reordered,
            tuner: opts.adaptive.then(|| DirectionTuner::new(opts.policy)),
        }
    }

    /// Attaches a profiler: every subsequent group records per-lane,
    /// per-level phase timings (and synthesized barrier waits) into it.
    pub fn set_profiler(&mut self, profiler: Arc<EngineProfiler>) {
        self.profiler = Some(profiler);
    }

    /// The resolved tiling policy (explicit or autotuned).
    pub fn tile_plan(&self) -> &TilePlan {
        &self.plan
    }

    /// The resolved steal-chunk count per lane.
    pub fn chunks_per_lane(&self) -> usize {
        self.chunks_per_lane
    }

    /// Instances one group can hold (`min(CPU_GROUP, width.bits())`).
    pub fn capacity(&self) -> usize {
        CPU_GROUP.min(self.opts.width.bits() as usize)
    }

    /// The resolved options (threads filled in).
    pub fn options(&self) -> &CpuOptions {
        &self.opts
    }

    /// The persistent pool (spawned once, at construction).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Counters accumulated so far, including pool phase counts.
    pub fn stats(&self) -> CpuStatsSnapshot {
        CpuStatsSnapshot {
            stats: self.stats,
            pool_phases: self.pool.phases_run(),
            pool_threads: self.pool.threads(),
            os_threads: self.pool.spawned_threads(),
        }
    }

    /// Adds the service's lifetime counters to `registry` under the
    /// `ibfs_cpu_*` families. Call once per service (the values are
    /// lifetime totals, not deltas).
    pub fn record_metrics(&self, registry: &ibfs_obs::Registry) {
        let s = self.stats();
        registry.counter("ibfs_cpu_groups_total").add(s.stats.groups);
        registry.counter("ibfs_cpu_levels_total").add(s.stats.levels);
        registry.counter("ibfs_cpu_chunks_touched_total").add(s.stats.chunks_touched);
        registry.counter("ibfs_cpu_full_sweeps_total").add(s.stats.full_sweeps);
        registry.counter("ibfs_cpu_steal_chunks_total").add(s.stats.td_chunks + s.stats.bu_chunks);
        registry.counter("ibfs_cpu_pool_phases_total").add(s.pool_phases);
        registry.gauge("ibfs_cpu_pool_threads").set(s.pool_threads as f64);
        // Round-2 families: tiling, steal balance, async progress.
        registry.gauge("ibfs_cpu_tile_size").set(self.plan.tile_size() as f64);
        registry.counter("ibfs_cpu_tile_built_total").add(s.stats.tiles_built);
        registry
            .counter("ibfs_cpu_tile_split_vertices_total")
            .add(s.stats.tile_split_vertices);
        let total_chunks = s.stats.td_chunks + s.stats.bu_chunks;
        // Balance ratio: busiest lane's share of claims vs a perfectly even
        // split. 1.0 = even; `threads` = one lane claimed everything.
        let balance = if total_chunks > 0 {
            s.stats.steal_max_chunks as f64 * s.pool_threads as f64 / total_chunks as f64
        } else {
            0.0
        };
        registry.gauge("ibfs_cpu_steal_balance").set(balance);
        registry.counter("ibfs_cpu_async_items_total").add(s.stats.async_items);
        registry.counter("ibfs_cpu_async_relaxed_total").add(s.stats.async_relaxed);
        // Round-3 families: locality (reordering, frontier rep) and the
        // adaptive direction tuner.
        registry
            .gauge(&ibfs_obs::labeled("ibfs_cpu_reorder", &[("kind", self.opts.reorder.name())]))
            .set(1.0);
        registry.counter("ibfs_cpu_dense_levels_total").add(s.stats.dense_levels);
        registry.counter("ibfs_cpu_sparse_levels_total").add(s.stats.sparse_levels);
        registry.counter("ibfs_cpu_retunes_total").add(s.stats.retunes);
        if s.stats.tuned_alpha_milli > 0 && s.stats.tuned_alpha_milli != u64::MAX {
            registry.gauge("ibfs_cpu_tuned_alpha").set(s.stats.tuned_alpha_milli as f64 / 1000.0);
            registry.gauge("ibfs_cpu_tuned_beta").set(s.stats.tuned_beta_milli as f64 / 1000.0);
        }
    }

    /// Validates a group without running it.
    pub fn admit(&self, sources: &[VertexId]) -> Result<(), RequestError> {
        admit_sources(sources, self.csr.num_vertices())?;
        let capacity = self.capacity();
        if sources.len() > capacity {
            return Err(RequestError::GroupTooLarge { size: sources.len(), capacity });
        }
        Ok(())
    }

    /// Serves one group of up to [`CpuService::capacity`] instances,
    /// reusing the pool and arena. Duplicate sources are allowed (each gets
    /// its own instance bit).
    pub fn run_group(&mut self, sources: &[VertexId]) -> Result<CpuRun, RequestError> {
        self.admit(sources)?;
        let mut opts = self.opts;
        if let Some(t) = &self.tuner {
            // Adaptive mode: this group runs under the tuner's current
            // α/β. Depths are invariant to the direction schedule, so no
            // tuner state can change a result bit.
            opts.policy = t.policy();
        }
        let prof = self.profiler.as_deref();
        // One timeline track for this group's source map-in (the engine run
        // opens its own, which carries the depth map-out).
        let map_track = match (&self.reordered, prof) {
            (Some(_), Some(p)) => p.open_track(),
            _ => 0,
        };
        // Map the group into permuted space: one lookup per instance.
        let mapped: Vec<VertexId>;
        let (csr, rev, run_sources): (&Csr, &Csr, &[VertexId]) = match &self.reordered {
            Some(r) => {
                let t0 = prof.map(|p| p.begin());
                mapped = r.perm.map_sources(sources);
                if let (Some(p), Some(t0)) = (prof, t0) {
                    p.record(
                        map_track,
                        0,
                        0,
                        ProfPhase::MapIn,
                        t0.start_s(),
                        t0.elapsed_s(),
                        sources.len() as u64,
                        0,
                    );
                }
                (&r.csr, &r.rev, &mapped)
            }
            None => (self.csr, self.rev, sources),
        };
        let pool = &self.pool;
        let stats = &mut self.stats;
        let tuner_before = (stats.td_micros, stats.td_chunks, stats.bu_micros, stats.bu_chunks);
        // Both engines write their result table in original vertex ids.
        let perm = self.reordered.as_ref().map(|r| r.perm.perm());
        let run = if opts.engine == CpuEngine::Async {
            // The async engine owns its depth words; the arena and the
            // level-loop scratch never come into play.
            crate::asyncq::run_async(csr, &opts, pool, &self.plan, stats, prof, run_sources, perm)
        } else {
            let scratch = &mut self.scratch;
            let epoch = &mut self.epoch;
            let cx = RunCx { plan: &self.plan, chunks_per_lane: self.chunks_per_lane, prof, perm };
            match &self.arena {
                ArenaAny::W32(a) => run_width(csr, rev, opts, pool, a, scratch, stats, epoch, cx, run_sources),
                ArenaAny::W64(a) => run_width(csr, rev, opts, pool, a, scratch, stats, epoch, cx, run_sources),
                ArenaAny::W128(a) => run_width(csr, rev, opts, pool, a, scratch, stats, epoch, cx, run_sources),
                ArenaAny::W256(a) => run_width(csr, rev, opts, pool, a, scratch, stats, epoch, cx, run_sources),
            }
        };
        debug_assert_eq!(
            run.traversed_edges,
            crate::engine::traversed_edges_for(self.csr, &run.depths, run.num_instances),
            "traversed_edges disagrees with the depth table"
        );
        if let Some(t) = &mut self.tuner {
            let (td0, tdc0, bu0, buc0) = tuner_before;
            let s = &mut self.stats;
            let moved = t.observe(
                (s.td_micros - td0) as f64 * 1e-6,
                s.td_chunks - tdc0,
                (s.bu_micros - bu0) as f64 * 1e-6,
                s.bu_chunks - buc0,
            );
            let policy = t.policy();
            if moved {
                s.retunes = t.retunes();
                if let Some(p) = prof {
                    let t0 = p.begin();
                    p.record(
                        map_track,
                        0,
                        0,
                        ProfPhase::Retune,
                        t0.start_s(),
                        0.0,
                        milli(policy.alpha),
                        milli(policy.beta),
                    );
                }
            }
            s.tuned_alpha_milli = milli(policy.alpha);
            s.tuned_beta_milli = milli(policy.beta);
        }
        Ok(run)
    }
}

/// `α`/`β` in milli-units for the u64-only stats and profiler counters
/// (`+inf` saturates to `u64::MAX`).
fn milli(x: f64) -> u64 {
    if x.is_finite() { (x * 1000.0).round() as u64 } else { u64::MAX }
}

/// Autotuned per-service parameters threaded into the level loop.
#[derive(Clone, Copy)]
struct RunCx<'p> {
    plan: &'p TilePlan,
    chunks_per_lane: usize,
    /// Optional phase profiler (None costs one branch per phase).
    prof: Option<&'p EngineProfiler>,
    /// Old → new vertex map of a reordered service, applied by the
    /// finalize pass so results leave in original vertex ids.
    perm: Option<&'p [VertexId]>,
}

/// The width-generic pooled level loop. See the module docs for the
/// dirty-chunk invariant this maintains and the vertex-major depth table
/// it records into.
#[allow(clippy::too_many_arguments)]
fn run_width<A: AtomicStatus>(
    csr: &Csr,
    rev: &Csr,
    opts: CpuOptions,
    pool: &WorkerPool,
    arena: &Arena<A>,
    scratch: &mut Scratch,
    stats: &mut CpuStats,
    epoch: &mut u64,
    cx: RunCx<'_>,
    sources: &[VertexId],
) -> CpuRun {
    let ni = sources.len();
    let n = csr.num_vertices();
    let num_chunks = n.div_ceil(CHUNK);
    let total_edges = csr.num_edges() as u64;
    let full = A::Word::low_mask(ni as u32);
    let threads = pool.threads();
    let chunks_per_lane = cx.chunks_per_lane;
    let tiled = opts.engine == CpuEngine::Tiled;

    let start = Instant::now();
    // One timeline track (Chrome `pid`) per group run.
    let track = cx.prof.map(|p| p.open_track()).unwrap_or(0);
    let mut level_seconds: Vec<f64> = Vec::new();
    let (cur, next): (&[A], &[A]) = (&arena.cur, &arena.next);
    // The resident vertex-major table grows to the widest group served so
    // far; every cell past what earlier groups used is still unvisited.
    if scratch.vm.len() < n * ni {
        scratch.vm.resize(n * ni, DEPTH_UNVISITED);
    }

    for (j, &s) in sources.iter().enumerate() {
        cur[s as usize].fetch_or(A::Word::bit(j as u32));
        scratch.vm[s as usize * ni + j] = 0;
    }
    scratch.queue.clear();
    scratch.queue.extend_from_slice(sources);
    scratch.queue.sort_unstable();
    scratch.queue.dedup();
    for &s in &scratch.queue {
        let v = s as usize;
        next[v].store(cur[v].load());
        let c = v >> CHUNK_BITS;
        if !scratch.ever[c] {
            scratch.ever[c] = true;
            scratch.ever_list.push(c as u32);
        }
    }

    let mut direction = Direction::TopDown;
    let mut frontier_edges: u64 = sources.iter().map(|&s| csr.out_degree(s) as u64).sum();
    // Out-degrees of every (instance, vertex) pair visited so far: the
    // run's `traversed_edges`, since each pair is identified exactly once.
    let mut visited_edges = frontier_edges;

    let level_cap = if opts.max_levels == 0 {
        crate::sequential::MAX_LEVELS
    } else {
        opts.max_levels.min(crate::sequential::MAX_LEVELS)
    };
    for level in 1..=level_cap {
        if scratch.queue.is_empty() {
            break;
        }
        let level_start = Instant::now();
        // Adaptive frontier representation: a high-occupancy frontier is
        // normalized to ascending vertex order through a dense bitmap
        // (O(n/64 + frontier)), so this level's CSR walk is
        // near-sequential instead of lane-concatenation order. Frontiers
        // are duplicate-free sets, so this is a pure reorder — the level's
        // OR-relaxations are order-free and results cannot move.
        if scratch.queue.len() * DENSE_FRONTIER_DIV >= n && scratch.queue.len() > 1 {
            scratch.bitmap.clear();
            scratch.bitmap.resize(n.div_ceil(64), 0);
            for &v in &scratch.queue {
                scratch.bitmap[v as usize >> 6] |= 1u64 << (v & 63);
            }
            scratch.queue.clear();
            for (wi, &word) in scratch.bitmap.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros();
                    scratch.queue.push((wi as u32) * 64 + b);
                    word &= word - 1;
                }
            }
            stats.dense_levels += 1;
        } else {
            stats.sparse_levels += 1;
        }
        let depth = level as Depth;
        *epoch += 1;
        let tag = *epoch;

        if opts.per_level_reset {
            // MS-BFS maintains an extra visit map each level: model the
            // cost with one more full sweep over the words, on the pool
            // (the baseline paid a thread-spawn wave on top of this sweep;
            // the modeled cost is the sweep alone).
            scratch.cursor.reset();
            let chunks = n.div_ceil(CHUNK);
            let cursor = &scratch.cursor;
            pool.run_profiled(cx.prof, track, level as u64, ProfPhase::StatusSweep, |_lane| {
                let mut claimed = 0u64;
                while let Some(c) = cursor.claim(chunks) {
                    claimed += 1;
                    for v in chunk_range(c, n) {
                        let w = next[v].load();
                        next[v].store(w);
                    }
                }
                (claimed, claimed + 1)
            });
            stats.full_sweeps += 1;
        }

        // Traversal: degree-balanced steal chunks over the frontier.
        let traversal_start = Instant::now();
        match direction {
            Direction::TopDown if tiled => {
                // Tiled: expand the frontier into edge tiles so a hub's
                // list spreads across lanes, then balance over tiles. The
                // OR-relaxation is order-free, so this produces exactly
                // the pooled engine's updates.
                let split = build_frontier_tiles(
                    &scratch.queue,
                    |v| csr.out_degree(v),
                    cx.plan,
                    &mut scratch.tiles,
                );
                build_tile_bounds(&scratch.tiles, threads, chunks_per_lane, &mut scratch.bounds);
                scratch.cursor.reset();
                stats.td_chunks += scratch.bounds.len() as u64;
                stats.tiles_built += scratch.tiles.len() as u64;
                stats.tile_split_vertices += split;
                let (tiles, bounds, cursor, tally) =
                    (&scratch.tiles, &scratch.bounds, &scratch.cursor, &scratch.tally);
                let touched = &scratch.touched_epoch;
                pool.run_profiled(cx.prof, track, level as u64, ProfPhase::TopDownExpand, |lane| {
                    while let Some(bi) = tally.claim(cursor, bounds.len(), lane) {
                        let (lo, hi) = bounds[bi];
                        for t in &tiles[lo as usize..hi as usize] {
                            let mask = cur[t.v as usize].load();
                            for &w in &csr.neighbors(t.v)[t.lo as usize..t.hi as usize] {
                                let wi = w as usize;
                                let old = next[wi].load();
                                if !mask.and(old.not()).is_zero() {
                                    let prev = next[wi].fetch_or(mask);
                                    if !mask.and(prev.not()).is_zero() {
                                        let c = wi >> CHUNK_BITS;
                                        if touched[c].load(Ordering::Relaxed) != tag {
                                            touched[c].store(tag, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let hits = tally.lane_count(lane);
                    (hits, hits + 1)
                });
                let (mx, _total) = scratch.tally.drain();
                stats.steal_max_chunks += mx;
            }
            Direction::TopDown => {
                build_bounds(
                    &scratch.queue,
                    |v| csr.out_degree(v) as u64,
                    threads,
                    chunks_per_lane,
                    &mut scratch.bounds,
                );
                scratch.cursor.reset();
                stats.td_chunks += scratch.bounds.len() as u64;
                let (queue, bounds, cursor, tally) =
                    (&scratch.queue, &scratch.bounds, &scratch.cursor, &scratch.tally);
                let touched = &scratch.touched_epoch;
                pool.run_profiled(cx.prof, track, level as u64, ProfPhase::TopDownExpand, |lane| {
                    while let Some(bi) = tally.claim(cursor, bounds.len(), lane) {
                        let (lo, hi) = bounds[bi];
                        for &f in &queue[lo as usize..hi as usize] {
                            let mask = cur[f as usize].load();
                            for &w in csr.neighbors(f) {
                                let wi = w as usize;
                                let old = next[wi].load();
                                if !mask.and(old.not()).is_zero() {
                                    let prev = next[wi].fetch_or(mask);
                                    if !mask.and(prev.not()).is_zero() {
                                        let c = wi >> CHUNK_BITS;
                                        if touched[c].load(Ordering::Relaxed) != tag {
                                            touched[c].store(tag, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    let hits = tally.lane_count(lane);
                    (hits, hits + 1)
                });
                let (mx, _total) = scratch.tally.drain();
                stats.steal_max_chunks += mx;
            }
            Direction::BottomUp => {
                // Bottom-up stays vertex-granular in every engine: the
                // accumulate-then-store below relies on a single writer
                // per frontier word, which edge tiles would break.
                build_bounds(
                    &scratch.queue,
                    |v| rev.out_degree(v) as u64,
                    threads,
                    chunks_per_lane,
                    &mut scratch.bounds,
                );
                scratch.cursor.reset();
                stats.bu_chunks += scratch.bounds.len() as u64;
                let (queue, bounds, cursor, tally) =
                    (&scratch.queue, &scratch.bounds, &scratch.cursor, &scratch.tally);
                let touched = &scratch.touched_epoch;
                let lanes = &scratch.lanes;
                let early = opts.early_termination;
                pool.run_profiled(cx.prof, track, level as u64, ProfPhase::BottomUpSweep, |lane| {
                    let mut st = lanes[lane].lock().unwrap();
                    while let Some(bi) = tally.claim(cursor, bounds.len(), lane) {
                        let (lo, hi) = bounds[bi];
                        for &f in &queue[lo as usize..hi as usize] {
                            let fi = f as usize;
                            // Only the claiming lane writes f's word.
                            let init = next[fi].load();
                            let mut acc = init;
                            for &p in rev.neighbors(f) {
                                if early && acc.and(full) == full {
                                    break;
                                }
                                acc = acc.or(cur[p as usize].load());
                            }
                            if acc != init {
                                next[fi].store(acc);
                                let c = fi >> CHUNK_BITS;
                                if touched[c].load(Ordering::Relaxed) != tag {
                                    touched[c].store(tag, Ordering::Relaxed);
                                }
                            }
                            if acc.and(full) != full {
                                // The unfinished set only shrinks during
                                // bottom-up, so survivors of this queue ARE
                                // the next bottom-up queue.
                                st.unfinished.push(f);
                            }
                        }
                    }
                    drop(st);
                    let hits = tally.lane_count(lane);
                    (hits, hits + 1)
                });
                let (mx, _total) = scratch.tally.drain();
                stats.steal_max_chunks += mx;
            }
        }
        // Per-direction wall time feeds the α/β autotuner (and the
        // td/bu breakdown in the stats snapshot).
        let traversal_micros = traversal_start.elapsed().as_micros() as u64;
        match direction {
            Direction::TopDown => stats.td_micros += traversal_micros,
            Direction::BottomUp => stats.bu_micros += traversal_micros,
        }

        // Collect this level's dirty chunks, ascending.
        scratch.touched.clear();
        for c in 0..num_chunks {
            if scratch.touched_epoch[c].load(Ordering::Relaxed) == tag {
                scratch.touched.push(c as u32);
                if !scratch.ever[c] {
                    scratch.ever[c] = true;
                    scratch.ever_list.push(c as u32);
                }
            }
        }
        stats.chunks_touched += scratch.touched.len() as u64;

        // Identification: diff words, record depths, build the top-down
        // frontier, and catch `cur` up with `next` — touched chunks only.
        scratch.cursor.reset();
        {
            let (touched_list, cursor, lanes) =
                (&scratch.touched, &scratch.cursor, &scratch.lanes);
            let vm = DepthTable(scratch.vm.as_mut_ptr());
            pool.run_profiled(cx.prof, track, level as u64, ProfPhase::Identify, |lane| {
                let mut claimed = 0u64;
                let mut st = lanes[lane].lock().unwrap();
                while let Some(i) = cursor.claim(touched_list.len()) {
                    claimed += 1;
                    for v in chunk_range(touched_list[i] as usize, n) {
                        let old = cur[v].load();
                        let new = next[v].load();
                        let diff = new.and(old.not());
                        if !diff.is_zero() {
                            // This lane owns `v`, and no lane reads `cur`
                            // again before the next level's traversal.
                            cur[v].store(new);
                            for j in diff.iter_ones() {
                                // SAFETY: this lane claimed chunk
                                // `touched_list[i]` exclusively, so the
                                // row of `v` has a single writer.
                                unsafe { vm.set(v * ni + j as usize, depth) };
                            }
                            let marked = diff.count_ones() as u64;
                            st.new_marked += marked;
                            st.new_edges += marked * csr.out_degree(v as VertexId) as u64;
                            st.queue.push(v as VertexId);
                        }
                    }
                }
                drop(st);
                (claimed, claimed + 1)
            });
        }

        let queue_build_start = cx.prof.map(|p| p.begin());
        let mut new_marked = 0u64;
        let mut new_edges = 0u64;
        for lane in &scratch.lanes {
            let mut st = lane.lock().unwrap();
            new_marked += st.new_marked;
            new_edges += st.new_edges;
            st.new_marked = 0;
            st.new_edges = 0;
        }
        visited_edges += new_edges;
        frontier_edges = new_edges;

        let next_direction = opts.policy.next(
            direction,
            frontier_edges,
            new_marked,
            (total_edges * ni as u64).saturating_sub(visited_edges),
            (n * ni) as u64,
        );
        scratch.next_queue.clear();
        match next_direction {
            Direction::TopDown => {
                for lane in &scratch.lanes {
                    let mut st = lane.lock().unwrap();
                    scratch.next_queue.extend_from_slice(&st.queue);
                    st.queue.clear();
                    st.unfinished.clear();
                }
            }
            Direction::BottomUp => {
                if direction == Direction::BottomUp {
                    // Survivors recorded during traversal.
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        scratch.next_queue.extend_from_slice(&st.unfinished);
                        st.unfinished.clear();
                        st.queue.clear();
                    }
                } else {
                    // Direction switch: one full sweep builds the
                    // unfinished set (the only O(n) pass outside MS-BFS
                    // mode, paid once per top-down → bottom-up switch).
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        st.queue.clear();
                        st.unfinished.clear();
                    }
                    scratch.cursor.reset();
                    let chunks = n.div_ceil(CHUNK);
                    let (lanes, cursor) = (&scratch.lanes, &scratch.cursor);
                    pool.run(|lane| {
                        let mut st = lanes[lane].lock().unwrap();
                        while let Some(c) = cursor.claim(chunks) {
                            for v in chunk_range(c, n) {
                                if next[v].load().and(full) != full {
                                    st.unfinished.push(v as VertexId);
                                }
                            }
                        }
                    });
                    stats.full_sweeps += 1;
                    for lane in &scratch.lanes {
                        let mut st = lane.lock().unwrap();
                        scratch.next_queue.extend_from_slice(&st.unfinished);
                        st.unfinished.clear();
                    }
                }
            }
        }
        if let (Some(p), Some(qb)) = (cx.prof, queue_build_start) {
            // Caller-measured: the sequential drain + assembly runs on the
            // coordinator lane only (includes the direction-switch sweep).
            p.record(
                track,
                0,
                level as u64,
                ProfPhase::QueueBuild,
                qb.start_s(),
                qb.elapsed_s(),
                scratch.next_queue.len() as u64,
                new_marked,
            );
        }
        direction = next_direction;
        std::mem::swap(&mut scratch.queue, &mut scratch.next_queue);
        level_seconds.push(level_start.elapsed().as_secs_f64());
        if new_marked == 0 {
            break;
        }
    }

    let end_level = level_seconds.len() as u64;
    let depths = finalize_depths(pool, scratch, cx, track, end_level, n, ni);

    // Cleanup: zero exactly the chunks this group dirtied, leaving the
    // arena all-zero for the next group without an O(n) clear.
    scratch.cursor.reset();
    {
        let (ever_list, cursor) = (&scratch.ever_list, &scratch.cursor);
        pool.run_profiled(cx.prof, track, end_level, ProfPhase::Cleanup, |_lane| {
            let mut claimed = 0u64;
            while let Some(i) = cursor.claim(ever_list.len()) {
                claimed += 1;
                for v in chunk_range(ever_list[i] as usize, n) {
                    cur[v].store(A::Word::zero());
                    next[v].store(A::Word::zero());
                }
            }
            (claimed, claimed + 1)
        });
    }
    for &c in &scratch.ever_list {
        scratch.ever[c as usize] = false;
    }
    scratch.ever_list.clear();
    scratch.touched.clear();
    scratch.queue.clear();

    stats.levels += level_seconds.len() as u64;
    stats.groups += 1;

    CpuRun {
        num_instances: ni,
        num_vertices: n,
        depths,
        wall_seconds: start.elapsed().as_secs_f64(),
        traversed_edges: visited_edges,
        level_seconds,
    }
}

/// Vertices per transpose block of [`finalize_depths`]: a block reads
/// `FINALIZE_BLOCK` rows of the vertex-major table (4 KiB at 64 instances,
/// L1-resident) and writes `FINALIZE_BLOCK` contiguous cells of each
/// instance's output row.
const FINALIZE_BLOCK: usize = 64;

/// The finalize pass: transposes the vertex-major table into the returned
/// `[instance][vertex]` table, `out[j * n + old] = vm[perm[old] * ni + j]`
/// (`perm` the identity when the service is not reordered), and resets
/// every row it reads, leaving the resident table all-unvisited for the
/// next group. Chunk-claimed on the pool, blocked by [`FINALIZE_BLOCK`].
fn finalize_depths(
    pool: &WorkerPool,
    scratch: &mut Scratch,
    cx: RunCx<'_>,
    track: u64,
    level: u64,
    n: usize,
    ni: usize,
) -> Vec<Depth> {
    // A zeroed allocation costs no memset; the pass writes every cell.
    let mut depths: Vec<Depth> = vec![0; ni * n];
    let out = DepthTable(depths.as_mut_ptr());
    let vm = DepthTable(scratch.vm.as_mut_ptr());
    let chunks = n.div_ceil(CHUNK);
    let perm = cx.perm;
    scratch.cursor.reset();
    let cursor = &scratch.cursor;
    pool.run_profiled(cx.prof, track, level, ProfPhase::MapOut, |_lane| {
        let mut cells = 0u64;
        let mut rows = [0usize; FINALIZE_BLOCK];
        while let Some(c) = cursor.claim(chunks) {
            let range = chunk_range(c, n);
            for lo in range.clone().step_by(FINALIZE_BLOCK) {
                let hi = (lo + FINALIZE_BLOCK).min(range.end);
                let rows = &mut rows[..hi - lo];
                for (row, old) in rows.iter_mut().zip(lo..hi) {
                    *row = perm.map_or(old, |p| p[old] as usize) * ni;
                }
                // SAFETY: this lane claimed chunk `c` exclusively, so it is
                // the only one touching output cells (j, lo..hi) and, perm
                // being a bijection, the vertex-major rows they map from.
                for j in 0..ni {
                    for (k, &row) in rows.iter().enumerate() {
                        unsafe { out.set(j * n + lo + k, vm.get(row + j)) };
                    }
                }
                for &row in rows.iter() {
                    unsafe { vm.clear(row, ni) };
                }
            }
            cells += (range.len() * ni) as u64;
        }
        (cells, ni as u64)
    });
    depths
}

/// Runs a whole source set on the CPU in groups of `group_size`, returning
/// per-group results. Used by the Figure 22 / Table 1 harnesses.
pub fn run_cpu_many<F>(sources: &[VertexId], group_size: usize, run: F) -> Vec<CpuRun>
where
    F: FnMut(&[VertexId]) -> CpuRun,
{
    assert!((1..=CPU_GROUP).contains(&group_size));
    sources.chunks(group_size).map(run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_graph::generators::{rmat, RmatParams};
    use ibfs_graph::suite::{figure1, FIGURE1_SOURCES};
    use ibfs_graph::validate::reference_bfs;

    #[test]
    fn cpu_ibfs_matches_reference_figure1() {
        let g = figure1();
        let r = g.reverse();
        let run = CpuIbfs::default().run_group(&g, &r, &FIGURE1_SOURCES).unwrap();
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
        assert!(run.wall_seconds > 0.0);
        assert!(!run.level_seconds.is_empty());
    }

    #[test]
    fn cpu_msbfs_matches_reference_figure1() {
        let g = figure1();
        let r = g.reverse();
        let run = CpuMsBfs::default().run_group(&g, &r, &FIGURE1_SOURCES).unwrap();
        for (j, &s) in FIGURE1_SOURCES.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
    }

    #[test]
    fn cpu_engines_match_reference_on_rmat() {
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..64).collect();
        for run in [
            CpuIbfs { threads: 3, ..Default::default() }.run_group(&g, &r, &sources).unwrap(),
            CpuMsBfs { threads: 3, ..Default::default() }.run_group(&g, &r, &sources).unwrap(),
        ] {
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.instance_depths(j),
                    &reference_bfs(&g, s)[..],
                    "source {s}"
                );
            }
            assert!(run.teps() > 0.0);
        }
    }

    #[test]
    fn every_width_matches_reference() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..30).collect();
        for width in WordWidth::all() {
            let run = CpuIbfs { width, threads: 2, ..Default::default() }
                .run_group(&g, &r, &sources)
                .unwrap();
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(
                    run.instance_depths(j),
                    &reference_bfs(&g, s)[..],
                    "width {width} source {s}"
                );
            }
        }
    }

    #[test]
    fn wide_word_runs_128_sources_in_one_group() {
        let g = rmat(8, 8, RmatParams::graph500(), 5);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..128).collect();
        let mut svc = CpuIbfs { width: WordWidth::W256, threads: 2, ..Default::default() }
            .service(&g, &r);
        assert_eq!(svc.capacity(), 256);
        let run = svc.run_group(&sources).unwrap();
        assert_eq!(run.num_instances, 128);
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..]);
        }
    }

    #[test]
    fn duplicate_sources_each_get_a_lane() {
        let g = figure1();
        let r = g.reverse();
        let run = CpuIbfs::default().run_group(&g, &r, &[0, 8, 0]).unwrap();
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
        assert_eq!(run.instance_depths(1), &reference_bfs(&g, 8)[..]);
        assert_eq!(run.instance_depths(2), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn single_thread_works() {
        let g = figure1();
        let r = g.reverse();
        let run = CpuIbfs { threads: 1, ..Default::default() }.run_group(&g, &r, &[0, 8]).unwrap();
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
        assert_eq!(run.instance_depths(1), &reference_bfs(&g, 8)[..]);
    }

    #[test]
    fn service_reuse_is_identical_across_groups() {
        // Arena reuse across groups must not leak state: run the same group
        // twice with a different group in between.
        let g = rmat(8, 8, RmatParams::graph500(), 31);
        let r = g.reverse();
        let mut svc = CpuIbfs { threads: 3, ..Default::default() }.service(&g, &r);
        let first = svc.run_group(&[0, 7, 40]).unwrap();
        let other = svc.run_group(&[99, 3]).unwrap();
        let again = svc.run_group(&[0, 7, 40]).unwrap();
        assert_eq!(first.depths, again.depths);
        assert_eq!(first.traversed_edges, again.traversed_edges);
        assert_eq!(other.num_instances, 2);
        assert_eq!(svc.stats().stats.groups, 3);
    }

    #[test]
    fn run_many_covers_all_sources() {
        let g = rmat(7, 8, RmatParams::graph500(), 23);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..40).collect();
        let mut svc = CpuIbfs::default().service(&g, &r);
        let runs = run_cpu_many(&sources, 16, |group| svc.run_group(group).unwrap());
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.iter().map(|r| r.num_instances).sum::<usize>(), 40);
        assert_eq!(runs[0].instance_depths(5), &reference_bfs(&g, 5)[..]);
    }

    #[test]
    fn rejects_oversized_group_with_typed_error() {
        // Regression: this used to be an assert! panic deep in run_cpu.
        let g = figure1();
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..65).map(|i| i % 9).collect();
        assert_eq!(
            CpuIbfs::default().run_group(&g, &r, &sources).unwrap_err(),
            RequestError::GroupTooLarge { size: 65, capacity: 64 }
        );
        // Width caps below CPU_GROUP too.
        let sources33: Vec<VertexId> = (0..33).map(|i| i % 9).collect();
        assert_eq!(
            CpuIbfs { width: WordWidth::W32, ..Default::default() }
                .run_group(&g, &r, &sources33)
                .unwrap_err(),
            RequestError::GroupTooLarge { size: 33, capacity: 32 }
        );
        // And the service survives a rejected group.
        let mut svc = CpuIbfs::default().service(&g, &r);
        assert!(svc.run_group(&(0..65).map(|i| i % 9).collect::<Vec<_>>()).is_err());
        assert!(svc.run_group(&[0]).is_ok());
    }

    #[test]
    fn rejects_empty_and_out_of_range_groups() {
        let g = figure1();
        let r = g.reverse();
        assert_eq!(
            CpuIbfs::default().run_group(&g, &r, &[]).unwrap_err(),
            RequestError::EmptySources
        );
        assert_eq!(
            CpuIbfs::default().run_group(&g, &r, &[0, 100]).unwrap_err(),
            RequestError::SourceOutOfRange { source: 100, num_vertices: 9 }
        );
    }

    #[test]
    fn pool_threads_are_spawned_once_per_service() {
        // The acceptance criterion: worker threads are created once per
        // engine lifetime, not per level or per group.
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let mut svc = CpuIbfs { threads: 3, ..Default::default() }.service(&g, &r);
        assert_eq!(svc.pool().spawned_threads(), 2);
        assert_eq!(svc.pool().threads_spawned(), 2);
        let sources: Vec<VertexId> = (0..60).collect();
        for group in sources.chunks(20) {
            let run = svc.run_group(group).unwrap();
            assert!(run.level_seconds.len() > 1, "want a multi-level run");
        }
        // Three groups, many levels each: the pool spawned nothing more.
        assert_eq!(svc.pool().threads_spawned(), 2);
        assert_eq!(svc.stats().stats.groups, 3);
        assert!(svc.stats().pool_phases > 0);
    }

    #[test]
    fn stats_and_metrics_record_pool_activity() {
        let g = rmat(8, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let mut svc = CpuMsBfs { threads: 2, ..Default::default() }.service(&g, &r);
        svc.run_group(&[0, 1, 2]).unwrap();
        let s = svc.stats();
        assert!(s.stats.levels > 0);
        assert!(s.stats.chunks_touched > 0);
        assert!(s.stats.full_sweeps > 0, "MS-BFS mode sweeps every level");
        assert_eq!(s.pool_threads, 2);
        let registry = ibfs_obs::Registry::new();
        svc.record_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ibfs_cpu_groups_total"), Some(1));
        assert_eq!(snap.counter("ibfs_cpu_levels_total"), Some(s.stats.levels));
        assert_eq!(snap.counter("ibfs_cpu_pool_phases_total"), Some(s.pool_phases));
    }

    #[test]
    fn build_bounds_covers_queue_exactly() {
        let queue: Vec<VertexId> = (0..100).collect();
        let mut bounds = Vec::new();
        build_bounds(&queue, |v| (v % 7) as u64, 4, STEAL_CHUNKS_PER_LANE, &mut bounds);
        assert!(bounds.len() > 1);
        let mut expected = 0u32;
        for &(lo, hi) in &bounds {
            assert_eq!(lo, expected);
            assert!(hi > lo);
            expected = hi;
        }
        assert_eq!(expected as usize, queue.len());
        // Single lane: one chunk, no balancing pass.
        build_bounds(&queue, |_| 1, 1, STEAL_CHUNKS_PER_LANE, &mut bounds);
        assert_eq!(bounds, vec![(0, 100)]);
        build_bounds(&[], |_| 1, 4, STEAL_CHUNKS_PER_LANE, &mut bounds);
        assert!(bounds.is_empty());
    }

    #[test]
    fn tiled_engine_matches_pooled_bit_for_bit() {
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..48).collect();
        let pooled = CpuIbfs { threads: 3, ..Default::default() }
            .run_group(&g, &r, &sources)
            .unwrap();
        for tile_size in [16, 256] {
            let tiled = CpuIbfs {
                threads: 3,
                engine: CpuEngine::Tiled,
                tile_size,
                ..Default::default()
            }
            .run_group(&g, &r, &sources)
            .unwrap();
            assert_eq!(tiled.depths, pooled.depths, "tile_size {tile_size}");
            assert_eq!(tiled.traversed_edges, pooled.traversed_edges);
        }
    }

    #[test]
    fn tiled_service_reports_tiling_stats_and_metrics() {
        let g = rmat(9, 8, RmatParams::graph500(), 7);
        let r = g.reverse();
        let mut svc = CpuIbfs {
            threads: 2,
            engine: CpuEngine::Tiled,
            tile_size: 16,
            ..Default::default()
        }
        .service(&g, &r);
        assert_eq!(svc.tile_plan().tile_size(), 16);
        svc.run_group(&[0, 1, 2, 3]).unwrap();
        let s = svc.stats().stats;
        assert!(s.tiles_built > 0);
        assert!(s.tile_split_vertices > 0, "an R-MAT frontier must split hubs");
        assert!(s.steal_max_chunks > 0);
        let registry = ibfs_obs::Registry::new();
        svc.record_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ibfs_cpu_tile_built_total"), Some(s.tiles_built));
        assert_eq!(snap.gauge("ibfs_cpu_tile_size"), Some(16.0));
        assert!(snap.gauge("ibfs_cpu_steal_balance").unwrap() >= 1.0);
    }

    #[test]
    fn autotuned_plan_is_used_when_tile_size_is_zero() {
        let g = rmat(8, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let svc = CpuIbfs { engine: CpuEngine::Tiled, threads: 2, ..Default::default() }
            .service(&g, &r);
        let plan = *svc.tile_plan();
        assert_eq!(plan, ibfs_graph::tiling::TilePlan::autotune(&g));
        assert!(svc.chunks_per_lane() >= STEAL_CHUNKS_PER_LANE);
    }

    #[test]
    fn reordered_service_is_bit_identical_for_every_kind() {
        let g = rmat(8, 8, RmatParams::graph500(), 11);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..24).collect();
        let plain = CpuIbfs { threads: 2, ..Default::default() }
            .run_group(&g, &r, &sources)
            .unwrap();
        for reorder in ReorderKind::all() {
            let run = CpuIbfs { threads: 2, reorder, ..Default::default() }
                .run_group(&g, &r, &sources)
                .unwrap();
            assert_eq!(run.depths, plain.depths, "{reorder}: depths diverge");
            assert_eq!(run.traversed_edges, plain.traversed_edges, "{reorder}");
            for (j, &s) in sources.iter().enumerate() {
                assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..], "{reorder}/{s}");
            }
        }
    }

    #[test]
    fn reordered_service_reuse_and_duplicates_stay_exact() {
        // Arena reuse + the map-in/map-out pair across groups, with
        // duplicate sources keeping their instance slots.
        let g = rmat(8, 8, RmatParams::graph500(), 31);
        let r = g.reverse();
        let mut svc = CpuIbfs { threads: 3, reorder: ReorderKind::HubCluster, ..Default::default() }
            .service(&g, &r);
        let first = svc.run_group(&[0, 7, 0, 40]).unwrap();
        svc.run_group(&[99, 3]).unwrap();
        let again = svc.run_group(&[0, 7, 0, 40]).unwrap();
        assert_eq!(first.depths, again.depths);
        assert_eq!(first.instance_depths(0), first.instance_depths(2));
        assert_eq!(first.instance_depths(0), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn dense_and_sparse_levels_are_both_exercised_and_counted() {
        // An R-MAT group floods most of the graph mid-traversal (dense
        // levels) but starts from a single source (sparse level 1).
        let g = rmat(9, 8, RmatParams::graph500(), 19);
        let r = g.reverse();
        let mut svc = CpuIbfs { threads: 2, ..Default::default() }.service(&g, &r);
        let run = svc.run_group(&[0]).unwrap();
        let s = svc.stats().stats;
        assert_eq!(s.dense_levels + s.sparse_levels, run.level_seconds.len() as u64);
        assert!(s.sparse_levels > 0, "level 1 of a single source is sparse");
        assert!(s.dense_levels > 0, "an R-MAT flood level must go dense");
        assert_eq!(run.instance_depths(0), &reference_bfs(&g, 0)[..]);
    }

    #[test]
    fn adaptive_tuner_is_bounded_recorded_and_result_invariant() {
        let g = rmat(9, 8, RmatParams::graph500(), 23);
        let r = g.reverse();
        let sources: Vec<VertexId> = (0..32).collect();
        let plain = CpuIbfs { threads: 2, ..Default::default() }
            .run_group(&g, &r, &sources)
            .unwrap();
        let mut svc =
            CpuIbfs { threads: 2, adaptive: true, ..Default::default() }.service(&g, &r);
        for _ in 0..6 {
            let run = svc.run_group(&sources).unwrap();
            assert_eq!(run.depths, plain.depths, "tuning must never move a depth");
            assert_eq!(run.traversed_edges, plain.traversed_edges);
        }
        let s = svc.stats().stats;
        assert!(s.td_micros > 0, "top-down phases were timed");
        assert!(s.retunes <= crate::direction::tune::TUNE_GROUPS);
        // The recorded policy is live and inside the clamp.
        let alpha = s.tuned_alpha_milli as f64 / 1000.0;
        let beta = s.tuned_beta_milli as f64 / 1000.0;
        assert!(alpha >= crate::direction::tune::MIN && alpha <= crate::direction::tune::MAX);
        assert!(beta >= crate::direction::tune::MIN && beta <= crate::direction::tune::MAX);
    }

    #[test]
    fn reordered_and_adaptive_metrics_families_are_emitted() {
        let g = rmat(8, 8, RmatParams::graph500(), 3);
        let r = g.reverse();
        let mut svc = CpuIbfs {
            threads: 2,
            reorder: ReorderKind::DegreeDesc,
            adaptive: true,
            ..Default::default()
        }
        .service(&g, &r);
        svc.run_group(&[0, 1, 2]).unwrap();
        let s = svc.stats().stats;
        let registry = ibfs_obs::Registry::new();
        svc.record_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("ibfs_cpu_dense_levels_total"),
            Some(s.dense_levels)
        );
        assert_eq!(
            snap.counter("ibfs_cpu_sparse_levels_total"),
            Some(s.sparse_levels)
        );
        assert_eq!(
            snap.gauge("ibfs_cpu_reorder{kind=\"degree\"}"),
            Some(1.0),
            "reorder kind gauge missing"
        );
        assert!(snap.gauge("ibfs_cpu_tuned_alpha").is_some());
    }

    #[test]
    fn profiled_runs_record_map_phases() {
        // Every level-synchronous group ends in the MapOut finalize pass;
        // only a reordered service also maps its sources in.
        let g = rmat(8, 8, RmatParams::graph500(), 9);
        let r = g.reverse();
        for reorder in [ReorderKind::None, ReorderKind::Rcm] {
            let prof = ibfs_obs::EngineProfiler::shared();
            let mut svc = CpuIbfs { threads: 2, reorder, ..Default::default() }.service(&g, &r);
            svc.set_profiler(prof.clone());
            svc.run_group(&[0, 1, 2, 3]).unwrap();
            let report = prof.report("cpu-map-test");
            report.validate().expect("profile validates");
            let phases = report.phases();
            assert!(phases.contains(&ProfPhase::MapOut), "{reorder}: MapOut missing: {phases:?}");
            assert_eq!(
                phases.contains(&ProfPhase::MapIn),
                reorder != ReorderKind::None,
                "{reorder}: {phases:?}"
            );
            assert!(!phases.contains(&ProfPhase::Repair), "{reorder}: {phases:?}");
        }
    }

    #[test]
    fn depth_table_is_clean_across_group_widths() {
        // The resident vertex-major table is reused with a different row
        // width (instances per group) by every group: a narrow group after
        // a wide one, and a wider one after that, must each see a clean
        // table, including under a reordering.
        let g = rmat(8, 8, RmatParams::graph500(), 13);
        let r = g.reverse();
        for reorder in [ReorderKind::None, ReorderKind::DegreeDesc] {
            let mut svc = CpuIbfs { threads: 2, reorder, ..Default::default() }.service(&g, &r);
            for sources in [(0..40).collect::<Vec<VertexId>>(), vec![5], (0..64).collect()] {
                let run = svc.run_group(&sources).unwrap();
                for (j, &s) in sources.iter().enumerate() {
                    assert_eq!(run.instance_depths(j), &reference_bfs(&g, s)[..], "{reorder}/{s}");
                }
                assert_eq!(
                    run.traversed_edges,
                    crate::engine::traversed_edges_for(&g, &run.depths, run.num_instances)
                );
            }
        }
    }

    #[test]
    fn engine_names_round_trip() {
        for e in CpuEngine::all() {
            assert_eq!(CpuEngine::parse(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(CpuEngine::parse("warp"), None);
    }
}
