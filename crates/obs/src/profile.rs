//! The engine profiler: per-lane, per-level phase records with a versioned
//! JSON report and a Chrome trace-event exporter.
//!
//! The CPU engines and the sharded exchange report only end-of-run
//! aggregates; when a level is slow there is no way to see *where* it went
//! (expand? barrier? steal storm? wire time?). This module adds the lens
//! the distributed-BFS literature attributes everything to: a per-phase
//! computation/communication breakdown.
//!
//! Overhead budget: recording happens once per `(track, lane, level,
//! phase)` — a handful of `Instant` reads and one short mutex push per
//! phase, never per vertex or per edge. A disabled profiler is an
//! `Option::None` at every hook site, so the un-profiled hot path pays one
//! branch. The CI gate holds the measured overhead on the seeded
//! `cpu-bench` under 5%.
//!
//! Phase taxonomy (see [`ProfPhase`]): engine compute phases (top-down
//! expand, bottom-up sweep, identification, status sweeps, depth
//! finalize, cleanup), synchronization ([`ProfPhase::BarrierWait`] records
//! are *synthesized* — for every lane, phase wall time minus that lane's
//! body time), work stealing (chunk claims from `ChunkCursor`/`ClaimTally`
//! as counts on the traversal records), the async engine's FIFO drain, the
//! sharded exchange (encode / exchange / apply, with bytes and messages),
//! and serve-batch dispatch.
//!
//! The [`ProfileReport`] JSON document is versioned
//! ([`PROFILE_SCHEMA_VERSION`], future versions rejected on decode, like
//! the trace and snapshot schemas) and exports to the Chrome trace-event
//! array format (`chrome://tracing`, Perfetto): one complete (`"ph":"X"`)
//! event per record, `pid` = track (engine run or shard group), `tid` =
//! lane (worker lane or shard).

use crate::registry::{labeled, Registry};
use ibfs_util::json::{field, FromJson, Json, JsonError, ToJson};
use ibfs_util::{json_enum, json_struct};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version stamped into every profile report document.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// What a [`PhaseRecord`] measured.
///
/// `counter_a` / `counter_b` on the record carry the phase-specific pair
/// listed per variant (0 when a phase has nothing to count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfPhase {
    /// Top-down frontier expansion (tiled or queue-walk). Counters:
    /// chunks/tiles claimed by this lane, total claims this phase.
    TopDownExpand,
    /// Bottom-up unvisited sweep. Counters: chunks claimed by this lane,
    /// total claims this phase.
    BottomUpSweep,
    /// Time a lane spent blocked on the phase barrier (synthesized: phase
    /// wall minus lane body).
    BarrierWait,
    /// Dirty-chunk repair of stale status words. The CPU engine no longer
    /// emits it (identification keeps `cur` equal to `next` itself), so
    /// its share of a CPU profile reads 0; the variant stays so existing
    /// reports and consumers keep parsing.
    Repair,
    /// Async-engine FIFO drain. Counters: items drained, relaxed
    /// (re-improved) items.
    AsyncDrain,
    /// Per-level status reset / direction-switch full sweep.
    StatusSweep,
    /// Depth identification of newly visited vertices.
    Identify,
    /// Next-frontier queue assembly.
    QueueBuild,
    /// End-of-group arena cleanup.
    Cleanup,
    /// Sharded exchange: frontier/candidate payload encode. Counters:
    /// bytes, messages.
    CommEncode,
    /// Sharded exchange: simulated wire time. Counters: bytes, messages.
    CommExchange,
    /// Sharded exchange: applying received payloads. Counters: bytes,
    /// messages.
    CommApply,
    /// One serve batch from dispatch to depths. Counters: requests,
    /// distinct sources.
    ServeBatch,
    /// Reordered service: mapping a group's sources into permuted space.
    /// Counters: sources mapped, 0.
    MapIn,
    /// End-of-group depth finalize: transposing the CPU engine's
    /// vertex-major depth table into the returned `[instance][vertex]`
    /// table, mapped back to original vertex ids when the service is
    /// reordered. Counters: depth cells mapped, instances.
    MapOut,
    /// One α/β autotuner adjustment. Counters: new α in milli-units, new
    /// β in milli-units.
    Retune,
}

json_enum!(ProfPhase {
    TopDownExpand,
    BottomUpSweep,
    BarrierWait,
    Repair,
    AsyncDrain,
    StatusSweep,
    Identify,
    QueueBuild,
    Cleanup,
    CommEncode,
    CommExchange,
    CommApply,
    ServeBatch,
    MapIn,
    MapOut,
    Retune,
});

impl ProfPhase {
    /// Every phase, for eager metric registration and exhaustive tests.
    pub const ALL: [ProfPhase; 16] = [
        ProfPhase::TopDownExpand,
        ProfPhase::BottomUpSweep,
        ProfPhase::BarrierWait,
        ProfPhase::Repair,
        ProfPhase::AsyncDrain,
        ProfPhase::StatusSweep,
        ProfPhase::Identify,
        ProfPhase::QueueBuild,
        ProfPhase::Cleanup,
        ProfPhase::CommEncode,
        ProfPhase::CommExchange,
        ProfPhase::CommApply,
        ProfPhase::ServeBatch,
        ProfPhase::MapIn,
        ProfPhase::MapOut,
        ProfPhase::Retune,
    ];

    /// Stable snake_case name (Chrome trace event name, metric label).
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::TopDownExpand => "top_down_expand",
            ProfPhase::BottomUpSweep => "bottom_up_sweep",
            ProfPhase::BarrierWait => "barrier_wait",
            ProfPhase::Repair => "repair",
            ProfPhase::AsyncDrain => "async_drain",
            ProfPhase::StatusSweep => "status_sweep",
            ProfPhase::Identify => "identify",
            ProfPhase::QueueBuild => "queue_build",
            ProfPhase::Cleanup => "cleanup",
            ProfPhase::CommEncode => "comm_encode",
            ProfPhase::CommExchange => "comm_exchange",
            ProfPhase::CommApply => "comm_apply",
            ProfPhase::ServeBatch => "serve_batch",
            ProfPhase::MapIn => "map_in",
            ProfPhase::MapOut => "map_out",
            ProfPhase::Retune => "retune",
        }
    }

    /// Chrome trace category: groups the timeline rows by subsystem.
    pub fn category(self) -> &'static str {
        match self {
            ProfPhase::BarrierWait => "sync",
            ProfPhase::CommEncode | ProfPhase::CommExchange | ProfPhase::CommApply => "comm",
            ProfPhase::ServeBatch => "serve",
            ProfPhase::Retune => "tune",
            _ => "engine",
        }
    }
}

/// One timed phase on one lane at one level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseRecord {
    /// Timeline track (Chrome `pid`): one per engine run / shard group,
    /// allocated by [`EngineProfiler::open_track`].
    pub track: u64,
    /// Worker lane or shard index (Chrome `tid`).
    pub lane: u64,
    /// BFS level (batch sequence number for serve records).
    pub level: u64,
    /// What was measured.
    pub phase: ProfPhase,
    /// Seconds since the profiler epoch at phase start.
    pub start_s: f64,
    /// Measured duration in seconds.
    pub seconds: f64,
    /// Phase-specific count (see [`ProfPhase`] docs).
    pub counter_a: u64,
    /// Phase-specific count (see [`ProfPhase`] docs).
    pub counter_b: u64,
}

json_struct!(PhaseRecord {
    track,
    lane,
    level,
    phase,
    start_s,
    seconds,
    counter_a,
    counter_b,
});

/// A started phase: holds the wall-clock start. Copy so closures can
/// capture it freely.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStart {
    at: Instant,
    start_s: f64,
}

impl PhaseStart {
    /// Seconds from the profiler epoch to this phase start.
    pub fn start_s(&self) -> f64 {
        self.start_s
    }

    /// Seconds elapsed since this phase start.
    pub fn elapsed_s(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }
}

/// Low-overhead recorder for [`PhaseRecord`]s.
///
/// Shared by `Arc`; every hook site does one `Instant::now()` pair and one
/// mutex-guarded push per phase per lane. Lanes record their own body
/// time; the coordinator then calls [`EngineProfiler::end_phase`], which
/// synthesizes one [`ProfPhase::BarrierWait`] record per lane from the
/// phase's wall time.
#[derive(Debug)]
pub struct EngineProfiler {
    epoch: Instant,
    records: Mutex<Vec<PhaseRecord>>,
    next_track: AtomicU64,
}

impl Default for EngineProfiler {
    fn default() -> Self {
        EngineProfiler {
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
            next_track: AtomicU64::new(0),
        }
    }
}

impl EngineProfiler {
    /// A fresh profiler; its epoch (trace time zero) is now.
    pub fn new() -> Self {
        EngineProfiler::default()
    }

    /// A fresh shared profiler.
    pub fn shared() -> Arc<EngineProfiler> {
        Arc::new(EngineProfiler::new())
    }

    /// Seconds since the profiler epoch.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Allocates a timeline track (Chrome `pid`): one per engine run,
    /// shard group, or serve worker pool.
    pub fn open_track(&self) -> u64 {
        self.next_track.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks a phase start; pass the result to [`EngineProfiler::lane`]
    /// and [`EngineProfiler::end_phase`].
    pub fn begin(&self) -> PhaseStart {
        PhaseStart { at: Instant::now(), start_s: self.now_s() }
    }

    /// Records one lane's body time for the phase started at `start`.
    pub fn lane(
        &self,
        start: PhaseStart,
        track: u64,
        lane: usize,
        level: u64,
        phase: ProfPhase,
        counter_a: u64,
        counter_b: u64,
    ) {
        self.push(PhaseRecord {
            track,
            lane: lane as u64,
            level,
            phase,
            start_s: start.start_s,
            seconds: start.at.elapsed().as_secs_f64(),
            counter_a,
            counter_b,
        });
    }

    /// Ends a phase: for every lane that recorded a body for `(track,
    /// level, phase)` since `start`, synthesizes a
    /// [`ProfPhase::BarrierWait`] record of `wall - body` (clamped at 0),
    /// so each lane's records tile the phase wall exactly.
    pub fn end_phase(&self, start: PhaseStart, track: u64, level: u64, phase: ProfPhase) {
        let wall = start.at.elapsed().as_secs_f64();
        let mut records = self.records.lock().unwrap();
        let mut waits = Vec::new();
        // Lane bodies for this phase carry exactly `start.start_s` (the
        // copied PhaseStart), so exact f64 equality identifies them even
        // when other tracks interleave records concurrently.
        for r in records.iter().rev() {
            // A track's phases are sequential, so the first same-track
            // record from before this phase bounds the scan — without
            // this, every end_phase walks the whole history and the
            // profiler's cost grows quadratically over a long run.
            if r.track == track && r.start_s < start.start_s {
                break;
            }
            if r.track == track && r.level == level && r.phase == phase && r.start_s == start.start_s
            {
                waits.push(PhaseRecord {
                    track,
                    lane: r.lane,
                    level,
                    phase: ProfPhase::BarrierWait,
                    start_s: start.start_s + r.seconds.min(wall),
                    seconds: (wall - r.seconds).max(0.0),
                    counter_a: 0,
                    counter_b: 0,
                });
            }
        }
        records.extend(waits);
    }

    /// Records a fully-formed phase (used by the comm/serve hooks, where
    /// the caller measures its own interval).
    pub fn record(
        &self,
        track: u64,
        lane: usize,
        level: u64,
        phase: ProfPhase,
        start_s: f64,
        seconds: f64,
        counter_a: u64,
        counter_b: u64,
    ) {
        self.push(PhaseRecord {
            track,
            lane: lane as u64,
            level,
            phase,
            start_s,
            seconds,
            counter_a,
            counter_b,
        });
    }

    fn push(&self, r: PhaseRecord) {
        self.records.lock().unwrap().push(r);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes the recorded phases into a versioned report. `source` names
    /// the producing command (`"bfs"`, `"cpu-bench"`, ...).
    pub fn report(&self, source: &str) -> ProfileReport {
        let mut records = self.records.lock().unwrap().clone();
        records.sort_by(|a, b| {
            (a.track, a.lane, a.start_s)
                .partial_cmp(&(b.track, b.lane, b.start_s))
                .expect("record start times are finite")
        });
        ProfileReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            source: source.to_string(),
            wall_seconds: self.now_s(),
            records,
        }
    }

    /// Publishes per-phase aggregates into `registry` under the
    /// `ibfs_prof_*` families [`register_prof_metrics`] pre-registers.
    pub fn record_metrics(&self, registry: &Registry) {
        let records = self.records.lock().unwrap();
        registry.counter("ibfs_prof_records_total").add(records.len() as u64);
        let mut by_phase = [0.0f64; ProfPhase::ALL.len()];
        let mut total = 0.0;
        for r in records.iter() {
            let idx = ProfPhase::ALL.iter().position(|p| *p == r.phase).unwrap();
            by_phase[idx] += r.seconds;
            total += r.seconds;
        }
        for (phase, seconds) in ProfPhase::ALL.iter().zip(by_phase) {
            registry.gauge(&prof_phase_gauge(*phase)).set(seconds);
        }
        let barrier = by_phase[ProfPhase::ALL
            .iter()
            .position(|p| *p == ProfPhase::BarrierWait)
            .unwrap()];
        let share = if total > 0.0 { barrier / total } else { 0.0 };
        registry.gauge("ibfs_prof_barrier_share").set(share);
    }
}

/// Name of the per-phase seconds gauge:
/// `ibfs_prof_phase_seconds{phase="top_down_expand"}`.
pub fn prof_phase_gauge(phase: ProfPhase) -> String {
    labeled("ibfs_prof_phase_seconds", &[("phase", phase.name())])
}

/// Eagerly registers every `ibfs_prof_*` family so idle snapshots still
/// carry them (the metrics-check gate validates presence, not activity).
pub fn register_prof_metrics(registry: &Registry) {
    registry.counter("ibfs_prof_records_total");
    registry.gauge("ibfs_prof_barrier_share");
    for phase in ProfPhase::ALL {
        registry.gauge(&prof_phase_gauge(phase));
    }
}

/// A frozen, versioned profile: everything an [`EngineProfiler`] recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// JSON schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Producing command (`"bfs"`, `"cpu-bench"`, `"serve-bench"`, ...).
    pub source: String,
    /// Profiler wall clock at freeze time (seconds since its epoch).
    pub wall_seconds: f64,
    /// All phase records, sorted by `(track, lane, start_s)`.
    pub records: Vec<PhaseRecord>,
}

impl ToJson for ProfileReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("profile_version".to_string(), Json::UInt(self.schema_version)),
            ("source".to_string(), Json::Str(self.source.clone())),
            ("wall_seconds".to_string(), self.wall_seconds.to_json()),
            ("records".to_string(), self.records.to_json()),
        ])
    }
}

impl FromJson for ProfileReport {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let schema_version: u64 = field(j, "profile_version")?;
        if schema_version > PROFILE_SCHEMA_VERSION {
            return Err(JsonError {
                msg: format!(
                    "profile version {schema_version} is newer than supported \
                     {PROFILE_SCHEMA_VERSION}"
                ),
                at: 0,
            });
        }
        Ok(ProfileReport {
            schema_version,
            source: field(j, "source")?,
            wall_seconds: field(j, "wall_seconds")?,
            records: field(j, "records")?,
        })
    }
}

impl ProfileReport {
    /// The structural invariants every emitted report satisfies: exact
    /// schema version, at least one record, and finite non-negative times
    /// contained in the report's wall clock.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "profile version {} != supported {PROFILE_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.records.is_empty() {
            return Err("profile has no phase records".to_string());
        }
        if !(self.wall_seconds.is_finite() && self.wall_seconds > 0.0) {
            return Err(format!("wall_seconds {} is not positive", self.wall_seconds));
        }
        for r in &self.records {
            if !(r.start_s.is_finite() && r.start_s >= 0.0) {
                return Err(format!("record start_s {} is not finite/non-negative", r.start_s));
            }
            if !(r.seconds.is_finite() && r.seconds >= 0.0) {
                return Err(format!("record seconds {} is not finite/non-negative", r.seconds));
            }
            if r.start_s > self.wall_seconds {
                return Err(format!(
                    "record starts at {} beyond the report wall clock {}",
                    r.start_s, self.wall_seconds
                ));
            }
        }
        Ok(())
    }

    /// Total seconds recorded for `phase` across all tracks and lanes.
    pub fn phase_seconds(&self, phase: ProfPhase) -> f64 {
        self.records.iter().filter(|r| r.phase == phase).map(|r| r.seconds).sum()
    }

    /// Distinct phases present in the report.
    pub fn phases(&self) -> Vec<ProfPhase> {
        let mut out: Vec<ProfPhase> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.phase) {
                out.push(r.phase);
            }
        }
        out
    }

    /// Distinct `(track, lane)` timeline rows present in the report.
    pub fn lanes(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for r in &self.records {
            if !out.contains(&(r.track, r.lane)) {
                out.push((r.track, r.lane));
            }
        }
        out
    }

    /// Exports the Chrome trace-event array format (load in
    /// `chrome://tracing` or Perfetto): one complete `"ph":"X"` event per
    /// record, timestamps and durations in microseconds, `pid` = track,
    /// `tid` = lane, with level and the phase counters in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(r.phase.name().to_string())),
                    ("cat".to_string(), Json::Str(r.phase.category().to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("ts".to_string(), (r.start_s * 1e6).to_json()),
                    ("dur".to_string(), (r.seconds * 1e6).to_json()),
                    ("pid".to_string(), Json::UInt(r.track)),
                    ("tid".to_string(), Json::UInt(r.lane)),
                    (
                        "args".to_string(),
                        Json::Obj(vec![
                            ("level".to_string(), Json::UInt(r.level)),
                            ("counter_a".to_string(), Json::UInt(r.counter_a)),
                            ("counter_b".to_string(), Json::UInt(r.counter_b)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Arr(events).to_string()
    }

    /// One-line-per-phase text summary (what `bfs --profile -` prints to
    /// stderr alongside the JSON).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} records on {} lanes over {:.3}s",
            self.records.len(),
            self.lanes().len(),
            self.wall_seconds
        );
        for phase in ProfPhase::ALL {
            let s = self.phase_seconds(phase);
            if s > 0.0 || self.records.iter().any(|r| r.phase == phase) {
                let _ = writeln!(out, "  {:<16} {s:.6}s", phase.name());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let prof = EngineProfiler::new();
        let track = prof.open_track();
        let start = prof.begin();
        prof.lane(start, track, 0, 1, ProfPhase::TopDownExpand, 3, 5);
        prof.lane(start, track, 1, 1, ProfPhase::TopDownExpand, 2, 5);
        prof.end_phase(start, track, 1, ProfPhase::TopDownExpand);
        prof.record(track, 0, 1, ProfPhase::CommExchange, prof.now_s(), 0.25, 4096, 3);
        prof.report("test")
    }

    #[test]
    fn lanes_record_and_barrier_is_synthesized() {
        let r = sample_report();
        assert_eq!(r.schema_version, PROFILE_SCHEMA_VERSION);
        // 2 body records + 2 synthesized barrier records + 1 comm record.
        assert_eq!(r.records.len(), 5);
        let barriers: Vec<_> =
            r.records.iter().filter(|x| x.phase == ProfPhase::BarrierWait).collect();
        assert_eq!(barriers.len(), 2);
        assert!(barriers.iter().all(|b| b.seconds >= 0.0));
        assert!(r.validate().is_ok());
        assert_eq!(r.lanes(), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let text = r.to_json().to_string();
        let back = ProfileReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn future_profile_versions_are_rejected() {
        let mut j = sample_report().to_json();
        if let Json::Obj(fields) = &mut j {
            fields[0].1 = Json::UInt(PROFILE_SCHEMA_VERSION + 1);
        }
        let err = ProfileReport::from_json(&j).unwrap_err();
        assert!(err.msg.contains("newer than supported"));
    }

    #[test]
    fn validate_rejects_degenerate_reports() {
        let mut r = sample_report();
        r.records.clear();
        assert!(r.validate().unwrap_err().contains("no phase records"));

        let mut r = sample_report();
        r.records[0].seconds = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.records[0].start_s = r.wall_seconds + 1.0;
        assert!(r.validate().unwrap_err().contains("beyond the report wall clock"));

        let mut r = sample_report();
        r.schema_version = 0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let r = sample_report();
        let trace = r.to_chrome_trace();
        let parsed = Json::parse(&trace).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), r.records.len());
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            assert!(e.get("args").unwrap().get("level").is_some());
        }
        // The comm record keeps its byte/message counters.
        let comm = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("comm_exchange"))
            .unwrap();
        assert_eq!(comm.get("args").unwrap().get("counter_a").unwrap().as_u64(), Some(4096));
    }

    #[test]
    fn prof_metrics_register_eagerly_and_record() {
        let reg = Registry::new();
        register_prof_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ibfs_prof_records_total"), Some(0));
        assert!(snap.gauge("ibfs_prof_barrier_share").is_some());
        for phase in ProfPhase::ALL {
            assert!(snap.gauge(&prof_phase_gauge(phase)).is_some(), "{}", phase.name());
        }

        let prof = EngineProfiler::new();
        let track = prof.open_track();
        prof.record(track, 0, 0, ProfPhase::AsyncDrain, 0.0, 0.5, 10, 2);
        prof.record_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ibfs_prof_records_total"), Some(1));
        assert!(snap.gauge(&prof_phase_gauge(ProfPhase::AsyncDrain)).unwrap() > 0.4);
    }

    #[test]
    fn phase_names_are_unique_and_stable() {
        let mut names: Vec<&str> = ProfPhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProfPhase::ALL.len());
        // Every phase round-trips through its JSON tag.
        for p in ProfPhase::ALL {
            let back = ProfPhase::from_json(&p.to_json()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn empty_profiler_reports_validate_as_empty() {
        let prof = EngineProfiler::new();
        assert!(prof.is_empty());
        let r = prof.report("idle");
        assert!(r.validate().is_err(), "empty profiles must not validate");
    }
}
