#!/bin/sh
# Offline CI gate for the iBFS reproduction workspace.
#
# The workspace is hermetic: every dependency is an in-tree path crate
# (see DESIGN.md "Hermetic build policy"), so all of this must pass with
# no network and no registry cache.
set -eux

cargo build --release --workspace --offline
cargo build --all-targets --offline
cargo test -q --workspace --offline
# Serve-layer stress suite under optimization, pinned to a fixed seed so
# the request streams are identical run to run.
IBFS_STRESS_SEED=42 cargo test -q --release -p ibfs-serve --offline
cargo bench --no-run --workspace --offline
cargo build --examples --offline
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links" cargo doc --no-deps --offline

# Telemetry gate: a seeded serve-bench run must emit a metrics snapshot
# that parses, carries the required serve/cluster/core families, and has
# well-formed (monotone, bounded) histogram quantiles. metrics-check also
# re-parses every Prometheus exposition value as a float, so a
# locale-dependent formatter would fail here.
SNAP="$(mktemp -t ibfs-metrics.XXXXXX.json)"
QOS_SNAP="$(mktemp -t ibfs-qos-metrics.XXXXXX.json)"
BENCH="$(mktemp -t ibfs-cpubench.XXXXXX.json)"
PROF="$(mktemp -t ibfs-profile.XXXXXX.json)"
TRACE="$(mktemp -t ibfs-trace.XXXXXX.json)"
PLAIN="$(mktemp -t ibfs-plain.XXXXXX.json)"
PROFD="$(mktemp -t ibfs-profiled.XXXXXX.json)"
trap 'rm -f "$SNAP" "$QOS_SNAP" "$BENCH" "$PROF" "$TRACE" "$PLAIN" "$PROFD"' EXIT
cargo run -q --offline -p ibfs-bench --bin bfs -- serve-bench suite:PK \
    --clients 4 --requests 8 --seed 7 --metrics-out "$SNAP"
cargo run -q --offline -p ibfs-bench --bin metrics-check -- "$SNAP"

# QoS gate: a seeded overload burst (three bulk clients storming in deep
# bursts against three closed-loop interactive clients, heavy-tailed
# sources) through the standard QoS policy. --check fails unless
# interactive p99 beats bulk p99 and the power-law profile finds the
# result cache; metrics-check then validates the cache and per-class
# latency families in the same snapshot.
cargo run -q --offline -p ibfs-bench --bin bfs -- serve-bench suite:PK \
    --qos --profile powerlaw --clients 6 --bulk-clients 3 --burst 24 \
    --requests 24 --seed 42 --workers 2 --max-batch 8 --check \
    --metrics-out "$QOS_SNAP"
cargo run -q --offline -p ibfs-bench --bin metrics-check -- "$QOS_SNAP"

# CPU-engine gate: a seeded cpu-bench sweep of all three engines — each
# also under the hub-clustered vertex reordering (--reorder hub sweeps
# none+hub) — with --check asserts every engine's depths, reordered or
# not, are bit-identical to reference_bfs and to the frozen pre-pool
# baseline, runs the hub-heavy tiling gate (tiled TEPS >= pooled) and the
# reorder locality gate (tiled+hub TEPS >= tiled, both enforced on >=
# 2-core hosts only), and validates the emitted BENCH_cpu.json schema
# through the in-tree JSON codec before writing it. The tile/async
# equivalence walls then pin the tiled and async engines to the pooled
# engine under -O, the reorder differential wall pins every engine ×
# ordering × width combination to the unreordered run bit for bit, and
# the CPU differential wall pins the pooled engine to the frozen baseline
# and every engine's traversed_edges to the depth-table oracle (release
# builds skip the engine's own debug assertion of that identity).
cargo run -q --release --offline -p ibfs-bench --bin bfs -- cpu-bench \
    --scale 9 --edge-factor 8 --seed 42 --sources 32 --threads 2 \
    --engine pooled,tiled,async --reorder hub --repeat 5 --check \
    --out "$BENCH"
test -s "$BENCH"
cargo test -q --release --offline --test tiled_differential
cargo test -q --release --offline --test async_equivalence
cargo test -q --release --offline --test reorder_differential
cargo test -q --release --offline --test cpu_differential

# Sharded-traversal gate: the seeded shard-bench --check fails unless the
# 4-shard sharded depths are bit-identical to reference_bfs on the
# scale-12 R-MAT and the Butterfly exchange puts strictly fewer messages
# on the wire than AllToAll; the differential suite then pins run_sharded
# to run_ibfs across shard counts, layouts and patterns under -O.
cargo run -q --release --offline -p ibfs-bench --bin bfs -- shard-bench \
    --shards 4 --check
cargo test -q --release --offline --test sharded_differential

# Profiler export gate: a seeded serve-bench with the profiler attached
# must export a ProfileReport and a Chrome trace-event file. The binary
# itself validates the report (schema version, record invariants,
# non-empty) and exits non-zero otherwise; here we additionally pin that
# both artifacts are non-empty JSON and that the dashboard renders a
# frame from the same run's metrics snapshot.
cargo run -q --release --offline -p ibfs-bench --bin bfs -- serve-bench \
    suite:PK --clients 4 --requests 8 --seed 7 --metrics-out "$SNAP" \
    --profile-out "$PROF" --profile-trace "$TRACE"
test -s "$PROF"
test -s "$TRACE"
cargo run -q --release --offline -p ibfs-bench --bin bfs -- top "$SNAP" \
    --ticks 1 --interval-ms 1 --no-clear | grep -q "ibfs top"

# Profiler overhead gate: a profiled seeded cpu-bench must come within 5%
# of an unprofiled one. Single-core CI hosts see one-sided interference
# noise above 5% (a plain-vs-plain diff fails the same band), so the diff
# calibrates against the unprofiled `baseline` rows (identical work in
# both reports, so their ratio is pure host drift) and the gate takes the
# best of three attempts: any clean pass bounds true overhead below the
# band, while systematic overhead fails all three.
BFS_BIN=target/release/bfs
overhead_ok=0
for attempt in 1 2 3; do
    "$BFS_BIN" cpu-bench --scale 13 --edge-factor 8 --seed 42 \
        --sources 32 --engine pooled,tiled,async --threads 2 --repeat 5 \
        --out "$PLAIN" > /dev/null
    "$BFS_BIN" cpu-bench --scale 13 --edge-factor 8 --seed 42 \
        --sources 32 --engine pooled,tiled,async --threads 2 --repeat 5 \
        --out "$PROFD" --profile-out "$PROF" > /dev/null
    if "$BFS_BIN" perf-diff "$PLAIN" "$PROFD" --noise 5 \
        --calibrate baseline --check; then
        overhead_ok=1
        break
    fi
done
test "$overhead_ok" = 1

# Perf-trajectory gate: the fresh seeded BENCH_cpu.json (written by the
# CPU-engine gate above at the committed baseline's exact config,
# reordered rows included) must not regress more than the cross-machine
# noise band against the committed baseline, and no run — reordered rows
# included, which match only rows of the same ordering — may silently
# disappear from the sweep.
cargo run -q --release --offline -p ibfs-bench --bin bfs -- perf-diff \
    BENCH_cpu.json "$BENCH" --check
