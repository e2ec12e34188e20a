#!/usr/bin/env bash
# Tier-1 verify: hermetic offline build + full test suite.
#
# Fails on any compiler warning (RUSTFLAGS -D warnings) and never
# touches the network (CARGO_NET_OFFLINE): the workspace must build
# from path-local crates alone.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

cargo build --release --workspace --all-targets
cargo test -q --workspace

# End-to-end telemetry: a fully-traced incast's exported artifacts must
# reconcile exactly with the simulator's ground truth.
cargo test -q -p tfc-repro --test telemetry

# Two-way scheduler equivalence: the timing wheel must export
# artifacts byte-identical to the reference heap's — including the
# open-loop streaming scenario, where flow retirement recycles ids
# mid-run and same-seed re-runs on both backends must reproduce the
# whole bundle byte for byte, and the ECMP+churn fat-tree scenario,
# where multipath spray and selection-time reroute must not leak the
# backend into a single artifact byte. (Also part of the workspace
# suite above; run explicitly so a failure names the gate.)
cargo test -q -p tfc-repro --test sched_equivalence

# Drop accounting: a switch policy's egress drop is counted in
# PortStats::policy_drops and logged as pkt_drop (the exported count
# agrees), and a lossy run with every telemetry channel on clones zero
# packets and leaks no arena slot.
cargo test -q -p tfc-repro --test reliability policy_drops
cargo test -q -p tfc-repro --test reliability logged_run_clones_no_packets

# Multipath regression: ECMP spray, counted no-route drops, and
# link-down reroute onto surviving equal-cost members.
cargo test -q -p tfc-repro --test ecmp

# Route-fill oracle: the one-BFS-per-attachment route fill must equal a
# per-host BFS fill (entries, equal-cost set-pool order, first
# disconnected pair) on the paper's topologies, fat-trees and random
# meshes, alongside the topology builder's typed-error tests.
cargo test -q -p tfc-simnet --lib topology

# Per-flow slots: every flow's state, endpoints and RTO deadline live in
# one slot table sized by flows, not hosts; retired slots empty after a
# drain; a packet of a retired flow whose id was reused between other
# hosts takes the stale path; try_start_flow rejects bad endpoints
# without allocating an id.
cargo test -q -p tfc-simnet --lib flow

# Deadline timers: a timer fires once, at exactly the deadline it was
# last set to (earlier if moved earlier); a stopped timer never
# dispatches nor moves `now` at drain; a retired flow's entry never
# reaches a flow reusing its id; PolicyReset stops both of a port's
# timers; a re-pushed deadline keeps the tie order of its set time.
cargo test -q -p tfc-simnet --lib deadline

# Fault targets are checked when scheduled, not when they fire: an
# unknown node, a missing port, a PolicyReset of a host or a host stall
# of a switch is refused with nothing scheduled, and a timeline with one
# bad entry installs none of its entries.
cargo test -q -p tfc-simnet --lib fault_target
cargo test -q -p tfc-repro --test faults fault_target

# Streamed flows.json: the one-record-at-a-time writer must equal the
# one-document oracle byte for byte (0, 1 and many flows, with and
# without retirement).
cargo test -q -p tfc-telemetry --lib export

# tfc-trace must summarize a smoke-run artifact bundle from the files
# alone (exported into a scratch dir so committed results/ stay put).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --smoke
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-incast" | tee "$TRACE_DIR/smoke.out" >/dev/null
# The smoke incast samples its bottleneck queue: the summary reports
# that port's mean and max occupancy from queues.csv alone.
grep -E "^  node [0-9]+ port [0-9]+: [0-9]+ samples  mean [0-9]+ B  max [0-9]+ B$" "$TRACE_DIR/smoke.out" >/dev/null

# Figure gate: regenerating every committed figure dump must reproduce
# results/*.json byte for byte (Fig. 6's rtt_b CDF and Fig. 7's Ne
# series come from the TFC slot gauges, every queue mean from the
# sampled queue series).
FIG_DIR="$TRACE_DIR/figures"
for fig in all ablations sweeps reroute; do
  TFC_RESULTS_DIR="$FIG_DIR" cargo run --release -q -p tfc-bench --bin figures -- "$fig" >/dev/null
done
for want in results/*.json; do
  cmp "$want" "$FIG_DIR/$(basename "$want")" \
    || { echo "verify: $want does not reproduce" >&2; exit 1; }
done

# Chaos smoke: fixed-seed link-flap + host-stall runs export fault
# telemetry, and tfc-trace renders the recovery summary (fault windows,
# goodput dip, token reclamation) from the artifacts alone.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --chaos-smoke
# (plain grep, not -q: -q closes the pipe at first match and the
# still-printing tracer dies of SIGPIPE under pipefail)
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-chaos-flap" | grep "tokens reclaimed" >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- "$TRACE_DIR/smoke-chaos-stall" | grep "fault windows:" >/dev/null

# ECMP smoke: a fixed-seed multipath reroute run (k=4 fat-tree, edge
# uplink flap) exports artifacts, and tfc-trace renders the per-port
# spray balance plus the selection-time reroute records from them.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --ecmp-smoke | tee "$TRACE_DIR/ecmpsmoke.out" >/dev/null
grep "per-port spray balance" "$TRACE_DIR/ecmpsmoke.out" >/dev/null
grep "reroutes (selection-time ECMP repair):" "$TRACE_DIR/ecmpsmoke.out" >/dev/null

# Zero-overhead tracing gate: TraceConfig::Off must record nothing and
# leave artifacts byte-identical to a traced run's non-span files.
cargo test -q -p tfc-repro --test spans

# Run-diff self-test: two same-seed full-trace runs must compare clean,
# and a perturbed seed must yield a first-divergence report.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --diff-smoke | tee "$TRACE_DIR/diffsmoke.out"
grep "no divergence" "$TRACE_DIR/diffsmoke.out" >/dev/null
grep "first divergence" "$TRACE_DIR/diffsmoke.out" >/dev/null

# Scale-bench smoke: the quick suite must run both scheduler backends
# (heap, wheel) to identical outcomes — including the fat-tree and
# ECMP-multipath scenarios — and write a well-formed BENCH_scale.json
# (schema key, host-parallelism manifest, setup time split from
# simulation time, non-zero events/sec, the micro block's per-backend
# queue-churn and token-engine ns/op rows — the binary itself asserts
# positivity and outcome identity).
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-scale-bench -- --quick >/dev/null
test -s "$TRACE_DIR/bench/BENCH_scale.json"
grep '"schema": "tfc-bench-scale/v8"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"available_parallelism"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"active_threads"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"setup_ms"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"heap_events_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"wheel_events_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "fat_tree_multipath"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"micro"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "event_queue_churn/same_tick_storm"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"name": "token_engine_per_packet"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null

# Streaming smoke: tfc-million --quick validates its sketches against
# an exact oracle, completes 100k open-loop flows with bounded slab and
# arena high-water marks (asserted by the binary), and merges a
# well-formed "million" block into BENCH_scale.json.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-million -- --quick >/dev/null
grep '"million"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"flows_per_sec"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"slab_capacity"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"oracle_classes_checked"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
# The scale-bench rows must survive the merge (and vice versa: a
# re-run of scale-bench preserves the million block).
grep '"schema": "tfc-bench-scale/v8"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null
grep '"setup_ms"' "$TRACE_DIR/bench/BENCH_scale.json" >/dev/null

# tfc-trace --flows: the per-class retired table must render from the
# v2 flows.json alone (self-test), and the streaming run's artifacts
# must summarize cleanly.
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows-smoke >/dev/null
TFC_RESULTS_DIR="$TRACE_DIR" cargo run --release -q -p tfc-bench --bin tfc-trace -- --flows "$TRACE_DIR/million-quick" | grep "retired flows:" >/dev/null

# Tracing-overhead smoke: flow-sampled tracing on the leaf-spine run
# must stay within 10% of the untraced events/sec (ratio <= 1.10).
OVERHEAD="$(grep -m1 '"trace_overhead"' "$TRACE_DIR/bench/BENCH_scale.json" | sed 's/[^0-9.]*//g')"
awk -v o="$OVERHEAD" 'BEGIN { exit !(o > 0 && o <= 1.10) }' \
  || { echo "verify: trace overhead $OVERHEAD exceeds 1.10" >&2; exit 1; }

echo "verify: OK"
