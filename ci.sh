#!/usr/bin/env bash
# Full CI gate for the workspace. Tier-1 (build + tests) plus style and
# lint checks. Run from the repo root.
#
# The wall-clock bench gate (benches/kernels.rs) is opt-in because it
# asserts host-speed ratios that need a release build on a mostly-idle
# machine: `cargo bench --bench kernels`. CI runs its `--smoke` variant
# instead: the Scalar/Bulk equivalence assertions on a reduced graph, with
# the timing gates skipped.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc (deny warnings)"
# Broken or private intra-doc links fail here instead of piling up.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> release-mode soundness (every workspace test under --release)"
# The guards below are plain checks, not debug_assert!: they must fire in
# optimized builds too. Without them an out-of-range window or element
# index silently aliases another element, an overlapping copy job silently
# overwrites bytes an earlier job placed, a page-straddling scalar splits
# across frames, a tier index past the tier count dereferences a null
# storage pointer, a NaN duration poisons the simulated clock, an
# overlapping mapping insert shadows a live mapping, an empty TLB/LLC run
# charges a phantom access, a VirtAddr distance wraps, an offset past
# an object yields a chunk index that does not exist, a translation
# outside its mapping names a frame the mapping does not own, an
# unaligned split splits at the floored page, and a zero-core barrier
# charges a phantom stage. Release is what the benches and binaries ship,
# so the whole workspace runs under --release. That is a superset of the
# per-guard regression tests (window_bounds_check_is_a_hard_check,
# windows_beyond_u32_index_range_are_rejected,
# element_bounds_check_is_a_hard_check,
# overlapping_copy_destinations_are_rejected, nan_durations_are_rejected,
# page_straddling_scalar_access_is_rejected,
# tiers_view_rejects_tiers_past_the_count, overlapping_insert_is_rejected,
# enclosing_insert_is_rejected, the three empty_*_run_is_rejected tests,
# offset_from_underflow_is_rejected, offsets_past_the_object_are_rejected,
# translate_outside_mapping_is_rejected, unaligned_split_is_rejected,
# zero_core_barrier_is_rejected), so a future debug_assert! demotion fails
# CI instead of shipping.
cargo test -q --release --workspace

echo "==> benchmark build + tests (perfbench/ is its own workspace)"
# perfbench builds against the crates by path but is not part of the root
# workspace, so nothing above compiles it. Building and testing it here
# makes an API change that breaks the benchmark fail CI.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-injection smoke (set ATMEM_PROP_CASES to widen the sweep)"
# Quick pass over the fault-injection property harness: a handful of
# random (kernel, fault-plan) cases per property plus the deterministic
# stage-boundary rollback checks. The full sweep (200+ cases, the
# default of `cargo test --test faults`) already ran under tier-1 above;
# this step exists as the dedicated knob: ATMEM_PROP_CASES=1000 ./ci.sh
# (or any value) widens every property in the harness.
ATMEM_PROP_CASES="${ATMEM_PROP_CASES:-8}" cargo test -q -p atmem-bench --test faults

echo "==> serving smoke (multi-tenant scheduler anchors)"
# The three serving anchors: one-tenant bit-identity with the solo
# protocol, contended two-tenant byte conservation + audit-clean quanta,
# and shared-tier-beats-static-partition. Already part of tier-1 above;
# kept as a dedicated step so a serving regression is named in CI output.
cargo test -q -p atmem-bench --test serving

echo "==> example smoke (shared_server runs end to end)"
# The example asserts audit cleanliness and per-tenant byte conservation
# internally; a non-zero exit fails the gate.
cargo run -q --release -p atmem-bench --example shared_server > /dev/null

echo "==> n-tier smoke (atmem beats the autonuma baseline on three tiers)"
# Runs the same profiled workload under both optimize policies on the
# HBM-DRAM-CXL preset with a binding hot-tier budget; the example asserts
# atmem wins the hot-tier data ratio and is no slower, and that the
# machine audit is clean for both policies.
cargo run -q --release -p atmem-bench --example ntier_comparison > /dev/null

echo "==> learned-analyzer training gate (committed mini-trace)"
# Retrains the ranking model from the committed trace and asserts (a) the
# fresh model generalizes to held-out groups and (b) the shipped
# LearnedModel::pretrained() constant still ranks the committed trace
# above its drift floor. Both runs are seeded and deterministic, so a
# failure means the recorder, trainer or shipped weights changed — not
# flakiness. Regenerate the trace + weights with:
#   cargo run --release -p atmem-bench --bin learned_train -- \
#     --record traces/analyzer_mini.trace --train traces/analyzer_mini.trace
cargo run -q --release -p atmem-bench --bin learned_train -- --check traces/analyzer_mini.trace

echo "==> analyzer-quality smoke (learned vs paper placement gates)"
# The four cross-analyzer gates: kernel-grid parity, the strict win under
# 50% sample loss, the one-round phase-change re-rank, and multi-round
# autonuma convergence. Already part of tier-1 above; dedicated step so a
# quality regression is named in CI output.
cargo test -q --release -p atmem-bench --test analyzer_quality

echo "==> bench smoke (mode-equivalence + core-sweep invariance, no timing gates)"
# Covers the kernels' Scalar/Bulk equivalence — checksum, counters and
# simulated clock must be bit-identical on every push — and the --cores
# {1,2,4} checksum-invariance of PR, SpMV and the frontier-sharded
# traversal kernels (BFS, SSSP, BC). The smoke snapshot goes to target/
# so it never clobbers the committed full-run baseline at the repo root
# (refresh that one deliberately with `cargo bench --bench kernels`). The
# path is absolute because cargo runs the bench from crates/bench.
cargo bench -p atmem-bench --bench kernels -- --smoke --json "$PWD/target/BENCH_kernels_smoke.json"

echo "CI gate passed."
