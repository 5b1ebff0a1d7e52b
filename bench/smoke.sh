#!/usr/bin/env bash
# Every bench gate CI runs, in order, each with the flags and environment
# it has always run with. Each bench gates by its exit code; the script
# runs all of them, then lists the failures and exits 1 if there were any.
#
# Usage: bench/smoke.sh [BUILD_DIR]   (default: build)
# Run it from the directory that should receive the BENCH_*.json
# artifacts and the fig7_trace_*.json files; later gates replay the
# artifacts earlier ones wrote.
set -uo pipefail

bin="${1:-build}/bench"
failed=()

gate() {
    printf '\n$ %s\n' "$*"
    if ! "$@"; then
        failed+=("$*")
    fi
}

# Fig. 7 smoke on the channel-parallel engine: bytes/cycle, GB/s,
# simulation wall-clock and the worker-pool speedup per run.
gate "$bin/fig7_main_results" --smoke --json BENCH_PR.json
# RTL engine microbench: engine equivalence (always) and the speedup
# regression floors (Release builds): batch >= 5x per PU over the
# interpreter, and jit >= 1.5x over batch on at least 4 of the 6 apps.
gate "$bin/micro_rtl_engines" --smoke --json BENCH_RTL.json
# The same gates with the jit disabled: the bench must degrade to the
# interpreted batch (the jit gate self-skips) rather than abort.
gate env FLEET_JIT_DISABLE=1 \
    "$bin/micro_rtl_engines" --smoke --json BENCH_RTL_NOJIT.json
# The cycle-accurate RTL backends must report byte-for-byte the same
# bandwidth as the fast functional model, as must a rerun of it.
gate "$bin/fig7_main_results" --smoke --backend rtl --baseline BENCH_PR.json
gate "$bin/fig7_main_results" --smoke --backend rtljit \
    --baseline BENCH_PR.json
gate "$bin/fig7_main_results" --smoke --baseline BENCH_PR.json
# Fault injection: reports identical across host thread counts.
gate "$bin/fig7_main_results" --smoke --faults 2026 --json BENCH_FAULTS.json
# Traced smoke: counters embedded in the JSON plus one Chrome
# trace_event file per app, openable in Perfetto.
gate "$bin/fig7_main_results" --smoke --counters --trace fig7_trace \
    --json BENCH_TRACED.json
# Job runtime: jobs/s, bytes/cycle and slot utilization vs queue depth;
# the depth-1 row anchors against one-shot run().
gate "$bin/job_throughput" --smoke --json BENCH_JOBS.json
# Open-loop serving latency: determinism, distribution and admission
# gates, then an exact p99 replay of the JSON just written.
gate "$bin/serve_latency" --smoke --json BENCH_LAT.json
gate "$bin/serve_latency" --smoke --baseline BENCH_LAT.json
# Multi-tenant isolation: WFQ victim p99 <= 3x isolated while FIFO's
# exceeds WFQ's, no starvation, FIFO/WFQ determinism, then an exact
# victim-p99 replay.
gate "$bin/tenant_isolation" --smoke --json BENCH_TENANT.json
gate "$bin/tenant_isolation" --smoke --baseline BENCH_TENANT.json
# Cluster scale-out: 2-device throughput >= 1.6x, every job served, the
# narrowest link's pipeline p99 above the widest's, 2-device
# determinism, then exact jobs/Mcycle and pipeline-p99 replays.
gate "$bin/cluster_scaling" --smoke --json BENCH_CLUSTER.json
gate "$bin/cluster_scaling" --smoke --baseline BENCH_CLUSTER.json
# Chaos soak: every ticket terminal, zero strands, Ok outputs equal to
# the fault-free golden, recovery bit-identical across backends and
# thread counts, and the halt drill.
gate "$bin/chaos_soak" --smoke --seed 2026 --seed 2027 --seed 2028 \
    --json BENCH_CHAOS.json
# Serving latency under a fault storm (recovery priced in).
gate "$bin/serve_latency" --smoke --faults 2026 --json BENCH_LAT_FAULTS.json
# The paper-figure benches (Fig. 8 and 9, Sec. 7.2-7.4, the memctl
# ablation). Each drives one-shot FleetSystem runs and gates by its
# exit code; none writes JSON yet.
for paper_bench in fig8_loc fig9_memctl_ablation sec72_divergence \
    sec73_memory_bandwidth sec74_hls_comparison ablation_memctl; do
    gate "$bin/$paper_bench"
done

if ((${#failed[@]})); then
    printf '\nFAILED bench gates:\n' >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
printf '\nall bench gates passed\n'
