#!/bin/sh
# bench.sh — run the headline co-simulation benchmarks and record them as a
# JSON snapshot (BENCH_PR<n>.json at the repo root), starting the
# per-PR benchmark trajectory. Usage:
#
#	sh scripts/bench.sh [PR-number]
#
# The snapshot captures the synchronizer hot path (one mission step), the
# distributed RPC path (allocs must stay 0), and —
# since PR 3 — the observability overhead: each obs-enabled benchmark is
# paired with its disabled twin and the relative delta is recorded. Since
# PR 4 the observed RPC path also carries trace-context stamping, and the
# structured event log's enabled-vs-disabled cost is recorded the same way.
# Since PR 5 the RPC quantum is also measured through the faultnet wrapper
# with nothing armed (the passthrough tax must stay ~0) and with the
# resilient transport (replay window + per-RPC deadlines + payload CRCs).
# Since PR 6 the snapshot adds the GEMM kernel-comparison table (ns/op per
# dispatchable microkernel per inference shape, with the avx2-vs-sse
# speedup), the fleet throughput series (missions/sec/host, solo vs batched
# vs batched-int8), and per-benchmark deltas against the previous PR's
# snapshot. Since PR 7 it records the warm-start sweep numbers: the
# drift-cancelling paired warm_speedup_x of cold (replay the shared prefix
# per variant) vs warm (snapshot once, fork per variant) sweeps, and the
# snapshot capture/restore microcosts. Since PR 8 it prices the energy
# ledger with the drift-cancelling BenchmarkMissionStepEnergyPaired run,
# whose energy_overhead_pct is the authoritative ledger cost.
set -eu

cd "$(dirname "$0")/.."
pr="${1:-8}"
out="BENCH_PR${pr}.json"
prev="BENCH_PR$((pr - 1)).json"
raw=$(mktemp)
prevpairs=$(mktemp)
trap 'rm -f "$raw" "$prevpairs"' EXIT

echo "== benchmarks (this takes a few minutes: models train once) =="
go test -run xxx \
    -bench 'BenchmarkMissionStep$|BenchmarkMissionStepObserved$|BenchmarkQuantumTCP$|BenchmarkQuantumTCPObserved$|BenchmarkQuantumTCPFaultnet$|BenchmarkQuantumTCPResilient$' \
    -benchtime 4x -benchmem . | tee "$raw"

echo "== energy ledger cost (drift-cancelling pair) =="
# Alternates accounting-on and EnergyOff missions inside one timing loop so
# shared-vCPU frequency drift cancels; energy_overhead_pct is the number the
# ≤1.5% contract is judged against.
go test -run xxx -bench 'BenchmarkMissionStepEnergyPaired$' -benchtime 40x . | tee -a "$raw"

echo "== fleet throughput (missions/sec/host) =="
# The Paired benchmark interleaves solo and batched fleets in the same
# timing loop, so host-frequency drift cancels and the reported
# batched_speedup_x is the trustworthy headline; the separate Solo/Batched/
# BatchedInt8 runs give absolute missions/sec/host for the table.
go test -run xxx -bench 'BenchmarkFleetSolo$|BenchmarkFleetBatched$|BenchmarkFleetBatchedInt8$' \
    -benchtime 3x -benchmem . | tee -a "$raw"
go test -run xxx -bench 'BenchmarkFleetPaired$' -benchtime 15x . | tee -a "$raw"

echo "== warm-start sweeps (snapshot + fork vs full replay) =="
# The Paired benchmark interleaves a cold sweep (8 variants x full replay)
# and a warm sweep (prefix once, snapshot, 8 forks) in the same timing
# loop; warm_speedup_x is the headline. The snapshot micro-pair prices one
# capture and one restore+rebuild.
go test -run xxx -bench 'BenchmarkWarmstartPaired$' -benchtime 5x . | tee -a "$raw"
go test -run xxx -bench 'BenchmarkSnapshotCapture$|BenchmarkSnapshotRestore$' \
    -benchmem ./internal/experiments/ | tee -a "$raw"

echo "== GEMM kernel table =="
go test -run xxx -bench 'BenchmarkMatMulKernels|BenchmarkMatMulInt8$' \
    -benchmem ./internal/tensor/ | tee -a "$raw"

echo "== batched inference (dnn level) =="
go test -run xxx -bench 'BenchmarkForwardBatch' -benchmem ./internal/dnn/ | tee -a "$raw"

# The logger micro-pair is nanoseconds per op; give it a real benchtime so
# the delta is signal, not timer noise.
go test -run xxx -bench 'BenchmarkLogEvent' -benchmem . | tee -a "$raw"

# `go test | tee` hides a failing left side under POSIX sh (no pipefail):
# refuse to emit a snapshot from empty or benchmark-free output rather than
# writing a silently hollow JSON.
grep -q '^Benchmark' "$raw" || {
    echo "bench.sh: no benchmark output captured; see the log above" >&2
    exit 1
}

# Previous snapshot's ns/op per benchmark, as "name value" pairs, for the
# vs_prev delta section. Missing file (or first PR) yields an empty list.
if [ -f "$prev" ]; then
    sed -n 's/^ *"\(Benchmark[^"]*\)": {"ns_op": \([0-9.eE+-]*\).*/\1 \2/p' "$prev" > "$prevpairs"
fi
# Keep the pairs file non-empty so awk's FNR==NR file split stays correct.
[ -s "$prevpairs" ] || echo "#" > "$prevpairs"

awk -v pr="$pr" '
FNR == NR { if (NF == 2) prevns[$1] = $2; next }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    nsop[name] = $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "ns/quantum") nsq[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "B/op") bop[name] = $i
        if ($(i+1) == "missions/s") mps[name] = $i
        if ($(i+1) == "macs/ns") macs[name] = $i
        if ($(i+1) == "batched_speedup_x") spd[name] = $i
        if ($(i+1) == "warm_speedup_x") warm[name] = $i
        if ($(i+1) == "energy_overhead_pct") nrg[name] = $i
        if ($(i+1) == "image_bytes") imgb[name] = $i
        if ($(i+1) == "solo_missions/s") psolo[name] = $i
        if ($(i+1) == "batched_missions/s") pbatch[name] = $i
    }
    order[n++] = name
}
END {
    printf "{\n  \"pr\": %s,\n  \"benchmarks\": {\n", pr
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s", name, nsop[name]
        if (name in nsq)    printf ", \"ns_quantum\": %s", nsq[name]
        if (name in mps)    printf ", \"missions_per_sec_host\": %s", mps[name]
        if (name in spd)    printf ", \"batched_speedup_x\": %s", spd[name]
        if (name in warm)   printf ", \"warm_speedup_x\": %s", warm[name]
        if (name in nrg)    printf ", \"energy_overhead_pct\": %s", nrg[name]
        if (name in imgb)   printf ", \"image_bytes\": %s", imgb[name]
        if (name in psolo)  printf ", \"solo_missions_per_sec_host\": %s", psolo[name]
        if (name in pbatch) printf ", \"batched_missions_per_sec_host\": %s", pbatch[name]
        if (name in macs)   printf ", \"macs_per_ns\": %s", macs[name]
        if (name in bop)    printf ", \"b_op\": %s", bop[name]
        if (name in allocs) printf ", \"allocs_op\": %s", allocs[name]
        printf "}%s\n", (i < n-1 ? "," : "")
    }
    printf "  },\n  \"gemm_kernels\": {\n"
    # ns/op per kernel per shape, plus the avx2-vs-sse speedup per shape.
    m = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (split(name, part, "/") == 3 && part[1] == "BenchmarkMatMulKernels")
            kname[m++] = name
    }
    for (i = 0; i < m; i++) {
        name = kname[i]
        split(name, part, "/")
        printf "    \"%s/%s\": {\"ns_op\": %s}", part[2], part[3], nsop[name]
        kern[part[2] "/" part[3]] = nsop[name]
        printf "%s\n", (i < m-1 ? "," : "")
    }
    printf "  },\n  \"avx2_speedup_vs_sse\": {\n"
    s = 0
    for (i = 0; i < m; i++) {
        split(kname[i], part, "/")
        if (part[2] != "avx2") continue
        if (!(("sse/" part[3]) in kern)) continue
        sshape[s++] = part[3]
    }
    for (i = 0; i < s; i++) {
        shape = sshape[i]
        printf "    \"%s\": %.2f%s\n", shape, kern["sse/" shape] / kern["avx2/" shape], \
            (i < s-1 ? "," : "")
    }
    # The headline batching and warm-start numbers, each from its
    # drift-cancelling paired run.
    printf "  },\n  \"fleet_batched_speedup\": %s,\n  \"warmstart_speedup\": %s,\n  \"energy_overhead_pct\": %s,\n  \"obs_overhead\": {\n", \
        ("BenchmarkFleetPaired" in spd ? spd["BenchmarkFleetPaired"] : "null"), \
        ("BenchmarkWarmstartPaired" in warm ? warm["BenchmarkWarmstartPaired"] : "null"), \
        ("BenchmarkMissionStepEnergyPaired" in nrg ? nrg["BenchmarkMissionStepEnergyPaired"] : "null")
    # obs-enabled vs obs-disabled deltas: (observed - baseline) / baseline,
    # per metric pairs of (observed benchmark, its disabled twin). The fleet
    # pairs record the batching/precision levers against the solo baseline.
    pairs["BenchmarkMissionStepObserved"]  = "BenchmarkMissionStep"
    pairs["BenchmarkQuantumTCPObserved"]   = "BenchmarkQuantumTCP"
    pairs["BenchmarkLogEventEnabled"]      = "BenchmarkLogEventDisabled"
    pairs["BenchmarkQuantumTCPFaultnet"]   = "BenchmarkQuantumTCP"
    pairs["BenchmarkQuantumTCPResilient"]  = "BenchmarkQuantumTCP"
    pairs["BenchmarkFleetBatched"]         = "BenchmarkFleetSolo"
    pairs["BenchmarkFleetBatchedInt8"]     = "BenchmarkFleetSolo"
    pairs["BenchmarkForwardBatch/ResNet6/batched"]  = "BenchmarkForwardBatch/ResNet6/solo"
    pairs["BenchmarkForwardBatch/ResNet14/batched"] = "BenchmarkForwardBatch/ResNet14/solo"
    m = 0
    for (obsname in pairs) {
        base = pairs[obsname]
        if (!(obsname in nsop) || !(base in nsop)) continue
        pair[m++] = obsname
    }
    for (i = 0; i < m; i++) {
        obsname = pair[i]
        base = pairs[obsname]
        printf "    \"%s_vs_%s\": {\"ns_op_delta_pct\": %.2f", obsname, base, \
            (nsop[obsname] - nsop[base]) / nsop[base] * 100
        if ((obsname in nsq) && (base in nsq) && nsq[base] > 0)
            printf ", \"ns_quantum_delta_pct\": %.2f", \
                (nsq[obsname] - nsq[base]) / nsq[base] * 100
        if ((obsname in mps) && (base in mps) && mps[base] > 0)
            printf ", \"missions_per_sec_delta_pct\": %.2f", \
                (mps[obsname] - mps[base]) / mps[base] * 100
        printf "}%s\n", (i < m-1 ? "," : "")
    }
    printf "  },\n  \"vs_prev\": {\n"
    # ns/op deltas against the previous PR snapshot, for benchmarks present
    # in both (negative = faster now).
    m = 0
    for (i = 0; i < n; i++)
        if ((order[i] in prevns) && prevns[order[i]] > 0) common[m++] = order[i]
    for (i = 0; i < m; i++) {
        name = common[i]
        printf "    \"%s\": {\"prev_ns_op\": %s, \"ns_op_delta_pct\": %.2f}%s\n", \
            name, prevns[name], (nsop[name] - prevns[name]) / prevns[name] * 100, \
            (i < m-1 ? "," : "")
    }
    printf "  }\n}\n"
}' "$prevpairs" "$raw" > "$out"

echo "benchmark snapshot written to $out"
