#!/usr/bin/env sh
# Runs the repo's perf-gate benchmarks and emits a machine-readable
# record of the performance trajectory:
#
#	./scripts/bench.sh                     # full sweep (minutes, includes n=10⁶)
#	BENCH_QUICK=1 ./scripts/bench.sh       # CI smoke subset (n=10⁴ variants)
#	BENCH_MULTICORE=1 ./scripts/bench.sh   # multi-core scaling gate only
#	BENCH_OUT=custom.json ./scripts/bench.sh
#
# The output (default BENCH_engine.json) is a JSON array with one object
# per benchmark result: name, n (parsed from the n=… sub-benchmark
# label, null when absent) and every reported metric — ns/op,
# allocs/op, exchanges/s, exchanges/s/worker, ns/exchange,
# allocs/exchange, completion, events/s, staleness percentiles, … CI
# runs the quick subset plus the
# multi-core scaling gate on every PR and uploads the files as
# artifacts, so the exchange-rate, allocation and parallel-scaling
# trajectory of the hot paths is recorded per commit instead of living
# only in PR descriptions.
#
# Covered gates:
#   BenchmarkKernelMillionNode        — sharded SoA simulation kernel
#   BenchmarkRuntimeExchange          — live runtime saturation throughput
#   BenchmarkRuntimeSustained         — sustained harness (asserts ≈0
#                                       allocs/exchange and completion floors)
#   BenchmarkRuntimeSustainedRobust   — sustained harness under 5% extreme-value
#                                       adversaries with clamp + trimmed merge
#                                       installed (asserts the same ≈0
#                                       allocs/exchange with the robust gate hot)
#   BenchmarkRuntimeSustainedTCP      — sustained harness on one socket-backed
#                                       shard with gossip membership: the
#                                       in-round local delivery path (asserts
#                                       zero socket bytes, ≈0 allocs/exchange
#                                       and ≥ 99.9% completion)
#   BenchmarkRuntimeSustainedScaling  — parallel shard workers 1→GOMAXPROCS
#                                       (asserts near-linear speedup when the
#                                       host has the cores; multi-core mode)
#   BenchmarkRuntimeMetricsOverhead   — telemetry-cost gate: registry + trace
#                                       sampling + live 20 Hz scraper vs bare
#                                       (asserts the paired throughput ratio)
#   BenchmarkSystemReduce             — streaming observation fold
#   BenchmarkServeFanOut              — SSE watcher fan-out through the
#                                       serve front end (events/s and
#                                       staleness percentiles)
set -eu
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_engine.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# BENCH_MULTICORE=1 runs only the multi-core scaling gate — the CI
# bench-multicore step's shape, kept separate from the single-core
# smoke so the historical single-worker trajectory stays comparable.
if [ "${BENCH_MULTICORE:-0}" = "1" ]; then
	KERNEL=''
	EXCHANGE=''
	SUSTAINED=''
	ROBUST=''
	TCPLOCAL=''
	SCALING='BenchmarkRuntimeSustainedScaling'
	OVERHEAD=''
	REDUCE_TIME=''
	SERVE=''
elif [ "${BENCH_QUICK:-0}" = "1" ]; then
	KERNEL='BenchmarkKernelMillionNode/n=10000$'
	EXCHANGE='BenchmarkRuntimeExchange/n=10000$'
	SUSTAINED='BenchmarkRuntimeSustained/n=10000$'
	ROBUST='BenchmarkRuntimeSustainedRobust$'
	TCPLOCAL='BenchmarkRuntimeSustainedTCP$'
	SCALING=''
	OVERHEAD='BenchmarkRuntimeMetricsOverhead'
	REDUCE_TIME='10x'
	SERVE='BenchmarkServeFanOut/watchers=100$'
else
	KERNEL='BenchmarkKernelMillionNode'
	EXCHANGE='BenchmarkRuntimeExchange'
	SUSTAINED='BenchmarkRuntimeSustained$'
	ROBUST='BenchmarkRuntimeSustainedRobust$'
	TCPLOCAL='BenchmarkRuntimeSustainedTCP$'
	SCALING='BenchmarkRuntimeSustainedScaling'
	OVERHEAD='BenchmarkRuntimeMetricsOverhead'
	REDUCE_TIME='100x'
	SERVE='BenchmarkServeFanOut'
fi

# Run every gate even if an earlier one fails its assertions: the JSON
# below is written from whatever completed, so a failing run still
# leaves its partial perf record behind for the CI artifact — that is
# exactly the run someone will want numbers for. The script's exit
# status still reports the first failure. (No pipeline here: a
# `{...} | tee` group would run in a subshell and lose $status.)
status=0
bench() {
	if ! "$@" >>"$TMP" 2>&1; then
		status=1
	fi
}
if [ -n "$KERNEL" ]; then
	bench go test -run '^$' -bench "$KERNEL" -benchtime 1x -benchmem .
fi
if [ -n "$EXCHANGE" ]; then
	bench go test -run '^$' -bench "$EXCHANGE" -benchtime 1x -benchmem ./internal/engine
fi
if [ -n "$SUSTAINED" ]; then
	bench go test -run '^$' -bench "$SUSTAINED" -benchtime 1x -benchmem -timeout 30m ./internal/engine
fi
if [ -n "$ROBUST" ]; then
	bench go test -run '^$' -bench "$ROBUST" -benchtime 1x -benchmem -timeout 30m ./internal/engine
fi
if [ -n "$TCPLOCAL" ]; then
	bench go test -run '^$' -bench "$TCPLOCAL" -benchtime 1x -benchmem -timeout 30m ./internal/engine
fi
if [ -n "$SCALING" ]; then
	bench go test -run '^$' -bench "$SCALING" -benchtime 1x -benchmem -timeout 60m ./internal/engine
fi
if [ -n "$OVERHEAD" ]; then
	bench go test -run '^$' -bench "$OVERHEAD" -benchtime 1x -benchmem -timeout 30m ./internal/engine
fi
if [ -n "$REDUCE_TIME" ]; then
	bench go test -run '^$' -bench 'BenchmarkSystemReduce$' -benchtime "$REDUCE_TIME" -benchmem .
fi
if [ -n "$SERVE" ]; then
	bench go test -run '^$' -bench "$SERVE" -benchtime 1x -timeout 30m ./serve
fi
cat "$TMP"

awk '
function key(unit) {
	if (unit == "ns/op") return "ns_per_op"
	if (unit == "B/op") return "bytes_per_op"
	if (unit == "allocs/op") return "allocs_per_op"
	if (unit == "exchanges/s") return "exchanges_per_s"
	if (unit == "exchanges/s/worker") return "exchanges_per_s_per_worker"
	if (unit == "ns/exchange") return "ns_per_exchange"
	if (unit == "allocs/exchange") return "allocs_per_exchange"
	if (unit == "replies/initiated") return "replies_per_initiated"
	if (unit == "completion") return "completion"
	if (unit == "steps/cycle") return "steps_per_cycle"
	if (unit == "base_exchanges/s") return "base_exchanges_per_s"
	if (unit == "telemetry_exchanges/s") return "telemetry_exchanges_per_s"
	if (unit == "telemetry_ratio") return "telemetry_ratio"
	if (unit == "events/s") return "events_per_s"
	if (unit == "staleness_p50_ms") return "staleness_p50_ms"
	if (unit == "staleness_p99_ms") return "staleness_p99_ms"
	return ""
}
BEGIN { print "["; first = 1 }
/^Benchmark/ && NF >= 4 {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
	n = "null"
	if (match(name, /n=[0-9]+/)) n = substr(name, RSTART + 2, RLENGTH - 2)
	if (!first) printf ",\n"
	first = 0
	printf "  {\"name\":\"%s\",\"n\":%s,\"iterations\":%s", name, n, $2
	for (i = 3; i + 1 <= NF; i += 2) {
		k = key($(i + 1))
		if (k != "") printf ",\"%s\":%s", k, $i
	}
	printf "}"
}
END { print "\n]" }
' "$TMP" >"$OUT"
echo "wrote $OUT"
exit "$status"
