#!/bin/sh
# Multi-replica determinism gate for the distributed sweep tier.
#
# Topology: one solo server (the reference), one coordinator, two
# worker replicas. The gate passes only if:
#
#   1. a multi-curve sweep through the coordinator answers
#      byte-for-byte what the solo server answers, for a grid body and
#      for a kernel without an iteration count (embar, iters resolve
#      to 0),
#   2. the coordinator actually dispatched shards (did not quietly run
#      everything locally),
#   3. with one worker SIGKILLed mid-shard, the coordinator re-dispatches
#      to the surviving peer and the merged output is STILL byte-identical
#      to solo.
#
# Requires: curl, jq. Usage: ci_cluster_gate.sh [base-port]
# Set CLUSTER_GATE_DIAG to a directory to keep logs/responses for
# artifact upload on failure.
set -e

P0="${1:-8391}" # solo
P1=$((P0 + 1))  # worker 1 (the one that dies)
P2=$((P0 + 2))  # worker 2
P3=$((P0 + 3))  # coordinator

if [ -n "${CLUSTER_GATE_DIAG:-}" ]; then
	workdir="$CLUSTER_GATE_DIAG"
	mkdir -p "$workdir"
	keep_workdir=yes
else
	workdir=$(mktemp -d)
	keep_workdir=""
fi
pids=""
cleanup() {
	for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
	[ -n "$keep_workdir" ] || rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/extrap" ./cmd/extrap

# start_server <name> <port> [extra flags...] — wait for readiness and
# record the pid in <name>_pid.
start_server() {
	name=$1
	port=$2
	shift 2
	"$workdir/extrap" serve -addr "127.0.0.1:$port" -timeout 300s "$@" \
		>> "$workdir/$name.log" 2>&1 &
	pid=$!
	pids="$pids $pid"
	eval "${name}_pid=$pid"
	for _ in $(seq 1 100); do
		if curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "cluster-gate: $name did not come up; log:" >&2
	cat "$workdir/$name.log" >&2
	exit 1
}

coord_stat() {
	curl -sf "http://127.0.0.1:$P3/debug/vars" | jq -r ".extrap_serve.cluster.$1"
}

echo "cluster-gate: starting solo reference, 2 workers, coordinator..."
start_server solo "$P0" -workers 4
start_server worker1 "$P1" -role worker -workers 1
start_server worker2 "$P2" -role worker -workers 1
start_server coord "$P3" -role coordinator -workers 4 \
	-peers "http://127.0.0.1:$P1,http://127.0.0.1:$P2"

# Phase 1: multi-curve sweeps, healthy cluster. Raw response bodies must
# be byte-for-byte identical — no jq normalization allowed. ZERO_ITERS
# names no iters: embar has no iteration count, so its shards carry
# iters 0, which every worker must accept.
QUICK='{"benchmark":"grid","size":16,"iters":8,"machines":["cm5","generic-dm","shared-mem"],"procs":[1,2,4,8,16]}'
ZERO_ITERS='{"benchmark":"embar","size":16,"machines":["cm5","generic-dm"],"procs":[1,2,4,8]}'
for case in "quick $QUICK" "zero_iters $ZERO_ITERS"; do
	name=${case%% *}
	body=${case#* }
	curl -sf -X POST -H 'Content-Type: application/json' -d "$body" \
		"http://127.0.0.1:$P0/v1/sweep" -o "$workdir/solo_$name.json"
	if ! curl -sf -X POST -H 'Content-Type: application/json' -d "$body" \
		"http://127.0.0.1:$P3/v1/sweep" -o "$workdir/dist_$name.json"; then
		echo "cluster-gate: coordinator rejected the $name sweep that the solo server answered" >&2
		exit 1
	fi
	if ! diff -u "$workdir/solo_$name.json" "$workdir/dist_$name.json"; then
		echo "cluster-gate: distributed $name sweep differs from solo on a healthy cluster" >&2
		exit 1
	fi
done
dispatched=$(coord_stat shards_dispatched)
if [ "$dispatched" -lt 1 ]; then
	echo "cluster-gate: coordinator dispatched no shards (dispatched=$dispatched) — sweeps ran locally" >&2
	exit 1
fi
echo "cluster-gate: healthy-cluster sweep byte-identical ($dispatched shards dispatched)"

# Phase 1b: fitted-mode determinism. The same dense-ladder fitted sweep
# must answer byte-for-byte identically from the solo server (-workers
# 4), a worker replica's public route (-workers 1), and the coordinator
# (sparse anchors sharded across both workers) — and the response must
# honor the fitted contract: at most 25% of cells simulated, every
# point labeled with its provenance and carrying an interval.
FITTED="{\"benchmark\":\"grid\",\"size\":64,\"iters\":8,\"machines\":[\"cm5\",\"generic-dm\"],\"procs\":[$(seq -s, 1 40)],\"mode\":\"fitted\"}"
for target in "solo $P0" "worker1 $P1" "coord $P3"; do
	name=${target% *}
	port=${target#* }
	curl -sf -X POST -H 'Content-Type: application/json' -d "$FITTED" \
		"http://127.0.0.1:$port/v1/sweep" -o "$workdir/${name}_fitted.json"
done
for name in worker1 coord; do
	if ! diff -u "$workdir/solo_fitted.json" "$workdir/${name}_fitted.json"; then
		echo "cluster-gate: fitted sweep on $name differs from solo" >&2
		exit 1
	fi
done
anchors=$(jq '[.curves[0].points[] | select(.source == "simulated")] | length' "$workdir/solo_fitted.json")
total=$(jq '.curves[0].points | length' "$workdir/solo_fitted.json")
if [ "$anchors" -lt 1 ] || [ $((anchors * 4)) -gt "$total" ]; then
	echo "cluster-gate: fitted sweep simulated $anchors of $total cells — violates the 25% anchor budget" >&2
	exit 1
fi
unlabeled=$(jq '[.curves[].points[] | select(.source == null or .interval_ms == null)] | length' "$workdir/solo_fitted.json")
if [ "$unlabeled" -ne 0 ]; then
	echo "cluster-gate: $unlabeled fitted points missing provenance or interval" >&2
	exit 1
fi
echo "cluster-gate: fitted sweep byte-identical across solo/worker/coordinator ($anchors/$total cells simulated)"

# Phase 2: heavy sweep; SIGKILL worker 1 mid-shard. Heavy enough that
# shards take seconds on a -workers 1 replica, so the kill lands while
# worker 1 holds accepted-but-unfinished shards.
HEAVY='{"benchmark":"grid","size":512,"iters":128,"machines":["cm5","generic-dm"],"procs":[1,2,4,8,16,32,64,128,256]}'
echo "cluster-gate: computing solo reference for the heavy sweep..."
curl -sf -X POST -H 'Content-Type: application/json' -d "$HEAVY" \
	"http://127.0.0.1:$P0/v1/sweep" -o "$workdir/solo_heavy.json"

echo "cluster-gate: launching distributed heavy sweep, then killing worker 1..."
d0=$(coord_stat shards_dispatched)
curl -sf -X POST -H 'Content-Type: application/json' -d "$HEAVY" \
	"http://127.0.0.1:$P3/v1/sweep" -o "$workdir/dist_heavy.json" &
curl_pid=$!

# Wait until worker 1 has accepted at least one of this sweep's shards,
# then kill it — that shard is now lost mid-flight.
accepted=0
for _ in $(seq 1 200); do
	now=$(coord_stat shards_dispatched)
	accepted=$(curl -sf "http://127.0.0.1:$P1/debug/vars" | jq -r '.extrap_serve.cluster.shards_accepted' || echo 0)
	if [ "$now" -gt "$d0" ] && [ "$accepted" -ge 1 ]; then break; fi
	sleep 0.05
done
if [ "$accepted" -lt 1 ]; then
	echo "cluster-gate: worker 1 never accepted a shard; affinity routing exercised nothing — adjust the ladder" >&2
	exit 1
fi
kill -9 "$worker1_pid"
wait "$worker1_pid" 2>/dev/null || true
echo "cluster-gate: worker 1 SIGKILLed with $accepted shards accepted"

wait "$curl_pid" || {
	echo "cluster-gate: distributed heavy sweep failed after worker death; coordinator log:" >&2
	tail -50 "$workdir/coord.log" >&2
	exit 1
}
if ! diff -u "$workdir/solo_heavy.json" "$workdir/dist_heavy.json"; then
	echo "cluster-gate: post-failover sweep differs from solo" >&2
	exit 1
fi
retried=$(coord_stat shards_retried)
local_runs=$(coord_stat shards_local)
if [ "$((retried + local_runs))" -lt 1 ]; then
	echo "cluster-gate: no shard was retried or run locally after the kill (retried=$retried local=$local_runs) — the failure path never engaged" >&2
	exit 1
fi
echo "cluster-gate: OK — byte-identical after worker death (retried=$retried local=$local_runs)"
