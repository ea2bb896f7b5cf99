#!/usr/bin/env bash
# Smoke test of the fleet serving stack with the real binaries: three
# pimcompd daemons — each with its own cache directory and the other two
# as --peer endpoints — behind one pimcomp_router, all sharing one
# --auth-token. The legs:
#
#   1. A four-scenario batch through the router. Once the router's stats
#      show which backend the batch sharded onto, that daemon is SIGKILLed
#      mid-stream. The batch must still exit 0 with every scenario ok
#      (the router retries on the next backend; already-relayed outcomes
#      are deduplicated) and the router must report the failover.
#   2. The killed daemon is restarted with a FRESH cache directory and the
#      same batch is submitted to it directly: every mapping must come
#      from the network cache tier (cache_hit events with source
#      "remote"), the mapping stage must never run, and the reports must
#      be byte-identical to the router batch modulo wall-clock stage
#      times.
#   3. A raw requester that declares protocol version 4 gets exactly one
#      error frame through the router, naming both versions; a v6 request
#      on the same connection then compiles normally.
#
# Run from the repo root after a build:
#
#   scripts/fleet_smoke.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
BASE=$(mktemp -d /tmp/pimcomp-fleet-smoke-XXXXXX)
TOKEN=fleet-smoke-token
ROUTER_SOCK="$BASE/router.sock"
SCENARIOS="$BASE/scenarios.json"
BATCH_JSON="$BASE/batch.json"
REPLAY_JSON="$BASE/replay.json"
REPLAY_TRACE="$BASE/replay-trace.json"
STATS_JSON="$BASE/stats.json"

DAEMON_PIDS=(0 0 0)
ROUTER_PID=

# Every daemon and the router die with the script, whichever assertion
# tripped: TERM first, a bounded grace, then KILL, then reap.
stop_pid() {
  local pid=$1
  [ -n "$pid" ] && [ "$pid" != 0 ] || return 0
  if kill -0 "$pid" 2>/dev/null; then
    kill -TERM "$pid" 2>/dev/null || true
    for _ in $(seq 50); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$pid" 2>/dev/null || true
  fi
  wait "$pid" 2>/dev/null || true
}
cleanup() {
  stop_pid "$ROUTER_PID"
  for pid in "${DAEMON_PIDS[@]}"; do stop_pid "$pid"; done
  rm -rf "$BASE"
}
trap cleanup EXIT

wait_socket() {
  for _ in $(seq 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "no daemon ever bound $1" >&2
  return 1
}

# start_daemon INDEX CACHE_DIR: pimcompd on $BASE/dINDEX.sock, peered with
# the other two daemons. --jobs 1 keeps the batch's scenarios serial so
# the SIGKILL below reliably lands mid-batch.
start_daemon() {
  local index=$1 cache_dir=$2
  local peers=()
  for other in 0 1 2; do
    [ "$other" != "$index" ] && peers+=(--peer "unix:$BASE/d$other.sock")
  done
  mkdir -p "$cache_dir"
  "$BUILD"/examples/pimcompd --unix "$BASE/d$index.sock" --jobs 1 \
    --cache-dir "$cache_dir" --auth-token "$TOKEN" "${peers[@]}" &
  DAEMON_PIDS[index]=$!
}

for i in 0 1 2; do start_daemon "$i" "$BASE/cache$i"; done
for i in 0 1 2; do wait_socket "$BASE/d$i.sock"; done

"$BUILD"/examples/pimcomp_router --unix "$ROUTER_SOCK" \
  --backend "unix:$BASE/d0.sock" --backend "unix:$BASE/d1.sock" \
  --backend "unix:$BASE/d2.sock" --auth-token "$TOKEN" &
ROUTER_PID=$!
wait_socket "$ROUTER_SOCK"

# Scenario 0 is near-instant — its outcome is relayed before the kill, so
# the retry's deduplication is exercised for real. The heavy GA budgets
# hold the (single-job) backend long enough that the SIGKILL lands while
# the batch is streaming, even on a fast machine: each heavy scenario maps
# for about 1.6 s on a 4-thread host, against the 1 s delay before the
# kill.
cat > "$SCENARIOS" <<'EOF'
[
  {"label": "light", "options": {"mode": "ll", "parallelism": 4,
   "ga": {"population": 6, "generations": 3}}},
  {"label": "heavy-a", "options": {"mode": "ll", "parallelism": 8,
   "ga": {"population": 512, "generations": 2000}}},
  {"label": "heavy-b", "options": {"mode": "ll", "parallelism": 12,
   "ga": {"population": 512, "generations": 2000}}},
  {"label": "heavy-c", "options": {"mode": "ll", "parallelism": 16,
   "ga": {"population": 512, "generations": 2000}}}
]
EOF

"$BUILD"/examples/pimcomp_cli submit --server "unix:$ROUTER_SOCK" \
  --auth-token "$TOKEN" --timeout 300 squeezenet --input 64 \
  --scenarios "$SCENARIOS" --json > "$BATCH_JSON" &
SUBMIT_PID=$!

# The whole batch is one request, so the router sharded it onto exactly
# one backend: poll the router's per-backend counters to find it.
BUSY_EP=
for _ in $(seq 100); do
  "$BUILD"/examples/pimcomp_cli cache stats --server "unix:$ROUTER_SOCK" \
    --auth-token "$TOKEN" --json > "$STATS_JSON" 2>/dev/null || true
  BUSY_EP=$(python3 - "$STATS_JSON" <<'EOF'
import json, sys
try:
    stats = json.load(open(sys.argv[1]))
except Exception:
    sys.exit(0)
for row in stats.get("backends", []):
    if row.get("requests", 0) > 0:
        print(row["endpoint"])
        break
EOF
)
  [ -n "$BUSY_EP" ] && break
  sleep 0.1
done
[ -n "$BUSY_EP" ] || { echo "router never dispatched the batch" >&2; exit 1; }

# Give the backend a beat to get into the heavy scenarios, then kill it
# without ceremony — SIGKILL, no drain, mid-compile.
sleep 1
KILLED=
for i in 0 1 2; do
  [ "$BUSY_EP" = "unix:$BASE/d$i.sock" ] && KILLED=$i
done
[ -n "$KILLED" ] || { echo "unknown busy endpoint $BUSY_EP" >&2; exit 1; }
kill -KILL "${DAEMON_PIDS[KILLED]}"
wait "${DAEMON_PIDS[KILLED]}" 2>/dev/null || true
DAEMON_PIDS[KILLED]=0
# SIGKILL leaves the socket file behind; remove it now so wait_socket
# below observes the *reborn* daemon's bind, not this corpse.
rm -f "$BASE/d$KILLED.sock"
echo "SIGKILLed daemon $KILLED ($BUSY_EP) mid-batch"

SUBMIT_EXIT=0
wait "$SUBMIT_PID" || SUBMIT_EXIT=$?
[ "$SUBMIT_EXIT" -eq 0 ] || {
  echo "batch through the router exited $SUBMIT_EXIT, want 0" >&2
  cat "$BATCH_JSON" >&2 || true
  exit 1
}

"$BUILD"/examples/pimcomp_cli cache stats --server "unix:$ROUTER_SOCK" \
  --auth-token "$TOKEN" --json > "$STATS_JSON"
python3 - "$BATCH_JSON" "$STATS_JSON" <<'EOF'
import json, sys

outcomes = json.load(open(sys.argv[1]))
assert len(outcomes) == 4, f"want 4 outcomes, got {len(outcomes)}"
for outcome in outcomes:
    assert outcome.get("ok"), f"scenario failed despite failover: {outcome}"

stats = json.load(open(sys.argv[2]))
retries = sum(r.get("retries", 0) for r in stats.get("backends", []))
failures = sum(r.get("failures", 0) for r in stats.get("backends", []))
assert retries >= 1, f"router reported no failover retry: {stats}"
assert failures >= 1, f"router reported no backend failure: {stats}"
print(f"failover OK: 4/4 scenarios ok after SIGKILL,",
      f"{failures} backend failure(s), {retries} retry(s)")
EOF

# Restart the killed daemon with a FRESH cache directory: its memory and
# disk tiers know nothing. The same batch submitted to it directly must be
# served entirely from its peers' disks over the network cache tier.
start_daemon "$KILLED" "$BASE/cache-reborn"
wait_socket "$BASE/d$KILLED.sock"

REPLAY_EXIT=0
"$BUILD"/examples/pimcomp_cli submit --server "unix:$BASE/d$KILLED.sock" \
  --auth-token "$TOKEN" --timeout 300 squeezenet --input 64 \
  --scenarios "$SCENARIOS" --trace "$REPLAY_TRACE" --json \
  > "$REPLAY_JSON" || REPLAY_EXIT=$?
[ "$REPLAY_EXIT" -eq 0 ] || {
  echo "replay against the reborn daemon exited $REPLAY_EXIT" >&2
  exit 1
}

python3 - "$REPLAY_TRACE" "$BATCH_JSON" "$REPLAY_JSON" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))["events"]
mapping = [e for e in trace
           if e["event"] == "stage_begin" and e.get("stage") == "mapping"]
assert not mapping, f"reborn daemon recomputed a mapping: {trace}"
remote = [e for e in trace
          if e["event"] == "cache_hit" and e.get("source") == "remote"]
assert len(remote) == 4, \
    f"want 4 remote cache hits, got {len(remote)}: {trace}"

batch = json.load(open(sys.argv[2]))
replay = json.load(open(sys.argv[3]))
for report in batch + replay:
    report["compile"]["stage_times"] = {}
assert json.dumps(batch) == json.dumps(replay), \
    "replay reports differ from the router batch"
print("network cache OK: 4 remote hit(s), 0 mapping invocations,",
      "byte-identical reports")
EOF

# One wire version: a version-4 requester is refused with one error frame
# naming both versions, and the connection stays usable for a v6 request.
python3 - "$ROUTER_SOCK" "$TOKEN" <<'EOF'
import json, socket, sys

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
buf = b""

def exchange(version, request_id):
    global buf
    request = {
        "type": "compile", "version": version, "id": request_id,
        "auth": sys.argv[2],
        "model": "squeezenet", "input_size": 32, "simulate": False,
        "scenarios": [{"label": f"v{version}",
                       "options": {"mode": "ll", "parallelism": 4,
                                   "ga": {"population": 6,
                                          "generations": 3}}}],
    }
    sock.sendall((json.dumps(request) + "\n").encode())
    frames = []
    while not (frames and frames[-1].get("type") in ("done", "error")):
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            assert chunk, "router closed the connection mid-request"
            buf += chunk
        line, buf = buf.split(b"\n", 1)
        if line.strip():
            frames.append(json.loads(line))
    return frames

old = exchange(4, 11)
assert [f["type"] for f in old] == ["error"], old
assert old[0].get("id") == 11, old[0]
assert "v4" in old[0]["error"] and "v6" in old[0]["error"], old[0]

current = exchange(6, 12)
done = current[-1]
assert done["type"] == "done", f"v6 request failed: {done}"
assert done.get("version") == 6 and done.get("ok") == 1, done
sock.close()
print("version gate OK: v4 refused with", repr(old[0]["error"]),
      "and a v6 request on the same connection compiled")
EOF

# Graceful drain: TERM the router, then the daemons; all must exit 0.
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
ROUTER_PID=
for i in 0 1 2; do
  pid=${DAEMON_PIDS[$i]}
  [ "$pid" != 0 ] || continue
  kill -TERM "$pid"
  wait "$pid"
  DAEMON_PIDS[i]=0
done
echo "fleet smoke OK: router and daemons drained cleanly"
