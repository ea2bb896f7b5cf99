#!/usr/bin/env bash
# Smoke test of the serving stack with the real binaries: boots pimcompd on
# a Unix socket, submits a two-scenario batch — one feasible, one
# deliberately infeasible (a 1-core / 1-crossbar machine) — through
# `pimcomp_cli submit`, and asserts exactly one success and one structured
# per-scenario error. A second leg speaks the wire protocol directly,
# declaring version 6, and checks the artifact frame and the done frame's
# version and artifact count. Run from the repo root after a build:
#
#   scripts/serve_smoke.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
SOCK=/tmp/pimcompd-smoke-$$.sock
SCENARIOS=$(mktemp /tmp/pimcompd-smoke-scenarios-XXXXXX.json)
OUTCOMES=$(mktemp /tmp/pimcompd-smoke-outcomes-XXXXXX.json)
SERVER_PID=

# Trap-based cleanup so a failing assertion anywhere mid-script (set -e)
# cannot leak a running pimcompd and its socket into the CI runner: the
# daemon is TERMed, given a bounded grace period to exit, KILLed if it
# ignores that, and reaped with `wait` before its files are removed.
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    for _ in $(seq 50); do
      kill -0 "$SERVER_PID" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -f "$SOCK" "$SCENARIOS" "$OUTCOMES"
}
trap cleanup EXIT

cat > "$SCENARIOS" <<'EOF'
[
  {"label": "feasible",
   "options": {"mode": "ll", "parallelism": 8,
               "ga": {"population": 6, "generations": 3}}},
  {"label": "infeasible",
   "options": {"mode": "ll", "parallelism": 8,
               "ga": {"population": 6, "generations": 3}},
   "hardware": {"core_count": 1, "xbars_per_core": 1}}
]
EOF

"$BUILD"/examples/pimcompd --unix "$SOCK" --jobs 2 &
SERVER_PID=$!

for _ in $(seq 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "pimcompd never bound $SOCK" >&2; exit 1; }

# Exit 1 is expected: submit reports per-scenario failures through its exit
# code, and this batch deliberately contains one. --timeout bounds the wait
# on a wedged daemon (exit 2), far above this batch's real compile time.
SUBMIT_EXIT=0
"$BUILD"/examples/pimcomp_cli submit --server "unix:$SOCK" --timeout 300 \
  squeezenet --input 64 --scenarios "$SCENARIOS" --json > "$OUTCOMES" \
  || SUBMIT_EXIT=$?
[ "$SUBMIT_EXIT" -eq 1 ] || {
  echo "submit exit $SUBMIT_EXIT, want 1 (one failing scenario)" >&2
  exit 1
}

python3 - "$OUTCOMES" <<'EOF'
import json, sys

outcomes = json.load(open(sys.argv[1]))
assert len(outcomes) == 2, f"want 2 outcomes, got {len(outcomes)}"
ok = [o for o in outcomes if o.get("ok")]
bad = [o for o in outcomes if not o.get("ok")]
assert len(ok) == 1, f"want exactly 1 success: {outcomes}"
assert len(bad) == 1, f"want exactly 1 failure: {outcomes}"
assert ok[0]["scenario"] == "feasible", ok[0]
assert "compile" in ok[0] and "simulation" in ok[0], ok[0]
assert bad[0]["scenario"] == "infeasible", bad[0]
assert bad[0].get("error"), f"failure must carry a structured error: {bad[0]}"
assert bad[0].get("error_kind") == "capacity", \
    f"failure must carry the machine-readable kind: {bad[0]}"
print("serve smoke OK:",
      f"'{ok[0]['scenario']}' compiled,",
      f"'{bad[0]['scenario']}' rejected with: {bad[0]['error'][:90]}")
EOF

# Wire check with a raw client: a requester that declares version 6 and
# selects a lowering backend gets an artifact frame right after its outcome,
# and the done frame advertises the protocol version and artifact count.
python3 - "$SOCK" <<'EOF'
import json, socket, sys

sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect(sys.argv[1])
request = {
    "type": "compile", "version": 6, "id": 7,
    "model": "squeezenet", "input_size": 32, "simulate": False,
    "scenarios": [{"label": "lowered",
                   "options": {"mode": "ll", "parallelism": 4,
                               "ga": {"population": 6, "generations": 3},
                               "backend": "isa-json"}}],
}
sock.sendall((json.dumps(request) + "\n").encode())

frames, buf = [], b""
while not (frames and frames[-1].get("type") in ("done", "error")):
    chunk = sock.recv(65536)
    assert chunk, "server closed the connection mid-request"
    buf += chunk
    while b"\n" in buf:
        line, buf = buf.split(b"\n", 1)
        if line.strip():
            frames.append(json.loads(line))
sock.close()

done = frames[-1]
assert done["type"] == "done", f"request failed: {done}"
kinds = [f["type"] for f in frames if f["type"] != "event"]
assert kinds == ["outcome", "artifact", "done"], kinds
assert done.get("version") == 6, done
assert done.get("artifacts") == 1, done
stream = next(f for f in frames if f["type"] == "artifact")["artifact"]
assert stream.get("isa") == 1, stream
assert stream.get("backend") == "isa-json", stream
assert stream.get("total_ops", 0) > 0, stream
print("wire smoke OK: artifact frame carried",
      f"{stream['total_ops']} ops; done advertises version",
      f"{done['version']} with {done['artifacts']} artifact(s)")
EOF

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=
echo "pimcompd shut down cleanly"
