#!/usr/bin/env bash
# Smoke test of the persistent two-tier cache with the real CLI binary:
# compile a model twice with the same --cache-dir and assert that the
# second run (a fresh process — the in-memory tier is gone)
#   1. reports at least one disk-tier cache hit,
#   2. never invokes the mapping stage,
#   3. produces byte-identical reports modulo wall-clock stage times
#      (a cache hit reports zeroed times by convention; the cold run's are
#      real — everything else must match exactly),
# then that artifacts whose schedule breaks an op invariant (every VALU
# waiting on an AG that does not exist) read as misses: a third run
# recomputes them byte-identically and a fourth hits the healed store,
# then checks `pimcomp_cli cache stats`/`purge` round-trip the directory,
# and finally that a lowered instruction stream (`pimcomp_cli lower`)
# rides the disk tier byte-identically across processes.
# Run from the repo root after a build:
#
#   scripts/cache_smoke.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
CACHE_DIR=$(mktemp -d /tmp/pimcomp-cache-smoke-XXXXXX)
COLD_JSON=$(mktemp /tmp/pimcomp-cache-cold-XXXXXX.json)
RUN_JSON=$(mktemp /tmp/pimcomp-cache-run-XXXXXX.json)
RUN_TRACE=$(mktemp /tmp/pimcomp-cache-trace-XXXXXX.json)
COLD_STREAM=$(mktemp /tmp/pimcomp-cache-coldstream-XXXXXX.json)
WARM_STREAM=$(mktemp /tmp/pimcomp-cache-warmstream-XXXXXX.json)

cleanup() {
  rm -rf "$CACHE_DIR"
  rm -f "$COLD_JSON" "$RUN_JSON" "$RUN_TRACE" "$COLD_STREAM" "$WARM_STREAM"
}
trap cleanup EXIT

COMPILE=(squeezenet --input 32 --parallelism 4,8 --pop 6 --gens 3
         --cache-dir "$CACHE_DIR" --json)

# run LEG: compiles COMPILE in a fresh process and asserts what its trace
# shows for LEG — cold: both scenarios persisted to disk; hit: no mapping
# stage, at least one disk hit; miss: the mapping stage ran, no disk hit.
# Every leg's report must equal the cold one byte for byte modulo
# wall-clock stage times (a cache hit reports zeroed times by convention).
run() {
  "$BUILD"/examples/pimcomp_cli "${COMPILE[@]}" --trace "$RUN_TRACE" \
    > "$RUN_JSON"
  [ "$1" = cold ] && cp "$RUN_JSON" "$COLD_JSON"
  python3 - "$1" "$RUN_TRACE" "$COLD_JSON" "$RUN_JSON" <<'EOF'
import json, sys

leg, trace = sys.argv[1], json.load(open(sys.argv[2]))["events"]

def count(event, key, value):
    return sum(e["event"] == event and e.get(key) == value for e in trace)

mapped = count("stage_begin", "stage", "mapping")
hits = count("cache_hit", "source", "disk")
stores = count("cache_store", "source", "disk")
expected = {"cold": stores == 2, "hit": not mapped and hits >= 1,
            "miss": mapped and not hits}[leg]
assert expected, f"{leg} leg: {mapped} mapping stage(s), {hits} disk " \
    f"hit(s), {stores} disk store(s): {trace}"

cold, report = (json.load(open(path)) for path in sys.argv[3:])
for scenario in cold + report:
    assert "error" not in scenario, f"scenario failed: {scenario}"
    scenario["compile"]["stage_times"] = {}
assert json.dumps(cold) == json.dumps(report), \
    f"{leg} leg report differs from the cold report"
print(f"cache {leg} OK: {mapped} mapping stage(s), {hits} disk hit(s),",
      f"{stores} disk store(s), report byte-identical to cold")
EOF
}

run cold
run hit

# Tamper with every persisted artifact: each VALU row (integer kind 1)
# waits on AG 50000000, far outside the schedule's AG domain. The files
# stay well-formed JSON with a valid envelope, so only the op-invariant
# check can reject them: they must read as misses, and the recompute must
# heal the store.
python3 - "$CACHE_DIR" <<'EOF'
import json, pathlib, sys

tampered = 0
for path in pathlib.Path(sys.argv[1]).rglob("*"):
    if not path.is_file() or path.name.startswith("."):
        continue
    artifact = json.loads(path.read_text())
    for program in artifact["schedule"]["programs"]:
        for row in program:
            if row[0] == 1:
                row[2] = 50000000
    path.write_text(json.dumps(artifact, separators=(",", ":")) + "\n")
    tampered += 1
assert tampered == 2, f"expected 2 artifacts to tamper with, got {tampered}"
EOF
run miss
run hit

STATS=$("$BUILD"/examples/pimcomp_cli cache stats --cache-dir "$CACHE_DIR")
echo "$STATS"
echo "$STATS" | grep -q "2 artifact(s)" || {
  echo "cache stats should report 2 artifacts" >&2
  exit 1
}
"$BUILD"/examples/pimcomp_cli cache purge --cache-dir "$CACHE_DIR" \
  | grep -q "purged 2" || {
  echo "cache purge should remove 2 artifacts" >&2
  exit 1
}
echo "cache purge OK"

# Lowered artifacts ride the same disk tier: a cold `lower` persists the
# instruction stream inside its cache artifact, and a warm re-run in a
# fresh process (in-memory tier gone) replays it byte-identically.
LOWER=(lower squeezenet --input 32 --parallelism 4 --pop 6 --gens 3
       --backend isa-json --cache-dir "$CACHE_DIR")
"$BUILD"/examples/pimcomp_cli "${LOWER[@]}" --out "$COLD_STREAM" 2>/dev/null
"$BUILD"/examples/pimcomp_cli "${LOWER[@]}" --out "$WARM_STREAM" 2>/dev/null
cmp -s "$COLD_STREAM" "$WARM_STREAM" || {
  echo "lowered artifact differs between cold and warm runs" >&2
  exit 1
}
"$BUILD"/examples/pimcomp_cli cache stats --cache-dir "$CACHE_DIR" \
  | grep -q "1 artifact(s)" || {
  echo "lower legs should leave exactly 1 cached artifact" >&2
  exit 1
}
echo "lower cache OK: warm instruction stream byte-identical to cold"
