#!/usr/bin/env python3
"""Same-behaviour gate: one sha256 per (model, mode, mapper) cell.

For every zoo model x {ht, ll} x {ga, puma, greedy} at seed 1 and a small
GA budget, runs the built CLI three times:

  pimcomp_cli MODEL --json --cache-dir D ...          (compile + simulate)
  pimcomp_cli MODEL --json --cache-dir D ...          (the same, warm)
  pimcomp_cli lower MODEL --backend sim --run --json  (ISA artifact + run)

and digests all three outputs. D is a fresh directory per cell, so the
second run is served from the disk tier the first one wrote; the script
checks that it was (a cache hit reports zeroed stage times). Wall-clock
stage times are the only nondeterministic fields; they are zeroed
(`stage_times` -> {}) exactly as scripts/cache_smoke.sh normalises them. Two builds behave the same when
they print identical digests, so a refactor that claims "no behaviour
change" runs this on the parent and on the change and diffs the output:

  scripts/behaviour_digest.py build > after.txt
  scripts/behaviour_digest.py ../parent/build > before.txt
  diff before.txt after.txt

With --out DIR the normalised JSON of every cell is kept for diffing a
mismatch. Stdlib only.
"""

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

MODELS = ["vgg16", "resnet18", "googlenet", "inception-v3", "squeezenet"]
MODES = ["ht", "ll"]
MAPPERS = ["ga", "puma", "greedy"]
GA_BUDGET = ["--pop", "6", "--gens", "3"]


def input_size(model):
    """Smallest resolution every zoo model accepts (inception-v3 needs 96)."""
    return 96 if model == "inception-v3" else 32


def run_cli(cli, args):
    result = subprocess.run([str(cli)] + args, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{cli.name} {' '.join(args)} exited {result.returncode}:\n"
                 f"{result.stderr}")
    return json.loads(result.stdout)


def zero_stage_times(report):
    for entry in report if isinstance(report, list) else [report]:
        entry["compile"]["stage_times"] = {}
    return report


def cell_bytes(cli, model, mode, mapper, cache_dir):
    common = [model, "--input", str(input_size(model)), "--mode", mode,
              "--mapper", mapper, "--seed", "1", "--json"] + GA_BUDGET
    cached = common + ["--cache-dir", str(cache_dir)]
    report = zero_stage_times(run_cli(cli, cached))
    warm = run_cli(cli, cached)
    if any(warm["compile"]["stage_times"].values()):
        sys.exit(f"{model}-{mode}-{mapper}: the warm run was not a disk hit")
    warm = zero_stage_times(warm)
    lowered = run_cli(cli, ["lower"] + common + ["--backend", "sim", "--run"])
    return {
        "report": json.dumps(report, indent=2).encode() + b"\n",
        "warm": json.dumps(warm, indent=2).encode() + b"\n",
        "lower": json.dumps(lowered, indent=2).encode() + b"\n",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path,
                        help="keep each cell's normalised JSON here")
    args = parser.parse_args()

    cli = args.build_dir / "examples" / "pimcomp_cli"
    if not cli.is_file():
        sys.exit(f"{cli} not found; build the repository first")

    with tempfile.TemporaryDirectory() as scratch:
        out = args.out or pathlib.Path(scratch)
        out.mkdir(parents=True, exist_ok=True)
        for model in MODELS:
            for mode in MODES:
                for mapper in MAPPERS:
                    cell = f"{model}-{mode}-{mapper}"
                    digest = hashlib.sha256()
                    cache_dir = pathlib.Path(scratch) / "cache" / cell
                    for kind, data in cell_bytes(cli, model, mode, mapper,
                                                 cache_dir).items():
                        (out / f"{cell}.{kind}.json").write_bytes(data)
                        digest.update(data)
                    print(f"{digest.hexdigest()}  {cell}", flush=True)


if __name__ == "__main__":
    main()
