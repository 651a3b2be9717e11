"""Record the reference outputs that ``run.py`` compares each operation with.

From the repository root, at the commit whose outputs are the reference:

    python3 bench/record_reference.py --seeds 0-63

Runs each input of each workload once per seed (untimed), checks it
against the statistical limits, and merges its fingerprint into
bench/reference.json.  A run on a seed without an entry also checks one
input of a recorded seed against its entry.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def save(path: str, doc: dict) -> None:
    """Write the whole document, one line per seed, after each seed.

    An interrupted run keeps its work, and re-recording a seed changes
    one line.
    """
    blocks = []
    for name, entries in sorted(doc["workloads"].items()):
        seeds = sorted(entries, key=int)
        lines = [f"  {json.dumps(seed)}: {json.dumps(entries[seed], sort_keys=True)}"
                 for seed in seeds]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    with open(path + ".tmp", "w") as handle:
        handle.write('{"workloads": {\n' + ",\n".join(blocks) + "\n}}\n")
    os.replace(path + ".tmp", path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-63 or 1,5,9")
    args = parser.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "rfpls", "__init__.py")):
        print("bench: src/rfpls not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path) as handle:
        doc = json.load(handle)
    failures = 0
    for name, workload_class in WORKLOADS.items():
        workload = workload_class()
        entries = doc["workloads"].setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            workdir = os.path.join(BENCH_DIR, "out", f"record-{name}-{seed}-{os.getpid()}")
            os.makedirs(workdir)
            try:
                workload.setup(seed, workdir)
                prints = []
                for index in range(workload.period):
                    output, _ = workload.op(index)
                    failed, problems = workload.check(index, output, None)
                    failures += failed
                    for problem in problems:
                        print(f"{name} seed {seed} input {index}: {problem}", file=sys.stderr)
                    prints.append(workload.fingerprint(index, output))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            entries[str(seed)] = prints if workload.period > 1 else prints[0]
            save(path, doc)
            print(f"{name} seed {seed}: recorded", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
