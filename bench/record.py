"""Record each workload's output digest and behavioural counts per seed.

Usage (from the repository root):

    python3 bench/record.py FIRST_SEED LAST_SEED

Runs every workload once per seed in FIRST_SEED..LAST_SEED (the adversary,
which has no random input, once) and rewrites bench/expected.json, which
run.py compares every invocation against. Re-record only when a change is
meant to alter the CLI outputs, and say so in that change.
"""

import json
import sys

import run


def main() -> int:
    first, last = map(int, sys.argv[1:3])
    expected = {}
    for name, workload in run.WORKLOADS.items():
        seeds = range(first, last + 1) if workload.seeded else [first]
        for seed in seeds:
            runner = run.Runner(run.WORKLOADS, seed, {})
            try:
                inv = runner.invoke(name, traced=False)
            finally:
                runner.close()
            if inv.failed:
                print(f"{name} seed {seed}: {inv.error}", file=sys.stderr)
                return 1
            key = run.expected_key(workload, seed)
            expected.setdefault(name, {})[key] = {"digest": inv.digest, "counts": inv.counts}
            print(f"{name} {key} {inv.digest}", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
