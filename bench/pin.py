"""Pin the expected output of every pool job into ``expected.json``.

Run from the repository root at a commit whose outputs are trusted:

    python3 bench/pin.py

Each pool runs in a fresh interpreter, so the fields it leaves interned
are exactly the fields its jobs build; the benchmark builds those during
set-up.  Every job runs under several ``--seed`` values and must print the
same bytes under each, and must pass its oracle, before it is pinned.
"""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pools

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SEEDS = (0, 1, 7)


def pin_pool(name):
    sys.path.insert(0, str(SRC))
    from steinlab.cli import run
    from steinlab.fields import Field
    jobs = {}
    for job in pools.POOLS[name]:
        seen = {(code, pools.stdout_of(text))
                for code, text in (run(["--seed", str(s)] + shlex.split(job))
                                   for s in SEEDS)}
        if len(seen) != 1:
            raise SystemExit(f"output depends on --seed: {job}")
        ((code, stdout),) = seen
        if not pools.oracle_ok(job, code, stdout.rstrip("\n")):
            raise SystemExit(f"oracle disagrees: {job}")
        jobs[job] = {"code": code, "stdout": stdout}
    return {"jobs": jobs, "fields": sorted(Field._cache)}


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--pool":
        print(json.dumps(pin_pool(sys.argv[2])))
        return
    out = {"jobs": {}, "fields": {}}
    for name in pools.POOLS:
        done = subprocess.run([sys.executable, __file__, "--pool", name],
                              stdout=subprocess.PIPE, check=True, text=True)
        pinned = json.loads(done.stdout)
        out["jobs"].update(pinned["jobs"])
        out["fields"][name] = pinned["fields"]
    (BENCH / "expected.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
