"""Pin the output digest of every benchmark instance for a range of seeds.

    python3 perfbench/pin_digests.py 0 100

Runs each instance of each workload once per seed with the `src/` of this
checkout and rewrites `perfbench/digests.json`. Every op must also pass its
own check, or nothing is written. The benchmark then requires later commits
to reproduce these outputs byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

from run import DIGESTS, ROOT, execute, output_digest, setup

sys.path.insert(0, str(ROOT / "src"))

from semifix import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(first: int, stop: int) -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        rows = digests[name] = {}
        for seed in range(first, stop):
            workdir, instances = setup(workload, seed)
            os.chdir(workdir)
            by_name = {}
            for inst in instances:
                _dt, rc, out, err = execute(cli.main, inst.argv)
                reason = err.strip() if rc is None else inst.check(rc, out)
                if reason:
                    print(f"{name} seed {seed} {inst.name}: {reason}", file=sys.stderr)
                    return 1
                by_name[inst.name] = output_digest(rc, out, err)
            rows[str(seed)] = " ".join(by_name[k] for k in sorted(by_name))
            os.chdir(ROOT)
        print(f"{name}: seeds {first}..{stop - 1} pinned", flush=True)
    doc = {"seeds": [first, stop - 1], "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
