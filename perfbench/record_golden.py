"""Record the golden output digests that every benchmark run checks against.

    python3 perfbench/record_golden.py

Runs one untraced repetition of each input variant of each workload for
every input seed (``workloads.input_seeds``) and writes the digests to
``perfbench/golden.json``. Re-record only in a change that is meant to alter
simulated outputs, and say so in that change: a speed-up or a refactor must
leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def main() -> int:
    run.import_checkout()
    from perfbench.workloads import WORKLOADS, input_seeds

    golden: dict[str, dict[str, list[str]]] = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as out:
        for name, cls in WORKLOADS.items():
            for seed in input_seeds():
                bench = cls(seed)
                bench.setup()
                digests = []
                for variant in range(bench.variants):
                    rep = run.run_rep(bench, Path(out), traced=False, variant=variant)
                    if rep.errors:
                        raise SystemExit(f"{name} seed {seed}: {rep.errors}")
                    digests.append(rep.digest)
                golden.setdefault(name, {})[str(seed)] = digests
                print(name, seed, digests, flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
