"""Freeze reference values from benchmark results into ``reference.json``.

    python3 perfbench/freeze.py

Reads ``perfbench/results/*.json`` and, for every (workload, seed) that has
no reference yet, stores the values the run observed, provided the run
passed its other gates and measured the package source as it is now.
Existing references are never changed.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE = run.HERE / "reference.json"


def main() -> int:
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))
    digest = run.environment()["src_sha256"]
    added = []
    for path in sorted((run.HERE / "results").glob("*.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        if not summary["correct"] or summary["env"]["src_sha256"] != digest:
            continue
        per_seed = references.setdefault(summary["workload"], {})
        seed = str(summary["seed"])
        if seed not in per_seed and summary["observed"]:
            per_seed[seed] = summary["observed"]
            added.append(f"{summary['workload']} seed {seed}")
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print("added: " + (", ".join(added) if added else "nothing"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
