"""Self-check that the benchmark's gates fire.

    python3 perfbench/selfcheck.py

On a tiny 2D N=2 random field it runs the ``cold-2d`` pipeline and its
gates (a cold ``coarse``, then ``ellipticity`` twice from the cache) four
times: against the theta it measured itself, against that value moved by
1e-9 relative (solver noise; must pass), against it moved by 1e-4 relative
(a wrong answer; must fail) and on a truncated copy of the field file (must
fail).  Prints the fail ratio of each case and exits 0 only when every case
behaves.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cge.fields  # noqa: E402
import cge.grid  # noqa: E402
import workloads as wl  # noqa: E402


def cold_2d(workdir: Path, field: str, reference: dict | None) -> wl.Ledger:
    ledger = wl.Ledger(reference)
    run = wl.Run("cold-2d", workdir, {"random": field}, ledger)
    run.timed_pass()
    run.check()
    run.retire_cache()
    return ledger


def main() -> int:
    scratch = HERE / "tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch))
    try:
        field = cge.fields.gen_random_spd(cge.grid.GridSpec(2, 2), 1, 1e-2, 1e2)
        path = wl.write_fields({"random": field}, workdir / "fields")["random"]
        truncated = workdir / "fields" / "truncated.cgf"
        data = Path(path).read_bytes()
        truncated.write_bytes(data[: len(data) // 2])

        probe = cold_2d(workdir, path, None)
        theta = probe.observed["random.theta"]

        cases = [
            ("own reference", path, {"random.theta": theta}, False),
            ("reference moved 1e-9", path, {"random.theta": theta * (1 + 1e-9)}, False),
            ("reference moved 1e-4", path, {"random.theta": theta * (1 + 1e-4)}, True),
            ("truncated field file", str(truncated), None, True),
        ]
        ok = probe.n_failed == 0
        for label, field_path, reference, must_fail in cases:
            ledger = cold_2d(workdir, field_path, reference)
            ratio = ledger.n_failed / ledger.attempted
            good = (ratio > 0) == must_fail
            ok &= good
            print(f"{label}: fail_ratio = {ratio:g} "
                  f"({'expected' if good else 'UNEXPECTED'})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("gates fire as expected" if ok else "gate self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
