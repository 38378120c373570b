"""Command-line interface with reproducible, hash-stamped reports.

Subcommands
-----------
``gen``
    Write a coefficient field file (constant, laminate, random SPD,
    layered, Cantor or cascade construction).
``coarse``
    Run the full coarse-graining sweep and summarize per-level results.
``ellipticity``
    Compute the scale-weighted ellipticity constants and their ratio.
``criterion``
    Evaluate the integrability criterion for a pair of moment exponents.
``harnack``
    Run a two-sided (positive data) or one-sided oscillation experiment.
``sweep``
    Run a family of experiments (contrast sharpness or Cantor generations)
    and optionally emit JSON-lines records, a CSV summary and plot data.
``audit``
    Re-verify the ordering, monotonicity and scaling relations on a field.

Exit codes: ``0`` success, ``2`` a verdict-style check failed (experiment
threshold, criterion not satisfied, audit violations), ``1`` operational
error (bad arguments, unreadable files, config parse errors, solver
failure).

Reports embed the field content hash, the fully resolved configuration and
the tool version; ``report_hash`` is the SHA-256 of the canonical JSON
excluding the timestamp, so reruns with identical inputs and seed are
byte-identical apart from the timestamp line.  JSON is UTF-8; CSV files
use the standard dialect (CRLF line terminators).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .coarse import DEFAULT_S_GRID, audit, ellipticity_constants, sweep
from .fields import (
    CantorParams,
    CascadeParams,
    LayeredParams,
    gen_cantor_field,
    gen_cascade_field,
    gen_constant,
    gen_laminate,
    gen_layered_example,
    gen_random_spd,
)
from .grid import FieldFormatError, GridSpec, read_field, write_field
from .harness import (
    ExperimentRecord,
    MaxPrincipleViolation,
    harnack_experiment,
    local_boundedness_experiment,
    sharpness_boundary,
    sharpness_sweep,
)
from .norms import CriterionInput, sobolev_criterion_report
from .solver import SolverError

log = logging.getLogger("cge")

__all__ = [
    "CliError",
    "ConfigError",
    "build_parser",
    "emit_csv_summary",
    "emit_jsonl",
    "emit_plot_data",
    "load_config_file",
    "main",
    "parse_boundary",
]


class CliError(Exception):
    """Usage or input error; mapped to exit code 1."""


class ConfigError(Exception):
    """Malformed or unknown configuration entry; mapped to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

#: Recognized configuration keys and their parsers.
CONFIG_SPEC: dict[str, Callable[[str], object]] = {
    "cache_dir": str,
    "seed": int,
    "s": float,
    "t": float,
}

_CONFIG_DEFAULTS: dict[str, object] = {
    "cache_dir": None,
    "seed": 0,
    "s": 0.45,
    "t": 0.45,
}


def load_config_file(path) -> dict[str, object]:
    """Parse a plain-text ``key = value`` configuration file.

    Blank lines and ``#`` comments are ignored.  Unknown keys and malformed
    lines raise :class:`ConfigError` naming the offending line number.
    """
    values: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SPEC:
            known = ", ".join(sorted(CONFIG_SPEC))
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} (known keys: {known})"
            )
        try:
            values[key] = CONFIG_SPEC[key](value)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {err}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    resolved = dict(_CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        resolved.update(load_config_file(args.config))
    for key in CONFIG_SPEC:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _strip_volatile(obj):
    """Drop wall-clock timings so reruns produce identical bytes."""
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, (list, tuple)):
        return [_strip_volatile(v) for v in obj]
    return obj


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def make_report(
    command: str,
    result: dict,
    resolved_config: dict[str, object],
    field_hash: str | None = None,
) -> dict:
    """Assemble a report; ``report_hash`` covers everything but the timestamp."""
    body = {
        "command": command,
        "version": __version__,
        "config": _strip_volatile(resolved_config),
        "field_hash": field_hash,
        "result": _strip_volatile(result),
    }
    body["report_hash"] = hashlib.sha256(
        _canonical_json(body).encode("utf-8")
    ).hexdigest()
    body["timestamp"] = datetime.now(timezone.utc).isoformat()
    return body


def write_report(report: dict, out_path) -> None:
    """Write the report as UTF-8 JSON when a path was requested."""
    if out_path is None:
        return
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    Path(out_path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Record emission (JSON-lines, CSV summary, plot data)
# ---------------------------------------------------------------------------

def emit_jsonl(records: Sequence[ExperimentRecord], path) -> None:
    """One canonical-JSON record per line, UTF-8."""
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(_canonical_json(_strip_volatile(rec.to_dict())) + "\n")


def emit_csv_summary(
    records: Sequence[ExperimentRecord],
    parameters: Sequence[float],
    path,
) -> None:
    """Per-record summary table: field, parameter, theta, log-ratio, PASS."""
    if len(records) != len(parameters):
        raise ValueError("one parameter per record is required")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["field", "parameter", "theta", "log_ratio", "passed"])
        for rec, param in zip(records, parameters):
            writer.writerow([
                rec.field_descriptor,
                repr(float(param)),
                repr(rec.theta),
                repr(rec.ratio),
                rec.passed,
            ])


def emit_plot_data(records: Sequence[ExperimentRecord], kind: str, path) -> None:
    """Plot-ready CSV with columns ``x, y, series, field_hash``.

    ``sharpness`` plots the log-oscillation against ``sqrt(theta)`` in a
    single series; ``cantor`` does the same with one series per field (one
    per generation).  An empty record list is an error.
    """
    if not records:
        raise ValueError("no records to plot")
    if kind not in ("sharpness", "cantor"):
        raise ValueError(f"unknown plot kind {kind!r}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "series", "field_hash"])
        for rec in records:
            series = "sharpness" if kind == "sharpness" else rec.field_descriptor
            writer.writerow(
                [repr(math.sqrt(rec.theta)), repr(float(rec.ratio)), series, rec.field_hash]
            )


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

def parse_boundary(spec: str, d: int) -> tuple[Callable, str]:
    """Boundary data from a ``name:params`` string.

    ``constant:C`` — the constant ``C``; ``affine:c0,c1,...,cd`` — the
    affine function ``c0 + c1*x1 + ... + cd*xd``; ``exp-cos:L`` — the trace
    of ``exp(sqrt(L) x1) cos(x2)`` (two dimensions only).
    """
    name, _, rest = spec.partition(":")
    if name == "constant":
        try:
            value = float(rest)
        except ValueError:
            raise CliError(f"bad constant boundary {spec!r}") from None

        def fn(*mesh):
            return np.full_like(np.asarray(mesh[0], dtype=float), value)

        return fn, spec
    if name == "affine":
        try:
            coeffs = [float(v) for v in rest.split(",")]
        except ValueError:
            raise CliError(f"bad affine boundary {spec!r}") from None
        if len(coeffs) != d + 1:
            raise CliError(
                f"affine boundary needs {d + 1} coefficients for d={d}, "
                f"got {len(coeffs)}"
            )

        def fn(*mesh):
            out = np.full_like(np.asarray(mesh[0], dtype=float), coeffs[0])
            for c, axis_vals in zip(coeffs[1:], mesh):
                out = out + c * np.asarray(axis_vals, dtype=float)
            return out

        return fn, spec
    if name == "exp-cos":
        if d != 2:
            raise CliError("exp-cos boundary data is two-dimensional")
        try:
            lam = float(rest)
        except ValueError:
            raise CliError(f"bad exp-cos boundary {spec!r}") from None
        fn, tag = sharpness_boundary(lam)
        return fn, tag
    raise CliError(
        f"unknown boundary {name!r} (known: constant, affine, exp-cos)"
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _load_field(path):
    try:
        return read_field(path)
    except FileNotFoundError:
        raise CliError(f"field file not found: {path}") from None


def _comma_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _comma_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects comma-separated integers, got {text!r}") from None


def cmd_gen(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    grid = GridSpec(args.grid_d, args.grid_n)
    seed = int(resolved["seed"])
    kind = args.kind
    if kind == "constant":
        diag = _comma_floats(args.diag, "--diag")
        if len(diag) != grid.d:
            raise CliError(f"--diag needs {grid.d} entries for d={grid.d}")
        field = gen_constant(grid, np.diag(diag), descriptor=f"diag({args.diag})")
    elif kind == "laminate":
        values = _comma_floats(args.values, "--values")
        field = gen_laminate(grid, args.axis, values)
    elif kind == "random":
        field = gen_random_spd(grid, seed, args.eig_low, args.eig_high)
    elif kind == "layered":
        field = gen_layered_example(grid, LayeredParams(args.alpha, args.k_max))
    elif kind == "cantor":
        field = gen_cantor_field(grid, CantorParams(args.generation))
    elif kind == "cascade":
        field = gen_cascade_field(grid, CascadeParams(args.gamma, args.generation, seed))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown kind {kind!r}")
    write_field(field, args.field_out)
    result = {
        "path": str(args.field_out),
        "descriptor": field.descriptor,
        "grid": {"d": grid.d, "N": grid.N},
    }
    report = make_report("gen", result, resolved, field_hash=field.content_hash)
    write_report(report, args.out)
    print(f"field_hash={field.content_hash}")
    return 0


def cmd_coarse(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    field = _load_field(args.field)
    result = sweep(field, cache_dir=resolved["cache_dir"])
    summary = {
        "solve_count": result.solve_count,
        "cache_hits": result.cache_hits,
        "n_cubes": result.n_cubes(),
        "levels": sorted(int(k) for k in result.levels),
        "failures": list(result.failures),
    }
    report = make_report("coarse", summary, resolved, field_hash=field.content_hash)
    write_report(report, args.out)
    print(f"solves={result.solve_count} cache_hits={result.cache_hits} "
          f"failures={len(result.failures)}")
    return 1 if result.failures else 0


def cmd_ellipticity(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    field = _load_field(args.field)
    result = sweep(field, cache_dir=resolved["cache_dir"])
    if result.failures:
        raise CliError(f"{len(result.failures)} cube solves failed")
    report_obj = ellipticity_constants(result, float(resolved["s"]), float(resolved["t"]))
    payload = report_obj.to_dict()
    payload["solve_count"] = result.solve_count
    payload["cache_hits"] = result.cache_hits
    report = make_report("ellipticity", payload, resolved, field_hash=field.content_hash)
    write_report(report, args.out)
    print(f"theta={report_obj.theta}")
    return 0


def cmd_criterion(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    field = _load_field(args.field)
    try:
        inp = CriterionInput(args.p, args.q, args.alpha, args.beta)
    except ValueError as err:
        raise CliError(str(err)) from None
    sweep_result = None
    if args.with_solves:
        sweep_result = sweep(field, cache_dir=resolved["cache_dir"])
    crit = sobolev_criterion_report(field, inp, sweep_result=sweep_result)
    report = make_report("criterion", crit.to_dict(), resolved,
                         field_hash=field.content_hash)
    write_report(report, args.out)
    print(f"satisfied={crit.satisfied} sigma_tilde={crit.sigma_tilde}")
    for warning in crit.warnings:
        log.warning("%s", warning)
    return 0 if crit.satisfied else 2


def cmd_harnack(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    field = _load_field(args.field)
    boundary, tag = parse_boundary(args.boundary, field.grid.d)
    s, t = float(resolved["s"]), float(resolved["t"])
    sweep_result = None
    if args.with_solves and args.theta is None:  # a given theta overrides the sweep's
        sweep_result = sweep(field, cache_dir=resolved["cache_dir"])
    runner = (local_boundedness_experiment if args.mode == "one-sided"
              else harnack_experiment)
    record = runner(field, boundary, s, t,
                    sweep_result=sweep_result, theta=args.theta,
                    boundary_descriptor=tag)
    report = make_report("harnack", record.to_dict(), resolved,
                         field_hash=field.content_hash)
    write_report(report, args.out)
    verdict = "PASS" if record.passed else "FAIL"
    print(f"{verdict} ratio={record.ratio:.6g} threshold={record.threshold:.6g} "
          f"theta={record.theta:.6g}")
    return 0 if record.passed else 2


def _cantor_family_records(
    generations: Sequence[int],
    s: float,
    t: float,
    resolved: dict[str, object],
) -> tuple[list[ExperimentRecord], list[float]]:
    records: list[ExperimentRecord] = []
    params: list[float] = []
    for n in generations:
        if n < 1:
            raise CliError("cantor generations must be >= 1")
        grid = GridSpec(2, n)
        field = gen_cantor_field(grid, CantorParams(n))
        sweep_result = sweep(field, cache_dir=resolved["cache_dir"])
        boundary, tag = parse_boundary("affine:2,1,0", 2)
        record = harnack_experiment(
            field, boundary, s, t, sweep_result=sweep_result, boundary_descriptor=tag)
        records.append(record)
        params.append(float(n))
    return records, params


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    s, t = float(resolved["s"]), float(resolved["t"])
    if args.kind == "sharpness":
        lambdas = _comma_floats(args.contrasts, "--lambda")
        try:
            sharp = sharpness_sweep(lambdas, s=s, t=t, N=args.grid_n)
        except ValueError as err:
            raise CliError(str(err)) from None
        records = list(sharp.records)
        params = [r.theta for r in records]
        result = sharp.to_dict()
        summary = (f"slope={sharp.slope:.6g} intercept={sharp.intercept:.6g}"
                   if sharp.slope is not None else "slope=nan (too few points)")
        field_hash = records[0].field_hash if records else None
        ok = bool(records) and not sharp.failures and all(r.passed for r in records)
    else:
        generations = _comma_ints(args.generations, "--generations")
        records, params = _cantor_family_records(generations, s, t, resolved)
        result = {"records": [r.to_dict() for r in records],
                  "generations": generations}
        thetas = [r.theta for r in records]
        summary = ("theta=" + ",".join(f"{v:.6g}" for v in thetas))
        field_hash = records[-1].field_hash if records else None
        ok = all(r.passed for r in records)

    report = make_report(f"sweep-{args.kind}", result, resolved, field_hash=field_hash)
    write_report(report, args.out)
    if args.records_out:
        emit_jsonl(records, args.records_out)
    if args.csv_out:
        emit_csv_summary(records, params, args.csv_out)
    if args.plot_out:
        emit_plot_data(records, args.kind, args.plot_out)
    print(summary)
    return 0 if ok else 2


def cmd_audit(args: argparse.Namespace) -> int:
    resolved = _resolve_config(args)
    s_grid = (tuple(_comma_floats(args.s_grid, "--s-grid"))
              if args.s_grid is not None else DEFAULT_S_GRID)
    field = _load_field(args.field)
    result = sweep(field, cache_dir=resolved["cache_dir"])
    if result.failures:
        raise CliError(f"{len(result.failures)} cube solves failed")
    audit_report = audit(result, s_grid=s_grid)
    report = make_report("audit", audit_report.to_dict(), resolved,
                         field_hash=field.content_hash)
    write_report(report, args.out)
    worst = max(audit_report.max_slack.values(), default=0.0)
    print(f"violations={len(audit_report.violations)} "
          f"checked={sum(audit_report.checked.values())} "
          f"max_slack={worst:.3g}")
    return 0 if audit_report.ok else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise CliError(message)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the JSON report here")
    common.add_argument("--config", default=None,
                        help="plain-text key = value configuration file")
    common.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="cache directory for coarse-graining results")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized constructions")
    common.add_argument("-v", "--verbose", action="count", default=0)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = _Parser(prog="cge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("gen", parents=[common], help="write a coefficient field file")
    p.add_argument("--kind", required=True,
                   choices=["constant", "laminate", "random", "layered",
                            "cantor", "cascade"])
    p.add_argument("--grid-d", type=int, default=2)
    p.add_argument("--grid-n", type=int, default=5)
    p.add_argument("--field-out", required=True)
    p.add_argument("--diag", default="1,1", help="constant: diagonal entries")
    p.add_argument("--values", default="1,4", help="laminate: stripe values")
    p.add_argument("--axis", type=int, default=0, help="laminate: stripe axis")
    p.add_argument("--eig-low", type=float, default=1e-3)
    p.add_argument("--eig-high", type=float, default=1e3)
    p.add_argument("--alpha", type=float, default=0.5, help="layered: width exponent")
    p.add_argument("--k-max", type=int, default=3, help="layered: layer count")
    p.add_argument("--generation", type=int, default=2,
                   help="cantor/cascade: generation")
    p.add_argument("--gamma", type=float, default=0.5, help="cascade: intermittency")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("coarse", parents=[common],
                       help="run the coarse-graining sweep")
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_coarse)

    p = sub.add_parser("ellipticity", parents=[common],
                       help="scale-weighted ellipticity constants")
    p.add_argument("--field", required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=cmd_ellipticity)

    p = sub.add_parser("criterion", parents=[common],
                       help="moment-exponent integrability criterion")
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--with-solves", action="store_true",
                   help="also compute the solver-based ellipticity ratio")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("harnack", parents=[common],
                       help="oscillation experiment on a solved problem")
    p.add_argument("--field", required=True)
    p.add_argument("--boundary", required=True,
                   help="constant:C | affine:c0,...,cd | exp-cos:L")
    p.add_argument("--mode", choices=["two-sided", "one-sided"],
                   default="two-sided")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--theta", type=float, default=None,
                   help="explicit ellipticity ratio (skips the sweep and surrogates)")
    p.add_argument("--with-solves", action="store_true",
                   help="compute theta from a coarse-graining sweep, unless --theta is given")
    p.set_defaults(func=cmd_harnack)

    p = sub.add_parser("sweep", parents=[common], help="experiment families")
    p.add_argument("--kind", required=True, choices=["sharpness", "cantor"])
    p.add_argument("--lambda", dest="contrasts", default="1,4,16,64",
                   help="sharpness: comma-separated contrasts")
    p.add_argument("--generations", default="2,3",
                   help="cantor: comma-separated generations")
    p.add_argument("--grid-n", type=int, default=5,
                   help="sharpness: grid refinement exponent")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--records-out", default=None, help="JSON-lines records file")
    p.add_argument("--csv-out", default=None, help="CSV summary file")
    p.add_argument("--plot-out", default=None, help="plot-data CSV file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", parents=[common],
                       help="verify ordering/monotonicity/scaling relations")
    p.add_argument("--field", required=True)
    p.add_argument("--s-grid", default=None,
                   help="comma-separated exponents to audit")
    p.set_defaults(func=cmd_audit)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once a process: building one
    takes milliseconds, and a parse leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cmd", None) is None:
            parser.print_help(sys.stderr)
            return 1
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (FieldFormatError, SolverError, MaxPrincipleViolation,
            ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
