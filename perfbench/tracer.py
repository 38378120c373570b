"""Outside-in tracer for the benchmark's traced run.

Spans are recorded around calls into the public functions of the seven
``cge`` modules.  Each wrapper is bound at every module attribute that names
the wrapped function, so calls between modules (``cli`` -> ``coarse.sweep``
-> ``solver.neumann_functionals``) are seen without changing the package.
Spans stay in memory until the run ends; per-layer metrics are computed from
them by :func:`layer_metrics`.

The CLI runs sweeps single-threaded unless ``--threads`` is passed, which the
benchmark never does, so one call stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("fields", "grid", "solver", "coarse", "norms", "harness", "cli")

#: Public functions that mark a layer boundary, by defining module.  A name
#: that a later version of the package no longer defines is skipped, so its
#: spans are absent rather than an error.
TARGETS = {
    "fields": ("gen_constant", "gen_laminate", "gen_random_spd",
               "gen_layered_example", "gen_cantor_field", "gen_cascade_field"),
    "grid": ("read_field", "write_field"),
    "solver": ("neumann_functionals", "batched_neumann_functionals",
               "solve_dirichlet"),
    "coarse": ("sweep", "audit", "ellipticity_constants"),
    "norms": ("scale_discounted_averages", "sobolev_criterion_report"),
    "harness": ("harnack_experiment", "local_boundedness_experiment",
                "sharpness_sweep"),
    "cli": ("main",),
}

#: Triadic levels reported for the Neumann solves (2D N=5 has 0 .. -4).
NEUMANN_LEVELS = (0, -1, -2, -3, -4)


def _sym_defect(g: np.ndarray) -> np.ndarray:
    """``|g - g^T| / |g|`` (Frobenius) over the trailing two axes."""
    num = np.linalg.norm(g - np.swapaxes(g, -1, -2), axis=(-2, -1))
    return num / np.maximum(np.linalg.norm(g, axis=(-2, -1)), 1e-300)


def _neumann_note(args, out):
    g, stats = out
    return {"level": int(args["cube"].level), "cubes": 1,
            "iters": int(stats.iterations), "iters_max": int(stats.iterations),
            "unknowns": int(stats.unknowns), "residual": float(stats.residual),
            "method": str(stats.method),
            "sym_defect": float(_sym_defect(g))}


def _batched_note(args, out):
    g_all, stats = out
    g = g_all.reshape((-1,) + g_all.shape[-2:])
    return {"level": int(args["level"]), "cubes": int(g.shape[0]),
            "iters": int(stats.iterations), "iters_max": int(stats.iterations),
            "unknowns": int(stats.unknowns), "residual": float(stats.residual),
            "method": str(stats.method),
            "sym_defect": float(_sym_defect(g).max())}


def _dirichlet_note(args, out):
    _, stats = out
    return {"unknowns": int(stats.unknowns), "residual": float(stats.residual),
            "method": str(stats.method)}


def _sweep_note(args, out):
    n_grid, d = out.grid.N, out.grid.d
    cubes = sum(3 ** (-level * d) for level in out.levels if level > -n_grid)
    return {"cubes": int(cubes), "hits": int(out.cache_hits),
            "solves": int(out.solve_count), "failures": len(out.failures)}


def _audit_note(args, out):
    return {"checked": int(sum(out.checked.values())), "violations": len(out.violations)}


def _file_note(args, out):
    return {"bytes": os.path.getsize(args["path"])}


NOTES = {
    "solver.neumann_functionals": _neumann_note,
    "solver.batched_neumann_functionals": _batched_note,
    "solver.solve_dirichlet": _dirichlet_note,
    "coarse.sweep": _sweep_note,
    "coarse.audit": _audit_note,
    "grid.read_field": _file_note,
    "grid.write_field": _file_note,
}


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module("cge")]
        modules += [importlib.import_module(f"cge.{name}") for name in MODULES]
        for home_name, names in TARGETS.items():
            home = importlib.import_module(f"cge.{home_name}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{home_name}.{name}")
                    continue
                wrapper = self._wrap(f"{home_name}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                try:
                    span["attrs"] = note(signature.bind(*args, **kwargs).arguments, out)
                except (AttributeError, KeyError, TypeError, ValueError) as err:
                    # a changed return type loses the attributes, not the span
                    span["note_error"] = repr(err)
            return out

        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def _group(name: str) -> str:
    """Layer a span belongs to, as used in the metric names."""
    if name in ("solver.neumann_functionals", "solver.batched_neumann_functionals"):
        return "solver.neumann"
    if name == "solver.solve_dirichlet":
        return "solver.dirichlet"
    if name == "coarse.ellipticity_constants":
        return "coarse.ellipticity"
    if name.startswith("coarse.") or name.startswith("grid."):
        return name
    return name.split(".", 1)[0]


def span_tree(spans: list[dict]) -> tuple[dict[int, float], list[dict]]:
    """Self time of every span, and the spans outermost within their layer.

    A span's self time is its duration minus the time its direct children
    cover (children of one span never overlap in a single thread).
    """
    self_time = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= s["end"] - s["start"]
    outer = []
    for s in spans:
        group, parent = _group(s["name"]), s["parent"]
        while parent is not None and _group(spans[parent]["name"]) != group:
            parent = spans[parent]["parent"]
        if parent is None:
            outer.append(s)
    return self_time, outer


def layer_metrics(spans: list[dict]) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics ``{name: (value, unit)}`` and per-level method labels."""
    self_time, outer = span_tree(spans)

    def dur(s):
        return s["end"] - s["start"]

    def named(group, only_outer=False):
        pool = outer if only_outer else spans
        return [s for s in pool if _group(s["name"]) == group]

    def attrs(group):
        return [s.get("attrs", {}) for s in named(group)]

    m: dict[str, tuple[float, str]] = {}
    labels: dict[str, list[str]] = {}
    neumann = named("solver.neumann")
    for level in NEUMANN_LEVELS:
        sel = [s for s in neumann if s.get("attrs", {}).get("level") == level]
        a = [s["attrs"] for s in sel]
        key = f"solver.neumann.level{level}"
        m[f"{key}.s"] = (sum(dur(s) for s in sel), "s")
        m[f"{key}.cubes"] = (sum(x["cubes"] for x in a), "count")
        m[f"{key}.unknowns"] = (max((x["unknowns"] for x in a), default=0), "count")
        m[f"{key}.iters"] = (sum(x["iters"] for x in a), "count")
        m[f"{key}.iters_max"] = (max((x["iters_max"] for x in a), default=0), "count")
        m[f"{key}.residual_max"] = (max((x["residual"] for x in a), default=0.0), "1")
        m[f"{key}.sym_defect_max"] = (max((x["sym_defect"] for x in a), default=0.0), "1")
        if a:
            labels[key] = sorted({x["method"] for x in a})

    dirichlet = named("solver.dirichlet")
    a = attrs("solver.dirichlet")
    m["solver.dirichlet.s"] = (sum(dur(s) for s in dirichlet), "s")
    m["solver.dirichlet.calls"] = (len(dirichlet), "count")
    m["solver.dirichlet.unknowns"] = (max((x.get("unknowns", 0) for x in a), default=0), "count")
    m["solver.dirichlet.residual_max"] = (max((x.get("residual", 0.0) for x in a), default=0.0), "1")
    if a:
        labels["solver.dirichlet"] = sorted({x.get("method", "?") for x in a})

    sweeps = named("coarse.sweep")
    a = attrs("coarse.sweep")
    cubes = sum(x.get("cubes", 0) for x in a)
    hits = sum(x.get("hits", 0) for x in a)
    m["coarse.sweep.s"] = (sum(dur(s) for s in sweeps), "s")
    m["coarse.sweep.self_s"] = (sum(self_time[s["id"]] for s in sweeps), "s")
    m["coarse.sweep.calls"] = (len(sweeps), "count")
    m["coarse.cubes"] = (cubes, "count")
    m["coarse.solves"] = (sum(x.get("solves", 0) for x in a), "count")
    m["coarse.cache.hits"] = (hits, "count")
    m["coarse.cache.hit_ratio"] = (hits / cubes if cubes else 0.0, "1")

    audits = named("coarse.audit")
    m["coarse.audit.s"] = (sum(dur(s) for s in audits), "s")
    m["coarse.audit.checked"] = (sum(x.get("checked", 0) for x in attrs("coarse.audit")), "count")
    ell = named("coarse.ellipticity")
    m["coarse.ellipticity.s"] = (sum(dur(s) for s in named("coarse.ellipticity", True)), "s")
    m["coarse.ellipticity.calls"] = (len(ell), "count")

    m["norms.s"] = (sum(dur(s) for s in named("norms", True)), "s")
    m["norms.calls"] = (len(named("norms")), "count")

    harness = named("harness")
    m["harness.s"] = (sum(dur(s) for s in named("harness", True)), "s")
    m["harness.self_s"] = (sum(self_time[s["id"]] for s in harness), "s")
    m["harness.experiments"] = (
        sum(1 for s in harness if s["name"] != "harness.sharpness_sweep"), "count")

    cli = named("cli")
    m["cli.s"] = (sum(dur(s) for s in named("cli", True)), "s")
    m["cli.self_s"] = (sum(self_time[s["id"]] for s in cli), "s")
    m["cli.commands"] = (len(cli), "count")

    reads = named("grid.read_field")
    writes = named("grid.write_field")
    m["grid.read_field_s"] = (sum(dur(s) for s in reads), "s")
    m["grid.read_field_calls"] = (len(reads), "count")
    m["grid.write_field_s"] = (sum(dur(s) for s in writes), "s")
    m["grid.field_bytes"] = (sum(x.get("bytes", 0) for x in attrs("grid.write_field")), "B")
    m["fields.gen_s"] = (sum(dur(s) for s in named("fields", True)), "s")
    return m, labels
