"""Tests for the command-line interface and report emission."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cge
import cge.harness
import cge.solver
from cge import __version__, read_field
from cge.cli import (
    CONFIG_SPEC,
    CliError,
    ConfigError,
    build_parser,
    emit_csv_summary,
    emit_jsonl,
    emit_plot_data,
    load_config_file,
    main,
    parse_boundary,
)
from cge.fields import gen_constant
from cge.grid import GridSpec
from cge.harness import harnack_experiment


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def child_env():
    """Environment for a child ``python -m cge.cli`` run from any directory.

    A relative PYTHONPATH entry (e.g. ``src``) would not resolve in another
    directory, so the absolute directory holding the imported package comes
    first, and the rest is kept.
    """
    package_root = str(Path(cge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def gen_identity(workdir, name="const_I.cge", n=2):
    rc = main(["gen", "--kind", "constant", "--diag", "1,1", "--grid-d", "2",
               "--grid-n", str(n), "--field-out", name])
    assert rc == 0
    return workdir / name


class TestGen:
    def test_writes_field_and_reports_hash(self, workdir, capsys):
        rc = main(["gen", "--kind", "constant", "--diag", "1,4", "--grid-n", "2",
                   "--field-out", "f.cge", "--out", "gen.json"])
        assert rc == 0
        field = read_field(workdir / "f.cge")
        out = capsys.readouterr().out
        assert f"field_hash={field.content_hash}" in out
        report = json.loads((workdir / "gen.json").read_text())
        assert report["field_hash"] == field.content_hash
        assert report["version"] == __version__
        assert report["result"]["grid"] == {"d": 2, "N": 2}

    @pytest.mark.parametrize("argv", [
        ["--kind", "laminate", "--values", "1,9,1", "--axis", "1", "--grid-n", "2"],
        ["--kind", "random", "--seed", "3", "--grid-n", "2"],
        ["--kind", "layered", "--grid-d", "1", "--grid-n", "4", "--alpha", "0.5",
         "--k-max", "1"],
        ["--kind", "cantor", "--generation", "2", "--grid-n", "2"],
        ["--kind", "cascade", "--generation", "2", "--gamma", "0.5", "--seed", "5",
         "--grid-n", "2"],
    ])
    def test_all_kinds_roundtrip(self, workdir, argv):
        rc = main(["gen", *argv, "--field-out", "k.cge"])
        assert rc == 0
        field = read_field(workdir / "k.cge")
        assert field.grid.d in (1, 2)

    def test_wrong_diag_arity_fails(self, workdir, capsys):
        rc = main(["gen", "--kind", "constant", "--diag", "1,2,3", "--grid-n", "2",
                   "--field-out", "f.cge"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_kind_is_operational_error(self, workdir, capsys):
        rc = main(["gen", "--kind", "bogus", "--field-out", "f.cge"])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err


class TestEllipticity:
    def test_identity_theta_is_one(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["ellipticity", "--field", "const_I.cge", "--s", "0.3",
                   "--t", "0.3", "--out", "e.json"])
        assert rc == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("theta=")][-1]
        assert float(line.split("=")[1]) == pytest.approx(1.0, rel=1e-8)
        report = json.loads((workdir / "e.json").read_text())
        assert report["command"] == "ellipticity"
        assert report["result"]["s"] == 0.3
        assert report["config"]["s"] == 0.3

    def test_report_hash_excludes_timestamp(self, workdir):
        gen_identity(workdir)
        main(["ellipticity", "--field", "const_I.cge", "--s", "0.3", "--t", "0.3",
              "--out", "e.json"])
        report = json.loads((workdir / "e.json").read_text())
        stored = report.pop("report_hash")
        report.pop("timestamp")
        recomputed = hashlib.sha256(
            json.dumps(report, sort_keys=True, ensure_ascii=False).encode()
        ).hexdigest()
        assert stored == recomputed

    def test_reruns_byte_identical_modulo_timestamp(self, workdir):
        gen_identity(workdir)
        for name in ("a.json", "b.json"):
            main(["ellipticity", "--field", "const_I.cge", "--s", "0.3",
                  "--t", "0.3", "--out", name])
        trim = lambda p: [l for l in (workdir / p).read_text().splitlines()
                          if '"timestamp"' not in l]
        assert trim("a.json") == trim("b.json")
        ra = json.loads((workdir / "a.json").read_text())
        rb = json.loads((workdir / "b.json").read_text())
        assert ra["report_hash"] == rb["report_hash"]

    def test_no_wall_clock_values_in_report(self, workdir):
        gen_identity(workdir)
        main(["ellipticity", "--field", "const_I.cge", "--s", "0.3", "--t", "0.3",
              "--out", "e.json"])
        assert "wall_time" not in (workdir / "e.json").read_text()

    def test_warm_cache_runs_zero_solves(self, workdir):
        gen_identity(workdir)
        for name in ("cold.json", "warm.json"):
            rc = main(["ellipticity", "--field", "const_I.cge", "--s", "0.3",
                       "--t", "0.3", "--cache-dir", "cache", "--out", name])
            assert rc == 0
        cold = json.loads((workdir / "cold.json").read_text())["result"]
        warm = json.loads((workdir / "warm.json").read_text())["result"]
        assert cold["solve_count"] > 0
        assert warm["solve_count"] == 0
        assert warm["cache_hits"] > 0
        assert warm["theta"] == cold["theta"]

    def test_missing_field_is_operational_error(self, workdir, capsys):
        rc = main(["ellipticity", "--field", "nope.cge", "--s", "0.3", "--t", "0.3"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


class TestCoarse:
    def test_summary_counts(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["coarse", "--field", "const_I.cge", "--out", "c.json"])
        assert rc == 0
        report = json.loads((workdir / "c.json").read_text())
        assert report["result"]["failures"] == []
        assert report["result"]["levels"] == [-2, -1, 0]
        assert "solves=" in capsys.readouterr().out

    @staticmethod
    def _debug_levels(workdir, name, flags=()):
        """``report_hash`` of a child ``cge coarse`` run and its level lines."""
        proc = subprocess.run(
            [sys.executable, "-m", "cge.cli", "coarse", "--field", "field.cge",
             "--out", name, *flags],
            capture_output=True, text=True, cwd=workdir, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return (json.loads((workdir / name).read_text())["report_hash"],
                [line for line in proc.stderr.splitlines()
                 if line.startswith("DEBUG cge.coarse: level ")])

    def test_verbose_logs_one_line_per_level_outside_the_report(self, workdir):
        # a 3D field: one condensation pass, its 27 subtrees on the chunk
        # threads
        assert main(["gen", "--kind", "constant", "--diag", "1,1,1", "--grid-d", "3",
                     "--grid-n", "3", "--field-out", "field.cge"]) == 0
        quiet_hash, quiet = self._debug_levels(workdir, "quiet.json")
        verbose_hash, verbose = self._debug_levels(workdir, "verbose.json", ["-v"])
        assert quiet == [] and verbose_hash == quiet_hash
        assert [line.split(",")[0] for line in verbose] == [
            "DEBUG cge.coarse: level 0: condensation", "DEBUG cge.coarse: level -1: condensation",
            "DEBUG cge.coarse: level -2: condensation", "DEBUG cge.coarse: level -3: cells"]
        # each solved level names its chunks and the threads that took one
        # (how many did depends on the host's scheduling, not above the cores)
        cores = len(os.sched_getaffinity(0))

        for level, line in zip(range(0, -3, -1), verbose):
            cubes, m = 27 ** -level, 3 ** (2 + level)  # m: cells a side of a child
            # the skeletons of a cube's merges, stage by stage: level 0 runs
            # each of its merges after its children's first alone; a level
            # below it a stage's merges of every cube of a subtree at once,
            # in each of the 27 subtrees, where a constant field's merges of
            # a stage are one content class: one merge condensed, in one
            # chunk; level -1 then runs its cube's first level-0 merge
            stages = [[size for size, _, _ in merges]
                      for merges in cge.solver._plan((m,) * 3, level == 0)]
            chunks = (sum(len(sizes) for sizes in stages[1:])
                      if level == 0 else 27 * (len(stages) + (level == -1)))
            split_line, threads = line.split(",")[1].rsplit(" on ", 1)
            assert split_line == f" {cubes} cubes in {chunks} chunks"
            assert threads.endswith(" threads")
            assert 1 <= int(threads.split()[0]) <= min(chunks, cores)
            assert line.split(",")[2] == f" {max(map(max, stages))} unknowns per cube"
            assert line.split(",")[-1] == f" {chunks} merges condensed"
        assert verbose[-1].split(",")[1] == " 19683 cubes"
        assert verbose[-1].split(",")[-1] == " - merges condensed"

    def test_verbose_logs_condensation_levels(self, workdir):
        # a 2D field: one condensation pass, its 9 subtrees and their
        # parents in chunks
        gen_identity(workdir, name="field.cge", n=4)
        quiet_hash, quiet = self._debug_levels(workdir, "quiet.json")
        verbose_hash, verbose = self._debug_levels(workdir, "verbose.json", ["-v"])
        assert quiet == [] and verbose_hash == quiet_hash
        assert [line.split(",")[0] for line in verbose] == [
            "DEBUG cge.coarse: level 0: condensation", "DEBUG cge.coarse: level -1: condensation",
            "DEBUG cge.coarse: level -2: condensation",
            "DEBUG cge.coarse: level -3: condensation", "DEBUG cge.coarse: level -4: cells"]
        cores = len(os.sched_getaffinity(0))

        for level, line in zip(range(0, -4, -1), verbose):
            cubes, m = 9 ** -level, 3 ** (3 + level)  # m: cells a side of a child
            # a level merges its children 3 at a time into strips along the
            # last axis, then 3 strips along the first; a skeleton is the
            # boxes' boundaries and the interfaces between them; in each of
            # the 9 subtrees, a stage's merges of a constant field are one
            # content class: one merge condensed, in one chunk
            nodes = 18 * m - 2
            chunks = 9 * 2 + 9 * (level == -1)  # level -1: and its cube's first level-0 merge
            if level == 0:  # only the two interface lines are kept: the middle
                # strip's skeleton is both and the 2m nodes between them;
                # first each child alone, in its subtree, eliminates the
                # nodes no other has; then each strip and the last merge
                # alone
                nodes = 8 * m
                chunks = 3 + 1
            split_line, threads = line.split(",")[1].rsplit(" on ", 1)
            assert split_line == f" {cubes} cubes in {chunks} chunks"
            assert 1 <= int(threads.split()[0]) <= min(chunks, cores)
            assert line.split(",")[2] == f" {nodes} unknowns per cube"
            assert line.split(",")[-1] == f" {chunks} merges condensed"
        assert verbose[-1].split(",")[1] == " 6561 cubes"


class TestCriterion:
    def test_satisfied_exit_zero(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["criterion", "--field", "const_I.cge", "--p", "4", "--q", "4"])
        assert rc == 0
        assert "satisfied=True" in capsys.readouterr().out

    def test_unsatisfied_exit_two(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["criterion", "--field", "const_I.cge", "--p", "2", "--q", "2"])
        assert rc == 2
        assert "satisfied=False" in capsys.readouterr().out

    def test_with_solves_embeds_solver_ratio(self, workdir):
        gen_identity(workdir)
        rc = main(["criterion", "--field", "const_I.cge", "--p", "4", "--q", "4",
                   "--with-solves", "--out", "crit.json"])
        assert rc == 0
        report = json.loads((workdir / "crit.json").read_text())
        assert report["result"]["theta_solver"] == pytest.approx(1.0, rel=1e-8)


class TestHarnack:
    def test_pass_exit_zero(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["harnack", "--field", "const_I.cge", "--boundary",
                   "affine:2,1,0", "--s", "0.3", "--t", "0.3", "--out", "h.json"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((workdir / "h.json").read_text())
        assert report["result"]["kind"] == "harnack"
        assert report["result"]["boundary_descriptor"] == "affine:2,1,0"

    def test_one_sided_mode(self, workdir):
        gen_identity(workdir)
        rc = main(["harnack", "--field", "const_I.cge", "--boundary",
                   "affine:0,1,0", "--mode", "one-sided", "--s", "0.3",
                   "--t", "0.3", "--out", "h.json"])
        assert rc == 0
        report = json.loads((workdir / "h.json").read_text())
        assert report["result"]["kind"] == "local-bound"
        assert report["result"]["harnack_log_ratio"] is None

    def test_explicit_theta_fails_threshold(self, workdir, capsys):
        gen_identity(workdir)
        # an artificially tiny ratio makes the calibrated threshold unreachable
        rc = main(["harnack", "--field", "const_I.cge", "--boundary",
                   "affine:2,1,0", "--s", "0.3", "--t", "0.3",
                   "--theta", "1e-8"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["two-sided", "one-sided"])
    @pytest.mark.parametrize("theta", ["inf", "0", "-1", "nan"])
    def test_theta_not_finite_and_positive_is_operational_error(
            self, workdir, capsys, mode, theta):
        # the thresholds take sqrt(theta) and divide by it: a given theta
        # must be finite and positive, and the command names it
        gen_identity(workdir, n=3)
        rc = main(["harnack", "--field", "const_I.cge", "--boundary", "affine:2,1,0",
                   "--mode", mode, "--theta", theta, "--out", "h.json"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"theta must be finite and positive, got {float(theta)!r}" in err
        assert "Traceback" not in err
        assert not (workdir / "h.json").exists()

    @pytest.mark.parametrize("mode", ["two-sided", "one-sided"])
    def test_given_theta_skips_the_sweep(self, workdir, mode):
        # a given theta overrides the sweep's, so --with-solves runs none
        gen_identity(workdir, n=4)
        rc = main(["harnack", "--field", "const_I.cge", "--boundary", "affine:2,1,0",
                   "--mode", mode, "--theta", "2", "--with-solves", "--cache-dir", "cache",
                   "--out", "h.json"])
        assert rc == 0
        assert list(workdir.glob("cache/**/*")) == []
        report = json.loads((workdir / "h.json").read_text())
        assert report["result"]["theta_method"] == "given"
        assert report["result"]["theta"] == 2.0

    @pytest.mark.parametrize("mode", ["two-sided", "one-sided"])
    def test_bad_theta_fails_before_any_solve(self, workdir, capsys, monkeypatch, mode):
        gen_identity(workdir, n=4)
        solves = []
        monkeypatch.setattr(cge.harness, "solve_dirichlet",
                            lambda *args: solves.append(args))
        rc = main(["harnack", "--field", "const_I.cge", "--boundary", "affine:2,1,0",
                   "--mode", mode, "--theta", "inf", "--with-solves", "--cache-dir", "cache",
                   "--out", "h.json"])
        assert rc == 1
        assert "theta must be finite and positive, got inf" in capsys.readouterr().err
        assert solves == []
        assert list(workdir.glob("cache/**/*")) == []
        assert not (workdir / "h.json").exists()

    def test_nonpositive_boundary_is_operational_error(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["harnack", "--field", "const_I.cge", "--boundary",
                   "affine:0,1,0", "--s", "0.3", "--t", "0.3"])
        assert rc == 1
        assert "strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["two-sided", "one-sided"])
    def test_full_matrix_field_is_operational_error(self, workdir, capsys, mode):
        # the cell-centered scheme takes diagonal coefficients only
        rc = main(["gen", "--kind", "random", "--seed", "3", "--grid-n", "2",
                   "--field-out", "random.cge"])
        assert rc == 0
        rc = main(["harnack", "--field", "random.cge", "--boundary", "affine:2,1,0",
                   "--mode", mode, "--s", "0.3", "--t", "0.3", "--out", "h.json"])
        assert rc == 1
        assert "requires a diagonal coefficient" in capsys.readouterr().err
        assert not (workdir / "h.json").exists()


class TestSweepCommand:
    def test_sharpness_outputs(self, workdir, capsys):
        rc = main(["sweep", "--kind", "sharpness", "--lambda", "1,4,16,64",
                   "--grid-n", "3", "--out", "s.json", "--plot-out", "plot.csv",
                   "--csv-out", "summary.csv", "--records-out", "recs.jsonl"])
        assert rc == 0
        assert "slope=" in capsys.readouterr().out
        report = json.loads((workdir / "s.json").read_text())
        assert len(report["result"]["records"]) == 4
        assert report["result"]["slope"] > 0

        lines = (workdir / "plot.csv").read_text().splitlines()
        assert lines[0] == "x,y,series,field_hash"
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert xs == [1.0, 2.0, 4.0, 8.0]
        assert all(l.split(",")[2] == "sharpness" for l in lines[1:])

        recs = [json.loads(l) for l in
                (workdir / "recs.jsonl").read_text().splitlines()]
        assert [r["theta"] for r in recs] == [1.0, 4.0, 16.0, 64.0]
        assert all("wall_time" not in r["solver"] for r in recs)

        csv_lines = (workdir / "summary.csv").read_text().splitlines()
        assert csv_lines[0] == "field,parameter,theta,log_ratio,passed"
        assert len(csv_lines) == 5

    def test_csv_uses_crlf_line_endings(self, workdir):
        main(["sweep", "--kind", "sharpness", "--lambda", "1,4", "--grid-n", "2",
              "--plot-out", "plot.csv"])
        assert b"\r\n" in (workdir / "plot.csv").read_bytes()

    def test_cantor_family(self, workdir, capsys):
        rc = main(["sweep", "--kind", "cantor", "--generations", "2",
                   "--s", "0.45", "--t", "0.45", "--out", "c.json",
                   "--plot-out", "cplot.csv"])
        assert rc == 0
        report = json.loads((workdir / "c.json").read_text())
        rec = report["result"]["records"][0]
        assert rec["theta_method"] == "sweep"
        assert rec["theta"] > 1.0
        import csv as csv_mod
        with open(workdir / "cplot.csv", newline="") as handle:
            rows = list(csv_mod.reader(handle))
        assert rows[1][2].startswith("cantor(n=2")

    def test_bad_lambda_list_is_operational_error(self, workdir, capsys):
        rc = main(["sweep", "--kind", "sharpness", "--lambda", "1,zap"])
        assert rc == 1
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("contrast", ["nan", "inf", "0.5"])
    def test_contrast_not_finite_and_at_least_one_is_operational_error(
            self, workdir, capsys, contrast):
        rc = main(["sweep", "--kind", "sharpness", "--lambda", f"1,{contrast}",
                   "--grid-n", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"contrasts must be finite and >= 1, got {float(contrast)!r}" in err
        assert "Traceback" not in err

    def test_repeated_contrast_is_operational_error(self, workdir, capsys):
        rc = main(["sweep", "--kind", "sharpness", "--lambda", "4,4", "--grid-n", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "contrasts must be distinct, got 4.0 twice" in err
        assert "Traceback" not in err


class TestAudit:
    def test_random_field_zero_violations(self, workdir, capsys):
        rc = main(["gen", "--kind", "random", "--seed", "7", "--grid-n", "2",
                   "--field-out", "random_seed7.cge"])
        assert rc == 0
        rc = main(["audit", "--field", "random_seed7.cge", "--out", "a.json"])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out
        report = json.loads((workdir / "a.json").read_text())
        assert report["result"]["violations"] == []
        assert sum(report["result"]["checked"].values()) > 0

    def test_custom_exponent_grid(self, workdir):
        gen_identity(workdir)
        rc = main(["audit", "--field", "const_I.cge", "--s-grid", "0.2,0.5,0.8"])
        assert rc == 0


class TestConfigFile:
    def test_values_apply(self, workdir, capsys):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text("s = 0.25\nt = 0.35  # inline comment\n")
        rc = main(["ellipticity", "--field", "const_I.cge", "--config", "cfg.txt",
                   "--out", "e.json"])
        assert rc == 0
        report = json.loads((workdir / "e.json").read_text())
        assert report["config"]["s"] == 0.25
        assert report["config"]["t"] == 0.35

    def test_flags_override_config(self, workdir):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text("s = 0.25\n")
        main(["ellipticity", "--field", "const_I.cge", "--config", "cfg.txt",
              "--s", "0.4", "--t", "0.3", "--out", "e.json"])
        report = json.loads((workdir / "e.json").read_text())
        assert report["config"]["s"] == 0.4

    def test_unknown_key_rejected_with_line_number(self, workdir, capsys):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text("s = 0.3\nwhatever = 1\n")
        rc = main(["ellipticity", "--field", "const_I.cge", "--config", "cfg.txt"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cfg.txt:2" in err
        assert "unknown key" in err

    @pytest.mark.parametrize("key", ["threads", "preconditioner", "discretization",
                                     "cg_rel_tol", "cg_max_iter", "dense_cutoff"])
    def test_removed_solver_knobs_are_unknown_keys(self, workdir, capsys, key):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text(f"{key} = 2\n")
        rc = main(["coarse", "--field", "const_I.cge", "--config", "cfg.txt"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "cfg.txt:1" in err and f"unknown key '{key}'" in err

    def test_threads_flag_is_unknown_argument(self, workdir, capsys):
        gen_identity(workdir)
        rc = main(["coarse", "--field", "const_I.cge", "--threads", "2"])
        assert rc == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_malformed_line_reports_line_number(self, workdir, capsys):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text("s 0.3\n")
        rc = main(["ellipticity", "--field", "const_I.cge", "--config", "cfg.txt"])
        assert rc == 1
        assert "cfg.txt:1" in capsys.readouterr().err

    def test_bad_value_reports_line_number(self, workdir, capsys):
        gen_identity(workdir)
        (workdir / "cfg.txt").write_text("seed = many\n")
        rc = main(["ellipticity", "--field", "const_I.cge", "--config", "cfg.txt"])
        assert rc == 1
        assert "cfg.txt:1" in capsys.readouterr().err

    def test_load_config_file_parses_types(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 4\ns = 0.3\ncache_dir = /tmp/x\n")
        values = load_config_file(path)
        assert values == {"seed": 4, "s": 0.3, "cache_dir": "/tmp/x"}
        assert sorted(CONFIG_SPEC) == ["cache_dir", "s", "seed", "t"]


class TestBoundaryParsing:
    def test_constant(self):
        fn, tag = parse_boundary("constant:2.5", 2)
        assert tag == "constant:2.5"
        vals = fn(np.zeros((3, 1)), np.zeros((3, 1)))
        assert np.all(vals == 2.5)

    def test_affine(self):
        fn, _ = parse_boundary("affine:1,2,3", 2)
        assert fn(np.array([0.5]), np.array([-0.5])) == pytest.approx(0.5)

    def test_exp_cos(self):
        fn, tag = parse_boundary("exp-cos:4", 2)
        assert "sqrt(4)" in tag
        assert fn(np.array([0.0]), np.array([0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("spec, d", [
        ("affine:1,2", 2),          # wrong arity
        ("exp-cos:4", 1),           # wrong dimension
        ("mystery:1", 2),           # unknown name
        ("constant:abc", 2),        # bad number
    ])
    def test_rejects_malformed_specs(self, spec, d):
        with pytest.raises(CliError):
            parse_boundary(spec, d)


class TestEmitters:
    @pytest.fixture()
    def record(self):
        grid = GridSpec(2, 2)
        field = gen_constant(grid, np.eye(2), descriptor="identity")
        return harnack_experiment(field, lambda x, y: x + 2.0, 0.3, 0.3)

    def test_plot_data_requires_records(self, tmp_path, record):
        with pytest.raises(ValueError, match="no records"):
            emit_plot_data([], "sharpness", tmp_path / "p.csv")

    def test_plot_data_rejects_unknown_kind(self, tmp_path, record):
        with pytest.raises(ValueError, match="kind"):
            emit_plot_data([record], "spiral", tmp_path / "p.csv")

    def test_plot_data_columns(self, tmp_path, record):
        path = tmp_path / "p.csv"
        emit_plot_data([record], "sharpness", path)
        header, row = path.read_text().splitlines()
        assert header == "x,y,series,field_hash"
        x, y, series, field_hash = row.split(",")
        assert float(x) == pytest.approx(math.sqrt(record.theta))
        assert float(y) == pytest.approx(record.harnack_log_ratio)
        assert field_hash == record.field_hash

    def test_csv_summary_length_mismatch(self, tmp_path, record):
        with pytest.raises(ValueError, match="parameter"):
            emit_csv_summary([record], [1.0, 2.0], tmp_path / "s.csv")

    def test_jsonl_is_one_canonical_line_per_record(self, tmp_path, record):
        path = tmp_path / "r.jsonl"
        emit_jsonl([record, record], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == lines[1]
        parsed = json.loads(lines[0])
        assert parsed["field_hash"] == record.field_hash


class TestEntryPoints:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_main_builds_one_parser_a_process(self, workdir, monkeypatch, capsys):
        # a failed parse leaves the shared parser as it was; build_parser
        # still gives a fresh one
        built = []
        monkeypatch.setattr(cge.cli, "build_parser", lambda: built.append(1) or build_parser())
        cge.cli._parser.cache_clear()
        try:
            assert main(["coarse"]) == 1
            assert "--field" in capsys.readouterr().err
            gen_identity(workdir)
            assert main(["coarse", "--field", "const_I.cge", "--out", "a.json"]) == 0
        finally:
            cge.cli._parser.cache_clear()
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cge.cli", "--version"],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(),
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout


# No cge code imports SciPy; the tests do, for their oracles. So each case
# below runs in a fresh interpreter, since this one has loaded SciPy long
# ago.

def run_fresh(args, cwd, code=None):
    argv = [sys.executable] + (["-c", code] if code is not None else []) + args
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc


FIRST_SWEEP = """
import numpy as np
from cge.coarse import sweep
from cge.fields import gen_random_spd
from cge.grid import GridSpec

levels = sweep(gen_random_spd(GridSpec(3, 2), 7, 1e-2, 1e2)).levels
matrices = np.concatenate(
    [np.r_[levels[k].astar.ravel(), levels[k].avg.ravel()] for k in sorted(levels)])
"""


class TestLazySparseImport:
    def test_import_leaves_scipy_sparse_unloaded(self, tmp_path):
        proc = run_fresh([], tmp_path, code=(
            "import sys, cge, cge.cli, cge.fields\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"))
        assert proc.stdout.strip() == "[]"

    def test_import_and_gen_start_no_threads(self, tmp_path):
        # the chunk threads and concurrent.futures wait for a chunked level
        proc = run_fresh([], tmp_path, code=(
            "import sys, threading\n"
            "import cge.cli\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
            "cge.cli.main(['gen', '--kind', 'random', '--grid-n', '2', '--field-out', 'f.cge'])\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())"))
        before, gen, after = proc.stdout.splitlines()
        assert gen.startswith("field_hash=")
        assert before == after == "False 1"

    def test_gen_leaves_scipy_sparse_unloaded(self, tmp_path):
        # -X importtime lists every module the run imports on stderr
        proc = run_fresh(["-X", "importtime", "-m", "cge.cli", "gen", "--kind", "random",
                          "--grid-n", "2", "--field-out", "f.cge"], tmp_path)
        assert "field_hash=" in proc.stdout
        assert "| cge\n" in proc.stderr  # the listing covers the package
        assert "scipy.sparse" not in proc.stderr

    def test_criterion_without_solves_leaves_scipy_sparse_unloaded(self, workdir):
        field = gen_identity(workdir)
        proc = run_fresh(["-X", "importtime", "-m", "cge.cli", "criterion", "--p", "4",
                          "--q", "4", "--field", str(field)], workdir)
        assert "satisfied=True" in proc.stdout
        assert "| cge\n" in proc.stderr
        assert "scipy.sparse" not in proc.stderr

    @pytest.mark.parametrize("argv, d", [
        (["coarse"], 2),
        (["ellipticity"], 2),
        (["audit"], 2),
        (["criterion", "--p", "4", "--q", "4", "--with-solves"], 2),
        (["harnack", "--boundary", "affine:2,1,0"], 2),
        (["sweep", "--kind", "sharpness", "--lambda", "1,4", "--grid-n", "3"], 2),
        (["coarse"], 3),
        (["audit"], 3),
    ], ids=["coarse", "ellipticity", "audit", "criterion", "harnack", "sweep", "coarse-3d",
            "audit-3d"])
    def test_no_command_imports_scipy(self, workdir, argv, d):
        # every sweep and every Dirichlet solve (harnack, the sharpness
        # sweep) is one condensation pass of NumPy: no command, run in a
        # fresh interpreter, imports any SciPy module
        if d == 3:
            assert main(["gen", "--kind", "constant", "--diag", "1,1,1", "--grid-d", "3",
                         "--grid-n", "2", "--field-out", "field3.cge"]) == 0
            argv = argv + ["--field", str(workdir / "field3.cge")]
        elif argv[0] != "sweep":
            argv = argv + ["--field", str(gen_identity(workdir))]
        proc = run_fresh(["-X", "importtime", "-m", "cge.cli", *argv], workdir)
        assert "| cge\n" in proc.stderr  # the listing covers the package
        assert re.search(r"\|\s+scipy(\.|$)", proc.stderr, re.MULTILINE) is None

    def test_first_sweep_in_fresh_interpreter(self, tmp_path):
        # the 3D sweep is the first thing that interpreter solves: it loads
        # no SciPy sparse code and gives the numbers of this process
        code = ("import sys\nassert 'scipy.sparse' not in sys.modules\n"
                + FIRST_SWEEP + "assert 'scipy.sparse' not in sys.modules\n"
                "np.save(sys.argv[1], matrices)\n")
        run_fresh([str(tmp_path / "got.npy")], tmp_path, code=code)
        scope = {}
        exec(FIRST_SWEEP, scope)
        np.testing.assert_allclose(np.load(tmp_path / "got.npy"), scope["matrices"],
                                   rtol=1e-12, atol=0)
