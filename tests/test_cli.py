"""Command-line interface and report-format tests."""
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bethelab
from bethelab import DeformationContext, cli, sample_annulus, vacuum_residuals
from bethelab.cli import run_command
from bethelab.errors import (BetheLabError, DegenerateVectorError, DomainError,
                             SingularCoordinateError)
from bethelab.report import report_fingerprint
from bethelab import repcore
from bethelab.repcore import GradedOperator, _paths, monodromy


def run(args):
    return run_command(list(args))


def test_unknown_subcommand_exits_2(capsys):
    code, report = run(["frobnicate"])
    assert code == 2
    assert report is None


def test_bad_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    code, _ = run(["identities", "--config", str(cfg)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_sector_exits_2(tmp_path, capsys):
    code, _ = run(["solve", "--sector", "1,banana"])
    assert code == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_sector_exits_2(capsys, command):
    code, report = run([command, "--sector=-1"])
    assert code == 2
    assert report is None


@pytest.mark.parametrize("out", [False, True])
def test_sector_listed_twice_exits_2(tmp_path, capsys, out):
    # one sector twice would make two checks with one id
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsectors = 1; 1\n")
    args = ["verify", "--config", str(cfg)]
    code, report = run(args + ["--out", str(tmp_path / "r.json")] if out else args)
    assert code == 2
    assert report is None
    assert "listed twice" in capsys.readouterr().err


def test_inadmissible_explicit_sector_exits_2(tmp_path, capsys):
    # n_1 < n_2 names no weight block: the run must not pass on 0 checks
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("N = 3\nL = 3\nseed = 5\n")
    code, report = run(["verify", "--config", str(cfg), "--sector", "1,2"])
    assert code == 2
    assert report is None
    assert "inadmissible sector (1, 2)" in capsys.readouterr().err


def test_empty_suites_exits_2(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsuites =\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 2
    assert report is None


@pytest.mark.parametrize("out", [False, True])
def test_suite_listed_twice_exits_2(tmp_path, monkeypatch, capsys, out):
    # one suite twice would run and print every check of it twice, and with
    # a report path fail on its duplicate ids after running them all
    monkeypatch.setattr(cli, "_run_checks", lambda checks, workers: pytest.fail("ran"))
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsuites = rll, rll\n")
    args = ["all", "--config", str(cfg)]
    code, report = run(args + ["--out", str(tmp_path / "r.json")] if out else args)
    assert code == 2
    assert report is None
    assert "suite 'rll' listed twice" in capsys.readouterr().err


def test_unwritable_report_path_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_run_checks", lambda checks, workers: pytest.fail("ran"))
    path = tmp_path / "missing" / "r.json"
    code, report = run(["yang-baxter", "--out", str(path)])
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(path) in err


def test_a_run_that_dies_leaves_no_report_it_created(tmp_path, monkeypatch, capsys):
    # an error that is no BetheLabError escapes the check phase; the report
    # file that the run created to test its path goes, one it found stays
    def crash(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "yang_baxter_residual", crash)
    path = tmp_path / "r.json"
    with pytest.raises(RuntimeError, match="planted"):
        run(["yang-baxter", "--out", str(path)])
    assert not path.exists()
    path.write_text("an earlier report")
    with pytest.raises(RuntimeError, match="planted"):
        run(["yang-baxter", "--out", str(path)])
    assert path.read_text() == "an earlier report"


def test_sector_list_naming_no_sector_exits_2(tmp_path, capsys):
    # an explicit list with no sector would pass on 0 checks
    cfg = tmp_path / "none.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsectors =\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 2
    assert report is None
    assert "names no sector" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
@pytest.mark.parametrize("flag", [False, True])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, seed, flag):
    # 2^64 and -1 would otherwise run as seeds 0 and 2^64 - 1
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("N = 2\nL = 3\n" + ("" if flag else f"seed = {seed}\n"))
    code, report = run(["rll", "--config", str(cfg)] + ([f"--seed={seed}"] if flag else []))
    assert code == 2
    assert report is None
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_capacity_cap_named_on_exit_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("N = 2\nL = 13\n")
    code, _ = run(["rll", "--config", str(cfg)])
    assert code == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["sector = 1", "tol_operator = 1e-10", "n_samples = 25",
                                  "pole_margin = 1e-3", "tol_identity = 1e-10"])
def test_unknown_config_key_exits_2(tmp_path, capsys, line):
    # `sector` is a typo of `sectors`; `tol_operator` and `n_samples` were
    # options no check read; the pole margin is the constant POLE_MARGIN and
    # the identity tolerance the constant IDENTITY_TOL
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"N = 2\nL = 3\nseed = 3\n{line}\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 2
    assert report is None
    assert repr(line.split()[0]) in capsys.readouterr().err


def test_config_key_given_twice_exits_2(tmp_path, capsys):
    # a later value would override the first unseen: the report echoes one value
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("N = 3\nL = 2\n# a comment\nN = 2\nseed = 1\n")
    code, report = run(["yang-baxter", "--config", str(cfg)])
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert "'N' given twice" in err and "lines 1 and 4" in err


def test_removed_identity_tolerance_flag_exits_2(capsys):
    # the identity tolerance is the constant IDENTITY_TOL, not a run option
    code, report = run(["identities", "--tol", "1e-10"])
    assert code == 2
    assert report is None


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Config files are flat", 1)[1]
    return after.split("```\n", 2)[1]


def test_documented_config_keys_are_the_accepted_keys(tmp_path):
    # README's config block and cli's module docstring name the same keys,
    # and README's block, as printed, is a valid config
    block = _readme_config_block()
    readme_keys = {line.split("#", 1)[0].split("=", 1)[0].strip()
                   for line in block.splitlines() if line.split("#", 1)[0].strip()}
    listing = cli.__doc__.split("Keys:", 1)[1].split("Any other key", 1)[0]
    # one row per key, or per comma list of keys, before its two-space gap
    doc_keys = {key.strip() for line in listing.splitlines() if line.strip()
                for key in re.split(r"\s{2,}", line.strip())[0].split(",")}
    assert readme_keys == doc_keys
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    config = cli.build_config(cli._build_parser().parse_args(["all", "--config", str(cfg)]))
    cli.materialize(config)


def test_offshell_requires_rank2(tmp_path, capsys):
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("N = 3\nL = 2\n")
    code, _ = run(["offshell", "--config", str(cfg)])
    assert code == 2


def test_offshell_on_an_empty_chain_exits_2(tmp_path, capsys):
    # at L = 0 there is no off-shell size: every offshell check would pass on
    # no residual
    cfg = tmp_path / "l0.cfg"
    cfg.write_text("N = 2\nL = 0\nseed = 5\nsuites = offshell\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 2
    assert report is None
    assert "L >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["q = nan", "q = inf", "z = nan, 1, 2", "kappa = inf, 1",
                                  "q = 1e200", "z = 1e308, 1, 2", "z = 1e250, 1e250j, 2",
                                  "kappa = 1e308, 1"])
def test_non_finite_chain_value_exits_2(tmp_path, capsys, line):
    # each would run into a non-finite monodromy (1e200: q^2 overflows in the
    # root-of-unity test; the finite 1e308 and 1e250 lines overflow the
    # monodromy's scale) and die with a traceback
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(f"N = 2\nL = 3\nseed = 1\n{line}\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 2
    assert report is None
    assert "configuration error" in capsys.readouterr().err


def test_gauss_builds_one_zero_mode_set_per_chain(tmp_path, monkeypatch, capsys):
    # the five checks of a chain share one Gauss pass: at N=3, L=3 its 5
    # points are one batch, so one monodromy, one decomposition and one
    # zero-mode set, built by the first check that runs, not by the suite
    # builder (timed as set-up)
    calls = {"monodromy": [], "gauss_decompose": [], "zero_mode_set": []}
    for name, log in calls.items():
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda arg, *rest, original=original, log=log:
                            log.append(arg) or original(arg, *rest))
    cli.suite_gauss(cli.materialize(cli.RunConfig(N=3, L=3, chains=2, seed=7)))
    assert calls == {"monodromy": [], "gauss_decompose": [], "zero_mode_set": []}
    cfg = tmp_path / "n3l3.cfg"
    cfg.write_text("N = 3\nL = 3\nchains = 2\nseed = 7\n")
    code, report = run(["gauss", "--config", str(cfg)])
    assert code == 0
    assert len(report.checks) == 10
    chains = list(dict.fromkeys(calls["monodromy"]))
    assert len(chains) == 2
    assert [calls["monodromy"].count(chain) for chain in chains] == [1, 1]
    assert len(calls["gauss_decompose"]) == 2
    assert calls["zero_mode_set"] == chains


def _gauss_records(**config):
    mat = cli.materialize(cli.RunConfig(N=3, L=3, chains=2, seed=7, **config))
    return {r.check_id: r for r in cli._run_checks(cli.suite_gauss(mat), 1)}


IDENTITY_CHECKS = ("f-lowering", "e-lowering", "cartan-shift")


def test_gauss_pass_runs_once_per_chain_as_a_stage(monkeypatch):
    # the pass runs before any check, once per chain, so no gauss check's
    # wall time includes it
    passes = []
    original = cli._gauss_pass

    def slow(chain, c, identities):
        time.sleep(0.2)
        passes.append(c)
        return original(chain, c, identities)

    monkeypatch.setattr(cli, "_gauss_pass", slow)
    records = _gauss_records()
    assert passes == [0, 1]
    assert len(records) == 10
    assert all(r.passed and r.wall_time < 0.1 for r in records.values())


@pytest.mark.parametrize("failing", [0, 1])
def test_gauss_point_error_fails_every_check_of_its_chain(monkeypatch, failing):
    # a singular coordinate at a chain's 3rd point stops all five checks of
    # that chain with its error; the other chain's checks are as before
    baseline = _gauss_records()
    original = GradedOperator.cond
    count = [0]

    def cond(self):
        # each chain's one batched decomposition asks for N = 3 conditions,
        # k_3 first; make the 3rd point's k_3 singular
        values = np.array(original(self))
        count[0] += 1
        if count[0] == 3 * failing + 1:
            values[2] = np.inf
        return values

    monkeypatch.setattr(GradedOperator, "cond", cond)
    records = _gauss_records()
    rng = cli.materialize(cli.RunConfig(N=3, L=3, chains=2, seed=7)).ctx.rng(
        f"gauss-recon:{failing}")
    third = [complex(sample_annulus(rng, 1)[0]) for _ in range(3)][2]
    assert records.keys() == baseline.keys() and len(records) == 10
    for check_id, record in records.items():
        if check_id.startswith(f"gauss/chain{failing}/"):
            assert record.error == ("SingularCoordinateError: diagonal coordinate 3 "
                                    f"singular at t={third} (cond=inf)")
            assert record.residual == math.inf and not record.passed
        else:
            assert record.error == "" and record.passed
            assert record.residual == baseline[check_id].residual


def test_gauss_zero_mode_error_fails_only_the_identity_checks(monkeypatch):
    baseline = _gauss_records()

    def zero_mode_set(chain):
        raise SingularCoordinateError("planted in the zero modes")

    monkeypatch.setattr(cli, "zero_mode_set", zero_mode_set)
    records = _gauss_records()
    assert records.keys() == baseline.keys()
    for check_id, record in records.items():
        if check_id.rsplit("/", 1)[1] in IDENTITY_CHECKS:
            assert record.error == "SingularCoordinateError: planted in the zero modes"
            assert record.residual == math.inf and not record.passed
        else:
            assert record.error == "" and record.passed
            assert record.residual == baseline[check_id].residual


def test_gauss_pass_peaks_below_four_monodromy_grids():
    # the pass holds one batch's T, its Gauss coordinates and one entry of
    # their product at a time, never a whole product or difference grid: at
    # N=3, L=5 the batch is all 5 points, at L=6 one point
    for L, batch in ((5, 5), (6, 1)):
        mat = cli.materialize(cli.RunConfig(N=3, L=L, seed=7))
        chain = mat.chains[0]
        _paths(3, L)
        grid = monodromy(chain, 1.1 - 0.4j)
        grid_bytes = sum(M.nbytes for op in grid.entries.values() for M in op.blocks.values())
        del grid
        assert min(5, max(1, repcore.BATCH_BYTES // grid_bytes)) == batch
        (function, *args), = cli.suite_gauss(mat)[0].stages
        tracemalloc.start()
        try:
            function(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * batch * grid_bytes


@pytest.mark.parametrize("N, L", [(3, 4), (4, 4), (2, 6)])
def test_gauss_pass_in_one_point_batches_equals_the_whole_batch(monkeypatch, N, L):
    # a batch of one runs the same code on the same floats as a batch of 5
    mat = cli.materialize(cli.RunConfig(N=N, L=L, seed=7))
    (function, *args), = cli.suite_gauss(mat)[0].stages
    whole = function(*args)
    assert repcore.BATCH_BYTES >= 5 * repcore.grid_bytes(mat.chains[0])
    monkeypatch.setattr(repcore, "BATCH_BYTES", 1)
    assert function(*args) == whole


def test_identities_suite_covers_required_checks(capsys):
    code, report = run(["identities", "--seed", "5"])
    assert code == 0
    assert len(report.checks) >= 12
    ids = {c.check_id for c in report.checks}
    for fragment in ("qsym-shuffle", "qsym-shift", "qsym-cyclic", "partial-fraction"):
        assert any(fragment in i for i in ids), fragment
    assert all(c.anchor for c in report.checks)


def test_verify_one_magnon_chain(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("N = 2\nL = 1\nseed = 17\nsectors = 1\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 0
    onshell = [c for c in report.checks if c.check_id.endswith("on-shell")]
    assert len(onshell) == 1
    assert onshell[0].residual <= 1e-8


def test_verify_runs_at_the_dimension_cap(tmp_path, capsys):
    # d = 2^12 = DIMENSION_CAP: the on-shell check applies T(t) to vectors,
    # where one dense block grid would take 1.07 GB, and tau-in-spectrum
    # diagonalizes the 12-state weight block of sector (1,)
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("N = 2\nL = 12\nsectors = 1\nseed = 7\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 0
    assert report.summary()["passed"] == len(report.checks) == 2


def test_spectrum_needs_a_sector_for_every_weight_block(tmp_path, monkeypatch, capsys):
    # N=3, L=5: weight (0, 0, 5) is sector (5, 5), 10 roots; every weight
    # block has its sector, so the spectrum is complete
    solved = []
    original = cli.solve_bethe

    def recording(chain, nbar, opts=None):
        solved.append(tuple(nbar))
        return original(chain, nbar, opts)

    monkeypatch.setattr(cli, "solve_bethe", recording)
    cfg = tmp_path / "n3l5.cfg"
    cfg.write_text("N = 3\nL = 5\nseed = 1\n")
    code, report = run(["spectrum", "--config", str(cfg)])
    assert code == 0
    assert len(solved) == 21 and (5, 5) in solved
    assert [c.residual for c in report.checks] == [0.0]


def test_verify_samples_clear_of_r_matrix_poles(tmp_path, capsys):
    # z_1 = q^2 t0 puts the first on-shell sample point t0 on the R-matrix
    # pole t = z_1 / q^2; the check must draw again instead of failing
    q, seed = 1.45, 11
    t0 = complex(sample_annulus(DeformationContext(q=q, seed=seed).rng("verify:0:(1,)"), 1)[0])
    cfg = tmp_path / "pole.cfg"
    cfg.write_text(f"N = 2\nL = 2\nq = {q}\nz = {q * q * t0!r}, 0.6+0.4j\n"
                   f"kappa = 1.2, 0.8\nseed = {seed}\nsectors = 1\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 0
    assert all(not c.error for c in report.checks)


def test_verify_samples_clear_of_the_bethe_roots(tmp_path, capsys):
    # a draw of the on-shell stream of this chain lands within POLE_MARGIN of
    # a root of the set being checked, a pole of tau(t); it is drawn again
    cfg = tmp_path / "roots.cfg"
    cfg.write_text("N = 2\nL = 10\nseed = 18\nsectors = 8\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 0
    assert all(not c.error for c in report.checks)


@pytest.mark.parametrize("command,stream", [("spectrum", "spectrum:0"),
                                            ("offshell", "offshell-vanish:0")])
def test_tau_samples_clear_of_the_bethe_roots(tmp_path, capsys, command, stream):
    # z puts the one root of sector (1,) on the first point the check draws
    # from `stream`, a pole of tau(t); the check must draw again
    q, seed, (k1, k2) = 1.45, 11, (1.2, 0.8)
    t0 = complex(sample_annulus(DeformationContext(q=q, seed=seed).rng(stream), 1)[0])
    cfg = tmp_path / "root.cfg"
    cfg.write_text(f"N = 2\nL = 1\nq = {q}\nz = {t0 * (k1 * q - k2) / (k1 / q - k2)!r}\n"
                   f"kappa = {k1}, {k2}\nseed = {seed}\n")
    code, report = run([command, "--config", str(cfg)])
    assert code == 0
    assert all(not c.error for c in report.checks)


def test_each_sector_solved_once_under_the_pool(tmp_path, monkeypatch, capsys):
    solved = []
    original = cli.solve_bethe

    def counting(chain, nbar, opts=None):
        solved.append(tuple(nbar))
        return original(chain, nbar, opts)

    monkeypatch.setattr(cli, "solve_bethe", counting)
    cfg = tmp_path / "pool.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsuites = solve, verify\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 0
    assert sorted(solved) == [(0,), (1,), (2,)]


def test_check_wall_times_exclude_solving(tmp_path, monkeypatch, capsys):
    original = cli.solve_bethe

    def slow(chain, nbar, opts=None):
        time.sleep(0.5)
        return original(chain, nbar, opts)

    monkeypatch.setattr(cli, "solve_bethe", slow)
    cfg = tmp_path / "stage.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsuites = solve, verify\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 0
    assert all(c.wall_time < 0.25 for c in report.checks)


def test_failed_solve_fails_the_checks_that_read_it(tmp_path, monkeypatch, capsys):
    def failing(chain, nbar, opts=None):
        raise BetheLabError(f"no roots for {nbar}")

    monkeypatch.setattr(cli, "solve_bethe", failing)
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("N = 2\nL = 4\nsectors = 2\nseed = 7\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 1
    assert len(report.checks) == 2  # on-shell, tau-in-spectrum
    for check in report.checks:
        assert not check.passed
        assert check.error == "BetheLabError: no roots for (2,)"


def test_an_empty_solve_fails_every_verify_check_of_its_sector(tmp_path, capsys):
    # the solve of sector (2,) returns no root set on this chain; its verify
    # checks fail instead of passing on no draws, and the vacuum sector's one
    # empty root set still passes
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("N = 2\nL = 2\nkappa = 1, 1\nsectors = 0; 2\nseed = 1\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 1
    assert len(report.checks) == 4
    for check in report.checks:
        if "/sector2/" in check.check_id:
            assert check.residual == math.inf and not check.passed
            assert check.error == "BetheLabError: the solve of sector (2,) returned no root set"
        else:
            assert check.error == "" and check.passed


def test_an_empty_solve_fails_the_offshell_vanishing_check(tmp_path, capsys):
    # sector (3,) returns no root set on this chain, so on-shell-vanishing
    # has nothing to certify at size 3 and fails instead of passing
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("N = 2\nL = 4\nkappa = 1, 1\nseed = 1\n")
    code, report = run(["offshell", "--config", str(cfg)])
    assert code == 1
    vanishing, = [c for c in report.checks if c.check_id.endswith("/on-shell-vanishing")]
    assert vanishing.residual == math.inf and not vanishing.passed
    assert vanishing.error == "BetheLabError: the solve of sector (3,) returned no root set"


def test_a_vanishing_vector_fails_the_on_shell_check(tmp_path, monkeypatch, capsys):
    def vanishing(chain, params, points):
        raise DegenerateVectorError("vanishing vector")

    monkeypatch.setattr(cli, "on_shell_residuals", vanishing)
    cfg = tmp_path / "vanish.cfg"
    cfg.write_text("N = 2\nL = 4\nsectors = 2\nseed = 7\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 1
    onshell = [c for c in report.checks if c.check_id.endswith("/on-shell")]
    assert len(onshell) == 1
    assert onshell[0].residual == math.inf
    assert not onshell[0].passed


def test_equal_twists_do_not_pass_the_complete_check(tmp_path, capsys):
    # with kappa_1 = kappa_2 the states of the sectors past L/2 have roots at
    # 0 or infinity, which no accepted root set holds; a missing root set
    # must show as a failed `complete` check, never as a pass
    cfg = tmp_path / "equal.cfg"
    cfg.write_text("N = 2\nL = 4\nkappa = 1, 1\nseed = 3\n")
    code, report = run(["solve", "--config", str(cfg)])
    assert code == 1
    complete = [c for c in report.checks if c.check_id.endswith("/complete")]
    assert len(complete) == 5
    assert not all(c.passed for c in complete)


def test_all_suites_at_n2l4_on_two_chains(tmp_path, capsys):
    # every sector of both chains must return all its root sets, or a
    # `complete` check and that chain's spectrum check fail
    cfg = tmp_path / "n2l4.cfg"
    cfg.write_text("N = 2\nL = 4\nchains = 2\nseed = 11\n"
                   "suites = solve, offshell, spectrum\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 0
    assert sum(c.check_id.endswith("/complete") for c in report.checks) == 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("z", ["1e150", "1e100"])
def test_offshell_names_an_overflowing_chain(tmp_path, capsys, z):
    # T(t) w - tau w overflows (at 1e150, and at the on-shell roots at 1e100);
    # the fit is not attempted, and the report names the overflow. At 1e100
    # the off-shell candidates' norms are finite (`frobenius` rescales their
    # squares), and the basis they span is rank-deficient
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(f"N = 2\nL = 3\nseed = 1\nz = {z}, 1, 2\n")
    out = tmp_path / "overflow.json"
    code, report = run(["offshell", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["summary"]["status"] == "fail"
    assert len(report.checks) == 3
    for check in report.checks:
        assert check.residual == math.inf and not check.passed
        if z == "1e100" and not check.check_id.endswith("/on-shell-vanishing"):
            assert check.error.startswith(
                "IllPosedDecompositionError: candidate basis rank-deficient")
        else:
            assert check.error == ("DomainError: T(t) w - tau w or a candidate norm "
                                   "overflows double precision")


def test_offshell_vanishing_holds_at_a_near_string(tmp_path, capsys):
    # sector (2,) of this chain has a root set with t_j ~ q^2 t_k closer than
    # POLE_MARGIN, a pole of the Bethe equations' right side; its unwanted
    # coefficients still vanish
    cfg = tmp_path / "n2l6.cfg"
    cfg.write_text("N = 2\nL = 6\nseed = 6\n")
    code, report = run(["offshell", "--config", str(cfg)])
    assert code == 0
    [vanishing] = [c for c in report.checks if c.check_id.endswith("on-shell-vanishing")]
    assert not vanishing.error
    assert vanishing.residual <= 1e-8


def test_check_phase_imports_no_numpy_ma(tmp_path):
    # numpy's first np.unique imports numpy.ma (17 ms); the nested vector
    # recursion runs in every on-shell check, so it must not call it
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("N = 3\nL = 3\nsectors = 2, 1\nseed = 3\n")
    src = str(Path(bethelab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import sys\n"
              "from bethelab.cli import run_command\n"
              f"code, _ = run_command(['verify', '--config', {str(cfg)!r}])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_checks_run_on_the_calling_thread():
    threads = []

    def thunk():
        threads.append(threading.current_thread())
        yield 0.0

    checks = [cli.Check(f"probe{i}", "anchor", 1e-10, {}, thunk) for i in range(2)]
    records = cli._run_checks(checks, 4)
    assert [r.passed for r in records] == [True, True]
    assert threads == [threading.main_thread()] * 2


def test_gauss_reconstruction_at_an_ill_conditioned_coordinate(tmp_path, capsys):
    # at seed 22 a sampled point has cond(k_2) ~ 2e5; products with an explicit
    # inverse of k_2 reconstruct to 1.9e-10 here, above the 1e-10 tolerance
    cfg = tmp_path / "g22.cfg"
    cfg.write_text("N = 3\nL = 5\nseed = 22\n")
    code, report = run(["gauss", "--config", str(cfg)])
    assert code == 0
    assert all(c.passed for c in report.checks)


def test_report_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _ = run(["identities", "--seed", "9", "--out", str(out1)])
    code2, _ = run(["identities", "--seed", "9", "--out", str(out2)])
    assert code1 == code2 == 0
    f1 = report_fingerprint(out1.read_text())
    f2 = report_fingerprint(out2.read_text())
    assert f1 == f2
    # a different seed materializes different inputs
    out3 = tmp_path / "r3.json"
    run(["identities", "--seed", "10", "--out", str(out3)])
    assert report_fingerprint(out3.read_text()) != f1


def test_report_structure(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _ = run(["rll", "--seed", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["status"] == "pass"
    assert doc["materialized"]["chains"][0]["N"] == 2
    ids = [c["id"] for c in doc["checks"]]
    assert len(ids) == len(set(ids))
    for check in doc["checks"]:
        assert check["anchor"]
        assert check["inputs"]
        assert isinstance(check["wall_time"], float)


def test_failing_tolerance_exits_1(monkeypatch, capsys):
    # an unreachable identity tolerance forces residual failures
    monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-18)
    code, report = run(["identities", "--seed", "5"])
    assert code == 1
    assert report.summary()["failed"] > 0


def test_explicit_chain_values_round_trip(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(
        "N = 2\nL = 2\nq = 1.45\nz = 1.1, 0.6+0.4j\nkappa = 1.2, 0.8\nseed = 3\n")
    code, report = run(["solve", "--config", str(cfg)])
    assert code == 0
    chain = report.materialized["chains"][0]
    assert chain["z"] == [[1.1, 0.0], [0.6, 0.4]]
    assert chain["kappa"] == [[1.2, 0.0], [0.8, 0.0]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_residual_fails_the_check(tmp_path, capsys):
    # twists of order 1e200 overflow the dense monodromy products, so every
    # exchange and commutator draw is NaN; a running max(0.0, nan) read 0.0
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("N = 2\nL = 2\nkappa = 1e200, 2e200\nseed = 3\n")
    code, report = run(["rll", "--config", str(cfg)])
    assert code == 1
    by_id = {c.check_id: c for c in report.checks}
    for name in ("exchange", "transfer-commute"):
        check = by_id[f"rll/chain0/{name}"]
        assert not check.passed
        assert math.isnan(check.residual)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_report_is_strict_json_with_a_nan_residual(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("N = 2\nL = 2\nkappa = 1e200, 2e200\nseed = 3\n")
    out = tmp_path / "huge.json"
    code, _ = run(["rll", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    text = out.read_text()

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(text, parse_constant=reject)
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["rll/chain0/exchange"]["residual"] == "NaN"
    assert by_id["rll/chain0/exchange"]["passed"] is False
    assert doc["summary"]["status"] == "fail"
    json.loads(report_fingerprint(text), parse_constant=reject)


def test_vacuum_residuals_stay_finite_near_the_float_range(tmp_path):
    # twists of order 1e200 square to inf in a plain norm; each entry is
    # divided by its column's size first, so it is finite and honestly small
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("N = 2\nL = 2\nkappa = 1e200, 2e200\nseed = 3\n")
    mat = cli.materialize(cli.build_config(
        cli._build_parser().parse_args(["rll", "--config", str(cfg)])))
    chain = mat.chains[0]
    rng = chain.ctx.rng("vacuum:0")
    for _ in range(20):
        t = complex(sample_annulus(rng, 1)[0])
        values = list(vacuum_residuals(chain, t).values())
        assert len(values) == 3
        assert all(math.isfinite(v) and v < 1e-12 for v in values)


def test_norms_stay_finite_above_the_square_root_of_the_float_range(tmp_path, capsys):
    # |x|^2 overflows above about 1e154; `frobenius` scales such slices by a
    # power of two first, so the rll residuals at z_1 = 1e150 are finite
    assert math.isclose(repcore.frobenius(np.array([1e200 + 1e200j, 3])), math.sqrt(2) * 1e200,
                        rel_tol=1e-15)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("N = 2\nL = 3\nz = 1e150, 1, 2\nseed = 1\n")
    code, report = run(["rll", "--config", str(cfg)])
    assert code == 0
    assert all(c.residual < 1e-14 for c in report.checks)


def test_vacuum_residuals_batched_equal_each_draw_alone():
    # `rll/vacuum` takes its 20 points in one kernel call; each point's
    # residuals are the floats of its own call
    mat = cli.materialize(cli.RunConfig(N=3, L=4, seed=5))
    chain = mat.chains[0]
    rng = chain.ctx.rng("vacuum:0")
    points = [complex(sample_annulus(rng, 1)[0]) for _ in range(20)]
    batched = vacuum_residuals(chain, points)
    for p, t in enumerate(points):
        alone = vacuum_residuals(chain, t)
        assert list(alone) == list(batched)
        assert [values[p] for values in batched.values()] == list(alone.values())


def test_operator_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # residual norms are plain pairwise sums, so the rll and gauss reports
    # are the same at 1 and 2 BLAS threads
    _assert_same_report_at_1_and_2_blas_threads(
        tmp_path, "N = 3\nL = 4\nseed = 22\nsuites = rll, gauss\n")


def test_rll_report_does_not_depend_on_the_blas_thread_count_at_n3l7(tmp_path):
    # d = 2187: OpenBLAS splits `np.linalg.norm` of the exchange probes
    # across its threads, which `repcore.frobenius` avoids
    _assert_same_report_at_1_and_2_blas_threads(
        tmp_path, "N = 3\nL = 7\nseed = 7\nsuites = rll\n")


def _assert_same_report_at_1_and_2_blas_threads(tmp_path, config):
    cfg = tmp_path / "operators.cfg"
    cfg.write_text(config)
    src = str(Path(bethelab.__file__).resolve().parents[1])
    fingerprints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "bethelab.cli", "all", "--config", str(cfg),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        fingerprints.append(report_fingerprint(out.read_text()))
    assert fingerprints[0] == fingerprints[1]


def _yields_nothing():
    yield from ()


def _yields_a_nan():
    yield from (1e-12, math.nan, 0.0)


def _raises_partway():
    yield 1e-12
    raise DomainError("draw left the domain")


@pytest.mark.parametrize("thunk, residual, error", [
    (_yields_nothing, 0.0, ""),
    (_yields_a_nan, math.nan, ""),
    (_raises_partway, math.inf, "DomainError: draw left the domain"),
], ids=["nothing", "nan", "raises"])
def test_run_checks_reduces_yielded_residuals(thunk, residual, error):
    check = cli.Check("probe", "anchor", 1e-10, {}, thunk)
    [record] = cli._run_checks([check], workers=1)
    assert record.error == error
    assert record.passed == (residual <= 1e-10)
    if math.isnan(residual):
        assert math.isnan(record.residual)
    else:
        assert record.residual == residual
