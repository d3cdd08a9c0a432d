"""Command-line interface and report-format tests."""
import json
import time

import pytest

from bethelab import DeformationContext, cli, sample_annulus
from bethelab.cli import run_command
from bethelab.report import report_fingerprint


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


def test_capacity_cap_named_on_exit_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("N = 2\nL = 13\n")
    code, _ = run(["rll", "--config", str(cfg)])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_offshell_requires_rank2(tmp_path, capsys):
    cfg = tmp_path / "n3.cfg"
    cfg.write_text("N = 3\nL = 2\n")
    code, _ = run(["offshell", "--config", str(cfg)])
    assert code == 2


def test_identities_suite_covers_required_checks(capsys):
    code, report = run(["identities", "--seed", "5"])
    assert code == 0
    assert len(report.checks) >= 12
    ids = {c.check_id for c in report.checks}
    for fragment in ("overlap-two-forms", "qsym-idempotent", "qsym-shuffle",
                     "qsym-shift", "qsym-cyclic", "partial-fraction"):
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
    # where one dense block grid would take 1.07 GB
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("N = 2\nL = 12\nsectors = 1\nseed = 7\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 0
    assert report.summary()["passed"] == len(report.checks) == 2


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


def test_each_sector_solved_once_under_the_pool(tmp_path, monkeypatch, capsys):
    solved = []
    original = cli.solve_bethe

    def counting(chain, nbar, opts=None):
        solved.append(tuple(nbar))
        time.sleep(0.05)  # widen the window in which a second thread could start
        return original(chain, nbar, opts)

    monkeypatch.setattr(cli, "solve_bethe", counting)
    monkeypatch.setenv("BETHELAB_WORKERS", "4")
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
    monkeypatch.setenv("BETHELAB_WORKERS", "4")
    cfg = tmp_path / "stage.cfg"
    cfg.write_text("N = 2\nL = 2\nseed = 5\nsuites = solve, verify\n")
    code, report = run(["all", "--config", str(cfg)])
    assert code == 0
    assert all(c.wall_time < 0.25 for c in report.checks)


def test_failed_solve_fails_the_checks_that_read_it(tmp_path, capsys):
    cfg = tmp_path / "nine.cfg"
    cfg.write_text("N = 2\nL = 9\nsectors = 9\nseed = 7\n")
    code, report = run(["verify", "--config", str(cfg)])
    assert code == 1
    assert len(report.checks) == 2
    for check in report.checks:
        assert not check.passed
        assert check.error == "CapacityError: sector size 9 exceeds cap 8"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_worker_count_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("BETHELAB_WORKERS", value)
    code, report = run(["yang-baxter"])
    assert code == 2
    assert report is None
    assert "configuration error" in capsys.readouterr().err
    assert cli._worker_count("") == 4


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


def test_failing_tolerance_exits_1(capsys):
    # an unreachable identity tolerance forces residual failures
    code, report = run(["identities", "--seed", "5", "--tol", "1e-18"])
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
