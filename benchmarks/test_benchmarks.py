"""Tests of the benchmark itself: its metric list, its inputs, its
correctness checks and the tracer's rebinding."""
import json
import shutil
import subprocess
import sys
import threading
import time
import types

import pytest

import run
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(run.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "benchmarks/run.py"]
    assert all(run.label(name) in ("exact", "timing", "time", "computed")
               for name, _, _ in run.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_reaches_generated_config(tmp_path, workload):
    from bethelab.cli import _build_parser, build_config, materialize

    chains = []
    for seed in (11, 12, 11):
        path = tmp_path / f"{seed}.cfg"
        path.write_text(run.config_text(workload, seed), encoding="utf-8")
        cfg = build_config(_build_parser().parse_args(["all", "--config", str(path)]))
        assert cfg.seed == seed
        chain = materialize(cfg).chains[0]
        chains.append((chain.ctx.q, chain.z, chain.kappa))
    assert chains[0] == chains[2]
    assert chains[0] != chains[1]


def test_invocation_seeds_start_at_the_run_seed_and_differ():
    seeds = [run.invocation_seed(11, i) for i in range(6)]
    assert seeds[0] == 11
    assert len(set(seeds)) == len(seeds)
    assert seeds == [run.invocation_seed(11, i) for i in range(6)]
    assert run.invocation_seed(12, 1) != seeds[1]
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_rebind_reaches_every_importer(monkeypatch):
    def f():
        return 1

    def g():
        return 2

    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    a.f = f
    b.f = f
    b.TABLE = {"x": f, "y": len}
    other = types.ModuleType("elsewhere")
    other.f = f
    for mod in (pkg, a, b, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setattr(tracing, "PACKAGE", "fakepkg")

    assert tracing.rebind(f, g) == 3
    assert a.f is g and b.f is g and b.TABLE == {"x": g, "y": len}
    assert other.f is f


def test_self_time_is_kept_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        time.sleep(0.05)
        inner()

    outer = tracer.wrap("outer", outer_body)
    threads = [threading.Thread(target=outer) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    totals = tracer.totals()
    calls, incl, self_s = totals["outer"]
    assert calls == 3
    assert incl >= 0.3
    assert 0.15 <= self_s < incl - 0.12
    assert totals["inner"][0] == 3
    assert totals["inner"][2] >= 0.15


def test_recursive_calls_count_inclusive_time_once():
    tracer = tracing.Tracer()

    def body(n):
        time.sleep(0.01)
        return rec(n - 1) if n else 0

    rec = tracer.wrap("rec", body)
    rec(3)
    calls, incl, self_s = tracer.totals()["rec"]
    assert calls == 4
    assert incl == pytest.approx(self_s, rel=0.2)


def _invocation(exit_code, checks, solves=()):
    report = {"checks": [{"id": cid, "passed": ok} for cid, ok in checks],
              "summary": {"failed": sum(not ok for _, ok in checks)}}
    record = {"spawned": 0.0, "checks_start": 0.5, "exit_code": exit_code,
              "solves": list(solves)}
    return run.Invocation("full", 1.0, 1.0, 10.0, exit_code, record, json.dumps(report))


def test_invocation_checks():
    ok = _invocation(1, [("verify/a", True), ("verify/b", False)])
    assert run.check_invocation(ok, ("verify",)) == ""
    assert "disagrees" in run.check_invocation(
        _invocation(0, [("verify/a", False)]), ("verify",))
    assert "no checks" in run.check_invocation(
        _invocation(0, [("verify/a", True)]), ("verify", "spectrum"))
    solve = {"key": "k", "found": 4, "multiplicity": 3}
    assert "multiplicity" in run.check_invocation(
        _invocation(0, [("verify/a", True)], [solve]), ("verify",))


def test_traced_onshell_sees_transfer_calls():
    runner = run.Runner("onshell-n2l8", run.DEFAULT_SEED,
                        time.monotonic() + run.RUN_LIMIT_S)
    try:
        inv = runner.invoke("trace")
    finally:
        runner.close()
    assert run.check_invocation(inv, ("verify",)) == ""
    spans = inv.record["spans"]
    assert spans["repcore.transfer"][0] > 0
    assert spans["repcore.monodromy"][0] >= spans["repcore.transfer"][0]
    # transfer is imported by name into cli, solver, vectors and gauss
    assert inv.record["rebound"]["repcore.transfer"] >= 5
    for calls, incl, self_s in spans.values():
        assert self_s <= incl + 1e-6
    metrics = run.per_layer(inv, inv)
    assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    assert metrics["solver.found"] == metrics["solver.multiplicity"] == 8


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "onshell-n2l8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
