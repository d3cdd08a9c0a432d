"""bethelab benchmark: time to a verdict on three CLI workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each invocation of bethelab runs in a fresh
child process (``probe.py``) driven through ``bethelab.cli.run_command``
with ``PYTHONPATH=src``; nothing is installed. The child gets only the
config generated here from the workload and ``--seed``.

``--trace 0`` prints the end-to-end metrics: it starts ``SETUP_SAMPLES``
set-up-only children, then full invocations for ``--seconds`` (at least one;
another starts only if the median invocation so far would still end within
the window), and reports medians. The first full invocation uses
``--seed`` itself and each later one a seed drawn from it
(`invocation_seed`), so a run's median is taken over distinct chains and
one chain whose solver misses a root (fewer on-shell vectors to check, so
a shorter run) does not set the run's figure. ``--trace 1`` runs one
untraced and one traced invocation at ``--seed`` and prints the per-layer
metrics: ``<span>.calls``,
``.s`` and ``.self_s`` for every span in ``tracing.py`` (times summed over
threads), solver and cli counters taken at the ``solve_bethe`` and check-phase
boundaries, and ``trace.overhead_s``, the traced wall time minus the
untraced one. Each is labelled by how far it can be trusted (see `label`).
``--workload all`` runs every workload in turn. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Every invocation is checked: the exit code must be 0 or 1 and agree with
the report's verdicts, every requested suite must produce checks, no sector
may return more root sets than its multiplicity, and
``report_fingerprint`` must be identical across invocations of the same
code (digest of ``src/bethelab``), workload and invocation seed, in this run and in
earlier runs of the checkout (``benchmarks/_work/fingerprints.json``). An
invocation that breaks one of these counts as failed. A check the program
itself fails is a verdict, not a failed invocation: it shows in
``checks_passed_frac``.

Policy: ``BETHELAB_WORKERS`` is the number of usable cores and
``OPENBLAS_NUM_THREADS=1``, so the program's threads stay within them. One
process generates load at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PROBE = HERE / "probe.py"

DEFAULT_SEED = 7
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
WORKERS = len(os.sched_getaffinity(0))

# Generated config per workload; the seed is added by `config_text` and draws
# the chain (q, z, kappa) and every sample point. Only the two dense
# workloads are listed in BENCHMARK.json: the multi-start solver's cost
# depends on how many restarts each sector needs, so one nested-spectrum-n3l3
# invocation took 35-62 s over chains drawn from five seeds (and 62-92 s over
# five restart streams on one chain) on a 2-core x86-64 VM, too wide for any
# bound and too long to average within a run. It stays runnable by name.
WORKLOADS = {
    # the paper's nested rank-3 certification; the solver does nearly all the work
    "nested-spectrum-n3l3": {"N": 3, "L": 3, "sectors": "all",
                             "suites": "solve, verify, spectrum"},
    # the transfer mat-vec behind T w = tau w: dense d=256 transfer builds
    "onshell-n2l8": {"N": 2, "L": 8, "sectors": "1", "suites": "verify"},
    # repcore as a builder of dense d=243 block grids (RLL, Gauss, zero
    # modes) plus the qsym identities; no solver
    "operators-n3l5": {"N": 3, "L": 5, "suites": "rll, gauss, identities"},
}

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("checks_passed_frac", "ratio", "higher"),
    ("roots_found_frac", "ratio", "higher"),
)

# How far a per-layer figure can be trusted between two traced runs of the
# same code and seed: "exact" counts repeat exactly and may support a claim;
# "timing" counts depend on thread timing (a sector solved twice when two
# pool threads reach its memo together); "time" is measured time;
# "computed" is derived from counts, not measured.
_TIMING_COUNTS = ("solver.solve_bethe.calls", "kernels.bethe_residual.calls",
                  "context.sample_annulus.calls",
                  "context.DeformationContext.rng.calls", "cli.duplicate_solves")


def _span_metrics():
    for span in SPAN_NAMES:
        yield f"{span}.calls", "count", "lower"
        yield f"{span}.s", "s", "lower"
        yield f"{span}.self_s", "s", "lower"


PER_LAYER = (
    *_span_metrics(),
    ("solver.distinct_solves", "count", "lower"),
    ("solver.attempts", "count", "lower"),
    ("solver.converged", "count", "higher"),
    ("solver.inadmissible", "count", "lower"),
    ("solver.found", "count", "higher"),
    ("solver.multiplicity", "count", "higher"),
    ("solver.converged_per_attempt", "ratio", "higher"),
    ("solver.found_per_multiplicity", "ratio", "higher"),
    ("solver.attempts_per_solve", "count", "lower"),
    ("kernels.bethe_residual.evals_per_solve", "count", "lower"),
    ("repcore.monodromy.grid_bytes", "B", "lower"),
    ("gauss.zero_mode_set.distinct_chains", "count", "lower"),
    ("cli.checks_s", "s", "lower"),
    ("cli.check_time_sum_s", "s", "lower"),
    ("cli.duplicate_solves", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def label(name: str) -> str:
    """Trust class of a per-layer metric, as described above."""
    if name in _TIMING_COUNTS:
        return "timing"
    if name == "repcore.monodromy.grid_bytes":
        return "computed"
    unit = next(u for n, u, _ in PER_LAYER if n == name)
    return "time" if unit == "s" else "exact"


# ---------------------------------------------------------------------------
# inputs


def config_text(workload: str, seed: int) -> str:
    cfg = {**WORKLOADS[workload], "seed": seed}
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def invocation_seed(seed: int, index: int) -> int:
    """Seed of the index-th full invocation of a run: ``seed`` itself first,
    then 56-bit seeds drawn from it."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bethelab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "nproc": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "BETHELAB_WORKERS": WORKERS,
        "OPENBLAS_NUM_THREADS": 1,
        "commit": commit,
        "code": code_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# invocations


@dataclass
class Invocation:
    mode: str
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int | None
    record: dict
    report: str | None
    error: str = ""
    seed: int = 0

    @property
    def setup_s(self) -> float | None:
        start = self.record.get("checks_start")
        return None if start is None else start - self.record["spawned"]


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        WORK.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-{seed}-{os.getpid()}"
        self.config = WORK / f"{stem}.cfg"
        self.report_path = WORK / f"{stem}.report.json"
        self.result_path = WORK / f"{stem}.probe.json"
        self.stderr_path = WORK / f"{stem}.stderr"
        self.config.write_text(config_text(workload, seed), encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "BENCH_SRC": str(SRC),
                    "BETHELAB_WORKERS": str(WORKERS),
                    "OPENBLAS_NUM_THREADS": "1"}

    def close(self) -> None:
        for path in (self.config, self.report_path, self.result_path, self.stderr_path):
            path.unlink(missing_ok=True)

    def invoke(self, mode: str) -> Invocation:
        argv = ["all", "--config", str(self.config)]
        if mode != "setup":
            argv += ["--out", str(self.report_path)]
        for path in (self.report_path, self.result_path):
            path.unlink(missing_ok=True)
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            return Invocation(mode, 0.0, 0.0, 0.0, None, {}, None, "run time limit reached",
                              self.seed)
        with open(self.stderr_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(PROBE), "--mode", mode,
                 "--result", str(self.result_path), "--spawned", repr(spawned),
                 "--", *argv],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        rss_mb = usage.ru_maxrss / 1024.0
        record = (json.loads(self.result_path.read_text(encoding="utf-8"))
                  if self.result_path.exists() else {})
        report = (self.report_path.read_text(encoding="utf-8")
                  if self.report_path.exists() else None)
        error = ""
        if not record:
            tail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            error = f"child exited with {proc.returncode} and no result: {tail}"
        return Invocation(mode, wall, cpu, rss_mb, proc.returncode, record, report, error,
                          self.seed)


# ---------------------------------------------------------------------------
# correctness


def check_invocation(inv: Invocation, suites: tuple[str, ...]) -> str:
    """Empty if the invocation is correct, else the reason it is not."""
    if inv.error:
        return inv.error
    rec = inv.record
    if inv.exit_code != rec.get("exit_code"):
        return f"exit code {inv.exit_code} but run_command returned {rec.get('exit_code')}"
    if inv.setup_s is None:
        return "the check phase never started"
    if inv.mode == "setup":
        return "" if inv.exit_code == 0 else f"set-up run exited with {inv.exit_code}"
    if inv.exit_code not in (0, 1):
        return f"exit code {inv.exit_code}"
    if inv.report is None:
        return "no report written"
    report = json.loads(inv.report)
    checks = report["checks"]
    verdict = 0 if all(c["passed"] for c in checks) else 1
    if inv.exit_code != verdict:
        return f"exit code {inv.exit_code} disagrees with the verdicts"
    if report["summary"]["failed"] != sum(not c["passed"] for c in checks):
        return "report summary disagrees with its checks"
    for suite in suites:
        if not any(c["id"].split("/", 1)[0] == suite for c in checks):
            return f"suite {suite} produced no checks"
    found: dict[str, int] = {}
    for s in rec["solves"]:
        if s["found"] > s["multiplicity"]:
            return f"{s['found']} root sets for multiplicity {s['multiplicity']}"
        if found.setdefault(s["key"], s["found"]) != s["found"]:
            return "two solves of one sector disagree"
    return ""


def fingerprint(report_text: str) -> str:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bethelab.report import report_fingerprint
    return hashlib.sha256(report_fingerprint(report_text).encode()).hexdigest()


class FingerprintStore:
    """Report fingerprints per (code, workload, seed), kept across runs."""

    path = WORK / "fingerprints.json"

    def __init__(self):
        self.known = (json.loads(self.path.read_text(encoding="utf-8"))
                      if self.path.exists() else {})

    def check(self, key: str, digest: str) -> bool:
        expected = self.known.setdefault(key, digest)
        return expected == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# metrics


def _distinct_solves(rec: dict) -> list[dict]:
    seen: dict[str, dict] = {}
    for s in rec.get("solves", []):
        seen.setdefault(s["key"], s)
    return list(seen.values())


def end_to_end(full: list[Invocation], setups: list[Invocation]) -> dict[str, float]:
    passed = total = found = multiplicity = 0
    for inv in full:
        checks = json.loads(inv.report)["checks"] if inv.report else []
        passed += sum(c["passed"] for c in checks)
        total += len(checks)
        for s in _distinct_solves(inv.record):
            found += s["found"]
            multiplicity += s["multiplicity"]
    setup = [inv.setup_s for inv in (*setups, *full) if inv.setup_s is not None]
    return {
        "wall_s": statistics.median(inv.wall for inv in full),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(inv.cpu for inv in full),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in full),
        "checks_passed_frac": passed / total if total else 0.0,
        # a workload that solves no sector misses no state
        "roots_found_frac": found / multiplicity if multiplicity else 1.0,
    }


def per_layer(plain: Invocation, traced: Invocation) -> dict[str, float]:
    rec = traced.record
    out: dict[str, float] = {}
    for span, (calls, incl, self_s) in rec["spans"].items():
        out[f"{span}.calls"] = calls
        out[f"{span}.s"] = incl
        out[f"{span}.self_s"] = self_s
    solves = _distinct_solves(rec)
    n = len(solves)
    totals = {k: sum(s[k] for s in solves)
              for k in ("attempts", "converged", "inadmissible", "found",
                        "multiplicity", "residual_evals")}
    out.update({
        "solver.distinct_solves": n,
        "solver.attempts": totals["attempts"],
        "solver.converged": totals["converged"],
        "solver.inadmissible": totals["inadmissible"],
        "solver.found": totals["found"],
        "solver.multiplicity": totals["multiplicity"],
        "solver.converged_per_attempt":
            totals["converged"] / totals["attempts"] if totals["attempts"] else 0.0,
        "solver.found_per_multiplicity":
            totals["found"] / totals["multiplicity"] if totals["multiplicity"] else 0.0,
        "solver.attempts_per_solve": totals["attempts"] / n if n else 0.0,
        "kernels.bethe_residual.evals_per_solve": totals["residual_evals"] / n if n else 0.0,
        "repcore.monodromy.grid_bytes": rec["grid_bytes"],
        "gauss.zero_mode_set.distinct_chains": len(set(rec["zero_mode_chains"])),
        "cli.checks_s": rec["checks_end"] - rec["checks_start"],
        "cli.check_time_sum_s": rec.get("check_time_sum_s", 0.0),
        "cli.duplicate_solves": len(rec["solves"]) - n,
        "trace.overhead_s": traced.wall - plain.wall,
    })
    return out


# ---------------------------------------------------------------------------
# entry point


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 store: FingerprintStore) -> dict:
    suites = tuple(s.strip() for s in WORKLOADS[workload]["suites"].split(","))
    deadline = time.monotonic() + RUN_LIMIT_S
    invocations: list[Invocation] = []

    def invoke(index: int, mode: str) -> None:
        runner = Runner(workload, invocation_seed(seed, index), deadline)
        try:
            invocations.append(runner.invoke(mode))
        finally:
            runner.close()

    if trace:
        invoke(0, "full")
        invoke(0, "trace")
    else:
        for _ in range(SETUP_SAMPLES):
            invoke(0, "setup")
        start = time.monotonic()
        walls: list[float] = []
        while not walls or (time.monotonic() - start + statistics.median(walls) <= seconds
                            and time.monotonic() < deadline):
            invoke(len(walls), "full")
            walls.append(invocations[-1].wall)

    digest = code_digest()
    failures, good = [], []
    for inv in invocations:
        reason = check_invocation(inv, suites)
        key = f"{digest}/{workload}/{inv.seed}"
        if not reason and inv.mode != "setup" and not store.check(key, fingerprint(inv.report)):
            reason = "report fingerprint differs from an earlier run of this code and seed"
        if reason:
            failures.append(f"{inv.mode} (seed {inv.seed}): {reason}")
        else:
            good.append(inv)
    good_full = [inv for inv in good if inv.mode == "full"]
    if not good_full:
        raise RuntimeError(f"{workload}: no invocation completed correctly: {failures}")
    if trace:
        if invocations[1] not in good:
            raise RuntimeError(f"{workload}: traced invocation failed: {failures}")
        metrics = per_layer(invocations[0], invocations[1])
        specs = PER_LAYER
    else:
        metrics = end_to_end(good_full, [inv for inv in good if inv.mode == "setup"])
        specs = END_TO_END
    return {
        "attempted": len(invocations),
        "failed": len(failures),
        "failures": failures,
        "seeds": [inv.seed for inv in good_full],
        "walls": [round(inv.wall, 3) for inv in good_full],
        "exit_codes": [inv.exit_code for inv in good_full],
        "failing_checks": [f"{c['id']} (seed {inv.seed})" for inv in good_full
                           for c in json.loads(inv.report)["checks"] if not c["passed"]],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }


def print_table(workload: str, result: dict, trace: bool) -> None:
    print(f"== {workload}: {result['attempted']} invocations, {result['failed']} failed")
    for reason in result["failures"]:
        print(f"   FAILED {reason}")
    print(f"   seeds {result['seeds']}; bethelab exit codes {result['exit_codes']}; "
          f"wall s {result['walls']}")
    print(f"   checks failing: {', '.join(result['failing_checks']) or 'none'}")
    for name, m in result["metrics"].items():
        tag = f" [{label(name)}]" if trace else ""
        print(f"   {name:<48} {m['value']:>16.6g} {m['unit']:<6}{tag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bethelab" / "cli.py").is_file():
        print(f"no bethelab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(args.seed), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    store = FingerprintStore()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         store)
            print_table(name, results[name], bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        store.save()

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
