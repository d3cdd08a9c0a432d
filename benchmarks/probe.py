"""One bethelab invocation in a fresh process, driven through
``bethelab.cli.run_command``; started by ``run.py``.

    python3 benchmarks/probe.py --mode MODE --result PATH --spawned T -- ARGV...

MODE is ``full`` (the invocation as a user runs it), ``setup`` (stops where
the first check would start) or ``trace`` (full, with every function in
``tracing.TRACED`` wrapped). T is the parent's ``time.monotonic()`` just
before it started this process, so ``checks_start - T`` covers interpreter
start, ``import bethelab``, config parsing, ``materialize`` and the suite
builders. The process exits with the invocation's exit code after writing
PATH, a JSON object with what the probes saw.

Every mode hooks two boundaries, each passed a handful of times per run:
``cli._run_checks`` (the check phase) and ``solver.solve_bethe`` (root sets
found per sector). Neither hook changes what the program computes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import tracing


def _chain_key(chain) -> str:
    return repr((chain.N, chain.L, chain.z, chain.kappa, complex(chain.ctx.q)))


def _hook_checks(cli, record: dict, run_checks: bool) -> None:
    original = cli._run_checks

    def probed(checks, workers):
        record["checks_start"] = time.monotonic()
        try:
            return original(checks, workers) if run_checks else []
        finally:
            record["checks_end"] = time.monotonic()

    tracing.rebind(original, probed)


def _hook_solves(solver, record: dict, tracer) -> None:
    original = solver.solve_bethe
    multiplicity = solver.sector_multiplicity
    solves = record["solves"]

    def probed(chain, nbar, opts=None):
        before = tracer.thread_calls("kernels.bethe_residual") if tracer else 0
        result = original(chain, nbar, opts)
        after = tracer.thread_calls("kernels.bethe_residual") if tracer else 0
        solves.append({
            "key": _chain_key(chain) + repr(tuple(nbar)),
            "found": len(result),
            "multiplicity": multiplicity(chain.L, nbar),
            "attempts": result.attempts,
            "converged": result.converged,
            "inadmissible": result.inadmissible,
            "residual_evals": after - before,
        })
        return result

    tracing.rebind(original, probed)


def _hook_dense_builds(repcore, gauss, record: dict) -> None:
    """Computed bytes of every monodromy block grid, and the chains whose
    zero-mode set is rebuilt; traced runs only."""
    monodromy = repcore.monodromy
    zero_mode_set = gauss.zero_mode_set
    record["grid_bytes"] = 0
    chains = record["zero_mode_chains"] = []

    def probed_monodromy(chain, t):
        record["grid_bytes"] += chain.N ** 2 * chain.dim ** 2 * 16
        return monodromy(chain, t)

    def probed_zero_mode_set(chain):
        chains.append(_chain_key(chain))
        return zero_mode_set(chain)

    tracing.rebind(monodromy, probed_monodromy)
    tracing.rebind(zero_mode_set, probed_zero_mode_set)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("full", "setup", "trace"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import bethelab
    from bethelab import cli, gauss, repcore, solver

    src = os.environ.get("BENCH_SRC", "")
    if not src or not os.path.abspath(bethelab.__file__).startswith(src + os.sep):
        print(f"bethelab imported from {bethelab.__file__}, expected under {src!r}",
              file=sys.stderr)
        return 3

    record: dict = {"mode": opts.mode, "spawned": opts.spawned, "solves": []}
    tracer = tracing.Tracer() if opts.mode == "trace" else None
    _hook_checks(cli, record, run_checks=opts.mode != "setup")
    _hook_solves(solver, record, tracer)
    if tracer is not None:
        _hook_dense_builds(repcore, gauss, record)
        record["rebound"] = tracing.install(tracer)

    code, report = cli.run_command(argv)
    record["exit_code"] = code
    if report is not None:
        record["check_time_sum_s"] = sum(c.wall_time for c in report.checks)
    if tracer is not None:
        record["spans"] = tracer.totals()
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
