"""Span tracing of bethelab from outside the package.

`install` wraps the public functions named in `TRACED` and rebinds every
reference the package holds to them: module attributes in every
``bethelab.*`` module that imported the function by name, and dict tables
such as ``cli.SUITE_BUILDERS``. The program itself carries no
instrumentation, so an untraced run executes exactly the shipped code.

Spans are aggregated as they close, per thread, into calls, inclusive
seconds and self seconds (inclusive minus the time covered by traced child
calls on the same thread). The span stack is kept per thread, so self time
stays correct while checks run on the worker pool's threads. Inclusive time
is added only for the outermost active call of a name on a thread, so
recursion (``qsym_values`` inside ``qsym_values``) is not counted twice.
Individual spans are not kept: the solver makes over a million kernel calls
per run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "bethelab"

# span name -> (module, attribute); "Class.method" wraps a method in place
TRACED = {
    "cli.materialize": ("cli", "materialize"),
    "solver.solve_bethe": ("solver", "solve_bethe"),
    "solver.spectrum_reconcile": ("solver", "spectrum_reconcile"),
    "kernels.bethe_residual": ("kernels", "bethe_residual"),
    "kernels.transfer_eigenvalue": ("kernels", "transfer_eigenvalue"),
    "repcore.monodromy": ("repcore", "monodromy"),
    "repcore.transfer": ("repcore", "transfer"),
    "repcore.zero_modes": ("repcore", "zero_modes"),
    "repcore.rll_residual": ("repcore", "rll_residual"),
    "repcore.transfer_commutator_residual": ("repcore", "transfer_commutator_residual"),
    "repcore.vacuum_residuals": ("repcore", "vacuum_residuals"),
    "vectors.nested_vector": ("vectors", "nested_vector"),
    "vectors.modified_vector": ("vectors", "modified_vector"),
    "gauss.gauss_decompose": ("gauss", "gauss_decompose"),
    "gauss.zero_mode_set": ("gauss", "zero_mode_set"),
    "gauss.coordinate_identity_residual": ("gauss", "coordinate_identity_residual"),
    "gauss.normal_order_transfer_residual": ("gauss", "normal_order_transfer_residual"),
    "qsym.qsym_values": ("qsym", "qsym_values"),
    "qsym.shift_expansion_forward": ("qsym", "shift_expansion_forward"),
    "qsym.shift_expansion_backward": ("qsym", "shift_expansion_backward"),
    "qsym.cyclic_identity_sides": ("qsym", "cyclic_identity_sides"),
    "qsym.decomposition_sides": ("qsym", "decomposition_sides"),
    "report.inputs_digest": ("report", "inputs_digest"),
    "report.Report.to_json": ("report", "Report.to_json"),
    "context.sample_annulus": ("context", "sample_annulus"),
    "context.DeformationContext.rng": ("context", "DeformationContext.rng"),
}

# every suite builder is traced under this one name (they only build thunks)
SUITE_BUILDERS_SPAN = "cli.suite_builders"

SPAN_NAMES = tuple(TRACED) + (SUITE_BUILDERS_SPAN,)


class Tracer:
    """Per-thread span stacks and per-thread aggregates, merged on demand."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            stats: dict = {}
            state = ([], stats, {})
            self._local.state = state
            with self._lock:
                self._threads.append(stats)
            return state

    def wrap(self, name: str, fn):
        state_of = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, stats, active = state_of()
            child = [0.0]
            stack.append(child)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] = depth
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += elapsed
                rec[2] += elapsed - child[0]

        functools.update_wrapper(traced, fn)
        return traced

    def thread_calls(self, name: str) -> int:
        """Calls of `name` made so far on the calling thread."""
        rec = self._state()[1].get(name)
        return rec[0] if rec else 0

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, inclusive s, self s) per span name, summed over threads."""
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        with self._lock:
            per_thread = list(self._threads)
        for stats in per_thread:
            for name, rec in list(stats.items()):
                acc = out.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += rec[k]
        return {name: tuple(acc) for name, acc in out.items()}


def package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> int:
    """Point every reference the package holds to `original` at `replacement`.

    Returns the number of references rebound.
    """
    count = 0
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        count += 1
    return count


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every function in `TRACED` and the suite builders; returns the
    number of references rebound per span name."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    rebound: dict[str, int] = {}
    for name, (module, attr) in TRACED.items():
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            setattr(owner, meth, tracer.wrap(name, owner.__dict__[meth]))
            rebound[name] = 1
            continue
        original = getattr(mod, attr)
        rebound[name] = rebind(original, tracer.wrap(name, original))
    rebound[SUITE_BUILDERS_SPAN] = 0
    for builder in set(cli.SUITE_BUILDERS.values()):
        rebound[SUITE_BUILDERS_SPAN] += rebind(
            builder, tracer.wrap(SUITE_BUILDERS_SPAN, builder))
    return rebound
