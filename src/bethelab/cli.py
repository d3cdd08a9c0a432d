"""Batch front-end: configuration parsing, suite orchestration, JSON reports.

Config files are flat ``key = value`` text; ``#`` starts a comment. Keys:

    N, L            integers (defaults 2, 2)
    q               complex literal or "random" (uniform on [1.2, 1.8])
    z               comma list of complex or "random"
    kappa           comma list of complex or "random"
    sectors         "all" or semicolon list of comma tuples, e.g. "1,0; 1,1"
    chains          number of random chain replicas (default 1)
    seed            unsigned 64-bit integer
    tol_identity    float in (0, 1e-3) (default 1e-10)
    out             report path
    suites          comma list of suite names (for the `all` subcommand)

Any other key is a configuration error. Command-line flags override file
values.

`_run_checks` runs every stage the checks declare (a sector's solve, a
chain's Gauss pass), once each, and then runs the checks serially on the
calling thread, in the order the suite builders return them. Each check's
thunk yields one residual per random draw; `_run_checks` reduces them to
the check's residual (the largest, NaN if any is NaN) and compares it with
the tolerance. Exit codes: 0 all checks
passed, 1 at least one tolerance failure, 2 invalid configuration (a seed
outside [0, 2^64), a sector listed twice, an inadmissible sector, no sector,
no suite, a suite listed twice, `offshell` on a chain of length 0, a
non-finite q, z_l or kappa_a, a q whose powers overflow, z and kappa that
overflow the monodromy, a report path that cannot be opened for writing) or
capacity cap.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .context import POLE_MARGIN, BetheParameterSet, DeformationContext, sample_annulus
from .errors import (BetheLabError, CapacityError, ConfigError, DegenerateVectorError,
                     DomainError, SamplingExhaustedError)
from .gauss import (CoordinateIdentity, coordinate_identity_residual, gauss_decompose,
                    normal_order_transfer_residual, reconstruction_residual,
                    zero_mode_set)
from .kernels import (nesting_overlap, nesting_overlap_alt,
                      partial_fraction_residual, same_type_weight, shift_weight,
                      split_weight, string_overlap, top_split_weight,
                      transfer_eigenvalue, transfer_eigenvalue_residues)
from .qsym import (cyclic_identity_sides, decomposition_sides, qsym_values,
                   shift_expansion_backward, shift_expansion_forward)
from .repcore import (ChainSpec, grid_bytes, monodromy, permutation_operator, r_matrix,
                      rll_residual, transfer, transfer_commutator_residual, vacuum_data,
                      vacuum_residuals, yang_baxter_residual, zero_mode_residuals)
from .report import CheckRecord, Report, encode_complex, inputs_digest
from .solver import (admissible_sectors, backward_errors, sector_multiplicity,
                     solve_bethe, spectrum_reconcile)
from .vectors import (UNWANTED_CAP, expected_occupancy, is_admissible, on_shell_residuals,
                      unwanted_decomposition)

# `solve/*/sector*` tolerance on the backward error |A - eps B| / (|A| + |eps B|)
# of the cleared Bethe equations. Over every root set of N=2 with L = 2, 4,
# 6, 8 and N=3 with L = 2, 3, 4 at seeds 1, 2, 3 and 7 its rounding floor is
# 2.3e-14; this leaves a factor of 44 above it.
SOLVE_TOL = 1e-12

# monodromy grid bytes per Gauss-pass batch (5 points at N=3, L=5, 1 from L=6): at N=3,
# L=5 the batch halves the pass, 0.11 -> 0.06 s, for a heap peak of 7.1 MB, not 1.7 MB.
GAUSS_BATCH_BYTES = 3 << 20

SUITES = ("yang-baxter", "rll", "gauss", "identities", "solve", "verify",
          "offshell", "spectrum")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    N: int = 2
    L: int = 2
    q_spec: str = "random"
    z_spec: str = "random"
    kappa_spec: str = "random"
    sectors_spec: str = "all"
    chains: int = 1
    seed: int = 0
    tol_identity: float = 1e-10
    out: str = ""
    suites: tuple[str, ...] = SUITES
    raw: dict = field(default_factory=dict)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}") from exc


def parse_config_file(path: str) -> dict[str, str]:
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = stripped.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    raw = parse_config_file(args.config) if args.config else {}
    cfg = RunConfig(raw=dict(raw))
    known = set()

    def take(key, cast, current):
        known.add(key)
        if key in raw:
            try:
                return cast(raw[key])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        return current

    cfg.N = take("N", int, cfg.N)
    cfg.L = take("L", int, cfg.L)
    cfg.q_spec = take("q", str, cfg.q_spec)
    cfg.z_spec = take("z", str, cfg.z_spec)
    cfg.kappa_spec = take("kappa", str, cfg.kappa_spec)
    cfg.sectors_spec = take("sectors", str, cfg.sectors_spec)
    cfg.chains = take("chains", int, cfg.chains)
    cfg.seed = take("seed", int, cfg.seed)
    cfg.tol_identity = take("tol_identity", float, cfg.tol_identity)
    cfg.out = take("out", str, cfg.out)
    cfg.suites = take("suites", lambda text: tuple(
        s.strip() for s in text.split(",") if s.strip()), cfg.suites)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")

    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tol_identity = args.tol
    if args.out:
        cfg.out = args.out
    if args.sector:
        cfg.sectors_spec = args.sector
    if args.chains is not None:
        cfg.chains = args.chains

    if cfg.N < 2:
        raise ConfigError("N must be at least 2")
    if cfg.L < 0:
        raise ConfigError("L must be non-negative")
    if cfg.chains < 1:
        raise ConfigError("chains must be positive")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    if not 0 < cfg.tol_identity < 1e-3:
        raise ConfigError("tol_identity must lie in (0, 1e-3)")
    for s in cfg.suites:
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    return cfg


@dataclass
class Materialized:
    ctx: DeformationContext
    chains: list[ChainSpec]
    sectors: list[tuple[int, ...]]
    tol_identity: float


def materialize(cfg: RunConfig) -> Materialized:
    seed_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 0x6D61]))
    if cfg.q_spec == "random":
        q = complex(seed_rng.uniform(1.2, 1.8))
    else:
        q = _parse_complex(cfg.q_spec)
    try:
        ctx = DeformationContext(q=q, seed=cfg.seed)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    chains = []
    for c in range(cfg.chains):
        rng = ctx.rng(f"chain:{c}")
        if cfg.z_spec == "random":
            z = _separated(rng, cfg.L)
        else:
            z = tuple(_parse_complex(s) for s in cfg.z_spec.split(",") if s.strip())
        if cfg.kappa_spec == "random":
            kappa = tuple(sample_annulus(rng, cfg.N))
        else:
            kappa = tuple(_parse_complex(s) for s in cfg.kappa_spec.split(",") if s.strip())
        try:
            chains.append(ChainSpec(N=cfg.N, L=cfg.L, z=z, kappa=kappa, ctx=ctx))
        except (DomainError, CapacityError) as exc:
            raise ConfigError(f"chain {c}: {exc}") from exc

    if cfg.sectors_spec.strip() == "all":
        sectors = list(admissible_sectors(chains[0]))
    else:
        sectors = []
        for part in cfg.sectors_spec.split(";"):
            part = part.strip()
            if not part:
                continue
            try:
                nbar = tuple(int(x) for x in part.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad sector {part!r}") from exc
            if len(nbar) != cfg.N - 1:
                raise ConfigError(f"sector {nbar} needs {cfg.N - 1} entries")
            if not is_admissible(chains[0], nbar):
                raise ConfigError(f"inadmissible sector {nbar} for L={cfg.L}")
            if nbar in sectors:
                raise ConfigError(f"sector {nbar} listed twice")
            sectors.append(nbar)
        if not sectors:
            raise ConfigError("sectors names no sector")
    if not cfg.suites:
        raise ConfigError("suites names no suite")
    for i, name in enumerate(cfg.suites):
        if name in cfg.suites[:i]:
            raise ConfigError(f"suite {name!r} listed twice")
    return Materialized(ctx=ctx, chains=chains, sectors=sectors,
                        tol_identity=cfg.tol_identity)


# ---------------------------------------------------------------------------
# checks


@dataclass
class Check:
    check_id: str
    anchor: str
    tolerance: float
    inputs: dict
    # called with the results of `stages`, in order; yields one residual per
    # draw, which `_run_checks` reduces to the check's residual
    thunk: Callable[..., Iterable[float]]
    # hashable (function, *args) calls such as (solve_bethe, chain, nbar)
    stages: tuple[tuple, ...] = ()


def _run_checks(checks: list[Check], workers: int) -> list[CheckRecord]:
    """Run each distinct declared stage once, then the checks one after the
    other, in order; a stage that raises a BetheLabError fails exactly the
    checks that declared it. No check's wall time includes a stage.
    `workers` is ignored: it is kept only for the benchmark's wrapper, which
    passes it positionally.

    A check's residual is the largest value its thunk yields (0.0 when it
    yields none), and NaN, which fails the check, when any yielded value is
    NaN: a plain running max would drop the NaN, since ``max(0.0, nan)`` is
    0.0."""
    done: dict[tuple, object] = {}
    for check in checks:
        for stage in check.stages:
            if stage not in done:
                function, *args = stage
                try:
                    done[stage] = function(*args)
                except BetheLabError as exc:
                    done[stage] = exc

    def run_one(check: Check) -> CheckRecord:
        start = time.perf_counter()
        results = [done[stage] for stage in check.stages]
        error = next((r for r in results if isinstance(r, BetheLabError)), None)
        residual = float("inf")
        if error is None:
            try:
                values = [float(v) for v in check.thunk(*results)]
                residual = (math.nan if any(map(math.isnan, values))
                            else max(values, default=0.0))
            except BetheLabError as exc:
                error = exc
        wall = time.perf_counter() - start
        return CheckRecord(
            check_id=check.check_id, anchor=check.anchor,
            inputs=inputs_digest(check.inputs), residual=residual,
            tolerance=check.tolerance, passed=residual <= check.tolerance,
            wall_time=wall,
            error="" if error is None else f"{type(error).__name__}: {error}")

    return [run_one(c) for c in checks]


def _chain_inputs(chain: ChainSpec) -> dict:
    return {
        "N": chain.N, "L": chain.L,
        "q": encode_complex(chain.ctx.q),
        "z": [encode_complex(v) for v in chain.z],
        "kappa": [encode_complex(v) for v in chain.kappa],
    }


# --- yang-baxter ---


def suite_yang_baxter(mat: Materialized) -> list[Check]:
    ctx = mat.ctx
    checks = []
    for N in (2, 3, 4):
        def ybe_thunk(N=N):
            rng = ctx.rng(f"ybe:{N}")
            for _ in range(34):
                qi = float(rng.uniform(1.2, 1.8))
                ci = DeformationContext(q=qi, seed=ctx.seed)
                u, v, w = sample_annulus(rng, 3)
                yield yang_baxter_residual(u, v, w, N, ci)

        checks.append(Check(
            check_id=f"yang-baxter/N{N}",
            anchor="R12 R13 R23 = R23 R13 R12",
            tolerance=1e-12, inputs={"N": N, "samples": 34},
            thunk=ybe_thunk))

    def point_degeneracy():
        rng = ctx.rng("r-equal-points")
        for N in (2, 3, 4):
            u = complex(sample_annulus(rng, 1)[0])
            R = r_matrix(u, u, N, ctx)
            yield float(np.max(np.abs(R - permutation_operator(N))))

    checks.append(Check(
        check_id="yang-baxter/permutation-point",
        anchor="R(u,u) = P",
        tolerance=1e-14, inputs={"q": encode_complex(ctx.q)},
        thunk=point_degeneracy))

    def classical_limit():
        rng = ctx.rng("r-classical")
        ci = DeformationContext(q=1.0 + 1e-8, seed=ctx.seed)
        for N in (2, 3, 4):
            u, v = sample_annulus(rng, 2)
            while abs(u - v) < 0.3:
                u, v = sample_annulus(rng, 2)
            R = r_matrix(u, v, N, ci)
            yield float(np.max(np.abs(R - np.eye(N * N))))

    checks.append(Check(
        check_id="yang-baxter/identity-limit",
        anchor="R -> 1 as q -> 1",
        tolerance=1e-6, inputs={"q": [1.0 + 1e-8, 0.0]},
        thunk=classical_limit))
    return checks


# --- rll ---


def suite_rll(mat: Materialized) -> list[Check]:
    checks = []
    for c, chain in enumerate(mat.chains):
        ctx = chain.ctx
        base = f"rll/chain{c}"
        inputs = _chain_inputs(chain)

        def rll_thunk(chain=chain, c=c):
            rng = chain.ctx.rng(f"rll:{c}")
            probes = chain.ctx.rng(f"rll-probe:{c}")
            for _ in range(5):
                u, v = sample_annulus(rng, 2)
                yield rll_residual(chain, u, v, probes)

        checks.append(Check(f"{base}/exchange",
                            "R (T x 1)(1 x T) = (1 x T)(T x 1) R",
                            1e-10, inputs, rll_thunk))

        def commut_thunk(chain=chain, c=c):
            rng = chain.ctx.rng(f"commut:{c}")
            probes = chain.ctx.rng(f"commut-probe:{c}")
            for _ in range(10):
                u, v = sample_annulus(rng, 2)
                yield transfer_commutator_residual(chain, u, v, probes)

        checks.append(Check(f"{base}/transfer-commute",
                            "[T(u), T(v)] = 0",
                            1e-10, inputs, commut_thunk))

        def vacuum_thunk(chain=chain, c=c):
            rng = chain.ctx.rng(f"vacuum:{c}")
            points = [complex(sample_annulus(rng, 1)[0]) for _ in range(20)]
            yield from np.transpose(list(vacuum_residuals(chain, points).values())).ravel()

        checks.append(Check(f"{base}/vacuum",
                            "T_{i>j} Omega = 0 and T_{ii} Omega = lambda_i Omega",
                            1e-12, inputs, vacuum_thunk))

        def zero_mode_thunk(chain=chain, c=c):
            yield from zero_mode_residuals(chain, chain.ctx.rng(f"zero-mode-probe:{c}"))

        checks.append(Check(f"{base}/zero-mode-triangular",
                            "L(inf) block upper / L(0) block lower triangular",
                            1e-14, inputs, zero_mode_thunk))
    return checks


# --- gauss ---


def suite_gauss(mat: Materialized) -> list[Check]:
    checks = []
    for c, chain in enumerate(mat.chains):
        inputs = _chain_inputs(chain)
        identities = tuple(kind for kind in CoordinateIdentity if kind.pairs(chain.N))
        stage = (_gauss_pass, chain, c, identities)
        specs = [("reconstruction", "L = (1 + F) . k . (1 + E)", 1e-10),
                 ("normal-order-transfer",
                  "trace T = sum_i ( k_i + sum_{j>i} F_{j,i} k_j E_{i,j} )", 1e-10),
                 *((kind.value, kind.anchor, 1e-9) for kind in identities)]
        for name, anchor, tolerance in specs:
            checks.append(Check(f"gauss/chain{c}/{name}", anchor, tolerance, inputs,
                                functools.partial(_replay, name), (stage,)))
    return checks


def _gauss_pass(chain: ChainSpec, c: int, identities: tuple[CoordinateIdentity, ...]
                ) -> dict[str, tuple[list[float], BetheLabError | None]]:
    """The stage of every gauss check of chain `c`: for each batch of the 5
    points drawn from `gauss-recon:{c}` that GAUSS_BATCH_BYTES holds, build
    the monodromy once, decompose it once, and evaluate the reconstruction,
    the normal-ordered transfer and every coordinate identity on that one
    `GaussData`, each identity at its `pairs`. Returns, per check name, its
    residuals in draw order and the error that stopped it (None if none): a
    zero-mode error stops only the identity checks. An error at a point
    propagates, and so fails every check of the chain."""
    residuals: dict[str, list[float]] = {
        name: [] for name in ("reconstruction", "normal-order-transfer",
                              *(kind.value for kind in identities))}
    errors: dict[str, BetheLabError] = {}
    zm = None
    if identities:
        try:
            zm = zero_mode_set(chain)
        except BetheLabError as exc:
            errors = dict.fromkeys((kind.value for kind in identities), exc)
    rng = chain.ctx.rng(f"gauss-recon:{c}")
    points = [complex(sample_annulus(rng, 1)[0]) for _ in range(5)]
    batch = max(1, GAUSS_BATCH_BYTES // grid_bytes(chain))
    for lo in range(0, len(points), batch):
        T = monodromy(chain, points[lo:lo + batch])
        data = gauss_decompose(T)
        # streamed one product entry at a time; T is dropped once read, since
        # `transfer` and the next batch build their own
        residuals["reconstruction"].extend(reconstruction_residual(data, T))
        del T
        residuals["normal-order-transfer"].extend(normal_order_transfer_residual(chain, data))
        if zm is not None:
            for kind in identities:
                values = [coordinate_identity_residual(kind, ij, data, zm)
                          for ij in kind.pairs(chain.N)]
                residuals[kind.value].extend(np.transpose(values).ravel())
        del data
    return {name: (values, errors.get(name)) for name, values in residuals.items()}


def _replay(name: str, gauss_pass: dict) -> Iterable[float]:
    """Check `name`'s residuals from its chain's Gauss pass, then the error
    that stopped it, if any."""
    values, error = gauss_pass[name]
    yield from values
    if error is not None:
        raise error


# --- identities (scalar + qsym) ---


def suite_identities(mat: Materialized) -> list[Check]:
    ctx = mat.ctx
    q = ctx.q
    checks = []
    tol = mat.tol_identity

    for k in range(1, 6):
        def overlap_thunk(k=k):
            rng = ctx.rng(f"overlap:{k}")
            for _ in range(25):
                upper, lower = _overlap_points(rng, k)
                a = nesting_overlap(upper, lower, ctx)
                b = nesting_overlap_alt(upper, lower, ctx)
                yield abs(a - b) / max(abs(a), abs(b))

        checks.append(Check(f"identities/overlap-two-forms/k{k}",
                            "both product forms of the nesting overlap agree",
                            tol, {"k": k, "q": encode_complex(q)}, overlap_thunk))

    for n in (2, 3, 4):
        def idem_thunk(n=n):
            vals = _draws(ctx.rng(f"idem:{n}"), n, 25)
            once = qsym_values(_sample_function, vals, q)
            twice = qsym_values(lambda *t: qsym_values(_sample_function, t, q), vals, q)
            yield from _relative(once, twice)

        checks.append(Check(f"identities/qsym-idempotent/n{n}",
                            "qsym . qsym = qsym",
                            tol, {"n": n}, idem_thunk))

    for n, s in ((2, 1), (3, 1), (3, 2), (4, 2)):
        def decomp_thunk(n=n, s=s):
            vals = _draws(ctx.rng(f"decomp:{n}:{s}"), n, 10)
            yield from _relative(*decomposition_sides(_sample_function, vals, q, s))

        checks.append(Check(f"identities/qsym-shuffle/n{n}s{s}",
                            "qsym equals its shuffle decomposition",
                            tol, {"n": n, "s": s}, decomp_thunk))

    for n in (2, 3, 4):
        def shift_thunk(n=n):
            vals = _draws(ctx.rng(f"shift:{n}"), n, 25)
            lhs = n * qsym_values(_sample_function, vals, q)
            fwd = _relative(lhs, shift_expansion_forward(_sample_function, vals, q))
            bwd = _relative(lhs, shift_expansion_backward(_sample_function, vals, q))
            yield from np.transpose([fwd, bwd]).ravel()

        checks.append(Check(f"identities/qsym-shift/n{n}",
                            "moving one variable to either end expands n · qsym",
                            tol, {"n": n}, shift_thunk))

        def cyc_thunk(n=n):
            vals = _draws(ctx.rng(f"cyclic:{n}"), n, 25)
            yield from _relative(*cyclic_identity_sides(_sample_function, vals, q))

        checks.append(Check(f"identities/qsym-cyclic/n{n}",
                            "weighting the first variable equals cyclic rotation",
                            tol, {"n": n}, cyc_thunk))

    for j in (3, 4, 5, 6):
        def pf_thunk(j=j):
            rng = ctx.rng(f"pf:{j}")
            for _ in range(25):
                pts = _separated(rng, j - 1)
                t = complex(sample_annulus(rng, 1)[0])
                yield partial_fraction_residual(j, t, pts)

        checks.append(Check(f"identities/partial-fraction/j{j}",
                            "telescoping partial-fraction identity",
                            1e-12, {"j": j}, pf_thunk))

    def homogeneity_thunk():
        rng = ctx.rng("homogeneity")
        for _ in range(10):
            params = BetheParameterSet((tuple(_separated(rng, 2)),
                                        tuple(_separated(rng, 2))))
            t = complex(sample_annulus(rng, 1)[0])
            c = complex(sample_annulus(rng, 1)[0])
            lambdas = [lambda tt: 1.3 + 0j, lambda tt: 0.7 + 0.1j, lambda tt: 1.9 + 0j]
            pairs = [
                (transfer_eigenvalue(lambdas, params, t, ctx),
                 transfer_eigenvalue(lambdas, params.scaled(c), c * t, ctx)),
                (same_type_weight(params, ctx),
                 same_type_weight(params.scaled(c), ctx)),
                (string_overlap(params, ctx),
                 string_overlap(params.scaled(c), ctx)),
                (split_weight(params, (1, 1), ctx),
                 split_weight(params.scaled(c), (1, 1), ctx)),
                (top_split_weight(1, params, ctx),
                 top_split_weight(1, params.scaled(c), ctx)),
                (shift_weight(0, 3, params, ctx),
                 shift_weight(0, 3, params.scaled(c), ctx)),
            ]
            for a, b in pairs:
                yield abs(a - b) / max(abs(a), abs(b), 1e-300)

    checks.append(Check("identities/kernel-homogeneity",
                        "kernels are degree-0 under simultaneous scaling",
                        tol, {"q": encode_complex(q)}, homogeneity_thunk))
    return checks


def _overlap_points(rng, k: int) -> tuple[list, list]:
    """Separated (upper, lower) k-tuples with every |u - l| > POLE_MARGIN *
    max(|u|, |l|), clear of the coupling pole u = l of both overlap forms.
    Draws that are not rejected are the plain `_separated` draws."""
    for _ in range(100):
        upper, lower = _separated(rng, k), _separated(rng, k)
        if all(abs(u - l) > POLE_MARGIN * max(abs(u), abs(l))
               for u in upper for l in lower):
            return upper, lower
    raise SamplingExhaustedError("could not sample overlap points clear of the coupling pole")


def _sample_function(*t: complex) -> complex:
    # not in place: the arguments may be arrays of different shapes
    out = t[0] ** 2
    for i, v in enumerate(t[1:], start=2):
        out = out + v ** i / t[0] + 0.37 * v
    return out / t[-1]


def _draws(rng, n: int, count: int) -> np.ndarray:
    """`count` draws of `_separated(rng, n)`, slot k of draw m at [k, m]."""
    return np.array([_separated(rng, n) for _ in range(count)], dtype=complex).T


def _relative(a, b) -> list[float]:
    """|a - b| / max(|a|, 1e-300) per draw."""
    return (abs(a - b) / np.maximum(abs(a), 1e-300)).tolist()


def _separated(rng, n: int) -> list[complex]:
    """n annulus points whose pairwise relative distances exceed 0.05."""
    vals: list[complex] = []
    for _ in range(100 * max(n, 1)):
        if len(vals) == n:
            break
        cand = complex(sample_annulus(rng, 1)[0])
        if all(abs(cand - v) / max(abs(cand), abs(v)) > 0.05 for v in vals):
            vals.append(cand)
    if len(vals) < n:
        raise SamplingExhaustedError(f"could not sample {n} separated points")
    return vals


# --- solve / verify / spectrum / offshell ---


def suite_solve(mat: Materialized) -> list[Check]:
    checks = []
    for c, chain in enumerate(mat.chains):
        for nbar in mat.sectors:
            inputs = {**_chain_inputs(chain), "sector": list(nbar)}
            sector_id = "-".join(map(str, nbar))
            sector = ((solve_bethe, chain, nbar),)

            def solve_thunk(result, chain=chain, nbar=nbar):
                yield from backward_errors(chain, nbar, [sol.params for sol in result])

            checks.append(Check(f"solve/chain{c}/sector{sector_id}",
                                "every returned root set solves the Bethe equations (backward error)",
                                SOLVE_TOL, inputs, solve_thunk, sector))

            def complete_thunk(result, chain=chain, nbar=nbar):
                yield float(abs(sector_multiplicity(chain.L, nbar) - len(result)))

            checks.append(Check(f"solve/chain{c}/sector{sector_id}/complete",
                                "one root set per state of the sector's weight block",
                                0.5, inputs, complete_thunk, sector))
    return checks


def suite_verify(mat: Materialized) -> list[Check]:
    checks = []
    for c, chain in enumerate(mat.chains):
        for nbar in mat.sectors:
            inputs = {**_chain_inputs(chain), "sector": list(nbar)}
            sector_id = "-".join(map(str, nbar))
            sector = ((solve_bethe, chain, nbar),)

            def onshell_thunk(result, chain=chain, nbar=nbar, c=c):
                rng = chain.ctx.rng(f"verify:{c}:{nbar}")
                for sol in _root_sets(result, nbar):
                    points = (_sample_clear_of_roots(rng, sol.params) for _ in range(20))
                    try:
                        pairs = on_shell_residuals(chain, sol.params, points)
                    except DegenerateVectorError:
                        # a vanishing vector is no eigenvector
                        yield float("inf")
                        continue
                    yield from (resid for resid, _ in pairs)

            checks.append(Check(f"verify/chain{c}/sector{sector_id}/on-shell",
                                "T(t) w = tau(t) w at solver roots",
                                1e-8, inputs, onshell_thunk, sector))

            def tau_match_thunk(result, chain=chain, nbar=nbar, c=c):
                result = _root_sets(result, nbar)
                _, lambdas = vacuum_data(chain)
                rng = chain.ctx.rng(f"verify-tau:{c}:{nbar}")
                t = _sample_clear_of_roots(rng, *(sol.params for sol in result))
                block = transfer(chain, t).blocks[expected_occupancy(chain.L, nbar)]
                eigs = np.linalg.eigvals(block)
                for sol in result:
                    tau = transfer_eigenvalue(lambdas, sol.params, t, chain.ctx)
                    yield float(np.min(np.abs(eigs - tau)
                                       / np.maximum(np.abs(eigs), 1e-300)))

            checks.append(Check(f"verify/chain{c}/sector{sector_id}/tau-in-spectrum",
                                "tau(t) matches a weight-block transfer eigenvalue",
                                1e-8, inputs, tau_match_thunk, sector))

            def residue_thunk(result, chain=chain, nbar=nbar):
                _, lambdas = vacuum_data(chain)
                for sol in _root_sets(result, nbar):
                    resid, scale = transfer_eigenvalue_residues(lambdas, sol.params, chain.ctx)
                    yield from (np.abs(resid) / np.maximum(scale, 1e-300)).tolist()

            checks.append(Check(f"verify/chain{c}/sector{sector_id}/residue",
                                "eigenvalue residue at each root vanishes on shell",
                                1e-8, inputs, residue_thunk, sector))
    return checks


def _root_sets(result, nbar: tuple[int, ...]):
    """The root sets of a sector's solve. A solve that returned none leaves
    nothing to verify, so it raises, and fails the check that reads it."""
    if not len(result):
        raise BetheLabError(f"the solve of sector {nbar} returned no root set")
    return result


def _sample_clear_of_roots(rng, *sets: BetheParameterSet) -> complex:
    """Annulus point t with |t - u| > POLE_MARGIN max(|t|, |u|) for every root
    u of `sets`, where tau(t) has its poles. Draws that are not rejected are
    the plain annulus draws."""
    roots = [u for params in sets for group in params.values for u in group]
    for _ in range(100):
        t = complex(sample_annulus(rng, 1)[0])
        if all(abs(t - u) > POLE_MARGIN * max(abs(t), abs(u)) for u in roots):
            return t
    raise SamplingExhaustedError("could not sample clear of the Bethe roots")


def suite_spectrum(mat: Materialized) -> list[Check]:
    checks = []
    for c, chain in enumerate(mat.chains):
        inputs = _chain_inputs(chain)
        nbars = tuple(admissible_sectors(chain))

        def spectrum_thunk(*results, chain=chain, c=c, nbars=nbars):
            sols = {nbar: result.solutions for nbar, result in zip(nbars, results)}
            rng = chain.ctx.rng(f"spectrum:{c}")
            t = _sample_clear_of_roots(rng, *(sol.params for result in results for sol in result))
            rep = spectrum_reconcile(chain, sols, t)
            missing = rep.total_states - rep.matched
            yield float(missing + rep.duplicates)

        checks.append(Check(f"spectrum/chain{c}",
                            "every weight-block eigenvalue matched exactly once",
                            0.5, inputs, spectrum_thunk,
                            tuple((solve_bethe, chain, nbar) for nbar in nbars)))
    return checks


def suite_offshell(mat: Materialized) -> list[Check]:
    if any(chain.N != 2 for chain in mat.chains):
        raise ConfigError("offshell suite requires N = 2")
    checks = []
    for c, chain in enumerate(mat.chains):
        inputs = _chain_inputs(chain)
        sizes = tuple(n for n in range(1, min(chain.L, UNWANTED_CAP) + 1)
                      if sector_multiplicity(chain.L, (n,)) >= n)
        if not sizes:
            raise ConfigError("offshell suite needs a chain with L >= 1")

        checks.append(Check(
            f"offshell/chain{c}/span",
            "unwanted remainder lies in the candidate span", 1e-8, inputs,
            _offshell_thunk(chain, f"offshell-span:{c}", sizes,
                            lambda rep: [rep.fit_residual])))

        checks.append(Check(
            f"offshell/chain{c}/closed-form",
            "unwanted coefficients match the closed form", 1e-8, inputs,
            _offshell_thunk(chain, f"offshell-closed:{c}", sizes,
                            lambda rep: [abs(got - want) / max(abs(want), 1e-300)
                                         for got, want in zip(rep.coefficients,
                                                              rep.closed_form)])))

        def vanishing_thunk(*results, chain=chain, c=c, sizes=sizes):
            rng = chain.ctx.rng(f"offshell-vanish:{c}")
            for n, result in zip(sizes, results):
                for sol in _root_sets(result, (n,)):
                    t = _sample_clear_of_roots(rng, sol.params)
                    rep = unwanted_decomposition(chain, sol.params, t)
                    yield from (abs(cm) / scale
                                for cm, scale in zip(rep.coefficients, rep.scales))

        checks.append(Check(f"offshell/chain{c}/on-shell-vanishing",
                            "unwanted coefficients vanish at solver roots",
                            1e-8, inputs, vanishing_thunk,
                            tuple((solve_bethe, chain, (n,)) for n in sizes)))
    return checks


def _offshell_thunk(chain: ChainSpec, stream: str, sizes: tuple[int, ...],
                    metric: Callable) -> Callable[[], Iterable[float]]:
    """Thunk yielding the `metric` values of unwanted-term decompositions at
    random off-shell roots, one root count per entry of `sizes`, drawn from
    `stream`."""
    def thunk():
        rng = chain.ctx.rng(stream)
        for n in sizes:
            params = BetheParameterSet((tuple(_separated(rng, n)),))
            t = _sample_clear_of_roots(rng, params)
            yield from metric(unwanted_decomposition(chain, params, t))
    return thunk


SUITE_BUILDERS = {
    "yang-baxter": suite_yang_baxter,
    "rll": suite_rll,
    "gauss": suite_gauss,
    "identities": suite_identities,
    "solve": suite_solve,
    "verify": suite_verify,
    "offshell": suite_offshell,
    "spectrum": suite_spectrum,
}


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethelab",
        description="Verification suites for the nested Bethe ansatz laboratory")
    parser.add_argument("command", choices=list(SUITES) + ["all"],
                        help="suite to run")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the identity tolerance (tol_identity)")
    parser.add_argument("--sector", help="semicolon list of sectors, e.g. '1,0;1,1'")
    parser.add_argument("--chains", type=int, default=None,
                        help="number of random chain replicas")
    return parser


def run_command(argv: list[str]) -> tuple[int, Report | None]:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), None
    try:
        cfg = build_config(args)
        mat = materialize(cfg)
        suite_names = cfg.suites if args.command == "all" else (args.command,)
        checks: list[Check] = []
        for name in suite_names:
            checks.extend(SUITE_BUILDERS[name](mat))
        if cfg.out:  # an unwritable report path fails before any check runs
            open(cfg.out, "a", encoding="utf-8").close()
    except (ConfigError, CapacityError, DomainError, SamplingExhaustedError,
            OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2, None

    records = _run_checks(checks, 1)

    report = Report(
        command=args.command, seed=cfg.seed, version=__version__,
        config=cfg.raw,
        materialized={
            "q": encode_complex(mat.ctx.q),
            "tol_identity": mat.tol_identity,
            "chains": [_chain_inputs(ch) for ch in mat.chains],
            "sectors": [list(s) for s in mat.sectors],
        },
        checks=records,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )

    _print_table(report)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    summary = report.summary()
    return (0 if summary["status"] == "pass" else 1), report


def _print_table(report: Report) -> None:
    rows = sorted(report.checks, key=lambda c: c.check_id)
    width = max((len(r.check_id) for r in rows), default=10) + 2
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.check_id:<{width}} {r.residual:>12.3e}  (tol {r.tolerance:.0e})  {status}"
        if r.error:
            line += f"  [{r.error}]"
        print(line)
    s = report.summary()
    print(f"{s['passed']}/{s['total']} checks passed -> {s['status'].upper()}")


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
