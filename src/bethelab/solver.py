"""Multi-start damped Newton solver for the Bethe equations and the
reconciliation of the resulting spectrum with the transfer matrix's weight
blocks.

The equations are solved in multiplicative form (eigenvalue ratio minus the
triple product) as a holomorphic map on C^M; the Jacobian is a one-sided
complex difference. Restart points are drawn from the sampling annulus scaled
to the inhomogeneities, so runs are deterministic given (chain, sector, seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context import BetheParameterSet, sample_annulus
from .errors import CapacityError, DomainError
from .kernels import bethe_residual, transfer_eigenvalue
from .repcore import ChainSpec, transfer, vacuum_data
from .vectors import expected_occupancy, is_admissible

EXCITATION_CAP = 8


@dataclass(frozen=True)
class SolverOptions:
    tol_root: float = 1e-12
    max_newton_iters: int = 100
    n_restarts: int = 200
    dedup_tol: float = 1e-8
    min_separation: float = 1e-6
    min_inhom_distance: float = 1e-6
    min_abs: float = 1e-8

    def __post_init__(self):
        for name in ("tol_root", "max_newton_iters", "n_restarts", "dedup_tol",
                     "min_separation", "min_inhom_distance", "min_abs"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


@dataclass(frozen=True)
class BetheSolution:
    params: BetheParameterSet
    residuals: tuple[float, ...]
    jacobian_condition: float
    multiplicity_key: tuple[tuple[tuple[float, float], ...], ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


@dataclass
class SolveResult:
    solutions: list[BetheSolution]
    attempts: int = 0
    converged: int = 0
    inadmissible: int = 0

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


def _canonical_key(values: list[list[complex]], digits: int = 8):
    return tuple(
        tuple(sorted((round(v.real, digits), round(v.imag, digits)) for v in grp))
        for grp in values
    )


def _same_solution(a: list[list[complex]], b: list[list[complex]], tol: float) -> bool:
    for ga, gb in zip(a, b):
        if len(ga) != len(gb):
            return False
        unused = list(gb)
        for v in ga:
            best = None
            for idx, u in enumerate(unused):
                d = abs(v - u) / max(abs(v), abs(u), 1e-300)
                if best is None or d < best[1]:
                    best = (idx, d)
            if best is None or best[1] > tol:
                return False
            unused.pop(best[0])
    return True


def solve_bethe(chain: ChainSpec, nbar, opts: SolverOptions | None = None) -> SolveResult:
    """All distinct admissible root sets the multi-start Newton iteration finds
    in the sector nbar; deterministic for fixed (chain, nbar, seed)."""
    opts = opts or SolverOptions()
    nbar = tuple(int(n) for n in nbar)
    if len(nbar) != chain.N - 1:
        raise DomainError(f"sector needs {chain.N - 1} entries, got {len(nbar)}")
    if not is_admissible(chain, nbar):
        raise DomainError(f"inadmissible sector {nbar} for L={chain.L}")
    M = sum(nbar)
    if M > EXCITATION_CAP:
        raise CapacityError(f"sector size {M} exceeds cap {EXCITATION_CAP}")
    if M == 0:
        empty = BetheParameterSet(tuple(() for _ in nbar))
        sol = BetheSolution(empty, (), 1.0, _canonical_key([[] for _ in nbar]))
        return SolveResult([sol], attempts=0, converged=1)

    _, lambdas = vacuum_data(chain)
    eqs = [(i, j) for i in range(1, chain.N) for j in range(1, nbar[i - 1] + 1)]

    def unpack(x: np.ndarray) -> list[list[complex]]:
        out, p = [], 0
        for na in nbar:
            out.append([complex(v) for v in x[p:p + na]])
            p += na
        return out

    def residual_map(x: np.ndarray) -> np.ndarray:
        groups = unpack(x)
        params = BetheParameterSet(tuple(tuple(g) for g in groups))
        return np.array([bethe_residual(i, j, params, lambdas, chain.ctx)
                         for (i, j) in eqs])

    scale = float(np.mean(np.abs(chain.z))) if chain.L else 1.0
    rng = chain.ctx.rng(f"solve_bethe:{nbar}")
    result = SolveResult([], attempts=0, converged=0)
    kept: list[tuple[list[list[complex]], BetheSolution]] = []
    # the weight block holds at most multinomial(L; occupancies) distinct
    # eigenvalues, so the sector cannot carry more root sets than that
    cap = sector_multiplicity(chain.L, nbar)
    # cycle through several radial windows; root configurations of twisted
    # chains are not confined to the unit annulus around the site scale
    windows = ((0.5, 2.0), (0.15, 1.0), (1.0, 5.0), (0.05, 3.0))

    for attempt in range(opts.n_restarts):
        if len(kept) >= cap:
            break
        result.attempts += 1
        lo, hi = windows[attempt % len(windows)]
        x0 = sample_annulus(rng, M, lo, hi) * scale
        out = _newton(residual_map, x0, opts)
        if out is None:
            continue
        x, res_mags, cond = out
        result.converged += 1
        groups = unpack(x)
        if not _is_admissible_point(groups, chain, opts):
            result.inadmissible += 1
            continue
        if any(_same_solution(groups, g, opts.dedup_tol) for g, _ in kept):
            continue
        params = BetheParameterSet(tuple(tuple(g) for g in groups))
        sol = BetheSolution(params, tuple(res_mags), cond, _canonical_key(groups))
        kept.append((groups, sol))

    result.solutions = sorted((s for _, s in kept), key=lambda s: s.multiplicity_key)
    return result


def sector_multiplicity(L: int, nbar) -> int:
    """Dimension of the weight block selected by the sector shape."""
    from math import factorial
    occ = expected_occupancy(L, tuple(nbar))
    out = factorial(L)
    for c in occ:
        out //= factorial(c)
    return out


def _is_admissible_point(groups: list[list[complex]], chain: ChainSpec,
                         opts: SolverOptions) -> bool:
    for grp in groups:
        for i, v in enumerate(grp):
            if abs(v) < opts.min_abs:
                return False
            for u in grp[i + 1:]:
                if abs(v - u) / max(abs(v), abs(u)) < opts.min_separation:
                    return False
            for zl in chain.z:
                if abs(v - zl) / max(abs(v), abs(zl)) < opts.min_inhom_distance:
                    return False
    return True


def _newton(residual_map, x0: np.ndarray, opts: SolverOptions):
    x = np.array(x0, dtype=complex)
    M = len(x)
    cond = np.inf
    for _ in range(opts.max_newton_iters):
        try:
            r = residual_map(x)
        except Exception:
            return None
        norm = float(np.max(np.abs(r)))
        if norm < opts.tol_root:
            return x, tuple(float(abs(v)) for v in r), cond
        J = np.empty((M, M), dtype=complex)
        try:
            for k in range(M):
                h = 1e-7 * max(1.0, abs(x[k]))
                xp = x.copy()
                xp[k] += h
                J[:, k] = (residual_map(xp) - r) / h
        except Exception:
            return None
        try:
            cond = float(np.linalg.cond(J))
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        alpha = 1.0
        accepted = False
        while alpha > 1e-5:
            xn = x + alpha * step
            try:
                if np.max(np.abs(residual_map(xn))) < norm:
                    accepted = True
                    break
            except Exception:
                pass
            alpha *= 0.5
        if not accepted:
            return None
        x = xn
    try:
        r = residual_map(x)
    except Exception:
        return None
    if np.max(np.abs(r)) < opts.tol_root:
        return x, tuple(float(abs(v)) for v in r), cond
    return None


def admissible_sectors(chain: ChainSpec, cap: int = EXCITATION_CAP):
    """All sector shapes L >= n_1 >= ... >= n_{N-1} with at most `cap` roots."""
    def rec(prefix, remaining, bound):
        if remaining == 0:
            yield tuple(prefix)
            return
        for n in range(min(bound, cap - sum(prefix)), -1, -1):
            yield from rec(prefix + [n], remaining - 1, n)

    yield from rec([], chain.N - 1, chain.L)


@dataclass
class ReconcileReport:
    t_probe: complex
    matched: int
    total_states: int
    bethe_count: int
    duplicates: int
    unmatched_eigenvalues: list[complex] = field(default_factory=list)
    ambiguous: bool = False

    @property
    def complete(self) -> bool:
        return (self.matched == self.total_states == self.bethe_count
                and self.duplicates == 0)


def spectrum_reconcile(chain: ChainSpec, solutions_by_sector: dict,
                       t_probe: complex, match_tol: float = 1e-8) -> ReconcileReport:
    """Match every Bethe eigenvalue candidate against the transfer spectrum,
    one weight block at a time.

    T(t) keeps weight, so sector nbar's eigenvalues are those of its own
    block, weight `expected_occupancy(L, nbar)`. Each candidate claims the
    nearest unclaimed eigenvalue of that block within match_tol (relative),
    sectors taken in sorted order; the report counts matches and duplicates
    over all blocks and flags ambiguity when some block has a near-degenerate
    pair at the tolerance.
    """
    blocks = transfer(chain, t_probe).blocks
    _, lambdas = vacuum_data(chain)
    eigs = {nu: np.linalg.eigvals(M) for nu, M in blocks.items()}
    ambiguous = any(_min_relative_gap(e) < match_tol for e in eigs.values())

    claimed: dict[tuple[int, ...], set[int]] = {nu: set() for nu in eigs}
    duplicates = 0
    matched = 0
    bethe_count = 0
    for nbar, sols in sorted(solutions_by_sector.items()):
        nu = expected_occupancy(chain.L, tuple(nbar))
        if nu not in eigs:
            raise DomainError(f"sector {nbar} has no weight block at L={chain.L}")
        for sol in sols:
            bethe_count += 1
            tau = transfer_eigenvalue(lambdas, sol.params, t_probe, chain.ctx)
            rel = np.abs(eigs[nu] - tau) / np.maximum(np.abs(eigs[nu]), 1e-300)
            hit = None
            for idx in np.argsort(rel):
                if rel[idx] > match_tol:
                    break
                if idx in claimed[nu]:
                    duplicates += 1
                    continue
                hit = int(idx)
                break
            if hit is not None:
                claimed[nu].add(hit)
                matched += 1
    unmatched = [complex(e[i]) for nu, e in eigs.items()
                 for i in range(len(e)) if i not in claimed[nu]]
    return ReconcileReport(
        t_probe=t_probe, matched=matched, total_states=chain.dim,
        bethe_count=bethe_count, duplicates=duplicates,
        unmatched_eigenvalues=unmatched, ambiguous=ambiguous)


def _min_relative_gap(eigs: np.ndarray) -> float:
    """Smallest |e_i - e_k| / max(|e_i|, |e_k|) over pairs of `eigs`; inf
    for fewer than two."""
    i, k = np.triu_indices(len(eigs), 1)
    if len(i) == 0:
        return np.inf
    scale = np.maximum(np.maximum(np.abs(eigs[i]), np.abs(eigs[k])), 1e-300)
    return float(np.min(np.abs(eigs[i] - eigs[k]) / scale))
