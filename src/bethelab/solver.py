"""Bethe-equation solver by separation of variables, and the reconciliation
of the resulting spectrum with the transfer matrix's weight blocks.

For a type-a root t let P be the type-(a-1) roots (the sites z when a = 1),
S the other type-a roots and X the type-(a+1) roots. With its denominators
cleared, Bethe equation (a, t) reads A - eps_a B = 0 with

    A = prod_P (q t - p/q) prod_S (t/q - q u) prod_X (t - x)
    B = prod_P (t - p)     prod_S (q t - u/q) prod_X (t/q - q x)

and eps_a = kappa_{a+1}/kappa_a, the only form of the Bethe equations here.

Separation of variables (Sklyanin; Gromov, Levkovich-Maslyuk & Sizov 2017)
gives one candidate per state of the weight block T_nu of sector nbar, nu =
`expected_occupancy(L, nbar)`. As lambda_k(z_l) = 0 for k >= 2, its
eigenvalue has tau(z_l) Q_1(z_l) = q^{n_1} lambda_1(z_l) Q_1(z_l/q^2), Q_a(t)
= prod_j (t - t^a_j), at the L sites: linear in Q_1. The type-a equations
are linear in Q_{a+1}, as prod_X (t/q - q x) = q^{n_{a+1}} Q_{a+1}(t/q^2).
tau(z_l) is the diagonal of V^-1 T_nu(z_l) V, V the eigenvectors of T_nu at
a point t_0 drawn from the `solve_bethe:{nbar}` stream.

A candidate gets POLISH_STEPS Newton steps and is accepted when the backward
error |A - eps_a B| / (|A| + |eps_a B|) of every equation at the roots it
returns is below TOL_ROOT; it has no pole at a near-string t_j ~ q^2 t_k. A
candidate that is NaN, rejected or a root set already kept is a reported
shortfall, never filled in. All is deterministic given (chain, sector, seed).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .context import BetheParameterSet, sample_annulus
from .errors import DomainError
from .kernels import transfer_eigenvalue
from .repcore import ChainSpec, batch_points, transfer, vacuum_data
from .vectors import expected_occupancy, is_admissible

MATCH_TOL = 1e-8

POLISH_STEPS = 2         # Newton steps on the cleared equations at each candidate
COINCIDE_TOL = 1e-8      # relative distance of two equal root sets

# acceptance of a candidate: largest backward error of its equations
TOL_ROOT = 1e-12
# admissibility margins of an accepted root set
MIN_ABS = 1e-8               # smallest |t|
MIN_INHOM_DISTANCE = 1e-6    # relative distance of a root from every site
MIN_SEPARATION = 1e-6        # relative distance of two roots of one type


@dataclass(frozen=True)
class BetheSolution:
    params: BetheParameterSet
    multiplicity_key: tuple[tuple[tuple[float, float], ...], ...]


@dataclass
class SolveResult:
    """Root sets of one sector. `attempts` counts candidates, one per state
    of the weight block, `converged` those whose polished backward error is
    below TOL_ROOT, and `inadmissible` those of them that fail the margins."""
    solutions: list[BetheSolution]
    attempts: int = 0
    converged: int = 0
    inadmissible: int = 0

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


def _canonical_key(values: list[list[complex]]):
    return tuple(
        tuple(sorted((round(v.real, 8), round(v.imag, 8)) for v in grp))
        for grp in values
    )


class _ClearedEquations:
    """The cleared equations of one sector as factor tables.

    Row k of every table belongs to root k (types in order); column f is one
    linear factor, `ta t_k + wa w` of A and `tb t_k + wb w` of B, where w is
    entry `partner[k, f]` of the point extended by the sites and a constant
    1; `upper` marks X's factors. Rows are padded with the constant factor 1.
    """

    def __init__(self, chain: ChainSpec, nbar: tuple[int, ...], sites: np.ndarray):
        q = chain.ctx.q
        M, L = sum(nbar), chain.L
        ends = np.cumsum((0,) + nbar)
        rows, eps = [], []
        for a in range(1, len(nbar) + 1):
            lower = range(M, M + L) if a == 1 else range(ends[a - 2], ends[a - 1])
            upper = range(ends[a], ends[a + 1]) if a < len(nbar) else ()
            for k in range(ends[a - 1], ends[a]):
                same = [u for u in range(ends[a - 1], ends[a]) if u != k]
                # (partner, A's t and w coefficients, B's)
                rows.append([(p, q, -1 / q, 1, -1) for p in lower]
                            + [(u, 1 / q, -q, q, -1 / q) for u in same]
                            + [(x, 1, -1, 1 / q, -q) for x in upper])
                eps.append(chain.kappa[a] / chain.kappa[a - 1])
        width = max(len(r) for r in rows)
        pad = (M + L, 0, 1, 0, 1)
        table = [r + [pad] * (width - len(r)) for r in rows]
        self.partner = np.array([[f[0] for f in r] for r in table])
        self.ta, self.wa, self.tb, self.wb = (
            np.array([[complex(f[c]) for f in r] for r in table]) for c in range(1, 5))
        self.upper = (self.partner >= np.repeat(ends[1:], nbar)[:, None]) & (self.partner < M)
        self.select = (self.partner[:, :, None] == np.arange(M)).astype(float)
        self.eps = np.array(eps)
        self.sites = sites
        self.tail = np.append(sites, 1.0)

    def evaluate(self, x: np.ndarray):
        """H = A - eps B and dH/dx at the points x (P, M)."""
        fa, fb = self.factors(x)
        ea, eb = _excluded_products(fa), _excluded_products(fb)
        A, B = ea[..., 0] * fa[..., 0], eb[..., 0] * fb[..., 0]
        eps = self.eps[:, None]
        J = np.einsum("pkf,kfj->pkj", self.wa * ea - eps * self.wb * eb, self.select)
        diag = np.arange(x.shape[1])
        J[:, diag, diag] += np.sum(self.ta * ea - eps * self.tb * eb, axis=-1)
        return A - self.eps * B, J

    def factors(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The factors of A and of B at the points x (P, M), (P, M, F) each."""
        ext = np.empty((len(x), self.tail.size + x.shape[1]), dtype=complex)
        ext[:, :x.shape[1]], ext[:, x.shape[1]:] = x, self.tail
        w, t = ext[:, self.partner], x[:, :, None]
        return self.ta * t + self.wa * w, self.tb * t + self.wb * w

    def backward_error(self, x: np.ndarray) -> np.ndarray:
        """|A - eps B| / (|A| + |eps B|) of every equation at the points x
        (P, M), (P, M); NaN rows stay NaN."""
        fa, fb = self.factors(x)
        A, B = np.prod(fa, axis=-1), self.eps * np.prod(fb, axis=-1)
        return np.abs(A - B) / (np.abs(A) + np.abs(B))


def _excluded_products(f: np.ndarray) -> np.ndarray:
    """out[..., g] = product of f[..., h] over h != g, without dividing."""
    ones = np.ones(f.shape[:-1] + (1,), dtype=complex)
    left = np.cumprod(np.concatenate([ones, f[..., :-1]], axis=-1), axis=-1)
    right = np.cumprod(np.concatenate([ones, f[..., :0:-1]], axis=-1), axis=-1)
    return left * right[..., ::-1]


def _solve(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched J^-1 b, with NaN rows where J is singular."""
    try:
        return np.linalg.solve(J, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # an exactly zero LU pivot, which makes solve raise, has sign 0
        singular = np.linalg.slogdet(J)[0] == 0
        out = np.linalg.solve(np.where(singular[:, None, None], np.eye(b.shape[-1]), J),
                              b[..., None])[..., 0]
        out[singular] = np.nan
        return out


def _site_eigenvalues(chain: ChainSpec, nbar: tuple[int, ...], t0: complex) -> np.ndarray:
    """tau(z_l) of every state of sector nbar's weight block nu, (states, L),
    from `batch_points` points at a time; DomainError if a block is not finite."""
    nu = expected_occupancy(chain.L, nbar)
    points, batch = [t0, *chain.z], batch_points(chain)
    tau = []
    for lo in range(0, len(points), batch):
        blocks = transfer(chain, points[lo:lo + batch]).blocks[nu]
        if not np.all(np.isfinite(blocks)):
            raise DomainError(f"the transfer matrix's weight block {nu} is not finite")
        if not lo:
            V, blocks = np.linalg.eig(blocks[0])[1], blocks[1:]
        # a copy, since a diagonal view would keep the whole solve alive
        tau.extend(np.linalg.solve(V, blocks @ V).diagonal(axis1=1, axis2=2).copy())
    return np.transpose(tau)


def _fit(t: np.ndarray, alpha: np.ndarray, beta: np.ndarray, n: int, q: complex) -> np.ndarray:
    """The roots (rows, n) of each row's degree-n Q: the smallest right
    singular vector of alpha Q(t) = q^n beta Q(t/q^2) at the row's points t,
    each equation over the size of its sides (its own norm would blow up
    sides that cancel to rounding); NaN if not finite or short of n roots."""
    powers = np.arange(n + 1)
    lhs = alpha[..., None] * t[..., None] ** powers
    rhs = q ** n * beta[..., None] * (t[..., None] / q ** 2) ** powers
    scale = np.max(np.abs(lhs), axis=-1) + np.max(np.abs(rhs), axis=-1)
    G = (lhs - rhs) / np.where(scale > 0, scale, 1)[..., None]
    finite = np.all(np.isfinite(G), axis=(1, 2))
    coefficients = np.linalg.svd(np.where(finite[:, None, None], G, 0))[2][:, -1].conj()
    out = np.full((len(t), n), np.nan, dtype=complex)
    for k in np.flatnonzero(finite):
        roots = np.roots(coefficients[k, ::-1])
        if len(roots) == n:
            out[k] = roots
    return out


def solve_bethe(chain: ChainSpec, nbar, opts=None) -> SolveResult:
    """The admissible root sets of sector nbar among its candidates, one per
    state of its weight block: at most `sector_multiplicity`, fewer when a
    candidate falls short, is rejected or repeats a root set already kept.
    `opts` is ignored: it is kept only for the benchmark's wrapper, which
    passes it positionally."""
    nbar = tuple(int(n) for n in nbar)
    if len(nbar) != chain.N - 1:
        raise DomainError(f"sector needs {chain.N - 1} entries, got {len(nbar)}")
    if not is_admissible(chain, nbar):
        raise DomainError(f"inadmissible sector {nbar} for L={chain.L}")
    M = sum(nbar)
    if M == 0:
        empty = BetheParameterSet(tuple(() for _ in nbar))
        sol = BetheSolution(empty, _canonical_key([[] for _ in nbar]))
        return SolveResult([sol], attempts=0, converged=1)

    eqs, scale = _unit_equations(chain, nbar)
    cuts = np.cumsum(nbar)[:-1]
    # arithmetic on NaN candidates and on roots at 0 is expected
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x = _candidates(chain, nbar, eqs)
        # the roots as returned, measured as `backward_errors` measures them
        roots = x * scale
        err = eqs.backward_error(roots / scale)
        admissible = _admissible(roots, cuts, chain)
    good = np.all(err < TOL_ROOT, axis=1)
    result = SolveResult([], attempts=len(x), converged=int(np.sum(good)),
                         inadmissible=int(np.sum(good & ~admissible)))
    kept = np.empty((0, M), dtype=complex)
    for p in np.flatnonzero(good & admissible):
        if np.any(_coincident(kept, x[p], cuts)):
            continue
        kept = np.vstack([kept, x[p]])
        groups = [[complex(v) for v in g] for g in np.split(roots[p], cuts)]
        result.solutions.append(BetheSolution(
            BetheParameterSet(tuple(map(tuple, groups))), _canonical_key(groups)))
    result.solutions.sort(key=lambda s: s.multiplicity_key)
    return result


def _candidates(chain: ChainSpec, nbar: tuple[int, ...], eqs: _ClearedEquations) -> np.ndarray:
    """One candidate root set per state of sector nbar's weight block, at the
    unit scale of `eqs`, after POLISH_STEPS Newton steps; (states, M)."""
    unit = ChainSpec(chain.N, chain.L, eqs.sites, chain.kappa, chain.ctx)
    t0 = complex(sample_annulus(chain.ctx.rng(f"solve_bethe:{nbar}"), 1)[0])
    tau = _site_eigenvalues(unit, nbar, t0)
    q, ends, z = chain.ctx.q, np.cumsum((0,) + nbar), np.broadcast_to(eqs.sites, tau.shape)
    x = np.full((len(tau), ends[-1]), np.nan, dtype=complex)
    x[:, :nbar[0]] = _fit(z, tau, vacuum_data(unit)[1][0](z), nbar[0], q)
    for a in range(1, len(nbar)):
        rows = slice(ends[a - 1], ends[a])
        fa, fb = eqs.factors(x)
        known = ~eqs.upper[rows]
        alpha = np.prod(fa[:, rows], axis=-1, where=known)
        beta = eqs.eps[rows] * np.prod(fb[:, rows], axis=-1, where=known)
        x[:, ends[a]:ends[a + 1]] = _fit(x[:, rows], alpha, beta, nbar[a], q)
    for _ in range(POLISH_STEPS):
        H, J = eqs.evaluate(x)
        x = x - _solve(J, H)
    return x


def _unit_equations(chain: ChainSpec, nbar: tuple[int, ...]
                    ) -> tuple[_ClearedEquations, float]:
    """The cleared equations of sector nbar with the sites divided by their mean
    modulus, and that scale: they are homogeneous in (roots, sites)."""
    scale = float(np.mean(np.abs(chain.z)))
    return _ClearedEquations(chain, nbar, np.asarray(chain.z) / scale), scale


def backward_errors(chain: ChainSpec, nbar, root_sets) -> np.ndarray:
    """The worst backward error |A - eps_a B| / (|A| + |eps_a B|) over the
    Bethe equations of sector nbar at each root set, as an array of one entry
    per root set: the quantity on which `solve_bethe` accepts a candidate,
    recomputed from the `BetheParameterSet`s alone."""
    nbar = tuple(int(n) for n in nbar)
    if any(params.nbar != nbar for params in root_sets):
        raise DomainError(f"root sets must have the shape of sector {nbar}")
    if not root_sets or not sum(nbar):
        return np.zeros(len(root_sets))
    eqs, scale = _unit_equations(chain, nbar)
    x = np.array([np.concatenate(params.values) for params in root_sets]) / scale
    return np.max(eqs.backward_error(x), axis=1)


def _coincident(xs: np.ndarray, y: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Which rows of xs (K, M) hold the root set y to COINCIDE_TOL, each
    type taken as an unordered set."""
    out = np.ones(len(xs), dtype=bool)
    for gx, gy in zip(np.split(xs, cuts, axis=1), np.split(y, cuts)):
        gap = _relative_gap(gx[:, :, None], gy)
        out &= np.max(np.min(gap, axis=2, initial=np.inf), axis=1, initial=0.0) <= COINCIDE_TOL
    return out


def sector_multiplicity(L: int, nbar) -> int:
    """Dimension of the weight block selected by the sector shape, and so
    the number of `solve_bethe` candidates: prod_a C(n_{a-1}, n_a), n_0 = L."""
    counts = (L,) + tuple(nbar)
    return math.prod(math.comb(a, b) for a, b in zip(counts, counts[1:]))


def _admissible(x: np.ndarray, cuts: np.ndarray, chain: ChainSpec) -> np.ndarray:
    """Which root sets x (P, M) keep the margins: no root near 0 or at a
    site, no two roots of one type together."""
    ok = np.all(np.abs(x) >= MIN_ABS, axis=1)
    ok &= np.all(_relative_gap(x[:, :, None], np.asarray(chain.z)) >= MIN_INHOM_DISTANCE,
                 axis=(1, 2))
    for g in np.split(x, cuts, axis=1):
        i, k = np.triu_indices(g.shape[1], 1)
        ok &= np.all(_relative_gap(g[:, i], g[:, k]) >= MIN_SEPARATION, axis=1)
    return ok


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


def admissible_sectors(chain: ChainSpec):
    """All sector shapes L >= n_1 >= ... >= n_{N-1} >= 0, in descending
    lexicographic order."""
    yield from itertools.combinations_with_replacement(range(chain.L, -1, -1), chain.N - 1)


@dataclass
class ReconcileReport:
    """Eigenvalues matched, states in all, and the already claimed
    eigenvalues that candidates met within MATCH_TOL."""
    matched: int
    total_states: int
    duplicates: int


def spectrum_reconcile(chain: ChainSpec, solutions_by_sector: dict,
                       t_probe: complex) -> ReconcileReport:
    """Match every Bethe eigenvalue candidate against the transfer spectrum,
    one weight block at a time.

    T(t) keeps weight, so sector nbar's eigenvalues are those of its own
    block, weight `expected_occupancy(L, nbar)`. Each candidate claims the
    nearest unclaimed eigenvalue of that block within MATCH_TOL (relative),
    sectors taken in sorted order; the report counts matches and duplicates
    over all blocks.
    """
    blocks = transfer(chain, t_probe).blocks
    _, lambdas = vacuum_data(chain)
    eigs = {nu: np.linalg.eigvals(M) for nu, M in blocks.items()}

    claimed: dict[tuple[int, ...], set[int]] = {nu: set() for nu in eigs}
    duplicates = 0
    matched = 0
    for nbar, sols in sorted(solutions_by_sector.items()):
        nu = expected_occupancy(chain.L, tuple(nbar))
        if nu not in eigs:
            raise DomainError(f"sector {nbar} has no weight block at L={chain.L}")
        for sol in sols:
            tau = transfer_eigenvalue(lambdas, sol.params, t_probe, chain.ctx)
            rel = np.abs(eigs[nu] - tau) / np.maximum(np.abs(eigs[nu]), 1e-300)
            hit = None
            for idx in np.argsort(rel):
                if rel[idx] > MATCH_TOL:
                    break
                if idx in claimed[nu]:
                    duplicates += 1
                    continue
                hit = int(idx)
                break
            if hit is not None:
                claimed[nu].add(hit)
                matched += 1
    return ReconcileReport(matched=matched, total_states=chain.dim, duplicates=duplicates)
