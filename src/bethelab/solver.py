"""Twist-homotopy solver for the Bethe equations and the reconciliation of
the resulting spectrum with the transfer matrix's weight blocks.

For a type-a root t let P be the type-(a-1) roots (the sites z when a = 1),
S the other type-a roots and X the type-(a+1) roots. With its denominators
cleared, Bethe equation (a, t) reads A - eps_a B = 0 with

    A = prod_P (q t - p/q) prod_S (t/q - q u) prod_X (t - x)
    B = prod_P (t - p)     prod_S (q t - u/q) prod_X (t/q - q x)

and eps_a = kappa_{a+1}/kappa_a. The solver tracks H = A - s eps_a B from
s = 0 to s = 1. At s = 0 the type-1 roots sit at z_l/q^2 on an n_1-subset of
the sites and the type-a roots at (type-(a-1) start roots)/q^2 on an
n_a-subset of those: prod_a C(n_{a-1}, n_a) = `sector_multiplicity` start
points, each with a block lower-triangular, invertible Jacobian. All paths
of a sector are tracked as one numpy batch, with an Euler-tangent predictor,
a Newton corrector on the analytic Jacobian and a step size per path.

These cleared equations are the only form of the Bethe equations here.
Each endpoint gets POLISH_STEPS Newton steps on H at s = 1 and is accepted
when the backward error |A - eps_a B| / (|A| + |eps_a B|) of every
equation, taken at the roots it returns, is below TOL_ROOT: the relative
change of the two sides that makes the point an exact root. It has no pole
where two roots of a type form a near-string t_j ~ q^2 t_k, so such
genuine root sets are kept. A path that is lost, or whose endpoint is
rejected or coincides with another one, is tracked once more along a
complex detour s = tau + gamma tau (1 - tau) (the gamma trick), gamma drawn
from the `solve_bethe:{nbar}` stream. Root sets still missing after that are
a reported shortfall, never filled in.
Everything is deterministic given (chain, sector, seed).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .context import BetheParameterSet, sample_annulus
from .errors import DomainError
from .kernels import transfer_eigenvalue
from .repcore import ChainSpec, transfer, vacuum_data
from .vectors import expected_occupancy, is_admissible

MATCH_TOL = 1e-8

# path tracking, in coordinates scaled by the mean site modulus
FIRST_STEP = 0.05        # initial step in the path parameter tau
STEP_GROWTH = 1.25       # step factor after an accepted step; a rejected one halves
MIN_STEP = 1e-10         # a path whose step falls below this is lost
MAX_STEPS = 2000         # predictor-corrector rounds per batch
CORRECTOR_STEPS = 3
TRACK_TOL = 1e-7         # last corrector update, relative to the point
DIVERGED = 1e8           # a root this far out is on its way to infinity
POLISH_STEPS = 2         # Newton steps on H at s = 1 at each endpoint
COINCIDE_TOL = 1e-8      # relative distance of two equal root sets

# acceptance of an endpoint: largest backward error of its equations
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
    """Root sets of one sector. `attempts` counts tracked paths (retries
    included), `converged` the endpoints whose polished backward error is
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


class _Homotopy:
    """The cleared equations of one sector as factor tables.

    Row k of every table belongs to root k (types in order); column f is one
    linear factor, `ta t_k + wa w` of A and `tb t_k + wb w` of B, where w is
    entry `partner[k, f]` of the point extended by the sites and a constant
    1. Rows are padded with the constant factor 1.
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
        self.select = (self.partner[:, :, None] == np.arange(M)).astype(float)
        self.eps = np.array(eps)
        self.sites = sites
        self.tail = np.append(sites, 1.0)

    def evaluate(self, x: np.ndarray, s: np.ndarray):
        """H, dH/dx and dH/ds at the points x (P, M) and parameters s (P,)."""
        fa, fb = self.factors(x)
        ea, eb = _excluded_products(fa), _excluded_products(fb)
        A, B = ea[..., 0] * fa[..., 0], eb[..., 0] * fb[..., 0]
        se = (s[:, None] * self.eps)[..., None]
        J = np.einsum("pkf,kfj->pkj", self.wa * ea - se * self.wb * eb, self.select)
        diag = np.arange(x.shape[1])
        J[:, diag, diag] += np.sum(self.ta * ea - se * self.tb * eb, axis=-1)
        return A - se[..., 0] * B, J, -self.eps * B

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

    def track(self, x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """Endpoints at s = 1 of the paths from the start points x (P, M)
        along s = tau + gamma tau (1 - tau); NaN rows for lost paths."""
        x = x.copy()
        tau = np.zeros(len(x))
        h = np.full(len(x), FIRST_STEP)
        live = np.ones(len(x), dtype=bool)
        # the predictor's derivatives at each path's point: after a step,
        # those of the last corrector iterate, which is within TRACK_TOL of it
        _, J, dHds = self.evaluate(x, tau)
        for _ in range(MAX_STEPS):
            act = np.flatnonzero(live & (tau < 1.0))
            if not len(act):
                break
            t0, g = tau[act], gamma[act]
            tangent = _solve(J[act], -dHds[act] * (1 + g * (1 - 2 * t0))[:, None])
            t1 = np.minimum(t0 + h[act], 1.0)
            s1 = t1 + g * t1 * (1 - t1)
            y = x[act] + (t1 - t0)[:, None] * tangent
            for _ in range(CORRECTOR_STEPS):
                H, Jy, dy = self.evaluate(y, s1)
                delta = _solve(Jy, -H)
                y = y + delta
            size = np.max(np.abs(y), axis=1)
            ok = np.max(np.abs(delta), axis=1) < TRACK_TOL * size
            step = act[ok]
            x[step], tau[step], J[step], dHds[step] = y[ok], t1[ok], Jy[ok], dy[ok]
            h[step] *= STEP_GROWTH
            h[act[~ok]] /= 2
            live[step[size[ok] > DIVERGED]] = False
            live &= h >= MIN_STEP
        x[~live | (tau < 1.0)] = np.nan
        return x


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


def _start_points(nbar: tuple[int, ...], sites: np.ndarray, q: complex) -> np.ndarray:
    """The s = 0 roots: type-a roots are an n_a-subset of the type-(a-1)
    roots (the sites for a = 1), divided by q^2."""
    def rec(lower, a):
        if a == len(nbar):
            yield ()
            return
        for subset in itertools.combinations(lower, nbar[a]):
            roots = tuple(p / q ** 2 for p in subset)
            for rest in rec(roots, a + 1):
                yield roots + rest

    return np.array(list(rec(tuple(sites), 0)), dtype=complex)


def solve_bethe(chain: ChainSpec, nbar, opts=None) -> SolveResult:
    """The admissible root sets of sector nbar at the endpoints of the twist
    homotopy; deterministic for fixed (chain, nbar, seed). A sector returns at
    most `sector_multiplicity` root sets, fewer when paths are lost. `opts` is
    ignored: it is kept only for the benchmark's wrapper, which passes it
    positionally."""
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

    hom, scale = _unit_homotopy(chain, nbar)
    starts = _start_points(nbar, hom.sites, chain.ctx.q)
    cuts = np.cumsum(nbar)[:-1]
    rng = chain.ctx.rng(f"solve_bethe:{nbar}")
    result = SolveResult([])
    kept = np.empty((0, M), dtype=complex)
    todo = np.arange(len(starts))
    for detour in (False, True):
        if not len(todo):
            break
        gamma = sample_annulus(rng, len(todo)) if detour else np.zeros(len(todo))
        result.attempts += len(todo)
        ones = np.ones(len(todo))
        # lost paths are NaN rows, and arithmetic on them is expected
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            x = hom.track(starts[todo], gamma)
            for _ in range(POLISH_STEPS):
                H, J, _ = hom.evaluate(x, ones)
                x = x - _solve(J, H)
            # the roots as returned, measured as `backward_errors` measures them
            roots = x * scale
            err = hom.backward_error(roots / scale)
        good = np.all(err < TOL_ROOT, axis=1)
        result.converged += int(np.sum(good))
        admissible = _admissible(roots, cuts, chain)
        result.inadmissible += int(np.sum(good & ~admissible))
        reached = np.flatnonzero(good & admissible)
        done = np.zeros(len(x), dtype=bool)
        for p in reached:
            # a root set that two first-pass paths reach is retried from
            # both, since nothing tells which of them jumped
            rivals = kept if detour else x[reached[reached != p]]
            if np.any(_coincident(rivals, x[p], cuts)):
                continue
            done[p] = True
            kept = np.vstack([kept, x[p]])
            groups = [[complex(v) for v in g] for g in np.split(roots[p], cuts)]
            result.solutions.append(BetheSolution(
                BetheParameterSet(tuple(map(tuple, groups))), _canonical_key(groups)))
        todo = todo[~done]
    result.solutions.sort(key=lambda s: s.multiplicity_key)
    return result


def _unit_homotopy(chain: ChainSpec, nbar: tuple[int, ...]) -> tuple[_Homotopy, float]:
    """The homotopy of sector nbar with the sites divided by their mean
    modulus, and that scale: the equations are homogeneous in (roots,
    sites), so roots are tracked and measured at unit scale."""
    scale = float(np.mean(np.abs(chain.z)))
    return _Homotopy(chain, nbar, np.asarray(chain.z) / scale), scale


def backward_errors(chain: ChainSpec, nbar, root_sets) -> np.ndarray:
    """The worst backward error |A - eps_a B| / (|A| + |eps_a B|) over the
    Bethe equations of sector nbar at each root set, as an array of one entry
    per root set: the quantity on which `solve_bethe` accepts an endpoint,
    recomputed from the `BetheParameterSet`s alone."""
    nbar = tuple(int(n) for n in nbar)
    if any(params.nbar != nbar for params in root_sets):
        raise DomainError(f"root sets must have the shape of sector {nbar}")
    if not root_sets or not sum(nbar):
        return np.zeros(len(root_sets))
    hom, scale = _unit_homotopy(chain, nbar)
    x = np.array([np.concatenate(params.values) for params in root_sets]) / scale
    return np.max(hom.backward_error(x), axis=1)


def _coincident(xs: np.ndarray, y: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Which rows of xs (K, M) hold the root set y to COINCIDE_TOL, each
    type taken as an unordered set."""
    out = np.ones(len(xs), dtype=bool)
    for gx, gy in zip(np.split(xs, cuts, axis=1), np.split(y, cuts)):
        gap = _relative_gap(gx[:, :, None], gy)
        out &= np.max(np.min(gap, axis=2, initial=np.inf), axis=1, initial=0.0) <= COINCIDE_TOL
    return out


def sector_multiplicity(L: int, nbar) -> int:
    """Dimension of the weight block selected by the sector shape."""
    from math import factorial
    occ = expected_occupancy(L, tuple(nbar))
    out = factorial(L)
    for c in occ:
        out //= factorial(c)
    return out


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
    """All sector shapes L >= n_1 >= ... >= n_{N-1} >= 0."""
    def rec(prefix, remaining, bound):
        if remaining == 0:
            yield tuple(prefix)
            return
        for n in range(bound, -1, -1):
            yield from rec(prefix + [n], remaining - 1, n)

    yield from rec([], chain.N - 1, chain.L)


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
