"""Off-shell nested Bethe vectors and their transfer-matrix action.

Construction fixed here (and locked by the recursion-consistency tests):
the rank-N vector for typed parameters (tbar^1, ..., tbar^{N-1}) is built
from the rank-(N-1) vector of the auxiliary chain whose sites carry the
type-1 parameters as inhomogeneities and whose twist drops the first entry;
auxiliary color b maps to creation entry T_{1, b+1}. Creation operators are
applied with ascending parameter index acting first on the left:

    w = sum_c  aux_c  T_{1,a_1}(t_1^1) ... T_{1,a_n}(t_n^1) Omega.

Whether same-type creation entries commute is measured, never assumed; the
asserted invariant under parameter exchange is collinearity of the modified
vector, not equality.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .context import BetheParameterSet
from .errors import DegenerateVectorError, DomainError, IllPosedDecompositionError
from .kernels import same_type_weight, transfer_eigenvalue
from .repcore import ChainSpec, entry_apply, transfer_apply, vacuum_data

RANK_DEFICIENCY_TOL = 1e-8

# most excitations `unwanted_decomposition` takes
UNWANTED_CAP = 4


def is_admissible(chain: ChainSpec, nbar: tuple[int, ...]) -> bool:
    """Sector shape check: L >= n_1 >= n_2 >= ... >= n_{N-1} >= 0."""
    seq = (chain.L,) + tuple(nbar) + (0,)
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def expected_occupancy(L: int, nbar: tuple[int, ...]) -> tuple[int, ...]:
    counts = (L,) + tuple(nbar) + (0,)
    return tuple(counts[c] - counts[c + 1] for c in range(len(nbar) + 1))


def nested_vector(chain: ChainSpec, params: BetheParameterSet) -> np.ndarray:
    """Plain off-shell vector by recursion over the rank.

    Inadmissible layouts return the zero vector with a warning (zero is the
    analytically correct value for an over-filled sector).
    """
    nbar = params.nbar
    if len(nbar) != chain.N - 1:
        raise DomainError(f"expected {chain.N - 1} parameter types, got {len(nbar)}")
    if not is_admissible(chain, nbar):
        warnings.warn(f"inadmissible sector {nbar} for L={chain.L}: vector vanishes",
                      stacklevel=2)
        return np.zeros(chain.dim, dtype=complex)
    return _nested(chain, params)


def _nested(chain: ChainSpec, params: BetheParameterSet) -> np.ndarray:
    N = chain.N
    if params.total == 0:
        omega = np.zeros(chain.dim, dtype=complex)
        omega[0] = 1.0
        return omega
    n1 = params.nbar[0]
    roots = params.type_values(1)
    if N == 2:
        aux = np.ones(1, dtype=complex)
    else:
        aux_chain = ChainSpec(N=N - 1, L=n1, z=roots, kappa=chain.kappa[1:], ctx=chain.ctx)
        aux = _nested(aux_chain, BetheParameterSet(params.values[1:]))
    idx = np.flatnonzero(np.abs(aux) > 0)
    # column of the creation entry T_{1, col} at each position, per aux basis
    # state: its base-(N-1) digit at that position (site 1 the slowest) plus 2
    base = N - 1
    cols = 2 + (idx[:, None] // base ** np.arange(n1 - 1, -1, -1)) % base
    vecs = np.zeros((chain.dim, len(idx)), dtype=complex)
    vecs[0] = 1.0
    for pos in range(n1 - 1, -1, -1):
        # a set, not np.unique: numpy's first np.unique imports numpy.ma
        for col in sorted(set(cols[:, pos].tolist())):
            mask = cols[:, pos] == col
            vecs[:, mask] = entry_apply(chain, roots[pos], 1, col, vecs[:, mask])
    return vecs @ aux[idx]


def modified_vector(chain: ChainSpec, params: BetheParameterSet) -> np.ndarray:
    """Plain vector rescaled by the pair weight and the vacuum eigenvalues of
    the next-type diagonal coordinate at each parameter."""
    return _prefactor(chain, params) * nested_vector(chain, params)


def _prefactor(chain: ChainSpec, params: BetheParameterSet) -> complex:
    _, lambdas = vacuum_data(chain)
    return same_type_weight(params, chain.ctx) * math.prod(
        lambdas[a](t) for a in range(1, chain.N) for t in params.type_values(a))


def _creation_scale(chain: ChainSpec, params: BetheParameterSet) -> float:
    """Size of the pole-free creation operators: prod over type-a roots t of
    |kappa_a| prod_s max(|t|, |s|), s the z_l (a = 1) or type-(a-1) roots."""
    levels = zip(chain.kappa, (chain.z,) + params.values, params.values)
    return math.prod(abs(kappa) * math.prod(max(abs(t), abs(s)) for s in sites)
                     for kappa, sites, roots in levels for t in roots)


def on_shell_residuals(chain: ChainSpec, params: BetheParameterSet,
                       points: Iterable[complex]) -> list[tuple[float, complex]]:
    """Eigenvector residual ||T(t) w - tau w|| / max(||T(t) w||, |tau| ||w||)
    of the modified vector w at each point t, which no normalization of T
    changes, together with the eigenvalue candidate tau(t).

    w is vanishing (DegenerateVectorError) when ||w|| <= 1e-12 |prefactor|
    `_creation_scale`. `points` is consumed only after w is found
    non-degenerate, so a lazily drawn sequence draws nothing for a vanishing
    vector; T(t) w at every point is then one `transfer_apply` call.
    """
    pref = _prefactor(chain, params)
    w = pref * nested_vector(chain, params)
    norm = float(np.linalg.norm(w))
    if norm <= 1e-12 * abs(pref) * _creation_scale(chain, params):
        raise DegenerateVectorError(
            f"vanishing vector in sector {params.nbar} (L={chain.L})")
    ts = list(points)
    if not ts:
        return []
    _, lambdas = vacuum_data(chain)
    taus = [transfer_eigenvalue(lambdas, params, t, chain.ctx) for t in ts]
    Tw = transfer_apply(chain, ts, np.broadcast_to(w[:, None], (chain.dim, len(ts))))
    return [(float(np.linalg.norm(Tw[:, p] - tau * w)
                   / max(float(np.linalg.norm(Tw[:, p])), abs(tau) * norm, 1e-300)), tau)
            for p, tau in enumerate(taus)]


@dataclass(frozen=True)
class UnwantedReport:
    """Decomposition of the off-eigenvector remainder over the candidate basis
    with one Bethe parameter replaced by the spectral point."""

    coefficients: tuple[complex, ...]
    closed_form: tuple[complex, ...]
    fit_residual: float
    remainder_norm: float  # ||T(t) w - tau w|| / ||T(t) w||
    # ||T(t) w|| / ||Phi_m||: c_m / scales[m] is |c_m Phi_m| against |T(t) w|
    scales: tuple[float, ...]


def unwanted_closed_form(chain: ChainSpec, params: BetheParameterSet,
                         t: complex) -> tuple[complex, ...]:
    """Rank-2 coefficient of the m-th candidate vector, fixed against a
    least-squares oracle on one and two excitations and asserted beyond:

        c_m = (q - 1/q) t_m/(t - t_m) [ lam_1(t_m) prod_{j != m} (q t_j - t_m/q)/(t_j - t_m)
                                      - lam_2(t_m) prod_{j != m} (q t_m - t_j/q)/(t_m - t_j) ].
    """
    q = chain.ctx.q
    _, lambdas = vacuum_data(chain)
    roots = params.type_values(1)
    out = []
    for m, tm in enumerate(roots):
        p1 = 1.0 + 0j
        p2 = 1.0 + 0j
        for j, tj in enumerate(roots):
            if j == m:
                continue
            p1 *= (q * tj - tm / q) / (tj - tm)
            p2 *= (q * tm - tj / q) / (tm - tj)
        out.append((q - 1 / q) * tm / (t - tm)
                   * (lambdas[0](tm) * p1 - lambdas[1](tm) * p2))
    return tuple(out)


def unwanted_decomposition(chain: ChainSpec, params: BetheParameterSet,
                           t: complex) -> UnwantedReport:
    """Rank-2 unwanted-term extraction by least squares against the basis
    Phi_m = T_{1,2}(t) prod_{j != m} T_{1,2}(t_j) Omega.

    The basis is generically independent only when the number of excitations
    does not exceed the dimension of its weight block (n <= C(L, n)); outside
    that regime the decomposition is structurally rank deficient and raises.
    """
    if chain.N != 2:
        raise DomainError("unwanted-term decomposition is a rank-2 operation")
    n = params.nbar[0]
    if n > UNWANTED_CAP:
        raise DomainError(f"unwanted-term decomposition capped at {UNWANTED_CAP} excitations")
    _, lambdas = vacuum_data(chain)
    w = nested_vector(chain, params)
    tau = transfer_eigenvalue(lambdas, params, t, chain.ctx)
    Tw = transfer_apply(chain, t, w)
    r = Tw - tau * w

    # column m: T_{1,2}(t) prod_{j != m} T_{1,2}(t_j) Omega, highest j acting first
    roots = params.type_values(1)
    A = np.zeros((chain.dim, n), dtype=complex)
    A[0] = 1.0
    for pos in range(n - 1, -1, -1):
        others = np.arange(n) != pos
        A[:, others] = entry_apply(chain, roots[pos], 1, 2, A[:, others])
    A = entry_apply(chain, t, 1, 2, A)
    # unit columns: the pole-free T gives column m a factor 1 / prod_l (q t_m - z_l/q)
    sizes = np.linalg.norm(A, axis=0)
    unit = A / np.maximum(sizes, 1e-300)
    sv = np.linalg.svd(unit, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < RANK_DEFICIENCY_TOL:
        raise IllPosedDecompositionError(
            f"candidate basis rank-deficient (sv ratio {sv[-1] / max(sv[0], 1e-300):.2e}); "
            "resample t or enlarge the chain")
    coeff, *_ = np.linalg.lstsq(unit, r, rcond=None)
    fit = float(np.linalg.norm(unit @ coeff - r) / max(np.linalg.norm(r), 1e-300))
    size = max(float(np.linalg.norm(Tw)), 1e-300)
    return UnwantedReport(
        coefficients=tuple(complex(c) for c in coeff / sizes),
        closed_form=unwanted_closed_form(chain, params, t),
        fit_residual=fit,
        remainder_norm=float(np.linalg.norm(r)) / size,
        scales=tuple(size / float(c) for c in sizes),
    )
