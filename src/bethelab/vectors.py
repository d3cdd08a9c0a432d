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
from .kernels import same_type_weight, transfer_eigenvalue, transfer_eigenvalue_residues
from .repcore import ChainSpec, entry_apply, frobenius, transfer_apply, vacuum_data

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
        vecs = entry_apply(chain, roots[pos], 1, cols[:, pos], vecs)
    return vecs @ aux[idx]


def modified_vector(chain: ChainSpec, params: BetheParameterSet) -> np.ndarray:
    """Plain vector rescaled by the pair weight and the vacuum eigenvalues of
    the next-type diagonal coordinate at each parameter."""
    _, lambdas = vacuum_data(chain)
    pref = same_type_weight(params, chain.ctx) * math.prod(
        lambdas[a](t) for a in range(1, chain.N) for t in params.type_values(a))
    return pref * nested_vector(chain, params)


def _creation_scale(chain: ChainSpec, params: BetheParameterSet) -> float:
    """Size of the pole-free creation operators: prod over type-a roots t of
    |kappa_a| prod_s max(|t|, |s|), s the z_l (a = 1) or type-(a-1) roots."""
    levels = zip(chain.kappa, (chain.z,) + params.values, params.values)
    return math.prod(abs(kappa) * math.prod(max(abs(t), abs(s)) for s in sites)
                     for kappa, sites, roots in levels for t in roots)


def on_shell_residuals(chain: ChainSpec, params: BetheParameterSet,
                       points: Iterable[complex]) -> list[tuple[float, complex]]:
    """Eigenvector residual ||T(t) w - tau w|| / max(||T(t) w||, |tau| ||w||)
    of the plain vector w at each point t, together with the eigenvalue
    candidate tau(t). No normalization of T or w changes it, so the modified
    vector, a multiple of w, has the same residual.

    w is vanishing (DegenerateVectorError) when ||w|| <= 1e-12
    `_creation_scale`. `points` is consumed only after w is found
    non-degenerate, so a lazily drawn sequence draws nothing for a vanishing
    vector; T(t) w at every point is then one `transfer_apply` call, whose
    contiguous rows, one per point, give each point its own norms bit for bit.
    """
    w = nested_vector(chain, params)
    norm = frobenius(w)
    if norm <= 1e-12 * _creation_scale(chain, params):
        raise DegenerateVectorError(
            f"vanishing vector in sector {params.nbar} (L={chain.L})")
    ts = list(points)
    if not ts:
        return []
    _, lambdas = vacuum_data(chain)
    taus = transfer_eigenvalue(lambdas, params, np.array(ts), chain.ctx)
    Tw = np.ascontiguousarray(
        transfer_apply(chain, ts, np.broadcast_to(w[:, None], (chain.dim, len(ts)))).T)
    scales = np.maximum(np.maximum(frobenius(Tw, axis=-1), abs(taus) * norm), 1e-300)
    resids = frobenius(Tw - taus[:, None] * w, axis=-1) / scales
    return list(zip(resids.tolist(), taus.tolist()))


@dataclass(frozen=True)
class UnwantedReport:
    """Decomposition of the off-eigenvector remainder over the candidate basis
    with one Bethe parameter replaced by the spectral point: the fitted
    coefficients and the closed form, the residue of tau at each root t_m
    over (t_m - t), which vanish together on shell."""

    coefficients: tuple[complex, ...]
    closed_form: tuple[complex, ...]
    fit_residual: float
    # ||T(t) w|| / ||Phi_m||: c_m / scales[m] is |c_m Phi_m| against |T(t) w|
    scales: tuple[float, ...]


def unwanted_closed_form(chain: ChainSpec, params: BetheParameterSet,
                         t: complex) -> tuple[complex, ...]:
    """Coefficient of the m-th candidate vector for every root t_m: the
    residue of tau at t_m over (t_m - t). It is zero exactly when t_m obeys
    its Bethe equation, and is checked against the least-squares fit of
    `unwanted_decomposition`."""
    _, lambdas = vacuum_data(chain)
    residues, _ = transfer_eigenvalue_residues(lambdas, params, chain.ctx)
    roots = np.array([u for grp in params.values for u in grp], dtype=complex)
    return tuple(complex(c) for c in residues / (roots - t))


def unwanted_decomposition(chain: ChainSpec, params: BetheParameterSet,
                           t: complex) -> UnwantedReport:
    """Rank-2 unwanted-term extraction by least squares against the basis
    Phi_m, the Bethe vector `nested_vector` with t in place of t_m.

    The basis is generically independent only when the number of excitations
    does not exceed the dimension of its weight block (n <= C(L, n)); outside
    that regime the decomposition is structurally rank deficient and raises,
    as the singular values of its one least-squares factorization show. A
    remainder T(t) w - tau w or a candidate norm that overflows double
    precision raises DomainError before the fit.
    """
    if chain.N != 2:
        raise DomainError("unwanted-term decomposition is a rank-2 operation")
    if len(params.nbar) != 1:
        raise DomainError(f"expected 1 parameter type, got {len(params.nbar)}")
    n = params.nbar[0]
    if n < 1:
        raise DomainError(f"unwanted-term decomposition needs at least 1 excitation, got {n}")
    if n > UNWANTED_CAP:
        raise DomainError(f"unwanted-term decomposition capped at {UNWANTED_CAP} excitations")
    _, lambdas = vacuum_data(chain)
    w = nested_vector(chain, params)
    tau = transfer_eigenvalue(lambdas, params, t, chain.ctx)
    Tw = transfer_apply(chain, t, w)
    r = Tw - tau * w

    roots = params.type_values(1)
    Phi = np.array([nested_vector(chain, BetheParameterSet(((t,) + roots[:m] + roots[m + 1:],)))
                    for m in range(n)])
    # unit rows: the pole-free T gives Phi_m a factor 1 / prod_l (q t_m - z_l/q)
    sizes = frobenius(Phi, axis=-1)
    if not (np.isfinite(r).all() and np.isfinite(sizes).all()):
        raise DomainError("T(t) w - tau w or a candidate norm overflows double precision")
    unit = (Phi / np.maximum(sizes, 1e-300)[:, None]).T
    coeff, _, _, sv = np.linalg.lstsq(unit, r, rcond=None)
    if sv[0] == 0 or sv[-1] / sv[0] < RANK_DEFICIENCY_TOL:
        raise IllPosedDecompositionError(
            f"candidate basis rank-deficient (sv ratio {sv[-1] / max(sv[0], 1e-300):.2e}); "
            "resample t or enlarge the chain")
    fit = float(frobenius(unit @ coeff - r) / max(frobenius(r), 1e-300))
    size = max(float(frobenius(Tw)), 1e-300)
    return UnwantedReport(
        coefficients=tuple(complex(c) for c in coeff / sizes),
        closed_form=unwanted_closed_form(chain, params, t),
        fit_residual=fit,
        scales=tuple(size / float(c) for c in sizes),
    )
