"""Rational kernels of the nested Bethe ansatz.

All formal series are evaluated pointwise as rational functions of the
spectral variables; every kernel is a finite product/sum of the two atoms

    coupling(x, y)  = (q - x/(q y)) / (1 - x/y)
    crossing(t, u)  = (q t - u/q) / (t - u)

and therefore homogeneous of degree zero under simultaneous scaling of all
spectral arguments. `coupling` is a kernel of its own. The eigenvalue tau is
an array kernel: it evaluates at an array of points at once, one array
product per crossing factor, and a scalar point is a batch of one.
Evaluation points within POLE_MARGIN (relative) of a denominator zero raise
PoleError instead of returning garbage.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .context import POLE_MARGIN, BetheParameterSet, DeformationContext
from .errors import DomainError, PoleError

LambdaLike = Callable[[complex | np.ndarray], complex | np.ndarray]

# pole margin of tau's residue at a root against the other roots, which may
# lie as close as the solver's MIN_SEPARATION = 1e-6 (relative), inside
# POLE_MARGIN; the residue at t_m over (t_m - t) is the m-th unwanted coefficient
RESIDUE_MARGIN = 1e-12


def _guard(num: complex, scale: float, what: str) -> None:
    if abs(num) <= POLE_MARGIN * max(scale, 1e-300):
        raise PoleError(f"{what}: denominator {abs(num):.3e} below margin")


def coupling(x: complex, y: complex, ctx: DeformationContext) -> complex:
    """(q - q^-1 x/y) / (1 - x/y), the weight attached to an ordered pair."""
    q = ctx.q
    _guard(y - x, max(abs(x), abs(y)), "coupling")
    return (q - x / (q * y)) / (1.0 - x / y)


# ---------------------------------------------------------------------------
# transfer-matrix eigenvalue and Bethe equations


def _tau_terms(lambdas: Sequence[LambdaLike], params: BetheParameterSet,
               t: np.ndarray, ctx: DeformationContext,
               margin: float = POLE_MARGIN) -> np.ndarray:
    """The N terms of tau at the 1-d points t, an (N, len(t)) array."""
    if len(params.values) > len(lambdas) - 1:
        raise DomainError(f"{len(params.values)} parameter types for {len(lambdas)} "
                          f"eigenvalue terms: at most {len(lambdas) - 1}")
    q = ctx.q
    roots = np.array([u for grp in params.values for u in grp], dtype=complex)[:, None]
    gap = np.abs(t - roots)
    if np.any(gap <= margin * np.maximum(np.maximum(np.abs(t), np.abs(roots)), 1e-300)):
        raise PoleError(f"transfer_eigenvalue: denominator {gap.min():.3e} below margin")
    below, above = (q * t - roots / q) / (t - roots), (t / q - q * roots) / (t - roots)
    terms = np.array([np.full(t.shape, lam(t), dtype=complex) for lam in lambdas])
    # type a lies below term a + 1 (row a) and above term a; never `*=`, since
    # numpy rounds an in-place product of length 1 differently
    types = [a for a, grp in enumerate(params.values, start=1) for _ in grp]
    for a, lo, hi in zip(types, below, above):
        terms[a] = terms[a] * lo
        terms[a - 1] = terms[a - 1] * hi
    return terms


def transfer_eigenvalue(lambdas: Sequence[LambdaLike], params: BetheParameterSet,
                        t: complex | np.ndarray, ctx: DeformationContext) -> complex | np.ndarray:
    """Candidate transfer-matrix eigenvalue at the points t: an array of t's
    shape, or a complex for a scalar t, which is a batch of one. lambdas are
    the N vacuum eigenvalue functions of an array of points; params holds the
    N-1 typed groups of Bethe parameters (empty groups give bare sum of lambdas)."""
    pts = np.asarray(t, dtype=complex)
    # the builtin sum adds row by row; numpy's sum over one column does not
    tau = sum(_tau_terms(lambdas, params, pts.reshape(-1), ctx))
    return complex(tau[0]) if pts.ndim == 0 else tau.reshape(pts.shape)


def bethe_rhs(i: int, j: int, params: BetheParameterSet, ctx: DeformationContext) -> complex:
    """Right-hand side of Bethe equation (i, j): the triple product over
    same-type and adjacent-type parameters."""
    q = ctx.q
    tji = params.value(i, j)
    rhs = 1.0 + 0j
    for m, u in enumerate(params.type_values(i), start=1):
        if m == j:
            continue
        _guard(tji / q - q * u, max(abs(tji), abs(u)), "bethe_rhs")
        rhs *= (q * tji - u / q) / (tji / q - q * u)
    for u in params.type_values(i - 1):
        _guard(q * tji - u / q, max(abs(tji), abs(u)), "bethe_rhs")
        rhs *= (tji - u) / (q * tji - u / q)
    for u in params.type_values(i + 1):
        _guard(tji - u, max(abs(tji), abs(u)), "bethe_rhs")
        rhs *= (tji / q - q * u) / (tji - u)
    return rhs


def bethe_residual(i: int, j: int, params: BetheParameterSet,
                   lambdas: Sequence[LambdaLike], ctx: DeformationContext) -> complex:
    """lambda_i/lambda_{i+1} at t_j^i minus the Bethe RHS; zero iff equation (i,j) holds."""
    if not (1 <= i <= len(lambdas) - 1):
        raise DomainError(f"equation type {i} outside 1..{len(lambdas) - 1}")
    if not (1 <= j <= len(params.type_values(i))):
        raise DomainError(f"equation index {j} outside type-{i} range")
    tji = params.value(i, j)
    lam_ratio = complex(lambdas[i - 1](tji)) / complex(lambdas[i](tji))
    return lam_ratio - bethe_rhs(i, j, params, ctx)


def transfer_eigenvalue_residues(lambdas: Sequence[LambdaLike], params: BetheParameterSet,
                                 ctx: DeformationContext) -> tuple[np.ndarray, np.ndarray]:
    """Residues of tau at every root, in type order, with their scales.

    At a type-a root u only terms a and a+1 have a pole: their factors
    (t/q - q u)/(t - u) and (q t - u/q)/(t - u) have residues -(q - 1/q) u
    and +(q - 1/q) u, times the terms of tau at t = u on the set without u.
    The residue is the sum of the two, which vanishes on shell, and the scale
    is the larger of their moduli, so |residue| / scale measures the
    cancellation. Returns two arrays of one entry per root.
    """
    qq = ctx.q - 1 / ctx.q
    pairs = []
    for a, grp in enumerate(params.values, start=1):
        for j, u in enumerate(grp):
            rest = params.values[:a - 1] + (grp[:j] + grp[j + 1:],) + params.values[a:]
            terms = _tau_terms(lambdas, BetheParameterSet(rest), np.array([u]), ctx,
                               RESIDUE_MARGIN)[:, 0]
            pairs.append((-qq * u * terms[a - 1], qq * u * terms[a]))
    pairs = np.array(pairs, dtype=complex).reshape(-1, 2)
    return pairs.sum(axis=1), np.abs(pairs).max(axis=1)


# ---------------------------------------------------------------------------
# modified-vector prefactor and nesting coefficients


def same_type_weight(params: BetheParameterSet, ctx: DeformationContext) -> complex:
    """Product of coupling(t_l^a, t_l'^a) over all ordered same-type pairs l < l'."""
    out = 1.0 + 0j
    for grp in params.values:
        for x, y in itertools.combinations(grp, 2):
            out *= coupling(x, y, ctx)
    return out


def nesting_overlap(upper: Sequence[complex], lower: Sequence[complex],
                    ctx: DeformationContext) -> complex:
    """Rank-lowering coefficient coupling k upper-type to k lower-type points.

    Slot m pairs lower[m] with upper[m]; later lower slots couple to earlier
    upper slots through the ordinary pair weight.
    """
    if len(upper) != len(lower):
        raise DomainError("nesting_overlap needs equal-length tuples")
    k = len(upper)
    out = 1.0 + 0j
    for m in range(k):
        _guard(upper[m] - lower[m], max(abs(upper[m]), abs(lower[m])), "nesting_overlap")
        out *= 1.0 / (1.0 - lower[m] / upper[m])
        for mp in range(m + 1, k):
            out *= coupling(lower[mp], upper[m], ctx)
    return out


def string_overlap(params: BetheParameterSet, ctx: DeformationContext) -> complex:
    """Product of nesting overlaps across adjacent types for a layout with
    non-increasing counts m_1 >= m_2 >= ... (the admissible string shapes)."""
    mbar = params.nbar
    for a in range(len(mbar) - 1):
        if mbar[a] < mbar[a + 1]:
            raise DomainError(f"inadmissible layout {mbar}: counts must be non-increasing")
    out = 1.0 + 0j
    for a in range(1, len(mbar)):
        k = mbar[a]  # count of type a+1
        if k == 0:
            continue
        upper = [params.value(a + 1, m) for m in range(1, k + 1)]
        lower = [params.value(a, mbar[a - 1] - k + m) for m in range(1, k + 1)]
        out *= nesting_overlap(upper, lower, ctx)
    return out


def split_weight(params: BetheParameterSet, sbar: Sequence[int],
                 ctx: DeformationContext) -> complex:
    """Cross-type weight created when each type-a range (0, n_a] is split
    at s_a: couples the high part of type a to the low part of type a+1."""
    nbar = params.nbar
    sbar = tuple(sbar)
    if len(sbar) != len(nbar):
        raise DomainError("split indices must cover every type")
    for a, (s, n) in enumerate(zip(sbar, nbar), start=1):
        if not 0 <= s <= n:
            raise DomainError(f"need 0 <= s <= n for type {a}")
    out = 1.0 + 0j
    for a in range(1, len(nbar)):
        for ell in range(sbar[a - 1] + 1, nbar[a - 1] + 1):
            for ellp in range(1, sbar[a] + 1):
                out *= coupling(params.value(a, ell), params.value(a + 1, ellp), ctx)
    return out


def top_split_weight(m: int, params: BetheParameterSet, ctx: DeformationContext) -> complex:
    """Weight attached to peeling the top index off each of the first m types."""
    nbar = params.nbar
    if m < 1:
        raise DomainError("m must be >= 1")
    for a in range(1, m + 1):
        if a <= len(nbar) and nbar[a - 1] == 0:
            raise DomainError(f"type {a} is empty; top index undefined")
    out = 1.0 + 0j
    for a in range(1, m):
        top_a = params.value(a, nbar[a - 1])
        top_next = params.value(a + 1, nbar[a])
        _guard(top_next - top_a, max(abs(top_a), abs(top_next)), "top_split_weight")
        out *= 1.0 / (1.0 - top_a / top_next)
        for jj in range(1, nbar[a]):
            out *= coupling(top_a, params.value(a + 1, jj), ctx)
    top_m = params.value(m, nbar[m - 1])
    for jj in range(1, len(params.type_values(m + 1)) + 1):
        out *= coupling(top_m, params.value(m + 1, jj), ctx)
    return out


def shift_weight(m: int, j: int, params: BetheParameterSet, ctx: DeformationContext) -> complex:
    """Weight produced when a dual coordinate cascades from depth j down to m."""
    if j < 2 or m < 0 or m > j - 2:
        raise DomainError(f"need 0 <= m <= j-2 with j >= 2, got m={m} j={j}")
    nbar = params.nbar
    for a in range(max(m, 1), j):
        if a > len(nbar) or nbar[a - 1] == 0:
            raise DomainError(f"type {a} required nonempty for shift_weight(m={m}, j={j})")
    out = 1.0 + 0j
    for a in range(m + 1, j - 1):
        x = params.value(a, 1)
        y = params.value(a + 1, 1)
        _guard(y - x, max(abs(x), abs(y)), "shift_weight")
        out *= (x / y) / (1.0 - x / y)
        for kk in range(2, nbar[a - 1] + 1):
            out *= coupling(params.value(a, kk), y, ctx)
    if m >= 1:
        y = params.value(m + 1, 1)
        for kk in range(1, nbar[m - 1]):
            out *= coupling(params.value(m, kk), y, ctx)
    return out


def partial_fraction_residual(j: int, t: complex, points: Sequence[complex]) -> float:
    """|three-group telescoping expression| for chain points s_1..s_{j-1}.

    The expression vanishes identically: the gap sum over consecutive
    differences telescopes to s_{j-1} - s_1.
    """
    if j < 3:
        raise DomainError("telescoping identity needs j >= 3")
    pts = [complex(p) for p in points]
    if len(pts) != j - 1:
        raise DomainError(f"need {j - 1} chain points, got {len(pts)}")
    everything = pts + [complex(t)]
    if len(set(everything)) < len(everything):
        raise PoleError("coincident points in partial_fraction_residual")
    gaps = [pts[a + 1] - pts[a] for a in range(j - 2)]
    inv_all = 1.0 + 0j
    for g in gaps:
        inv_all /= g
    first = inv_all / (t - pts[-1])
    second = inv_all / (t - pts[0])
    third = 0.0 + 0j
    for m in range(1, j - 1):
        acc = 1.0 + 0j
        for a in range(j - 2):
            if a != m - 1:
                acc /= gaps[a]
        third += acc
    third /= (t - pts[-1]) * (t - pts[0])
    return abs(first - second - third)

