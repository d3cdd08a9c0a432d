"""Operator-valued Gauss decomposition of the monodromy and the screening
identities relating its coordinates.

The factorization is (unit upper) . (diagonal) . (unit lower) in the block
sense: L_{a,b} = F_{b,a} k_b + sum_{m>b} F_{m,a} k_m E_{b,m} for a < b, and
symmetrically below the diagonal. Elimination runs from the bottom-right
corner; operator order (F left, k middle, E right) is preserved throughout.

Every coordinate keeps the weight grading of the block it comes from (k_b
preserves weight; F_{b,a} and E_{a,b} shift it as L_{a,b} and L_{b,a} do), so
the elimination, the zero modes, the screenings and the identities all run on
`GradedOperator`s, one small matrix per weight, and per point for a batch.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularCoordinateError
from .repcore import (ChainSpec, GradedLOperator, GradedOperator, squared_norm, transfer,
                      zero_modes)

COND_CAP = 1e12


@dataclass(frozen=True)
class GaussData:
    """Diagonal coordinates k_a, off-diagonal F_{b,a} (a<b), E_{a,b} (a<b),
    and the Cartan ratios psi_i = k_i k_{i+1}^{-1}, at the grid's point(s)."""

    point: object
    k: tuple[GradedOperator, ...]
    F: dict[tuple[int, int], GradedOperator]
    E: dict[tuple[int, int], GradedOperator]

    @property
    def N(self) -> int:
        return len(self.k)

    def psi(self, i: int) -> GradedOperator:
        """k_i(t) k_{i+1}(t)^{-1} (1-based, i <= N-1)."""
        if not 1 <= i <= self.N - 1:
            raise DomainError(f"psi index {i} outside 1..{self.N - 1}")
        return self.k[i - 1].right_divide(self.k[i])

    def entry(self, a: int, b: int) -> GradedOperator:
        """Entry (a, b) of the product (1 + F) k (1 + E), 1-based."""
        if a < b:
            acc = self.F[(b, a)] @ self.k[b - 1]
        elif a == b:
            acc = self.k[b - 1]
        else:
            acc = self.k[a - 1] @ self.E[(b, a)]
        for m in range(max(a, b) + 1, self.N + 1):
            acc = acc + self.F[(m, a)] @ self.k[m - 1] @ self.E[(b, m)]
        return acc


def reconstruction_residual(data: GaussData, T: GradedLOperator):
    """||(1 + F) k (1 + E) - T|| / ||T|| in the Frobenius norm, one grid entry
    at a time: each product entry and its difference with T's entry are
    dropped once their blocks are summed, so no whole product or difference
    grid is held. Entries are visited row-major, and the per-block |x|^2 go
    through the one builtin `sum` of `frobenius`, in the order in which a
    whole difference grid would hold them."""
    N = data.N
    squares = sum(squared_norm(M, (-2, -1)) for a in range(1, N + 1) for b in range(1, N + 1)
                  for M in (data.entry(a, b) - T.entry(a, b)).blocks.values())
    return np.sqrt(squares) / T.norm()


def gauss_decompose(Lop: GradedLOperator) -> GaussData:
    """Non-commutative bottom-right elimination of a graded block grid.

    At stage b: k_b is the current (b,b) block, F_{b,a} = L'_{a,b} k_b^{-1},
    E_{a,b} = k_b^{-1} L'_{b,a}, then the Schur update removes the rank-one
    (in block sense) contribution from all remaining entries. F and E are
    solves against k_b: an explicit inverse loses digits when k_b is ill-conditioned.
    Every step runs weight by weight, on all points at once. A singular k_b
    raises the error of the first singular point, as if the points ran one
    after another."""
    N = Lop.N
    work = dict(Lop.entries)
    k: list[GradedOperator] = [None] * N  # type: ignore[list-item]
    F: dict[tuple[int, int], GradedOperator] = {}
    E: dict[tuple[int, int], GradedOperator] = {}
    for b in range(N, 0, -1):
        cond = np.reshape(work[(b, b)].cond(), -1)
        for p in np.flatnonzero(~(cond <= COND_CAP))[:1]:
            if p:  # the points before it go first: one may be singular at a later stage
                gauss_decompose(GradedLOperator(Lop.point[:p], {
                    key: GradedOperator(op.L, op.shift, {nu: M[:p] for nu, M in op.blocks.items()})
                    for key, op in Lop.entries.items()}))
            t = Lop.point[p] if np.ndim(Lop.point) else Lop.point
            raise SingularCoordinateError(
                f"diagonal coordinate {b} singular at t={t} (cond={cond[p]:.2e})")
        kb = k[b - 1] = work[(b, b)]
        for a in range(1, b):
            F[(b, a)] = work[(a, b)].right_divide(kb)
            E[(a, b)] = work[(b, a)].left_divide(kb)
        for a in range(1, b):
            for c in range(1, b):
                work[(a, c)] = work[(a, c)] - F[(b, a)] @ kb @ E[(c, b)]
    return GaussData(point=Lop.point, k=tuple(k), F=F, E=E)


@dataclass(frozen=True)
class ZeroModeSet:
    """Zero modes of the raising/lowering coordinates, extracted from the
    closed-form spectral limits: F_i[0] from the upper limit via
    L^inf_{i,i+1} = F_i[0] k^inf_{i+1}, E_i[0] from the lower limit via
    L^0_{i+1,i} = -k^0_{i+1} E_i[0]."""

    q: complex
    Fzero: dict[int, GradedOperator]
    Ezero: dict[int, GradedOperator]


def zero_mode_set(chain: ChainSpec) -> ZeroModeSet:
    plus, minus = zero_modes(chain)
    Fz = {}
    Ez = {}
    for i in range(1, chain.N):
        Fz[i] = plus.entry(i, i + 1).right_divide(plus.entry(i + 1, i + 1))
        Ez[i] = -minus.entry(i + 1, i).left_divide(minus.entry(i + 1, i + 1))
    return ZeroModeSet(q=chain.ctx.q, Fzero=Fz, Ezero=Ez)


def screening(i: int, B: GradedOperator, zm: ZeroModeSet) -> GradedOperator:
    """q-commutator with the lowering zero mode: B A - q^-1 A B, A = F_i[0]."""
    A = zm.Fzero[i]
    return B @ A - (A @ B) / zm.q


def screening_dual(i: int, B: GradedOperator, zm: ZeroModeSet) -> GradedOperator:
    """Dual q-commutator: A B - q B A with A = E_i[0]."""
    A = zm.Ezero[i]
    return A @ B - zm.q * (B @ A)


class CoordinateIdentity(enum.Enum):
    """Operator identities among Gauss coordinates, mediated by screenings.
    The value names the identity's check, `anchor` states it, and `pairs`
    lists the index pairs it is checked at. Iterated screenings need no
    identity of their own: E_{i,j} from S^_i ... S^_{j-2}(E_{j-1,j}) is
    e-lowering at (i, j), (i+1, j), ..., (j-2, j) composed."""

    F_LOWERING = "f-lowering", "(q - 1/q) F_{j,i} = S_i(F_{j,i+1})"
    E_LOWERING = "e-lowering", "(q - 1/q) E_{i,j} = S^_i(E_{i+1,j})"
    CARTAN_SHIFT = "cartan-shift", "S^_i(psi_{i+1}) = (q - 1/q) psi_{i+1} E_{i,i+1}"

    def __new__(cls, value: str, anchor: str):
        member = object.__new__(cls)
        member._value_, member.anchor = value, anchor
        return member

    def pairs(self, N: int) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j) at rank N: every i < j - 1 <= N - 1 for the
        lowering identities, and (i, 0) for i <= N - 2 for cartan-shift,
        which reads only i."""
        if self is CoordinateIdentity.CARTAN_SHIFT:
            return tuple((i, 0) for i in range(1, N - 1))
        return tuple((i, j) for j in range(1, N + 1) for i in range(1, j - 1))


def _rel_norm(lhs: GradedOperator, rhs: GradedOperator):
    """||lhs - rhs|| / max(||lhs||, ||rhs||) in the Frobenius norm, per point."""
    scale = np.maximum(np.maximum(lhs.norm(), rhs.norm()), 1e-300)
    return (lhs - rhs).norm() / scale


def coordinate_identity_residual(kind: CoordinateIdentity, indices: tuple[int, int],
                                 data: GaussData, zm: ZeroModeSet):
    """Relative operator-norm residual of one coordinate identity between the
    Gauss coordinates `data` at one point and the zero modes `zm` of its chain,
    at `indices`, one of `kind.pairs(data.N)`."""
    pairs = kind.pairs(data.N)
    if indices not in pairs:
        raise DomainError(f"{kind.value} at N={data.N} takes (i, j) in {pairs}, got {indices}")
    qdiff = zm.q - 1 / zm.q
    i, j = indices
    if kind is CoordinateIdentity.F_LOWERING:
        lhs = qdiff * data.F[(j, i)]
        rhs = screening(i, data.F[(j, i + 1)], zm)
    elif kind is CoordinateIdentity.E_LOWERING:
        lhs = qdiff * data.E[(i, j)]
        rhs = screening_dual(i, data.E[(i + 1, j)], zm)
    else:
        psi = data.psi(i + 1)
        lhs = screening_dual(i, psi, zm)
        rhs = qdiff * psi @ data.E[(i, i + 1)]
    return _rel_norm(lhs, rhs)


def normal_order_transfer_residual(chain: ChainSpec, data: GaussData):
    """Residual of trace(T) against the trace of the Gauss product of `data`,
    sum_i `data.entry(i, i)` = sum_i (k_i + sum_{j>i} F_{j,i} k_j E_{i,j}).
    The trace is `transfer(chain, data.point)`, built from its own monodromy."""
    acc = sum((data.entry(i, i) for i in range(2, data.N + 1)), data.entry(1, 1))
    return _rel_norm(transfer(chain, data.point), acc)
