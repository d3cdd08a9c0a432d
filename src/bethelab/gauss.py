"""Operator-valued Gauss decomposition of the monodromy and the screening
identities relating its coordinates.

The factorization is (unit upper) . (diagonal) . (unit lower) in the block
sense: L_{a,b} = F_{b,a} k_b + sum_{m>b} F_{m,a} k_m E_{b,m} for a < b, and
symmetrically below the diagonal. Elimination runs from the bottom-right
corner; operator order (F left, k middle, E right) is preserved throughout.

Every coordinate keeps the weight grading of the block it comes from (k_b
preserves weight; F_{b,a} and E_{a,b} shift it as L_{a,b} and L_{b,a} do), so
the elimination, the zero modes, the screenings and the identities all run on
`GradedOperator`s, one small matrix per weight.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularCoordinateError
from .repcore import (ChainSpec, GradedLOperator, GradedOperator, monodromy, transfer,
                      zero_modes)

COND_CAP = 1e12


@dataclass(frozen=True)
class GaussData:
    """Diagonal coordinates k_a, off-diagonal F_{b,a} (a<b), E_{a,b} (a<b),
    and the Cartan ratios psi_i = k_i k_{i+1}^{-1}, all at one spectral point."""

    point: complex | None
    k: tuple[GradedOperator, ...]
    F: dict[tuple[int, int], GradedOperator]
    E: dict[tuple[int, int], GradedOperator]
    cond: tuple[float, ...] = field(default_factory=tuple)

    @property
    def N(self) -> int:
        return len(self.k)

    def psi(self, i: int) -> GradedOperator:
        """k_i(t) k_{i+1}(t)^{-1} (1-based, i <= N-1)."""
        if not 1 <= i <= self.N - 1:
            raise DomainError(f"psi index {i} outside 1..{self.N - 1}")
        return self.k[i - 1].right_divide(self.k[i])

    def reconstruct(self) -> GradedLOperator:
        """Reassemble the full block grid from the coordinates."""
        N = self.N
        out = {}
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                if a < b:
                    acc = self.F[(b, a)] @ self.k[b - 1]
                    for m in range(b + 1, N + 1):
                        acc = acc + self.F[(m, a)] @ self.k[m - 1] @ self.E[(b, m)]
                elif a == b:
                    acc = self.k[b - 1]
                    for m in range(b + 1, N + 1):
                        acc = acc + self.F[(m, b)] @ self.k[m - 1] @ self.E[(b, m)]
                else:
                    acc = self.k[a - 1] @ self.E[(b, a)]
                    for m in range(a + 1, N + 1):
                        acc = acc + self.F[(m, a)] @ self.k[m - 1] @ self.E[(b, m)]
                out[(a, b)] = acc
        return GradedLOperator(point=self.point, entries=out)


def gauss_decompose(Lop: GradedLOperator) -> GaussData:
    """Non-commutative bottom-right elimination of a graded block grid.

    At stage b: k_b is the current (b,b) block, F_{b,a} = L'_{a,b} k_b^{-1},
    E_{a,b} = k_b^{-1} L'_{b,a}, then the Schur update removes the rank-one
    (in block sense) contribution from all remaining entries. F and E are
    solves against k_b: an explicit inverse loses digits when k_b is ill-conditioned.
    Every step runs weight by weight.
    """
    N = Lop.N
    work = dict(Lop.entries)
    k: list[GradedOperator] = [None] * N  # type: ignore[list-item]
    F: dict[tuple[int, int], GradedOperator] = {}
    E: dict[tuple[int, int], GradedOperator] = {}
    conds: list[float] = [0.0] * N
    for b in range(N, 0, -1):
        kb = work[(b, b)]
        cond = kb.cond()
        if not np.isfinite(cond) or cond > COND_CAP:
            raise SingularCoordinateError(
                f"diagonal coordinate {b} singular at t={Lop.point} (cond={cond:.2e})")
        k[b - 1] = kb
        conds[b - 1] = cond
        for a in range(1, b):
            F[(b, a)] = work[(a, b)].right_divide(kb)
            E[(a, b)] = work[(b, a)].left_divide(kb)
        for a in range(1, b):
            for c in range(1, b):
                work[(a, c)] = work[(a, c)] - F[(b, a)] @ kb @ E[(c, b)]
    return GaussData(point=Lop.point, k=tuple(k), F=F, E=E, cond=tuple(conds))


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
    """Operator identities among Gauss coordinates, mediated by screenings."""

    F_LOWERING = "f-lowering"       # (q - q^-1) F_{j,i} = S_i(F_{j,i+1})
    E_LOWERING = "e-lowering"       # (q - q^-1) E_{i,j} = S^_i(E_{i+1,j})
    E_ITERATED = "e-iterated"       # E_{m+1,j} from iterated dual screenings
    CARTAN_SHIFT = "cartan-shift"   # S^_i(psi_{i+1}) = (q - q^-1) psi_{i+1} E_{i,i+1}


def _rel_norm(lhs: GradedOperator, rhs: GradedOperator) -> float:
    """||lhs - rhs|| / max(||lhs||, ||rhs||) in the Frobenius norm."""
    scale = max(lhs.norm(), rhs.norm(), 1e-300)
    return (lhs - rhs).norm() / scale


def coordinate_identity_residual(kind: CoordinateIdentity, indices: tuple[int, int],
                                 data: GaussData, zm: ZeroModeSet) -> float:
    """Relative operator-norm residual of one coordinate identity between the
    Gauss coordinates `data` at one point and the zero modes `zm` of its chain.

    indices is (i, j); F_LOWERING / E_LOWERING / E_ITERATED need i < j - 1,
    CARTAN_SHIFT uses only i (j ignored) and needs i <= N - 2.
    """
    q = zm.q
    N = data.N
    i, j = indices
    qdiff = q - 1 / q

    if kind in (CoordinateIdentity.F_LOWERING, CoordinateIdentity.E_LOWERING,
                CoordinateIdentity.E_ITERATED):
        if not (1 <= i < j - 1 and j <= N):
            raise DomainError(f"{kind.value} needs 1 <= i < j-1 <= {N - 1}, got {(i, j)}")
    if kind is CoordinateIdentity.F_LOWERING:
        lhs = qdiff * data.F[(j, i)]
        rhs = screening(i, data.F[(j, i + 1)], zm)
        return _rel_norm(lhs, rhs)
    if kind is CoordinateIdentity.E_LOWERING:
        lhs = qdiff * data.E[(i, j)]
        rhs = screening_dual(i, data.E[(i + 1, j)], zm)
        return _rel_norm(lhs, rhs)
    if kind is CoordinateIdentity.E_ITERATED:
        B = data.E[(j - 1, j)]
        for idx in range(j - 2, i - 1, -1):
            B = screening_dual(idx, B, zm)
        lhs = data.E[(i, j)]
        rhs = qdiff ** (i + 1 - j) * B
        return _rel_norm(lhs, rhs)
    if kind is CoordinateIdentity.CARTAN_SHIFT:
        if not 1 <= i <= N - 2:
            raise DomainError(f"cartan-shift needs 1 <= i <= {N - 2}, got {i}")
        psi = data.psi(i + 1)
        lhs = screening_dual(i, psi, zm)
        rhs = qdiff * psi @ data.E[(i, i + 1)]
        return _rel_norm(lhs, rhs)
    raise DomainError(f"unknown identity kind {kind}")


def normal_order_transfer_residual(chain: ChainSpec, t: complex) -> float:
    """Residual of trace(T) against its Gauss-coordinate expansion
    sum_i (k_i + sum_{j>i} F_{j,i} k_j E_{i,j}). The trace is
    `transfer(chain, t)`, built from its own monodromy."""
    data = gauss_decompose(monodromy(chain, t))
    N = chain.N
    acc = data.k[0]
    for i in range(2, N + 1):
        acc = acc + data.k[i - 1]
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            acc = acc + data.F[(j, i)] @ data.k[j - 1] @ data.E[(i, j)]
    return _rel_norm(transfer(chain, t), acc)
