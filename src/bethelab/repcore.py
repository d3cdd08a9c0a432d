"""Dense tensor algebra: trigonometric R-matrix, inhomogeneous monodromy,
transfer matrices and vacuum data on fundamental evaluation chains.

Conventions fixed here and locked by tests:
  * tensor products are aux-first Kronecker products; site 1 is the slowest
    quantum index after the auxiliary leg;
  * the monodromy is T(t) = K_aux . R_{a,L}(t, z_L) ... R_{a,1}(t, z_1) with
    K_aux = diag(kappa) acting in the auxiliary space;
  * with these choices the block grid T_{i,j} annihilates the reference state
    for i > j and the t -> infinity / t -> 0 limits are block upper/lower
    triangular.

The R-matrix entries are laid out in one place, from a coefficient triple
(b, cu, cv): `r_matrix` takes the triple at spectral points (u, v), and the
monodromy contracts that same layout into its block grid one site at a time.
The two spectral-limit operators pass their limiting triples in closed form
to the same contraction, never by large-argument evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import DeformationContext
from .errors import CapacityError, DomainError, PoleError
from .kernels import RationalFunction

DIMENSION_CAP = 4096


@dataclass(frozen=True)
class ChainSpec:
    """Inhomogeneous twisted chain: rank N, length L, sites z, twist kappa."""

    N: int
    L: int
    z: tuple[complex, ...]
    kappa: tuple[complex, ...]
    ctx: DeformationContext

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(complex(v) for v in self.z))
        object.__setattr__(self, "kappa", tuple(complex(v) for v in self.kappa))
        if self.N < 2:
            raise DomainError("rank must be at least 2")
        if self.L < 0:
            raise DomainError("length must be non-negative")
        if len(self.z) != self.L:
            raise DomainError(f"expected {self.L} inhomogeneities, got {len(self.z)}")
        if len(self.kappa) != self.N:
            raise DomainError(f"expected {self.N} twist entries, got {len(self.kappa)}")
        if any(v == 0 for v in self.z):
            raise DomainError("inhomogeneities must be nonzero")
        for i in range(self.L):
            for k in range(i + 1, self.L):
                if self.z[i] == self.z[k]:
                    raise DomainError("inhomogeneities must be pairwise distinct")
        if any(v == 0 for v in self.kappa):
            raise DomainError("twist entries must be nonzero")
        if self.N ** self.L > DIMENSION_CAP:
            raise CapacityError(f"Hilbert space {self.N}^{self.L} exceeds cap {DIMENSION_CAP}")

    @property
    def dim(self) -> int:
        return self.N ** self.L


@dataclass(frozen=True)
class BlockLOperator:
    """N x N grid of quantum-space operators at one spectral point."""

    point: complex | None
    blocks: np.ndarray  # shape (N, N, dim, dim)
    source: str = "finite"

    @property
    def N(self) -> int:
        return self.blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    def entry(self, i: int, j: int) -> np.ndarray:
        """Block T_{i,j} (1-based auxiliary indices)."""
        return self.blocks[i - 1, j - 1]

    def transfer(self) -> np.ndarray:
        return sum(self.blocks[i, i] for i in range(self.N))


def r_matrix(u: complex, v: complex, N: int, ctx: DeformationContext) -> np.ndarray:
    """Trigonometric R-matrix on C^N (x) C^N at spectral points (u, v)."""
    return _r_from_coefficients(_r_coefficients(u, v, ctx), N)


def _r_coefficients(u: complex, v: complex, ctx: DeformationContext):
    q = ctx.q
    den = q * u - v / q
    if abs(den) <= ctx.pole_margin * max(abs(u), abs(v), 1e-300):
        raise PoleError(f"R-matrix pole: |qu - v/q| = {abs(den):.3e}")
    return (u - v) / den, (q - 1 / q) * u / den, (q - 1 / q) * v / den


def _r_from_coefficients(coeffs: tuple[complex, complex, complex], N: int) -> np.ndarray:
    """The R-matrix entry layout for a coefficient triple (b, cu, cv)."""
    b, cu, cv = coeffs
    R = np.zeros((N * N, N * N), dtype=complex)
    for i in range(N):
        R[i * N + i, i * N + i] = 1.0
    for i in range(N):
        for j in range(N):
            if i < j:
                R[i * N + j, i * N + j] = b
                R[j * N + i, j * N + i] = b
                R[i * N + j, j * N + i] = cu
                R[j * N + i, i * N + j] = cv
    return R


def _product_with_coefficients(chain: ChainSpec,
                               coeffs: list[tuple[complex, complex, complex]],
                               point: complex | None, source: str) -> BlockLOperator:
    """K_aux . R_{a,L} ... R_{a,1}, contracted into the block grid site by site.

    Each R factor touches only the auxiliary leg and its own site's column
    leg, so one factor costs nnz(R) slice updates of d^2 entries each.
    Only the nonzero entries of R are accumulated, which keeps the exact
    zeros of the zero-mode limits.
    """
    N, L, d = chain.N, chain.L, chain.dim
    blocks = np.zeros((N, N, d, d), dtype=complex)
    for i in range(N):
        blocks[i, i] = chain.kappa[i] * np.eye(d)
    for site in range(L, 0, -1):
        R = _r_from_coefficients(coeffs[site - 1], N).reshape(N, N, N, N)
        grid = (N, N, d, N ** (site - 1), N, N ** (L - site))
        X = blocks.reshape(grid)
        out = np.zeros(grid, dtype=complex)
        for k, m, j, n in zip(*np.nonzero(R)):
            out[:, j, :, :, n] += R[k, m, j, n] * X[:, k, :, :, m]
        blocks = out.reshape(N, N, d, d)
    return BlockLOperator(point=point, blocks=blocks, source=source)


def monodromy(chain: ChainSpec, t: complex) -> BlockLOperator:
    """Blockwise monodromy T(t); raises PoleError near R-matrix poles."""
    coeffs = [_r_coefficients(t, zl, chain.ctx) for zl in chain.z]
    return _product_with_coefficients(chain, coeffs, t, "finite")


def transfer(chain: ChainSpec, t: complex) -> np.ndarray:
    """Trace of the monodromy over the auxiliary space."""
    return monodromy(chain, t).transfer()


def zero_modes(chain: ChainSpec) -> tuple[BlockLOperator, BlockLOperator]:
    """Spectral-limit operators (t -> infinity, t -> 0) in closed form.

    The first is block upper triangular, the second block lower triangular,
    with invertible diagonal blocks; no relation between the two diagonals is
    imposed (the twist keeps the zero modes free).
    """
    q = chain.ctx.q
    plus = _product_with_coefficients(
        chain, [(1 / q, (q - 1 / q) / q, 0.0)] * chain.L, None, "plus-limit")
    minus = _product_with_coefficients(
        chain, [(q + 0j, 0.0, 1 - q * q)] * chain.L, None, "minus-limit")
    return plus, minus


def vacuum_data(chain: ChainSpec) -> tuple[np.ndarray, list[RationalFunction]]:
    """Reference vector e_1^(x)L and the N diagonal eigenvalue functions.

    lambda_1(t) = kappa_1 and lambda_i(t) = kappa_i prod_l (t - z_l)/(qt - z_l/q)
    for i >= 2; the contract T_{i,j} Omega = 0 (i > j), T_{i,i} Omega =
    lambda_i Omega is verified by tests, not assumed.
    """
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    q = chain.ctx.q
    z = np.asarray(chain.z)

    def make(i):
        if i == 1:
            return RationalFunction(("t",), lambda t: chain.kappa[0] + 0j)

        def fn(t, _i=i):
            return chain.kappa[_i - 1] * complex(np.prod((t - z) / (q * t - z / q)))

        def dist(t):
            if len(z) == 0:
                return np.inf
            return float(min(abs(q * t - zl / q) / max(abs(t), abs(zl)) for zl in z))

        return RationalFunction(("t",), fn, dist)

    return omega, [make(i) for i in range(1, chain.N + 1)]


def rll_residual(chain: ChainSpec, u: complex, v: complex) -> float:
    """Relative norm of the exchange relation R (T x 1)(1 x T) = (1 x T)(T x 1) R."""
    N, d = chain.N, chain.dim
    Tu = monodromy(chain, u).blocks
    Tv = monodromy(chain, v).blocks
    R = r_matrix(u, v, N, chain.ctx)
    left_prod = np.einsum("ijab,klbc->ikjlac", Tu, Tv, optimize=True)
    right_prod = np.einsum("klab,ijbc->ikjlac", Tv, Tu, optimize=True)
    left_prod = left_prod.reshape(N * N, N * N, d, d)
    right_prod = right_prod.reshape(N * N, N * N, d, d)
    lhs = np.einsum("pq,qrac->prac", R, left_prod, optimize=True)
    rhs = np.einsum("pqac,qr->prac", right_prod, R, optimize=True)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def yang_baxter_residual(u: complex, v: complex, w: complex, N: int,
                         ctx: DeformationContext) -> float:
    """Relative norm of R12 R13 R23 - R23 R13 R12 on C^N (x) C^N (x) C^N."""
    eye = np.eye(N)
    R12 = np.kron(r_matrix(u, v, N, ctx), eye)
    R23 = np.kron(eye, r_matrix(v, w, N, ctx))
    R13 = _embed_13(r_matrix(u, w, N, ctx), N)
    lhs = R12 @ R13 @ R23
    rhs = R23 @ R13 @ R12
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))


def _embed_13(R: np.ndarray, N: int) -> np.ndarray:
    R4 = R.reshape(N, N, N, N)
    t = np.einsum("ACac,Bb->ABCabc", R4, np.eye(N), optimize=True)
    return t.reshape(N ** 3, N ** 3)


def permutation_operator(N: int) -> np.ndarray:
    P = np.zeros((N * N, N * N))
    for i in range(N):
        for j in range(N):
            P[i * N + j, j * N + i] = 1.0
    return P


def transfer_commutator_residual(chain: ChainSpec, u: complex, v: complex) -> float:
    """Relative commutator norm of transfer matrices at two spectral points."""
    Tu = transfer(chain, u)
    Tv = transfer(chain, v)
    comm = Tu @ Tv - Tv @ Tu
    scale = max(np.linalg.norm(Tu @ Tv), 1e-300)
    return float(np.linalg.norm(comm) / scale)


def vacuum_residuals(chain: ChainSpec, t: complex) -> tuple[float, float]:
    """(triangularity, eigenvalue) residuals of the block action on the vacuum."""
    omega, lambdas = vacuum_data(chain)
    T = monodromy(chain, t)
    tri = 0.0
    eig = 0.0
    for i in range(1, chain.N + 1):
        for j in range(1, chain.N + 1):
            act = T.entry(i, j) @ omega
            scale = max(np.linalg.norm(T.entry(i, j)), 1e-300)
            if i > j:
                tri = max(tri, float(np.linalg.norm(act) / scale))
            elif i == j:
                lam = lambdas[i - 1](t)
                eig = max(eig, float(np.linalg.norm(act - lam * omega)
                                     / max(abs(lam), scale, 1e-300)))
    return tri, eig
