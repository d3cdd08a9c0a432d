"""Tensor algebra: trigonometric R-matrix, inhomogeneous monodromy,
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
(b, cu, cv): `r_matrix` takes the triple at spectral points (u, v). The
monodromy has one matrix-free kernel, `apply_monodromy`, which applies that
same layout site by site to a batch of aux (x) quantum vectors; `transfer_apply`
and `entry_apply` are T(t) v and T_{i,j}(t) v through it. Dense block grids
(`monodromy`, `transfer`, `zero_modes`) are the kernel applied to the
aux (x) identity basis. The two spectral-limit operators pass their limiting
triples in closed form to the same kernel, never by large-argument evaluation.
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


def apply_monodromy(chain: ChainSpec, coeffs: list[tuple[complex, complex, complex]],
                    X: np.ndarray) -> np.ndarray:
    """K_aux . R_{a,L} ... R_{a,1} applied to a batch of aux (x) quantum vectors.

    `X` is laid out batch-last as (N, dim, B); `coeffs` holds one R-matrix
    coefficient triple per site. The factors act one site at a time, R_{a,1}
    first: each touches only the auxiliary leg and its own site's leg, so it
    costs nnz(R) slice updates of dim * B / N entries. Only the nonzero
    entries of R are accumulated, which keeps the exact zeros of the
    zero-mode limits.
    """
    N, L, d = chain.N, chain.L, chain.dim
    B = X.shape[-1]
    for site in range(1, L + 1):
        R = _r_from_coefficients(coeffs[site - 1], N).reshape(N, N, N, N)
        X = _apply_site(R, X.reshape(N, N ** (site - 1), N, N ** (L - site) * B))
    return np.asarray(chain.kappa)[:, None, None] * X.reshape(N, d, B)


def _apply_site(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """out[k, :, m] = sum R[k, m, j, n] X[j, :, n] over the nonzeros of R.

    A separate frame, so the input of each site is released as soon as the
    next one is built: a dense build holds two working grids, not three.
    """
    out = np.zeros(X.shape, dtype=complex)
    for k, m, j, n in zip(*np.nonzero(R)):
        out[k, :, m] += R[k, m, j, n] * X[j, :, n]
    return out


def _point_coefficients(chain: ChainSpec, t: complex) -> list[tuple[complex, complex, complex]]:
    return [_r_coefficients(t, zl, chain.ctx) for zl in chain.z]


def _zero_mode_coefficients(q: complex) -> tuple[tuple[complex, complex, complex], ...]:
    """Per-site coefficient triples of the t -> infinity and t -> 0 limits."""
    return (1 / q, (q - 1 / q) / q, 0.0), (q + 0j, 0.0, 1 - q * q)


def _block_grid(chain: ChainSpec, coeffs: list[tuple[complex, complex, complex]],
                point: complex | None, source: str) -> BlockLOperator:
    """Dense block grid: the monodromy kernel applied to the aux (x) identity
    basis X[j, :, j, :] = I_dim."""
    N, d = chain.N, chain.dim
    # the basis is passed without a name here, so the kernel can drop it
    # after the first site
    Y = apply_monodromy(chain, coeffs, np.eye(N * d, dtype=complex).reshape(N, d, N * d))
    blocks = np.ascontiguousarray(Y.reshape(N, d, N, d).transpose(0, 2, 1, 3))
    return BlockLOperator(point=point, blocks=blocks, source=source)


def monodromy(chain: ChainSpec, t: complex) -> BlockLOperator:
    """Blockwise monodromy T(t); raises PoleError near R-matrix poles."""
    return _block_grid(chain, _point_coefficients(chain, t), t, "finite")


def transfer(chain: ChainSpec, t: complex) -> np.ndarray:
    """Trace of the monodromy over the auxiliary space."""
    return monodromy(chain, t).transfer()


def transfer_apply(chain: ChainSpec, t: complex, v: np.ndarray) -> np.ndarray:
    """T(t) v = sum_j <j| T(t) |j> v, without building the block grid."""
    N = chain.N
    X = np.zeros((N, chain.dim, N), dtype=complex)
    for j in range(N):
        X[j, :, j] = v
    Y = apply_monodromy(chain, _point_coefficients(chain, t), X)
    return sum(Y[j, :, j] for j in range(N))


def entry_apply(chain: ChainSpec, t: complex, i: int, j: int, v: np.ndarray) -> np.ndarray:
    """T_{i,j}(t) v (1-based auxiliary indices) for v of shape (dim,) or
    (dim, B), without building the block grid."""
    X = np.zeros((chain.N,) + v.shape, dtype=complex)
    X[j - 1] = v
    Y = apply_monodromy(chain, _point_coefficients(chain, t), X.reshape(chain.N, chain.dim, -1))
    return Y[i - 1].reshape(v.shape)


def zero_modes(chain: ChainSpec) -> tuple[BlockLOperator, BlockLOperator]:
    """Spectral-limit operators (t -> infinity, t -> 0) in closed form.

    The first is block upper triangular, the second block lower triangular,
    with invertible diagonal blocks; no relation between the two diagonals is
    imposed (the twist keeps the zero modes free).
    """
    plus, minus = _zero_mode_coefficients(chain.ctx.q)
    return (_block_grid(chain, [plus] * chain.L, None, "plus-limit"),
            _block_grid(chain, [minus] * chain.L, None, "minus-limit"))


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
    """Relative norm of the exchange relation R (T x 1)(1 x T) = (1 x T)(T x 1) R.

    With p = (i, k), q and r = (j, l) aux-pair indices, both sides are
    accumulated one column r at a time, summing over the nonzeros of R:

        lhs[p, r] = sum_q R[p, q] T(u)_{q // N, r // N} T(v)_{q % N, r % N}
        rhs[p, r] = sum_q T(v)_{p % N, q % N} T(u)_{p // N, q // N} R[q, r]

    so no (N^2, N^2, dim, dim) product is ever held. Each column's products
    are batched matmuls: N^2 + nnz(R) BLAS calls in all rather than one per
    block product, since every return from BLAS waits for the GIL while
    other checks run on the pool.
    """
    N, d = chain.N, chain.dim
    Tu = monodromy(chain, u).blocks
    Tv = monodromy(chain, v).blocks
    R = r_matrix(u, v, N, chain.ctx)
    lhs_sq = rhs_sq = diff_sq = 0.0
    for r in range(N * N):
        j, l = divmod(r, N)
        left = np.matmul(Tu[:, None, j], Tv[None, :, l]).reshape(N * N, d, d)
        lhs = np.tensordot(R, left, axes=1)
        rhs = np.zeros((N * N, d, d), dtype=complex)
        for q in np.flatnonzero(R[:, r]):
            right = np.matmul(Tv[None, :, q % N], Tu[:, None, q // N])
            rhs += R[q, r] * right.reshape(N * N, d, d)
        lhs_sq += np.vdot(lhs, lhs).real
        rhs_sq += np.vdot(rhs, rhs).real
        lhs -= rhs
        diff_sq += np.vdot(lhs, lhs).real
    scale = max(np.sqrt(lhs_sq), np.sqrt(rhs_sq), 1e-300)
    return float(np.sqrt(diff_sq) / scale)


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
