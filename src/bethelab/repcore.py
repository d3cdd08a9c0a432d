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
and `entry_apply` are T(t) v and T_{i,j}(t) v through it. The two
spectral-limit operators pass their limiting triples in closed form, never by
large-argument evaluation.

Weight grading: every R-matrix factor keeps the colour counts of aux (x) site,
so T_{i,j}(t) maps quantum weight nu to nu + e_j - e_i. The operator grids
(`monodromy`, `zero_modes`) hold each T_{i,j} as one small matrix per weight,
built site by site on the states of one total weight W = nu + e_aux at a time,
and never hold a dim x dim block; `transfer` is the weight-preserving sum of
the diagonal entries. `.dense()` gives the dense view, for tests and small
chains.

The operator checks (`rll_residual`, `transfer_commutator_residual`,
`zero_mode_residuals`) test their identities on PROBES seeded random vectors
instead of forming the operators (Freivalds-style verification).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .context import DeformationContext
from .errors import CapacityError, DomainError, PoleError
from .kernels import RationalFunction

DIMENSION_CAP = 4096

# random probe vectors per operator-identity draw
PROBES = 4


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


def occupancy(index: int, N: int, L: int) -> tuple[int, ...]:
    """Color counts of a basis state (site 1 is the slowest index)."""
    digits = []
    x = index
    for _ in range(L):
        digits.append(x % N)
        x //= N
    return tuple(digits.count(c) for c in range(N))


@functools.lru_cache(maxsize=None)
def weight_basis(N: int, L: int) -> dict[tuple[int, ...], np.ndarray]:
    """Quantum basis indices grouped by weight (their occupancy), ascending
    within each weight. The index arrays are read-only: the cache shares them."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for index in range(N ** L):
        groups.setdefault(occupancy(index, N, L), []).append(index)
    out = {}
    for nu, indices in sorted(groups.items()):
        out[nu] = np.array(indices)
        out[nu].setflags(write=False)
    return out


def _shifted(nu: tuple[int, ...], shift: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(nu, shift))


def _difference(nu: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(nu, mu))


@dataclass(frozen=True)
class GradedOperator:
    """Quantum-space operator that maps weight nu to nu + shift, stored as one
    matrix per source weight nu: rows in the basis of nu + shift, columns in
    the basis of nu, both ordered as in `weight_basis`. A missing block is zero.

    Products, sums, scalar multiples, solves against weight-preserving
    operators and norms all work block by block.
    """

    L: int
    shift: tuple[int, ...]
    blocks: dict[tuple[int, ...], np.ndarray]

    @property
    def N(self) -> int:
        return len(self.shift)

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        blocks = {}
        for nu, B in other.blocks.items():
            A = self.blocks.get(_shifted(nu, other.shift))
            if A is not None:
                blocks[nu] = A @ B
        return GradedOperator(self.L, _shifted(self.shift, other.shift), blocks)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return self._combine(other, 1.0)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self._combine(other, -1.0)

    def _combine(self, other: "GradedOperator", sign: float) -> "GradedOperator":
        if other.shift != self.shift:
            raise DomainError(f"cannot add weight shifts {self.shift} and {other.shift}")
        blocks = dict(self.blocks)
        for nu, B in other.blocks.items():
            blocks[nu] = blocks[nu] + sign * B if nu in blocks else sign * B
        return GradedOperator(self.L, self.shift, blocks)

    def __mul__(self, c: complex) -> "GradedOperator":
        return GradedOperator(self.L, self.shift, {nu: c * M for nu, M in self.blocks.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "GradedOperator":
        return self * -1.0

    def __truediv__(self, c: complex) -> "GradedOperator":
        return GradedOperator(self.L, self.shift, {nu: M / c for nu, M in self.blocks.items()})

    def right_divide(self, K: "GradedOperator") -> "GradedOperator":
        """self . K^{-1} for a weight-preserving K, by solves, not inverses."""
        return GradedOperator(self.L, self.shift, {
            nu: np.linalg.solve(K.blocks[nu].T, M.T).T for nu, M in self.blocks.items()})

    def left_divide(self, K: "GradedOperator") -> "GradedOperator":
        """K^{-1} . self for a weight-preserving K, by solves, not inverses."""
        return GradedOperator(self.L, self.shift, {
            nu: np.linalg.solve(K.blocks[_shifted(nu, self.shift)], M)
            for nu, M in self.blocks.items()})

    def cond(self) -> float:
        """2-norm condition number: the largest singular value of any block
        over the smallest of any block, which is the dense value."""
        s = [np.linalg.svd(M, compute_uv=False) for M in self.blocks.values()]
        hi = max(float(v[0]) for v in s)
        lo = min(float(v[-1]) for v in s)
        return hi / lo if lo > 0 else float("inf")

    def norm(self) -> float:
        """Frobenius norm."""
        return frobenius(*self.blocks.values())

    def dense(self) -> np.ndarray:
        basis = weight_basis(self.N, self.L)
        out = np.zeros((self.N ** self.L,) * 2, dtype=complex)
        for nu, M in self.blocks.items():
            out[np.ix_(basis[_shifted(nu, self.shift)], basis[nu])] = M
        return out


@dataclass(frozen=True)
class GradedLOperator:
    """N x N grid of graded operators at one spectral point; entry (i, j)
    (1-based) maps weight nu to nu + e_j - e_i."""

    point: complex | None
    entries: dict[tuple[int, int], GradedOperator]

    @property
    def N(self) -> int:
        return max(i for i, _ in self.entries)

    def entry(self, i: int, j: int) -> GradedOperator:
        return self.entries[(i, j)]

    def __sub__(self, other: "GradedLOperator") -> "GradedLOperator":
        return GradedLOperator(self.point, {
            ij: op - other.entries[ij] for ij, op in self.entries.items()})

    def norm(self) -> float:
        """Frobenius norm of the whole grid."""
        return frobenius(*(M for op in self.entries.values() for M in op.blocks.values()))

    def dense(self) -> np.ndarray:
        """The (N, N, dim, dim) block grid."""
        N = self.N
        return np.array([[self.entries[(i, j)].dense() for j in range(1, N + 1)]
                         for i in range(1, N + 1)])


def frobenius(*arrays: np.ndarray) -> float:
    """Frobenius norm of the arrays taken together, from a pairwise `np.sum`
    of |x|^2 per array. It makes no BLAS call, so, unlike `np.linalg.norm`,
    its value does not depend on the BLAS thread count."""
    return float(np.sqrt(sum(float(np.sum(np.square(x.real) + np.square(x.imag)))
                             for x in arrays)))


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
    next one is built: a batch is held in two working copies, not three.
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


@functools.lru_cache(maxsize=None)
def _weight_sectors(N: int, L: int) -> list[tuple[list, np.ndarray, list]]:
    """The aux (x) quantum states of each total weight W, which every R-matrix
    factor keeps: e_b (x) |x> for every aux b and every x of weight W - e_b,
    aux-major and each aux's states in `weight_basis` order.

    Per W: the parts (aux b, source weight W - e_b, its slice of W's states),
    the aux digit of every state, and per site (site 1 first) that site's
    digit of every state and the position of the state with the two digits
    exchanged, which is where an R factor moves the state's amplitude.
    """
    basis = weight_basis(N, L)
    d = N ** L
    unit = [tuple(int(a == b) for a in range(N)) for b in range(N)]
    out = []
    for W in sorted({_shifted(nu, e) for nu in basis for e in unit}):
        parts, aux, index = [], [], []
        for b in range(N):
            nu = _difference(W, unit[b])
            if nu in basis:
                parts.append((b, nu, slice(len(index), len(index) + len(basis[nu]))))
                aux += [b] * len(basis[nu])
                index += list(basis[nu])
        aux, index = np.array(aux), np.array(index)
        position = np.zeros(N * d, dtype=int)
        position[aux * d + index] = np.arange(len(index))
        sites = []
        for site in range(1, L + 1):
            stride = N ** (L - site)
            digit = index // stride % N
            sites.append((digit, position[digit * d + index + (aux - digit) * stride]))
        out.append((parts, aux, sites))
    return out


def _graded_grid(chain: ChainSpec, coeffs: list[tuple[complex, complex, complex]],
                 point: complex | None) -> GradedLOperator:
    """Graded block grid: the monodromy applied to each total weight W's
    states alone. Site by site, R_{a,l} keeps a state's amplitude (factor
    R[a s, a s] for aux digit a, site digit s) and moves it to the state with
    a and s exchanged (factor R[s a, a s]), the same products and sums as
    `apply_monodromy`, so the blocks equal the entries of that kernel applied
    to the aux (x) identity basis exactly.
    The rows of aux a give T_{a,b} on the source weight W - e_b."""
    N, L = chain.N, chain.L
    unit = [tuple(int(a == b) for a in range(N)) for b in range(N)]
    blocks: dict[tuple[int, int], dict] = {(i, j): {} for i in range(1, N + 1)
                                            for j in range(1, N + 1)}
    factors = [_r_from_coefficients(coeff, N).reshape(N, N, N, N) for coeff in coeffs]
    for parts, aux, sites in _weight_sectors(N, L):
        Y = np.eye(len(aux), dtype=complex)
        for R, (digit, swap) in zip(factors, sites):
            keep = R[aux, digit, aux, digit]
            move = np.where(aux == digit, 0.0, R[digit, aux, aux, digit])[swap]
            Y = keep[:, None] * Y + move[:, None] * Y[swap]
        Y = np.asarray(chain.kappa)[aux][:, None] * Y
        for a, _, rows in parts:
            for b, nu, cols in parts:
                blocks[(a + 1, b + 1)][nu] = Y[rows, cols]
    entries = {(i, j): GradedOperator(L, _difference(unit[j - 1], unit[i - 1]), ops)
               for (i, j), ops in blocks.items()}
    return GradedLOperator(point=point, entries=entries)


def monodromy(chain: ChainSpec, t: complex) -> GradedLOperator:
    """The monodromy T(t) as a graded grid; raises PoleError near R-matrix poles."""
    return _graded_grid(chain, _point_coefficients(chain, t), t)


def transfer(chain: ChainSpec, t: complex) -> GradedOperator:
    """Trace of the monodromy over the auxiliary space, sum_i T_{i,i}(t): a
    weight-preserving operator, one block per weight."""
    T = monodromy(chain, t)
    out = T.entry(1, 1)
    for i in range(2, chain.N + 1):
        out = out + T.entry(i, i)
    return out


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


def zero_modes(chain: ChainSpec) -> tuple[GradedLOperator, GradedLOperator]:
    """Spectral-limit operators (t -> infinity, t -> 0) in closed form, as
    graded grids.

    The first is block upper triangular, the second block lower triangular,
    with invertible diagonal blocks; no relation between the two diagonals is
    imposed (the twist keeps the zero modes free).
    """
    plus, minus = _zero_mode_coefficients(chain.ctx.q)
    return (_graded_grid(chain, [plus] * chain.L, None),
            _graded_grid(chain, [minus] * chain.L, None))


def zero_mode_residuals(chain: ChainSpec, rng: np.random.Generator) -> list[float]:
    """Largest entry of T_{i,j} X on PROBES random quantum vectors X drawn
    from `rng`, for every block that a spectral limit keeps exactly zero:
    i > j at t -> infinity, i < j at t -> 0."""
    N, d = chain.N, chain.dim
    X = np.zeros((N, d, N, PROBES), dtype=complex)
    X[range(N), :, range(N)] = _probes(rng, (N, d))
    out = []
    for coeff, zero in zip(_zero_mode_coefficients(chain.ctx.q), (np.greater, np.less)):
        Y = apply_monodromy(chain, [coeff] * chain.L, X.reshape(N, d, N * PROBES))
        Y = Y.reshape(N, d, N, PROBES)
        out.extend(float(np.max(np.abs(Y[i, :, j])))
                   for i in range(N) for j in range(N) if zero(i, j))
    return out


def _probes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """PROBES complex Gaussian vectors of `shape`, batch-last."""
    shape = shape + (PROBES,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


def rll_residual(chain: ChainSpec, u: complex, v: complex, rng: np.random.Generator) -> float:
    """Relative norm of the exchange relation R (T(u) x 1)(1 x T(v)) =
    (1 x T(v))(T(u) x 1) R on aux (x) aux (x) quantum, both sides applied to
    PROBES random vectors drawn from `rng`.

    Each monodromy acts on its own auxiliary leg through `apply_monodromy`,
    with the other leg carried in the batch, so no block grid is built.
    """
    N, d = chain.N, chain.dim
    X = _probes(rng, (N, N, d))
    R = r_matrix(u, v, N, chain.ctx)
    at_u, at_v = _point_coefficients(chain, u), _point_coefficients(chain, v)

    def on_leg(coeffs, leg, Y):
        Y = np.moveaxis(np.moveaxis(Y, leg, 0), 1, 2)  # (N_leg, d, N_other, B)
        out = apply_monodromy(chain, coeffs, Y.reshape(N, d, -1)).reshape(Y.shape)
        return np.moveaxis(np.moveaxis(out, 2, 1), 0, leg)

    def on_aux(Y):
        return (R @ Y.reshape(N * N, -1)).reshape(Y.shape)

    lhs = on_aux(on_leg(at_u, 0, on_leg(at_v, 1, X)))
    rhs = on_leg(at_v, 1, on_leg(at_u, 0, on_aux(X)))
    scale = max(frobenius(lhs), frobenius(rhs), 1e-300)
    return frobenius(lhs - rhs) / scale


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


def transfer_commutator_residual(chain: ChainSpec, u: complex, v: complex,
                                 rng: np.random.Generator) -> float:
    """Relative norm of T(u) T(v) X - T(v) T(u) X on PROBES random quantum
    vectors X drawn from `rng`."""
    X = _probes(rng, (chain.dim,))
    uv = np.stack([transfer_apply(chain, u, transfer_apply(chain, v, x)) for x in X.T], axis=1)
    vu = np.stack([transfer_apply(chain, v, transfer_apply(chain, u, x)) for x in X.T], axis=1)
    scale = max(frobenius(uv), frobenius(vu), 1e-300)
    return frobenius(uv - vu) / scale


def vacuum_residuals(chain: ChainSpec, t: complex) -> dict[tuple[int, int], float]:
    """Residual of each entry's action on the vacuum: T_{j,j}(t) Omega against
    lambda_j(t) Omega, and T_{i,j}(t) Omega against 0 for i > j, keyed (i, j).

    One kernel call: batch column j carries Omega in aux slot j, so its aux
    rows i are T_{i,j} Omega. Each residual is relative to column j's
    diagonal size max(|T_{j,j} Omega|_max, |lambda_j|). The vectors are
    divided by it before the norm squares anything, so twists near the float
    range give a finite residual or NaN, never inf / inf.
    """
    omega, lambdas = vacuum_data(chain)
    N = chain.N
    X = np.zeros((N, chain.dim, N), dtype=complex)
    X[range(N), :, range(N)] = omega
    Y = apply_monodromy(chain, _point_coefficients(chain, t), X)
    out = {}
    for j in range(1, N + 1):
        lam = lambdas[j - 1](t)
        diag = Y[j - 1, :, j - 1]
        scale = max(float(np.max(np.abs(diag))), abs(lam), 1e-300)
        out[(j, j)] = frobenius((diag - lam * omega) / scale)
        for i in range(j + 1, N + 1):
            out[(i, j)] = frobenius(Y[i - 1, :, j - 1] / scale)
    return out
