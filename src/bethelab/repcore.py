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

The R-matrix entries are laid out in one place, `_r_table`, from a
coefficient quadruple (a, b, cu, cv): keep[k, m] = R[km, km] (a on the
diagonal, b off it) and move[k, m] = R[km, mk]. The dense `r_matrix` has
a = 1, so R(u, u) = P, and a pole at u = v/q^2. The monodromy is built from
the pole-free R, q u - v/q times that one, so `monodromy`, `transfer`,
`transfer_apply`, `entry_apply` and `vacuum_data` give
prod_l (q t - z_l/q) . T(t), which has no pole. Its one matrix-free kernel,
`apply_monodromy`, applies the table site by site to a batch of aux (x)
quantum vectors: each site costs two elementwise products on the whole
batch, keep . X + move . swap(X), and the batch may carry one quadruple per
spectral point, so T(t) at many points is one call. The two spectral limits
pass their quadruples (a = 1) in closed form, never by large-argument
evaluation.

Weight grading: every R-matrix factor keeps the colour counts of aux (x) site,
so T_{i,j}(t) maps quantum weight nu to nu + e_j - e_i. The operator grids
(`monodromy`, `zero_modes`) hold each T_{i,j} as one small matrix per weight
and never hold a dim x dim block. Each nonzero entry is one product of one
R factor per site along the one path the auxiliary colour takes through the
sites (`_paths`), so a grid is L gathers and products over the N (2N - 1)^L
paths, scattered into its blocks; `transfer` is the weight-preserving sum of
the diagonal entries. `.dense()` gives the dense view, for tests and small
chains.

The operator checks (`rll_residual`, `transfer_commutator_residual`,
`zero_mode_residuals`) test their identities on PROBES seeded random vectors
instead of forming the operators (Freivalds-style verification).
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import ANNULUS_HI, DeformationContext
from .errors import CapacityError, DomainError
from .kernels import LambdaLike, _guard

DIMENSION_CAP = 4096

# random probe vectors per operator-identity draw
PROBES = 4

# largest slice of a batch, in complex entries, that `apply_monodromy` carries
# through its sites at once: its three working arrays (input, output, one
# product) then fit in 2 MB, the L2 cache of one core of a current x86-64 CPU
COLUMN_ENTRIES = 1 << 15

# grid bytes per batched `monodromy` build (5 points at N=3, L=5, 1 from L=6): at N=3,
# L=5 the batch halves the Gauss pass, 0.11 -> 0.06 s, for a heap peak of 7.1 MB, not 1.7 MB
BATCH_BYTES = 3 << 20


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
        if not all(v != 0 and cmath.isfinite(v) for v in self.z):
            raise DomainError("inhomogeneities must be finite and nonzero")
        if len(set(self.z)) < self.L:
            raise DomainError("inhomogeneities must be pairwise distinct")
        if not all(v != 0 and cmath.isfinite(v) for v in self.kappa):
            raise DomainError("twist entries must be finite and nonzero")
        # the size of the pole-free monodromy at |t| <= ANNULUS_HI |q|
        q = abs(self.ctx.q)
        with np.errstate(over="ignore"):
            scale = np.max(np.abs(self.kappa)) * np.prod(q * ANNULUS_HI + np.abs(self.z) / q)
        if not np.isfinite(scale):
            raise DomainError("inhomogeneities and twist overflow the monodromy")
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
            nu: np.linalg.solve(K.blocks[nu].swapaxes(-1, -2), M.swapaxes(-1, -2)).swapaxes(-1, -2)
            for nu, M in self.blocks.items()})

    def left_divide(self, K: "GradedOperator") -> "GradedOperator":
        """K^{-1} . self for a weight-preserving K, by solves, not inverses."""
        return GradedOperator(self.L, self.shift, {
            nu: np.linalg.solve(K.blocks[_shifted(nu, self.shift)], M)
            for nu, M in self.blocks.items()})

    def cond(self):
        """2-norm condition number per point: the largest singular value of
        any block over the smallest of any block, which is the dense value."""
        s = [np.linalg.svd(M, compute_uv=False) for M in self.blocks.values()]
        hi = np.max([v[..., 0] for v in s], axis=0)
        lo = np.min([v[..., -1] for v in s], axis=0)
        return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0)[()]

    def norm(self):
        """Frobenius norm, one value per point."""
        return frobenius(*self.blocks.values(), axis=(-2, -1))

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

    def norm(self):
        """Frobenius norm of the whole grid, one value per point."""
        return frobenius(*(M for op in self.entries.values() for M in op.blocks.values()),
                         axis=(-2, -1))

    def dense(self) -> np.ndarray:
        """The (N, N, dim, dim) block grid."""
        N = self.N
        return np.array([[self.entries[(i, j)].dense() for j in range(1, N + 1)]
                         for i in range(1, N + 1)])


def frobenius(*arrays: np.ndarray, axis=None):
    """Frobenius norm of the arrays taken together over `axis` (all by default),
    from the builtin `sum` of `squared_norm` per array. It makes no BLAS call,
    so, unlike `np.linalg.norm`, its value does not depend on the BLAS thread count.

    When a sum of squares is not finite, each reduced slice is scaled by 2^-e
    before it is squared again, e the `np.frexp` exponent of its largest |re|
    or |im| over all the arrays, and the norm scaled back by 2^e, so a finite
    norm above about 1e154 stays finite. A power of two commutes exactly with
    squaring, summing and `sqrt`, so a slice whose squares did not overflow
    gets the same bits either way; the first pass only spares the common case
    the scan for the peak. A zero or non-finite peak is left unscaled."""
    with np.errstate(over="ignore"):
        squares = sum(squared_norm(x, axis) for x in arrays)
    if np.all(np.isfinite(squares)):
        return np.sqrt(squares)[()]
    peak = functools.reduce(np.maximum, (
        np.max(np.maximum(np.abs(x.real), np.abs(x.imag)), axis=axis, initial=0.0)
        for x in arrays))
    e = np.where(np.isfinite(peak) & (peak > 0), np.frexp(peak)[1], 0)
    down = np.ldexp(1.0, -e) if axis is None else np.expand_dims(np.ldexp(1.0, -e), axis)
    return np.ldexp(np.sqrt(sum(squared_norm(x * down, axis) for x in arrays)), e)[()]


def squared_norm(x: np.ndarray, axis=None):
    """Pairwise `np.sum` of |x|^2 over `axis` of one array."""
    return np.sum(np.square(x.real) + np.square(x.imag), axis=axis)


def r_matrix(u: complex, v: complex, N: int, ctx: DeformationContext) -> np.ndarray:
    """Trigonometric R-matrix on C^N (x) C^N at spectral points (u, v), 1 on
    the diagonal; raises PoleError within POLE_MARGIN of its pole u = v/q^2."""
    a, b, cu, cv = _r_polynomial(u, v, ctx.q)
    _guard(a, max(abs(u), abs(v)), "R-matrix pole")
    return _r_from_coefficients((1.0, b / a, cu / a, cv / a), N)


def _r_polynomial(u, v, q):
    """Entries (a, b, cu, cv) of the pole-free R, `r_matrix` times q u - v/q."""
    return q * u - v / q, u - v, (q - 1 / q) * u, (q - 1 / q) * v


def _r_dense(u, v, N: int, q) -> np.ndarray:
    return _r_from_coefficients(_r_polynomial(u, v, q), N)


def _r_table(coeffs, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The R-matrix entry layout for a coefficient quadruple (a, b, cu, cv):
    keep[k, m] = R[km, km] (a on the diagonal, b off it) and move[k, m] =
    R[km, mk] (0 on the diagonal, cu above it, cv below). The quadruple's
    entries are all scalars, or all arrays of one shape S (one value per
    spectral point, per site or both), which make the tables S + (N, N)."""
    values = np.array([*coeffs, np.zeros_like(coeffs[1])], dtype=complex)
    keep, move = _r_layout(N)
    values = np.moveaxis(values, 0, -1)
    return values[..., keep], values[..., move]


@functools.cache
def _r_layout(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Where `_r_table` takes each entry from among (a, b, cu, cv, 0)."""
    k, m = np.indices((N, N))
    return np.where(k == m, 0, 1), np.select([k < m, k > m], [2, 3], 4)


def _r_from_coefficients(coeffs, N: int) -> np.ndarray:
    """The dense R-matrix of a coefficient quadruple, from its `_r_table`."""
    keep, move = _r_table(coeffs, N)
    k, m = np.indices((N, N))
    R = np.zeros((N, N, N, N), dtype=complex)
    R[k, m, m, k] = move
    R[k, m, k, m] = keep
    return R.reshape(N * N, N * N)


def apply_monodromy(chain: ChainSpec, coeffs: list, X: np.ndarray) -> np.ndarray:
    """K_aux . R_{a,L} ... R_{a,1} applied to a batch of aux (x) quantum vectors.

    `X` is laid out batch-last as (N, dim, B) for one spectral point, or as
    (P, N, dim, B) for P points; `coeffs` holds one R-matrix coefficient
    quadruple per site, whose entries are scalars for one point or arrays of
    length P, one value per point. The factors act one site at a time,
    R_{a,1} first: each touches only the auxiliary leg and its own site's
    leg, and is two elementwise products on the whole batch,
    keep . X + move . swap(X), where swap exchanges the two legs (`_r_table`).
    A product with an exact zero stays an exact zero, which keeps the zeros
    of the zero-mode limits.

    The batch goes through in slices of at most COLUMN_ENTRIES entries (whole
    points while a point's N dim B entries fit, else one point's columns, at
    least one), so a wide batch on a large chain keeps its working set small.
    """
    N, d = chain.N, chain.dim
    batch = X if X.ndim == 4 else X[None]
    P, B = batch.shape[0], batch.shape[-1]
    L = len(coeffs)  # one `_r_table` call for all sites: per site, it dominated small batches
    tables = list(zip(*(np.broadcast_to(table.reshape(L, -1, N, N), (L, P, N, N))
                        for table in _r_table(tuple(zip(*coeffs)), N)))) if L else []
    width = max(1, COLUMN_ENTRIES // (N * d))
    step = max(1, width // max(B, 1))
    out = np.empty(batch.shape, dtype=complex)
    for lo in range(0, P, step):
        points = slice(lo, lo + step)
        part = [(keep[points], move[points]) for keep, move in tables]
        for c in range(0, B, width):
            cols = slice(c, c + width)
            out[points, ..., cols] = _apply_sites(chain, part, batch[points, ..., cols])
    return out.reshape(X.shape)


def _apply_sites(chain: ChainSpec, tables: list, X: np.ndarray) -> np.ndarray:
    """One slice of `apply_monodromy`: X is (P, N, dim, B), the tables are
    (P, N, N) per site."""
    N, L = chain.N, chain.L
    shape = X.shape
    for site, (keep, move) in enumerate(tables, start=1):
        X = X.reshape((shape[0], N, N ** (site - 1), N, N ** (L - site), shape[-1]))
        factor = (shape[0], N, 1, N, 1, 1)
        Y = keep.reshape(factor) * X
        Y += move.reshape(factor) * X.swapaxes(1, 3)
        X = Y
    return np.asarray(chain.kappa)[:, None, None] * X.reshape(shape)


def _point_coefficients(chain: ChainSpec, t) -> list:
    """Per-site pole-free R coefficient quadruples of arrays with one entry per
    point of t, one point (a batch of one) or a sequence of points."""
    points = [t] if np.ndim(t) == 0 else t
    return [tuple(np.array(c) for c in zip(*(_r_polynomial(tp, zl, chain.ctx.q) for tp in points)))
            for zl in chain.z]


def _zero_mode_coefficients(q: complex) -> tuple[tuple[complex, ...], ...]:
    """Per-site quadruples (a = 1) of the t -> infinity and t -> 0 limits."""
    return (1.0, 1 / q, (q - 1 / q) / q, 0.0), (1.0, q + 0j, 0.0, 1 - q * q)


@functools.lru_cache(maxsize=None)
def _paths(N: int, L: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The graded grid's entries as paths of the auxiliary colour, site 1
    first: at a site of colour s the aux colour c passes it (factor
    keep[c, s]) or, for s != c, trades places with it (move[s, c]). A source
    e_b (x) |x> reaches each target e_a (x) |y> along at most one path, so
    each entry is one product; there are N (2N - 1)^L paths.

    Returns, with the paths grouped by block: each path's index into every
    site's flattened [keep | move] table, its flat position in its block, and
    the blocks ((a + 1, b + 1), source weight, shape, slice of paths),
    row-major in (a, b) and ascending in weight."""
    basis = weight_basis(N, L)
    weight, rank = np.empty((2, N ** L), dtype=np.int32)
    for k, index in enumerate(basis.values()):
        weight[index], rank[index] = k, np.arange(len(index))
    fan = 2 * N - 1
    path = np.arange(N * fan ** L, dtype=np.int32)
    source = colour = path // fan ** L
    x = y = np.zeros_like(path)
    factor = np.empty((L, len(path)), dtype=np.min_scalar_type(2 * N * N - 1))
    for site in range(L):
        choice = path // fan ** (L - 1 - site) % fan
        keep = choice < N
        s = np.where(keep, choice, choice - N + (choice - N >= colour))
        factor[site] = np.where(keep, colour * N + s, N * N + s * N + colour)
        x, y = x * N + s, y * N + np.where(keep, s, colour)
        colour = np.where(keep, colour, s)
    key = (colour * N + source).astype(np.int64) * len(basis) + weight[x]
    order = np.argsort(key, kind="stable")
    key, x, y = key[order], x[order], y[order]
    weights = list(basis)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist() + [len(key)]
    blocks = []
    for lo, hi in zip(starts, starts[1:]):
        a, b = divmod(int(key[lo]) // len(basis), N)
        nu, target = weights[weight[x[lo]]], weights[weight[y[lo]]]
        blocks.append(((a + 1, b + 1), nu, (len(basis[target]), len(basis[nu])), slice(lo, hi)))
    sizes = np.array([len(index) for index in basis.values()], dtype=np.int32)
    position = rank[y] * sizes[weight[x]] + rank[x]
    return factor[:, order], position, blocks


def _graded_grid(chain: ChainSpec, coeffs: list, point) -> GradedLOperator:
    """Graded block grid from the `_paths` plan: per site one gather from its
    `_r_table` and one product, then kappa of the final colour, the factors
    and order of `apply_monodromy`, so the blocks equal the entries of that
    kernel applied to the aux (x) identity basis exactly. Each block is its
    own array: a k of `gauss_decompose` keeps some blocks of its grid, and
    views of one grid-wide buffer would keep all of it."""
    N = chain.N
    factor, position, blocks = _paths(N, chain.L)
    lead = np.shape(point)
    values = np.ones(lead + position.shape, dtype=complex)
    for coeff, index in zip(coeffs, factor):
        table = np.concatenate([t.reshape(lead + (-1,)) for t in _r_table(coeff, N)], axis=-1)
        np.multiply(table[..., index], values, out=values)
    grid = {(i, j): {} for i in range(1, N + 1) for j in range(1, N + 1)}
    for (i, j), nu, (rows, cols), paths in blocks:
        M = np.zeros(lead + (rows * cols,), dtype=complex)
        M[..., position[paths]] = chain.kappa[i - 1] * values[..., paths]
        grid[i, j][nu] = M.reshape(lead + (rows, cols))
    eye = np.eye(N, dtype=int)
    entries = {(i, j): GradedOperator(chain.L, tuple((eye[j - 1] - eye[i - 1]).tolist()), ops)
               for (i, j), ops in grid.items()}
    return GradedLOperator(point, entries)


def monodromy(chain: ChainSpec, t) -> GradedLOperator:
    """The pole-free monodromy prod_l (q t - z_l/q) . T(t) as a graded grid;
    at a sequence of points, one build whose blocks carry a point axis."""
    return _graded_grid(chain, _point_coefficients(chain, t), t)


def grid_bytes(chain: ChainSpec) -> int:
    """Bytes of one point's `monodromy` grid."""
    return 16 * sum(rows * cols for _, _, (rows, cols), _ in _paths(chain.N, chain.L)[-1])


def batch_points(chain: ChainSpec) -> int:
    """Points per batched `monodromy` build: as many as BATCH_BYTES holds, at least 1."""
    return max(1, BATCH_BYTES // grid_bytes(chain))


def transfer(chain: ChainSpec, t: complex) -> GradedOperator:
    """Trace of the monodromy over the auxiliary space, sum_i T_{i,i}(t): a
    weight-preserving operator, one block per weight."""
    T = monodromy(chain, t)
    return sum((T.entry(i, i) for i in range(2, chain.N + 1)), T.entry(1, 1))


def transfer_apply(chain: ChainSpec, t, v: np.ndarray) -> np.ndarray:
    """T(t) v = sum_j <j| T(t) |j> v for v of shape (dim,) or (dim, B),
    without building the block grid. `t` is one point, or a sequence of P
    points that splits the B columns into P equal consecutive groups, group p
    taken at t[p]: each group's columns equal `transfer_apply(chain, t[p], .)`
    of them alone, bit for bit."""
    N, d = chain.N, chain.dim
    points = [t] if np.ndim(t) == 0 else list(t)
    P, width = len(points), v.size // d
    if not P or width % P:
        raise DomainError(f"{width} columns do not split into {P} point groups")
    group = width // P
    X = np.zeros((P, N, d, N, group), dtype=complex)
    groups = v.reshape(d, P, group).transpose(1, 0, 2)
    for j in range(N):
        X[:, j, :, j] = groups
    coeffs = _point_coefficients(chain, points)
    Y = apply_monodromy(chain, coeffs, X.reshape(P, N, d, -1)).reshape(X.shape)
    return sum(Y[:, j, :, j] for j in range(N)).transpose(1, 0, 2).reshape(v.shape)


def entry_apply(chain: ChainSpec, t: complex, i: int, j, v: np.ndarray) -> np.ndarray:
    """T_{i,j}(t) v (1-based auxiliary indices) for v of shape (dim,) or
    (dim, B), without building the block grid. For v of shape (dim, B), j may
    be an array of B indices, one per column."""
    aux = np.arange(1, chain.N + 1).reshape((chain.N,) + (1,) * v.ndim)
    X = np.where(aux == j, v, 0j)
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


def vacuum_data(chain: ChainSpec) -> tuple[np.ndarray, list[LambdaLike]]:
    """Reference vector e_1^(x)L and the N diagonal eigenvalue functions of
    the pole-free monodromy, lambda_1(t) = kappa_1 prod_l (q t - z_l/q) and
    lambda_i(t) = kappa_i prod_l (t - z_l) for i >= 2. Tests verify, not
    assume, T_{i,j} Omega = 0 (i > j) and T_{i,i} Omega = lambda_i Omega."""
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    q, z, (first, *rest) = chain.ctx.q, chain.z, chain.kappa
    lambdas = [lambda t: first * math.prod(q * t - zl / q for zl in z)]
    lambdas += [lambda t, k=k: k * math.prod(t - zl for zl in z) for k in rest]
    return omega, lambdas


def rll_residual(chain: ChainSpec, u: complex, v: complex, rng: np.random.Generator) -> float:
    """Relative norm of the exchange relation R (T(u) x 1)(1 x T(v)) =
    (1 x T(v))(T(u) x 1) R on aux (x) aux (x) quantum, both sides applied to
    PROBES random vectors drawn from `rng`.

    Each monodromy acts on its own auxiliary leg through `apply_monodromy`,
    with the other leg carried in the batch, so no block grid is built. The
    relation is homogeneous in R, so R is the pole-free one.
    """
    N, d = chain.N, chain.dim
    X = _probes(rng, (N, N, d))
    R = _r_dense(u, v, N, chain.ctx.q)
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
    return float(frobenius(lhs - rhs) / max(frobenius(lhs), 1e-300))


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
    vectors X drawn from `rng`, in two kernel calls: [T(v) X | T(u) X], then
    [T(u) T(v) X | T(v) T(u) X]."""
    X = _probes(rng, (chain.dim,))
    once = transfer_apply(chain, [v, u], np.hstack([X, X]))
    uv, vu = np.hsplit(transfer_apply(chain, [u, v], once), 2)
    scale = max(frobenius(uv), frobenius(vu), 1e-300)
    return frobenius(uv - vu) / scale


def vacuum_residuals(chain: ChainSpec, t) -> dict[tuple[int, int], float]:
    """Residual of each entry's action on the vacuum: T_{j,j}(t) Omega against
    lambda_j(t) Omega, and T_{i,j}(t) Omega against 0 for i > j, keyed (i, j).

    One kernel call: batch column j carries Omega in aux slot j, so its aux
    rows i are T_{i,j} Omega. Each residual is relative to column j's
    diagonal size max(|T_{j,j} Omega|_max, |lambda_j|). The vectors are
    divided by it before the norm squares anything, so twists near the float
    range give a finite residual or NaN, never inf / inf. At a sequence of
    points the call is still one, and each value holds each point's own."""
    omega, lambdas = vacuum_data(chain)
    N = chain.N
    points = [t] if np.ndim(t) == 0 else list(t)
    X = np.zeros((len(points), N, chain.dim, N), dtype=complex)
    X[:, range(N), :, range(N)] = omega
    Y = apply_monodromy(chain, _point_coefficients(chain, points), X)
    out = {}
    for j in range(1, N + 1):
        lam = [lambdas[j - 1](tp) for tp in points]
        diag = Y[:, j - 1, :, j - 1]
        scale = np.array([max(float(m), abs(lp), 1e-300)
                          for m, lp in zip(np.max(np.abs(diag), axis=-1), lam)])[:, None]
        out[(j, j)] = frobenius((diag - np.array(lam)[:, None] * omega) / scale, axis=-1)
        for i in range(j + 1, N + 1):
            out[(i, j)] = frobenius(Y[:, i - 1, :, j - 1] / scale, axis=-1)
    return out if np.ndim(t) else {key: values[0] for key, values in out.items()}
