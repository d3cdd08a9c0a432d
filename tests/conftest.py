import numpy as np
import pytest

from bethelab import ChainSpec, DeformationContext, apply_monodromy, sample_annulus
from bethelab.repcore import _point_coefficients, _zero_mode_coefficients


@pytest.fixture
def ctx():
    return DeformationContext(q=1.5, seed=1234)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_chain(N, L, ctx, rng, spread=1.0):
    z = _distinct(rng, L)
    kappa = tuple(sample_annulus(rng, N) * spread)
    return ChainSpec(N=N, L=L, z=z, kappa=kappa, ctx=ctx)


def _distinct(rng, count, min_sep=0.1):
    out = []
    while len(out) < count:
        cand = complex(sample_annulus(rng, 1)[0])
        if all(abs(cand - v) / max(abs(cand), abs(v)) > min_sep for v in out):
            out.append(cand)
    return tuple(out)


@pytest.fixture
def chain_factory(ctx, rng):
    def factory(N, L, q=None, seed=None):
        local_ctx = ctx if q is None else DeformationContext(q=q, seed=ctx.seed)
        local_rng = rng if seed is None else np.random.default_rng(seed)
        return make_chain(N, L, local_ctx, local_rng)
    return factory


def separated_points(rng, n, min_sep=0.1):
    return _distinct(rng, n, min_sep)


def pole_free_factor(chain, t):
    """prod_l (q t - z_l/q): the kernel's monodromy is this times the
    normalized T(t) built from `r_matrix`."""
    q = chain.ctx.q
    return complex(np.prod([q * t - zl / q for zl in chain.z]))


def dense_grid(chain, coeffs):
    """(N, N, dim, dim) block grid of `apply_monodromy` applied to the
    aux (x) identity basis X[j, :, j, :] = I_dim: the dense oracle for the
    graded grids, in the normalization of `coeffs`: pole-free for
    `dense_monodromy`, 1 on the R diagonal for `dense_zero_modes`."""
    N, d = chain.N, chain.dim
    Y = apply_monodromy(chain, coeffs, np.eye(N * d, dtype=complex).reshape(N, d, N * d))
    return Y.reshape(N, d, N, d).transpose(0, 2, 1, 3)


def dense_monodromy(chain, t):
    return dense_grid(chain, _point_coefficients(chain, t))


def dense_zero_modes(chain):
    return tuple(dense_grid(chain, [coeff] * chain.L)
                 for coeff in _zero_mode_coefficients(chain.ctx.q))
