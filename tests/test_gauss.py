"""Gauss decomposition, screening operators and coordinate identities."""
import numpy as np
import pytest

from bethelab import (
    BlockLOperator,
    ChainSpec,
    CoordinateIdentity,
    DomainError,
    SingularCoordinateError,
    coordinate_identity_residual,
    gauss_decompose,
    monodromy,
    normal_order_transfer_residual,
    sample_annulus,
    screening,
    screening_dual,
    transfer,
    vacuum_data,
    zero_mode_set,
)

from conftest import make_chain


def test_empty_chain_coordinates(ctx):
    chain = ChainSpec(N=3, L=0, z=(), kappa=(1.4, 0.6, 2.1), ctx=ctx)
    data = gauss_decompose(monodromy(chain, 1.3))
    for a in range(3):
        assert np.allclose(data.k[a], chain.kappa[a] * np.eye(1))
    for mat in list(data.F.values()) + list(data.E.values()):
        assert np.max(np.abs(mat)) < 1e-14


def test_rank2_closed_form(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    t = 1.1 - 0.6j
    T = monodromy(chain, t)
    data = gauss_decompose(T)
    L11, L12 = T.entry(1, 1), T.entry(1, 2)
    L21, L22 = T.entry(2, 1), T.entry(2, 2)
    inv22 = np.linalg.inv(L22)
    assert np.allclose(data.k[1], L22)
    assert np.allclose(data.F[(2, 1)], L12 @ inv22)
    assert np.allclose(data.E[(1, 2)], inv22 @ L21)
    assert np.allclose(data.k[0], L11 - L12 @ inv22 @ L21)


@pytest.mark.parametrize("N,L", [(3, 2), (4, 2), (3, 3)])
def test_reconstruction(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        T = monodromy(chain, t)
        data = gauss_decompose(T)
        err = np.linalg.norm(data.reconstruct() - T.blocks) / np.linalg.norm(T.blocks)
        assert err < 1e-10


def test_vacuum_action_of_coordinates(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    omega, lambdas = vacuum_data(chain)
    t = complex(sample_annulus(rng, 1)[0])
    data = gauss_decompose(monodromy(chain, t))
    for a in range(1, 4):
        lam = lambdas[a - 1](t)
        assert np.linalg.norm(data.k[a - 1] @ omega - lam * omega) < 1e-10
    for mat in data.E.values():
        assert np.linalg.norm(mat @ omega) < 1e-10


def test_transfer_on_vacuum_is_lambda_sum(ctx, rng):
    chain = make_chain(3, 3, ctx, rng)
    omega, lambdas = vacuum_data(chain)
    t = complex(sample_annulus(rng, 1)[0])
    want = sum(lam(t) for lam in lambdas)
    got = transfer(chain, t) @ omega
    assert np.linalg.norm(got - want * omega) / abs(want) < 1e-12


def test_singular_coordinate_raises(ctx):
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = np.eye(2)
    blocks[1, 1] = np.zeros((2, 2))  # singular corner
    with pytest.raises(SingularCoordinateError):
        gauss_decompose(BlockLOperator(point=1.0, blocks=blocks))


# ---------------------------------------------------------------------------
# screenings


def test_screening_on_identity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    q = ctx.q
    eye = np.eye(chain.dim)
    for i in (1, 2):
        got = screening(i, eye, zm)
        assert np.allclose(got, (1 - 1 / q) * zm.Fzero[i])
        got2 = screening(i, zm.Fzero[i], zm)
        assert np.allclose(got2, (1 - 1 / q) * zm.Fzero[i] @ zm.Fzero[i])


def test_dual_screening_linearity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    gen = np.random.default_rng(7)
    B1 = gen.normal(size=(chain.dim, chain.dim)) + 1j * gen.normal(size=(chain.dim, chain.dim))
    B2 = gen.normal(size=(chain.dim, chain.dim)) + 1j * gen.normal(size=(chain.dim, chain.dim))
    alpha = 0.7 - 1.2j
    lhs = screening_dual(1, alpha * B1 + B2, zm)
    rhs = alpha * screening_dual(1, B1, zm) + screening_dual(1, B2, zm)
    assert np.allclose(lhs, rhs)


def test_zero_mode_factorizations(ctx, rng):
    # F_i[0] and E_i[0] reproduce the limit operator blocks they came from
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    from bethelab import zero_modes
    plus, minus = zero_modes(chain)
    for i in (1, 2):
        assert np.allclose(zm.Fzero[i] @ plus.entry(i + 1, i + 1), plus.entry(i, i + 1))
        assert np.allclose(-minus.entry(i + 1, i + 1) @ zm.Ezero[i],
                           minus.entry(i + 1, i))


# ---------------------------------------------------------------------------
# coordinate identities


@pytest.mark.parametrize("kind", [CoordinateIdentity.F_LOWERING,
                                  CoordinateIdentity.E_LOWERING])
def test_lowering_identities_rank3(ctx, rng, kind):
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        data = gauss_decompose(monodromy(chain, t))
        assert coordinate_identity_residual(kind, (1, 3), data, zm) < 1e-9


def test_iterated_dual_identity_rank4(ctx, rng):
    chain = make_chain(4, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(monodromy(chain, t)), zero_mode_set(chain)
    assert coordinate_identity_residual(
        CoordinateIdentity.E_ITERATED, (1, 4), data, zm) < 1e-9
    assert coordinate_identity_residual(
        CoordinateIdentity.E_ITERATED, (2, 4), data, zm) < 1e-9


def test_cartan_shift_identity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(monodromy(chain, t)), zero_mode_set(chain)
    assert coordinate_identity_residual(
        CoordinateIdentity.CARTAN_SHIFT, (1, 0), data, zm) < 1e-9


def test_identity_index_validation(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    data, zm = gauss_decompose(monodromy(chain, 1.3)), zero_mode_set(chain)
    with pytest.raises(DomainError):
        coordinate_identity_residual(CoordinateIdentity.F_LOWERING, (1, 2), data, zm)


# ---------------------------------------------------------------------------
# normal-ordered transfer


@pytest.mark.parametrize("N,L", [(2, 2), (3, 3)])
def test_normal_order_transfer(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    assert normal_order_transfer_residual(chain, t) < 1e-10


def test_normal_order_transfer_empty_chain(ctx):
    chain = ChainSpec(N=2, L=0, z=(), kappa=(1.3, 0.8), ctx=ctx)
    assert normal_order_transfer_residual(chain, 0.7) < 1e-14
