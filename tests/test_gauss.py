"""Gauss decomposition, screening operators and coordinate identities."""
import numpy as np
import pytest

from bethelab import (
    BlockLOperator,
    ChainSpec,
    CoordinateIdentity,
    DomainError,
    GradedLOperator,
    GradedOperator,
    SingularCoordinateError,
    coordinate_identity_residual,
    gauss_decompose,
    graded_monodromy,
    monodromy,
    normal_order_transfer_residual,
    sample_annulus,
    screening,
    screening_dual,
    transfer,
    vacuum_data,
    zero_mode_set,
)
from bethelab.repcore import weight_basis

from conftest import make_chain


def graded(dense: BlockLOperator, L: int) -> GradedLOperator:
    """The entries of a dense block grid that the weight rule allows (T_{i,j}
    maps weight nu to nu + e_j - e_i), as a graded grid."""
    N = dense.N
    basis = weight_basis(N, L)
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            shift = tuple(int(c == j - 1) - int(c == i - 1) for c in range(N))
            blocks = {}
            for nu, cols in basis.items():
                target = tuple(a + b for a, b in zip(nu, shift))
                if target in basis:
                    blocks[nu] = dense.entry(i, j)[np.ix_(basis[target], cols)]
            entries[(i, j)] = GradedOperator(L, shift, blocks)
    return GradedLOperator(dense.point, entries, dense.source)


def dense_gauss_decompose(Lop: BlockLOperator):
    """Bottom-right elimination of the dense block grid, returning dense
    (k, F, E): the reference for the graded `gauss_decompose`."""
    N = Lop.N
    work = {(a, b): Lop.blocks[a - 1, b - 1].copy()
            for a in range(1, N + 1) for b in range(1, N + 1)}
    k, F, E = [None] * N, {}, {}
    for b in range(N, 0, -1):
        kb = k[b - 1] = work[(b, b)]
        for a in range(1, b):
            F[(b, a)] = np.linalg.solve(kb.T, work[(a, b)].T).T
            E[(a, b)] = np.linalg.solve(kb, work[(b, a)])
        for a in range(1, b):
            for c in range(1, b):
                work[(a, c)] = work[(a, c)] - F[(b, a)] @ kb @ E[(c, b)]
    return k, F, E


def identity(N: int, L: int) -> GradedOperator:
    return GradedOperator(L, (0,) * N, {nu: np.eye(len(idx))
                                        for nu, idx in weight_basis(N, L).items()})


def test_empty_chain_coordinates(ctx):
    chain = ChainSpec(N=3, L=0, z=(), kappa=(1.4, 0.6, 2.1), ctx=ctx)
    data = gauss_decompose(graded_monodromy(chain, 1.3))
    for a in range(3):
        assert np.allclose(data.k[a].dense(), chain.kappa[a] * np.eye(1))
    for mat in list(data.F.values()) + list(data.E.values()):
        assert np.max(np.abs(mat.dense())) < 1e-14


def test_rank2_closed_form(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    t = 1.1 - 0.6j
    T = monodromy(chain, t)
    data = gauss_decompose(graded_monodromy(chain, t))
    L11, L12 = T.entry(1, 1), T.entry(1, 2)
    L21, L22 = T.entry(2, 1), T.entry(2, 2)
    inv22 = np.linalg.inv(L22)
    assert np.allclose(data.k[1].dense(), L22)
    assert np.allclose(data.F[(2, 1)].dense(), L12 @ inv22)
    assert np.allclose(data.E[(1, 2)].dense(), inv22 @ L21)
    assert np.allclose(data.k[0].dense(), L11 - L12 @ inv22 @ L21)


@pytest.mark.parametrize("N,L", [(3, 2), (4, 2), (3, 3)])
def test_reconstruction(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        T = monodromy(chain, t)
        data = gauss_decompose(graded_monodromy(chain, t))
        err = np.linalg.norm(data.reconstruct().dense() - T.blocks) / np.linalg.norm(T.blocks)
        assert err < 1e-10


@pytest.mark.parametrize("seed", [5, 6])
def test_graded_coordinates_match_the_dense_elimination(ctx, seed):
    rng = np.random.default_rng(seed)
    chain = make_chain(3, 4, ctx, rng)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        data = gauss_decompose(graded_monodromy(chain, t))
        k, F, E = dense_gauss_decompose(monodromy(chain, t))
        pairs = list(zip(data.k, k)) + [(data.F[ij], F[ij]) for ij in F]
        pairs += [(data.E[ij], E[ij]) for ij in E]
        for got, want in pairs:
            assert np.linalg.norm(got.dense() - want) <= 1e-12 * np.linalg.norm(want)


def test_vacuum_action_of_coordinates(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    omega, lambdas = vacuum_data(chain)
    t = complex(sample_annulus(rng, 1)[0])
    data = gauss_decompose(graded_monodromy(chain, t))
    for a in range(1, 4):
        lam = lambdas[a - 1](t)
        assert np.linalg.norm(data.k[a - 1].dense() @ omega - lam * omega) < 1e-10
    for mat in data.E.values():
        assert np.linalg.norm(mat.dense() @ omega) < 1e-10


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
        gauss_decompose(graded(BlockLOperator(point=1.0, blocks=blocks), L=1))


# ---------------------------------------------------------------------------
# screenings


def test_screening_on_identity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    q = ctx.q
    eye = identity(3, 2)
    for i in (1, 2):
        got = screening(i, eye, zm)
        assert np.allclose(got.dense(), (1 - 1 / q) * zm.Fzero[i].dense())
        got2 = screening(i, zm.Fzero[i], zm)
        assert np.allclose(got2.dense(), (1 - 1 / q) * (zm.Fzero[i] @ zm.Fzero[i]).dense())


def test_dual_screening_linearity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    gen = np.random.default_rng(7)

    def random_operator():
        return GradedOperator(2, (0, 0, 0), {
            nu: gen.normal(size=(len(idx),) * 2) + 1j * gen.normal(size=(len(idx),) * 2)
            for nu, idx in weight_basis(3, 2).items()})

    B1 = random_operator()
    B2 = random_operator()
    alpha = 0.7 - 1.2j
    lhs = screening_dual(1, alpha * B1 + B2, zm)
    rhs = alpha * screening_dual(1, B1, zm) + screening_dual(1, B2, zm)
    assert np.allclose(lhs.dense(), rhs.dense())


def test_zero_mode_factorizations(ctx, rng):
    # F_i[0] and E_i[0] reproduce the limit operator blocks they came from
    chain = make_chain(3, 2, ctx, rng)
    zm = zero_mode_set(chain)
    from bethelab import zero_modes
    plus, minus = zero_modes(chain)
    for i in (1, 2):
        assert np.allclose(zm.Fzero[i].dense() @ plus.entry(i + 1, i + 1), plus.entry(i, i + 1))
        assert np.allclose(-minus.entry(i + 1, i + 1) @ zm.Ezero[i].dense(),
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
        data = gauss_decompose(graded_monodromy(chain, t))
        assert coordinate_identity_residual(kind, (1, 3), data, zm) < 1e-9


def test_iterated_dual_identity_rank4(ctx, rng):
    chain = make_chain(4, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(graded_monodromy(chain, t)), zero_mode_set(chain)
    assert coordinate_identity_residual(
        CoordinateIdentity.E_ITERATED, (1, 4), data, zm) < 1e-9
    assert coordinate_identity_residual(
        CoordinateIdentity.E_ITERATED, (2, 4), data, zm) < 1e-9


def test_cartan_shift_identity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(graded_monodromy(chain, t)), zero_mode_set(chain)
    assert coordinate_identity_residual(
        CoordinateIdentity.CARTAN_SHIFT, (1, 0), data, zm) < 1e-9


def test_identity_index_validation(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    data, zm = gauss_decompose(graded_monodromy(chain, 1.3)), zero_mode_set(chain)
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
