"""Gauss decomposition, screening operators and coordinate identities."""
import dataclasses

import numpy as np
import pytest

from bethelab import (
    ChainSpec,
    CoordinateIdentity,
    DomainError,
    GradedLOperator,
    GradedOperator,
    SingularCoordinateError,
    coordinate_identity_residual,
    gauss_decompose,
    monodromy,
    normal_order_transfer_residual,
    reconstruction_residual,
    sample_annulus,
    screening,
    screening_dual,
    transfer,
    vacuum_data,
    zero_mode_set,
    zero_modes,
)
from bethelab.repcore import frobenius, weight_basis

from conftest import dense_monodromy, make_chain


def graded(dense: np.ndarray, L: int) -> GradedLOperator:
    """The entries of a dense (N, N, dim, dim) block grid that the weight rule
    allows (T_{i,j} maps weight nu to nu + e_j - e_i), as a graded grid."""
    N = dense.shape[0]
    basis = weight_basis(N, L)
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            shift = tuple(int(c == j - 1) - int(c == i - 1) for c in range(N))
            blocks = {}
            for nu, cols in basis.items():
                target = tuple(a + b for a, b in zip(nu, shift))
                if target in basis:
                    blocks[nu] = dense[i - 1, j - 1][np.ix_(basis[target], cols)]
            entries[(i, j)] = GradedOperator(L, shift, blocks)
    return GradedLOperator(None, entries)


def dense_gauss_decompose(blocks: np.ndarray):
    """Bottom-right elimination of a dense (N, N, dim, dim) block grid,
    returning dense (k, F, E): the reference for the graded `gauss_decompose`."""
    N = blocks.shape[0]
    work = {(a, b): blocks[a - 1, b - 1].copy()
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


def dense_product(data) -> np.ndarray:
    """The (N, N, dim, dim) block grid of (1 + F) k (1 + E), from `entry`."""
    N = data.N
    return np.array([[data.entry(a, b).dense() for b in range(1, N + 1)]
                     for a in range(1, N + 1)])


def identity(N: int, L: int) -> GradedOperator:
    return GradedOperator(L, (0,) * N, {nu: np.eye(len(idx))
                                        for nu, idx in weight_basis(N, L).items()})


def test_empty_chain_coordinates(ctx):
    chain = ChainSpec(N=3, L=0, z=(), kappa=(1.4, 0.6, 2.1), ctx=ctx)
    data = gauss_decompose(monodromy(chain, 1.3))
    for a in range(3):
        assert np.allclose(data.k[a].dense(), chain.kappa[a] * np.eye(1))
    for mat in list(data.F.values()) + list(data.E.values()):
        assert np.max(np.abs(mat.dense())) < 1e-14


def test_rank2_closed_form(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    t = 1.1 - 0.6j
    T = dense_monodromy(chain, t)
    data = gauss_decompose(monodromy(chain, t))
    L11, L12 = T[0, 0], T[0, 1]
    L21, L22 = T[1, 0], T[1, 1]
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
        T = dense_monodromy(chain, t)
        data = gauss_decompose(monodromy(chain, t))
        err = np.linalg.norm(dense_product(data) - T) / np.linalg.norm(T)
        assert err < 1e-10


@pytest.mark.parametrize("N,L", [(2, 4), (3, 3), (4, 2)])
def test_reconstruction_residual_streams_the_whole_grid_residual(ctx, rng, N, L):
    # entry by entry, it equals the residual of the whole difference grid
    # bit for bit
    chain = make_chain(N, L, ctx, rng)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        T = monodromy(chain, t)
        data = gauss_decompose(T)
        diff = [data.entry(a, b) - T.entry(a, b)
                for a in range(1, N + 1) for b in range(1, N + 1)]
        want = frobenius(*(M for op in diff for M in op.blocks.values())) / T.norm()
        assert reconstruction_residual(data, T) == want


@pytest.mark.parametrize("seed", [5, 6])
def test_graded_coordinates_match_the_dense_elimination(ctx, seed):
    rng = np.random.default_rng(seed)
    chain = make_chain(3, 4, ctx, rng)
    for _ in range(3):
        t = complex(sample_annulus(rng, 1)[0])
        data = gauss_decompose(monodromy(chain, t))
        k, F, E = dense_gauss_decompose(dense_monodromy(chain, t))
        pairs = list(zip(data.k, k)) + [(data.F[ij], F[ij]) for ij in F]
        pairs += [(data.E[ij], E[ij]) for ij in E]
        for got, want in pairs:
            assert np.linalg.norm(got.dense() - want) <= 1e-12 * np.linalg.norm(want)


def test_vacuum_action_of_coordinates(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    omega, lambdas = vacuum_data(chain)
    t = complex(sample_annulus(rng, 1)[0])
    data = gauss_decompose(monodromy(chain, t))
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
    got = transfer(chain, t).dense() @ omega
    assert np.linalg.norm(got - want * omega) / abs(want) < 1e-12


def test_singular_coordinate_raises(ctx):
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, 0] = np.eye(2)
    blocks[1, 1] = np.zeros((2, 2))  # singular corner
    with pytest.raises(SingularCoordinateError):
        gauss_decompose(graded(blocks, L=1))


def test_batched_decomposition_equals_each_point_alone(ctx, rng):
    chain = make_chain(3, 3, ctx, rng)
    points = [complex(t) for t in sample_annulus(rng, 4)]
    batched = gauss_decompose(monodromy(chain, points))
    for p, t in enumerate(points):
        alone = gauss_decompose(monodromy(chain, t))
        pairs = [*zip(batched.k, alone.k), *((batched.F[key], alone.F[key]) for key in alone.F),
                 *((batched.E[key], alone.E[key]) for key in alone.E)]
        for got, want in pairs:
            assert got.blocks.keys() == want.blocks.keys()
            assert all(np.array_equal(got.blocks[nu][p], want.blocks[nu]) for nu in want.blocks)


def test_batched_singular_coordinate_names_the_first_singular_point(ctx, rng, monkeypatch):
    # the 4th point is singular at k_3, the first stage; the 3rd only at
    # k_2, a later one. Run one after another, the 3rd point fails first.
    chain = make_chain(3, 3, ctx, rng)
    points = [complex(t) for t in sample_annulus(rng, 5)]
    original = GradedOperator.cond
    calls = []

    def cond(self):
        values = np.array(original(self))
        calls.append(len(values))
        # the 5-point batch at k_3, then the 3-point batch that runs first at k_3 and k_2
        singular = {1: 3, 3: 2}.get(len(calls))
        if singular is not None:
            values[singular] = np.inf
        return values

    monkeypatch.setattr(GradedOperator, "cond", cond)
    with pytest.raises(SingularCoordinateError) as info:
        gauss_decompose(monodromy(chain, points))
    assert str(info.value) == f"diagonal coordinate 2 singular at t={points[2]} (cond=inf)"
    assert calls[:3] == [5, 3, 3]


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
    plus, minus = (op.dense() for op in zero_modes(chain))
    for i in (1, 2):
        assert np.allclose(zm.Fzero[i].dense() @ plus[i, i], plus[i - 1, i])
        assert np.allclose(-minus[i, i] @ zm.Ezero[i].dense(), minus[i, i - 1])


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
    # (q - 1/q)^(j-1-i) E_{i,j} = S^_i ... S^_{j-2}(E_{j-1,j}), the lowering
    # identity composed, which the suite checks one step at a time
    chain = make_chain(4, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(monodromy(chain, t)), zero_mode_set(chain)
    qdiff = zm.q - 1 / zm.q
    for i, j in ((1, 4), (2, 4)):
        B = data.E[(j - 1, j)]
        for idx in range(j - 2, i - 1, -1):
            B = screening_dual(idx, B, zm)
        lhs, rhs = data.E[(i, j)], qdiff ** (i + 1 - j) * B
        assert (lhs - rhs).norm() / max(lhs.norm(), rhs.norm()) < 1e-9


def test_cartan_shift_identity(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    data, zm = gauss_decompose(monodromy(chain, t)), zero_mode_set(chain)
    assert coordinate_identity_residual(
        CoordinateIdentity.CARTAN_SHIFT, (1, 0), data, zm) < 1e-9


def test_identity_catalogue(ctx, rng):
    # three identities, each evaluated at exactly the pairs it lists
    assert [kind.value for kind in CoordinateIdentity] == [
        "f-lowering", "e-lowering", "cartan-shift"]
    assert CoordinateIdentity.E_LOWERING.pairs(4) == ((1, 3), (1, 4), (2, 4))
    assert CoordinateIdentity.CARTAN_SHIFT.pairs(4) == ((1, 0), (2, 0))
    chain = make_chain(3, 2, ctx, rng)
    data, zm = gauss_decompose(monodromy(chain, 1.3 + 0.2j)), zero_mode_set(chain)
    for kind in CoordinateIdentity:
        for ij in ((i, j) for i in range(4) for j in range(5)):
            if ij in kind.pairs(3):
                assert coordinate_identity_residual(kind, ij, data, zm) < 1e-9
            else:
                with pytest.raises(DomainError):
                    coordinate_identity_residual(kind, ij, data, zm)


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
    assert normal_order_transfer_residual(chain, gauss_decompose(monodromy(chain, t))) < 1e-10


def test_normal_order_transfer_empty_chain(ctx):
    chain = ChainSpec(N=2, L=0, z=(), kappa=(1.3, 0.8), ctx=ctx)
    assert normal_order_transfer_residual(chain, gauss_decompose(monodromy(chain, 0.7))) < 1e-14


def test_normal_order_transfer_checks_the_decomposition_it_is_given(ctx, rng):
    # the residual of a decomposition passed in equals, bit for bit, the one
    # computed from the trace of the product of a decomposition built afresh
    # at the same point, and a planted error in it shows
    chain = make_chain(3, 3, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    fresh = gauss_decompose(monodromy(chain, t))
    acc = fresh.entry(1, 1) + fresh.entry(2, 2) + fresh.entry(3, 3)
    trace = transfer(chain, t)
    built = (trace - acc).norm() / max(trace.norm(), acc.norm(), 1e-300)
    given = gauss_decompose(monodromy(chain, t))
    assert normal_order_transfer_residual(chain, given) == built
    planted = dataclasses.replace(given, F={**given.F, (3, 1): (1 + 1e-6) * given.F[(3, 1)]})
    assert normal_order_transfer_residual(chain, planted) != built
