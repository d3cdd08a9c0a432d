"""Nested Bethe vectors: recursion consistency, weight support, eigenvector
property at roots, and the rank-2 unwanted-term decomposition."""
import numpy as np
import pytest

from bethelab import (
    BetheParameterSet,
    DegenerateVectorError,
    DomainError,
    IllPosedDecompositionError,
    SolverOptions,
    is_admissible,
    modified_vector,
    monodromy,
    nested_vector,
    on_shell_residual,
    same_type_weight,
    sample_annulus,
    solve_bethe,
    transfer,
    unwanted_decomposition,
    vacuum_data,
)
from bethelab.repcore import occupancy
from bethelab.vectors import expected_occupancy, unwanted_closed_form

from conftest import make_chain, separated_points


def empty_params(N):
    return BetheParameterSet(tuple(() for _ in range(N - 1)))


def test_vacuum_sector_returns_reference_state(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    w = nested_vector(chain, empty_params(3))
    want = np.zeros(chain.dim)
    want[0] = 1.0
    assert np.allclose(w.vector, want)


def test_rank2_vector_is_creation_product(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    roots = separated_points(rng, 2)
    w = nested_vector(chain, BetheParameterSet((tuple(roots),)))
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    direct = monodromy(chain, roots[0]).entry(1, 2).dense() @ (
        monodromy(chain, roots[1]).entry(1, 2).dense() @ omega)
    assert np.linalg.norm(w.vector - direct) / np.linalg.norm(direct) < 1e-12


def test_rank3_vector_against_dense_assembly_oracle(ctx, rng):
    # independent oracle: expand the auxiliary rank-2 vector explicitly and
    # assemble c_1 T_{1,2}(t^1) Omega + c_2 T_{1,3}(t^1) Omega by hand
    chain = make_chain(3, 2, ctx, rng)
    (t1,) = separated_points(rng, 1)
    (t2,) = separated_points(rng, 1)
    params = BetheParameterSet(((t1,), (t2,)))
    w = nested_vector(chain, params)

    from bethelab import ChainSpec
    aux = ChainSpec(N=2, L=1, z=(t1,), kappa=chain.kappa[1:], ctx=ctx)
    aux_omega = np.zeros(2, dtype=complex)
    aux_omega[0] = 1.0
    aux_vec = monodromy(aux, t2).entry(1, 2).dense() @ aux_omega
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    T = monodromy(chain, t1)
    direct = (aux_vec[0] * (T.entry(1, 2).dense() @ omega)
              + aux_vec[1] * (T.entry(1, 3).dense() @ omega))
    assert np.linalg.norm(w.vector - direct) / np.linalg.norm(direct) < 1e-12


def test_weight_support(ctx, rng):
    chain = make_chain(3, 3, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 1))))
    w = nested_vector(chain, params)
    want = expected_occupancy(chain.L, params.nbar)
    peak = np.max(np.abs(w.vector))
    assert peak > 0
    for idx in range(chain.dim):
        if occupancy(idx, chain.N, chain.L) != want:
            assert abs(w.vector[idx]) < 1e-12 * peak


def test_weight_support_sweep(ctx, rng):
    # every admissible sector up to rank 4 and length 4 stays in its block
    from bethelab import admissible_sectors
    for N in (2, 3, 4):
        for L in (1, 2, 3, 4):
            chain = make_chain(N, L, ctx, rng)
            for nbar in admissible_sectors(chain):
                if not 0 < sum(nbar) <= 6:
                    continue
                params = BetheParameterSet(
                    tuple(tuple(separated_points(rng, n)) for n in nbar))
                w = nested_vector(chain, params)
                want = expected_occupancy(L, nbar)
                peak = np.max(np.abs(w.vector))
                assert peak > 0, (N, L, nbar)
                for idx in np.flatnonzero(np.abs(w.vector) > 1e-12 * peak):
                    assert occupancy(int(idx), N, L) == want, (N, L, nbar)


def test_inadmissible_sector_warns_and_vanishes(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    assert not is_admissible(chain, params.nbar)
    with pytest.warns(UserWarning):
        w = nested_vector(chain, params)
    assert w.norm == 0.0


def test_modified_vector_prefactor(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 1))))
    plain = nested_vector(chain, params)
    mod = modified_vector(chain, params)
    _, lambdas = vacuum_data(chain)
    pref = same_type_weight(params, ctx)
    for a in range(2, 4):
        for t in params.type_values(a - 1):
            pref *= lambdas[a - 1](t)
    assert np.linalg.norm(mod.vector - pref * plain.vector) < 1e-12 * mod.norm


def test_modified_vector_single_excitation(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    (t1,) = separated_points(rng, 1)
    params = BetheParameterSet(((t1,),))
    mod = modified_vector(chain, params)
    _, lambdas = vacuum_data(chain)
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    want = lambdas[1](t1) * (monodromy(chain, t1).entry(1, 2).dense() @ omega)
    assert np.linalg.norm(mod.vector - want) / np.linalg.norm(want) < 1e-12


def test_modified_vector_collinear_under_swap(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t1 = separated_points(rng, 2)
    t2 = separated_points(rng, 1)
    w1 = modified_vector(chain, BetheParameterSet((tuple(t1), tuple(t2))))
    w2 = modified_vector(chain, BetheParameterSet(((t1[1], t1[0]), tuple(t2))))
    stacked = np.stack([w1.vector, w2.vector], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert sv[-1] <= 1e-9 * sv[0]
    # plain vectors differ although they are collinear: the exchange is
    # absorbed by the pair weight, not by the components
    assert np.linalg.norm(w1.vector - w2.vector) > 1e-6 * w1.norm


def test_vacuum_always_on_shell(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    resid, tau = on_shell_residual(chain, empty_params(3), t)
    _, lambdas = vacuum_data(chain)
    assert resid < 1e-13
    assert abs(tau - sum(lam(t) for lam in lambdas)) < 1e-13


def test_one_magnon_root_is_eigenvector(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    z, (kap1, kap2) = chain.z[0], chain.kappa
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    params = BetheParameterSet(((tstar,),))
    for _ in range(5):
        t = complex(sample_annulus(rng, 1)[0])
        resid, _ = on_shell_residual(chain, params, t)
        assert resid < 1e-10


def test_random_parameters_are_not_eigenvectors(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    hits = 0
    for _ in range(10):
        params = BetheParameterSet((tuple(separated_points(rng, 1)),))
        t = complex(sample_annulus(rng, 1)[0])
        resid, _ = on_shell_residual(chain, params, t)
        if resid > 1e-3:
            hits += 1
    assert hits >= 9


def test_degenerate_vector_error(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateVectorError):
            on_shell_residual(chain, params, 0.9 + 0.1j)


# ---------------------------------------------------------------------------
# unwanted-term decomposition (rank 2)


def test_unwanted_single_root_tracks_bethe_residual(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    z, (kap1, kap2) = chain.z[0], chain.kappa
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    t = complex(sample_annulus(rng, 1)[0])
    rep = unwanted_decomposition(chain, BetheParameterSet(((tstar,),)), t)
    assert abs(rep.coefficients[0]) <= 1e-8 * rep.scale
    rep_off = unwanted_decomposition(chain, BetheParameterSet(((tstar * 1.15,),)), t)
    assert abs(rep_off.coefficients[0]) > 1e-3 * rep_off.scale
    assert abs(rep_off.bethe_residuals[0]) > 1e-3


@pytest.mark.parametrize("n,L", [(1, 2), (2, 3), (3, 4), (4, 5)])
def test_unwanted_closed_form_matches_fit(ctx, rng, n, L):
    chain = make_chain(2, L, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, n)),))
    t = complex(sample_annulus(rng, 1)[0])
    rep = unwanted_decomposition(chain, params, t)
    assert rep.fit_residual < 1e-8
    for got, want in zip(rep.coefficients, rep.closed_form):
        assert abs(got - want) / max(abs(want), 1e-300) < 1e-8


def test_unwanted_on_shell_roots_vanish(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    result = solve_bethe(chain, (2,), SolverOptions(n_restarts=80))
    assert len(result) > 0
    for sol in result:
        t = complex(sample_annulus(rng, 1)[0])
        rep = unwanted_decomposition(chain, sol.params, t)
        assert max(abs(c) for c in rep.coefficients) <= 1e-8 * rep.scale
        assert rep.remainder_norm <= 1e-8 * rep.scale


def test_unwanted_rank_deficient_when_sector_is_full(ctx, rng):
    # n = L squeezes the candidate basis into a one-dimensional weight block
    chain = make_chain(2, 2, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    with pytest.raises(IllPosedDecompositionError):
        unwanted_decomposition(chain, params, complex(sample_annulus(rng, 1)[0]))


def test_unwanted_requires_rank2(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    params = BetheParameterSet(((0.9,), (1.7,)))
    with pytest.raises(DomainError):
        unwanted_decomposition(chain, params, 1.1)
