"""Nested Bethe vectors: recursion consistency, weight support, eigenvector
property at roots, and the rank-2 unwanted-term decomposition."""
import numpy as np
import pytest

from bethelab import (
    BetheParameterSet,
    ChainSpec,
    DegenerateVectorError,
    DomainError,
    IllPosedDecompositionError,
    bethe_residual,
    is_admissible,
    modified_vector,
    monodromy,
    nested_vector,
    on_shell_residuals,
    same_type_weight,
    sample_annulus,
    solve_bethe,
    transfer,
    unwanted_decomposition,
    vacuum_data,
)
from bethelab.repcore import entry_apply, occupancy
from bethelab.vectors import expected_occupancy, unwanted_closed_form

from conftest import make_chain, separated_points


def empty_params(N):
    return BetheParameterSet(tuple(() for _ in range(N - 1)))


def test_vacuum_sector_returns_reference_state(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    w = nested_vector(chain, empty_params(3))
    want = np.zeros(chain.dim)
    want[0] = 1.0
    assert np.allclose(w, want)


def test_rank2_vector_is_creation_product(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    roots = separated_points(rng, 2)
    w = nested_vector(chain, BetheParameterSet((tuple(roots),)))
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    direct = monodromy(chain, roots[0]).entry(1, 2).dense() @ (
        monodromy(chain, roots[1]).entry(1, 2).dense() @ omega)
    assert np.linalg.norm(w - direct) / np.linalg.norm(direct) < 1e-12


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
    assert np.linalg.norm(w - direct) / np.linalg.norm(direct) < 1e-12


def test_weight_support(ctx, rng):
    chain = make_chain(3, 3, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 1))))
    w = nested_vector(chain, params)
    want = expected_occupancy(chain.L, params.nbar)
    peak = np.max(np.abs(w))
    assert peak > 0
    for idx in range(chain.dim):
        if occupancy(idx, chain.N, chain.L) != want:
            assert abs(w[idx]) < 1e-12 * peak


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
                peak = np.max(np.abs(w))
                assert peak > 0, (N, L, nbar)
                for idx in np.flatnonzero(np.abs(w) > 1e-12 * peak):
                    assert occupancy(int(idx), N, L) == want, (N, L, nbar)


@pytest.mark.parametrize("N", [2, 3])
def test_a_non_root_set_on_an_r_matrix_pole_fails_on_shell(ctx, rng, N):
    # the pole-free monodromy builds a finite vector with a type-1 parameter
    # on the pole z_1/q^2 of the normalized R; off shell, it is no eigenvector
    chain = make_chain(N, 3, ctx, rng)
    roots = (chain.z[0] / ctx.q ** 2, 0.9 + 0.3j)
    params = BetheParameterSet((roots,) + ((1.1 - 0.2j,),) * (N - 2))
    assert np.all(np.isfinite(nested_vector(chain, params)))
    residuals = on_shell_residuals(chain, params, sample_annulus(rng, 5))
    assert min(resid for resid, _ in residuals) > 1e-3


def test_inadmissible_sector_warns_and_vanishes(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    assert not is_admissible(chain, params.nbar)
    with pytest.warns(UserWarning):
        w = nested_vector(chain, params)
    assert np.linalg.norm(w) == 0.0


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
    assert np.linalg.norm(mod - pref * plain) < 1e-12 * np.linalg.norm(mod)


def test_modified_vector_single_excitation(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    (t1,) = separated_points(rng, 1)
    params = BetheParameterSet(((t1,),))
    mod = modified_vector(chain, params)
    _, lambdas = vacuum_data(chain)
    omega = np.zeros(chain.dim, dtype=complex)
    omega[0] = 1.0
    want = lambdas[1](t1) * (monodromy(chain, t1).entry(1, 2).dense() @ omega)
    assert np.linalg.norm(mod - want) / np.linalg.norm(want) < 1e-12


def test_modified_vector_collinear_under_swap(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t1 = separated_points(rng, 2)
    t2 = separated_points(rng, 1)
    w1 = modified_vector(chain, BetheParameterSet((tuple(t1), tuple(t2))))
    w2 = modified_vector(chain, BetheParameterSet(((t1[1], t1[0]), tuple(t2))))
    stacked = np.stack([w1, w2], axis=1)
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert sv[-1] <= 1e-9 * sv[0]
    # plain vectors differ although they are collinear: the exchange is
    # absorbed by the pair weight, not by the components
    assert np.linalg.norm(w1 - w2) > 1e-6 * np.linalg.norm(w1)


def test_vacuum_always_on_shell(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = complex(sample_annulus(rng, 1)[0])
    resid, tau = on_shell_residuals(chain, empty_params(3), (t,))[0]
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
        resid, _ = on_shell_residuals(chain, params, (t,))[0]
        assert resid < 1e-10


def test_random_parameters_are_not_eigenvectors(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    hits = 0
    for _ in range(10):
        params = BetheParameterSet((tuple(separated_points(rng, 1)),))
        t = complex(sample_annulus(rng, 1)[0])
        resid, _ = on_shell_residuals(chain, params, (t,))[0]
        if resid > 1e-3:
            hits += 1
    assert hits >= 9


def test_on_shell_and_unwanted_residuals_are_the_same_at_every_scale(ctx, rng):
    # scaling z, the parameters and t by c scales the pole-free T(t) by c^L
    # and the vectors by powers of c; residuals relative to both sides stay put
    chain = make_chain(2, 4, ctx, rng)
    c = 10.0
    scaled = ChainSpec(N=2, L=4, z=tuple(c * z for z in chain.z), kappa=chain.kappa, ctx=ctx)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    t = complex(sample_annulus(rng, 1)[0])
    [(resid, _)] = on_shell_residuals(chain, params, [t])
    [(resid_c, _)] = on_shell_residuals(scaled, params.scaled(c), [c * t])
    assert resid > 1e-3
    assert abs(resid_c - resid) <= 1e-12 * resid
    reps = (unwanted_decomposition(chain, params, t),
            unwanted_decomposition(scaled, params.scaled(c), c * t))
    vanishing = [[abs(cm) / s for cm, s in zip(rep.coefficients, rep.scales)] for rep in reps]
    assert min(vanishing[0]) > 1e-3
    assert np.allclose(vanishing[1], vanishing[0], rtol=1e-12, atol=0)


def test_degenerate_vector_error(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateVectorError):
            on_shell_residuals(chain, params, (0.9 + 0.1j,))[0]


def _recorded(points, drawn):
    """Yield `points` one at a time, appending each to `drawn` as it is drawn."""
    for t in points:
        drawn.append(t)
        yield t


@pytest.mark.parametrize("N,L,nbar", [(2, 4, (2,)), (3, 3, (2, 1))])
def test_on_shell_residuals_match_per_point_calls(ctx, rng, N, L, nbar):
    # every point of a root set in one kernel call gives each point's own
    # residual and tau, bit for bit, on shell and off shell
    chain = make_chain(N, L, ctx, rng)
    on_shell = solve_bethe(chain, nbar).solutions[0].params
    off_shell = BetheParameterSet(tuple(tuple(separated_points(rng, n)) for n in nbar))
    for params in (on_shell, off_shell):
        points = [complex(t) for t in sample_annulus(rng, 20)]
        drawn = []
        got = on_shell_residuals(chain, params, _recorded(points, drawn))
        assert drawn == points
        assert got == [on_shell_residuals(chain, params, (t,))[0] for t in points]
    assert max(resid for resid, _ in on_shell_residuals(chain, on_shell, points)) < 1e-8
    assert on_shell_residuals(chain, on_shell, iter(())) == []


def test_on_shell_residuals_draw_nothing_for_a_vanishing_vector(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    drawn = []
    with pytest.warns(UserWarning):
        with pytest.raises(DegenerateVectorError):
            on_shell_residuals(chain, params, _recorded(sample_annulus(rng, 20), drawn))
    assert drawn == []


# ---------------------------------------------------------------------------
# unwanted-term decomposition (rank 2)


def test_unwanted_single_root_tracks_bethe_residual(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    z, (kap1, kap2) = chain.z[0], chain.kappa
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    t = complex(sample_annulus(rng, 1)[0])
    rep = unwanted_decomposition(chain, BetheParameterSet(((tstar,),)), t)
    assert abs(rep.coefficients[0]) <= 1e-8 * rep.scales[0]
    off = BetheParameterSet(((tstar * 1.15,),))
    rep_off = unwanted_decomposition(chain, off, t)
    assert abs(rep_off.coefficients[0]) > 1e-3 * rep_off.scales[0]
    _, lambdas = vacuum_data(chain)
    assert abs(bethe_residual(1, 1, off, lambdas, ctx)) > 1e-3


@pytest.mark.parametrize("L", [4, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unwanted_candidates_are_bethe_vectors_with_t_in_place_of_t_m(ctx, rng, n, L):
    # reference: T_{1,2}(t) prod_{j != m} T_{1,2}(t_j) Omega for every m in
    # one batch, highest j acting first; candidate m is that column, bit for bit
    chain = make_chain(2, L, ctx, rng)
    roots = tuple(separated_points(rng, n + 1))
    t, roots = roots[0], roots[1:]
    A = np.zeros((chain.dim, n), dtype=complex)
    A[0] = 1.0
    for pos in range(n - 1, -1, -1):
        others = np.arange(n) != pos
        A[:, others] = entry_apply(chain, roots[pos], 1, 2, A[:, others])
    A = entry_apply(chain, t, 1, 2, A)
    for m in range(n):
        swapped = BetheParameterSet(((t,) + roots[:m] + roots[m + 1:],))
        assert np.array_equal(nested_vector(chain, swapped), A[:, m])


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
    result = solve_bethe(chain, (2,))
    assert len(result) == 3
    for sol in result:
        t = complex(sample_annulus(rng, 1)[0])
        rep = unwanted_decomposition(chain, sol.params, t)
        assert all(abs(c) <= 1e-8 * s for c, s in zip(rep.coefficients, rep.scales))
        (residual, _), = on_shell_residuals(chain, sol.params, [t])
        assert residual <= 1e-8


def test_unwanted_rank_deficient_when_sector_is_full(ctx, rng):
    # n = L squeezes the candidate basis into a one-dimensional weight block
    chain = make_chain(2, 2, ctx, rng)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),))
    with pytest.raises(IllPosedDecompositionError):
        unwanted_decomposition(chain, params, complex(sample_annulus(rng, 1)[0]))


@pytest.mark.parametrize("values", [(), ((),)])
def test_unwanted_rejects_a_set_without_types_or_roots(ctx, rng, values):
    chain = make_chain(2, 4, ctx, rng)
    with pytest.raises(DomainError, match="got 0"):
        unwanted_decomposition(chain, BetheParameterSet(values), 1.1)


def test_unwanted_requires_rank2(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    params = BetheParameterSet(((0.9,), (1.7,)))
    with pytest.raises(DomainError):
        unwanted_decomposition(chain, params, 1.1)
