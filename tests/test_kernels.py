"""Kernel tests: frozen hand values, independent expansions, poles, batches."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethelab import (
    BetheParameterSet,
    DeformationContext,
    DomainError,
    PoleError,
    bethe_residual,
    nesting_overlap,
    nesting_overlap_alt,
    partial_fraction_residual,
    sample_annulus,
    same_type_weight,
    shift_weight,
    solve_bethe,
    split_weight,
    string_overlap,
    top_split_weight,
    transfer_eigenvalue,
    transfer_eigenvalue_residues,
    vacuum_data,
)
from bethelab import solver
from bethelab.context import POLE_MARGIN
from bethelab.kernels import _tau_terms, bethe_rhs

from conftest import make_chain, separated_points

TOL = 1e-12


def const(v):
    return lambda t: v + 0j


# ---------------------------------------------------------------------------
# transfer eigenvalue


def test_tau_empty_sector_is_sum_of_lambdas(ctx):
    lambdas = [const(1.1), const(2.2), const(0.3)]
    params = BetheParameterSet(((), ()))
    t = 0.9 + 0.2j
    assert abs(transfer_eigenvalue(lambdas, params, t, ctx) - (1.1 + 2.2 + 0.3)) < TOL


def test_tau_rank2_bracket_form(ctx, rng):
    # independent oracle: lam1 prod (1/q - q t_i/t)/(1 - t_i/t) + lam2 prod (q - t_i/(qt))/(1 - t_i/t)
    q = ctx.q
    roots = separated_points(rng, 3)
    lam1, lam2 = 1.7 - 0.4j, 0.6 + 1.1j
    t = 2.4 + 0.3j
    expect = (lam1 * np.prod([(1 / q - q * ti / t) / (1 - ti / t) for ti in roots])
              + lam2 * np.prod([(q - ti / (q * t)) / (1 - ti / t) for ti in roots]))
    got = transfer_eigenvalue([const(lam1), const(lam2)],
                              BetheParameterSet((tuple(roots),)), t, ctx)
    assert abs(got - expect) / abs(expect) < TOL


def test_tau_pole_on_parameter(ctx):
    params = BetheParameterSet(((1.0 + 0j,),))
    with pytest.raises(PoleError):
        transfer_eigenvalue([const(1), const(2)], params, 1.0 + 1e-9j, ctx)
    # one point of a batch within POLE_MARGIN of the root fails the batch
    batch = np.array([0.5 + 0.5j, 1.0 + 0.9 * POLE_MARGIN * 1j, 2.0 - 0.3j])
    with pytest.raises(PoleError):
        transfer_eigenvalue([const(1), const(2)], params, batch, ctx)
    transfer_eigenvalue([const(1), const(2)], params, batch[[0, 2]], ctx)


@pytest.mark.parametrize("N,L", [(2, 4), (3, 3), (4, 3)])
def test_tau_batch_equals_each_point_alone(ctx, rng, N, L):
    # one call over 50 points gives each point's own value bit for bit, a
    # scalar point a complex, and constant lambdas broadcast to the points
    _, vacuum = vacuum_data(make_chain(N, L, ctx, rng))
    constant = [const(v) for v in (1.3, 0.7 + 0.1j, 1.9, 0.4 - 2j)[:N]]
    params = BetheParameterSet(tuple(tuple(separated_points(rng, n))
                                     for n in range(N - 1, 0, -1)))
    points = sample_annulus(rng, 50)
    for lambdas in (vacuum, constant):
        batch = transfer_eigenvalue(lambdas, params, points, ctx)
        alone = [transfer_eigenvalue(lambdas, params, complex(t), ctx) for t in points]
        assert all(type(tau) is complex for tau in alone)
        assert np.array_equal(batch, alone)
        grid = transfer_eigenvalue(lambdas, params, points.reshape(5, 10), ctx)
        assert np.array_equal(grid, batch.reshape(5, 10))


def test_tau_residue_vanishes_exactly_on_one_magnon_root(ctx):
    # one-site rank-2 chain in scalar form: lam1 = kap1, lam2 = kap2 (t-z)/(qt-z/q)
    q = ctx.q
    z, kap1, kap2 = 1.3 + 0.2j, 1.1, 0.8 + 0.5j
    lam2 = lambda t: kap2 * (t - z) / (q * t - z / q)
    lambdas = [const(kap1), lam2]
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    params = BetheParameterSet(((tstar,),))
    assert abs(bethe_residual(1, 1, params, lambdas, ctx)) < 1e-12
    resid, scale = transfer_eigenvalue_residues(lambdas, params, ctx)
    assert abs(resid[0]) <= 1e-10 * scale[0]
    # displacing the root by 1e-2 must surface in the residue
    moved = BetheParameterSet(((tstar * (1 + 1e-2),),))
    resid2, scale2 = transfer_eigenvalue_residues(lambdas, moved, ctx)
    assert abs(resid2[0]) >= 1e-4 * scale2[0]


def test_tau_residue_on_solver_roots(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    _, lambdas = vacuum_data(chain)
    result = solve_bethe(chain, (2,))
    assert len(result) == 1
    params = result.solutions[0].params
    resid, scale = transfer_eigenvalue_residues(lambdas, params, ctx)
    for j in (1, 2):
        assert abs(resid[j - 1]) <= 1e-8 * scale[j - 1]
    moved = BetheParameterSet(((params.value(1, 1) * 1.01, params.value(1, 2)),))
    resid, scale = transfer_eigenvalue_residues(lambdas, moved, ctx)
    assert abs(resid[0]) >= 1e-4 * scale[0]


def test_tau_residue_of_both_types_on_solver_roots(ctx, rng):
    # rank 3: the residue at a type-2 root cancels between terms 2 and 3
    chain = make_chain(3, 3, ctx, rng)
    _, lambdas = vacuum_data(chain)
    result = solve_bethe(chain, (2, 1))
    assert len(result) > 0
    for params in (sol.params for sol in result):
        # type order: (1, 1), (1, 2), (2, 1)
        resid, scale = transfer_eigenvalue_residues(lambdas, params, ctx)
        assert np.all(np.abs(resid) <= 1e-8 * scale)
        moved = BetheParameterSet((params.values[0], (params.value(2, 1) * 1.01,)))
        resid, scale = transfer_eigenvalue_residues(lambdas, moved, ctx)
        assert abs(resid[2]) >= 1e-4 * scale[2]


def contour_residues(lambdas, params, ctx, radius=1e-4, points=64):
    """Reference residues of tau at every root, in type order, and the largest
    per-term residue: the trapezoid rule on a circle of relative `radius`
    about the root, which is exact only while no other root lies inside."""
    w = np.exp(2j * np.pi * np.arange(points) / points)
    resid, scale = [], []
    for u in (u for grp in params.values for u in grp):
        r = radius * abs(u)
        acc = (_tau_terms(lambdas, params, u + r * w, ctx, 1e-12) * w).sum(axis=1) * (r / points)
        resid.append(acc.sum())
        scale.append(np.max(np.abs(acc)))
    return np.array(resid), np.array(scale)


@pytest.mark.parametrize("N,L,sectors", [
    (2, 6, ((1,), (2,), (3,))),
    (3, 4, ((2, 1), (3, 1), (2, 2))),
    (4, 3, ((2, 1, 0), (2, 1, 1))),
])
def test_tau_residues_match_the_contour_at_solver_roots(ctx, rng, N, L, sectors):
    chain = make_chain(N, L, ctx, rng)
    _, lambdas = vacuum_data(chain)
    count = 0
    for nbar in sectors:
        for sol in solve_bethe(chain, nbar):
            resid, scale = transfer_eigenvalue_residues(lambdas, sol.params, ctx)
            ref, ref_scale = contour_residues(lambdas, sol.params, ctx)
            assert np.allclose(np.abs(resid) / scale, np.abs(ref) / ref_scale, rtol=0, atol=1e-12)
            assert np.allclose(scale, ref_scale, rtol=1e-9, atol=0)
            count += len(resid)
    assert count > 0


def test_tau_residues_at_near_coincident_roots(ctx, rng):
    # roots at relative gap 1e-5 lie inside a 1e-4 contour together; the
    # reference circles each root at a radius below the gap
    u, v = separated_points(rng, 2)
    near_same_type = (make_chain(2, 4, ctx, rng),
                      BetheParameterSet(((u, u * (1 + 1e-5), v),)))
    u, v = separated_points(rng, 2)
    near_next_type = (make_chain(3, 3, ctx, rng),
                      BetheParameterSet(((u, v), (u * (1 + 1e-5),))))
    for chain, params in (near_same_type, near_next_type):
        _, lambdas = vacuum_data(chain)
        resid, scale = transfer_eigenvalue_residues(lambdas, params, ctx)
        ref, ref_scale = contour_residues(lambdas, params, ctx, radius=1e-7)
        assert np.allclose(resid, ref, rtol=1e-8, atol=0)
        assert np.allclose(scale, ref_scale, rtol=1e-8, atol=0)


@pytest.mark.parametrize("N,L,nbar", [(2, 4, (3,)), (3, 4, (3, 2)), (4, 4, (3, 2, 1))])
def test_tau_residue_ratio_over_the_solver_backward_error(ctx, rng, N, L, nbar):
    # residue and scale are (A - eps B) and max(|A|, |eps B|) of the solver's
    # cleared equation times one common factor, so over its backward error
    # |A - eps B| / (|A| + |eps B|) the ratio is (|A| + |eps B|) / max(|A|, |eps B|)
    chain = make_chain(N, L, ctx, rng)
    _, lambdas = vacuum_data(chain)
    hom, unit = solver._unit_homotopy(chain, nbar)
    for _ in range(10):
        params = BetheParameterSet(tuple(tuple(separated_points(rng, n)) for n in nbar))
        resid, scale = transfer_eigenvalue_residues(lambdas, params, ctx)
        roots = np.array([u for grp in params.values for u in grp])
        ratio = np.abs(resid) / scale / hom.backward_error(roots[None] / unit)[0]
        assert np.all((ratio >= 1 - 1e-12) & (ratio <= 2 + 1e-12)), ratio


def test_tau_rejects_more_parameter_types_than_terms(ctx):
    params = BetheParameterSet(((0.8 + 0.1j,), (1.3 - 0.2j,)))
    with pytest.raises(DomainError, match="2 parameter types for 2 eigenvalue terms"):
        transfer_eigenvalue([const(1), const(2)], params, 1.1 + 0.3j, ctx)
    with pytest.raises(DomainError, match="at most 1"):
        transfer_eigenvalue_residues([const(1), const(2)], params, ctx)


# ---------------------------------------------------------------------------
# Bethe residual


def test_bethe_residual_trivial_when_lambdas_equal(ctx):
    lambdas = [const(1.4), const(1.4)]
    params = BetheParameterSet(((0.8 + 0.1j,),))
    assert abs(bethe_residual(1, 1, params, lambdas, ctx)) < TOL


def test_bethe_residual_one_magnon_closed_form(ctx):
    q = ctx.q
    z, kap1, kap2 = 0.9 - 0.4j, 1.3 + 0.1j, 0.7
    lambdas = [const(kap1), lambda t: kap2 * (t - z) / (q * t - z / q)]
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    assert abs(bethe_residual(1, 1, BetheParameterSet(((tstar,),)), lambdas, ctx)) < 1e-13
    off = BetheParameterSet(((tstar * 1.1,),))
    assert abs(bethe_residual(1, 1, off, lambdas, ctx)) > 1e-3


def test_bethe_residual_generic_point_nonzero(ctx, rng):
    lambdas = [const(1.2), const(0.5 + 0.6j), const(2.0)]
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 1))))
    assert abs(bethe_residual(1, 1, params, lambdas, ctx)) > 1e-3
    with pytest.raises(DomainError):
        bethe_residual(3, 1, params, lambdas, ctx)


# ---------------------------------------------------------------------------
# pair weight


def test_pair_weight_trivial_for_single_entries(ctx):
    assert same_type_weight(BetheParameterSet(((0.5,), (1.2,))), ctx) == 1.0


def test_pair_weight_two_entries_formula(ctx):
    q = ctx.q
    t1, t2 = 0.8 + 0.3j, 1.7 - 0.2j
    got = same_type_weight(BetheParameterSet(((t1, t2),)), ctx)
    assert abs(got - (q - t1 / (q * t2)) / (1 - t1 / t2)) < TOL


def test_pair_weight_hand_value():
    # q = 1.5, entries (1, 2): (1.5 - (2/3)(1/2)) / (1 - 1/2) = 7/3
    ctx = DeformationContext(q=1.5)
    got = same_type_weight(BetheParameterSet(((1.0, 2.0),)), ctx)
    assert abs(got - 7 / 3) < TOL


def test_pair_weight_pole_on_coincident_entries(ctx):
    params = BetheParameterSet(((1.0, 1.0 + 1e-9),))
    with pytest.raises(PoleError):
        same_type_weight(params, ctx)


# ---------------------------------------------------------------------------
# nesting overlap


def test_nesting_overlap_empty(ctx):
    assert nesting_overlap((), (), ctx) == 1.0


def test_nesting_overlap_single_pair(ctx):
    t1, t2 = 0.7 + 0.1j, 1.9 - 0.3j
    assert abs(nesting_overlap((t2,), (t1,), ctx) - 1 / (1 - t1 / t2)) < TOL


def test_nesting_overlap_two_forms_agree(ctx, rng):
    for k in range(2, 6):
        upper = separated_points(rng, k)
        lower = separated_points(rng, k)
        a = nesting_overlap(upper, lower, ctx)
        b = nesting_overlap_alt(upper, lower, ctx)
        assert abs(a - b) / abs(a) < 1e-10


# ---------------------------------------------------------------------------
# string overlap


def test_string_overlap_empty_layout(ctx):
    assert string_overlap(BetheParameterSet(((), ())), ctx) == 1.0


def test_string_overlap_two_types_one_each(ctx):
    t1, t2 = 1.2, 0.4 + 0.8j
    got = string_overlap(BetheParameterSet(((t1,), (t2,))), ctx)
    assert abs(got - 1 / (1 - t1 / t2)) < TOL


def test_string_overlap_shifted_lower_slot(ctx, rng):
    # layout (2, 1): the single upper entry couples to the top lower entry
    t11, t12 = separated_points(rng, 2)
    (t21,) = separated_points(rng, 1)
    got = string_overlap(BetheParameterSet(((t11, t12), (t21,))), ctx)
    assert abs(got - 1 / (1 - t12 / t21)) < TOL


def test_string_overlap_rejects_increasing_counts(ctx):
    with pytest.raises(DomainError):
        string_overlap(BetheParameterSet(((0.5,), (1.0, 2.0))), ctx)


# ---------------------------------------------------------------------------
# split weights


def test_split_weight_trivial_splits(ctx, rng):
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 2))))
    assert split_weight(params, (2, 2), ctx) == 1.0  # empty first range
    assert split_weight(params, (0, 0), ctx) == 1.0  # empty second range


def test_split_weight_hand_value():
    # one crossing pair at q = 2, t^1 = 1, t^2 = 4: (2 - 0.5 * 0.25)/(1 - 0.25) = 2.5
    ctx = DeformationContext(q=2.0)
    params = BetheParameterSet(((1.0,), (4.0,)))
    got = split_weight(params, (0, 1), ctx)
    assert abs(got - 2.5) < TOL


def test_split_weight_validates_ranges(ctx):
    params = BetheParameterSet(((1.0,), (2.0,)))
    with pytest.raises(DomainError):
        split_weight(params, (2, 0), ctx)


def test_top_split_weight_trivial(ctx):
    # one type filled, next type empty: both products empty
    params = BetheParameterSet(((0.9,), ()))
    assert top_split_weight(1, params, ctx) == 1.0


def test_top_split_weight_hand_expansion(ctx, rng):
    q = ctx.q
    t1 = separated_points(rng, 2)
    t2 = separated_points(rng, 2)
    params = BetheParameterSet((tuple(t1), tuple(t2)))
    got = top_split_weight(2, params, ctx)
    # direct expansion: a = 1 factor then the trailing type-3 product (empty)
    expect = (1 / (1 - t1[1] / t2[1])) * (q - t1[1] / (q * t2[0])) / (1 - t1[1] / t2[0])
    assert abs(got - expect) / abs(expect) < TOL


def test_shift_weight_last_product_only(ctx, rng):
    # m = j - 2 leaves only the trailing product
    q = ctx.q
    t1 = separated_points(rng, 3)
    t2 = separated_points(rng, 1)
    params = BetheParameterSet((tuple(t1), tuple(t2)))
    got = shift_weight(1, 3, params, ctx)
    expect = np.prod([(q - t1[k] / (q * t2[0])) / (1 - t1[k] / t2[0]) for k in range(2)])
    assert abs(got - expect) / abs(expect) < TOL


def test_shift_and_top_split_cross_check(ctx, rng):
    # product of the two factors against a term-by-term expansion at a random
    # rank-3 point with sector (2, 2)
    q = ctx.q
    t1 = separated_points(rng, 2)
    t2 = separated_points(rng, 2)
    params = BetheParameterSet((tuple(t1), tuple(t2)))
    z1 = top_split_weight(1, params, ctx)
    y1 = shift_weight(1, 3, params, ctx)
    z1_expect = np.prod([(q - t1[1] / (q * t2[j])) / (1 - t1[1] / t2[j])
                         for j in range(2)])
    y1_expect = (q - t1[0] / (q * t2[0])) / (1 - t1[0] / t2[0])
    assert abs(z1 * y1 - z1_expect * y1_expect) / abs(z1_expect * y1_expect) < TOL


def test_shift_weight_index_validation(ctx):
    params = BetheParameterSet(((1.0,), (2.0,)))
    with pytest.raises(DomainError):
        shift_weight(2, 3, params, ctx)


# ---------------------------------------------------------------------------
# partial fractions


def test_partial_fraction_three_points_symbolic():
    # A - B - C with A = 1/((t-s2)(s2-s1)), B = 1/((t-s1)(s2-s1)), C = 1/((t-s2)(t-s1))
    t, s1, s2 = 2.7 + 0.4j, 0.6, 1.4 - 0.8j
    a = 1 / ((t - s2) * (s2 - s1))
    b = 1 / ((t - s1) * (s2 - s1))
    c = 1 / ((t - s2) * (t - s1))
    assert abs(a - b - c) < 1e-15
    assert partial_fraction_residual(3, t, (s1, s2)) < 1e-14


@pytest.mark.parametrize("j", [3, 4, 5, 6])
def test_partial_fraction_random_points(ctx, rng, j):
    for _ in range(25):
        pts = separated_points(rng, j - 1)
        t = complex(separated_points(rng, 1)[0]) + 3.0
        assert partial_fraction_residual(j, t, pts) < 1e-12


def test_partial_fraction_rejects_coincident_points():
    with pytest.raises(PoleError):
        partial_fraction_residual(3, 1.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        partial_fraction_residual(2, 1.0, (0.5,))


# ---------------------------------------------------------------------------
# degree-zero homogeneity


@settings(max_examples=20, deadline=None, derandomize=True)
@given(radius=st.floats(0.5, 2.0), angle=st.floats(0.0, 6.28))
def test_kernels_scale_invariant(radius, angle):
    ctx = DeformationContext(q=1.4, seed=9)
    rng = np.random.default_rng(5150)
    c = radius * np.exp(1j * angle)
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 2))))
    scaled = params.scaled(c)
    checks = [
        (same_type_weight(params, ctx), same_type_weight(scaled, ctx)),
        (string_overlap(params, ctx), string_overlap(scaled, ctx)),
        (split_weight(params, (1, 1), ctx), split_weight(scaled, (1, 1), ctx)),
        (top_split_weight(1, params, ctx), top_split_weight(1, scaled, ctx)),
        (shift_weight(0, 3, params, ctx), shift_weight(0, 3, scaled, ctx)),
        (bethe_rhs(1, 1, params, ctx), bethe_rhs(1, 1, scaled, ctx)),
    ]
    lambdas = [const(1.3), const(0.8 + 0.2j), const(1.9)]
    t = 2.6 + 0.4j
    checks.append((transfer_eigenvalue(lambdas, params, t, ctx),
                   transfer_eigenvalue(lambdas, scaled, c * t, ctx)))
    for a, b in checks:
        assert abs(a - b) / max(abs(a), abs(b)) < 1e-10
