"""Permutation-action and q-symmetrization tests."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethelab import (
    BetheParameterSet,
    CapacityError,
    DeformationContext,
    DomainError,
    TypedFunction,
    exchange_factor,
    pi_action,
    qsym,
    qsym_values,
    sym_weight,
)
from bethelab.qsym import (
    adjacent_swap_plan,
    composed_action_weight,
    cyclic_identity_sides,
    decomposition_sides,
    partial_qsym_values,
    shift_expansion_backward,
    shift_expansion_forward,
    shuffle_permutations,
)

from conftest import separated_points

TOL = 1e-12


def poly(*t):
    out = t[0] ** 2
    for i, v in enumerate(t[1:], start=2):
        out += v ** i / t[0] + 0.41 * v
    return out / t[-1]


def test_exchange_factor_hand_value():
    # q = 1.5, (x, y) = (1, 2): (2/3 - 3/4) / (3/2 - 1/3) = -1/14
    assert abs(exchange_factor(1.0, 2.0, 1.5) - (-1 / 14)) < TOL


def test_exchange_factor_involution(rng):
    q = 1.5
    x, y = separated_points(rng, 2)
    assert abs(exchange_factor(x, y, q) * exchange_factor(y, x, q) - 1) < TOL


def test_pi_identity_is_noop(ctx):
    G = TypedFunction((2,), lambda p: p.value(1, 1) ** 2 / p.value(1, 2))
    params = BetheParameterSet(((0.7, 1.8),))
    acted = pi_action(G, 1, (0, 1), ctx)
    assert abs(acted(params) - G(params)) < TOL


def test_pi_elementary_hand_value():
    ctx = DeformationContext(q=1.5)
    G = TypedFunction((2,), lambda p: 1.0 + 0j)
    acted = pi_action(G, 1, (1, 0), ctx)
    got = acted(BetheParameterSet(((1.0, 2.0),)))
    assert abs(got - (-1 / 14)) < TOL


def test_pi_squares_to_identity(ctx, rng):
    G = TypedFunction((3,), lambda p: poly(*p.type_values(1)))
    params = BetheParameterSet((tuple(separated_points(rng, 3)),))
    swap = (1, 0, 2)
    acted = pi_action(pi_action(G, 1, swap, ctx), 1, swap, ctx)
    assert abs(acted(params) - G(params)) / abs(G(params)) < 1e-10


def test_pi_rejects_cross_type_permutation(ctx):
    G = TypedFunction((2, 1), lambda p: 1.0 + 0j)
    with pytest.raises(DomainError):
        pi_action(G, 3, (0,), ctx)
    with pytest.raises(DomainError):
        pi_action(G, 1, (0, 0), ctx)


def test_composed_weight_matches_inversion_formula(ctx, rng):
    # path independence: the adjacent-swap construction must reproduce the
    # closed inversion-pair weight for every permutation
    q = ctx.q
    for n in (2, 3, 4):
        vals = separated_points(rng, n)
        for perm in itertools.permutations(range(n)):
            w_plan, rearranged = composed_action_weight(perm, vals, q)
            w_closed = sym_weight(perm, vals, q)
            assert abs(w_plan - w_closed) / abs(w_closed) < 1e-10
            assert rearranged == [vals[p] for p in perm]


def test_adjacent_swap_plan_realizes_permutation():
    for perm in itertools.permutations(range(4)):
        cur = list(range(4))
        for pos in adjacent_swap_plan(perm):
            cur[pos], cur[pos + 1] = cur[pos + 1], cur[pos]
        assert tuple(cur) == perm


def test_qsym_single_variable_unchanged(ctx):
    G = TypedFunction((1, 1), lambda p: p.value(1, 1) * p.value(2, 1) ** 2)
    params = BetheParameterSet(((0.8,), (1.4,)))
    assert abs(qsym(G, ctx)(params) - G(params)) < TOL


def test_qsym_hand_value():
    # q = 1.5, G = t_1, points (1, 2): (1/2)(1 + (-1/14) * 2) = 3/7
    ctx = DeformationContext(q=1.5)
    got = qsym_values(lambda *t: t[0], (1.0, 2.0), 1.5)
    assert abs(got - 3 / 7) < TOL
    G = TypedFunction((2,), lambda p: p.value(1, 1))
    got2 = qsym(G, ctx)(BetheParameterSet(((1.0, 2.0),)))
    assert abs(got2 - 3 / 7) < TOL


def test_qsym_idempotent_multi_type(ctx, rng):
    layout = (2, 2)
    G = TypedFunction(layout, lambda p: poly(*(p.type_values(1) + p.type_values(2))))
    params = BetheParameterSet((tuple(separated_points(rng, 2)),
                                tuple(separated_points(rng, 2))))
    once = qsym(G, ctx)(params)
    twice = qsym(qsym(G, ctx), ctx)(params)
    assert abs(once - twice) / abs(once) < 1e-10


def test_qsym_output_is_invariant_under_pi(ctx, rng):
    G = TypedFunction((3,), lambda p: poly(*p.type_values(1)))
    params = BetheParameterSet((tuple(separated_points(rng, 3)),))
    sym = qsym(G, ctx)
    base = sym(params)
    for perm in itertools.permutations(range(3)):
        acted = pi_action(sym, 1, perm, ctx)(params)
        assert abs(acted - base) / abs(base) < 1e-10


def test_qsym_capacity_cap(ctx):
    G = TypedFunction((8,), lambda p: 1.0 + 0j)
    with pytest.raises(CapacityError):
        qsym(G, ctx)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), seed=st.integers(0, 1000))
def test_qsym_idempotent_property(n, seed):
    q = 1.45
    rng = np.random.default_rng(seed)
    vals = separated_points(rng, n)
    once = qsym_values(poly, vals, q)
    twice = qsym_values(lambda *t: qsym_values(poly, t, q), vals, q)
    assert abs(once - twice) / max(abs(once), 1e-300) < 1e-10


@pytest.mark.parametrize("n,s", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)])
def test_shuffle_decomposition(ctx, rng, n, s):
    vals = separated_points(rng, n)
    full, split = decomposition_sides(poly, vals, ctx.q, s)
    assert abs(full - split) / abs(full) < 1e-10


def test_shuffle_set_size():
    assert len(list(shuffle_permutations(4, 2))) == math.comb(4, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shift_expansions_match_scaled_average(ctx, rng, n):
    vals = separated_points(rng, n)
    lhs = n * qsym_values(poly, vals, ctx.q)
    assert abs(shift_expansion_forward(poly, vals, ctx.q) - lhs) / abs(lhs) < 1e-10
    assert abs(shift_expansion_backward(poly, vals, ctx.q) - lhs) / abs(lhs) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_rotation_identity(ctx, rng, n):
    vals = separated_points(rng, n)
    a, b = cyclic_identity_sides(poly, vals, ctx.q)
    assert abs(a - b) / abs(a) < 1e-10


def test_partial_qsym_spectates_inactive_slots(ctx, rng):
    vals = separated_points(rng, 3)
    # symmetrizing over a single slot is the identity
    got = partial_qsym_values(poly, vals, ctx.q, [1])
    assert abs(got - poly(*vals)) < TOL
    # symmetrizing over all slots reproduces the full average
    got_all = partial_qsym_values(poly, vals, ctx.q, [0, 1, 2])
    assert abs(got_all - qsym_values(poly, vals, ctx.q)) < TOL


@pytest.mark.parametrize("active", [[0, 1, 2, 3], [1, 3], [2]])
def test_partial_qsym_weights_equal_sym_weight_bit_for_bit(ctx, rng, active):
    # the cached inversion tables multiply the same factors in the same
    # order as `sym_weight`, so the average is the same float
    vals = list(separated_points(rng, 4))

    def fn(*t):
        return t[0] + 2 * t[1] * t[2] - t[3] ** 2

    sub = [vals[s] for s in active]
    want = 0.0 + 0j
    for perm in itertools.permutations(range(len(sub))):
        args = list(vals)
        for slot, p in zip(active, perm):
            args[slot] = sub[p]
        want += sym_weight(perm, sub, ctx.q) * fn(*args)
    want /= math.factorial(len(sub))
    assert partial_qsym_values(fn, vals, ctx.q, active) == want
