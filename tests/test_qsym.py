"""Permutation-action and q-symmetrization tests."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethelab import CapacityError, exchange_factor, qsym_values, sym_weight
from bethelab.qsym import (
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


def _swap_plans(perm):
    """Two adjacent-swap sequences that turn the identity arrangement into
    `perm`: one places the slots left to right, the other right to left."""
    n = len(perm)
    plans = []
    for order in (range(n), reversed(range(n))):
        cur, plan = list(range(n)), []
        for target in order:
            src = cur.index(perm[target])
            step = 1 if src < target else -1
            for pos in range(src, target, step):
                lo = min(pos, pos + step)
                cur[lo], cur[lo + 1] = cur[lo + 1], cur[lo]
                plan.append(lo)
        assert tuple(cur) == tuple(perm)
        plans.append(plan)
    return plans


def _composed_weight(plan, values, q):
    """Weight and rearranged values of a sequence of elementary swaps, each
    factor taken from the arrangement current at its step."""
    vals = list(values)
    w = 1.0 + 0j
    for pos in plan:
        w *= exchange_factor(vals[pos], vals[pos + 1], q)
        vals[pos], vals[pos + 1] = vals[pos + 1], vals[pos]
    return w, vals


def test_composed_weight_matches_inversion_formula(ctx, rng):
    # path independence: composing elementary swaps along either plan must
    # reproduce the closed inversion-pair weight for every permutation
    q = ctx.q
    for n in (2, 3, 4):
        vals = separated_points(rng, n)
        for perm in itertools.permutations(range(n)):
            w_closed = sym_weight(perm, vals, q)
            for plan in _swap_plans(perm):
                w_plan, rearranged = _composed_weight(plan, vals, q)
                assert abs(w_plan - w_closed) / abs(w_closed) < 1e-10
                assert rearranged == [vals[p] for p in perm]


def test_qsym_hand_value():
    # q = 1.5, G = t_1, points (1, 2): (1/2)(1 + (-1/14) * 2) = 3/7
    got = qsym_values(lambda *t: t[0], (1.0, 2.0), 1.5)
    assert abs(got - 3 / 7) < TOL


def test_qsym_output_is_invariant_under_pi(ctx, rng):
    # q-symmetry: acting with sigma on the average, weight sym_weight(sigma, t)
    # times the average at sigma t, gives the average back
    vals = separated_points(rng, 3)
    base = qsym_values(poly, vals, ctx.q)
    for perm in itertools.permutations(range(3)):
        acted = sym_weight(perm, vals, ctx.q) * qsym_values(poly, [vals[p] for p in perm], ctx.q)
        assert abs(acted - base) / abs(base) < 1e-10


def test_qsym_capacity_cap(ctx):
    with pytest.raises(CapacityError):
        qsym_values(lambda *t: 1.0 + 0j, [float(k) for k in range(1, 9)], ctx.q)


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
