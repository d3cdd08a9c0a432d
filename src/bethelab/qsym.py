"""Deformed permutation action and q-symmetrization of typed scalar functions.

The elementary action on adjacent slots (i, i+1) multiplies by

    exchange_factor(t_i, t_{i+1}) = (q^-1 - q t_i/t_{i+1}) / (q - q^-1 t_i/t_{i+1})

and swaps the two arguments; this is the unique weight under which descending
products of like-type creation currents are invariant. A general permutation
carries one factor per inversion pair, which is what the group average uses.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .context import BetheParameterSet, DeformationContext
from .errors import CapacityError, DomainError

FACTORIAL_CAP = 7


def exchange_factor(x: complex, y: complex, q: complex) -> complex:
    """Weight attached to swapping x past y (x originally in the earlier slot)."""
    return (1.0 / q - q * x / y) / (q - x / (q * y))


def sym_weight(perm: Sequence[int], values: Sequence[complex], q: complex) -> complex:
    """Closed-form weight of `perm`: one exchange factor per inversion pair."""
    w = 1.0 + 0j
    n = len(perm)
    for l in range(n):
        for lp in range(l + 1, n):
            if perm[l] > perm[lp]:
                w *= exchange_factor(values[perm[lp]], values[perm[l]], q)
    return w


def adjacent_swap_plan(perm: Sequence[int]) -> list[int]:
    """Adjacent-swap positions that turn the identity arrangement into `perm`."""
    cur = list(range(len(perm)))
    plan = []
    for target in range(len(perm)):
        src = cur.index(perm[target])
        for pos in range(src, target, -1):
            cur[pos - 1], cur[pos] = cur[pos], cur[pos - 1]
            plan.append(pos - 1)
    return plan


def composed_action_weight(perm: Sequence[int], values: Sequence[complex],
                           q: complex) -> tuple[complex, list[complex]]:
    """Weight and rearranged values obtained by composing elementary swaps.

    Must agree with sym_weight for every decomposition; the factor at each
    step is taken from the arrangement current at that step.
    """
    vals = list(values)
    w = 1.0 + 0j
    for pos in adjacent_swap_plan(perm):
        w *= exchange_factor(vals[pos], vals[pos + 1], q)
        vals[pos], vals[pos + 1] = vals[pos + 1], vals[pos]
    return w, vals


def qsym_values(fn: Callable[..., complex], values: Sequence[complex], q: complex) -> complex:
    """Group average of a plain callable over all permutations of `values`."""
    return partial_qsym_values(fn, values, q, range(len(values)))


def partial_qsym_values(fn: Callable[..., complex], values: Sequence[complex], q: complex,
                        active: Sequence[int]) -> complex:
    """Symmetrize only over the slot positions in `active`; the rest spectate."""
    active = list(active)
    sub = [values[s] for s in active]
    if len(sub) > FACTORIAL_CAP:
        raise CapacityError(f"symmetrization capped at {FACTORIAL_CAP} variables")
    tot = 0.0 + 0j
    for perm in itertools.permutations(range(len(sub))):
        w = sym_weight(perm, sub, q)
        args = list(values)
        for slot, p in zip(active, perm):
            args[slot] = sub[p]
        tot += w * fn(*args)
    return tot / math.factorial(len(sub))


def shuffle_permutations(n: int, s: int):
    """Permutations ascending on slots 1..s and on slots s+1..n separately."""
    for comb in itertools.combinations(range(n), s):
        rest = [x for x in range(n) if x not in comb]
        yield tuple(comb) + tuple(rest)


@dataclass(frozen=True)
class TypedFunction:
    """Scalar function of a typed parameter set with a fixed layout."""

    layout: tuple[int, ...]
    fn: Callable[[BetheParameterSet], complex]

    def __call__(self, params: BetheParameterSet) -> complex:
        if params.nbar != self.layout:
            raise DomainError(f"layout mismatch: expected {self.layout}, got {params.nbar}")
        return complex(self.fn(params))


def pi_action(G: TypedFunction, type_index: int, perm: Sequence[int],
              ctx: DeformationContext) -> TypedFunction:
    """Action of a single-type permutation, built from elementary swaps.

    perm is 0-based over the slots of `type_index`; slots of other types are
    untouched. The composed weight is independent of the decomposition.
    """
    if not (1 <= type_index <= len(G.layout)):
        raise DomainError(f"type index {type_index} outside layout {G.layout}")
    n = G.layout[type_index - 1]
    if sorted(perm) != list(range(n)):
        raise DomainError(f"not a permutation of {n} slots: {perm}")
    perm = tuple(perm)

    def evaluate(params: BetheParameterSet) -> complex:
        vals = params.type_values(type_index)
        w, rearranged = composed_action_weight(perm, vals, ctx.q)
        return w * G(params.replace_type(type_index, rearranged))

    return TypedFunction(layout=G.layout, fn=evaluate)


def qsym(G: TypedFunction, ctx: DeformationContext) -> TypedFunction:
    """Group average over the direct product of per-type permutation groups."""
    for n in G.layout:
        if n > FACTORIAL_CAP:
            raise CapacityError(f"type count {n} exceeds cap {FACTORIAL_CAP}")

    def evaluate(params: BetheParameterSet) -> complex:
        groups = [list(itertools.permutations(range(n))) for n in G.layout]
        tot = 0.0 + 0j
        for combo in itertools.product(*groups):
            w = 1.0 + 0j
            new_values = []
            for a, perm in enumerate(combo, start=1):
                vals = params.type_values(a)
                w *= sym_weight(perm, vals, ctx.q)
                new_values.append(tuple(vals[p] for p in perm))
            tot += w * G(BetheParameterSet(tuple(new_values)))
        norm = math.prod(math.factorial(n) for n in G.layout)
        return tot / norm

    return TypedFunction(layout=G.layout, fn=evaluate)


# ---------------------------------------------------------------------------
# reference expansions used by the identity suites


def shift_expansion_forward(fn: Callable[..., complex], values: Sequence[complex],
                            q: complex) -> complex:
    """Expansion of n * qsym(fn) that moves each variable to the last slot.

    Term m carries the product of exchange factors of t_m against all later
    variables, times the (n-1)-variable symmetrization with t_m appended.
    """
    n = len(values)
    tot = 0.0 + 0j
    for m in range(n):
        pref = 1.0 + 0j
        for j in range(m + 1, n):
            pref *= exchange_factor(values[m], values[j], q)
        others = [values[j] for j in range(n) if j != m]

        def tail(*s, _tm=values[m]):
            return fn(*(list(s) + [_tm]))

        tot += pref * qsym_values(tail, others, q)
    return tot


def shift_expansion_backward(fn: Callable[..., complex], values: Sequence[complex],
                             q: complex) -> complex:
    """Expansion of n * qsym(fn) that moves each variable to the first slot."""
    n = len(values)
    tot = 0.0 + 0j
    for m in range(n):
        pref = 1.0 + 0j
        for j in range(m):
            pref *= exchange_factor(values[j], values[m], q)
        others = [values[j] for j in range(n) if j != m]

        def head(*s, _tm=values[m]):
            return fn(*([_tm] + list(s)))

        tot += pref * qsym_values(head, others, q)
    return tot


def cyclic_identity_sides(fn: Callable[..., complex], values: Sequence[complex],
                          q: complex) -> tuple[complex, complex]:
    """Both sides of the cyclic-shift identity: weighting the first variable
    against the rest equals symmetrizing the cyclically rotated function."""
    def weighted(*t):
        pref = 1.0 + 0j
        for l in range(1, len(t)):
            pref *= exchange_factor(t[0], t[l], q)
        return fn(*t) * pref

    def rotated(*t):
        return fn(*([t[-1]] + list(t[:-1])))

    return qsym_values(weighted, values, q), qsym_values(rotated, values, q)


def decomposition_sides(fn: Callable[..., complex], values: Sequence[complex],
                        q: complex, s: int) -> tuple[complex, complex]:
    """Full symmetrization vs the shuffle decomposition at split position s."""
    n = len(values)
    if not 0 <= s <= n:
        raise DomainError(f"split {s} outside 0..{n}")
    full = qsym_values(fn, values, q)

    def double(*t):
        def second(*u):
            return partial_qsym_values(fn, u, q, range(s, n))
        return partial_qsym_values(second, t, q, range(s))

    tot = 0.0 + 0j
    for sigma in shuffle_permutations(n, s):
        w = sym_weight(sigma, values, q)
        tot += w * double(*[values[p] for p in sigma])
    tot *= math.factorial(s) * math.factorial(n - s) / math.factorial(n)
    return full, tot
