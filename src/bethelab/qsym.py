"""Deformed permutation weights and q-symmetrization of scalar functions.

The elementary action on adjacent slots (i, i+1) multiplies by

    exchange_factor(t_i, t_{i+1}) = (q^-1 - q t_i/t_{i+1}) / (q - q^-1 t_i/t_{i+1})

and swaps the two arguments; this is the unique weight under which descending
products of like-type creation currents are invariant. A general permutation
carries one factor per inversion pair, which is what the group average uses.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

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


@functools.cache
def _inversions(n: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """Every permutation of range(n) with its inversion pairs (l, l'), l < l',
    in the order `sym_weight` visits them."""
    return tuple((perm, tuple((l, lp) for l in range(n) for lp in range(l + 1, n)
                              if perm[l] > perm[lp]))
                 for perm in itertools.permutations(range(n)))


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
    n = len(sub)
    # factor[a][b] = exchange_factor(sub[a], sub[b], q), multiplied below in
    # the (l, l') order of `sym_weight`, so the weights are the same floats
    factor = [[exchange_factor(x, y, q) for y in sub] for x in sub]
    tot = 0.0 + 0j
    for perm, inversions in _inversions(n):
        w = 1.0 + 0j
        for l, lp in inversions:
            w *= factor[perm[lp]][perm[l]]
        args = list(values)
        for slot, p in zip(active, perm):
            args[slot] = sub[p]
        tot += w * fn(*args)
    return tot / math.factorial(n)


def shuffle_permutations(n: int, s: int):
    """Permutations ascending on slots 1..s and on slots s+1..n separately."""
    for comb in itertools.combinations(range(n), s):
        rest = [x for x in range(n) if x not in comb]
        yield tuple(comb) + tuple(rest)


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
