"""Global numeric policy and typed Bethe parameters.

Every stochastic routine in the package draws from a generator derived from
(seed, label), so results are reproducible and independent of call order.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

MAX_RANK = 8

# relative distance |pole factor| / max(|x|, |y|) at or below which a scalar
# kernel or `r_matrix` raises PoleError; points where tau(t) is evaluated keep
# farther than this from its poles, the Bethe roots
POLE_MARGIN = 1e-3

ANNULUS_LO = 0.5
ANNULUS_HI = 2.0


def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")


@dataclass(frozen=True)
class DeformationContext:
    """Deformation parameter q together with the RNG policy.

    q must be generic: nonzero and q^(2k) != 1 for k up to 2*MAX_RANK, so that
    no denominator of the trigonometric kernels can degenerate identically.
    """

    q: complex
    seed: int = 0

    def __post_init__(self):
        q = complex(self.q)
        if q == 0:
            raise DomainError("q must be nonzero")
        for k in range(1, 2 * MAX_RANK + 1):
            if abs(q ** (2 * k) - 1.0) < 1e-9:
                raise DomainError(f"q^{2 * k} is numerically a root of unity; q={q}")

    def rng(self, label: str = "") -> np.random.Generator:
        """Deterministic generator for the stream named by `label`."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, _label_entropy(label)])
        )


def sample_annulus(rng: np.random.Generator, n: int) -> np.ndarray:
    """n complex points, area-uniform on the annulus ANNULUS_LO <= |z| <= ANNULUS_HI."""
    r = np.sqrt(rng.uniform(ANNULUS_LO * ANNULUS_LO, ANNULUS_HI * ANNULUS_HI, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * theta)


@dataclass(frozen=True)
class BetheParameterSet:
    """Typed spectral parameters: values[a-1] holds the type-a entries t_1^a..t_{n_a}^a.

    The boundary conventions n_0 = n_N = 0 are implicit; an empty type is an
    empty tuple. Values must be nonzero and pairwise distinct within a type.
    """

    values: tuple[tuple[complex, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        vals = tuple(tuple(complex(v) for v in grp) for grp in self.values)
        object.__setattr__(self, "values", vals)
        for a, grp in enumerate(vals, start=1):
            for v in grp:
                if v == 0:
                    raise DomainError(f"type-{a} parameter is zero")
            for i in range(len(grp)):
                for k in range(i + 1, len(grp)):
                    if grp[i] == grp[k]:
                        raise DomainError(f"coincident type-{a} parameters at {grp[i]}")

    @property
    def nbar(self) -> tuple[int, ...]:
        return tuple(len(grp) for grp in self.values)

    @property
    def total(self) -> int:
        return sum(self.nbar)

    def type_values(self, a: int) -> tuple[complex, ...]:
        """Entries of type a (1-based); types outside the layout are empty."""
        if 1 <= a <= len(self.values):
            return self.values[a - 1]
        return ()

    def value(self, a: int, j: int) -> complex:
        return self.values[a - 1][j - 1]

    def scaled(self, c: complex) -> "BetheParameterSet":
        return BetheParameterSet(tuple(tuple(c * v for v in grp) for grp in self.values))
