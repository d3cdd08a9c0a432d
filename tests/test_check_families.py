"""The planted-defect matrix: one check per fact.

A check *family* is a check id without its chain, sector, size and N
indices: `verify/chain0/sector2-1/on-shell` is `verify/on-shell`,
`solve/chain0/sector2` is `solve/sector` and `yang-baxter/N3` is
`yang-baxter/N`. Each row of ROWS plants one defect, a monkeypatched kernel
or a `cli.solve_bethe` wrapper that moves, drops, repeats or relabels root
sets. It runs the suites the defect reaches one at a time through
`cli.run_command`, as a user runs them, and asserts the exact set of
families that fail in each run.

`test_every_family_fails_alone_in_some_row` asserts that every family the
suites emit at these configs is the only failing family of its suite run in
at least one row. A family that only ever fails together with another one
restates it, and a family added without a row of its own fails that test.
"""
import dataclasses
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from bethelab import cli, gauss, kernels, qsym, repcore, vectors
from bethelab.context import BetheParameterSet
from bethelab.repcore import GradedLOperator

N2, N3, SEED5 = "n2l4", "n3l3", "seed5"
CONFIGS = {
    N2: "N = 2\nL = 4\nseed = 3\n",
    N3: "N = 3\nL = 3\nseed = 7\n",  # type-2 roots
    SEED5: "seed = 5\n",
}

# every suite at the configs the rows run it on
SUITE_CONFIGS = (("yang-baxter", SEED5), ("identities", SEED5), ("rll", N3), ("gauss", N3),
                 ("solve", N2), ("solve", N3), ("verify", N2), ("verify", N3),
                 ("offshell", N2), ("spectrum", N2))

INDEX = re.compile(r"(chain|sector|n|j|N)\d[\d-]*(s\d+)?")


def family(check_id: str) -> str:
    suite, *parts = check_id.split("/")
    kept = [part for part in parts if not INDEX.fullmatch(part)]
    if not kept and INDEX.fullmatch(parts[-1]).group(1) != "chain":
        kept = [INDEX.fullmatch(parts[-1]).group(1)]
    return "/".join([suite, *kept])


# ---------------------------------------------------------------------------
# plants: each takes pytest's monkeypatch


def _wrap(owner, name: str, make: Callable) -> Callable:
    """Plant `owner.name = make(original)`."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _scaled(owner, name: str, factor: float = 1 + 1e-6) -> Callable:
    """Plant an `owner.name` whose value is `factor` times the original's."""
    return _wrap(owner, name, lambda original: lambda *args: original(*args) * factor)


def _b_weight_off(original):
    # vanishes at u = v and as q -> 1, so only the Yang-Baxter equation sees it
    def polynomial(u, v, q):
        a, b, cu, cv = original(u, v, q)
        return a, b * (1 + 1e-3 * (q - 1 / q)), cu, cv
    return polynomial


def _rescaled_away_from_u_equals_v(monkeypatch):
    # R(u, v) times 1 + 1e-3 (u - v): R(u, u) = P and the Yang-Baxter
    # equation, homogeneous in each R, hold; R -> 1 as q -> 1 does not
    original = repcore.r_matrix
    rescaled = lambda u, v, N, ctx: (1 + 1e-3 * (u - v)) * original(u, v, N, ctx)
    monkeypatch.setattr(repcore, "r_matrix", rescaled)
    monkeypatch.setattr(cli, "r_matrix", rescaled)


def _q_off(original):
    return lambda u, v, N, q: original(u, v, N, q * (1 + 1e-6))


def _not_commuting(original):
    # T(t) + 1e-6 t S, S the cyclic shift of the basis; a point per column group
    def apply(chain, t, v):
        points = np.repeat(np.atleast_1d(t), v.size // chain.dim // np.size(t))
        return original(chain, t, v) + 1e-6 * points * np.roll(v, 1, axis=0)
    return apply


def _lambda2_off(original):
    def data(chain):
        omega, (lam1, lam2, *rest) = original(chain)
        return omega, [lam1, lambda t: lam2(t) * (1 + 1e-9), *rest]
    return data


def _not_triangular(original):
    # a 1e-9 where the t -> infinity R must have 0
    return lambda q: (original(q)[0][:3] + (1e-9,), original(q)[1])


def _f31_off(original):
    def decompose(T):
        data = original(T)
        return dataclasses.replace(data, F={**data.F, (3, 1): (1 + 1e-6) * data.F[(3, 1)]})
    return decompose


def _off_the_diagonal(original):
    def entry(data, a, b):
        return original(data, a, b) * (1 + 1e-6) if a != b else original(data, a, b)
    return entry


def _another_chain(original):
    # the monodromy of the chain with z_1 moved by 1e-6
    def build(chain, points):
        z = (chain.z[0] * (1 + 1e-6), *chain.z[1:])
        return original(dataclasses.replace(chain, z=z), points)
    return build


def _zero_mode(field: str) -> Callable:
    """Plant a `cli.zero_mode_set` whose `field`[1] is off by 1e-6."""
    def make(original):
        def build(chain):
            zm = original(chain)
            modes = getattr(zm, field)
            return dataclasses.replace(zm, **{field: {**modes, 1: modes[1] * (1 + 1e-6)}})
        return build
    return _wrap(cli, "zero_mode_set", make)


def _monodromy_entries(entries: Callable) -> Callable:
    """Plant a `cli.monodromy`, the Gauss pass's, with `entries(T)` in place of
    those of T; `transfer` still builds the true trace."""
    def make(original):
        def build(chain, points):
            T = original(chain, points)
            return GradedLOperator(T.point, {**T.entries, **entries(T)})
        return build
    return _wrap(cli, "monodromy", make)


def _e13_only(T):
    # T_{3,1} moved by delta and T_{2,1} by F_{3,2} delta: of the Gauss
    # coordinates only E_{1,3} (by 1e-6) and k_1 move, and the trace does not
    delta = 1e-6 * T.entry(3, 1)
    F32 = T.entry(2, 3).right_divide(T.entry(3, 3))
    return {(3, 1): T.entry(3, 1) + delta, (2, 1): T.entry(2, 1) + F32 @ delta}


def _e12_only(T):
    # T_{2,1} moves only E_{1,2} and k_1
    return {(2, 1): T.entry(2, 1) * (1 + 1e-6)}


def _not_homogeneous(original):
    return lambda upper, lower, ctx: original(upper, lower, ctx) * (1 + 1e-6 * abs(upper[0]))


def _offset(original):
    return lambda j, t, points: original(j, t, points) + 1e-9


def _solve_defect(nbar: tuple[int, ...], defect: Callable) -> Callable:
    """Plant a `cli.solve_bethe` that hands sector nbar `defect` of its root sets."""
    def make(original):
        def solve(chain, sector, opts=None):
            result = original(chain, sector, opts)
            if tuple(sector) == nbar:
                result.solutions = defect(result.solutions)
            return result
        return solve
    return _wrap(cli, "solve_bethe", make)


def _moved(rel: float, group: int = 0) -> Callable:
    """The first root of type group + 1 in the first root set, moved by rel."""
    def defect(solutions):
        sol = solutions[0]
        values = [list(roots) for roots in sol.params.values]
        values[group][0] *= 1 + rel
        params = BetheParameterSet(tuple(map(tuple, values)))
        return [dataclasses.replace(sol, params=params), *solutions[1:]]
    return defect


def _relabelled(original):
    # sector (1,)'s root sets handed to sector (2,): eigenvectors, but their tau
    # lies in weight block (3, 1), not (2, 2)
    def solve(chain, nbar, opts=None):
        return original(chain, (1,) if tuple(nbar) == (2,) else nbar, opts)
    return solve


def _vector_off(original):
    def build(chain, params):
        w = original(chain, params)
        return w + 1e-6 * np.roll(w, 1) if params.total else w
    return build


def _leaking(original):
    # T(t) v leaks into the vacuum, a weight block of its own
    def apply(chain, t, v):
        out = original(chain, t, v)
        out[0] += 1e-6 * np.max(np.abs(out))
        return out
    return apply


def _closed_form_off(original):
    return lambda chain, params, t: tuple(c * (1 + 1e-6) for c in original(chain, params, t))


class Row(NamedTuple):
    name: str
    plant: Callable
    expect: dict  # (suite, config) -> the families that fail


ROWS = [
    Row("no-defect", lambda monkeypatch: None, {run: set() for run in SUITE_CONFIGS}),
    # yang-baxter
    Row("r-matrix-b-weight-off", _wrap(repcore, "_r_polynomial", _b_weight_off),
        {("yang-baxter", SEED5): {"yang-baxter/N"}}),
    Row("r-matrix-scaled", _scaled(repcore, "_r_from_coefficients", 1 + 1e-9),
        {("yang-baxter", SEED5): {"yang-baxter/permutation-point"}}),
    Row("r-matrix-rescaled-away-from-u-equals-v", _rescaled_away_from_u_equals_v,
        {("yang-baxter", SEED5): {"yang-baxter/identity-limit"}}),
    # rll
    Row("auxiliary-r-matrix-off", _wrap(repcore, "_r_dense", _q_off),
        {("rll", N3): {"rll/exchange"}}),
    Row("transfer-not-commuting", _wrap(repcore, "transfer_apply", _not_commuting),
        {("rll", N3): {"rll/transfer-commute"}}),
    Row("vacuum-eigenvalue-off", _wrap(repcore, "vacuum_data", _lambda2_off),
        {("rll", N3): {"rll/vacuum"}}),
    Row("zero-mode-not-triangular", _wrap(repcore, "_zero_mode_coefficients", _not_triangular),
        {("rll", N3): {"rll/zero-mode-triangular"}, ("gauss", N3): {"gauss/f-lowering"}}),
    # gauss
    Row("f31-off", _wrap(cli, "gauss_decompose", _f31_off),
        {("gauss", N3): {"gauss/reconstruction", "gauss/normal-order-transfer",
                         "gauss/f-lowering"}}),
    Row("gauss-product-off-the-diagonal", _wrap(gauss.GaussData, "entry", _off_the_diagonal),
        {("gauss", N3): {"gauss/reconstruction"}}),
    Row("gauss-pass-on-another-chain", _wrap(cli, "monodromy", _another_chain),
        {("gauss", N3): {"gauss/normal-order-transfer"}}),
    Row("f-zero-mode-off", _zero_mode("Fzero"), {("gauss", N3): {"gauss/f-lowering"}}),
    Row("e-zero-mode-off", _zero_mode("Ezero"),
        {("gauss", N3): {"gauss/e-lowering", "gauss/cartan-shift"}}),
    Row("e13-off", _monodromy_entries(_e13_only), {("gauss", N3): {"gauss/e-lowering"}}),
    Row("e12-off", _monodromy_entries(_e12_only), {("gauss", N3): {"gauss/cartan-shift"}}),
    # identities
    Row("exchange-factor-not-unitary", _scaled(qsym, "exchange_factor"),
        {("identities", SEED5): {"identities/qsym-cyclic"}}),
    Row("qsym-scaled", _scaled(cli, "qsym_values"),
        {("identities", SEED5): {"identities/qsym-shift"}}),
    Row("shuffle-weight-off", _scaled(qsym, "sym_weight"),
        {("identities", SEED5): {"identities/qsym-shuffle"}}),
    Row("partial-fraction-off", _wrap(cli, "partial_fraction_residual", _offset),
        {("identities", SEED5): {"identities/partial-fraction"}}),
    Row("nesting-overlap-not-homogeneous",  # certified through `string_overlap`
        _wrap(kernels, "nesting_overlap", _not_homogeneous),
        {("identities", SEED5): {"identities/kernel-homogeneity"}}),
    # root sets
    Row("root-moved-by-1e-8", _solve_defect((2,), _moved(1e-8)),
        {("solve", N2): {"solve/sector"}, ("verify", N2): {"verify/on-shell"},
         ("offshell", N2): set(), ("spectrum", N2): set()}),
    Row("root-moved-by-1e-6", _solve_defect((2,), _moved(1e-6)),
        {("solve", N2): {"solve/sector"},
         ("verify", N2): {"verify/on-shell", "verify/tau-in-spectrum"},
         ("offshell", N2): {"offshell/on-shell-vanishing"}, ("spectrum", N2): {"spectrum"}}),
    Row("type-2-root-moved-by-1e-8", _solve_defect((2, 1), _moved(1e-8, group=1)),
        {("solve", N3): {"solve/sector"}, ("verify", N3): {"verify/on-shell"}}),
    Row("type-2-root-moved-by-2.4e-9",  # below on-shell's 1e-8, not solve's 1e-12
        _solve_defect((2, 1), _moved(2.4e-9, group=1)),
        {("solve", N3): {"solve/sector"}, ("verify", N3): set()}),
    Row("root-set-dropped", _solve_defect((2,), lambda solutions: solutions[1:]),
        {("solve", N2): {"solve/complete"}, ("verify", N2): set(), ("offshell", N2): set(),
         ("spectrum", N2): {"spectrum"}}),
    Row("root-set-repeated", _solve_defect((2,), lambda solutions: solutions + solutions[:1]),
        {("solve", N2): {"solve/complete"}, ("verify", N2): set(), ("offshell", N2): set(),
         ("spectrum", N2): {"spectrum"}}),
    Row("root-sets-relabelled", _wrap(cli, "solve_bethe", _relabelled),
        {("solve", N2): {"solve/sector", "solve/complete"},
         ("verify", N2): {"verify/tau-in-spectrum"}, ("spectrum", N2): {"spectrum"}}),
    # vectors
    Row("bethe-vector-off", _wrap(vectors, "nested_vector", _vector_off),
        {("verify", N2): {"verify/on-shell"}, ("verify", N3): {"verify/on-shell"},
         ("offshell", N2): {"offshell/span", "offshell/closed-form",
                            "offshell/on-shell-vanishing"}}),
    Row("transfer-leaks-out-of-the-weight-block", _wrap(vectors, "transfer_apply", _leaking),
        {("verify", N2): {"verify/on-shell"}, ("offshell", N2): {"offshell/span"}}),
    Row("unwanted-closed-form-off", _wrap(vectors, "unwanted_closed_form", _closed_form_off),
        {("offshell", N2): {"offshell/closed-form"}}),
]


def _config_path(tmp_path, config: str) -> str:
    path = tmp_path / f"{config}.cfg"
    path.write_text(CONFIGS[config])
    return str(path)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_planted_defect(row, tmp_path, monkeypatch, capsys):
    row.plant(monkeypatch)
    failing = {}
    for suite, config in row.expect:
        code, report = cli.run_command([suite, "--config", _config_path(tmp_path, config)])
        failing[suite, config] = {family(c.check_id) for c in report.checks if not c.passed}
        assert code == (1 if failing[suite, config] else 0)
    assert failing == row.expect


def test_every_family_fails_alone_in_some_row(tmp_path):
    assert {suite for suite, _ in SUITE_CONFIGS} == set(cli.SUITES)
    emitted = set()
    for suite, config in SUITE_CONFIGS:
        args = cli._build_parser().parse_args([suite, "--config", _config_path(tmp_path, config)])
        mat = cli.materialize(cli.build_config(args))
        emitted |= {family(check.check_id) for check in cli.SUITE_BUILDERS[suite](mat)}
    alone = {name for row in ROWS for failing in row.expect.values() if len(failing) == 1
             for name in failing}
    assert emitted == alone
    assert all(run in SUITE_CONFIGS for row in ROWS for run in row.expect)
