"""Bethe-equation solver and spectrum reconciliation tests."""
import math
import warnings

import numpy as np
import pytest

from bethelab import (
    BetheParameterSet,
    DomainError,
    admissible_sectors,
    bethe_residual,
    is_admissible,
    sample_annulus,
    solve_bethe,
    spectrum_reconcile,
    vacuum_data,
)
from bethelab import cli, modified_vector, on_shell_residuals, solver, unwanted_decomposition
from bethelab.context import POLE_MARGIN
from bethelab.solver import (MIN_SEPARATION, _admissible, _candidates, _ClearedEquations,
                             _solve, _unit_equations, backward_errors, sector_multiplicity)
from bethelab.vectors import UNWANTED_CAP, expected_occupancy

from conftest import make_chain


def test_empty_sector_single_solution(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    result = solve_bethe(chain, (0,))
    assert len(result) == 1
    assert result.solutions[0].params.total == 0


def test_one_magnon_closed_form(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    z, (kap1, kap2) = chain.z[0], chain.kappa
    tstar = z * (kap1 / q - kap2) / (kap1 * q - kap2)
    result = solve_bethe(chain, (1,))
    assert len(result) == 1
    got = result.solutions[0].params.value(1, 1)
    assert abs(got - tstar) / abs(tstar) < 1e-9


def test_sector_counts_rank2_length2(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    counts = {nbar: len(solve_bethe(chain, nbar))
              for nbar in [(0,), (1,), (2,)]}
    assert counts == {(0,): 1, (1,): 2, (2,): 1}


def test_solutions_satisfy_equations_and_margins(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    _, lambdas = vacuum_data(chain)
    result = solve_bethe(chain, (2,))
    assert len(result) == 3
    for sol in result:
        for i in range(1, chain.N):
            for j in range(1, sol.params.nbar[i - 1] + 1):
                assert abs(bethe_residual(i, j, sol.params, lambdas, ctx)) < 1e-10
        (u, v), = sol.params.values
        assert abs(u - v) / max(abs(u), abs(v)) >= MIN_SEPARATION


def test_admissibility_margins_reject_planted_defects(ctx, rng):
    # a genuine root set keeps the margins; a root next to a site, a root
    # next to 0 and two type-1 roots next to each other each break one
    chain = make_chain(2, 4, ctx, rng)
    sol = solve_bethe(chain, (2,)).solutions[0]
    t1, t2 = sol.params.values[0]
    cuts = np.cumsum((2,))[:-1]
    assert _admissible(np.array([[t1, t2]]), cuts, chain).tolist() == [True]
    defects = np.array([[chain.z[0] * (1 + 1e-7), t2],
                        [1e-9 * t1 / abs(t1), t2],
                        [t1, t1 * (1 + 1e-7)]])
    assert _admissible(defects, cuts, chain).tolist() == [False, False, False]


def test_solver_is_deterministic(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    a = solve_bethe(chain, (1, 1))
    b = solve_bethe(chain, (1, 1))
    assert [s.multiplicity_key for s in a] == [s.multiplicity_key for s in b]


def test_sector_validation(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    with pytest.raises(DomainError):
        solve_bethe(chain, (3,))  # more roots than sites
    with pytest.raises(DomainError):
        solve_bethe(chain, (1, 1))  # wrong arity


@pytest.mark.parametrize("N,nbar", [(2, (-1,)), (3, (1, -1))])
def test_negative_sector_is_inadmissible(ctx, rng, N, nbar):
    chain = make_chain(N, 2, ctx, rng)
    assert not is_admissible(chain, nbar)
    with pytest.raises(DomainError):
        solve_bethe(chain, nbar)


def test_admissible_sector_enumeration(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    sectors = list(admissible_sectors(chain))
    assert set(sectors) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert sector_multiplicity(2, (1, 0)) == 2
    assert sector_multiplicity(2, (2, 1)) == 2
    assert sector_multiplicity(2, (2, 2)) == 1


def test_spectrum_reconcile_rank2(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    sols = {nbar: solve_bethe(chain, nbar).solutions
            for nbar in admissible_sectors(chain)}
    rep = spectrum_reconcile(chain, sols, 1.7 + 0.4j)
    assert rep.total_states == 4
    assert rep.matched == rep.total_states == sum(map(len, sols.values()))
    assert rep.duplicates == 0


def test_spectrum_reconcile_rank3(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    sols = {nbar: solve_bethe(chain, nbar).solutions
            for nbar in admissible_sectors(chain)}
    rep = spectrum_reconcile(chain, sols, 0.9 - 0.3j)
    assert rep.total_states == 9
    assert sum(map(len, sols.values())) == 9
    assert rep.matched == rep.total_states
    assert rep.duplicates == 0


def test_spectrum_reconcile_flags_missing_sector(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    sols = {(0,): solve_bethe(chain, (0,)).solutions}
    rep = spectrum_reconcile(chain, sols, 1.1)
    assert rep.matched == 1
    assert rep.total_states - rep.matched == 3


def test_spectrum_reconcile_above_the_old_dense_cap(ctx, rng):
    # 512 states, past the 256 that a dense eigensolve was capped at; the
    # empty root set matches the one state of its own weight block
    chain = make_chain(2, 9, ctx, rng)
    sols = solve_bethe(chain, (0,)).solutions
    rep = spectrum_reconcile(chain, {(0,): sols}, 1.0)
    assert rep.total_states == 512
    assert rep.matched == len(sols) == 1
    assert rep.total_states - rep.matched == 511


def test_spectrum_reconcile_matches_within_the_weight_block(ctx, rng):
    # the one-magnon root sets of the onshell chain (N=2, L=8, seed 7) are
    # eigenvalues of weight (7, 1); handed in as sector (2,), they must be
    # matched against block (6, 2) alone, where the nearest eigenvalue is
    # 4 % away at this t
    chain = cli.materialize(cli.RunConfig(N=2, L=8, seed=7, sectors_spec="1")).chains[0]
    sols = solve_bethe(chain, (1,)).solutions
    assert len(sols) == 8
    t = 1.3 - 0.2j
    assert spectrum_reconcile(chain, {(1,): sols}, t).matched == 8
    rep = spectrum_reconcile(chain, {(2,): sols}, t)
    assert rep.matched == 0



def _sov_spy(monkeypatch, plant=None):
    """Patch `solver._site_eigenvalues` to log (t0, tau) of every call and
    to return `plant(tau)` in place of tau when `plant` is given."""
    calls, site_eigenvalues = [], solver._site_eigenvalues

    def spy(chain, nbar, t0):
        tau = site_eigenvalues(chain, nbar, t0)
        if plant is not None:
            tau = plant(tau)
        calls.append((t0, tau))
        return tau

    monkeypatch.setattr(solver, "_site_eigenvalues", spy)
    return calls


@pytest.mark.parametrize("nbar, L", [((1,), 4), ((2,), 4), ((2, 1), 3), ((3, 2), 4)])
def test_one_start_point_per_state_of_the_weight_block(ctx, rng, nbar, L):
    # separation of variables gives each state its own candidate, the start
    # point of its Newton polish
    chain = make_chain(len(nbar) + 1, L, ctx, rng)
    eqs, _ = _unit_equations(chain, nbar)
    x = _candidates(chain, nbar, eqs)
    assert x.shape == (sector_multiplicity(L, nbar), sum(nbar))


def test_sector_multiplicity_counts_the_start_points_and_the_weight_block(ctx, rng):
    for N in (2, 3, 4):
        for L in range(1, 6):
            chain = make_chain(N, L, ctx, rng)
            for nbar in admissible_sectors(chain):
                if sum(nbar) and N ** L <= 256:  # the solves at N=4, L=5 take 4 s
                    want = solve_bethe(chain, nbar).attempts
                    assert sector_multiplicity(L, nbar) == want, (N, L, nbar)
                block = math.factorial(L) // math.prod(
                    map(math.factorial, expected_occupancy(L, nbar)))
                assert sector_multiplicity(L, nbar) == block


@pytest.mark.parametrize("N, L, nbar", [(2, 3, (2,)), (3, 3, (2, 1))])
def test_cleared_system_matches_bethe_residual_and_its_jacobian(ctx, rng, N, L, nbar):
    # H, its analytic Jacobian against bethe_residual (H / D) and against
    # complex finite differences, and the backward error against
    # |H| / (|A| + |eps B|). D is eps_a times B's factors at the sites
    # (partners M .. M + L - 1) and A's at the roots; the padding factor is
    # 1 in both.
    chain = make_chain(N, L, ctx, rng)
    eqs = _ClearedEquations(chain, nbar, np.asarray(chain.z))
    _, lambdas = vacuum_data(chain)
    x = sample_annulus(rng, (2, sum(nbar)))
    H, J = eqs.evaluate(x)
    fa, fb = eqs.factors(x[:1])
    D = eqs.eps * np.prod(np.where(eqs.partner >= sum(nbar), fb, fa), axis=-1)
    cuts = np.cumsum(nbar)[:-1]
    params = BetheParameterSet(tuple(map(tuple, np.split(x[0], cuts))))
    eqs_ids = [(a, j) for a in range(1, N) for j in range(1, nbar[a - 1] + 1)]
    want = [bethe_residual(a, j, params, lambdas, ctx) for a, j in eqs_ids]
    assert np.allclose(H[0] / D[0], want, rtol=1e-12, atol=0)
    eB = eqs.eps * np.prod(fb[0], axis=-1)
    want = np.abs(H[0]) / (np.abs(H[0] + eB) + np.abs(eB))
    assert np.allclose(eqs.backward_error(x)[0], want, rtol=1e-12, atol=0)
    h = 1e-7
    for k in range(sum(nbar)):
        step = np.zeros_like(x)
        step[:, k] = h
        fd = (eqs.evaluate(x + step)[0] - eqs.evaluate(x - step)[0]) / (2 * h)
        assert np.allclose(J[:, :, k], fd, rtol=1e-6, atol=1e-9 * np.max(np.abs(J)))


def test_batched_solve_gives_nan_rows_for_singular_matrices(rng):
    J = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    J[1] = 0
    J[3, :, 1] = 0
    b = rng.normal(size=(4, 3)) + 0j
    out = _solve(J, b)
    assert np.all(np.isnan(out[[1, 3]]))
    for p in (0, 2):
        assert np.array_equal(out[p], np.linalg.solve(J[p], b[p]))


def test_every_sector_returns_exactly_its_multiplicity(ctx, rng):
    for N, L in ((2, 4), (3, 3), (4, 4)):
        chain = make_chain(N, L, ctx, rng)
        for nbar in admissible_sectors(chain):
            result = solve_bethe(chain, nbar)
            assert len(result) == sector_multiplicity(L, nbar), nbar
            assert result.converged - result.inadmissible == len(result)
            roots = [sol.params for sol in result]
            assert np.all(backward_errors(chain, nbar, roots) <= cli.SOLVE_TOL)


def test_a_shortfall_is_reported_not_filled(ctx, rng, monkeypatch):
    # eigenvalues that are all NaN give no candidate, and no root set
    chain = make_chain(2, 4, ctx, rng)
    _sov_spy(monkeypatch, plant=lambda tau: np.full_like(tau, np.nan))
    result = solve_bethe(chain, (2,))
    assert len(result) == 0
    assert result.attempts == 6
    assert result.converged == 0


def test_each_sector_reads_one_eigenbasis_at_one_drawn_point(ctx, rng, monkeypatch):
    chain = make_chain(3, 3, ctx, rng)
    calls = _sov_spy(monkeypatch)
    for nbar in admissible_sectors(chain):
        del calls[:]
        result = solve_bethe(chain, nbar)
        if not sum(nbar):
            assert calls == []
            continue
        (t0, tau), = calls
        assert t0 == sample_annulus(ctx.rng(f"solve_bethe:{nbar}"), 1)[0]
        assert tau.shape == (result.attempts, 3)
        assert result.attempts == sector_multiplicity(3, nbar)


def test_a_planted_duplicate_eigenvector_is_a_reported_shortfall(tmp_path, monkeypatch):
    # state 1 is read with state 0's eigenvector: its candidate repeats state
    # 0's root set and is dropped as a root set already kept, never
    # replaced, and `complete` fails by one
    _sov_spy(monkeypatch, plant=lambda tau: tau[[0, 0, *range(2, len(tau))]])
    chain = cli.materialize(cli.RunConfig(N=2, L=4, seed=1)).chains[0]
    result = solve_bethe(chain, (2,))
    assert len(result) == sector_multiplicity(4, (2,)) - 1
    assert result.converged - result.inadmissible == len(result) + 1
    cfg = tmp_path / "duplicate.cfg"
    cfg.write_text("N = 2\nL = 4\nseed = 1\nsectors = 2\n")
    code, report = cli.run_command(["solve", "--config", str(cfg)])
    records = {r.check_id: r for r in report.checks}
    assert code == 1
    assert records["solve/chain0/sector2"].passed
    assert records["solve/chain0/sector2/complete"].residual == 1.0
    assert not records["solve/chain0/sector2/complete"].passed


def test_accepted_root_sets_pass_their_own_backward_error(ctx, rng, monkeypatch):
    # the unit-scaled candidate x and the stored roots (x * scale) / scale
    # differ in the last bits; plant TOL_ROOT at the stored error of a
    # candidate whose unit-scaled error is below it, so accepting on x would
    # return a root set that fails `backward_errors < TOL_ROOT`
    chain = make_chain(2, 5, ctx, rng)
    planted = 0
    for nbar in ((3,), (4,)):
        eqs, scale = _unit_equations(chain, nbar)
        x = _candidates(chain, nbar, eqs)
        unit = np.max(eqs.backward_error(x), axis=1)
        stored = np.max(eqs.backward_error(x * scale / scale), axis=1)
        for tol in stored[unit < stored]:
            planted += 1
            monkeypatch.setattr(solver, "TOL_ROOT", tol)
            roots = [sol.params for sol in solve_bethe(chain, nbar)]
            assert roots
            assert np.all(backward_errors(chain, nbar, roots) < tol)
    assert planted


@pytest.mark.parametrize("N, L, seed", [(2, 6, 3), (2, 8, 1), (3, 4, 2), (4, 3, 1)])
def test_solve_check_reads_the_error_each_set_was_accepted_on(monkeypatch, N, L, seed):
    # `solve/*/sector*` yields `backward_errors` of the returned sets, which is,
    # bit for bit, the error on which `solve_bethe` accepted each one: below
    # TOL_ROOT, so the check fails only on a set changed after the solve, as
    # in the planted-defect matrix, where it is the one family that fails
    chain = cli.materialize(cli.RunConfig(N=N, L=L, seed=seed)).chains[0]
    original = _ClearedEquations.backward_error
    seen = []
    monkeypatch.setattr(_ClearedEquations, "backward_error",
                        lambda eqs, x: seen.append((x, original(eqs, x))) or seen[-1][1])
    accepted = 0
    for nbar in filter(sum, admissible_sectors(chain)):
        seen.clear()
        sets = [sol.params for sol in solve_bethe(chain, nbar)]
        (x, err), = seen
        scale = _unit_equations(chain, nbar)[1]
        for params, checked in zip(sets, backward_errors(chain, nbar, sets)):
            row = np.flatnonzero(np.all(x == np.concatenate(params.values) / scale, axis=1))[0]
            assert checked == np.max(err[row]) < solver.TOL_ROOT
        accepted += len(sets)
    assert accepted == N ** L - 1


def test_equal_twists_keep_the_counts_and_one_eigenbasis_serves_every_site():
    # kappa = 1, 1: degenerate weight blocks, whose eigenbasis at t0 must
    # still diagonalize the block at every site; the sectors past L/2 have
    # roots at 0 or infinity, so they return no root set
    chain = cli.materialize(cli.RunConfig(N=2, L=4, seed=1, kappa_spec="1, 1")).chains[0]
    counts = {nbar: len(solve_bethe(chain, nbar)) for nbar in ((4,), (3,), (2,), (1,))}
    assert counts == {(4,): 0, (3,): 0, (2,): 6, (1,): 4}
    for nbar in counts:
        eqs, _ = _unit_equations(chain, nbar)
        unit = solver.ChainSpec(2, 4, eqs.sites, chain.kappa, chain.ctx)
        t0 = complex(sample_annulus(chain.ctx.rng(f"solve_bethe:{nbar}"), 1)[0])
        blocks = solver.transfer(unit, [t0, *unit.z]).blocks[expected_occupancy(4, nbar)]
        _, V = np.linalg.eig(blocks[0])
        for D in np.linalg.solve(V, blocks[1:] @ V):
            off = D - np.diag(np.diag(D))
            assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(np.diag(D)))


def test_a_weight_block_that_is_not_finite_is_a_named_domain_error(monkeypatch, capsys):
    # np.linalg.eig would raise LinAlgError, which is no BetheLabError, and
    # crash the run; the stage names the block instead
    transfer = solver.transfer
    monkeypatch.setattr(solver, "transfer", lambda chain, t: transfer(chain, t) * np.inf)
    chain = cli.materialize(cli.RunConfig(N=2, L=3, seed=1)).chains[0]
    with pytest.raises(DomainError, match=r"weight block \(2, 1\) is not finite"):
        solve_bethe(chain, (1,))
    code, report = cli.run_command(["solve", "--seed", "1", "--sector", "1"])
    assert code == 1
    for record in report.checks:
        assert not record.passed
        assert record.error.startswith("DomainError: the transfer matrix's weight block")


def test_nan_candidates_emit_no_warning():
    # at N=3, L=4 with equal twists, seed 2, sector (4, 4) has candidates
    # with two roots of one type at 0, whose relative gap is 0 / 0
    chain = cli.materialize(cli.RunConfig(N=3, L=4, seed=2, kappa_spec="1, 1, 1")).chains[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nbar in admissible_sectors(chain):
            solve_bethe(chain, nbar)


def test_nested_spectrum_at_n3l3_seed7(tmp_path, capsys):
    # all 27 root sets of the rank-3 chain, each matching one eigenvalue of
    # its weight block
    cfg = tmp_path / "n3l3.cfg"
    cfg.write_text("N = 3\nL = 3\nseed = 7\n")
    code, report = cli.run_command(["spectrum", "--config", str(cfg)])
    assert code == 0
    assert [c.residual for c in report.checks] == [0.0]


@pytest.fixture(scope="module")
def near_string():
    # N=2, L=10, seed 7, sector (5,) has one root set with a pair
    # t_j ~ q^2 t_k closer than POLE_MARGIN, where `bethe_residual`'s right
    # side has a pole; returns the chain, the solve result, that root set
    # and the index of one root of the pair
    chain = cli.materialize(cli.RunConfig(N=2, L=10, seed=7, sectors_spec="5")).chains[0]
    q = chain.ctx.q
    result = solve_bethe(chain, (5,))
    for sol in result:
        t = np.array(sol.params.values[0])
        gap = np.abs(t[:, None] / q - q * t) / np.maximum(np.abs(t[:, None]), np.abs(t))
        np.fill_diagonal(gap, np.inf)
        if np.min(gap) < POLE_MARGIN:
            return chain, result, sol.params, int(np.argmin(np.min(gap, axis=1)))
    pytest.fail("no near-string root set")


def test_a_near_string_root_set_is_accepted_and_on_shell(near_string):
    chain, result, params, _ = near_string
    assert len(result) == sector_multiplicity(10, (5,))
    assert backward_errors(chain, (5,), [params])[0] <= cli.SOLVE_TOL
    rng = chain.ctx.rng("near-string")
    points = [cli._sample_clear_of_roots(rng, params) for _ in range(5)]
    assert max(r for r, _ in on_shell_residuals(chain, params, points)) <= 1e-8


@pytest.fixture(scope="module", params=[(1, (8,)), (18, (4,))],
                ids=["seed1-sector8", "seed18-sector4"])
def near_pole(request):
    # N=2, L=10: the accepted root set whose type-1 root lies nearest an
    # R-matrix pole z_l/q^2 (9.3e-4 and 3.6e-4 relative); returns the chain,
    # that root set, the root's index and the pole
    seed, nbar = request.param
    chain = cli.materialize(cli.RunConfig(N=2, L=10, seed=seed)).chains[0]
    q, z = chain.ctx.q, np.array(chain.z)
    best = None
    for sol in solve_bethe(chain, nbar):
        t = np.array(sol.params.values[0])
        dist = np.abs(q * t[:, None] - z / q) / np.maximum(np.abs(t[:, None]), np.abs(z))
        k, l = np.unravel_index(np.argmin(dist), dist.shape)
        if best is None or dist[k, l] < best[0]:
            best = dist[k, l], sol.params, int(k), z[l] / q ** 2
    assert best[0] < POLE_MARGIN
    return (chain,) + best[1:]


def test_a_root_set_next_to_an_r_matrix_pole_is_on_shell(near_pole):
    chain, params, _, _ = near_pole
    assert np.all(np.isfinite(modified_vector(chain, params)))
    rng = chain.ctx.rng("near-pole")
    points = [cli._sample_clear_of_roots(rng, params) for _ in range(5)]
    assert max(r for r, _ in on_shell_residuals(chain, params, points)) <= 1e-8
    if params.nbar[0] <= UNWANTED_CAP:
        rep = unwanted_decomposition(chain, params, points[0])
        assert max(abs(c) / s for c, s in zip(rep.coefficients, rep.scales)) <= 1e-8


def test_that_root_moved_onto_the_pole_fails_on_shell(near_pole):
    # a planted non-root set: the near-pole root placed on the pole itself
    chain, params, k, pole = near_pole
    roots = list(params.values[0])
    roots[k] = pole
    planted = BetheParameterSet((tuple(roots),))
    assert np.all(np.isfinite(modified_vector(chain, planted)))
    rng = chain.ctx.rng("near-pole")
    points = [cli._sample_clear_of_roots(rng, planted) for _ in range(5)]
    assert min(r for r, _ in on_shell_residuals(chain, planted, points)) > 1e-8
    if planted.nbar[0] <= UNWANTED_CAP:
        rep = unwanted_decomposition(chain, planted, points[0])
        assert max(abs(c) / s for c, s in zip(rep.coefficients, rep.scales)) > 1e-8


def _moved(params, k, rel=1e-8):
    roots = list(params.values[0])
    roots[k] *= 1 + rel
    return BetheParameterSet((tuple(roots),) + params.values[1:])


def test_a_root_moved_by_1e_8_fails_the_solve_residual(ctx, rng):
    chain = make_chain(2, 4, ctx, rng)
    for sol in solve_bethe(chain, (2,)):
        errors = backward_errors(chain, (2,), [sol.params, _moved(sol.params, 0)])
        assert errors[0] <= cli.SOLVE_TOL < errors[1]


def test_a_near_string_with_a_moved_pair_root_fails_the_solve_residual(near_string):
    chain, _, params, k = near_string
    assert backward_errors(chain, (5,), [_moved(params, k)])[0] > cli.SOLVE_TOL


def test_another_sectors_root_set_fails_the_solve_residual(ctx, rng):
    # a sector (2, 0) root set, read as type-1 and type-2 roots of (1, 1)
    chain = make_chain(3, 3, ctx, rng)
    for sol in solve_bethe(chain, (2, 0)):
        (t1, t2), () = sol.params.values
        assert backward_errors(chain, (2, 0), [sol.params])[0] <= cli.SOLVE_TOL
        assert backward_errors(chain, (1, 1), [BetheParameterSet(((t1,), (t2,)))])[0] > cli.SOLVE_TOL
        with pytest.raises(DomainError):
            backward_errors(chain, (1, 1), [sol.params])
