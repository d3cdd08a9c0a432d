"""Bethe-equation solver and spectrum reconciliation tests."""
import numpy as np
import pytest

from bethelab import (
    BetheParameterSet,
    CapacityError,
    DomainError,
    SolverOptions,
    admissible_sectors,
    bethe_residual,
    solve_bethe,
    spectrum_reconcile,
    vacuum_data,
)
from bethelab.solver import sector_multiplicity

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
    result = solve_bethe(chain, (1,), SolverOptions(n_restarts=60))
    assert len(result) == 1
    got = result.solutions[0].params.value(1, 1)
    assert abs(got - tstar) / abs(tstar) < 1e-9


def test_sector_counts_rank2_length2(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    counts = {nbar: len(solve_bethe(chain, nbar, SolverOptions(n_restarts=120)))
              for nbar in [(0,), (1,), (2,)]}
    assert counts == {(0,): 1, (1,): 2, (2,): 1}


def test_solutions_satisfy_equations_and_margins(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    opts = SolverOptions(n_restarts=120)
    _, lambdas = vacuum_data(chain)
    result = solve_bethe(chain, (2,), opts)
    assert len(result) == 3
    for sol in result:
        assert sol.max_residual < 1e-10
        assert np.isfinite(sol.jacobian_condition)
        for i in range(1, chain.N):
            for j in range(1, sol.params.nbar[i - 1] + 1):
                assert abs(bethe_residual(i, j, sol.params, lambdas, ctx)) < 1e-10
        assert sol.params.min_relative_separation() >= opts.min_separation


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
    big = make_chain(2, 10, ctx, rng)
    with pytest.raises(CapacityError):
        solve_bethe(big, (9,))


def test_admissible_sector_enumeration(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    sectors = list(admissible_sectors(chain))
    assert set(sectors) == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}
    assert sector_multiplicity(2, (1, 0)) == 2
    assert sector_multiplicity(2, (2, 1)) == 2
    assert sector_multiplicity(2, (2, 2)) == 1


def test_spectrum_reconcile_rank2(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    sols = {nbar: solve_bethe(chain, nbar, SolverOptions(n_restarts=120)).solutions
            for nbar in admissible_sectors(chain)}
    rep = spectrum_reconcile(chain, sols, 1.7 + 0.4j)
    assert rep.total_states == 4
    assert rep.complete


def test_spectrum_reconcile_rank3(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    sols = {nbar: solve_bethe(chain, nbar, SolverOptions(n_restarts=150)).solutions
            for nbar in admissible_sectors(chain)}
    rep = spectrum_reconcile(chain, sols, 0.9 - 0.3j)
    assert rep.total_states == 9
    assert rep.bethe_count == 9
    assert rep.complete
    assert not rep.ambiguous


def test_spectrum_reconcile_flags_missing_sector(ctx, rng):
    chain = make_chain(2, 2, ctx, rng)
    sols = {(0,): solve_bethe(chain, (0,)).solutions}
    rep = spectrum_reconcile(chain, sols, 1.1)
    assert rep.matched == 1
    assert len(rep.unmatched_eigenvalues) == 3
    assert not rep.complete


def test_spectrum_reconcile_dimension_cap(ctx, rng):
    chain = make_chain(2, 9, ctx, rng)  # dimension 512 > 256
    with pytest.raises(CapacityError):
        spectrum_reconcile(chain, {}, 1.0)
