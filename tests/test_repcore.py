"""R-matrix, monodromy, transfer and vacuum tests with independent assembly
oracles for the tensor conventions."""
import itertools

import numpy as np
import pytest

from bethelab import (
    CapacityError,
    ChainSpec,
    DeformationContext,
    DomainError,
    PoleError,
    apply_monodromy,
    entry_apply,
    monodromy,
    r_matrix,
    rll_residual,
    sample_annulus,
    transfer,
    transfer_apply,
    transfer_commutator_residual,
    vacuum_data,
    vacuum_residuals,
    yang_baxter_residual,
    zero_modes,
)
from bethelab import repcore
from bethelab.repcore import (_point_coefficients, _zero_mode_coefficients,
                              permutation_operator, weight_basis, zero_mode_residuals)

from conftest import (dense_monodromy, dense_zero_modes, make_chain, pole_free_factor,
                      separated_points)


def slow_embed(op, N, L, site):
    """Index-loop embedding of a two-leg operator on (aux, site): the oracle
    for the einsum-based fast path."""
    dims = [N] * (L + 1)
    D = N ** (L + 1)
    op4 = op.reshape(N, N, N, N)
    M = np.zeros((D, D), dtype=complex)

    def flat(idxs):
        f = 0
        for i in idxs:
            f = f * N + i
        return f

    for idxs in itertools.product(*[range(N) for _ in dims]):
        col = flat(idxs)
        a, b = idxs[0], idxs[site]
        for anew in range(N):
            for bnew in range(N):
                amp = op4[anew, bnew, a, b]
                if amp != 0:
                    out = list(idxs)
                    out[0], out[site] = anew, bnew
                    M[flat(out), col] += amp
    return M


def slow_monodromy(chain, t):
    """The normalized T(t), a product of dense embedded `r_matrix` factors
    (1 on the diagonal); the kernel's T(t) is `pole_free_factor` times it."""
    N, L, d = chain.N, chain.L, chain.dim
    full = np.kron(np.diag(chain.kappa), np.eye(d)).astype(complex)
    for site in range(L, 0, -1):
        full = full @ slow_embed(r_matrix(t, chain.z[site - 1], N, chain.ctx), N, L, site)
    return full.reshape(N, d, N, d).transpose(0, 2, 1, 3)


def slow_rll_residual(chain, u, v):
    """The exchange relation from four dense (N^2, N^2, d, d) products, with
    the normalized `r_matrix` on the auxiliary legs: the reference for the
    probe-vector check in `rll_residual`."""
    N, d = chain.N, chain.dim
    Tu = monodromy(chain, u).dense()
    Tv = monodromy(chain, v).dense()
    R = repcore.r_matrix(u, v, N, chain.ctx)
    left_prod = np.einsum("ijab,klbc->ikjlac", Tu, Tv).reshape(N * N, N * N, d, d)
    right_prod = np.einsum("klab,ijbc->ikjlac", Tv, Tu).reshape(N * N, N * N, d, d)
    lhs = np.einsum("pq,qrac->prac", R, left_prod)
    rhs = np.einsum("pqac,qr->prac", right_prod, R)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def dense_commutator_residual(chain, u, v):
    """[T(u), T(v)] from two dense transfer matrices: the reference for the
    probe-vector check in `transfer_commutator_residual`."""
    Tu = transfer(chain, u).dense()
    Tv = transfer(chain, v).dense()
    return float(np.linalg.norm(Tu @ Tv - Tv @ Tu) / max(np.linalg.norm(Tu @ Tv), 1e-300))


def dense_vacuum_residuals(chain, t):
    """(triangularity, eigenvalue) residuals of the dense blocks on the vacuum,
    each block relative to its own Frobenius norm: the reference for
    `vacuum_residuals`."""
    omega, lambdas = repcore.vacuum_data(chain)
    T = monodromy(chain, t)
    tri = eig = 0.0
    for i in range(1, chain.N + 1):
        for j in range(1, i + 1):
            act = T.entry(i, j).dense() @ omega
            scale = max(np.linalg.norm(T.entry(i, j).dense()), 1e-300)
            if i > j:
                tri = max(tri, float(np.linalg.norm(act) / scale))
            else:
                lam = lambdas[i - 1](t)
                eig = max(eig, float(np.linalg.norm(act - lam * omega) / max(abs(lam), scale)))
    return tri, eig


def dense_zero_mode_residuals(chain):
    """Largest entry of every dense zero-mode block that must vanish: the
    reference for the probe-vector check in `zero_mode_residuals`."""
    plus, minus = zero_modes(chain)
    N = chain.N
    return ([float(np.max(np.abs(plus.entry(i, j).dense()))) for i in range(1, N + 1)
             for j in range(1, N + 1) if i > j]
            + [float(np.max(np.abs(minus.entry(i, j).dense()))) for i in range(1, N + 1)
               for j in range(1, N + 1) if i < j])


def random_batch(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# R-matrix


def test_r_matrix_hand_entry():
    # N = 2, q = 2, u = 4, v = 1: coefficient of E11 (x) E22 is 3 / 7.5 = 0.4
    ctx = DeformationContext(q=2.0)
    R = r_matrix(4.0, 1.0, 2, ctx)
    assert abs(R[1, 1] - 0.4) < 1e-14


def test_r_matrix_equal_points_is_permutation(ctx, rng):
    for N in (2, 3, 4):
        u = complex(sample_annulus(rng, 1)[0])
        R = r_matrix(u, u, N, ctx)
        assert np.max(np.abs(R - permutation_operator(N))) < 1e-14


def test_r_matrix_classical_limit(rng):
    ctx = DeformationContext(q=1.0 + 1e-8)
    R = r_matrix(1.7, 0.6, 3, ctx)
    assert np.max(np.abs(R - np.eye(9))) < 1e-6


def test_r_matrix_pole(ctx):
    q = ctx.q
    v = 1.3 + 0.4j
    with pytest.raises(PoleError):
        r_matrix(v / q ** 2, v, 2, ctx)


def test_yang_baxter_random_points(ctx, rng):
    for N in (2, 3, 4):
        for _ in range(5):
            u, v, w = sample_annulus(rng, 3)
            assert yang_baxter_residual(u, v, w, N, ctx) < 1e-12


# ---------------------------------------------------------------------------
# monodromy and transfer


def test_empty_chain_monodromy(ctx):
    chain = ChainSpec(N=3, L=0, z=(), kappa=(1.1, 0.7, 2.0), ctx=ctx)
    T = monodromy(chain, 0.9)
    for i in range(1, 4):
        for j in range(1, 4):
            want = chain.kappa[i - 1] * np.eye(1) if i == j else np.zeros((1, 1))
            assert np.allclose(T.entry(i, j).dense(), want)
    assert np.allclose(transfer(chain, 0.9).dense(), sum(chain.kappa) * np.eye(1))


@pytest.mark.parametrize("N,L", [(2, 2), (3, 2), (2, 3)])
def test_monodromy_matches_slow_assembly(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    t = 1.4 + 0.8j
    fast = monodromy(chain, t).dense()
    slow = pole_free_factor(chain, t) * slow_monodromy(chain, t)
    assert np.max(np.abs(fast - slow)) < 1e-13


@pytest.mark.parametrize("N,L", [(2, 0), (2, 3), (3, 2), (2, 8)])
def test_apply_monodromy_matches_dense_blocks(ctx, rng, monkeypatch, N, L):
    chain = make_chain(N, L, ctx, rng)
    d = chain.dim
    t = 1.4 + 0.8j
    coeffs = _point_coefficients(chain, t)
    blocks = monodromy(chain, t).dense()
    for B in (1, 3):
        X = random_batch(rng, (N, d, B))
        want = np.einsum("ijxy,jyb->ixb", blocks, X)
        got = apply_monodromy(chain, coeffs, X)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    v = random_batch(rng, d)
    want = transfer(chain, t).dense() @ v
    assert np.max(np.abs(transfer_apply(chain, t, v) - want)) < 1e-13 * np.max(np.abs(want))
    # a (dim, B) batch gives each column's (dim,) result, bit for bit
    V = random_batch(rng, (d, 3))
    got = transfer_apply(chain, t, V)
    assert got.shape == (d, 3)
    for b in range(3):
        assert np.array_equal(got[:, b], transfer_apply(chain, t, V[:, b]))
    want = transfer(chain, t).dense() @ V
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    want = blocks[0, N - 1] @ v
    got = entry_apply(chain, t, 1, N, v)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # several points in one call: each point's column group equals that
    # point's own call, bit for bit, also when the batch goes through the
    # sites in slices of one column
    points = [t, 0.7 - 1.1j, 1.9 + 0.2j]
    V = random_batch(rng, (d, 2 * len(points)))
    got = transfer_apply(chain, points, V)
    for p, tp in enumerate(points):
        assert np.array_equal(got[:, 2 * p:2 * p + 2],
                              transfer_apply(chain, tp, V[:, 2 * p:2 * p + 2]))
    X = random_batch(rng, (len(points), N, d, 3))
    batched = apply_monodromy(chain, _point_coefficients(chain, points), X)
    for p, tp in enumerate(points):
        assert np.array_equal(batched[p], apply_monodromy(chain, _point_coefficients(chain, tp), X[p]))
    monkeypatch.setattr(repcore, "COLUMN_ENTRIES", 1)
    assert np.array_equal(transfer_apply(chain, points, V), got)
    assert np.array_equal(apply_monodromy(chain, _point_coefficients(chain, points), X), batched)

    # the closed-form limits keep the exact zeros of the zero-mode blocks:
    # a batch on auxiliary row j lands exactly on zero in every row i with
    # T_{i,j} = 0 (i > j for the plus limit, i < j for the minus limit)
    limits = zip(_zero_mode_coefficients(ctx.q), zero_modes(chain), (np.greater, np.less))
    for coeff, op, triangle_zero in limits:
        op_blocks = op.dense()
        for j in range(N):
            X = np.zeros((N, d, 3), dtype=complex)
            X[j] = random_batch(rng, (d, 3))
            Y = apply_monodromy(chain, [coeff] * L, X)
            for i in range(N):
                assert np.all(Y[i] == 0) == np.all(op_blocks[i, j] == 0)
                if triangle_zero(i, j):
                    assert np.all(Y[i] == 0)


def _clear_of_poles(chain, rng):
    """An annulus point at relative distance > 0.1 from every z_l/q^2."""
    q = chain.ctx.q
    while True:
        t = complex(sample_annulus(rng, 1)[0])
        if all(abs(q * t - zl / q) > 0.1 * max(abs(t), abs(zl)) for zl in chain.z):
            return t


@pytest.mark.parametrize("N,L", [(2, 3), (3, 2), (2, 8)])
def test_every_monodromy_routine_is_the_pole_free_factor_times_the_normalized_one(
        ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    omega, lambdas = vacuum_data(chain)
    v = random_batch(rng, chain.dim)
    t = _clear_of_poles(chain, rng)
    normalized = slow_monodromy(chain, t)
    want = pole_free_factor(chain, t) * normalized
    got = monodromy(chain, t).dense()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    Tv = sum(want[i, i] for i in range(N)) @ v
    assert np.max(np.abs(transfer_apply(chain, t, v) - Tv)) <= 1e-13 * np.max(np.abs(Tv))
    Ev = want[0, N - 1] @ v
    assert np.max(np.abs(entry_apply(chain, t, 1, N, v) - Ev)) <= 1e-13 * np.max(np.abs(Ev))
    for i in range(N):
        lam = pole_free_factor(chain, t) * (normalized[i, i] @ omega)[0]
        assert abs(lambdas[i](t) - lam) <= 1e-13 * abs(lam)


def test_every_monodromy_routine_is_finite_on_an_r_matrix_pole(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    t = chain.z[0] / ctx.q ** 2
    with pytest.raises(PoleError):
        r_matrix(t, chain.z[0], chain.N, ctx)
    v = random_batch(rng, chain.dim)
    _, lambdas = vacuum_data(chain)
    assert np.all(np.isfinite(monodromy(chain, t).dense()))
    assert np.all(np.isfinite(transfer_apply(chain, t, v)))
    assert np.all(np.isfinite(entry_apply(chain, t, 1, 2, v)))
    assert all(np.isfinite(lam(t)) for lam in lambdas)


def test_rank2_transfer_trace_against_direct_assembly(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    t = 0.8 - 0.3j
    direct = pole_free_factor(chain, t) * slow_monodromy(chain, t)
    tr = transfer(chain, t).dense()
    assert np.allclose(tr, direct[0, 0] + direct[1, 1])


@pytest.mark.parametrize("N,L", [(2, 0), (2, 1), (3, 3)])
def test_rll_relation(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    for _ in range(3):
        u, v = sample_annulus(rng, 2)
        assert rll_residual(chain, u, v, rng) < 1e-10


@pytest.mark.parametrize("N,L", [(2, 3), (3, 2)])
def test_rll_residual_matches_dense_products(ctx, rng, N, L):
    chain = make_chain(N, L, ctx, rng)
    for _ in range(3):
        u, v = sample_annulus(rng, 2)
        assert abs(rll_residual(chain, u, v, rng) - slow_rll_residual(chain, u, v)) < 1e-14


def _deform_r(monkeypatch):
    # b -> b (1 + u / 10) breaks the Yang-Baxter equation, and with it the
    # exchange relation, commutativity and the vacuum eigenvalues
    exact = repcore._r_polynomial

    def deformed(u, v, q):
        a, b, cu, cv = exact(u, v, q)
        return a, b * (1 + u / 10), cu, cv

    monkeypatch.setattr(repcore, "_r_polynomial", deformed)


def _swap_r_arguments(monkeypatch):
    # in the auxiliary R of the exchange relation, dense and pole-free alike
    for name in ("r_matrix", "_r_dense"):
        exact = getattr(repcore, name)
        monkeypatch.setattr(repcore, name, lambda u, v, N, q, exact=exact: exact(v, u, N, q))


def _perturb_vacuum(monkeypatch):
    exact = repcore.vacuum_data

    def perturbed(chain):
        omega, lambdas = exact(chain)
        lam = lambdas[-1]
        lambdas[-1] = lambda t: lam(t) * (1 + 1e-6)
        return omega, lambdas

    monkeypatch.setattr(repcore, "vacuum_data", perturbed)


def _swap_limits(monkeypatch):
    exact = repcore._zero_mode_coefficients
    monkeypatch.setattr(repcore, "_zero_mode_coefficients", lambda q: exact(q)[::-1])


# defect -> expected verdicts of (exchange, transfer-commute, vacuum, zero-mode-triangular)
DEFECTS = {
    None: (True, True, True, True),
    _deform_r: (False, False, False, True),
    _swap_r_arguments: (False, True, True, True),
    _perturb_vacuum: (True, True, False, True),
    _swap_limits: (True, True, True, False),
}


@pytest.mark.parametrize("N,L", [(2, 3), (3, 2)])
@pytest.mark.parametrize("defect", list(DEFECTS), ids=lambda d: d.__name__ if d else "exact")
def test_probe_checks_give_the_dense_verdicts(ctx, rng, monkeypatch, N, L, defect):
    # each probe check passes or fails exactly where its dense oracle does,
    # on the exact algebra and under four planted defects
    chain = make_chain(N, L, ctx, rng)
    if defect is not None:
        defect(monkeypatch)
    for _ in range(3):
        u, v, t = sample_annulus(rng, 3)
        probe = (rll_residual(chain, u, v, rng) <= 1e-10,
                 transfer_commutator_residual(chain, u, v, rng) <= 1e-10,
                 max(vacuum_residuals(chain, t).values()) <= 1e-12,
                 max(zero_mode_residuals(chain, rng)) <= 1e-14)
        dense = (slow_rll_residual(chain, u, v) <= 1e-10,
                 dense_commutator_residual(chain, u, v) <= 1e-10,
                 max(dense_vacuum_residuals(chain, t)) <= 1e-12,
                 max(dense_zero_mode_residuals(chain)) <= 1e-14)
        assert probe == dense == DEFECTS[defect]


def test_exchange_probe_sees_swapped_r_arguments(ctx, rng, monkeypatch):
    chain = make_chain(3, 3, ctx, rng)
    _swap_r_arguments(monkeypatch)
    u, v = sample_annulus(rng, 2)
    assert rll_residual(chain, u, v, rng) > 1e-3


def test_transfer_commutes(ctx, rng):
    for (N, L) in [(2, 3), (3, 2)]:
        chain = make_chain(N, L, ctx, rng)
        for _ in range(4):
            u, v = sample_annulus(rng, 2)
            assert transfer_commutator_residual(chain, u, v, rng) < 1e-10


# ---------------------------------------------------------------------------
# vacuum


def test_vacuum_empty_chain(ctx):
    chain = ChainSpec(N=2, L=0, z=(), kappa=(1.5, 0.4), ctx=ctx)
    omega, lambdas = vacuum_data(chain)
    assert omega.shape == (1,)
    assert abs(lambdas[0](2.0) - 1.5) < 1e-14
    assert abs(lambdas[1](2.0) - 0.4) < 1e-14


def test_vacuum_single_site_eigenvalue(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    z = chain.z[0]
    t = 1.9 + 0.2j
    T = monodromy(chain, t)
    omega, lambdas = vacuum_data(chain)
    assert abs(lambdas[0](t) - chain.kappa[0] * (q * t - z / q)) < 1e-13
    want = chain.kappa[1] * (t - z)
    assert abs(lambdas[1](t) - want) < 1e-13
    assert np.linalg.norm(T.entry(2, 2).dense() @ omega - want * omega) < 1e-13


def test_vacuum_annihilated_by_lowering_entries(ctx, rng):
    chain = make_chain(2, 3, ctx, rng)
    omega, _ = vacuum_data(chain)
    t = complex(sample_annulus(rng, 1)[0])
    assert np.linalg.norm(monodromy(chain, t).entry(2, 1).dense() @ omega) < 1e-13


def test_vacuum_residuals_random_points(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    for _ in range(20):
        t = complex(sample_annulus(rng, 1)[0])
        residuals = vacuum_residuals(chain, t)
        assert sorted(residuals) == [(i, j) for i in range(1, 4) for j in range(1, i + 1)]
        assert max(residuals.values()) < 1e-12


# ---------------------------------------------------------------------------
# zero modes


def test_zero_modes_empty_chain(ctx):
    chain = ChainSpec(N=2, L=0, z=(), kappa=(1.2, 0.9), ctx=ctx)
    plus, minus = zero_modes(chain)
    for op in (plus, minus):
        assert np.allclose(op.entry(1, 1).dense(), 1.2 * np.eye(1))
        assert np.allclose(op.entry(2, 2).dense(), 0.9 * np.eye(1))


def test_zero_modes_single_site_block(ctx, rng):
    chain = make_chain(2, 1, ctx, rng)
    q = ctx.q
    plus, _ = zero_modes(chain)
    E21 = np.zeros((2, 2))
    E21[1, 0] = 1.0
    want = chain.kappa[0] * (q - 1 / q) / q * E21
    assert np.max(np.abs(plus.entry(1, 2).dense() - want)) < 1e-14


def test_zero_modes_triangular_and_match_limits(ctx, rng):
    chain = make_chain(3, 2, ctx, rng)
    plus, minus = zero_modes(chain)
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                assert np.max(np.abs(plus.entry(i, j).dense())) == 0.0
            if i < j:
                assert np.max(np.abs(minus.entry(i, j).dense())) == 0.0
    # the limits are of the normalized T(t)
    big = monodromy(chain, 1e8).dense() / pole_free_factor(chain, 1e8)
    small = monodromy(chain, 1e-8).dense() / pole_free_factor(chain, 1e-8)
    assert np.max(np.abs(plus.dense() - big)) < 1e-6
    assert np.max(np.abs(minus.dense() - small)) < 1e-6


def test_zero_mode_diagonal_products_recorded(ctx, rng, capsys):
    # the diagonal products are kappa_i^2 times identity here; recorded for
    # information, deliberately not constrained
    chain = make_chain(2, 2, ctx, rng)
    plus, minus = zero_modes(chain)
    for i in range(1, 3):
        prod = (plus.entry(i, i) @ minus.entry(i, i)).dense()
        print(f"diagonal zero-mode product {i}: "
              f"{np.diag(prod).round(12).tolist()}")
        assert np.linalg.cond(prod) < 1e8  # invertibility only


# ---------------------------------------------------------------------------
# weight grading


@pytest.mark.parametrize("N,L", [(2, 0), (2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_graded_blocks_follow_the_weight_rule(ctx, rng, N, L):
    # T_{i,j} maps weight nu to nu + e_j - e_i: every entry of the dense
    # oracle outside that rule is exactly 0, and the graded blocks are its
    # entries inside it, bit for bit; at a generic point the grid has one
    # nonzero entry per path of the auxiliary colour, N (2N - 1)^L
    chain = make_chain(N, L, ctx, rng)
    weight = np.zeros((chain.dim, N), dtype=int)
    for nu, idx in weight_basis(N, L).items():
        weight[idx] = nu
    t = complex(sample_annulus(rng, 1)[0])
    pairs = [(dense_monodromy(chain, t), monodromy(chain, t))]
    pairs += list(zip(dense_zero_modes(chain), zero_modes(chain)))
    for dense, graded in pairs:
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                shift = np.eye(N, dtype=int)[j - 1] - np.eye(N, dtype=int)[i - 1]
                allowed = np.all(weight[:, None, :] == weight[None, :, :] + shift, axis=2)
                block = dense[i - 1, j - 1]
                assert np.all(block[~allowed] == 0)
                assert np.array_equal(graded.entry(i, j).dense(), block)
        assert np.array_equal(graded.dense(), dense)
    assert np.count_nonzero(pairs[0][1].dense()) == N * (2 * N - 1) ** L
    # the transfer matrix is the sum of the diagonal blocks, bit for bit
    dense = pairs[0][0]
    assert np.array_equal(transfer(chain, t).dense(), sum(dense[i, i] for i in range(N)))


# ---------------------------------------------------------------------------
# chain validation


def test_chain_validation(ctx):
    with pytest.raises(DomainError):
        ChainSpec(N=1, L=1, z=(1.0,), kappa=(1.0,), ctx=ctx)
    with pytest.raises(DomainError):
        ChainSpec(N=2, L=2, z=(1.0, 1.0), kappa=(1.0, 2.0), ctx=ctx)
    with pytest.raises(DomainError):
        ChainSpec(N=2, L=1, z=(0.0,), kappa=(1.0, 2.0), ctx=ctx)
    with pytest.raises(DomainError):
        ChainSpec(N=2, L=1, z=(1.0,), kappa=(1.0, 0.0), ctx=ctx)
    with pytest.raises(CapacityError):
        ChainSpec(N=2, L=13, z=tuple(range(1, 14)), kappa=(1.0, 2.0), ctx=ctx)
