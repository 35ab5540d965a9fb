import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from harmonmf import nmf
from harmonmf.cli import write_rows
from harmonmf.dictionary import build_noise_bases
from harmonmf.enhance import EnhanceConfig, build_speech_atoms
from harmonmf.stft import stft


def random_problem(seed, K=16, T=12, n_speech=4, n_noise=2, p=5, m=1):
    """One group of m atoms, with its own single basis, per speech or noise
    group."""
    rng = np.random.default_rng(seed)
    groups = [nmf.BasisGroup(psi=rng.random((1, K, p)) + 0.01,
                             coeffs=rng.random((1, m, p)) + 0.1, kind="speech")
              for _ in range(n_speech)]
    groups += [nmf.BasisGroup(psi=rng.random((1, K, p)) + 0.01,
                              coeffs=rng.random((1, m, p)) + 0.1, kind="noise")
               for _ in range(n_noise)]
    Y = rng.random((K, T)) + 0.01
    return Y, groups


def test_kl_identity():
    Y = np.random.default_rng(0).random((4, 4)) + 0.1
    assert nmf.kl_divergence(Y, Y) == 0.0


def test_kl_direct_value():
    assert nmf.kl_divergence(np.array([[2.0]]), np.array([[1.0]])) == \
        pytest.approx(2 * np.log(2) - 1, rel=1e-12)


def test_kl_zero_entry_convention():
    assert nmf.kl_divergence(np.array([[0.0]]), np.array([[3.0]])) == 3.0


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        nmf.kl_divergence(np.ones((2, 2)), np.ones((2, 3)))


def test_kl_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        Y = rng.random((5, 5)) + 0.01
        V = rng.random((5, 5)) + 0.01
        expected = 0.0
        for i in range(5):
            for j in range(5):
                expected += Y[i, j] * np.log(Y[i, j] / V[i, j]) - Y[i, j] + V[i, j]
        assert nmf.kl_divergence(Y, V) == pytest.approx(expected, rel=1e-12)


def test_objective_reduces_to_kl_without_regularizers():
    Y, d = random_problem(0)
    X = np.random.default_rng(1).random((len(d), Y.shape[1]))
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=0)
    assert nmf.objective(Y, d, X, s, "lin") == \
        pytest.approx(nmf.kl_divergence(Y, nmf.realize(d) @ X), rel=1e-12)


def test_objective_density_term_uniform():
    K, p, m_s = 8, 4, 3
    rng = np.random.default_rng(2)
    d = [nmf.BasisGroup(psi=rng.random((1, K, p)) + 0.1,
                        coeffs=np.full((1, 1, p), 1.0 / p), kind="speech")
         for _ in range(m_s)]
    X = np.zeros((m_s, 2))
    Y = np.maximum(nmf.realize(d) @ X, 1e-12)
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=10.0)
    density = nmf.objective(Y, d, X, s, "dense") - nmf.objective(Y, d, X, s, "lin")
    assert density == pytest.approx(10.0 * m_s / p, rel=1e-12)


def sparsity_weights(groups, settings, dtype=np.float64):
    """The n x 1 sparsity weights in dtype: lambda_speech on the rows of
    every speech group, lambda_noise on those of every noise group."""
    return np.concatenate([np.full((g.n_atoms, 1), settings.lambda_speech
                                   if g.kind == "speech" else settings.lambda_noise,
                                   dtype) for g in groups])


def gain_step(X, D, Y, lam):
    """One update_gains step, handed E = Y / max(DX, EPSILON) - 1 and a
    quotient buffer like X, as solve hands them."""
    E = Y / np.maximum(D @ X, nmf.EPSILON) - 1.0
    return nmf.update_gains(X, D, E, lam, np.empty_like(X))


def test_update_gains_scalar_case():
    X = np.array([[1.0]])
    D = np.array([[1.0]])
    Y = np.array([[2.0]])
    gain_step(X, D, Y, np.zeros((1, 1)))
    assert X[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_update_gains_fixed_point_exact():
    Y, d = random_problem(3)
    X = np.random.default_rng(4).random((len(d), Y.shape[1])) + 0.5
    Y = nmf.realize(d) @ X
    X0 = X.copy()
    gain_step(X, nmf.realize(d), Y, np.zeros((len(d), 1)))
    assert np.array_equal(X, X0)


def test_update_gains_zero_locking():
    Y, d = random_problem(5)
    X = np.random.default_rng(6).random((len(d), Y.shape[1]))
    X[2, :] = 0.0
    gain_step(X, nmf.realize(d), Y, sparsity_weights(d, nmf.SolverSettings()))
    assert np.all(X[2, :] == 0.0)
    assert np.all(X >= 0)


def products(ratio, X):
    """The step's operands: X (R - 1)^T, n x K, and the row sums X 1."""
    return X @ (ratio - 1.0).T, X.sum(axis=1)


def sums_of(group):
    """The step's 1^T Psi, G x 1 x p, as solve forms it, by the product of a
    1 x K row of ones with Psi (None if free)."""
    if group.psi is None:
        return None
    return np.ones((1, group.psi.shape[1]), group.psi.dtype) @ group.psi


def basis_group(rng, K, p, m, coeffs=None):
    return nmf.BasisGroup(psi=rng.random((1, K, p)) + 0.1, kind="speech",
                          coeffs=rng.random((1, m, p)) + 0.1 if coeffs is None
                          else np.tile(coeffs, (1, m, 1)))


def test_update_atom_lin_scalar_case():
    group = nmf.BasisGroup(psi=np.array([[[1.0]]]), coeffs=[[[1.0]]],
                           kind="speech")
    ratio = np.array([[3.0]])  # Y/DX with Y=3, DX=1
    nmf.update_atom_lin(group, *products(ratio, np.array([[1.0]])), sums_of(group))
    assert group.coeffs[0, 0, 0] == pytest.approx(3.0, rel=1e-12)


def test_update_atom_lin_fixed_point_exact():
    Y, d = random_problem(7, m=3)
    X = np.random.default_rng(8).random((3 * len(d), Y.shape[1])) + 0.5
    Y = nmf.realize(d) @ X
    XE, s = products(Y / np.maximum(nmf.realize(d) @ X, 1e-12), X)
    for j, group in enumerate(d):
        before = group.coeffs.copy()
        nmf.update_atom_lin(group, XE[3 * j:3 * j + 3], s[3 * j:3 * j + 3],
                            sums_of(group))
        assert np.array_equal(group.coeffs, before)


def test_update_atom_lin_inactive_row_unchanged():
    """A row whose gains are all zero keeps its coefficients while the
    other rows of its group move."""
    rng = np.random.default_rng(9)
    K, T = 16, 12
    group = basis_group(rng, K, 5, m=3)
    before = group.coeffs.copy()
    ratio = np.random.default_rng(10).random((K, T)) + 0.1
    X = rng.random((3, T)) + 0.1
    X[1] = 0.0
    nmf.update_atom_lin(group, *products(ratio, X), sums_of(group))
    assert np.array_equal(group.coeffs[0, 1], before[0, 1])
    for i in (0, 2):
        assert not np.array_equal(group.coeffs[0, i], before[0, i])


def test_update_atom_dense_uniform_fixed_point_exact():
    K, T, p = 16, 10, 8  # p a power of two keeps the simplex arithmetic exact
    rng = np.random.default_rng(12)
    group = basis_group(rng, K, p, m=3, coeffs=np.full(p, 1.0 / p))
    X = rng.random((3, T)) + 0.5
    Y = nmf.realize([group]) @ X
    ratio = Y / np.maximum(nmf.realize([group]) @ X, 1e-12)
    nmf.update_atom_dense(group, *products(ratio, X), 10.0, sums_of(group))
    assert np.array_equal(group.coeffs, np.full((1, 3, p), 1.0 / p))


def test_update_atom_dense_keeps_simplex():
    rng = np.random.default_rng(13)
    group = basis_group(rng, 8, 5, m=3)
    ratio = rng.random((8, 6)) + 0.1
    for _ in range(10):
        nmf.update_atom_dense(group, *products(ratio, rng.random((3, 6)) + 0.1),
                              10.0, sums_of(group))
        assert np.all(np.abs(group.coeffs.sum(axis=2) - 1.0) <= 1e-10)
        assert np.all(group.coeffs >= 0)


def test_update_atom_dense_large_alpha_goes_uniform():
    rng = np.random.default_rng(14)
    K, T, p = 16, 12, 6
    group = basis_group(rng, K, p, m=3)
    X = rng.random((3, T)) + 0.1
    Y = rng.random((K, T)) + 0.1
    for _ in range(200):
        ratio = Y / np.maximum(nmf.realize([group]) @ X, 1e-12)
        nmf.update_atom_dense(group, *products(ratio, X), 1e6, sums_of(group))
    assert np.max(np.abs(group.coeffs - 1.0 / p)) < 1e-3


@pytest.mark.parametrize("mode", ["lin", "dense"])
def test_solve_trace_monotone(mode):
    for seed in range(5):
        Y, d = random_problem(seed, K=24, T=16, n_speech=6, n_noise=2)
        s = nmf.SolverSettings(lambda_speech=0.2, lambda_noise=0.0, alpha=10.0,
                               iterations=25, seed=seed)
        trace = nmf.solve(Y, d, s, mode=mode).trace
        obj = [p.kl + p.sparsity_term for p in trace]
        for a, b in zip(obj, obj[1:]):
            assert b <= a + 1e-9 * (1 + abs(a))


def test_solve_trace_length():
    Y, d = random_problem(0)
    s = nmf.SolverSettings(iterations=1, seed=0)
    trace = nmf.solve(Y, d, s, mode="lin").trace
    assert len(trace) == 2


def test_solve_constraint_preserved_and_nonnegative():
    Y, d = random_problem(21)
    s = nmf.SolverSettings(iterations=10, seed=21)
    result = nmf.solve(Y, d, s, mode="dense")
    for j, group in enumerate(result.groups):
        realized = result.dictionary[:, j]
        assert np.max(np.abs(realized - group.psi[0] @ group.coeffs[0, 0])) < 1e-12
        assert np.all(group.coeffs >= 0)
    assert np.all(result.gains >= 0)


def test_solve_dense_normalization_invariant():
    Y, d = random_problem(22)
    s = nmf.SolverSettings(iterations=10, seed=22)
    result = nmf.solve(Y, d, s, mode="dense")
    for group in result.groups:
        if group.kind == "speech":
            assert abs(group.coeffs[0, 0].sum() - 1.0) <= 1e-10


def lee_seung_step(Y, D, X, columns, eps=nmf.EPSILON):
    """Lee-Seung KL step for the columns of D with X fixed, written out entry
    by entry: d_kj <- d_kj * sum_t (Y/DX)_kt x_jt / sum_t x_jt."""
    K, T = Y.shape
    V = [[sum(D[k, i] * X[i, t] for i in range(D.shape[1])) for t in range(T)]
         for k in range(K)]
    out = D.copy()
    for j in columns:
        den = sum(X[j, t] for t in range(T))
        for k in range(K):
            num = sum(Y[k, t] / max(V[k][t], eps) * X[j, t] for t in range(T))
            out[k, j] = D[k, j] * max(num, eps) / max(den, eps)
    return out


def test_free_block_step_is_lee_seung():
    """One dictionary step updates a free group and a constrained group from
    the same ratio: the free columns by the Lee-Seung step, the constrained
    atoms by the lin rule."""
    K, T, n_free = 10, 7, 4
    rng = np.random.default_rng(27)
    Y = rng.random((K, T)) + 0.1
    d = [nmf.BasisGroup(psi=None, coeffs=rng.random((1, n_free, K)) + 0.1,
                        kind="speech"),
         nmf.BasisGroup(psi=rng.random((1, K, 3)) + 0.1,
                        coeffs=rng.random((1, 2, 3)) + 0.1, kind="noise")]
    D0, A0 = nmf.realize(d), d[-1].coeffs[0].copy()
    X0 = rng.random((n_free + 2, T)) + 0.1
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=0, iterations=1)
    result = nmf.solve(Y, d, s, mode="lin", initial_gains=X0)
    expected = lee_seung_step(Y, D0, X0, range(n_free))
    realized = result.dictionary
    assert np.allclose(realized[:, :n_free], expected[:, :n_free],
                       rtol=1e-12, atol=0)
    assert not np.allclose(realized[:, :n_free], D0[:, :n_free])
    assert np.array_equal(nmf.realize(result.groups), realized)
    psi, ratio = d[-1].psi[0], Y / (D0 @ X0)
    for i, a0 in enumerate(A0):
        x = X0[n_free + i]
        a1 = a0 * (psi.T @ (ratio @ x)) / (psi.T @ (np.ones_like(Y) @ x))
        assert np.allclose(d[-1].coeffs[0, i], a1, rtol=1e-12, atol=0)
        assert np.allclose(realized[:, n_free + i], psi @ a1, rtol=1e-12, atol=0)


def test_plain_equals_lin_with_identity_basis():
    """One column: the joint free-column step and the per-atom lin step on an
    identity basis coincide.  Three columns: the free step is the joint
    Lee-Seung step, not the one-column-at-a-time lin sweep."""
    K, T = 8, 6
    rng = np.random.default_rng(23)
    Y = rng.random((K, T)) + 0.1
    cols = [rng.random(K) + 0.1 for _ in range(3)]
    X0 = 1.0 - np.random.default_rng(24).random((3, T))
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=0,
                           iterations=1, seed=24)

    def run(n, psi):
        groups = [nmf.BasisGroup(psi=psi, coeffs=[[c]], kind="speech")
                  for c in cols[:n]]
        return nmf.solve(Y, groups, s, mode="lin",
                         initial_gains=X0[:n]).dictionary

    assert np.max(np.abs(run(1, None) - run(1, np.eye(K)[None]))) < 1e-10
    expected = lee_seung_step(Y, np.column_stack(cols), X0, range(3))
    assert np.allclose(run(3, None), expected, rtol=1e-12, atol=0)


def free_problem(seed, K=16, T=12, n_speech=3, n_noise=2):
    rng = np.random.default_rng(seed)
    groups = [nmf.BasisGroup(psi=None, coeffs=[[rng.random(K) + 0.1]], kind=kind)
              for kind in ["speech"] * n_speech + ["noise"] * n_noise]
    Y = rng.random((K, T)) + 0.01
    return Y, groups


# id "plain": a problem of free columns only (unconstrained NMF)
@pytest.mark.parametrize("problem, mode, frozen", [
    pytest.param(free_problem, "lin", False, id="plain-False"),
    pytest.param(random_problem, "lin", False, id="lin-False"),
    pytest.param(random_problem, "dense", False, id="dense-False"),
    pytest.param(random_problem, "lin", True, id="lin-True")])
def test_trace_off_changes_only_the_trace(problem, mode, frozen):
    s = nmf.SolverSettings(iterations=6, seed=29)
    runs = []
    for trace in (True, False):
        Y, d = problem(29)
        runs.append(nmf.solve(Y, d, s, mode=mode, frozen_dictionary=frozen,
                              trace=trace))
    on, off = runs
    assert np.array_equal(on.gains, off.gains)
    assert np.array_equal(on.dictionary, off.dictionary)
    assert len(on.trace) == s.iterations + 1
    assert off.trace == []


def test_solve_frozen_dictionary():
    Y, d = random_problem(25)
    before = nmf.realize(d)
    s = nmf.SolverSettings(iterations=5, seed=25)
    result = nmf.solve(Y, d, s, mode="lin", frozen_dictionary=True)
    assert np.array_equal(result.dictionary, before)
    obj = [p.total for p in result.trace]
    for a, b in zip(obj, obj[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def test_solve_plain_rank1_recovery():
    rng = np.random.default_rng(26)
    K, T = 12, 10
    Y = np.outer(rng.random(K) + 0.1, rng.random(T) + 0.1)
    groups = [nmf.BasisGroup(psi=None, coeffs=[[1.0 - rng.random(K)]],
                             kind="speech")]
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=0,
                           iterations=100, seed=26)
    result = nmf.solve(Y, groups, s, mode="lin")
    assert result.trace[-1].kl < 1e-6 * result.trace[0].kl


@given(st.integers(min_value=0, max_value=10000))
def test_updates_preserve_nonnegativity(seed):
    Y, d = random_problem(seed, K=8, T=6, n_speech=2, n_noise=1, p=3)
    s = nmf.SolverSettings(iterations=3, seed=seed)
    result = nmf.solve(Y, d, s, mode="lin")
    assert np.all(result.gains >= 0)
    for group in result.groups:
        assert np.all(group.coeffs >= 0)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        nmf.SolverSettings(lambda_speech=-1)
    with pytest.raises(ValueError):
        nmf.SolverSettings(iterations=0)


def test_trace_csv(tmp_path):
    """solve's trace, one row per point through the CLI's row writer: the
    initial point and one per iteration, numbered from 0, each total the sum
    of its kl, sparsity and density terms."""
    Y, d = random_problem(0)
    s = nmf.SolverSettings(iterations=3, seed=0)
    result = nmf.solve(Y, d, s, mode="lin")
    path = tmp_path / "trace.csv"
    write_rows(((p.iteration, p.kl, p.sparsity_term, p.density_term, p.total)
                for p in result.trace), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # initial + 3 iterations
    for i, line in enumerate(lines):
        it, kl, sp, de, total = line.split(",")
        assert int(it) == i
        assert float(total) == pytest.approx(float(kl) + float(sp) + float(de))


@pytest.mark.parametrize("mode", ["lin", "dense"])
def test_noise_first_groups_weigh_by_kind(mode):
    """Group order carries no meaning: noise groups ahead of speech groups
    solve to the gains of the speech-first list, rows permuted, and the
    sparsity term is lambda_s * sum X_speech + lambda_n * sum X_noise."""
    Y, groups = random_problem(40, n_speech=2, n_noise=3)
    X0 = np.random.default_rng(41).random((5, Y.shape[1])) + 0.1
    perm = [2, 3, 4, 0, 1]  # the noise rows, then the speech rows
    s = nmf.SolverSettings(lambda_speech=0.3, lambda_noise=0.1, iterations=5)
    speech_first = nmf.solve(Y, cast_copies(groups, np.float64), s, mode,
                             initial_gains=X0)
    noise_first = nmf.solve(Y, cast_copies(groups[2:] + groups[:2], np.float64),
                            s, mode, initial_gains=X0[perm])
    assert np.allclose(noise_first.gains, speech_first.gains[perm], rtol=1e-9, atol=0)
    for point, X in ((noise_first.trace[0], X0[perm]),
                     (noise_first.trace[-1], noise_first.gains)):
        assert point.sparsity_term == pytest.approx(
            0.3 * X[3:].sum() + 0.1 * X[:3].sum(), rel=1e-12)


@st.composite
def group_problems(draw, identity="optional", p_values=st.integers(1, 5),
                   zero_lines=False):
    """Y and groups of random K, T, group count, and per group its kind, m
    and the widths of its G = 1 to 3 stacked bases, speech and noise groups
    in any order.  Each basis and its coefficients are zero-padded to the
    group's widest basis.
    identity: "optional" may add one identity group of either kind at any
    position, "none" adds none, "only" makes every group an identity group
    (G = 1, widths unused).
    zero_lines: set random rows and columns of Y, possibly all, to 0."""
    K = draw(st.integers(2, 10), label="K")
    T = draw(st.integers(1, 8), label="T")
    sizes = draw(st.lists(st.tuples(st.integers(1, 3),
                                    st.lists(p_values, min_size=1, max_size=3)),
                          min_size=1, max_size=4), label="(m, widths) per group")
    kinds = draw(st.lists(st.sampled_from(["speech", "noise"]), min_size=len(sizes),
                          max_size=len(sizes)), label="kind per group")
    free = draw(st.sampled_from([None, "speech", "noise"])
                if identity == "optional" else st.none(), label="identity group")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    groups = []
    for kind, (m, widths) in zip(kinds, sizes):
        if identity == "only":
            groups.append(nmf.BasisGroup(psi=None, kind=kind,
                                         coeffs=rng.random((1, m, K)) + 0.1))
            continue
        psi = np.zeros((len(widths), K, max(widths)))
        coeffs = np.zeros((len(widths), m, max(widths)))
        for b, p in enumerate(widths):
            psi[b, :, :p] = rng.random((K, p)) + 0.01
            coeffs[b, :, :p] = rng.random((m, p)) + 0.1
        groups.append(nmf.BasisGroup(psi=psi, coeffs=coeffs, kind=kind))
    if free is not None:
        group = nmf.BasisGroup(psi=None, kind=free,
                               coeffs=rng.random((1, draw(st.integers(1, 3)), K)) + 0.1)
        groups.insert(draw(st.integers(0, len(groups)), label="identity position"),
                      group)
    Y = rng.random((K, T)) + 0.01
    if zero_lines:
        Y[draw(st.lists(st.integers(0, K - 1)), label="zero rows"), :] = 0.0
        Y[:, draw(st.lists(st.integers(0, T - 1)), label="zero columns")] = 0.0
    return Y, groups


def uniform_speech(groups):
    """Set every speech basis's coefficients uniform over its own width, 0
    on its padding."""
    for g in groups:
        if g.kind == "speech" and g.psi is not None:
            width = g.psi.any(axis=1)  # G x p, False on the padding
            g.coeffs[:] = (width / width.sum(axis=1, keepdims=True))[:, None, :]


def solve_finite(Y, groups, settings, mode):
    """solve with overflow, invalid and divide-by-zero raised (underflow is
    expected); gains and dictionary must come out finite and non-negative."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        result = nmf.solve(Y, groups, settings, mode=mode)
    for a in (result.gains, result.dictionary):
        assert np.all(np.isfinite(a)) and np.all(a >= 0)
    return result


# id "plain": free columns only (unconstrained NMF), solved in lin mode
@pytest.mark.parametrize("identity", [pytest.param("optional", id="lin"),
                                      pytest.param("only", id="plain")])
@given(data=st.data())
def test_generated_kl_sparsity_monotone(identity, data):
    Y, groups = data.draw(group_problems(identity, zero_lines=True))
    s = nmf.SolverSettings(lambda_speech=0.2, lambda_noise=0.1, iterations=10)
    trace = solve_finite(Y, groups, s, "lin").trace
    obj = [p.kl + p.sparsity_term for p in trace]
    for a, b in zip(obj, obj[1:]):
        assert b <= a + 1e-9 * (1 + abs(a))


def as_dtype(groups, dtype):
    """Cast the groups' bases and coefficients to dtype in place, as solve
    does on a Y of that dtype; for float64 the values are unchanged."""
    for g in groups:
        g.coeffs = g.coeffs.astype(dtype)
        if g.psi is not None:
            g.psi = g.psi.astype(dtype)
    return groups


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("identity, mode", [
    pytest.param("only", "lin", id="plain"),
    pytest.param("optional", "lin", id="lin"),
    pytest.param("optional", "dense", id="dense")])
@given(data=st.data())
def test_generated_exact_fixed_point(identity, mode, dtype, data):
    """Y = DX formed in dtype is a bitwise-exact fixed point: the solver forms
    DX with the same product, so E = 0 bitwise.  In dense mode from uniform
    speech coefficients with widths powers of two, so the simplex is exact.
    Id "plain" draws free columns only."""
    _, groups = data.draw(group_problems(identity,
                                         p_values=st.sampled_from([1, 2, 4, 8])))
    if mode == "dense":
        uniform_speech(groups)
    D = nmf.realize(as_dtype(groups, dtype))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="X seed"))
    X0 = (rng.random((D.shape[1], data.draw(st.integers(1, 8), label="T")))
          + 0.1).astype(dtype)
    coeffs0 = [g.coeffs.copy() for g in groups]
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, alpha=10.0, iterations=3)
    result = nmf.solve(D @ X0, groups, s, mode=mode, initial_gains=X0)
    assert np.array_equal(result.gains, X0)
    assert np.array_equal(result.dictionary, D)
    for g, c0 in zip(result.groups, coeffs0):
        assert np.array_equal(g.coeffs, c0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
def test_exact_fixed_point_at_production_size(frame_params, dtype):
    """The default 33 stacked harmonic bases plus 16 noise atoms over 1255
    frames (10 s): with more than one BLAS thread, products this large take
    the threaded GEMM (and sgemm) path, and Y = DX must still be a
    bitwise-exact fixed point."""
    rng = np.random.default_rng(31)
    groups = [build_speech_atoms(EnhanceConfig(), frame_params),
              nmf.BasisGroup(psi=rng.random((1, frame_params.n_bins, 16)) + 0.01,
                             coeffs=rng.random((1, 16, 16)) + 0.1, kind="noise")]
    D = nmf.realize(as_dtype(groups, dtype))
    X0 = (rng.random((D.shape[1], 1255)) + 0.1).astype(dtype)
    coeffs0 = [g.coeffs.copy() for g in groups]
    s = nmf.SolverSettings(lambda_speech=0, lambda_noise=0, iterations=3)
    result = nmf.solve(D @ X0, groups, s, mode="lin", initial_gains=X0)
    assert np.array_equal(result.gains, X0)
    assert np.array_equal(result.dictionary, D)
    for g, c0 in zip(result.groups, coeffs0):
        assert np.array_equal(g.coeffs, c0)


@given(data=st.data())
def test_generated_dense_keeps_simplex(data):
    Y, groups = data.draw(group_problems(zero_lines=True))
    result = solve_finite(Y, groups, nmf.SolverSettings(iterations=5), "dense")
    for g in result.groups:
        assert np.all(g.coeffs >= 0)
        if g.kind == "speech" and g.psi is not None:
            assert np.all(np.abs(g.coeffs.sum(axis=2) - 1.0) <= 1e-10)


@pytest.mark.parametrize("mode", ["lin", "dense"])
@given(data=st.data())
def test_generated_padding_stays_zero(mode, data):
    """A coefficient on a zero-padded basis column stays exactly 0."""
    Y, groups = data.draw(group_problems(zero_lines=True))
    result = solve_finite(Y, groups, nmf.SolverSettings(iterations=5), mode)
    for g in result.groups:
        if g.psi is not None:
            padding = ~g.psi.any(axis=1)  # G x p
            assert np.all(g.coeffs * padding[:, None, :] == 0)


@given(data=st.data())
def test_generated_plain_equals_lin_with_identity_basis(data):
    """A leading m = 1 free column matches the same column under an identity
    basis, ahead of the generated groups."""
    Y, rest = data.draw(group_problems("none"))
    K = Y.shape[0]
    column = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(K) + 0.1
    s = nmf.SolverSettings(iterations=5)
    results = []
    for psi in (None, np.eye(K)[None]):
        groups = [nmf.BasisGroup(psi=psi, coeffs=[[column]], kind="speech")]
        groups += [nmf.BasisGroup(psi=g.psi, coeffs=g.coeffs, kind=g.kind)
                   for g in rest]  # BasisGroup copies the coefficients
        results.append(nmf.solve(Y, groups, s, mode="lin"))
    plain, lin = results
    assert np.allclose(plain.dictionary, lin.dictionary, rtol=1e-9, atol=0)
    assert np.allclose(plain.gains, lin.gains, rtol=1e-9, atol=0)


@pytest.mark.parametrize("mode", ["lin", "dense"])
@given(data=st.data())
def test_generated_group_step_equals_single_atom_rule(mode, data):
    """Row i of one per-group step equals the single-atom rule, written out
    from that row's own projections Psi_b^T R x_i^T and Psi_b^T 1 x_i^T,
    Psi_b the basis of the row's atom."""
    Y, groups = data.draw(group_problems())
    D = nmf.realize(groups)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="X seed"))
    X = rng.random((D.shape[1], Y.shape[1])) + 0.1
    X[rng.random(D.shape[1]) < 0.2] = 0.0  # some inactive rows
    ratio = Y / np.maximum(D @ X, nmf.EPSILON)
    XE, s = products(ratio, X)
    ones, eps, alpha = np.ones_like(Y), nmf.EPSILON, 3.0
    start = 0
    for g in groups:
        psis = [np.eye(Y.shape[0])] if g.psi is None else g.psi
        atoms = [(psi, a) for psi, A in zip(psis, g.coeffs) for a in A]
        dense = mode == "dense" and g.psi is not None
        expected = []
        for i, (psi, a) in enumerate(atoms):
            x = X[start + i]
            num, den = psi.T @ (ratio @ x), psi.T @ (ones @ x)
            if dense:
                at = a / a.sum()
                num, den = (at @ den + num + alpha * (at @ at),
                            den + at @ num + alpha * at)
                new = at * np.maximum(num, eps) / np.maximum(den, eps)
                expected.append(new / new.sum())
            else:
                expected.append(a * np.maximum(num, eps) / np.maximum(den, eps))
        rows = slice(start, start + g.n_atoms)
        if dense:
            nmf.update_atom_dense(g, XE[rows], s[rows], alpha, sums_of(g))
        else:
            nmf.update_atom_lin(g, XE[rows], s[rows], sums_of(g))
        assert np.allclose(g.coeffs.reshape(len(atoms), -1), expected,
                           rtol=1e-12, atol=0)
        start += g.n_atoms


def reference_step(group, XE, s, alpha=None):
    """The per-group step that forms 1^T Psi itself, by sums_of (dense when
    alpha is given), written out as the steps were before solve formed 1^T Psi
    once: the reference for the bytes of the step given 1^T Psi."""
    G, m, _ = group.coeffs.shape
    XE, s = XE.reshape(G, m, -1), s.reshape(G, m, 1)
    if group.psi is None:
        num, den = s + XE, s
    else:
        den = s * sums_of(group)
        num = den + XE @ group.psi
    A, eps = group.coeffs, nmf.EPSILON
    if alpha is None:
        A *= np.maximum(num, eps) / np.maximum(den, eps)
        return A
    rowdot = lambda a, b: np.einsum("gij,gij->gi", a, b)[..., None]
    a_tilde = A / A.sum(axis=2, keepdims=True)
    num_d = rowdot(a_tilde, den) + num + alpha * rowdot(a_tilde, a_tilde)
    den_d = den + rowdot(a_tilde, num) + alpha * a_tilde
    new = a_tilde * (np.maximum(num_d, eps) / np.maximum(den_d, eps))
    A[:] = new / new.sum(axis=2, keepdims=True)
    return A


def cast_copies(groups, dtype):
    """Copies of the groups with bases and coefficients in dtype."""
    copies = [nmf.BasisGroup(psi=g.psi, coeffs=g.coeffs, kind=g.kind)
              for g in groups]  # BasisGroup copies the coefficients
    for g in copies:
        g.coeffs = g.coeffs.astype(dtype)
        g.psi = None if g.psi is None else g.psi.astype(dtype)
    return copies


@pytest.mark.parametrize("mode", ["lin", "dense"])
@given(data=st.data())
def test_generated_step_with_psi_sums_is_bitwise_equal(mode, data):
    """The per-group step given 1^T Psi, as solve forms it once per solve
    after its dtype cast, has the bytes of reference_step, which sums psi
    itself."""
    Y, groups = data.draw(group_problems())
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    D = nmf.realize(groups)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="X seed"))
    X = rng.random((D.shape[1], Y.shape[1])) + 0.1
    X[rng.random(D.shape[1]) < 0.2] = 0.0  # some inactive rows
    XE, s = (a.astype(dtype) for a in products(Y / np.maximum(D @ X, nmf.EPSILON), X))
    start = 0
    for own, given in zip(cast_copies(groups, dtype), cast_copies(groups, dtype)):
        rows = slice(start, start + own.n_atoms)
        if mode == "dense" and own.psi is not None:
            reference_step(own, XE[rows], s[rows], 3.0)
            nmf.update_atom_dense(given, XE[rows], s[rows], 3.0, sums_of(given))
        else:
            reference_step(own, XE[rows], s[rows])
            nmf.update_atom_lin(given, XE[rows], s[rows], sums_of(given))
        assert given.coeffs.dtype == own.coeffs.dtype == dtype
        assert given.coeffs.tobytes() == own.coeffs.tobytes()
        start += own.n_atoms
    # a whole solve, which hands its steps 1^T Psi, has the bytes of one whose
    # steps are reference_step
    def solve_copies():
        return nmf.solve(Y.astype(dtype), cast_copies(groups, np.float64),
                         nmf.SolverSettings(iterations=3), mode, trace=False)

    hoisted = solve_copies()
    with mock.patch.object(nmf, "update_atom_lin",
                           lambda g, XE, s, _: reference_step(g, XE, s)), \
            mock.patch.object(nmf, "update_atom_dense",
                              lambda g, XE, s, alpha, _: reference_step(g, XE, s, alpha)):
        summed = solve_copies()
    assert hoisted.dictionary.tobytes() == summed.dictionary.tobytes()
    assert hoisted.gains.tobytes() == summed.gains.tobytes()


def reference_realize(groups):
    """The dictionary as the transpose of D^T, the concatenated rows of every
    group's batched product coeffs @ Psi^T (Psi^T a C-ordered copy), or of
    its free columns."""
    rows = [g.coeffs if g.psi is None else
            g.coeffs @ np.ascontiguousarray(g.psi.transpose(0, 2, 1)) for g in groups]
    return np.concatenate([r.reshape(g.n_atoms, -1) for g, r in zip(groups, rows)]).T


def reference_solve(Y, groups, settings, mode, frozen, X):
    """solve's loop as an allocating loop: reference_realize, V = D_new X and
    an allocating gain step, from groups, Y and start gains X already in the
    solve's dtype.  The row sums s = X 1 and 1^T Psi (sums_of) are products
    with ones, and XE = X E^T is the transpose of E X^T, as solve forms
    them."""
    eps, lam = nmf.EPSILON, sparsity_weights(groups, settings, X.dtype)
    steps = []
    for g in groups:
        dense = mode == "dense" and g.kind == "speech" and g.psi is not None
        if dense:
            g.coeffs /= g.coeffs.sum(axis=2, keepdims=True)
        steps.append((g, dense, sums_of(g)))
    D = reference_realize(groups)
    V = D @ X
    for _ in range(settings.iterations):
        if not frozen:
            E = Y / np.maximum(V, eps) - 1.0
            XE, s = (E @ X.T).T, X @ np.ones((X.shape[1], 1), X.dtype)
            start = 0
            for g, dense, psi_sums in steps:
                rows = slice(start, start + g.n_atoms)
                if dense:
                    nmf.update_atom_dense(g, XE[rows], s[rows], settings.alpha,
                                          psi_sums)
                else:
                    nmf.update_atom_lin(g, XE[rows], s[rows], psi_sums)
                start += g.n_atoms
            D_new = reference_realize(groups)
            V = D_new @ X
            D = D_new
        E = Y / np.maximum(V, eps) - 1.0
        den = D.sum(axis=0)[:, None]
        num = den + D.T @ E
        den += lam
        X *= np.maximum(num, eps) / np.maximum(den, eps)
        V = D @ X
    return D, X


def assert_transposed_c_order(D):
    """D (K x n) is the F-ordered transpose of a C-ordered n x K array."""
    assert D.strides == (D.itemsize, D.shape[0] * D.itemsize)


def assert_solve_matches_reference(Y, groups, mode, frozen, X0):
    """realize and solve, on copies of the groups in Y's dtype, have the
    bytes and memory order of reference_realize and reference_solve, and
    both dictionaries are the transpose of a C-ordered D^T."""
    dtype = Y.dtype
    for gs in (groups, cast_copies(groups, dtype)):
        D, ref = nmf.realize(gs), reference_realize(gs)
        assert_transposed_c_order(D)
        assert D.dtype == ref.dtype and D.strides == ref.strides
        assert D.tobytes() == ref.tobytes()
    s = nmf.SolverSettings(lambda_noise=0.1, iterations=4)
    expected = cast_copies(groups, dtype)
    D_ref, X_ref = reference_solve(Y, expected, s, mode, frozen, X0.copy())
    result = nmf.solve(Y, cast_copies(groups, np.float64), s, mode,
                       frozen_dictionary=frozen, initial_gains=X0, trace=False)
    assert_transposed_c_order(result.dictionary)
    assert result.dictionary.strides == D_ref.strides
    assert result.dictionary.tobytes() == D_ref.tobytes()
    assert result.gains.tobytes() == X_ref.tobytes()
    for g, e in zip(result.groups, expected):
        assert g.coeffs.dtype == e.coeffs.dtype
        assert g.coeffs.tobytes() == e.coeffs.tobytes()


@pytest.mark.parametrize("mode, frozen", [("lin", False), ("dense", False),
                                          ("lin", True)])
@pytest.mark.parametrize("identity", ["optional", "only"])
@given(data=st.data())
def test_generated_solve_bytes_equal_reference_loop(identity, mode, frozen, data):
    """solve, with its buffers reused across iterations, returns the bytes of
    reference_solve for the dictionary, gains and coefficients, and its
    dictionary has the reference's memory order; so does realize against
    reference_realize.  Every dictionary, a lone free group's (a noise-shape
    fit) included, is the F-ordered transpose of a C-ordered D^T."""
    Y, groups = data.draw(group_problems(identity, zero_lines=True))
    if data.draw(st.booleans(), label="first group only"):
        groups = groups[:1]
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="X seed"))
    X0 = rng.random((sum(g.n_atoms for g in groups), Y.shape[1])) + 0.1
    assert_solve_matches_reference(Y.astype(dtype), groups, mode, frozen,
                                   X0.astype(dtype))


@pytest.mark.parametrize("K, free_columns, basis_atoms", [
    (1, 3, 0), (1, 3, 2), (5, 3, 1), (5, 1, 1)])
def test_solve_bytes_equal_reference_loop_at_edge_shapes(K, free_columns,
                                                         basis_atoms):
    """The reference check at shapes group_problems does not draw: K = 1, and
    a free group of one or several columns beside a one-atom basis group."""
    rng = np.random.default_rng(36)
    groups = [nmf.BasisGroup(psi=None, coeffs=rng.random((1, free_columns, K)) + 0.1,
                             kind="speech")]
    if basis_atoms:
        groups.append(nmf.BasisGroup(psi=rng.random((1, K, 2)) + 0.1, kind="noise",
                                     coeffs=rng.random((1, basis_atoms, 2)) + 0.1))
    X0 = rng.random((free_columns + basis_atoms, 6)) + 0.1
    assert_solve_matches_reference((rng.random((K, 6)) + 0.1).astype(np.float32),
                                   groups, "lin", False, X0.astype(np.float32))


def test_default_dictionary_bytes_equal_hstack(frame_params):
    """The default float32 enhance dictionary, 33 stacked harmonic bases of
    p = 30 and 16 noise atoms, has the bytes of reference_realize, the same
    batched coeffs @ Psi^T per group, on any OpenBLAS kernel.  Its values
    are those of the np.hstack of every group's psi @ coeffs^T to float32
    rounding: each entry sums at most p = 30 non-negative products in
    another order, so the two differ by at most 2 * 30 * 2**-24 of the
    entry.  (The two forms are bitwise equal on OpenBLAS's SkylakeX kernel
    but not on its Haswell or Zen kernels.)"""
    rng = np.random.default_rng(38)
    groups = cast_copies([
        build_speech_atoms(EnhanceConfig(), frame_params),
        nmf.BasisGroup(psi=rng.random((1, frame_params.n_bins, 16)) + 0.01,
                       coeffs=rng.random((1, 16, 16)) + 0.1, kind="noise")], np.float32)
    D = nmf.realize(groups)
    assert D.dtype == np.float32
    assert D.tobytes() == reference_realize(groups).tobytes()
    hstacked = np.hstack([np.hstack(g.psi @ g.coeffs.transpose(0, 2, 1))
                          for g in groups]).astype(np.float64)
    assert np.all(np.abs(D - hstacked) <= 2 * 30 * 2.0**-24 * hstacked)
    print(f"largest relative difference: "
          f"{np.max(np.abs(D - hstacked) / np.maximum(hstacked, 1e-300)):.3g}")


@pytest.mark.parametrize("mode, frozen", [("lin", False), ("dense", False),
                                          ("lin", True)])
@given(data=st.data())
def test_generated_trace_is_prefix_of_longer_run(mode, frozen, data):
    """A solve of k iterations traces the first k + 1 points of a solve of
    k + j iterations from the same start, bitwise: no step reads the
    iteration count."""
    Y, groups = data.draw(group_problems(zero_lines=True))
    Y = Y.astype(data.draw(st.sampled_from([np.float32, np.float64]), label="dtype"))
    k = data.draw(st.integers(1, 4), label="k")
    j = data.draw(st.integers(1, 4), label="j")
    short, long = (nmf.solve(Y, cast_copies(groups, np.float64),
                             nmf.SolverSettings(iterations=i), mode,
                             frozen_dictionary=frozen).trace for i in (k, k + j))
    assert len(short) == k + 1 and len(long) == k + j + 1
    assert short == long[:k + 1]


def desk_problem(desk_mixture, noise_shapes):
    """The desk mixture's float32 magnitude and fresh groups at the default
    config (dense), as enhance builds them."""
    config = EnhanceConfig()
    params = config.frame_params()
    Y = stft(desk_mixture[1], params).magnitude().values.astype(np.float32)
    groups = [build_speech_atoms(config, params),
              build_noise_bases(noise_shapes, config.m_n, config.seed)]
    return Y, groups, config


def test_iterate_checkpoints_equal_separate_solves(desk_mixture, noise_shapes):
    """The states at k = 10, 25, 50 of one 50-iteration iterate equal
    solve(iterations=k) bitwise, and each solve's trace is a prefix of the
    50-iteration trace; the yielded arrays are read-only and solve's are
    writable."""
    Y, groups, config = desk_problem(desk_mixture, noise_shapes)
    settings = replace(config.solver_settings(), iterations=50)
    checkpoints = {}
    for k, V, D, X in nmf.iterate(Y, groups, settings, config.mode):
        for a in (V, D, X):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0
        if k in (10, 25, 50):
            checkpoints[k] = D.copy(), X.copy()
    assert list(checkpoints) == [10, 25, 50]
    traces = {}
    for k, (D, X) in checkpoints.items():
        result = nmf.solve(Y, desk_problem(desk_mixture, noise_shapes)[1],
                           replace(settings, iterations=k), config.mode)
        assert result.dictionary.tobytes() == D.tobytes()
        assert result.gains.tobytes() == X.tobytes()
        assert result.dictionary.flags.writeable and result.gains.flags.writeable
        traces[k] = result.trace
    assert traces[10] == traces[50][:11] and traces[25] == traces[50][:26]


def test_unstarted_iterate_changes_no_group(desk_mixture, noise_shapes):
    """Creating an iterate runs nothing: its groups keep their dtype and
    bytes, and its ValueErrors arrive at the first next()."""
    Y, groups, config = desk_problem(desk_mixture, noise_shapes)
    before = [(g.coeffs.copy(), g.psi.copy()) for g in groups]
    states = nmf.iterate(Y, groups, config.solver_settings(), config.mode)
    for g, (coeffs, psi) in zip(groups, before):
        assert g.coeffs.dtype == coeffs.dtype and g.psi.dtype == psi.dtype
        assert g.coeffs.tobytes() == coeffs.tobytes()
        assert g.psi.tobytes() == psi.tobytes()
    failing = nmf.iterate(Y[:, :0], groups, config.solver_settings(), config.mode)
    with pytest.raises(ValueError, match="no frames"):
        next(failing)
    assert next(states)[0] == 0


@pytest.mark.parametrize("mode", ["lin", "dense"])
def test_seeded_start_zeroes_the_gains_of_silent_frames(mode):
    """With the seeded start, the gains of the frames of Y with no energy
    start at 0, their KL-optimal value, and stay exactly 0; every other
    frame starts at the seed's draw.  Given initial gains are used as they
    are, silent frames too."""
    Y, groups = random_problem(33)
    Y[:, [0, 5, -1]] = 0
    silent = ~Y.any(axis=0)
    settings = nmf.SolverSettings(iterations=5, seed=4)
    drawn = 1.0 - np.random.default_rng(4).random((len(groups), Y.shape[1]))
    states = [X.copy() for _, _, _, X in nmf.iterate(Y, groups, settings, mode)]
    assert states[0][:, ~silent].tobytes() == drawn[:, ~silent].tobytes()
    assert not any(X[:, silent].any() for X in states)
    assert all(X[:, ~silent].all() for X in states)
    given = nmf.iterate(Y, random_problem(33)[1], settings, mode,
                        initial_gains=drawn)
    assert next(given)[3].tobytes() == drawn.tobytes()


# case -> (what is corrupted, index, value); a speech row of zeros is bad in
# dense mode only
BAD_INPUT = {"Y nan": ("Y", (3, 4), np.nan), "Y inf": ("Y", (0, 0), np.inf),
             "Y negative": ("Y", (2, 1), -1e-3),
             "gains nan": ("gains", (1, 2), np.nan),
             "gains inf": ("gains", (0, 0), np.inf),
             "gains negative": ("gains", (5, 3), -0.5),
             "dense zero row": ("coeffs", (0, 1), 0.0)}


def bad_case(case):
    """random_problem(31, m=2) with gains, as corrupted by BAD_INPUT[case]."""
    Y, groups = random_problem(31, m=2)
    X = np.random.default_rng(32).random((2 * len(groups), Y.shape[1])) + 0.1
    target, index, value = BAD_INPUT[case]
    {"Y": Y, "gains": X, "coeffs": groups[1].coeffs}[target][index] = value
    return Y, groups, X, "dense" if target == "coeffs" else "lin"


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_solve_rejects_bad_input(case, monkeypatch):
    """Rejected before the first iteration: no ratio is ever refreshed."""
    Y, groups, X, mode = bad_case(case)
    refreshes = []
    monkeypatch.setattr(nmf.kernels, "refresh_ratio",
                        lambda *args: refreshes.append(args))
    with pytest.raises(ValueError):
        nmf.solve(Y, groups, nmf.SolverSettings(iterations=3), mode,
                  initial_gains=X)
    assert refreshes == []


def wrong_row_count():
    """One speech group of 5-row bases against a 7-row Y."""
    rng = np.random.default_rng(37)
    return (rng.random((7, 4)), [nmf.BasisGroup(psi=rng.random((2, 5, 3)),
                                                coeffs=rng.random((2, 2, 3)) + 0.1,
                                                kind="speech")], None, "dense")


def no_frames():
    """A K x 0 Y in dense mode, which would renormalize the speech rows."""
    Y, groups = random_problem(31, m=2)
    return Y[:, :0], groups, None, "dense"


# case -> (Y, groups, start gains, mode) on which solve raises ValueError
FAILING_SOLVES = {
    "unknown mode": lambda: random_problem(31) + (None, "plain"),
    **{case: (lambda case=case: bad_case(case)) for case in BAD_INPUT},
    "gains shape": lambda: random_problem(31) + (np.ones((2, 3)), "lin"),
    "row count": wrong_row_count,
    "no groups": lambda: (random_problem(31)[0], [], None, "lin"),
    "no frames": no_frames}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(FAILING_SOLVES))
def test_failing_solve_leaves_groups_unchanged(case, dtype):
    """Every ValueError of solve is raised before it casts a group to the
    solve's dtype or renormalizes a dense row."""
    Y, groups, X, mode = FAILING_SOLVES[case]()
    before = [(g.coeffs.copy(), None if g.psi is None else g.psi.copy())
              for g in groups]
    with pytest.raises(ValueError):
        nmf.solve(Y.astype(dtype), groups, nmf.SolverSettings(iterations=2), mode,
                  initial_gains=X)
    for g, (coeffs, psi) in zip(groups, before):
        assert g.coeffs.dtype == coeffs.dtype
        assert g.coeffs.tobytes() == coeffs.tobytes()
        assert g.psi.dtype == psi.dtype and g.psi.tobytes() == psi.tobytes()


# case -> (call that raises ValueError, start of its message)
INVALID_GROUPS = {
    "unknown kind": (lambda: nmf.BasisGroup(None, np.ones((1, 2, 3)), "music"),
                     "unknown atom kind"),
    "coefficient shape": (lambda: nmf.BasisGroup(None, np.ones((2, 3)), "speech"),
                          "coefficients must be a G x m x p array"),
    "basis shape": (lambda: nmf.BasisGroup(np.ones((1, 4, 2)), np.ones((1, 2, 3)),
                                           "speech"),
                    "basis must be G x K x p"),
    "negative coefficient": (lambda: nmf.BasisGroup(None, -np.ones((1, 2, 3)),
                                                    "noise"),
                             "coefficients must be non-negative"),
    "negative basis": (lambda: nmf.BasisGroup(-np.ones((1, 4, 3)),
                                              np.ones((1, 2, 3)), "speech"),
                       "basis must be non-negative"),
    "no groups": (lambda: nmf.realize([]), "dictionary needs at least one group")}


@pytest.mark.parametrize("case", list(INVALID_GROUPS))
def test_invalid_group_raises(case):
    call, message = INVALID_GROUPS[case]
    with pytest.raises(ValueError, match=message):
        call()


# float32 solve: criteria 1-3 with tolerances from the summation error bound

U32 = 2.0 ** -24  # float32 unit roundoff


def gamma32(k):
    """Higham's gamma_k = k u / (1 - k u) for float32.  A float32 sum of k + 1
    terms errs by at most gamma_k times the sum of their magnitudes, in any
    summation order, pairwise included (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 4), and a chain of such operations of
    total length k errs by at most gamma_k relative."""
    return k * U32 / (1 - k * U32)


# id "plain": free columns only (unconstrained NMF), solved in lin mode
@pytest.mark.parametrize("identity", [pytest.param("optional", id="lin"),
                                      pytest.param("only", id="plain")])
@given(data=st.data())
def test_generated_kl_sparsity_monotone_float32(identity, data):
    """The float32 objective J = KL + sparsity, evaluated in float64, does not
    rise by more than tol = 6 gamma_N (3 J + (1 + 2 log 2) sum(Y)) per
    iteration, J the larger of the two points' values.

    Derivation, to first order in u.  In exact arithmetic each step does
    not raise J.  Every float32 value of an iteration comes from a chain of
    at most N = p + n + T + K + 4 roundings (D = Psi A, V = DX, R = Y/V,
    1 X^T + E X^T, Psi^T or D^T, the quotient, the product), where the terms
    of E X^T and D^T E are bounded in magnitude by those of R X^T + 1 X^T;
    so each value is within gamma_N of its exact one, relative to its old
    plus its new magnitude.  Scaling every coefficient or gain theta by
    (1 + delta), |delta| <= gamma, moves J by at most gamma sum |theta dJ/dtheta|
    <= gamma (sum |V - Y| + S) <= gamma (sum(Y + V) + S), and the float32
    model V at a trace point is within gamma_N of DX.  That is six
    perturbations per iteration: old and new values of each of the two
    steps, and the model at each of the two points.  Finally
    sum V <= 2 KL + 2 log 2 sum Y (as v <= 2 (y log(y/v) - y + v) + 2 log 2 y)
    and KL, S <= J give sum(Y + V) + S <= 3 J + (1 + 2 log 2) sum(Y)."""
    Y, groups = data.draw(group_problems(identity, zero_lines=True))
    Y = Y.astype(np.float32)
    s = nmf.SolverSettings(lambda_speech=0.2, lambda_noise=0.1, iterations=10)
    trace = solve_finite(Y, groups, s, "lin").trace
    K, T = Y.shape
    N = (max(g.coeffs.shape[2] for g in groups) + sum(g.n_atoms for g in groups)
         + T + K + 4)
    y_scale = (1 + 2 * np.log(2)) * float(Y.sum(dtype=np.float64))
    obj = [p.kl + p.sparsity_term for p in trace]
    for a, b in zip(obj, obj[1:]):
        assert b <= a + 6 * gamma32(N) * (3 * max(a, b) + y_scale)


@pytest.mark.parametrize("mode", ["lin", "dense"])
@given(data=st.data())
def test_generated_constraint_invariants_float32(mode, data):
    """Each realized column is within gamma_{p+1} of the exact Psi a, plus
    p 2^-150: a float32 product of p non-negative terms errs by at most
    gamma_p relative, plus half the subnormal spacing, 2^-150, for each of
    its p roundings that underflows (Higham, eq. 2.8; coefficients fitted to
    zero rows of Y shrink below float32's normal range), and the float64
    reference by far less than gamma_{p+1} - gamma_p.  A
    dense speech row sums to 1 within gamma_{p+1}: with s the float32 sum of
    the p new entries (within gamma_{p-1}) and each entry divided by s
    (within u), |sum a - 1| <= p u / (1 - 2 (p - 1) u) <= gamma_{p+1}.
    Coefficients and gains stay non-negative."""
    Y, groups = data.draw(group_problems(zero_lines=True))
    result = solve_finite(Y.astype(np.float32), groups,
                          nmf.SolverSettings(iterations=5), mode)
    start = 0
    for g in result.groups:
        p = g.coeffs.shape[2]
        A = g.coeffs.astype(np.float64)
        exact = A[0].T if g.psi is None else np.hstack(
            g.psi.astype(np.float64) @ A.transpose(0, 2, 1))
        realized = result.dictionary[:, start:start + g.n_atoms].astype(np.float64)
        assert np.all(np.abs(realized - exact)
                      <= gamma32(p + 1) * exact + p * 2.0 ** -150)
        assert np.all(g.coeffs >= 0)
        if mode == "dense" and g.kind == "speech" and g.psi is not None:
            assert np.all(np.abs(A.sum(axis=2) - 1.0) <= gamma32(p + 1))
        start += g.n_atoms


@pytest.mark.parametrize("mode, frozen", [("lin", False), ("dense", False),
                                          ("lin", True)])
def test_solve_dtype_follows_y(mode, frozen):
    """float32 Y: float32 dictionary, gains and coefficients, also from
    float64 groups and start gains.  Any other Y computes in float64."""
    for y_dtype, dtype in ((np.float32, np.float32), (np.float16, np.float64),
                           (np.float64, np.float64)):
        Y, d = random_problem(33, m=2)
        X0 = np.random.default_rng(34).random((2 * len(d), Y.shape[1])) + 0.1
        s = nmf.SolverSettings(iterations=2, seed=33)
        for gains in (None, X0):
            result = nmf.solve(Y.astype(y_dtype), d, s, mode=mode,
                               frozen_dictionary=frozen, initial_gains=gains)
            assert result.dictionary.dtype == dtype
            assert result.gains.dtype == dtype
            for g in result.groups:
                assert g.coeffs.dtype == dtype and g.psi.dtype == dtype
                assert g.coeffs.flags.c_contiguous


def test_kl_float32_equals_float64():
    """The KL of float32 inputs is the KL of the same values in float64."""
    rng = np.random.default_rng(35)
    Y = rng.random((6, 9)).astype(np.float32)
    Y[2] = 0.0
    V = (rng.random((6, 9)) + 0.01).astype(np.float32)
    Y64, V64 = Y.astype(np.float64), V.astype(np.float64)
    assert nmf.kernels.kl_divergence_floored(Y, V, nmf.EPSILON) == \
        nmf.kernels.kl_divergence_floored(Y64, V64, nmf.EPSILON)
    assert nmf.kl_divergence(Y, V) == nmf.kl_divergence(Y64, V64)


@st.composite
def kernel_inputs(draw, dtype, floor):
    """Y >= 0 with some zero entries, and V > 0.01 except, with floor, at
    entries set below EPSILON (0, EPSILON / 2 or 1e-30), as K x T arrays of
    dtype.  K reaches past two of the KL's row blocks."""
    K = draw(st.integers(2, 2 * nmf.kernels.KL_ROWS + 3), label="K")
    T = draw(st.integers(2, 8), label="T")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    entries = st.tuples(st.integers(0, K - 1), st.integers(0, T - 1))
    Y, V = rng.random((K, T)), rng.random((K, T)) + 0.01
    for i, j in draw(st.lists(entries), label="zeros of Y"):
        Y[i, j] = 0.0
    if floor:
        for i, j in draw(st.lists(entries, min_size=1), label="V below eps"):
            V[i, j] = draw(st.sampled_from([0.0, nmf.EPSILON / 2, 1e-30]))
    return Y.astype(dtype), V.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("floor", [False, True], ids=["V>=eps", "V<eps"])
@pytest.mark.parametrize("over_v", [False, True], ids=["out", "out-is-V"])
@given(data=st.data())
def test_generated_refresh_ratio_is_floored_quotient(dtype, floor, over_v, data):
    """refresh_ratio gives the bits of Y / max(V, eps) - 1, whether it
    floors V or divides by it directly, and whether it writes a separate
    array or over V."""
    Y, V = data.draw(kernel_inputs(dtype, floor))
    expected = Y / np.maximum(V, nmf.EPSILON) - 1
    out = V if over_v else np.empty_like(V)
    result = nmf.kernels.refresh_ratio(Y, V, nmf.EPSILON, out)
    assert result is out and result.dtype == dtype
    assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@given(data=st.data())
def test_generated_kl_matches_brute_force(dtype, data):
    """The floored KL is the per-entry sum y log(y/v) - y + v (v for y = 0),
    v floored at EPSILON, within 1e-12 relative."""
    Y, V = data.draw(kernel_inputs(dtype, data.draw(st.booleans(), label="floor")))
    Vf = np.maximum(V.astype(np.float64), nmf.EPSILON)
    brute = math.fsum(y * math.log(y / v) - y + v if y > 0 else v
                      for y, v in zip(Y.ravel().tolist(), Vf.ravel().tolist()))
    kl = nmf.kernels.kl_divergence_floored(Y, V, nmf.EPSILON)
    assert abs(kl - brute) <= 1e-12 * brute


def test_kl_of_spectrogram_size_matches_fsum():
    """At a 10 s spectrogram's size, 129 x 1247 in float32 with zeros in Y
    and V below EPSILON, the row-blocked KL is the correctly rounded sum of
    its terms within 1e-12 relative."""
    rng = np.random.default_rng(36)
    Y, V = rng.random((129, 1247)).astype(np.float32), rng.random((129, 1247))
    Y[Y < 0.05], V[V < 0.01] = 0.0, nmf.EPSILON / 2
    V = V.astype(np.float32)
    y, v = Y.astype(np.float64), np.maximum(V.astype(np.float64), nmf.EPSILON)
    safe = np.where(y > 0, y, 1.0)
    terms = np.where(y > 0, y * np.log(safe / v) - y, 0.0) + v
    brute = math.fsum(terms.ravel().tolist())
    kl = nmf.kernels.kl_divergence_floored(Y, V, nmf.EPSILON)
    assert abs(kl - brute) <= 1e-12 * brute
