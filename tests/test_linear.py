import math
import tracemalloc

import numpy as np
import pytest

from perdiff import (
    LinearOverflowError,
    ModeLimitError,
    NotInImageError,
    Problem,
    apply_L,
    build_linear_data,
    classify,
    image_test,
    mp_solve,
    norm_bound_mp_iq,
    proj_P,
    proj_Q,
    solve,
    sup_norm,
)
from perdiff import linear
from perdiff.linear import _mpiq_g1
from perdiff.mat2 import svals2

from conftest import dense_mpiq, forget_linear_data, g1_atol, instance_grid, make_problem


def _ld(b, c, N, g="0"):
    return build_linear_data(make_problem(b, c, N, g))


def _monodromy(b, c, N):
    # A^N by repeated squaring of the companion matrix, independent of the symbol
    return np.linalg.matrix_power(np.array([[0.0, 1.0], [-c, -b]]), N)


def _rotation_row(N):
    return (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)


def test_companion_matrix_values():
    np.testing.assert_array_equal(_ld(-3, 2, 3).A, [[0, 1], [-2, 3]])
    np.testing.assert_array_equal(_ld(1, 1, 3).A, [[0, 1], [-1, -1]])
    np.testing.assert_array_equal(_ld(0, 2, 3).A, [[0, 1], [-2, 0]])
    with pytest.raises(ValueError, match="c must be nonzero"):
        _ld(1, 0, 3)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem.from_text(1, 0, 3, "x")
    with pytest.raises(ValueError):
        Problem.from_text(1, 1, 1, "x")
    # a non-integral period is refused, not truncated; integral values load
    for N in (3.5, 2.000001, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            Problem.from_text(1, 1, N, "x")
    assert Problem.from_text(1, 1, 3.0, "x").N == Problem.from_text(1, 1, 3, "x").N == 3


def test_monodromy_values():
    np.testing.assert_allclose(_monodromy(1, 1, 3), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(_monodromy(-3, 2, 3), [[-6, 7], [-14, 15]], atol=1e-12)
    IA = np.eye(2) - _monodromy(0, 2, 3)
    np.testing.assert_allclose(IA, [[1, 2], [-4, 1]], atol=1e-12)
    assert abs(np.linalg.det(IA) - 9.0) < 1e-10
    # det(I - A^N) is the product of the symbol over all N modes, where
    # lambda_{N-k} = conj(lambda_k) fills in the modes past N//2
    for b, c, N in [(0, 2, 3), (-3, 2, 5), (0.5, -3, 8), (1.3, 0.7, 6), (1, 1, 3)]:
        lam = _ld(b, c, N).symbol
        prod = np.prod(lam) * np.prod(np.conj(lam[1:(N + 1) // 2]))
        det = np.linalg.det(np.eye(2) - _monodromy(b, c, N))
        assert abs(prod - det) <= 1e-10 * (1.0 + abs(det))


def test_classify_dims():
    assert classify(make_problem(0, 2, 3, "0")).dim == 0
    assert classify(make_problem(-3, 2, 3, "0")).dim == 1
    assert classify(make_problem(1, 1, 3, "0")).dim == 2


def test_classify_dim1_bases():
    rc = classify(make_problem(-3, 2, 3, "0"))
    assert rc.dim == 1
    np.testing.assert_allclose(rc.kernel_basis[0], np.tile([1.0, 1.0], (3, 1)))
    np.testing.assert_allclose(rc.adjoint_basis[0], np.tile([-2.0, 1.0], (3, 1)))


def test_classify_dim2_rotation_data():
    rc = classify(make_problem(1, 1, 3, "0"))
    assert rc.dim == 2
    assert rc.theta == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert rc.r_int == 1
    # kernel basis columns are the sampled rotation solutions
    th = rc.theta
    for t in range(3):
        np.testing.assert_allclose(
            rc.kernel_basis[0][t], [math.cos(th * t), math.cos(th * (t + 1))], atol=1e-12
        )
        np.testing.assert_allclose(
            rc.kernel_basis[1][t], [math.sin(th * t), math.sin(th * (t + 1))], atol=1e-12
        )


def test_classify_near_resonance_does_not_depend_on_N():
    # |lambda_0| = |1 + b + c| = 1e-6 at every period: not resonant, and the
    # monodromy scale 2^N must not change that
    for N in (5, 11, 21):
        assert classify(make_problem(-3.000001, 2, N, "0")).dim == 0


@pytest.mark.parametrize("N", [4, 6, 8])
def test_classify_two_real_multipliers(N):
    # b = 0, c = -1: multipliers 1 and -1; at even N both are N-th roots of
    # unity, a two-dimensional kernel that is not a rotation
    rc = classify(make_problem(0, -1, N, "0"))
    assert rc.dim == 2
    assert rc.theta is None and rc.r_int is None
    alt = (-1.0) ** np.arange(N)
    np.testing.assert_allclose(rc.kernel_basis[0], np.ones((N, 2)), atol=1e-12)
    np.testing.assert_allclose(rc.kernel_basis[1], np.stack([alt, -alt], axis=1),
                               atol=1e-12)
    np.testing.assert_allclose(rc.adjoint_basis[0], np.tile([1.0, 1.0], (N, 1)), atol=1e-12)
    np.testing.assert_allclose(rc.adjoint_basis[1], np.stack([alt, -alt], axis=1),
                               atol=1e-12)


def test_classify_jordan_case_is_one_dimensional():
    # b=-2, c=1: eigenvalue 1 with a single Jordan block
    rc = classify(make_problem(-2, 1, 5, "0"))
    assert rc.dim == 1
    np.testing.assert_allclose(rc.kernel_basis[0], np.tile([1.0, 1.0], (5, 1)))


def test_classify_agrees_with_independent_rank():
    mismatches = 0
    for b in np.linspace(-3, 3, 20):
        for c in np.linspace(-2, 2, 20):
            if c == 0.0:
                continue
            for N in (3, 5, 7, 9, 11):
                ld = _ld(float(b), float(c), N)
                M = np.eye(2) - _monodromy(float(b), float(c), N)
                smax = np.linalg.svd(M, compute_uv=False)[0]
                rank = np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, smax))
                if ld.resonance.dim != 2 - rank:
                    mismatches += 1
    assert mismatches == 0


@pytest.mark.parametrize("c, N", [(1.0, 2), (1.0, 3), (1.0, 12), (2.0, 9), (-1.0, 4),
                                  (-1.0, 5), (0.5, 1025), (1.0, 40000)])
def test_kernel_dims_match_classify_row_by_row(c, N):
    # at N = 40000 a chunk holds 3 rows, so the column spans several chunks
    rot = [-2.0 * math.cos(2.0 * math.pi * k / N) for k in (1, N // 3)]
    bs = np.concatenate([np.linspace(-3.0, 3.0, 13), rot, np.add(rot, 1e-10)])
    (dim,), (r_int,) = linear.kernel_dims(bs, c, [N])
    for b, d, r in zip(bs, dim, r_int):
        rc = classify(make_problem(b, c, N, "0"))
        assert (d, r) == (rc.dim, -1 if rc.r_int is None else rc.r_int)


@pytest.mark.parametrize("N", [100_000, 100_001])
def test_more_than_two_resonant_modes_are_refused(N):
    # the double multiplier 1 of (-2, 1): from N = 99400 on, the modes
    # k = +-1 pass the cutoff next to k = 0; the O(N) symbol names the count
    # before any basis is built
    assert linear.kernel_dims([-2.0], 1.0, [N])[0].tolist() == [[3]]
    with pytest.raises(ModeLimitError, match=r"^3 resonant modes .*4e-09.* N = "):
        build_linear_data(make_problem(-2.0, 1.0, N, "0"))


def test_more_than_two_resonant_modes_are_refused_on_every_call(cold_linear_data):
    # a call that raises keeps nothing, so the refusal comes back each time
    p = make_problem(-2.0, 1.0, 99_400, "0")
    for _ in range(2):
        with pytest.raises(ModeLimitError, match="^3 resonant modes"):
            build_linear_data(p)
    assert not linear._kept and linear._kept_periods == 0


def _full_symbol_rule(bs, c, N):
    # dim and r_int from the resonant mask of the whole symbol, 8 rows at a time
    k = np.arange(N // 2 + 1)
    pair = 2 * k % N != 0
    dim, r_int = [], []
    for s in range(0, len(bs), 8):
        resonant = linear.resonant_modes(bs[s:s + 8, None], c, N)[1]
        rotation = resonant & pair
        dim += (np.sum(resonant, axis=1) + np.sum(rotation, axis=1)).tolist()
        r_int += [int(k[r][-1]) if r.any() else -1 for r in rotation]
    return dim, r_int


@pytest.mark.parametrize("N", [2, 3, 4, 5, 9, 12, 27, 243, 1025, 99_400, 100_001])
@pytest.mark.parametrize("c", [1.0, 2.0, -1.0, 0.5, -3.0, 1.0000001])
def test_kernel_dims_equal_the_full_symbol_rule(c, N):
    # kernel_dims tests only the modes its lower bound leaves; it must count
    # exactly the modes that pass on the whole symbol
    rng = np.random.default_rng(N)
    ks = np.unique([0, 1, 2, N // 3, N // 2])
    rot = -2.0 * np.cos(2.0 * np.pi * ks / N)  # lambda_k = 0 at c = 1
    # b where some lambda_k vanishes: the multipliers 1 and (at even N) -1,
    # and at c = 1 the rotations; each moved to just inside and just outside
    # the cutoff of that mode
    roots = np.unique(np.concatenate([[-(1.0 + c)], [1.0 + c] if N % 2 == 0 else [],
                                      rot if c == 1.0 else []]))
    cut = linear.RESONANT_RTOL * (1.0 + np.abs(roots) + abs(c))
    inside = np.concatenate([roots + cut * (1 - 1e-6), roots - cut * (1 - 1e-6)])
    outside = np.concatenate([roots + cut * (1 + 1e-6), roots - cut * (1 + 1e-6)])
    bs = np.concatenate([np.linspace(-4.0, 4.0, 41), rot, rot + 1e-10, rot - 1e-10,
                         [1.0 + c, -(1.0 + c)], rng.uniform(-5.0, 5.0, 10), inside, outside])
    # the column of N next to others and repeated: every row is its own N's
    n_list = [N, 2, 1025, 3, N]
    dim, r_int = linear.kernel_dims(bs, c, n_list)
    want = {M: _full_symbol_rule(bs, c, M) for M in n_list}
    assert [(d, r) for d, r in zip(dim.tolist(), r_int.tolist())] == [want[M] for M in n_list]
    n = len(inside)
    assert np.all(dim[0, -2 * n:-n] > dim[0, -n:])  # the straddlers straddle


def test_kernel_dims_of_columns_in_several_groups_equal_the_full_symbol_rule():
    # columns are joined while their roots and (b, N) pairs number at most
    # _CHUNK_ENTRIES: these four columns of about 20000 modes take a group
    # of three columns and one of one
    n_list = [40_000, 40_001, 40_000, 40_001]
    rot = [-2.0 * math.cos(2.0 * math.pi * k / N) for N in n_list[:2] for k in (1, 7, N // 3)]
    bs = np.concatenate([np.linspace(-2.0, 2.0, 21), rot, np.add(rot, 1e-10)])
    assert 3 * (20_001 + bs.size) <= linear._CHUNK_ENTRIES < 4 * 20_001
    dim, r_int = linear.kernel_dims(bs, 1.0, n_list)
    want = {M: _full_symbol_rule(bs, 1.0, M) for M in n_list}
    assert [(d, r) for d, r in zip(dim.tolist(), r_int.tolist())] == [want[M] for M in n_list]


@pytest.mark.parametrize("bs, n_list", [([0.5, -1.0], []), ([], [2, 1025, 3]), ([], [])])
def test_kernel_dims_of_an_empty_column_or_list(bs, n_list):
    dim, r_int = linear.kernel_dims(bs, 1.0, n_list)
    assert dim.shape == r_int.shape == (len(n_list), len(bs))


@pytest.mark.parametrize("b, c, N, dim", [(1e308, 1.7e308, 3, 0), (9e307, 9e307, 3, 0),
                                          (1e308, 1e308, 4, 1), (-1.7e308, 1.7e308, 3, 1)])
def test_resonance_cutoff_stays_finite_near_the_double_range(b, c, N, dim):
    # 1 + |b| + |c| overflows; the cutoff must not, or every mode passes.
    # 1 + b + c = 1 and 1 - b + c = 1 are relative zeros, the multipliers 1
    # and -1; the other modes are far above the cutoff, or overflow
    cutoff = float(linear._cutoff(b, c))
    assert math.isclose(cutoff, 1e-9 * abs(b) + 1e-9 * abs(c))
    assert linear.kernel_dims([b], c, [N])[0].tolist() == [[dim]]
    assert int(np.sum(linear.resonant_modes(b, c, N)[1])) == dim


def test_resonance_cutoff_keeps_its_bits_where_it_is_finite():
    rng = np.random.default_rng(0)
    b = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-320.0, 308.0, 4000)
    c = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-320.0, 308.0, 4000)
    b[:10] = [0.0, 5e-324, 1.0, -2.0, 1e308, 1.7e308, -8e307, 3.0, 2.0 ** -1074, 1e-9]
    with np.errstate(over="ignore"):
        plain = linear.RESONANT_RTOL * (1.0 + np.abs(b) + np.abs(c))
    finite = np.isfinite(plain)
    assert np.array_equal(linear._cutoff(b, c)[finite], plain[finite])
    assert [float(linear._cutoff(x, y)) for x, y in zip(b[:50], c[:50])] == \
        linear._cutoff(b[:50], c[:50]).tolist()


@pytest.mark.parametrize("b, c, N, where", [(1e308, 1.7e308, 3, "divide"),
                                            (1e308, 1e308, 4, "divide"),
                                            (-1.7e308, 1.7e308, 3, "matmul"),
                                            (-1e300, 1e300, 5, "matmul")])
def test_linear_data_that_overflows_raises_a_typed_error(b, c, N, where, cold_linear_data):
    # the symbol's inverse (|b| + |c| near the double range) or the adjoint
    # Gram matrix (|c| above about 1e154) leaves the double range
    with pytest.raises(LinearOverflowError, match=f"leaves the double range: overflow .* {where}"):
        build_linear_data(make_problem(b, c, N, "0"))
    assert not linear._kept


def test_problem_stores_one_type_per_field():
    g = "tanh(x)+0.1*cos(2*pi*t/9)"
    p = Problem(0, 2, 9.0, make_problem(0, 2, 9, g).g)
    assert (type(p.b), type(p.c), type(p.N)) == (float, float, int)
    assert Problem(True, 2.0, 9, p.g).b == 1.0 and type(Problem(True, 2.0, 9, p.g).b) is float
    for N in (9.5, math.inf, math.nan, 1.0):
        with pytest.raises(ValueError, match="integer"):
            Problem(0, 2, N, p.g)
    # a float period classifies and solves like the integer one
    assert classify(p).dim == 0
    assert repr(solve(p).as_dict()) == repr(solve(make_problem(0, 2, 9, g)).as_dict())


def _linear_bits(ld):
    rc = ld.resonance
    arrays = (ld.A, ld.symbol, ld.symbol_inv, rc.kernel_basis, rc.adjoint_basis, ld.ker_coef,
              ld.adj_shift, ld.adj_dual, *ld._column)
    return [(a.shape, a.tobytes()) for a in arrays] + [norm_bound_mp_iq(ld), rc.theta, rc.r_int]


@pytest.mark.parametrize("c,N", [(2.0, 9), (-1.0, 4)], ids=["dim0", "dim2"])
def test_negative_zero_b_is_kept_apart(c, N, monkeypatch):
    forget_linear_data(monkeypatch)
    cold = _linear_bits(_ld(-0.0, c, N))
    forget_linear_data(monkeypatch)
    positive = _ld(0.0, c, N)
    negative = _ld(-0.0, c, N)
    assert negative is not positive and negative is _ld(-0.0, c, N)
    assert _linear_bits(negative) == cold
    # -b is the last entry of A: its sign tells the two operators apart
    assert np.signbit(negative.A[1, 1]) != np.signbit(positive.A[1, 1])


@pytest.mark.parametrize("b,c,N", [(0.0, 2.0, 9), (-3.0, 2.0, 9), _rotation_row(9)],
                         ids=["dim0", "dim1", "dim2"])
def test_kept_arrays_are_read_only(b, c, N):
    ld = _ld(b, c, N)
    rc = classify(make_problem(b, c, N, "x"))
    assert rc is ld.resonance
    norm_bound_mp_iq(ld)
    for a in (ld.A, ld.symbol, ld.symbol_inv, rc.kernel_basis, rc.adjoint_basis, ld.ker_coef,
              ld.adj_shift, ld.adj_dual, *ld._column):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_the_least_recently_used_operator_goes_past_the_period_budget(cold_linear_data):
    # three dim-0 operators at N = 20000 fit the budget of 2**16 periods; a fourth
    # evicts the one read longest ago, and one longer than the budget is not kept
    N = 20_000
    first, second, third = (_ld(b, 2.0, N) for b in (0.0, 0.5, 1.0))
    assert _ld(0.0, 2.0, N) is first
    fourth = _ld(1.5, 2.0, N)
    assert linear._kept_periods == 3 * N <= linear._KEEP_PERIODS
    assert _ld(0.0, 2.0, N) is first and _ld(1.0, 2.0, N) is third
    assert _ld(1.5, 2.0, N) is fourth
    assert _ld(0.5, 2.0, N) is not second
    N = linear._KEEP_PERIODS + 1
    assert _ld(0.0, 2.0, N) is not _ld(0.0, 2.0, N)
    assert linear._kept_periods == 3 * 20_000 and len(linear._kept) == 3


def test_the_period_budget_counts_periods_not_operators(cold_linear_data, monkeypatch):
    monkeypatch.setattr(linear, "_KEEP_PERIODS", 20)
    kept = [_ld(0.0, 2.0, N) for N in (3, 5, 7)]
    assert all(_ld(0.0, 2.0, ld.N) is ld for ld in kept)
    assert _ld(0.0, 2.0, 6).N == 6                          # 3 + 5 + 7 + 6 = 21 > 20
    assert [key[2] for key in linear._kept] == [5, 7, 6]   # least recently used first
    assert linear._kept_periods == 18


def test_kernel_basis_is_in_kernel():
    # plus b = 0, c = -1 at even N: multipliers 1 and -1, no rotation
    for b, c, N in instance_grid() + [(0.0, -1.0, 4), (0.0, -1.0, 6), (0.0, -1.0, 8)]:
        ld = _ld(b, c, N)
        for z in ld.resonance.kernel_basis:
            assert sup_norm(apply_L(ld, z)) <= 1e-9 * (1.0 + sup_norm(z))


def test_apply_L_examples():
    ld = _ld(-3, 2, 3)
    assert sup_norm(apply_L(ld, np.zeros((3, 2)))) == 0.0
    assert sup_norm(apply_L(ld, np.tile([1.0, 1.0], (3, 1)))) <= 1e-14
    # pairing of any L-image with the shifted adjoint solutions vanishes
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((3, 2))
        defect = image_test(ld, apply_L(ld, x))
        assert np.max(np.abs(defect)) <= 1e-12


def test_image_test_constant_obstruction():
    ld = _ld(-3, 2, 3)
    h = np.tile([0.0, 1.0], (3, 1))
    vals = image_test(ld, h)
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(NotInImageError):
        mp_solve(ld, h)


def test_image_test_dim0_is_empty():
    ld = _ld(0, 2, 3)
    assert image_test(ld, np.ones((3, 2))).size == 0


def test_proj_P_examples():
    # trivial kernel: P is the zero map
    ld0 = _ld(0, 2, 3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2))
    assert sup_norm(proj_P(ld0, x)) == 0.0
    # kernel elements are fixed
    ld1 = _ld(-3, 2, 3)
    z = ld1.resonance.kernel_basis[0]
    np.testing.assert_allclose(proj_P(ld1, z), z, atol=1e-12)
    # constant (1,0) projects onto the diagonal direction
    x = np.tile([1.0, 0.0], (3, 1))
    np.testing.assert_allclose(proj_P(ld1, x), np.tile([0.5, 0.5], (3, 1)), atol=1e-12)


def test_proj_Q_examples():
    ld = _ld(-3, 2, 3)
    rng = np.random.default_rng(2)
    # Ker(Q) contains Im(L)
    for _ in range(10):
        x = rng.standard_normal((3, 2))
        assert sup_norm(proj_Q(ld, apply_L(ld, x))) <= 1e-12
    # the shifted adjoint solutions are fixed by Q
    for h in np.roll(ld.resonance.adjoint_basis, -1, axis=1):
        np.testing.assert_allclose(proj_Q(ld, h), h, atol=1e-12)
    # trivial kernel: Q is the zero map
    ld0 = _ld(0, 2, 3)
    assert sup_norm(proj_Q(ld0, rng.standard_normal((3, 2)))) == 0.0


def test_projection_idempotence_across_grid():
    rng = np.random.default_rng(3)
    for b, c, N in instance_grid()[::5]:
        ld = _ld(b, c, N)
        for _ in range(5):
            x = rng.standard_normal((N, 2))
            Px = proj_P(ld, x)
            np.testing.assert_allclose(proj_P(ld, Px), Px, atol=1e-10 * (1 + sup_norm(Px)))
            Qx = proj_Q(ld, x)
            np.testing.assert_allclose(proj_Q(ld, Qx), Qx, atol=1e-10 * (1 + sup_norm(Qx)))


def test_image_test_iff_Q_annihilates():
    rng = np.random.default_rng(4)
    for b, c, N in [(-3, 2, 3), (1, 1, 3), (0, 2, 5), (-2, 1, 5), (3, 2, 4)]:
        ld = _ld(b, c, N)
        for _ in range(25):
            h = rng.standard_normal((N, 2))
            in_image = (
                image_test(ld, h).size == 0
                or np.max(np.abs(image_test(ld, h))) <= 1e-8 * (1 + sup_norm(h))
            )
            q_zero = sup_norm(proj_Q(ld, h)) <= 1e-8 * (1 + sup_norm(h))
            assert in_image == q_zero


def test_mp_solve_contract():
    rng = np.random.default_rng(5)
    # N = 243: multipliers off the unit circle (|mu|^N up to 3^243) and a
    # rotation whose other symbol entries are as small as 7e-4
    for b, c, N in [(-3, 2, 3), (1, 1, 3), (0, 2, 3), (0, 2, 7), (-2, 1, 5), (3, 2, 4),
                    (0, 2, 243), (0.5, -3, 243), _rotation_row(243)]:
        ld = _ld(b, c, N)
        assert sup_norm(mp_solve(ld, np.zeros((N, 2)))) == 0.0
        for _ in range(10):
            h = rng.standard_normal((N, 2))
            h = h - proj_Q(ld, h)
            x = mp_solve(ld, h)
            assert sup_norm(apply_L(ld, x) - h) <= 1e-9 * (1.0 + sup_norm(h))
            assert sup_norm(proj_P(ld, x)) <= 1e-9


def test_mp_solve_is_inverse_when_nonresonant():
    ld = _ld(0, 2, 3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = rng.standard_normal((3, 2))
        np.testing.assert_allclose(apply_L(ld, mp_solve(ld, h)), h, atol=1e-10)


def test_mp_solve_inverts_L_on_complement():
    rng = np.random.default_rng(7)
    for b, c, N in [(-3, 2, 3), (1, 1, 3), (0, 2, 5)]:
        ld = _ld(b, c, N)
        for _ in range(10):
            x = rng.standard_normal((N, 2))
            xc = x - proj_P(ld, x)
            back = mp_solve(ld, apply_L(ld, xc))
            assert sup_norm(back - xc) <= 1e-8 * (1.0 + sup_norm(xc))


@pytest.mark.parametrize("b, c, N", [(0, 2, 5), (-3, 2, 5), (3, 2, 4), (1, 1, 3)])
def test_operators_on_a_stack_match_a_loop(b, c, N):
    # one row per regime, and (3, 2, 4) for the kernel of multiplier -1
    ld = _ld(b, c, N)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 3, N, 2))
    H = X - proj_Q(ld, X)
    for op, arg in [(apply_L, X), (image_test, X), (proj_P, X), (proj_Q, X),
                    (mp_solve, H)]:
        stacked = op(ld, arg)
        for m in np.ndindex(arg.shape[:2]):
            single = op(ld, arg[m])
            assert stacked[m].shape == single.shape
            np.testing.assert_allclose(stacked[m], single, rtol=1e-13, atol=1e-13)
    if ld.resonance.dim == 0:
        assert image_test(ld, X[0]).shape == (3, 0)
    else:
        # one member outside the image fails the whole stack
        H[1, 2] += np.roll(ld.resonance.adjoint_basis[0], -1, axis=0)
        with pytest.raises(NotInImageError) as info:
            mp_solve(ld, H)
        assert info.value.defect > 1e-9


def test_adjoint_basis_satisfies_recurrence():
    # z(t+1) = A^{-T} z(t) around the whole period, for every adjoint element
    for b, c, N in [(-3, 2, 3), (1, 1, 3), (0.5, -1.5, 5), (3, 2, 4), (0, -1, 6),
                    _rotation_row(25), (-1.5, 0.5, 25)]:
        ld = _ld(b, c, N)
        A_inv_T = np.array([[-b / c, 1.0], [-1.0 / c, 0.0]])
        assert len(ld.resonance.adjoint_basis) == ld.resonance.dim > 0
        for z in ld.resonance.adjoint_basis:
            np.testing.assert_allclose(np.roll(z, -1, axis=0), z @ A_inv_T.T,
                                       atol=1e-12 * (1.0 + abs(c)))


def test_trigonometric_adjoint_cross_check():
    # in the two-dimensional case the iterated adjoint table equals the
    # closed-form trigonometric solution up to a constant invertible factor
    p = make_problem(1, 1, 3, "0")
    ld = build_linear_data(p)
    th = ld.resonance.theta
    A_inv_T = np.array([[-p.b / p.c, 1.0], [-1.0 / p.c, 0.0]])
    gamma = np.eye(2)
    table = []
    for t in range(p.N + 1):
        table.append(gamma)
        gamma = A_inv_T @ gamma
    C = np.array([[-1.0, 0.0], [math.cos(-th), math.sin(-th)]])  # trig value at t=0
    for t in range(p.N + 1):
        trig = np.array([
            [-math.cos(th * t), -math.sin(th * t)],
            [math.cos(th * (t - 1)), math.sin(th * (t - 1))],
        ])
        np.testing.assert_allclose(table[t] @ C, trig, atol=1e-12)


def test_V_is_orthogonal_projector():
    # (Px)(t) = A^t V x(0), with V the orthogonal projection onto Ker(I - A^N)
    for b, c, N in instance_grid()[::3] + [(0.0, -1.0, 6)]:
        ld = _ld(b, c, N)
        E = np.zeros((2, N, 2))
        E[0, 0, 0] = E[1, 0, 1] = 1.0
        V = proj_P(ld, E)[:, 0, :].T
        np.testing.assert_allclose(V @ V, V, atol=1e-12)
        np.testing.assert_allclose(V.T, V, atol=1e-12)
        assert np.linalg.matrix_rank(V) == ld.resonance.dim
        M = np.eye(2) - _monodromy(b, c, N)
        smax = np.linalg.svd(M, compute_uv=False)[0]
        assert np.max(np.abs(M @ V)) <= 1e-9 * max(1.0, smax) * 10
        x0 = np.random.default_rng(8).standard_normal(2)
        x = np.zeros((N, 2))
        x[0] = x0
        Px = proj_P(ld, x)
        for t in range(N):
            np.testing.assert_allclose(Px[t], np.linalg.matrix_power(ld.A, t) @ V @ x0,
                                       atol=1e-10 * max(1.0, smax))


def test_norm_bound_soundness_and_pinned_value():
    ld = _ld(0, 2, 3)
    lower, upper = norm_bound_mp_iq(ld)
    assert lower <= upper
    # pinned on first run of the block construction; the four-direction
    # lower bound must come within a factor 1.2 of it
    assert upper == pytest.approx(1.9176483170182115, rel=1e-12)
    assert upper <= 1.2 * lower


def _dense_upper(B):
    # per output index t, the sum over i of the largest singular values of
    # the 2x2 blocks B[t, :, i, :]
    smax, _ = svals2(B.transpose(0, 2, 1, 3))
    return float(np.max(np.sum(smax, axis=1)))


def _dense_lower(B):
    # (value, t, u) maximizing the sum over i of |B[t, :, i, :]^T u| over t
    # and u in e1, e2, (e1 +- e2)/sqrt2
    s = math.sqrt(0.5)
    best = (-1.0, None, None)
    for u in np.array([[1.0, 0.0], [0.0, 1.0], [s, s], [s, -s]]):
        sums = np.sum(np.linalg.norm(np.einsum("o,toik->tik", u, B), axis=2), axis=1)
        t = int(np.argmax(sums))
        best = max(best, (float(sums[t]), t, u), key=lambda v: v[0])
    return best


def _rotation(N):
    return (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)


def test_norm_bound_batch_matches_single():
    # the bounds and G1, gathered from the one column of M_p(I-Q), against
    # the dense blocks of 2N single solves on projected unit sequences:
    # dims 0, 1 and 2, the Jordan row (-2, 1), the real pair (0, -1) at
    # even N, rotations, and a row next to a double multiplier. The lower
    # bound is realised: the unit input x(i) = B[t, :, i, :]^T u / |...|
    # of the maximizing (t, u) has an image at least that long at t.
    for N in (3, 4, 13, 33, 243):
        rows = [(0.0, 2.0), (0.5, -3.0), (-3.0, 2.0), (-1.5, 0.5), (-2.0, 1.0),
                (3.0, 2.0), (-3.000001, 2.0), _rotation(N)[:2]]
        if N % 2 == 0:
            rows.append((0.0, -1.0))
        for b, c in rows:
            ld = _ld(b, c, N)
            B = dense_mpiq(ld)
            lower, upper = norm_bound_mp_iq(ld)
            assert upper == pytest.approx(_dense_upper(B), rel=1e-12), (b, c, N)
            dense_lower, t, u = _dense_lower(B)
            assert lower == pytest.approx(dense_lower, rel=1e-12), (b, c, N)
            x = np.einsum("o,oik->ik", u, B[t])
            x /= np.maximum(np.linalg.norm(x, axis=1), 1e-300)[:, None]
            image = mp_solve(ld, x - proj_Q(ld, x))
            assert np.linalg.norm(image[t]) >= lower * (1.0 - 1e-12), (b, c, N)
            np.testing.assert_allclose(_mpiq_g1(ld), B[:, 0, :, 1], rtol=0,
                                       atol=g1_atol(ld, B), err_msg=f"{(b, c, N)}")


@pytest.mark.parametrize("N", [3, 27, 243, 1025])
@pytest.mark.parametrize("b, c", [(0.0, 2.0), (0.5, -3.0), (-3.000001, 2.0)])
def test_norm_bound_dim0_column_matches_dense_blocks(b, c, N):
    # at dim 0 the bound reads one row of blocks, the column of L^{-1}
    ld = _ld(b, c, N)
    assert ld.resonance.dim == 0
    dense = _dense_upper(dense_mpiq(ld))
    assert norm_bound_mp_iq(ld)[1] == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("b, c, pinned", [
    (-1.5, 0.5, 1616.0369388093052),
    (*_rotation(1025)[:2], 106456.17423182148),
])
def test_norm_bound_memory_is_linear_in_N(b, c, pinned):
    # at N = 1025 the dense (N, 2, N, 2) blocks alone are 34 MB; the bound
    # is read from one column in chunks of rows, at the value the dense
    # blocks gave
    ld = _ld(b, c, 1025)
    assert ld.resonance.dim in (1, 2)
    tracemalloc.start()
    try:
        _, upper = norm_bound_mp_iq(ld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert upper == pytest.approx(pinned, rel=1e-12)


def test_norm_bound_lower_never_exceeds_upper_across_grid():
    # N = 243: multipliers of modulus sqrt(2), and 1.5 and -2
    for b, c, N in instance_grid()[::7] + [(0.0, 2.0, 243), (0.5, -3.0, 243)]:
        ld = _ld(b, c, N)
        lower, upper = norm_bound_mp_iq(ld)
        assert lower <= upper * (1.0 + 1e-12)
