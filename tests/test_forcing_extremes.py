"""The checks and the default dim-2 radius sample g over the period through
``expr.envelope``, which forms a forced g = h(x) +- p(t) only at the two t
where p is least and greatest.

Each test compares that path with the evaluation at every t, forced by making
``expr._forcing_split`` return None: reports, estimates and error texts must
be identical.
These tests are also run with numpy's SIMD dispatch turned off (see the CI
workflow), so the bit-identity holds on the baseline kernels too.
"""

import math
import random
import re
import warnings

import numpy as np
import pytest

from perdiff import check_corollary, check_thm1, check_thm2, expr, reduction
from perdiff.hypotheses import _PROBE, _sign_condition

from conftest import make_problem

SHAPES = ["tanh(x)", "atan(x)", "x/(1+abs(x))", "ln(x+50)", "x^3", "exp(x)", "1e308*tanh(x)"]


def _forcings(N):
    rng = random.Random(f"forcings:{N}")
    A, phi = rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0 * math.pi)
    return [f"{A!r}*cos(2*pi*t/{N}+{phi!r})", f"{A!r}*sin(t)", "abs(t-3)", "ln(t+2)", "0.3",
            "1e300*cos(t)", "1.5e308*cos(2*pi*t/3)"]


def _forms(h, p):
    return [f"{h}+{p}", f"{h}-({p})", f"({p})+{h}", f"({p})-{h}"]


def _cases(N):
    return [g for h in SHAPES for g in [h, *[f for p in _forcings(N) for f in _forms(h, p)]]]


def _rotation_row(N):
    return (-2.0 * math.cos(2.0 * math.pi / N), 1.0, N)


def _outcome(run):
    try:
        out = run()
    except Exception as e:  # the error text is part of the outcome
        return f"{type(e).__name__}: {e}"
    return repr(out.as_dict() if hasattr(out, "as_dict") else out)


def _outcomes(g, N):
    dim0, rot = make_problem(0, 2, N, g), make_problem(*_rotation_row(N), g)
    runs = [lambda: check_thm1(dim0, r=10.0, zhat=1.0),
            lambda: check_thm1(rot, r=2.0, zhat=0.5, grid=31),
            lambda: check_thm2(rot, zhat=1.0),
            lambda: check_corollary(rot, R=1.0),
            lambda: check_corollary(dim0, R=3.0, r_schedule=[1.0, 10.0], grid=51),
            lambda: reduction._estimate_bounds(rot, 0.0)]
    return [_outcome(run) for run in runs]


def _every_t(monkeypatch):
    monkeypatch.setattr(expr, "_forcing_split", lambda node: None)


@pytest.mark.parametrize("N", [3, 9, 27])
@pytest.mark.parametrize("overflow", ["error", "ignore"])
def test_the_extremes_give_the_reports_of_every_t(N, overflow, monkeypatch):
    # products x*g and differences of g may overflow: they are +-inf, and no
    # warning escapes, so warnings as errors and ignored give the same reports
    cases = _cases(N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if overflow == "error" else "error", RuntimeWarning)
        other_filter = [_outcomes(g, N) for g in cases]
    with warnings.catch_warnings():
        warnings.simplefilter(overflow, RuntimeWarning)
        fast = [_outcomes(g, N) for g in cases]
        assert fast == other_filter
        _every_t(monkeypatch)
        for g, outcomes in zip(cases, fast):
            assert outcomes == _outcomes(g, N), g
    # the cases pass, fail, overflow and leave the domain
    seen = " ".join(o for outcomes in fast for o in outcomes)
    assert "RuntimeWarning" not in seen
    for text in ("'overall': True", "'overall': False", "DomainError: ln of a non-positive",
                 "DomainError: evaluation produced a non-finite value", "NotApplicableError",
                 "SolverError", "-inf"):
        assert text in seen


@pytest.mark.parametrize("g, message", [
    ("ln(x+50)+0.1*cos(t)", "ln of a non-positive value"),
    ("tanh(x)+ln(t-1)", "ln of a non-positive value"),
    ("0.1*cos(t)-ln(x+50)", "ln of a non-positive value"),
    ("exp(x^2)+sin(t)", "evaluation produced a non-finite value"),
    ("1e308*tanh(x)+1.5e308*cos(t)", "evaluation produced a non-finite value"),
    ("tanh(x)+ln(20-t)", "ln of a non-positive value"),  # only at t + N, on the probe
])
def test_the_extremes_raise_the_domain_error_of_every_t(g, message, monkeypatch):
    p = make_problem(*_rotation_row(15), g)
    runs = [lambda: check_thm2(p, zhat=1.0), lambda: check_thm1(p, r=30.0, zhat=1.0),
            lambda: reduction._estimate_bounds(p, 0.0)]
    fast = [_outcome(run) for run in runs]
    assert fast[:2] == [f"DomainError: {message}"] * 2
    _every_t(monkeypatch)
    assert [_outcome(run) for run in runs] == fast


@pytest.fixture
def shapes(monkeypatch):
    """Shapes of every value of g or of its subtrees that evaluation forms."""
    seen = []
    ev, evaluate, envelope = expr._ev, expr.evaluate, expr.envelope

    def recorded_ev(node, t, x):
        out = ev(node, t, x)
        seen.append(np.shape(out))
        return out

    def recorded_evaluate(node, t, x):
        seen.append(np.broadcast_shapes(np.shape(t), np.shape(x)))
        return evaluate(node, t, x)

    def recorded_envelope(*args):
        out = envelope(*args)
        seen.append(np.shape(out))
        return out

    monkeypatch.setattr(expr, "_ev", recorded_ev)
    monkeypatch.setattr(expr, "evaluate", recorded_evaluate)
    monkeypatch.setattr(expr, "envelope", recorded_envelope)
    return seen


def _beyond_the_probe(seen):
    # values over more than the probe's x values at more than two t
    return [s for s in seen if len(s) == 2 and s[0] > 2 and s[1] > _PROBE.size]


def _sample_all(g, N=27):
    p = make_problem(*_rotation_row(N), g)
    check_thm1(p, r=10.0, zhat=1.0)
    check_thm2(p, zhat=1.0)
    reduction._estimate_bounds(p, 0.0)
    if "t" not in g:
        check_corollary(p, R=1.0)


@pytest.mark.parametrize("g", ["tanh(x)+0.1*cos(2*pi*t/27)", "0.1*sin(t)-atan(x)",
                               "x/(1+abs(x))", "(0.2*cos(t))+tanh(x)"])
def test_a_forced_g_is_formed_at_two_t_beyond_the_probe(g, shapes, monkeypatch):
    _sample_all(g)
    assert shapes and not _beyond_the_probe(shapes)
    # the record sees a sample at every t
    shapes.clear()
    with monkeypatch.context() as m:
        _every_t(m)
        _sample_all(g)
    assert _beyond_the_probe(shapes)


@pytest.mark.parametrize("g", ["tanh(x*cos(t))", "ln(x+110-2*t)", "tanh(x)+0.1*cos(t)+0.5",
                               "tanh(x)*(1+0.1*cos(t))", "tanh(x)+0.1*x*cos(t)",
                               "x*sin(t)-atan(x)"])
def test_a_g_that_is_not_h_plus_p_is_sampled_at_every_t(g, shapes):
    # ln(x+110-2*t) is defined on the probe at t = 0..17 and leaves its
    # domain on the grids, which are still sampled at every t
    node = expr.parse(g)
    assert expr._forcing_split(node) is None
    p = make_problem(*_rotation_row(9), g)
    try:
        check_thm2(p, zhat=1.0)
    except expr.DomainError:
        pass
    assert any(s[0] == 9 and s[1] > _PROBE.size for s in shapes if len(s) == 2)


def _envelope_of_every_t(full):
    # the rows envelope gives, from g evaluated at every t
    return np.array([full.min(axis=0), full.max(axis=0)])


def test_the_extremes_are_rows_of_the_evaluation_at_every_t(monkeypatch):
    # on the forced path the rows of the envelope are rows of the evaluation
    # at every t; on the every-t path each entry is a value of its column
    for every_t in (False, True):
        with monkeypatch.context() as m:
            if every_t:
                _every_t(m)
            _check_envelopes_of_every_t(rows_of_full=not every_t)


def _check_envelopes_of_every_t(rows_of_full):
    rng = np.random.default_rng(3)
    for g in _cases(11):
        node = expr.parse(g)
        for _ in range(3):
            ts = np.arange(int(rng.integers(2, 40)))[:, None]
            x = rng.uniform(-60.0, 60.0, int(rng.integers(1, 50)))
            try:
                full = expr.evaluate(node, ts, x)
            except expr.DomainError as e:
                with pytest.raises(expr.DomainError, match=re.escape(str(e))):
                    expr.envelope(node, ts, x)
                continue
            bounds = expr.envelope(node, ts, x)
            assert all((full == row).any(axis=0).all() for row in bounds), g
            want = _envelope_of_every_t(full)
            for reduce, k in ((np.min, 0), (np.max, 1)):
                assert (reduce(bounds, axis=0) == want[k]).all(), g
            if rows_of_full:
                assert all((full == row).all(axis=1).any() for row in bounds), g


@pytest.mark.parametrize("g", ["tanh(x*cos(t))", "x*sin(t)-atan(x)", "8e307*tanh(x)*(1+cos(t))",
                               "tanh(x)*(1+0.1*cos(t))"])
@pytest.mark.parametrize("entries", [1, 5, 4 * 11 + 3, 1 << 16])
def test_the_envelope_at_every_t_does_not_depend_on_the_chunk(g, entries, monkeypatch):
    # bitwise the [min; max] of one evaluation over every t, for a column of
    # one t, of a part of a chunk and of several chunks
    node, ts, x = expr.parse(g), np.arange(37.0)[:, None], np.linspace(-3.0, 3.0, 11)
    full = expr.evaluate(node, ts, x)
    monkeypatch.setattr(expr, "_CHUNK_ENTRIES", entries)
    for rows in (37, 30, 1):
        got = expr.envelope(node, ts[:rows], x)
        assert got.tobytes() == _envelope_of_every_t(full[:rows]).tobytes()


def test_the_envelope_raises_the_domain_error_of_a_later_chunk(monkeypatch):
    # g leaves its domain only at t = 30, the last row, past the first chunks
    node, ts, x = expr.parse("ln(x+40-t)*cos(t)"), np.arange(31.0)[:, None], np.linspace(-10, 10, 9)
    monkeypatch.setattr(expr, "_CHUNK_ENTRIES", 18)
    with pytest.raises(expr.DomainError, match="ln of a non-positive value"):
        expr.envelope(node, ts, x)


def test_the_corollary_takes_the_extremes_over_one_period():
    # p is greatest at t = N, a row the corollary's probe evaluates but its
    # grids do not: C2* is the sign test over t = 0..N-1 alone
    g, N = "tanh(x)+1e-14*t", 5
    report = check_corollary(make_problem(-1.2, 1, N, g), R=1.0)
    node, xs, ts = expr.parse(g), np.linspace(1.0, 11.0, 201)[1:], np.arange(N + 1)[:, None]

    def worst(t):
        return min(float(np.min(xs * expr.evaluate(node, t, xs))),
                   float(np.min(-xs * expr.evaluate(node, t, -xs))))

    assert report.condition("C2*").quantities["min_x_times_h"] == worst(ts[:N]) != worst(ts)


def test_a_forcing_that_overflows_past_the_rows_read_takes_every_t():
    # evaluation at every t raises from t = 1 on; g at t = 0 alone is finite
    node, ts, x = expr.parse("tanh(x)+exp(1000*t)"), np.arange(3.0)[:, None], np.linspace(-1, 1, 5)
    assert np.isfinite(expr.envelope(node, ts[:1], x)).all()
    with pytest.raises(expr.DomainError) as every_t:
        expr.evaluate(node, ts, x)
    with pytest.raises(expr.DomainError) as enveloped:
        expr.envelope(node, ts, x)
    assert str(enveloped.value) == str(every_t.value)


def test_the_sign_condition_is_its_smallest_product():
    xs = np.array([1.0, 2.0])
    for g_pos, g_neg in [([1.0, 2.0], [-1.0, -3.0]), ([1e308, 1.0], [-1.0, -1.0]),
                         ([1.0, 1.0], [-1.0, 1e308]), ([0.0, 1.0], [-1.0, -1.0])]:
        with np.errstate(over="ignore"):
            products = np.concatenate([xs * g_pos, -xs * np.array(g_neg)])
            assert _sign_condition(xs, np.array(g_pos), np.array(g_neg)) == (
                bool(np.all(products > 0.0)), float(np.min(products)))
