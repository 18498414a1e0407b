"""Adaptive quadrature vs scipy references."""
import numpy as np
import pytest
from scipy.integrate import quad

from hetcache import quadrature
from hetcache.quadrature import QuadratureError, _unwrapped, integrate_adaptive


def _integrate(f, a, b, breakpoints=(), **kwargs):
    """``f``, mapping nodes to values of shape (n,) or (C, n), integrated
    over ``[a, b]`` as a lockstep of one row: its ``(values, errors)`` of
    shape (C,), where a 1-D ``f`` is one component, or the error it raises."""
    [result] = integrate_adaptive(lambda call: np.atleast_2d(f(call[1])), [a], [b],
                                  breakpoints=[breakpoints], **kwargs)
    return _unwrapped(result)


def test_smooth_exponential():
    val, err = _integrate(np.exp, 0.0, 3.0, rel_tol=1e-10, abs_tol=1e-14)
    exact = np.exp(3.0) - 1.0
    assert abs(val - exact) < 1e-10
    # estimate covers the true error up to summation rounding
    assert err + 64 * np.finfo(float).eps * abs(val) >= abs(val - exact)


def test_narrow_gaussian_with_hint():
    # narrow features must be declared as breakpoints (integrand contract)
    f = lambda x: np.exp(-((x - 4.0) / 1e-2) ** 2)
    val, _ = _integrate(f, 0.0, 10.0, rel_tol=1e-9, abs_tol=1e-16,
                                breakpoints=(4.0,))
    ref, _ = quad(lambda x: float(f(np.array([x]))[0]), 0.0, 10.0,
                  points=[4.0], epsabs=1e-14, epsrel=1e-12, limit=200)
    assert abs(val - ref) < 1e-10 * abs(ref) + 1e-14


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 1.3) ** 0.5
    val, _ = _integrate(f, 0.0, 3.0, rel_tol=1e-9, abs_tol=1e-14,
                                breakpoints=(1.3,))
    exact = (1.3 ** 1.5 + 1.7 ** 1.5) / 1.5
    assert abs(val - exact) < 1e-9 * exact


def test_array_valued_matches_componentwise():
    scales = np.array([1.0, 2.0, 5.0])

    def family(x):
        return np.exp(-scales[:, None] * x)

    vals, errs = _integrate(family, 0.0, 4.0, rel_tol=1e-10, abs_tol=1e-14)
    assert vals.shape == (3,)
    for k, s in enumerate(scales):
        single, _ = _integrate(lambda x: np.exp(-s * x), 0.0, 4.0,
                                       rel_tol=1e-10, abs_tol=1e-14)
        assert abs(vals[k] - single) < 1e-12
    assert np.all(errs >= 0)


def test_degenerate_interval():
    val, err = _integrate(np.sin, 2.0, 2.0)
    assert val == 0.0 and err == 0.0


def test_rejects_nan_and_infinite_arguments():
    calls = []
    f = lambda x: calls.append(x) or np.exp(x)
    for a, b in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)]:
        with pytest.raises(ValueError, match="bounds"):
            _integrate(f, a, b)
    with pytest.raises(ValueError, match="tolerances"):
        _integrate(f, 0.0, 1.0, rel_tol=np.nan)
    assert calls == []  # rejected before any integrand call


def test_budget_exhaustion_raises_with_estimate():
    f = lambda x: np.sin(1000.0 * x)
    with pytest.raises(QuadratureError) as exc:
        _integrate(f, 0.0, 20.0, rel_tol=1e-14, abs_tol=1e-16)
    assert exc.value.error_estimate is not None


def test_one_row_returns_its_error_in_the_list():
    # a failing row is an entry of the result, not a raise, whatever fails:
    # its bounds, its budget or its integrand (called once, not retried)
    calls = []

    def raising(call):
        calls.append(call)
        raise QuadratureError("integrand undefined")

    def oscillating(call):
        return np.sin(1000.0 * call[1])[None]

    [bounds] = integrate_adaptive(oscillating, [0.0], [np.inf])
    [budget] = integrate_adaptive(oscillating, [0.0], [20.0], rel_tol=1e-14, abs_tol=1e-16)
    [raised] = integrate_adaptive(raising, [0.0], [1.0])
    assert type(bounds) is ValueError and "bounds" in str(bounds)
    assert type(budget) is QuadratureError and str(budget) == "no convergence within 4000 panels"
    assert budget.error_estimate.shape == (1,)
    assert type(raised) is QuadratureError and str(raised) == "integrand undefined"
    assert len(calls) == 1


def test_deterministic_repeat():
    f = lambda x: np.log1p(x) * np.cos(3.0 * x)
    v1, e1 = _integrate(f, 0.0, 7.0)
    v2, e2 = _integrate(f, 0.0, 7.0)
    assert v1 == v2 and e1 == e2


def _scales_family(x):
    return np.exp(-np.array([1.0, 2.0, 5.0])[:, None] * x)


_BATCH_CASES = [
    (lambda x: np.log1p(x) * np.cos(30.0 * x), 0.0, 7.0, ()),
    (_scales_family, 0.0, 4.0, ()),
    (lambda x: np.abs(x - 1.3) ** 0.5, 0.0, 3.0, (1.3,)),
    (lambda x: np.exp(-((x - 4.0) / 1e-2) ** 2), 0.0, 10.0, (4.0,)),
]


@pytest.mark.parametrize("f, a, b, breakpoints", _BATCH_CASES)
def test_batched_panels_bit_equal_to_one_panel_per_call(f, a, b, breakpoints):
    n = len(quadrature._NODES)

    def one_panel_per_call(x):
        return np.concatenate([f(block) for block in x.reshape(-1, n)], axis=-1)

    kwargs = dict(rel_tol=1e-10, abs_tol=1e-14, breakpoints=breakpoints)
    v1, e1 = _integrate(f, a, b, **kwargs)
    v2, e2 = _integrate(one_panel_per_call, a, b, **kwargs)
    assert np.all(v1 == v2) and np.all(e1 == e2)


@pytest.mark.parametrize("f, a, b, breakpoints", _BATCH_CASES)
def test_one_integrand_call_per_split(f, a, b, breakpoints):
    calls, panels = [0], [0]

    def counting(x):
        calls[0] += 1
        panels[0] += len(x) // len(quadrature._NODES)
        return f(x)

    _integrate(counting, a, b, rel_tol=1e-10, abs_tol=1e-14,
                       breakpoints=breakpoints)
    initial = quadrature._INITIAL_PANELS * (1 + len(breakpoints))
    splits = (panels[0] - initial) // 2
    assert splits > 0
    assert calls[0] == 1 + splits


def _one_product_per_panel(values, half, requests):
    # the rule sums as one product per panel: the reference for _panels
    out, k, n_nodes, n_hi = [], 0, len(quadrature._NODES), len(quadrature._HI_NODES)
    for _, edges in requests:
        out.append([])
        for h in half[k:k + len(edges) - 1].tolist():
            block = values[:, k * n_nodes:(k + 1) * n_nodes]
            q_hi = h * (block[:, :n_hi] @ quadrature._HI_WEIGHTS)
            q_lo = h * (block[:, n_hi:] @ quadrature._LO_WEIGHTS)
            out[-1].append((q_hi, np.abs(q_hi - q_lo)))
            k += 1
    return out


# 2 components is a coverage row of one fading term: its value and its bound
@pytest.mark.parametrize("components", [1, 2, 6])
def test_stacked_rule_sums_equal_one_product_per_panel(monkeypatch, components):
    # three requests of 8, 2 and 40 panels, in one call and, past a cap of
    # 16 panels, in two
    requests = [(0, np.linspace(0.0, 1.0, 9)), (1, [2.0, 2.5, 3.0]), (2, np.linspace(-4.0, 9.0, 41))]
    seen = []

    def f(call):
        rows, x = call
        seen.append(x)
        scale = np.arange(1.0, 1.0 + components)[:, None]
        return np.sin(1e3 * x + rows) * np.exp(x) * scale

    lo = np.concatenate([np.asarray(e, dtype=float)[:-1] for _, e in requests])
    hi = np.concatenate([np.asarray(e, dtype=float)[1:] for _, e in requests])
    for cap in (100, 16):
        monkeypatch.setattr(quadrature, "_CALL_PANELS", cap)
        seen.clear()
        stacked = quadrature._panels(f, requests)
        x = np.concatenate(seen)
        rows = np.repeat([0, 1, 2], [8 * 22, 2 * 22, 40 * 22])
        expected = _one_product_per_panel(f((rows, x)), 0.5 * (hi - lo), requests)
        assert len(seen) == (1 if cap == 100 else 2) + 1
        for got, want in zip(stacked, expected):
            assert len(got) == len(want)
            for (q, e), (q_ref, e_ref) in zip(got, want):
                assert type(q) is type(q_ref) and np.shape(q) == np.shape(q_ref) == (components,)
                assert q.tobytes() == q_ref.tobytes()
                assert e.tobytes() == e_ref.tobytes()


def _with_square(g):
    """``g`` and its square: two components, as every lockstep row below has."""
    def f(x):
        y = g(x)
        return np.stack((y, y * y))
    return f


def _raises_past_five(x):
    if np.any(x > 5.0):
        raise QuadratureError("integrand undefined past 5")
    return np.stack((np.exp(x), np.exp(-x)))


# (integrand of shape (2, n), a, b, breakpoints, rel_tol, abs_tol)
_LOCKSTEP_ROWS = [
    (_with_square(lambda x: np.log1p(x) * np.cos(30.0 * x)), 0.0, 7.0, (), 1e-10, 1e-14),
    (lambda x: np.exp(-np.array([1.0, 5.0])[:, None] * x), -1.0, 4.0, (), 1e-8, 1e-12),
    (_with_square(lambda x: np.abs(x - 1.3) ** 0.5), 0.0, 3.0, (1.3,), 1e-9, 1e-14),
    (_with_square(lambda x: np.exp(-((x - 4.0) / 1e-2) ** 2)), 0.0, 10.0, (4.0,), 1e-10, 1e-16),
    (_with_square(lambda x: np.sin(1000.0 * x)), 0.0, 20.0, (), 1e-14, 1e-16),  # runs out
    (lambda x: np.stack((np.sin(x), np.cos(x))), 2.0, 2.0, (), 1e-6, 1e-10),  # empty
    (_raises_past_five, 0.0, 6.0, (), 1e-6, 1e-10),  # its integrand raises
]


def _alone(f, a, b, breakpoints, rel_tol, abs_tol):
    try:
        return _integrate(f, a, b, rel_tol=rel_tol, abs_tol=abs_tol, breakpoints=breakpoints)
    except QuadratureError as exc:
        return exc


def test_lockstep_rows_equal_each_row_alone():
    # rows of different domains, breakpoints and tolerances; two
    # fail, each with its own error, and the others keep the bits they
    # have alone
    calls = []

    def lockstep(call):
        rows, x = call
        calls.append(np.unique(rows).tolist())
        out = np.empty((2, len(x)))
        for r, (f, *_) in enumerate(_LOCKSTEP_ROWS):
            own = rows == r
            if own.any():
                out[:, own] = f(x[own])
        return out

    a, b, breakpoints, rel_tol, abs_tol = (list(col) for col in zip(
        *(spec for _, *spec in _LOCKSTEP_ROWS)))
    results = integrate_adaptive(lockstep, a, b, rel_tol=rel_tol, abs_tol=abs_tol,
                                 breakpoints=breakpoints)
    assert len(results) == len(_LOCKSTEP_ROWS)
    for row, result in zip(_LOCKSTEP_ROWS, results):
        alone = _alone(*row)
        if isinstance(alone, QuadratureError):
            assert type(result) is QuadratureError and str(result) == str(alone)
            assert repr(result.error_estimate) == repr(alone.error_estimate)
        else:
            (values, errors), (alone_values, alone_errors) = result, alone
            assert values.shape == alone_values.shape == (2,)
            assert values.tobytes() == alone_values.tobytes()
            assert errors.tobytes() == alone_errors.tobytes()
    assert str(results[-1]) == "integrand undefined past 5"
    assert str(results[4]) == "no convergence within 4000 panels"
    # the first call fails at the raising row, then each row is tried alone;
    # after that every call serves every row still refining
    assert calls[:1 + len(_LOCKSTEP_ROWS)] == [
        list(range(len(_LOCKSTEP_ROWS))), *([r] for r in range(len(_LOCKSTEP_ROWS)))]
    later = calls[1 + len(_LOCKSTEP_ROWS):]
    steps = [sum(r in rows for rows in later) for r in range(len(_LOCKSTEP_ROWS))]
    assert len(later) == max(steps) > min(steps[:4])
    assert all(r in rows for r, n in enumerate(steps) for rows in later[:n])
