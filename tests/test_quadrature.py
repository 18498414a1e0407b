"""Adaptive quadrature vs scipy references."""
import numpy as np
import pytest
from scipy.integrate import quad

from hetcache import quadrature
from hetcache.quadrature import QuadratureError, integrate_adaptive


def test_smooth_exponential():
    val, err = integrate_adaptive(np.exp, 0.0, 3.0, rel_tol=1e-10, abs_tol=1e-14)
    exact = np.exp(3.0) - 1.0
    assert abs(val - exact) < 1e-10
    # estimate covers the true error up to summation rounding
    assert err + 64 * np.finfo(float).eps * abs(val) >= abs(val - exact)


def test_narrow_gaussian_with_hint():
    # narrow features must be declared as breakpoints (integrand contract)
    f = lambda x: np.exp(-((x - 4.0) / 1e-2) ** 2)
    val, _ = integrate_adaptive(f, 0.0, 10.0, rel_tol=1e-9, abs_tol=1e-16,
                                breakpoints=(4.0,))
    ref, _ = quad(lambda x: float(f(np.array([x]))[0]), 0.0, 10.0,
                  points=[4.0], epsabs=1e-14, epsrel=1e-12, limit=200)
    assert abs(val - ref) < 1e-10 * abs(ref) + 1e-14


def test_kink_with_breakpoint():
    f = lambda x: np.abs(x - 1.3) ** 0.5
    val, _ = integrate_adaptive(f, 0.0, 3.0, rel_tol=1e-9, abs_tol=1e-14,
                                breakpoints=(1.3,))
    exact = (1.3 ** 1.5 + 1.7 ** 1.5) / 1.5
    assert abs(val - exact) < 1e-9 * exact


def test_array_valued_matches_componentwise():
    scales = np.array([1.0, 2.0, 5.0])

    def family(x):
        return np.exp(-scales[:, None] * x)

    vals, errs = integrate_adaptive(family, 0.0, 4.0, rel_tol=1e-10, abs_tol=1e-14)
    assert vals.shape == (3,)
    for k, s in enumerate(scales):
        single, _ = integrate_adaptive(lambda x: np.exp(-s * x), 0.0, 4.0,
                                       rel_tol=1e-10, abs_tol=1e-14)
        assert abs(vals[k] - single) < 1e-12
    assert np.all(errs >= 0)


def test_degenerate_interval():
    val, err = integrate_adaptive(np.sin, 2.0, 2.0)
    assert val == 0.0 and err == 0.0


def test_rejects_nan_and_infinite_arguments():
    calls = []
    f = lambda x: calls.append(x) or np.exp(x)
    for a, b in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)]:
        with pytest.raises(ValueError, match="bounds"):
            integrate_adaptive(f, a, b)
    with pytest.raises(ValueError, match="tolerances"):
        integrate_adaptive(f, 0.0, 1.0, rel_tol=np.nan)
    assert calls == []  # rejected before any integrand call


def test_budget_exhaustion_raises_with_estimate():
    f = lambda x: np.sin(1000.0 * x)
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(f, 0.0, 20.0, rel_tol=1e-14, abs_tol=1e-16,
                           max_panels=8)
    assert exc.value.error_estimate is not None


def test_deterministic_repeat():
    f = lambda x: np.log1p(x) * np.cos(3.0 * x)
    v1, e1 = integrate_adaptive(f, 0.0, 7.0)
    v2, e2 = integrate_adaptive(f, 0.0, 7.0)
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
    v1, e1 = integrate_adaptive(f, a, b, **kwargs)
    v2, e2 = integrate_adaptive(one_panel_per_call, a, b, **kwargs)
    assert np.all(v1 == v2) and np.all(e1 == e2)


@pytest.mark.parametrize("f, a, b, breakpoints", _BATCH_CASES)
def test_one_integrand_call_per_split(f, a, b, breakpoints):
    calls, panels = [0], [0]

    def counting(x):
        calls[0] += 1
        panels[0] += len(x) // len(quadrature._NODES)
        return f(x)

    integrate_adaptive(counting, a, b, rel_tol=1e-10, abs_tol=1e-14,
                       breakpoints=breakpoints)
    initial = quadrature._INITIAL_PANELS * (1 + len(breakpoints))
    splits = (panels[0] - initial) // 2
    assert splits > 0
    assert calls[0] == 1 + splits
