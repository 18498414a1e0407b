"""Global-adaptive Gauss-Legendre quadrature for array-valued integrands.

The integrand is evaluated on whole batches of nodes at once (last axis =
nodes), so a single pass can integrate a family of related integrands that
share the same domain -- e.g. one interference exponent per fading term.
The subdivision is shared across components: a panel is refined until every
component meets its own tolerance.
"""
from __future__ import annotations

import heapq

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureError", "integrate_adaptive"]


class QuadratureError(RuntimeError):
    """Quadrature could not meet its tolerance within the panel budget.

    Carries ``error_estimate``, the achieved per-component error bound.
    """

    def __init__(self, message: str, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


# Embedded pair: order-15 rule gives the value, |Q15 - Q7| the error estimate.
_LO_NODES, _LO_WEIGHTS = leggauss(7)
_HI_NODES, _HI_WEIGHTS = leggauss(15)
# Both rules' nodes in one array, so a panel calls the integrand once.
_NODES = np.concatenate((_HI_NODES, _LO_NODES))
_N_HI = len(_HI_NODES)
# Equal panels each interval starts from, a guard against features the
# first error estimate would miss.
_INITIAL_PANELS = 4


def _panel(f, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    values = np.asarray(f(mid + half * _NODES), dtype=np.float64)
    q_hi = half * (values[..., :_N_HI] @ _HI_WEIGHTS)
    q_lo = half * (values[..., _N_HI:] @ _LO_WEIGHTS)
    return q_hi, np.abs(q_hi - q_lo)


def integrate_adaptive(f, a: float, b: float, *, rel_tol: float = 1e-6,
                       abs_tol: float = 1e-10, breakpoints=(), max_panels: int = 4000):
    """Integrate ``f`` over ``[a, b]`` with a global-adaptive panel scheme.

    ``f`` maps a node array of shape (n,) to values of shape (..., n); each
    leading component is integrated independently. The integrand must be
    smooth between ``breakpoints``: pass every known kink or narrow feature
    there so no panel straddles it. Each interval starts from
    ``_INITIAL_PANELS`` equal panels. Returns ``(values, error_estimates)``
    of shape (...,).

    Raises QuadratureError when ``max(abs_tol, rel_tol * |value|)`` cannot be
    met for every component within ``max_panels`` refinements; the exception
    carries the achieved error estimate.
    """
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        probe, _ = _panel(f, a, a + 1.0)
        return np.zeros_like(probe), np.zeros_like(probe)

    marks = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(marks[:-1], marks[1:]):
        edges.extend(np.linspace(lo, hi, _INITIAL_PANELS + 1)[:-1])
    edges.append(marks[-1])

    panels = {}  # id -> (lo, hi, value, error)
    heap = []  # (-max_error, insertion_seq, id)
    seq = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        q, e = _panel(f, lo, hi)
        panels[seq] = (lo, hi, q, e)
        heapq.heappush(heap, (-float(np.max(e)), seq, seq))
        seq += 1

    total_q = np.sum(np.stack([p[2] for p in panels.values()]), axis=0)
    total_e = np.sum(np.stack([p[3] for p in panels.values()]), axis=0)

    while not np.all(total_e <= np.maximum(abs_tol, rel_tol * np.abs(total_q))):
        if len(panels) >= max_panels:
            raise QuadratureError(
                f"no convergence within {max_panels} panels",
                error_estimate=total_e,
            )
        _, _, worst = heapq.heappop(heap)
        lo, hi, q, e = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # width at rounding limit; cannot refine
            raise QuadratureError(
                "panel width underflow before reaching tolerance",
                error_estimate=total_e,
            )
        total_q = total_q - q
        total_e = total_e - e
        for c_lo, c_hi in ((lo, mid), (mid, hi)):
            cq, ce = _panel(f, c_lo, c_hi)
            panels[seq] = (c_lo, c_hi, cq, ce)
            heapq.heappush(heap, (-float(np.max(ce)), seq, seq))
            seq += 1
            total_q = total_q + cq
            total_e = total_e + ce

    # Re-sum in interval order so the result does not depend on refinement
    # bookkeeping (bit-identical across runs).
    ordered = sorted(panels.values(), key=lambda p: p[0])
    values = np.sum(np.stack([p[2] for p in ordered]), axis=0)
    errors = np.sum(np.stack([p[3] for p in ordered]), axis=0)
    return values, errors
