"""Global-adaptive Gauss-Legendre quadrature for array-valued integrands.

The integrand is evaluated on whole batches of nodes at once (last axis =
nodes), so a single pass can integrate a family of related integrands that
share the same domain -- e.g. one interference exponent per fading term.
The subdivision is shared across components: a panel is refined until every
component meets its own tolerance.

One call evaluates many panels: all initial panels at once, then both
halves of each split. Each panel's nodes form one contiguous block of the
call's node array. The integrand contract that batching relies on: the
value at a node must not depend on the other nodes in the same call, so a
result is the same however the nodes are batched.
"""
from __future__ import annotations

import heapq
import math

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
# Both rules' nodes in one array: a panel is one block of the integrand call.
_NODES = np.concatenate((_HI_NODES, _LO_NODES))
_N_NODES = len(_NODES)
_N_HI = len(_HI_NODES)
# Equal panels each interval starts from, a guard against features the
# first error estimate would miss.
_INITIAL_PANELS = 4


def _panels(f, edges):
    """``(value, error)`` of each panel between consecutive ``edges``, from one
    integrand call; each panel's rule products run on its own node block."""
    edges = np.asarray(edges, dtype=np.float64)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES).reshape(-1)
    values = np.asarray(f(nodes), dtype=np.float64)
    out = []
    for k, h in enumerate(half.tolist()):
        block = values[..., k * _N_NODES:(k + 1) * _N_NODES]
        q_hi = h * (block[..., :_N_HI] @ _HI_WEIGHTS)
        q_lo = h * (block[..., _N_HI:] @ _LO_WEIGHTS)
        out.append((q_hi, np.abs(q_hi - q_lo)))
    return out


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
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds a and b must be finite")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        [(probe, _)] = _panels(f, (a, a + 1.0))
        return np.zeros_like(probe), np.zeros_like(probe)

    marks = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(marks[:-1], marks[1:]):
        edges.extend(np.linspace(lo, hi, _INITIAL_PANELS + 1)[:-1])
    edges.append(marks[-1])

    initial = _panels(f, edges)
    # (-max_error, insertion_seq, lo, hi, value, error); seq breaks ties
    heap = [(-float(np.max(e)), seq, lo, hi, q, e)
            for seq, (lo, hi, (q, e)) in enumerate(zip(edges[:-1], edges[1:], initial))]
    heapq.heapify(heap)
    seq = len(heap)

    total_q = np.sum(np.stack([q for q, _ in initial]), axis=0)
    total_e = np.sum(np.stack([e for _, e in initial]), axis=0)

    while not np.all(total_e <= np.maximum(abs_tol, rel_tol * np.abs(total_q))):
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"no convergence within {max_panels} panels",
                error_estimate=total_e,
            )
        _, _, lo, hi, q, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # width at rounding limit; cannot refine
            raise QuadratureError(
                "panel width underflow before reaching tolerance",
                error_estimate=total_e,
            )
        total_q = total_q - q
        total_e = total_e - e
        halves = zip((lo, mid), (mid, hi), _panels(f, (lo, mid, hi)))
        for c_lo, c_hi, (cq, ce) in halves:
            heapq.heappush(heap, (-float(np.max(ce)), seq, c_lo, c_hi, cq, ce))
            seq += 1
            total_q = total_q + cq
            total_e = total_e + ce

    # Re-sum in interval order so the result does not depend on refinement
    # bookkeeping (bit-identical across runs).
    ordered = sorted(heap, key=lambda p: p[2])
    values = np.sum(np.stack([p[4] for p in ordered]), axis=0)
    errors = np.sum(np.stack([p[5] for p in ordered]), axis=0)
    return values, errors
