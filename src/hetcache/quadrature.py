"""Global-adaptive Gauss-Legendre quadrature for array-valued integrands.

One call integrates rows: row r integrates over ``[a[r], b[r]]``, and the
integrand, evaluated on whole batches of nodes at once, returns C
components per node (shape (C, n), last axis = nodes), so a single pass can
integrate a family of related integrands that share the same domain --
e.g. one coverage term per fading order. Each row integrates all C
components, and its subdivision is shared across them: a panel is refined
until every component meets its own tolerance.

One call evaluates many panels (at most ``_CALL_PANELS``): all initial
panels at once, then both halves of each split. Each panel's nodes form
one contiguous block of the call's node array. The integrand contract that
batching relies on: the value at a node must not depend on the other nodes
in the same call, so a result is the same however the nodes are batched.
The rule products of a call are one stacked product over a (panel, C,
node) view, in which each panel keeps the block, and so the BLAS call and
the bits, of one product per panel. So the rows refine in lockstep: each
row keeps its own panel heap, insertion sequence, tolerance test, budget
and final re-sum, one call of the one-argument integrand serves every
row's splits, and each row's result or error is bit for bit its own alone
(a call that raises is retried row by row).
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


# Most panels one integrand call evaluates, which bounds the memory it holds
# (a density-sweep round peaks at 0.84 MB, 1.77 MB uncapped, in equal time).
_CALL_PANELS = 48
# What one row's own work may raise without failing the other rows.
_ROW_ERRORS = (QuadratureError, ValueError)


def _unwrapped(result):
    """``result``, or raise it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def _answers(evaluate, requests):
    """``evaluate(requests)``, or where that raises a row error, each
    request's own answer or error."""
    try:
        return evaluate(requests) if requests else []
    except _ROW_ERRORS as exc:
        if len(requests) == 1:
            return [exc]
    return [answer for request in requests for answer in _answers(evaluate, [request])]


def _lockstep(steps, evaluate):
    """Run the generators ``steps`` in lockstep. Each yields a request and is
    sent its answer; one ``evaluate`` call answers the ``(row, request)``
    pairs of every unfinished generator. Returns what each generator
    returns, or the row error it or its answer raised: a row that fails
    ends no other row.
    """
    results = [None] * len(steps)
    answers = [(r, None) for r in range(len(steps))]
    while answers:
        pending = []
        for r, answer in answers:
            try:
                pending.append((r, steps[r].send(_unwrapped(answer))))
            except StopIteration as stop:
                results[r] = stop.value
            except _ROW_ERRORS as exc:
                results[r] = exc
        answers = list(zip([r for r, _ in pending], _answers(evaluate, pending)))
    return results


def _panels(f, requests):
    """For each ``(row, edges)`` request, ``(value, error)`` of each panel
    between consecutive edges, from one integrand call ``f((rows, nodes))``
    per ``_CALL_PANELS`` panels."""
    runs, panels = [[]], 0  # runs of at most _CALL_PANELS panels, or of one request
    for request in requests:
        panels += len(request[1]) - 1
        if runs[-1] and panels > _CALL_PANELS:
            runs.append([])
            panels = len(request[1]) - 1
        runs[-1].append(request)
    if len(runs) > 1:
        return [out for run in runs for out in _panels(f, run)]
    edges = [np.asarray(e, dtype=np.float64) for _, e in requests]
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _NODES).reshape(-1)
    counts = [len(e) - 1 for e in edges]
    rows = np.repeat([r for r, _ in requests], np.multiply(counts, _N_NODES))
    values = np.asarray(f((rows, nodes)), dtype=np.float64)
    # A (panel, C, node) view: each panel's block has the width and strides
    # of its slice of values, not a copy.
    blocks = values.reshape(len(values), len(half), _N_NODES).swapaxes(0, 1)
    q_hi = half[:, None] * (blocks[..., :_N_HI] @ _HI_WEIGHTS)
    q_lo = half[:, None] * (blocks[..., _N_HI:] @ _LO_WEIGHTS)
    errors = np.abs(q_hi - q_lo)
    starts = np.cumsum([0, *counts]).tolist()
    return [list(zip(q_hi[k:k + n], errors[k:k + n])) for k, n in zip(starts, counts)]


def integrate_adaptive(f, a, b, *, rel_tol: float = 1e-6, abs_tol: float = 1e-10,
                       breakpoints=(), max_panels: int = 4000):
    """Integrate each row r of ``f`` over ``[a[r], b[r]]`` with a
    global-adaptive panel scheme, all rows in lockstep.

    ``f`` maps the pair ``(rows, nodes)``, each node's row and the nodes
    (both of shape (n,)), to values of shape (C, n); each row integrates
    every one of the C components independently. Row r's integrand must be
    smooth between ``breakpoints[r]``: pass every known kink or narrow
    feature there so no panel straddles it. Each interval starts from
    ``_INITIAL_PANELS`` equal panels. The tolerances and ``max_panels``
    are shared or given one per row.

    Returns each row's ``(values, error_estimates)``, of shape (C,), or the
    error it raises alone: a ValueError for bad bounds or tolerances, a
    QuadratureError when ``max(abs_tol, rel_tol * |value|)`` cannot be met
    for every component within ``max_panels`` refinements (it carries the
    achieved error estimate), or either one the integrand raises.
    """
    n = len(a)

    def per_row(value):
        return value if np.ndim(value) else [value] * n

    return _lockstep([_refine(*spec) for spec in zip(
        a, b, per_row(rel_tol), per_row(abs_tol), breakpoints or [()] * n,
        per_row(max_panels))], lambda requests: _panels(f, requests))


def _refine(a, b, rel_tol, abs_tol, breakpoints, max_panels):
    """One integral's refinement: yields the edges of the panels it needs,
    is sent their ``(value, error)`` pairs, and returns its result."""
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds a and b must be finite")
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    if b == a:
        [(probe, _)] = yield (a, a + 1.0)
        return np.zeros_like(probe), np.zeros_like(probe)

    marks = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(marks[:-1], marks[1:]):
        edges.extend(np.linspace(lo, hi, _INITIAL_PANELS + 1)[:-1])
    edges.append(marks[-1])

    initial = yield edges
    # (-max_error, insertion_seq, lo, hi, value, error); seq breaks ties
    heap = [(-float(e.max()), seq, lo, hi, q, e)
            for seq, (lo, hi, (q, e)) in enumerate(zip(edges[:-1], edges[1:], initial))]
    heapq.heapify(heap)
    seq = len(heap)

    total_q = np.sum(np.stack([q for q, _ in initial]), axis=0)
    total_e = np.sum(np.stack([e for _, e in initial]), axis=0)

    while not (total_e <= np.maximum(abs_tol, rel_tol * np.abs(total_q))).all():
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
        halves = zip((lo, mid), (mid, hi), (yield (lo, mid, hi)))
        for c_lo, c_hi, (cq, ce) in halves:
            heapq.heappush(heap, (-float(ce.max()), seq, c_lo, c_hi, cq, ce))
            seq += 1
            total_q = total_q + cq
            total_e = total_e + ce

    # Re-sum in interval order so the result does not depend on refinement
    # bookkeeping (bit-identical across runs).
    ordered = sorted(heap, key=lambda p: p[2])
    values = np.sum(np.stack([p[4] for p in ordered]), axis=0)
    errors = np.sum(np.stack([p[5] for p in ordered]), axis=0)
    return values, errors
