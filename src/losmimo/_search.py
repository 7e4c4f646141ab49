"""Scalar maximization helper of the rotation optimizers."""

from __future__ import annotations

import math


def golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximization of a unimodal f on [a, b].

    Returns (x, f(x)) for the best point seen; callers bracket the maximum
    with a coarse grid first, which also guards against mild multimodality.
    """
    if b < a:
        a, b = b, a
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f
