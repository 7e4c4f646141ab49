"""Row-wise golden-section maximization for the rotation optimizers."""

from __future__ import annotations

import math

import numpy as np


def golden_max(f, a, b, tol: float):
    """Golden-section maximization of a unimodal function per row i on [a[i], b[i]].

    ``f(x, rows)`` gives each x[j]'s value under row rows[j]'s function: one call per step
    for the rows still searching, each taking its steps alone.  Returns arrays (x, f(x)) of
    the best point per row; callers bracket the maximum with a coarse grid, which also
    guards against mild multimodality.
    """
    a, b = np.minimum(a, b), np.maximum(a, b)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d]), np.tile(np.arange(a.size), 2)), 2)
    best_x, best_f = np.where(fc >= fd, c, d), np.maximum(fc, fd)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]: drop (d, b]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - inv_phi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + inv_phi * (b[hi] - a[hi])
        x = np.where(left, c[live], d[live])
        fx = f(x, live)
        fc[lo], fd[hi] = fx[left], fx[~left]
        better = fx > best_f[live]
        best_x[live[better]], best_f[live[better]] = x[better], fx[better]
        live = live[b[live] - a[live] > tol]
    return best_x, best_f
