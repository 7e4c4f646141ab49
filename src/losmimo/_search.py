"""Row-wise golden-section maximization for the rotation optimizers."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, tol: float, depth: int = 1):
    """Golden-section maximization of a unimodal function per row i on [a[i], b[i]].

    ``f(x, rows)`` gives each x[j]'s value under row rows[j]'s function, each as if alone.
    One call opens every search; then, as a step only asks which side won, one call
    ``f(x, rows, errors)`` per ``depth`` L steps takes every probe the rows still searching may
    take.  A probe's error, kept in ``errors`` under its index, raises when a step takes it,
    so bits and errors are the same at any depth.  Returns arrays (x, f(x)) of the best point
    per row; callers bracket the maximum with a coarse grid, which also guards against mild
    multimodality.
    """
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d]), np.tile(np.arange(a.size), 2)), 2)
    best_x, best_f = np.where(fc >= fd, c, d), np.maximum(fc, fd)
    live, node, probes = np.flatnonzero(b - a > tol), np.zeros(a.size, int), ()
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]: drop (d, b]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _INV_PHI * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _INV_PHI * (b[hi] - a[hi])
        x = np.where(left, c[live], d[live])
        node[live] = 2 * node[live] + 1 + ~left  # each row's probe: 2i + 1 is i's left child
        if node[live[0]] >= len(probes):  # past the last level: the next probes, at once
            top, errors, probes = live, {}, _probe_tree(a, b, c, d, live, x, depth, tol)
            values, node[live] = f(probes.ravel(), np.tile(live, len(probes)), errors), 0
        at = node[live] * top.size + np.searchsorted(top, live)
        if errors and (failed := [errors[i] for i in at.tolist() if i in errors]):
            raise failed[0]
        fx = values[at]
        fc[lo], fd[hi] = fx[left], fx[~left]
        better = fx > best_f[live]
        best_x[live[better]], best_f[live[better]] = x[better], fx[better]
        live = live[b[live] - a[live] > tol]
    return best_x, best_f


def _probe_tree(a, b, c, d, live, x, depth: int, tol: float) -> np.ndarray:
    """Heap-ordered probes (2**k - 1, rows) of the next k <= depth steps of the live rows."""
    a, b, c, d, probes = a[live][None], b[live][None], c[live][None], d[live][None], [x[None]]
    while len(probes) < depth and (b - a > tol).any():  # no level past every row's last step
        c_left, d_right = d - _INV_PHI * (d - a), c + _INV_PHI * (b - c)
        a, b, c, d, x = (np.stack(pair, 1).reshape(-1, live.size) for pair in
                         ((a, c), (d, b), (c_left, d), (c, d_right), (c_left, d_right)))
        probes.append(x)
    return np.concatenate(probes)
