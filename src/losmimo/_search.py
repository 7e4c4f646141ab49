"""Row-wise golden-section maximization for the rotation optimizers."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, tol: float, depth: int = 1):
    """Golden-section maximization of a unimodal function per row i on [a[i], b[i]].

    ``f(x, rows, errors)`` gives each x[j]'s value under row rows[j]'s function, each as if
    alone.  A step only asks which side won, so one call per ``depth`` L steps takes every
    probe the rows still searching may take: the first call every row's opening pair and the
    probes of its next L - 1 steps, each later call the probes of the next L steps.  A probe's
    error, kept in ``errors`` under its index, raises when a step takes it (the first failing
    opening probe, in the order c of every row then d of every row, at once), so bits and
    errors are the same at any depth.  Returns arrays (x, f(x)) of the best point per row;
    callers bracket the maximum with a coarse grid, which also guards against mild
    multimodality.
    """
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    top, errors = np.arange(a.size), {}
    # heap-ordered below a root that holds no probe: node i sits at row i + 1, after c and d
    probes = np.concatenate([c[None], d[None]] + _probe_levels(a, b, c, d, depth - 1, tol))
    values, offset = f(probes.ravel(), np.tile(top, len(probes)), errors), 1
    if failed := [i for i in errors if i < 2 * a.size]:
        raise errors[min(failed)]
    fc, fd = values[:a.size].copy(), values[a.size:2 * a.size].copy()
    best_x, best_f = np.where(fc >= fd, c, d), np.maximum(fc, fd)
    live, node = np.flatnonzero(b - a > tol), np.zeros(a.size, int)
    while live.size:
        left = fc[live] > fd[live]  # the maximum lies in [a, d]: drop (d, b]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _INV_PHI * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _INV_PHI * (b[hi] - a[hi])
        x = np.where(left, c[live], d[live])
        node[live] = 2 * node[live] + 1 + ~left  # each row's probe: 2i + 1 is i's left child
        if node[live[0]] + offset >= len(probes):  # past the last level: the next probes, at once
            top, errors, offset = live, {}, 0
            probes = np.concatenate([x[None]] + _probe_levels(
                a[live], b[live], c[live], d[live], depth - 1, tol))
            values, node[live] = f(probes.ravel(), np.tile(live, len(probes)), errors), 0
        at = (node[live] + offset) * top.size + np.searchsorted(top, live)
        if errors and (failed := [errors[i] for i in at.tolist() if i in errors]):
            raise failed[0]
        fx = values[at]
        fc[lo], fd[hi] = fx[left], fx[~left]
        better = fx > best_f[live]
        best_x[live[better]], best_f[live[better]] = x[better], fx[better]
        live = live[b[live] - a[live] > tol]
    return best_x, best_f


def _probe_levels(a, b, c, d, count: int, tol: float) -> list:
    """Heap-ordered probes (2**k, rows) that the k-th next step of rows in states (a, b, c, d)
    may take, for k = 1 to ``count`` (no level past every row's last step)."""
    a, b, c, d, levels = a[None], b[None], c[None], d[None], []
    while len(levels) < count and (b - a > tol).any():
        c_left, d_right = d - _INV_PHI * (d - a), c + _INV_PHI * (b - c)
        a, b, c, d, x = (np.stack(pair, 1).reshape(-1, a.shape[1]) for pair in
                         ((a, c), (d, b), (c_left, d), (c, d_right), (c_left, d_right)))
        levels.append(x)
    return levels
