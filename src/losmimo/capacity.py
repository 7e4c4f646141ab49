"""Singular-value spectra, power allocation, and capacity bounds.

SNR convention: unit noise variance per receive antenna and total transmit
power equal to ``snr_linear``, with unit-modulus channel entries.  Under
this normalization single-stream beamforming over an N_t x N_r channel
yields log2(1 + snr * N_t * N_r), and the reconfiguration crossovers of a
4x4 link land at -3.01 dB and +3.01 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .errors import InvalidArgumentError, NoSignalError
from .geometry import _array, _as_float, _count, _frozen_copy, _instance

_LN2 = math.log(2.0)
_ZERO_GAIN_RTOL = 1e-12  # gains this far below the top one count as exact zeros
# _waterfill's level test decides mode j within this much of s + k r_j (k = j + 1) of its
# breakpoint: with u = 2**-53, the level's k + 3 roundings (k - 1 additions, 1 +, / k, two per
# 1/(snr g)), 1/(snr g_j)'s two and s's and T_j's k + 4 move the test, times k s, from s - T_j
# by at most (2k + 8) u (s + k r_j) while all are normal floats: under the guard to 4,499 modes
_RANK_GUARD = 1e-12
# root of ln(1 + x) = 2x / (1 + x): r * log2(1 + a / r**2) peaks where a / r**2 = x
_POLARIZED_PEAK_X = 3.921553634567504
_STACK_ENTRIES = 1 << 14  # most channel (or gain) entries that one stacked evaluation holds


@dataclass(frozen=True, eq=False)
class GainSpectrum:
    """Squared singular values, sorted descending."""

    gains: np.ndarray = field(repr=False)
    n_t: int
    n_r: int

    def __post_init__(self):
        _count(self.n_t, "n_t"), _count(self.n_r, "n_r")
        g = _array(self.gains, "gains must be a finite 1-D array")
        if g.ndim != 1 or not np.all(np.isfinite(g)):
            raise InvalidArgumentError("gains must be a finite 1-D array")
        if np.any(g < 0):
            raise InvalidArgumentError("gains must be non-negative")
        if g.size != min(self.n_t, self.n_r):
            raise InvalidArgumentError(
                f"expected min(n_t, n_r) = {min(self.n_t, self.n_r)} gains, got {g.size}"
            )
        top = g[0] if g.size else 0.0
        if np.any(np.diff(g) > 1e-12 * max(top, 1.0)):
            raise InvalidArgumentError("gains must be sorted descending")
        object.__setattr__(self, "gains", _frozen_copy(g))


class RateTable(NamedTuple):
    """The rate result, row i at the linear SNR snrs[i]: SEs and bounds (S,), power
    fractions (S, n) and active ranks (S,).  Built and checked by :func:`_rate_table`
    (:func:`rate_report` returns one row).  As a tuple of columns, ``len(t)`` is 5 and
    iterating walks the columns; the rows number ``len(t.ses)``."""

    snrs: np.ndarray
    ses: np.ndarray
    ubs: np.ndarray
    fractions: np.ndarray
    ranks: np.ndarray


_ROW_CHECKS = ("fractions must be a finite 1-D array", "fractions must lie in [0, 1]",
               "fractions must sum to 1 within 1e-12",
               "spectral efficiency exceeds the capacity upper bound")


def _check_rows(fractions: np.ndarray, ses=None, ubs=None):
    """Raise the first failing check of the first failing row: fractions[i] (S, n) finite,
    in [0, 1] and summing to 1 within 1e-12, then ses[i] <= ubs[i] + 1e-9 (when SEs are
    given)."""
    with np.errstate(all="ignore"):
        failed = np.array([~np.isfinite(fractions).all(axis=1),
                           ((fractions < 0) | (fractions > 1)).any(axis=1),
                           abs(fractions.sum(axis=1) - 1.0) > 1e-12]
                          + ([] if ses is None else [ses > ubs + 1e-9]))
    if failed.any():
        raise InvalidArgumentError(_ROW_CHECKS[failed[:, failed.any(axis=0).argmax()].argmax()])


def _check_snr(snr_linear: float, array_gain: int = 1) -> float:
    """``snr_linear`` as a float, or raise when it is not a positive real number or its full
    array gain snr * n_t * n_r (``array_gain`` = n_t * n_r) overflows a float."""
    x = snr_linear if type(snr_linear) is float else _as_float(snr_linear)
    if not 0 < x < math.inf:  # and NaN
        raise InvalidArgumentError(f"snr_linear must be positive, got {snr_linear!r}")
    if not math.isfinite(x * array_gain):
        raise InvalidArgumentError(
            f"snr_linear {snr_linear!r} times the array gain {array_gain} overflows"
        )
    return x


def gain_spectrum(h: ChannelMatrix) -> GainSpectrum:
    """Squared singular values of the channel, descending."""
    h = _instance(h, ChannelMatrix, "h")
    return GainSpectrum(_squared_singular_values(h.entries), n_t=h.n_t, n_r=h.n_r)


def _squared_singular_values(entries: np.ndarray) -> np.ndarray:
    """Descending squared singular values of each matrix of an (..., n_r, n_t) stack."""
    s = np.linalg.svd(entries, compute_uv=False)
    return s * s


def waterfilling(spectrum: GainSpectrum, snr_linear: float):
    """KKT-optimal power split over the gains at the given SNR.

    Returns (fractions, spectral_efficiency_bpshz): the (n,) power fractions, checked as a
    rate table's row, and a float.  Water level mu satisfies p_i = max(0, mu - 1/(snr*g_i))
    with the fractions summing to one; gains more than twelve decades below the strongest
    count as zero, so noise never receives power.  Mode j is wet when snr*g_0 tops its
    breakpoint, the sum over i <= j of g_0/g_j - g_0/g_i, which the gains alone fix; within
    a relative 1e-12 of it the KKT level test decides, as a per-row loop would.  Rank 1
    takes all power, also where the SNR is so low that its water level rounds away.
    """
    g = _instance(spectrum, GainSpectrum, "spectrum").gains[None]
    fractions, se = _waterfill(g, np.array([_check_snr(snr_linear)]))
    _check_rows(fractions)
    return fractions[0], float(se[0])


def _prefix_sums(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """a[i, :lengths[i]].sum() per row i: rows of one length share a sum call."""
    sums = np.empty(len(a))
    for n in set(lengths.tolist()):
        rows = lengths == n
        sums[rows] = a[rows, :n].sum(axis=1)
    return sums


def _waterfill(g: np.ndarray, snr_linear: np.ndarray):
    """Body of :func:`waterfilling` on rows of descending gains (R, n), row i at the valid
    SNR snr_linear[i]: fractions (R, n) and SEs (R,), each row's bits as if alone."""
    if g.shape[-1] == 0 or (g[:, 0] <= 0).any():
        raise NoSignalError("all channel gains are zero")
    active = g > _ZERO_GAIN_RTOL * g[:, :1]
    n_active, counts = np.count_nonzero(active, axis=1), np.arange(1, g.shape[1] + 1)
    # mode j (from 0) is wet when the level over modes 0..j tops 1/(snr g_j): when s = snr g_0
    # tops its breakpoint T_j = (j + 1) r_j - (r_0 + ... + r_j), r_i = g_0 / g_i < 1e12 (no
    # 1/snr, so no overflow; T_0 = 0).  The rank is the last wet mode; rank 1 takes all power
    ratios = np.divide(g[:, :1], g, out=np.zeros(g.shape), where=active)
    s, scaled = snr_linear[:, None] * g[:, :1], counts * ratios
    margin = np.subtract(s, scaled - np.cumsum(ratios, axis=1), out=ratios)
    guard = np.multiply(s + scaled, _RANK_GUARD, out=scaled)
    wet, near = active & (margin > guard), active & (abs(margin) <= guard)
    wet[:, 0], near[:, 0] = True, False
    del ratios, scaled, margin, guard  # (R, n) each: a search waterfills every SNR at once
    # 1/(snr g) is inf only on dry modes (an inf level tests dry) and in rank-1 rows, set below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = np.divide(1.0, snr_linear[:, None] * g, out=np.zeros(g.shape), where=active)
        for j in np.flatnonzero(near.any(axis=0)).tolist() if near.any() else ():
            mu = (1.0 + inv[near[:, j], :j + 1].sum(axis=1)) / (j + 1)  # as the per-row loop
            wet[near[:, j], j] = (inv[near[:, j], j] < mu) & (mu < np.inf)
        k = g.shape[1] - wet[:, ::-1].argmax(axis=1)
        mu = (1.0 + _prefix_sums(inv, k)) / k
        fractions = np.where(counts <= k[:, None], mu[:, None] - inv, 0.0)
    fractions[k == 1, 0] = 1.0
    fractions /= fractions.sum(axis=1, keepdims=True)
    terms = np.log1p(snr_linear[:, None] * fractions * g)
    return fractions, _prefix_sums(terms, n_active) / _LN2


def uniform_rate(spectrum: GainSpectrum, snr_linear: float, rank: int) -> float:
    """Spectral efficiency of an even power split over the top ``rank`` modes."""
    g = _instance(spectrum, GainSpectrum, "spectrum").gains
    snr_linear = _check_snr(snr_linear)
    if _count(rank, "rank") > g.size:
        raise InvalidArgumentError(f"rank must be an integer in [1, {g.size}], got {rank!r}")
    return float(np.log1p(snr_linear * g[:rank] / rank).sum() / _LN2)


def _polarized_value(n_t, n_r, rank, snr_linear):
    # scalars, or arrays of ranks and SNRs
    return rank * np.log1p(snr_linear * n_t * n_r / (rank * rank)) / _LN2


def polarized_rate(n_t: int, n_r: int, rank, snr_linear: float) -> float:
    """Rate of an ideal rank-r spectrum: r equal gains of n_t*n_r/r each.

    Closed form r*log2(1 + snr*n_t*n_r/r**2); accepts real ranks in
    [1, min(n_t, n_r)] since the capacity bound maximizes over them.
    """
    n_t, n_r = _count(n_t, "n_t"), _count(n_r, "n_r")
    snr_linear = _check_snr(snr_linear, n_t * n_r)
    if not 1 <= _as_float(rank) <= min(n_t, n_r):
        raise InvalidArgumentError(f"rank must lie in [1, {min(n_t, n_r)}], got {rank!r}")
    return float(_polarized_value(n_t, n_r, rank, snr_linear))


def capacity_upper_bound(n_t: int, n_r: int, snr_linear: float) -> float:
    """Best polarized rate over real rank r in [1, min(n_t, n_r)].

    r * log2(1 + a / r**2) with a = snr * n_t * n_r rises while a / r**2
    exceeds the root x* of ln(1 + x) = 2x / (1 + x) and falls after, so the
    maximum sits at r* = sqrt(a / x*), clipped to [1, min(n_t, n_r)].
    Raises when a is not finite.
    """
    n_t, n_r = _count(n_t, "n_t"), _count(n_r, "n_r")
    snr_linear = _check_snr(snr_linear, n_t * n_r)
    return float(_bound(n_t, n_r, snr_linear))


def _bound(n_t: int, n_r: int, snr_linear):
    """Body of :func:`capacity_upper_bound` at checked SNR(s), one or an array of them."""
    peak = np.sqrt(snr_linear * n_t * n_r / _POLARIZED_PEAK_X)
    return _polarized_value(n_t, n_r, np.clip(peak, 1.0, min(n_t, n_r)), snr_linear)


def capacity_upper_bound_integer(n_t: int, n_r: int, snr_linear: float):
    """Best integer rank and its polarized rate (ties go to the smaller rank): the
    rate is unimodal in r, so it is the floor or ceiling of the real peak, clipped."""
    n_t, n_r = _count(n_t, "n_t"), _count(n_r, "n_r")
    snr_linear = _check_snr(snr_linear, n_t * n_r)
    peak = math.sqrt(snr_linear * n_t * n_r / _POLARIZED_PEAK_X)
    lo, hi = (min(max(f(peak), 1), n_t, n_r) for f in (math.floor, math.ceil))
    v_lo, v_hi = (float(_polarized_value(n_t, n_r, r, snr_linear)) for r in (lo, hi))
    return (hi, v_hi) if v_hi > v_lo else (lo, v_lo)


def rate_report(h: ChannelMatrix, snr_linear: float) -> RateTable:
    """The one-row rate table of one channel at one SNR: waterfilling plus the bound."""
    h = _instance(h, ChannelMatrix, "h")
    snrs = np.array([_check_snr(snr_linear, h.n_t * h.n_r)], dtype=float)
    return _rate_table(_squared_singular_values(h.entries), h.n_t, h.n_r, snrs)


def _rate_table(gains: np.ndarray, n_t: int, n_r: int, snrs: np.ndarray) -> RateTable:
    """The checked table of gains[i] (or of one (n,) row) at the checked linear SNRs snrs[i]
    (an array), waterfilled _STACK_ENTRIES gains at a time (no rows: one empty block)."""
    g = np.broadcast_to(gains, (snrs.size, gains.shape[-1]))
    step = max(1, _STACK_ENTRIES // max(1, g.shape[1]))
    fractions, ses = (np.concatenate(c) for c in zip(*(
        _waterfill(g[i:i + step], snrs[i:i + step]) for i in range(0, max(1, snrs.size), step))))
    table = RateTable(snrs, ses, _bound(n_t, n_r, snrs), fractions,
                      np.count_nonzero(fractions > 0, axis=1))
    _check_rows(fractions, ses, table.ubs)
    return table
