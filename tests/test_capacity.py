import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losmimo import (
    ChannelMatrix,
    GainSpectrum,
    InvalidArgumentError,
    NoSignalError,
    WavefrontModel,
    build_ula,
    capacity_upper_bound,
    capacity_upper_bound_integer,
    channel_matrix,
    gain_spectrum,
    link_scene,
    polarized_rate,
    rate_report,
    uniform_rate,
    waterfilling,
)
from losmimo import capacity
from losmimo.capacity import _bound, _check_rows


def _spec(gains, n=None):
    gains = np.asarray(gains, dtype=float)
    n = n or gains.size
    return GainSpectrum(gains, n, n)


def test_gain_spectrum_of_dft_matrix():
    h = ChannelMatrix(
        np.array([[1, 1], [1, -1]], dtype=complex), 1e-3, WavefrontModel.SPHERICAL
    )
    gs = gain_spectrum(h)
    np.testing.assert_allclose(gs.gains, [2.0, 2.0], rtol=1e-12)
    assert gs.frobenius_total == pytest.approx(4.0)


def test_gain_spectrum_validation():
    with pytest.raises(InvalidArgumentError):
        GainSpectrum(np.array([1.0, 2.0]), 2, 2)  # ascending
    with pytest.raises(InvalidArgumentError):
        GainSpectrum(np.array([2.0, -1.0]), 2, 2)  # negative
    with pytest.raises(InvalidArgumentError):
        GainSpectrum(np.array([2.0, 1.0, 0.5]), 2, 3)  # longer than n_min
    with pytest.raises(InvalidArgumentError):
        GainSpectrum(np.array([2.0, 1.0]), 0, 2)


def test_waterfilling_two_gain_oracle():
    # gains (4, 1) at snr 1: mu = (1 + 1/4 + 1)/2, p = (7/8, 1/8),
    # SE = log2(1 + 7/2) + log2(1 + 1/8) = log2(81/16)
    fractions, se = waterfilling(_spec([4.0, 1.0]), 1.0)
    np.testing.assert_allclose(fractions, [0.875, 0.125], atol=1e-15)
    assert se == pytest.approx(math.log2(81 / 16), abs=1e-12)


def test_waterfilling_drops_weak_mode_at_low_snr():
    # at snr 0.1 the weak mode would get negative power, so k drops to 1
    fractions, se = waterfilling(_spec([4.0, 1.0]), 0.1)
    np.testing.assert_allclose(fractions, [1.0, 0.0], atol=1e-15)
    assert se == pytest.approx(math.log2(1.4), abs=1e-12)


def test_waterfilling_equal_gains_is_uniform():
    spec = _spec([3.0, 3.0, 3.0])
    fractions, se = waterfilling(spec, 2.0)
    np.testing.assert_allclose(fractions, 1 / 3, atol=1e-15)
    assert se == pytest.approx(uniform_rate(spec, 2.0, 3), abs=1e-12)


def test_waterfilling_ignores_numerical_noise_gains():
    fractions, se = waterfilling(_spec([4.0, 4e-13]), 100.0)
    np.testing.assert_allclose(fractions, [1.0, 0.0], atol=1e-15)


def test_waterfilling_zero_spectrum_raises():
    with pytest.raises(NoSignalError):
        waterfilling(_spec([0.0, 0.0]), 1.0)
    with pytest.raises(InvalidArgumentError):
        waterfilling(_spec([1.0]), 0.0)


def test_waterfilling_at_minus_200_db_puts_all_power_on_rank_one():
    # the water level rounds away even for one mode; 0/0 used to give NaN
    h = channel_matrix(
        link_scene(build_ula(4, 0.035), build_ula(4, 0.035), 5.0, 1e-3),
        WavefrontModel.SPHERICAL,
    )
    fractions, se = waterfilling(gain_spectrum(h), 1e-20)
    assert fractions.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert math.isfinite(se) and se > 0.0
    assert se <= capacity_upper_bound(4, 4, 1e-20)


def test_capacity_upper_bound_is_the_polarized_rate_at_the_peak_rank():
    x_star = 3.921553634567504
    assert math.log1p(x_star) == pytest.approx(2 * x_star / (1 + x_star), rel=1e-15)
    for n_t, n_r, snr in ((8, 8, 1.0), (16, 4, 0.3), (64, 64, 0.05)):
        rank = math.sqrt(snr * n_t * n_r / x_star)
        assert 1.0 < rank < min(n_t, n_r)
        assert capacity_upper_bound(n_t, n_r, snr) == polarized_rate(n_t, n_r, rank, snr)
    # the peak rank is clipped to [1, n_min]
    assert capacity_upper_bound(4, 4, 1e-3) == polarized_rate(4, 4, 1, 1e-3)
    assert capacity_upper_bound(4, 4, 1e3) == polarized_rate(4, 4, 4, 1e3)


def test_waterfilling_dominates_uniform_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        g = np.sort(rng.uniform(0.01, 5.0, n))[::-1]
        spec = _spec(g)
        snr = float(rng.uniform(0.05, 50.0))
        _, se = waterfilling(spec, snr)
        for rank in range(1, n + 1):
            assert se >= uniform_rate(spec, snr, rank) - 1e-12


def test_uniform_rate_validation():
    spec = _spec([2.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        uniform_rate(spec, 1.0, 0)
    with pytest.raises(InvalidArgumentError):
        uniform_rate(spec, 1.0, 3)


def test_polarized_rate_closed_form():
    for snr in (0.1, 1.0, 10.0):
        assert polarized_rate(4, 4, 1, snr) == pytest.approx(
            math.log2(1 + snr * 16), abs=1e-12
        )
        assert polarized_rate(4, 4, 2, snr) == pytest.approx(
            2 * math.log2(1 + snr * 4), abs=1e-12
        )
    # real-valued rank is allowed (continuous relaxation)
    assert polarized_rate(4, 4, 1.5, 1.0) == pytest.approx(
        1.5 * math.log2(1 + 16 / 1.5**2), abs=1e-12
    )
    with pytest.raises(InvalidArgumentError):
        polarized_rate(4, 4, 0.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        polarized_rate(4, 4, 5, 1.0)


def test_polarized_crossovers_at_three_db():
    # r=1 and r=2 tie exactly at snr 1/2; r=2 and r=4 tie exactly at snr 2
    assert polarized_rate(4, 4, 1, 0.5) == pytest.approx(
        polarized_rate(4, 4, 2, 0.5), abs=1e-12
    )
    assert polarized_rate(4, 4, 2, 2.0) == pytest.approx(
        polarized_rate(4, 4, 4, 2.0), abs=1e-12
    )


def test_integer_bound_prefers_smaller_rank_on_ties():
    # N=2 ranks 1 and 2 tie exactly at snr 2; the smaller rank is reported
    r, value = capacity_upper_bound_integer(2, 2, 2.0)
    assert r == 1
    assert value == pytest.approx(math.log2(9), abs=1e-12)
    # N=4 at the same snr: the intermediate rank 3 wins outright
    r, value = capacity_upper_bound_integer(4, 4, 2.0)
    assert r == 3
    assert value == pytest.approx(3 * math.log2(1 + 32 / 9), abs=1e-12)


def _integer_bound_by_search(n_t, n_r, snr):
    """Every rank in turn; the first of equal rates is kept."""
    best_r, best_v = 1, polarized_rate(n_t, n_r, 1, snr)
    for r in range(2, min(n_t, n_r) + 1):
        v = polarized_rate(n_t, n_r, r, snr)
        if v > best_v:
            best_r, best_v = r, v
    return best_r, best_v


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.integers(1, 4096),
    n_r=st.integers(1, 4096),
    snr_exponent=st.floats(-300.0, 300.0),
)
@example(n_t=2, n_r=2, snr_exponent=math.log10(2.0))  # ranks 1 and 2 tie
@example(n_t=4, n_r=4, snr_exponent=math.log10(0.5))  # ranks 1 and 2 tie
@example(n_t=4096, n_r=4096, snr_exponent=300.0)
def test_integer_bound_closed_form_matches_the_search_over_every_rank(n_t, n_r, snr_exponent):
    snr = 10.0**snr_exponent
    assert capacity_upper_bound_integer(n_t, n_r, snr) == _integer_bound_by_search(n_t, n_r, snr)


def test_capacity_upper_bound_known_values():
    # at high snr the continuous optimum saturates at full rank
    assert capacity_upper_bound(64, 64, 10.0) == pytest.approx(
        64 * math.log2(11), rel=1e-12
    )
    assert capacity_upper_bound(1, 1, 3.0) == pytest.approx(2.0, abs=1e-12)
    # n_min = 1: the only mode carries everything
    assert capacity_upper_bound(1, 8, 1.0) == pytest.approx(math.log2(9), abs=1e-12)


def test_capacity_upper_bound_dominates_integer_envelope():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_t = int(rng.integers(1, 9))
        n_r = int(rng.integers(1, 9))
        snr = float(10 ** rng.uniform(-2, 2))
        ub = capacity_upper_bound(n_t, n_r, snr)
        _, best_int = capacity_upper_bound_integer(n_t, n_r, snr)
        assert ub >= best_int - 1e-12
        # and it never exceeds the best integer value by more than the
        # continuous relaxation can honestly buy
        n_min = min(n_t, n_r)
        grid_best = max(
            polarized_rate(n_t, n_r, r, snr)
            for r in np.linspace(1, n_min, 257)
        )
        assert ub >= grid_best - 1e-9


def test_waterfilling_attains_bound_on_polarized_spectrum():
    # perfectly polarized rank-2 spectrum of a 4x4 channel at its best snr
    spec = _spec([8.0, 8.0, 0.0, 0.0], n=4)
    for snr in (0.5, 1.0, 2.0):
        _, se = waterfilling(spec, snr)
        assert se <= capacity_upper_bound(4, 4, snr) + 1e-12


def test_power_allocation_validation():
    with pytest.raises(InvalidArgumentError):
        _check_rows(np.array([[0.7, 0.2]]))
    with pytest.raises(InvalidArgumentError):
        _check_rows(np.array([[1.2, -0.2]]))


_NOT_FINITE_1D = "fractions must be a finite 1-D array"
_OUT_OF_RANGE = "fractions must lie in [0, 1]"
_OFF_SUM = "fractions must sum to 1 within 1e-12"


@pytest.mark.parametrize("fractions, message", [
    ([0.5, math.nan, 0.5], _NOT_FINITE_1D),
    ([-1.0, math.nan], _NOT_FINITE_1D),  # the first failing check names the error
    ([math.inf, 0.0], _NOT_FINITE_1D),
    ([0.5, -math.inf], _NOT_FINITE_1D),
    ([1.25, -0.25], _OUT_OF_RANGE),
    ([-0.5, 0.25], _OUT_OF_RANGE),
    ([1.0 + 1e-11], _OUT_OF_RANGE),
    ([1.5, 0.0], _OUT_OF_RANGE),
    ([], _OFF_SUM),
    ([0.5, 0.5 + 1e-11], _OFF_SUM),
    ([0.5, 0.5 - 1e-11], _OFF_SUM),
])
def test_power_allocation_names_the_first_failing_check(fractions, message):
    with pytest.raises(InvalidArgumentError) as err:
        _check_rows(np.array(fractions, dtype=float)[None])
    assert (type(err.value), str(err.value)) == (InvalidArgumentError, message)


def test_power_allocation_keeps_a_split_within_1e_12_of_one():
    _check_rows(np.array([[0.5, 0.5 + 1e-13, 0.0], [0.0, 1.0, 0.0]]))


def test_waterfilling_checks_its_row(monkeypatch):
    off = np.array([[0.5, 0.5 + 1e-11]])
    monkeypatch.setattr(capacity, "_waterfill", lambda g, snrs: (off, np.array([1.0])))
    with pytest.raises(InvalidArgumentError) as err:
        waterfilling(_spec([4.0, 1.0]), 1.0)
    assert (type(err.value), str(err.value)) == (InvalidArgumentError, _OFF_SUM)


def test_rate_report_from_channel():
    h = ChannelMatrix(
        np.array([[1, 1], [1, -1]], dtype=complex), 1e-3, WavefrontModel.SPHERICAL
    )
    rates = rate_report(h, 3.0)
    # two equal gains of 2: uniform split, se = 2 log2(1 + 3)
    assert rates.snrs.tolist() == [3.0]
    assert rates.ses[0] == pytest.approx(4.0, abs=1e-12)
    assert rates.ranks.tolist() == [2]
    assert rates.ubs[0] >= rates.ses[0]
    assert rates.fractions.shape == (1, 2)
    np.testing.assert_allclose(rates.fractions[0], 0.5, atol=1e-15)


_SIZES = [1, 4, 8, 64, 256]


@settings(max_examples=60, deadline=None)
@given(
    n_t=st.sampled_from(_SIZES),
    n_r=st.sampled_from(_SIZES),
    snr_db=st.lists(st.floats(-200.0, 300.0), min_size=1, max_size=64),
)
@example(n_t=1, n_r=256, snr_db=[-200.0, -5.934, 0.0, 300.0])
@example(n_t=256, n_r=4, snr_db=[-200.0, 5.934, 24.0, 300.0])
def test_the_array_bound_of_the_reports_is_the_scalar_bound_bit_for_bit(n_t, n_r, snr_db):
    snrs = np.array([10.0 ** (s / 10.0) for s in snr_db])
    got = _bound(n_t, n_r, snrs).tolist()
    assert got == [capacity_upper_bound(n_t, n_r, snr) for snr in snrs.tolist()]


def test_capacity_upper_bound_rejects_an_overflowing_array_gain():
    # snr * n_t * n_r is inf here: the bound used to come back as inf
    snr = 10.0 ** 307.9
    with pytest.raises(InvalidArgumentError, match="overflows"):
        capacity_upper_bound(4, 4, snr)
    assert math.isfinite(capacity_upper_bound(1, 1, snr))
    h = channel_matrix(
        link_scene(build_ula(4, 0.035), build_ula(4, 0.035), 5.0, 1e-3),
        WavefrontModel.SPHERICAL,
    )
    with pytest.raises(InvalidArgumentError, match="overflows"):
        rate_report(h, snr)


def test_polarized_rate_rejects_an_overflowing_array_gain():
    # snr * n_t * n_r is inf here: the rate used to come back as inf
    with pytest.raises(InvalidArgumentError, match="overflows"):
        polarized_rate(4, 4, 1, 1e308)
    assert math.isfinite(polarized_rate(1, 1, 1, 1e308))


def test_integer_bound_rejects_an_overflowing_array_gain():
    # this used to return (1, inf)
    with pytest.raises(InvalidArgumentError, match="overflows"):
        capacity_upper_bound_integer(4, 4, 1e308)
    assert math.isfinite(capacity_upper_bound_integer(1, 1, 1e308)[1])


def test_rate_table_waterfills_blocks_of_rows_each_as_if_alone(monkeypatch):
    # 2 blocks + 1 row of 4 modes (a few of rank 2, each summing to n_t * n_r as a 4 x 4
    # channel's do), and the empty table
    n = 4
    step = capacity._STACK_ENTRIES // n
    rng = np.random.default_rng(2024)
    gains = -np.sort(-rng.exponential(size=(2 * step + 1, n)) ** 3, axis=1)
    gains[::7, 2:] = 0.0
    gains *= n * n / gains.sum(axis=1, keepdims=True)
    snrs = 10.0 ** rng.uniform(-4.0, 4.0, len(gains))
    waterfill, calls = capacity._waterfill, []
    alone = [waterfill(g[None], s[None]) for g, s in zip(gains, snrs)]
    monkeypatch.setattr(capacity, "_waterfill",
                        lambda g, s: calls.append(len(g)) or waterfill(g, s))
    t = capacity._rate_table(gains, n, n, snrs)
    assert calls == [step, step, 1]
    assert t.fractions.tobytes() == np.concatenate([f for f, _ in alone]).tobytes()
    assert t.ses.tobytes() == np.concatenate([se for _, se in alone]).tobytes()
    assert t.ranks.tolist() == [int((f > 0).sum()) for f, _ in alone]
    # one spectrum at every SNR (as `capacity` writes it): the same blocks
    calls.clear()
    one = capacity._rate_table(gains[0], n, n, snrs)
    assert calls == [step, step, 1]
    assert one.ses.tobytes() == np.concatenate(
        [waterfill(gains[:1], s[None])[1] for s in snrs]).tobytes()
    calls.clear()
    empty = capacity._rate_table(gains[:0], n, n, snrs[:0])
    assert calls == [0]
    assert empty.fractions.shape == (0, n)
    assert empty.ses.shape == empty.ubs.shape == empty.ranks.shape == (0,)
