"""End-to-end acceptance checks.

Each test evaluates one published-results criterion, records a PASS/FAIL
line for the terminal summary, and then asserts.  The checks pin the
tolerances; they are not to be loosened to make a failing criterion green.
"""

import math

import numpy as np

from losmimo import (
    SPEED_OF_LIGHT_M_S,
    Validity,
    WavefrontModel,
    build_aosa,
    build_uca,
    build_ula,
    build_ura,
    capacity_upper_bound,
    channel_matrix,
    classify_validity,
    gain_spectrum,
    link_scene,
    optimize_rotation,
    phase_profile,
    polarized_rate,
    select_fixed_angles,
    snr_db_to_linear,
    transpose_scene,
    uniform_rate,
    waterfilling,
    aosa_schedule,
    fixed_angle_plan,
)

FRESNEL = WavefrontModel.FRESNEL
SPHERICAL = WavefrontModel.SPHERICAL
PLANAR = WavefrontModel.PLANAR


def _bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    assert flo * f(hi) < 0, "bracket must straddle the root"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def _grid(start, step, count):
    return [start + i * step for i in range(count)]


def _ula_eta_scene(eta, n=4, lam=1e-3, dist=10.0):
    d = math.sqrt(eta * lam * dist / n)
    return link_scene(build_ula(n, d), build_ula(n, d), dist, lam)


def _aosa_scene(n, r, lam, dist):
    sub = math.sqrt(lam * dist / r)
    lay = build_aosa(n, r, sub, lam / 4)
    return link_scene(lay, lay, dist, lam)


def test_criterion_1_rate_crossovers(acceptance):
    target = 10 * math.log10(2.0)

    def diff(r_a, r_b):
        return lambda sdb: polarized_rate(4, 4, r_a, snr_db_to_linear(sdb)) - (
            polarized_rate(4, 4, r_b, snr_db_to_linear(sdb))
        )

    x12 = _bisect(diff(1, 2), -6.0, 0.0)
    x24 = _bisect(diff(2, 4), 0.0, 6.0)
    err12 = abs(x12 - (-target))
    err24 = abs(x24 - target)
    closed_ok = err12 <= 1e-9 and err24 <= 1e-9

    lam, dist = 1e-3, 10.0
    grid = _grid(-5.0, 0.25, 41)
    plan = aosa_schedule(4, _aosa_scene(4, 2, lam, dist), grid, FRESNEL)
    rs = [int(d.split("=")[1]) for d in plan.descriptors]
    t12 = next(s for s, r in zip(grid, rs) if r >= 2)
    t24 = next(s for s, r in zip(grid, rs) if r == 4)
    sched_ok = abs(t12 - (-target)) <= 0.5 and abs(t24 - target) <= 0.5

    ok = closed_ok and sched_ok
    acceptance(
        1,
        ok,
        f"crossings {x12:+.10f}/{x24:+.10f} dB (err {err12:.1e}/{err24:.1e} dB); "
        f"schedule transitions {t12:+.2f}/{t24:+.2f} dB",
    )
    assert ok


def test_criterion_2_bound_tracking(acceptance):
    lam, dist, n = 1e-3, 10.0, 4
    grid = _grid(-10.0, 0.25, 81)
    spectra = [
        gain_spectrum(channel_matrix(_aosa_scene(n, r, lam, dist), FRESNEL))
        for r in (1, 2, 4)
    ]
    rot_scene = _ula_eta_scene(1.0, n=n, lam=lam, dist=dist)

    worst_aosa = 0.0
    worst_rot = 0.0
    for sdb in grid:
        snr = snr_db_to_linear(sdb)
        ub = capacity_upper_bound(n, n, snr)
        best = max(waterfilling(sp, snr)[1] for sp in spectra)
        worst_aosa = max(worst_aosa, 1.0 - best / ub)
        _, rates = optimize_rotation(rot_scene, sdb, FRESNEL)
        worst_rot = max(worst_rot, 1.0 - float(rates.ses[0]) / ub)

    aosa_ok = worst_aosa <= 0.05
    rot_ok = worst_rot <= 0.02
    ok = aosa_ok and rot_ok
    acceptance(
        2,
        ok,
        f"AOSA worst gap {worst_aosa:.3%} (limit 5%); "
        f"rotation worst gap {worst_rot:.3%} (limit 2%)",
    )
    assert ok


def test_criterion_3_large_array_architectures(acceptance):
    lam, dist, n_min, snr = 1e-3, 10.0, 64, 10.0
    etas = [0.05 * i for i in range(1, 61)]
    ub = capacity_upper_bound(n_min, n_min, snr)

    results = {}
    for name in ("ula", "ura", "uca"):
        ses, allocs = [], []
        for eta in etas:
            aperture = math.sqrt(eta * lam * dist * n_min)
            if name == "ula":
                lay = build_ula(64, aperture / 64)
            elif name == "ura":
                lay = build_ura(8, aperture / 8)
            else:
                lay = build_uca(64, aperture)
            sc = link_scene(lay, lay, dist, lam)
            spec = gain_spectrum(channel_matrix(sc, FRESNEL))
            fractions, se = waterfilling(spec, snr)
            ses.append(se)
            allocs.append((fractions, spec))
        results[name] = (np.array(ses), allocs)

    ula_gap = 1.0 - results["ula"][0].max() / ub
    a_ok = ula_gap <= 0.02

    ura_gap = 1.0 - results["ura"][0].max() / ub
    b_ok = ura_gap <= 0.02

    uca_ses, uca_allocs = results["uca"]
    strictly_below = bool(np.all(uca_ses < ub))
    i_best = int(np.argmax(uca_ses))
    fr = uca_allocs[i_best][0]
    active = fr[fr > 0]
    ratio = float(active.max() / active.min())
    c_ok = strictly_below and ratio > 1.01

    d_ok = True
    for (_, spec), se in zip(uca_allocs, uca_ses):
        if se < uniform_rate(spec, snr, spec.gains.size) - 1e-12:
            d_ok = False

    ok = a_ok and b_ok and c_ok and d_ok
    acceptance(
        3,
        ok,
        f"(a) ULA gap {ula_gap:.3%} {'PASS' if a_ok else 'FAIL'}; "
        f"(b) URA best gap {ura_gap:.3%} {'PASS' if b_ok else 'FAIL'}; "
        f"(c) UCA below bound, ratio {ratio:.2f} {'PASS' if c_ok else 'FAIL'}; "
        f"(d) waterfilling >= uniform {'PASS' if d_ok else 'FAIL'}",
    )
    assert ok


def test_criterion_4_phase_curvature(acceptance):
    freq, dist, steps, step = 300e9, 1.8, 300, 1e-3
    lam = SPEED_OF_LIGHT_M_S / freq
    start = (-(steps - 1) / 2 * step, 0.0, dist)
    prof = phase_profile((0.0, 0.0, 0.0), start, step, steps, (1.0, 0.0, 0.0), lam)
    c2_pred = -math.pi / (lam * dist)
    rel = abs(prof.quadratic_fit[2] / c2_pred - 1.0)
    ok = (
        rel <= 0.01
        and prof.r2_quadratic > 0.9999
        and prof.r2_quadratic - prof.r2_linear > 0.01
    )
    acceptance(
        4,
        ok,
        f"c2 {prof.quadratic_fit[2]:.1f} vs {c2_pred:.1f} rad/m^2 (rel {rel:.2e}); "
        f"r2q {prof.r2_quadratic:.8f}, r2q-r2l {prof.r2_quadratic - prof.r2_linear:.4f}",
    )
    assert ok


def test_criterion_5_validity_regions(acceptance):
    aperture = 0.5
    tx = build_ula(2, aperture / 2)
    freqs = [30e9, 100e9, 300e9, 1000e9]
    dists = [float(d) for d in range(1, 1001)]
    mismatches = 0
    for f in freqs:
        lam = SPEED_OF_LIGHT_M_S / f
        for d in dists:
            sc = link_scene(tx, tx, d, lam)
            got = classify_validity(sc)
            expect = (
                Validity.PLANAR_OK
                if aperture * aperture < 4 * lam * d
                else Validity.SPHERICAL_REQUIRED
            )
            mismatches += got is not expect
    ok = mismatches == 0
    acceptance(
        5,
        ok,
        f"{len(freqs) * len(dists)} grid points, {mismatches} disagreements",
    )
    assert ok


def test_criterion_6_waterfilling_matches_brute_force(acceptance):
    from losmimo import GainSpectrum

    rng = np.random.default_rng(2024)
    axis = np.arange(1001) / 1000.0
    p1g, p2g = np.meshgrid(axis, axis, indexing="ij")
    mask = (p1g + p2g) <= 1.0 + 1e-15
    p1 = p1g[mask]
    p2 = p2g[mask]
    p3 = 1.0 - p1 - p2
    ln2 = math.log(2.0)

    worst = 0.0
    for _ in range(50):
        g = np.sort(rng.uniform(0.05, 5.0, 3))[::-1]
        spec = GainSpectrum(g, 3, 3)
        for snr in (0.1, 1.0, 10.0):
            _, wf_se = waterfilling(spec, snr)
            brute = (
                np.log1p(snr * g[0] * p1)
                + np.log1p(snr * g[1] * p2)
                + np.log1p(snr * g[2] * p3)
            ).max() / ln2
            worst = max(worst, abs(wf_se - brute))
    ok = worst <= 1e-3
    acceptance(6, ok, f"worst |waterfilling - brute force| = {worst:.2e} bits")
    assert ok


def test_criterion_7_structural_invariants(acceptance):
    rng = np.random.default_rng(7)
    models = [SPHERICAL, FRESNEL, PLANAR]

    def random_scene():
        lam = float(rng.uniform(0.5e-3, 2e-3))
        dist = float(rng.uniform(3.0, 20.0))
        n = int(rng.integers(2, 7))
        kind = rng.integers(0, 4)
        if kind == 0:
            lay = build_ula(n, float(rng.uniform(0.002, 0.05)))
        elif kind == 1:
            lay = build_ura(n, float(rng.uniform(0.002, 0.05)))
        elif kind == 2:
            lay = build_uca(n, float(rng.uniform(0.01, 0.3)))
        else:
            lay = build_aosa(2 * n, n, float(rng.uniform(0.02, 0.1)), lam / 4)
        return link_scene(lay, lay, dist, lam)

    checks = {
        "unit_modulus": True,
        "frobenius": True,
        "planar_rank1": True,
        "uca_fourier": True,
        "reciprocity": True,
        "eta_invariance": True,
    }
    for i in range(20):
        sc = random_scene()
        model = models[i % 3]
        h = channel_matrix(sc, model).entries
        if np.abs(np.abs(h) - 1.0).max() > 1e-12:
            checks["unit_modulus"] = False
        total = h.shape[0] * h.shape[1]
        spec = gain_spectrum(channel_matrix(sc, model))
        if abs(spec.gains.sum() - total) > 1e-9 * total:
            checks["frobenius"] = False
        hp = channel_matrix(sc, PLANAR).entries
        s = np.linalg.svd(hp, compute_uv=False)
        if s[1] / s[0] > 1e-12:
            checks["planar_rank1"] = False
        ht = channel_matrix(transpose_scene(sc), model).entries
        if not np.array_equal(ht, h.T):
            checks["reciprocity"] = False

    for _ in range(20):
        n = int(rng.integers(3, 17))
        sc = link_scene(
            build_uca(n, float(rng.uniform(0.05, 0.4))),
            build_uca(n, float(rng.uniform(0.05, 0.4))),
            float(rng.uniform(2.0, 20.0)),
            float(rng.uniform(0.5e-3, 2e-3)),
        )
        h = channel_matrix(sc, SPHERICAL).entries
        F = np.fft.fft(np.eye(n)) / math.sqrt(n)
        g = F.conj().T @ h @ F
        off = g - np.diag(np.diag(g))
        if np.linalg.norm(off) / np.linalg.norm(g) > 1e-10:
            checks["uca_fourier"] = False

    for _ in range(20):
        n = int(rng.integers(2, 7))
        eta = float(rng.uniform(0.3, 2.0))
        gains = []
        for _ in range(2):
            lam = float(rng.uniform(0.3e-3, 3e-3))
            dist = float(rng.uniform(2.0, 30.0))
            split = float(rng.uniform(0.5, 2.0))
            product = eta * lam * dist / n  # d_t * d_r at this eta
            d_t = math.sqrt(product) * split
            d_r = math.sqrt(product) / split
            sc = link_scene(build_ula(n, d_t), build_ula(n, d_r), dist, lam)
            gains.append(gain_spectrum(channel_matrix(sc, FRESNEL)).gains)
        rel = np.abs(gains[0] - gains[1]).max() / gains[0].max()
        if rel > 1e-6:
            checks["eta_invariance"] = False

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    acceptance(
        7,
        ok,
        "all six invariants hold over 20 randomized scenes each"
        if ok
        else f"violated: {', '.join(failed)}",
    )
    assert ok, failed


def test_criterion_8_rotation_endpoints(acceptance):
    sc = _ula_eta_scene(1.0)
    n = 4

    def se_at(angle, snr_db):
        from losmimo import rotate_in_link_plane

        posed = link_scene(
            sc.tx,
            sc.rx,
            sc.separation_m,
            sc.wavelength_m,
            tx_pose=rotate_in_link_plane(sc.tx, angle),
            rx_pose=rotate_in_link_plane(sc.rx, angle),
        )
        spec = gain_spectrum(channel_matrix(posed, FRESNEL))
        return waterfilling(spec, snr_db_to_linear(snr_db))[1]

    low_ok = se_at(math.pi / 2, -10.0) > se_at(0.0, -10.0)
    high_ok = se_at(0.0, 10.0) > se_at(math.pi / 2, 10.0)

    grid = list(range(-10, 21))
    angles, _, _ = select_fixed_angles(sc, 3, grid, FRESNEL)
    plan = fixed_angle_plan(sc, angles, grid, FRESNEL)
    worst_gap = 0.0
    for snr_db, se in zip(plan.snr_db.tolist(), plan.rates.ses.tolist()):
        _, ref = optimize_rotation(sc, snr_db, FRESNEL)
        worst_gap = max(worst_gap, 1.0 - se / float(ref.ses[0]))
    gap_ok = worst_gap <= 0.03

    ok = low_ok and high_ok and gap_ok
    deg = [round(math.degrees(a), 3) for a in angles]
    acceptance(
        8,
        ok,
        f"endfire beats broadside at -10 dB: {low_ok}; broadside wins at +10 dB: "
        f"{high_ok}; k=3 angles {deg} worst gap {worst_gap:.3%} (limit 3%)",
    )
    assert ok
