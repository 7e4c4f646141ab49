"""Two ways to chase the LOS MIMO capacity bound with one physical array.

At low SNR a single tight cluster (beamforming) wins; at high SNR the
antennas want to spread out to Rayleigh spacing (full multiplexing).  A
reconfigurable array-of-subarrays regroups its elements per SNR, while a
rotating rigid ULA trades projected aperture for the same effect.  Both
are compared against the polarized-spectrum capacity upper bound.

Run:  python demos/reconfigurable_arrays.py
"""

import math

from losmimo import (
    WavefrontModel,
    aosa_schedule,
    build_aosa,
    build_ula,
    capacity_upper_bound,
    link_scene,
    optimize_rotation,
    snr_db_to_linear,
)

N = 4
LAM = 1e-3  # 300 GHz
DIST = 10.0
SNRS_DB = list(range(-10, 11, 2))


def main():
    model = WavefrontModel.FRESNEL

    # AOSA template: the schedule rebuilds the layout per candidate r
    sub = math.sqrt(LAM * DIST / 2)
    template = link_scene(
        build_aosa(N, 2, sub, LAM / 4), build_aosa(N, 2, sub, LAM / 4), DIST, LAM
    )
    plan = aosa_schedule(N, template, [float(s) for s in SNRS_DB], model)

    # rotating rigid ULA, Rayleigh-spaced when broadside (eta = 1)
    d = math.sqrt(LAM * DIST / N)
    ula = link_scene(build_ula(N, d), build_ula(N, d), DIST, LAM)

    print(f"N = {N} antennas per end, {LAM * 1e3:.0f} mm carrier, D = {DIST} m")
    print()
    print("snr_db   bound    aosa se  (r)    rotation se  (deg)")
    for snr_db, descriptor, se in zip(SNRS_DB, plan.descriptors, plan.rates.ses.tolist()):
        snr = snr_db_to_linear(snr_db)
        ub = capacity_upper_bound(N, N, snr)
        angle, rates = optimize_rotation(ula, snr, model)
        r = descriptor.split("=")[1]
        print(
            f"{snr_db:+6d} {ub:8.3f} {se:9.3f}  ({r})"
            f"  {rates.ses[0]:11.3f}  ({math.degrees(angle):5.1f})"
        )

    print()
    print("the subarray count r and the rotation angle both step toward")
    print("more multiplexing as the SNR grows; the bound is nearly attained")
    print("at both extremes and hardest to track between the rank switches")
    print()
    print("same tables via the CLI (needs an aosa scene config):")
    print("  losmimo optimize scene.json --mode aosa --snr-grid=-10:2:10")
    print("  losmimo optimize scene.json --mode rotation --snr-db 0")


if __name__ == "__main__":
    main()
