"""Command line surface: scene configs in, deterministic CSV/JSON tables out.

Exit codes: 0 success, 2 config or argument error (or an unwritable --out),
3 degenerate geometry, 4 incompatible mode/archetype, 5 numerical validity failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import __version__
from .channel import SPEED_OF_LIGHT_M_S, Validity, _planar_ok, channel_matrix, phase_profile
from .config import load_scene_config
from .errors import ConfigError, IncompatibleModeError, LosMimoError
from .geometry import Archetype, _count, _positive, _real
from .optimize import (
    SweepTable,
    SweepVariable,
    _descriptors,
    _scene_reports,
    aosa_schedule,
    optimize_rotation,
    select_fixed_angles,
    sweep,
)
from . import serialize as ser

# largest grid (or validity map) a command accepts, in points
_MAX_GRID_POINTS = 1_000_000


def _parse_values(text: str, name: str) -> list[float]:
    """Grid syntax: 'start:step:stop' (inclusive) or comma-separated finite values."""
    text = text.strip()
    try:
        sep = ":" if ":" in text else ","
        values = [float(p) for p in text.split(sep) if sep == ":" or p.strip() != ""]
        if not all(map(math.isfinite, values)):
            raise ValueError("values must be finite")
        if sep == ":":
            if len(values) != 3:
                raise ValueError("expected start:step:stop")
            start, step, stop = values
            if step <= 0:
                raise ValueError("step must be positive")
            count = math.floor((stop - start) / step + 1e-9) + 1
            if count < 1:
                raise ValueError("empty grid (start > stop)")
            _check_grid_size(count, "grid")
            return [start + i * step for i in range(count)]
        if not values:
            raise ValueError("no values")
        _check_grid_size(len(values), "grid")
        return values
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {name} '{text}': {exc}") from exc


def _check_grid_size(count: int, what: str):
    if count > _MAX_GRID_POINTS:
        raise ConfigError(
            f"{what} has {count} points, more than the limit of {_MAX_GRID_POINTS}"
        )


def _emit(args, to_csv, to_json, *result, sidecar=None) -> int:
    """Write ``result`` to --out (stdout when omitted) as the chunks of ``to_csv(*result)``,
    or with --format json of ``to_json(*result)``.  A CSV written to --out also gets
    ``<out>.json`` holding the JSON of the document ``sidecar(*result)``."""
    as_csv = args.format == "csv"
    ser.write(args.out, (to_csv if as_csv else to_json)(*result))
    if as_csv and args.out and sidecar is not None:
        ser.write(args.out + ".json", ser.json_dumps(sidecar(*result)))
    return 0


def _fixed_snr_db(args, cfg) -> float:
    if args.snr_db is not None:
        values = _parse_values(args.snr_db, "--snr-db")
        if len(values) != 1:
            raise ConfigError("exactly one --snr-db value is required here")
        return values[0]
    if cfg.snr_db is not None and len(cfg.snr_db) == 1:
        return cfg.snr_db[0]
    raise ConfigError("a single fixed SNR is required (--snr-db or scalar snr_db in config)")


def cmd_channel(args) -> int:
    cfg = load_scene_config(args.config)
    h = channel_matrix(cfg.scene, cfg.model)
    return _emit(args, ser.channel_csv, ser.channel_json, h, sidecar=ser.channel_meta)


def cmd_capacity(args) -> int:
    cfg = load_scene_config(args.config)
    if args.snr_db is not None:
        snrs = _parse_values(args.snr_db, "--snr-db")
    elif cfg.snr_db is not None:
        snrs = list(cfg.snr_db)
    else:
        raise ConfigError("no SNR given: pass --snr-db or set snr_db in the config")
    return _emit(args, ser.rate_table_csv, ser.rate_table_json,
                 _scene_reports(cfg.scene, cfg.model, snrs))


def cmd_sweep(args) -> int:
    cfg = load_scene_config(args.config)
    variable = SweepVariable(args.var)
    grid = _parse_values(args.grid, "--grid")
    snr_db = 0.0 if variable is SweepVariable.SNR_DB else _fixed_snr_db(args, cfg)
    return _emit(args, ser.sweep_table_csv, ser.sweep_table_json,
                 sweep(cfg.scene, variable, grid, cfg.model, snr_db))


def cmd_optimize(args) -> int:
    cfg = load_scene_config(args.config)
    scene, model = cfg.scene, cfg.model

    if args.mode == "rotation":
        snr_db = _fixed_snr_db(args, cfg)
        angle, rates = optimize_rotation(scene, snr_db, model)
        plan = SweepTable(np.array([angle]), np.array([snr_db], dtype=float),
                          _descriptors("rotation_rad", [angle]), rates, {})
        return _emit(args, ser.sweep_table_csv, lambda p: ser.rotation_json(angle, p.rates), plan)

    if args.snr_grid is None:
        raise ConfigError(f"--snr-grid is required for mode '{args.mode}'")
    snr_grid = _parse_values(args.snr_grid, "--snr-grid")

    if args.mode == "aosa":
        # the blocks fix n and the element spacing; the schedule picks r and the subarray spacing
        tx, rx = scene.tx, scene.rx
        elem_t, elem_r = (b.get("element_spacing_m", scene.wavelength_m / 4)
                          for b in (cfg.tx_block, cfg.rx_block))
        if not (tx.archetype is rx.archetype is Archetype.AOSA
                and tx.element_count == rx.element_count and elem_t == elem_r):
            raise IncompatibleModeError("optimize --mode aosa needs 'aosa' tx and rx blocks "
                                        "with the same 'n' and element spacing")
        plan = aosa_schedule(tx.element_count, scene, snr_grid, model, element_spacing_m=elem_t)
        return _emit(args, ser.sweep_table_csv, ser.sweep_table_json, plan)

    angles, plan, worst_gap = select_fixed_angles(scene, args.k, snr_grid, model)
    return _emit(args, ser.sweep_table_csv, lambda p: ser.angles_json(angles, worst_gap, p), plan)


def cmd_validity(args) -> int:
    a_t, a_r = args.tx_aperture, args.rx_aperture
    _positive(a_t, "--tx-aperture")
    _positive(a_r, "--rx-aperture")
    freqs = _parse_values(args.freq_grid, "--freq-grid")
    dists = _parse_values(args.dist_grid, "--dist-grid")
    for d in dists:
        _positive(d, "--dist-grid value")
    _check_grid_size(len(freqs) * len(dists), "validity map")
    for f in freqs:  # each argument checked once, then one check-free rule over every cell
        _positive(f, "--freq-grid value")
        _positive(SPEED_OF_LIGHT_M_S / f, "wavelength_m")
    freqs, dists = np.repeat(freqs, len(dists)), np.tile(dists, len(freqs))
    planar = _planar_ok(a_t, a_r, SPEED_OF_LIGHT_M_S / freqs, dists)
    regimes = np.array([Validity.SPHERICAL_REQUIRED.value, Validity.PLANAR_OK.value], object)
    return _emit(args, ser.validity_csv, ser.validity_json, freqs, dists,
                 regimes[planar.astype(np.intp)])  # one reference per cell, to one of two texts


def cmd_phase_profile(args) -> int:
    _check_grid_size(args.steps, "--steps")  # phase_profile checks that --steps is >= 3
    _count(args.steps, "--steps"), _positive(args.step_size, "--step-size")
    _positive(args.freq, "--freq"), _positive(args.distance, "--distance")
    lam = SPEED_OF_LIGHT_M_S / args.freq
    if args.direction == "transverse":
        # scan symmetric about broadside so the fitted curvature matches the
        # small-offset expansion about the boresight distance
        start = (_real(-(args.steps - 1) / 2 * args.step_size,
                       "scan start -(--steps - 1) / 2 * --step-size"), 0.0, args.distance)
        direction = (1.0, 0.0, 0.0)
        c2_predicted = -math.pi / (lam * args.distance or math.inf)
        _positive(-c2_predicted, "predicted curvature magnitude pi/(lambda*distance)")
    else:
        start = (0.0, 0.0, args.distance)
        direction = (0.0, 0.0, 1.0)
        c2_predicted = 0.0
    profile = phase_profile(
        (0.0, 0.0, 0.0), start, args.step_size, args.steps, direction, lam
    )
    return _emit(args, ser.phase_profile_csv,
                 lambda p: ser.json_dumps(ser.phase_profile_json_doc(p, c2_predicted)), profile,
                 sidecar=lambda p: ser.phase_summary_dict(p, c2_predicted))


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losmimo",
        description="LOS MIMO channel, capacity, and array-architecture toolbox",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("channel", help="write the channel matrix for a scene config")
    p.add_argument("config")
    add_io(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("capacity", help="waterfilling rate report(s) for a scene")
    p.add_argument("config")
    p.add_argument("--snr-db", help="SNR value or comma list in dB")
    add_io(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sweep", help="sweep one variable over a grid")
    p.add_argument("config")
    p.add_argument("--var", required=True, choices=sorted(v.value for v in SweepVariable))
    p.add_argument("--grid", required=True, help="start:step:stop or comma list")
    p.add_argument("--snr-db", help="fixed SNR in dB (non-SNR sweeps)")
    add_io(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="architecture optimization per SNR")
    p.add_argument("config")
    p.add_argument("--mode", required=True, choices=("rotation", "aosa", "angles"))
    p.add_argument("--k", type=int, default=3, help="number of fixed angles")
    p.add_argument("--snr-grid", help="SNR grid in dB (aosa/angles modes)")
    p.add_argument("--snr-db", help="single SNR in dB (rotation mode)")
    add_io(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validity", help="planar-vs-spherical region map")
    p.add_argument("--freq-grid", required=True)
    p.add_argument("--dist-grid", required=True)
    p.add_argument("--tx-aperture", type=float, required=True)
    p.add_argument("--rx-aperture", type=float, required=True)
    add_io(p)
    p.set_defaults(func=cmd_validity)

    p = sub.add_parser("phase-profile", help="synthetic scan phase curvature")
    p.add_argument("--freq", type=float, required=True)
    p.add_argument("--distance", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--step-size", type=float, required=True)
    p.add_argument(
        "--direction", choices=("transverse", "longitudinal"), default="transverse"
    )
    add_io(p)
    p.set_defaults(func=cmd_phase_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:  # a non-finite value ends in a typed error, so numpy's warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except LosMimoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry():
    sys.exit(main())
