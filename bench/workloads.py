"""Seeded job lists for the benchmark workloads.

Every job is one ``losmimo`` CLI invocation on inputs written here: scene
configs go into the pass directory, and each job writes its result with
``--out`` into the same directory.  A pass is the workload's whole job
list; pass ``p`` of seed ``s`` draws its inputs from its own generator, so
no two jobs (and no two passes) share a scene, and the warm-up pass never
repeats a timed input.

Element counts, grid lengths and output formats are fixed per job slot, so
every pass does the same amount of work.  Carrier, distance, spacing (as
the channel parameter eta), wavefront model, SNR, scan and grid origins
are drawn from the seed, inside the regime the paper studies: mmWave/THz
carriers (100-300 GHz), indoor/backhaul distances (5-20 m), and array
spacings around Rayleigh spacing (eta from 0.5 to 2).

Each workload also runs a few light jobs of every other subcommand kind, so
that every per-subcommand time and every layer is measured on every
workload; the light jobs are a small share of the pass.  Why each workload
was chosen is in its builder's docstring.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

SPEED_OF_LIGHT_M_S = 299792458.0

KINDS = (
    "optimize_angles",
    "optimize_rotation",
    "optimize_aosa",
    "capacity",
    "sweep",
    "channel",
    "phase_profile",
    "validity",
)

# the optimizer/capacity grid quoted for the CLI: -10 dB to 20 dB in 1 dB steps
SNR_GRID = "-10:1:20"
SNR_GRID_VALUES = [float(s) for s in range(-10, 21)]

@dataclass
class Job:
    ident: str
    kind: str
    argv: list
    outputs: list  # files the job writes, main output first
    fmt: str
    spec: dict = field(default_factory=dict)  # what the checker needs

    @property
    def config(self):
        return self.spec.get("config_path")


class _Pass:
    """Builds one pass's jobs, writing configs into ``directory``."""

    def __init__(self, rng: random.Random, directory: str, prefix: str):
        self.rng = rng
        self.directory = directory
        self.prefix = prefix
        self.jobs: list[Job] = []

    # -- inputs -----------------------------------------------------------

    def _link(self, model=None):
        rng = self.rng
        carrier = rng.uniform(100e9, 300e9)
        return {
            "carrier_hz": carrier,
            "distance_m": rng.uniform(5.0, 20.0),
            "model": model or rng.choice(("spherical", "fresnel")),
        }

    def _block(self, link, arch, n, n_sub=None, rotation=False):
        """Array block sized so the pair sits at channel parameter eta."""
        rng = self.rng
        lam = SPEED_OF_LIGHT_M_S / link["carrier_hz"]
        eta = rng.uniform(0.5, 2.0)
        if arch == "ura":
            count = n * n
        elif arch == "aosa":
            count = n_sub  # super-antenna count sets the rank
        else:
            count = n
        aperture = math.sqrt(eta * lam * link["distance_m"] * count)
        block = {"type": arch, "n": n}
        if arch == "aosa":
            block["n_subarrays"] = n_sub
            block["aperture_m"] = aperture
        elif rng.random() < 0.5:
            block["aperture_m"] = aperture
        else:
            block["spacing_m"] = aperture / n
        if rotation:
            block["rotation_deg"] = rng.uniform(0.0, 20.0)
        return block

    def _scene(self, arch, n, model=None, n_sub=None, rotation=False):
        link = self._link(model)
        doc = dict(link)
        doc["tx"] = self._block(link, arch, n, n_sub, rotation)
        doc["rx"] = self._block(link, arch, n, n_sub)
        return doc

    def _add(self, kind, argv, fmt, spec, sidecar=False):
        ident = f"{self.prefix}-{len(self.jobs):02d}-{kind}"
        out = os.path.join(self.directory, f"{ident}.{fmt}")
        outputs = [out] + ([out + ".json"] if sidecar else [])
        if "doc" in spec:
            path = os.path.join(self.directory, f"{ident}.cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec["doc"], fh)
            spec["config_path"] = path
            argv = [argv[0], path] + argv[1:]
        argv = argv + ["--format", fmt, "--out", out]
        self.jobs.append(Job(ident, kind, argv, outputs, fmt, spec))

    @staticmethod
    def _elements(doc):
        b = doc["tx"]
        return b["n"] * b["n"] if b["type"] == "ura" else b["n"]

    # -- job kinds --------------------------------------------------------

    def angles(self, n, fmt="csv", full_grid=True):
        doc = self._scene("ula", n)
        if full_grid:
            grid, snrs = SNR_GRID, SNR_GRID_VALUES
        else:
            snr = round(self.rng.uniform(-10.0, 20.0), 3)
            grid, snrs = repr(snr), [snr]
        self._add(
            "optimize_angles",
            ["optimize", "--mode", "angles", "--k", "3", f"--snr-grid={grid}"],
            fmt,
            {"doc": doc, "n_t": n, "n_r": n, "snr_db": snrs},
        )

    def rotation(self, n, fmt="csv"):
        doc = self._scene("ula", n)
        snr = self.rng.uniform(-10.0, 20.0)
        self._add(
            "optimize_rotation",
            ["optimize", "--mode", "rotation", f"--snr-db={snr!r}"],
            fmt,
            {"doc": doc, "n_t": n, "n_r": n, "snr_db": [snr]},
        )

    def aosa(self, n, fmt="csv"):
        n_sub = self.rng.choice([d for d in range(2, n + 1) if n % d == 0])
        doc = self._scene("aosa", n, n_sub=n_sub)
        self._add(
            "optimize_aosa",
            ["optimize", "--mode", "aosa", f"--snr-grid={SNR_GRID}"],
            fmt,
            {"doc": doc, "n_t": n, "n_r": n, "snr_db": SNR_GRID_VALUES},
        )

    def capacity(self, arch, n, fmt="csv", model=None, n_sub=None):
        doc = self._scene(arch, n, model=model, n_sub=n_sub)
        count = self._elements(doc)
        self._add(
            "capacity",
            ["capacity", f"--snr-db={SNR_GRID}"],
            fmt,
            {"doc": doc, "n_t": count, "n_r": count, "snr_db": SNR_GRID_VALUES},
        )

    def sweep(self, arch, n, var, points, fmt="csv", model=None):
        doc = self._scene(arch, n, model=model)
        count = self._elements(doc)
        rng = self.rng
        argv = ["sweep", "--var", var]
        if var == "snr":
            start, step = float(rng.randint(-10, 0)), 1.0
            snr = None
        else:
            if var == "eta":
                # steps of 1/16 are exact in binary, so the grid length is exact
                start, step = rng.randint(1, 4) / 16.0, 1.0 / 16.0
            else:  # freq: whole GHz origin, 5 GHz steps
                start, step = rng.randint(100, 200) * 1e9, 5e9
            snr = rng.uniform(0.0, 20.0)
            argv.append(f"--snr-db={snr!r}")
        stop = start + (points - 1) * step
        argv.append(f"--grid={start!r}:{step!r}:{stop!r}")
        grid = [start + i * step for i in range(points)]
        self._add(
            "sweep",
            argv,
            fmt,
            {"doc": doc, "n_t": count, "n_r": count, "var": var, "grid": grid,
             "snr_db": snr},
        )

    def channel(self, arch, n, fmt="csv"):
        doc = self._scene(arch, n, rotation=(arch == "ula"))
        self._add("channel", ["channel"], fmt, {"doc": doc}, sidecar=(fmt == "csv"))

    def phase_profile(self, steps, fmt="json"):
        rng = self.rng
        freq = rng.uniform(100e9, 300e9)
        distance = rng.uniform(0.5, 5.0)
        # scans of at most 2 m, in steps below half a wavelength (the
        # sampling limit of a real phase scan)
        lam = SPEED_OF_LIGHT_M_S / freq
        step = rng.uniform(0.25, 0.9) * min(lam / 2, 2.0 / steps)
        direction = rng.choice(("transverse", "longitudinal"))
        argv = [
            "phase-profile", "--freq", repr(freq), "--distance", repr(distance),
            "--steps", str(steps), "--step-size", repr(step), "--direction", direction,
        ]
        spec = {"freq": freq, "distance": distance, "steps": steps, "step": step,
                "direction": direction}
        self._add("phase_profile", argv, fmt, spec, sidecar=(fmt == "csv"))

    def validity(self, n_freq, n_dist, fmt="csv"):
        rng = self.rng
        f0, f_step = rng.randint(10, 100) * 1e9, 5e9
        d0, d_step = rng.randint(100, 500) / 100.0, 0.5
        freqs = [f0 + i * f_step for i in range(n_freq)]
        dists = [d0 + i * d_step for i in range(n_dist)]
        a_t, a_r = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        argv = [
            "validity",
            f"--freq-grid={f0!r}:{f_step!r}:{f0 + (n_freq - 1) * f_step!r}",
            f"--dist-grid={d0!r}:{d_step!r}:{d0 + (n_dist - 1) * d_step!r}",
            "--tx-aperture", repr(a_t), "--rx-aperture", repr(a_r),
        ]
        self._add("validity", argv, fmt,
                  {"freqs": freqs, "dists": dists, "tx_aperture": a_t, "rx_aperture": a_r})


def _optimize_small(p: _Pass, tiny: bool):
    """optimize angles/rotation/aosa on 4- and 8-element pairs.

    One angles job rebuilds about five thousand tiny scenes, so per-scene
    overhead (pose validation, scene rebuilds, waterfilling) dominates and
    SVD is a small share: batched evaluation and a closed-form bound must
    show here.
    """
    p.angles(4, full_grid=not tiny)
    for n, fmt in ((4, "csv"), (4, "json"), (8, "csv"), (8, "json")):
        p.rotation(n, fmt)
        p.aosa(n, fmt)
    p.capacity("ula", 4)
    p.capacity("ula", 8, fmt="json")
    p.capacity("aosa", 8, n_sub=4)
    p.capacity("ura", 2, fmt="json")
    p.sweep("ula", 4, "eta", 12 if tiny else 48)
    p.sweep("ula", 8, "eta", 12 if tiny else 48, fmt="json")
    for arch, n in (("ula", 4), ("ula", 8), ("ula", 16), ("ura", 2), ("ura", 3), ("ura", 4)):
        p.channel(arch, n, "csv")
        p.channel(arch, n, "json")
    for fmt in ("csv", "json", "json"):
        p.phase_profile(200 if tiny else 2000, fmt)
    for fmt in ("csv", "json", "csv", "json"):
        p.validity(40, 50, fmt)


def _large_arrays(p: _Pass, tiny: bool):
    """capacity over 31 SNRs and eta/freq sweeps on 64-element ULA and 16x16
    URA pairs under spherical and Fresnel models.

    Few scenes; the time goes to channel assembly and SVD (a 256x256
    capacity job repeats one SVD per SNR).  Per-scene overhead fixes should
    not move it.
    """
    side, line = (4, 16) if tiny else (16, 64)
    p.capacity("ura", side, model="spherical")
    p.capacity("ura", side, model="fresnel", fmt="json")
    p.capacity("ula", line)
    p.capacity("ula", line, fmt="json")
    p.sweep("ula", line, "eta", 12 if tiny else 48, model="spherical")
    p.sweep("ula", line, "eta", 12 if tiny else 48, model="fresnel", fmt="json")
    p.sweep("ura", side, "freq", 5 if tiny else 21)
    p.angles(line, full_grid=False)
    for fmt in ("csv", "json"):
        p.rotation(line, fmt)
    for fmt in ("csv", "json", "csv"):
        p.aosa(line, fmt)
        p.channel("ula", line, fmt)
        p.validity(100, 50, fmt)
    p.phase_profile(1000 if tiny else 10000)


def _export(p: _Pass, tiny: bool):
    """channel CSV/JSON of 64-256 element scenes, 1e5-step phase profiles and
    2e4-cell validity maps.

    Same channel layer, but the whole matrix or profile is written instead of
    being reduced to a spectrum, so formatting and JSON encoding dominate.
    Compute-side changes should not move it.
    """
    side, line = (4, 16) if tiny else (16, 64)
    p.channel("ura", side, "csv")
    p.channel("ura", side, "json")
    p.channel("ula", line, "csv")
    p.channel("ula", line, "json")
    p.channel("ula", 2 * line, "csv")
    p.phase_profile(1000 if tiny else 100000, "json")
    p.validity(20 if tiny else 200, 100, "csv")
    p.validity(20 if tiny else 200, 100, "json")
    for fmt in ("json", "csv", "json"):
        p.capacity("ula", 8, fmt=fmt)
        p.sweep("ula", 8, "snr", 31, fmt=fmt)
        p.aosa(4, fmt)
    p.angles(4, full_grid=False)
    p.rotation(4)
    p.rotation(4, "json")


_BUILDERS = {
    "optimize_small": _optimize_small,
    "large_arrays": _large_arrays,
    "export": _export,
}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, pass_index: int, directory: str,
             tiny: bool = False) -> list[Job]:
    """The job list of one pass, with its configs written into ``directory``.

    ``tiny`` shrinks grids and arrays for the smoke test; the job kinds stay
    the same.
    """
    rng = random.Random(f"losmimo-bench:{workload}:{seed}:{pass_index}")
    p = _Pass(rng, directory, f"p{pass_index}")
    _BUILDERS[workload](p, tiny)
    return p.jobs
