"""Scene configuration files: strict JSON with nested tx/rx blocks.

A config names the carrier, the link distance, the wavefront model, and
one array block per link end.  Unknown keys are rejected (with a nearest
match hint), sizing keys are mutually exclusive per archetype, and all
lengths are meters, frequencies hertz, SNRs dB.

Example::

    {
      "carrier_hz": 300e9,
      "distance_m": 10.0,
      "model": "fresnel",
      "snr_db": 10.0,
      "tx": {"type": "ula", "n": 64, "aperture_m": 0.8},
      "rx": {"type": "ula", "n": 64, "aperture_m": 0.8}
    }

For ``ura`` blocks ``n`` counts antennas per side (n*n total); for every
other archetype it is the total element count.
"""

from __future__ import annotations

import difflib
import json
import math
import os
from dataclasses import dataclass

from .channel import SPEED_OF_LIGHT_M_S, WavefrontModel
from .errors import ConfigError
from .geometry import (
    ArrayLayout,
    LinkScene,
    RigidPose,
    _count,
    _positive,
    _real,
    build_aosa,
    build_uca,
    build_ula,
    build_ura,
    custom_layout,
    link_scene,
    rotate_in_link_plane,
)

_MAX_ELEMENTS = 4096  # per array block; bounds the O(n^2) channel and diameter work
_TOP_KEYS = {"carrier_hz", "distance_m", "model", "snr_db", "tx", "rx"}
_BLOCK_KEYS = {
    "ula": {"type", "n", "spacing_m", "aperture_m", "rotation_deg"},
    "ura": {"type", "n", "spacing_m", "aperture_m", "rotation_deg"},
    "uca": {"type", "n", "diameter_m", "rotation_deg"},
    "aosa": {
        "type",
        "n",
        "n_subarrays",
        "spacing_m",
        "aperture_m",
        "element_spacing_m",
        "rotation_deg",
    },
    "custom": {"type", "n", "positions", "rotation_deg"},
}


@dataclass(frozen=True)
class SceneConfig:
    """Parsed and validated scene description, with the scene already built."""

    model: WavefrontModel
    snr_db: tuple[float, ...] | None
    scene: LinkScene
    tx_block: dict
    rx_block: dict


def _reject_unknown(mapping: dict, allowed, where: str):
    for key in mapping:
        if key not in allowed:
            hint = difflib.get_close_matches(key, sorted(allowed), n=1)
            suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
            raise ConfigError(f"unknown key '{key}' in {where}{suffix}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return mapping[key]


def _number(value, key: str, where: str, coerce=_positive):
    return coerce(value, f"key '{key}' in {where}", ConfigError)  # a boundary coercer


def _check_elements(count: int, where: str):
    if count > _MAX_ELEMENTS:
        raise ConfigError(f"{where} has {count} elements, more than the limit of {_MAX_ELEMENTS}")


def _one_sizing(block: dict, keys: tuple[str, ...], where: str) -> str:
    present = [k for k in keys if k in block]
    if len(present) != 1:
        raise ConfigError(
            f"{where} needs exactly one of {'/'.join(keys)}, got "
            f"{present or 'none'}"
        )
    return present[0]


def _build_block(block, where: str, wavelength_m: float) -> tuple[ArrayLayout, RigidPose | None]:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _require(block, "type", where)
    if kind not in _BLOCK_KEYS:
        raise ConfigError(
            f"unknown array type '{kind}' in {where}; expected one of "
            f"{sorted(_BLOCK_KEYS)}"
        )
    _reject_unknown(block, _BLOCK_KEYS[kind], where)

    if kind != "custom":
        n = _number(_require(block, "n", where), "n", where, _count)
        _check_elements(n * n if kind == "ura" else n, where)
    if kind == "custom":
        positions = _require(block, "positions", where)
        if not isinstance(positions, list) or not all(
            isinstance(p, list) and len(p) == 3 for p in positions
        ):
            raise ConfigError(f"'positions' in {where} must be a list of [x, y, z]")
        _check_elements(len(positions), where)
        layout = custom_layout(positions)
        if "n" in block and _number(block["n"], "n", where, _count) != layout.element_count:
            raise ConfigError(
                f"'n' in {where} disagrees with the number of positions"
            )
    elif kind == "uca":
        layout = build_uca(n, _number(_require(block, "diameter_m", where), "diameter_m", where))
    else:
        sizing = _one_sizing(block, ("spacing_m", "aperture_m"), where)
        size = _number(block[sizing], sizing, where)
        if kind in ("ula", "ura"):
            spacing = size if sizing == "spacing_m" else size / n
            layout = (build_ula if kind == "ula" else build_ura)(n, spacing)
        else:  # aosa
            n_sub = _number(_require(block, "n_subarrays", where), "n_subarrays", where, _count)
            sub = size if sizing == "spacing_m" else size / n_sub
            elem = (
                _number(block["element_spacing_m"], "element_spacing_m", where)
                if "element_spacing_m" in block
                else wavelength_m / 4
            )
            if n % n_sub:
                raise ConfigError(f"'n_subarrays' in {where} must divide 'n'")
            layout = build_aosa(n, n_sub, sub, elem)

    pose = None
    if "rotation_deg" in block:
        deg = _number(block["rotation_deg"], "rotation_deg", where, _real)
        pose = rotate_in_link_plane(layout, math.radians(deg))
    return layout, pose


def parse_scene_config(doc) -> SceneConfig:
    """Validate a decoded config document and build its LinkScene."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    carrier = _number(_require(doc, "carrier_hz", "config"), "carrier_hz", "config")
    distance = _number(_require(doc, "distance_m", "config"), "distance_m", "config")
    model_name = _require(doc, "model", "config")
    try:
        model = WavefrontModel(model_name)
    except ValueError:
        raise ConfigError(
            f"unknown model '{model_name}'; expected one of "
            f"{[m.value for m in WavefrontModel]}"
        ) from None

    snr_db: tuple[float, ...] | None = None
    if "snr_db" in doc:
        raw = doc["snr_db"]
        if isinstance(raw, list):
            if not raw:
                raise ConfigError("'snr_db' list must be non-empty")
            snr_db = tuple(
                _number(v, "snr_db", "config", _real) for v in raw
            )
        else:
            snr_db = (_number(raw, "snr_db", "config", _real),)

    wavelength = SPEED_OF_LIGHT_M_S / carrier
    tx_block = _require(doc, "tx", "config")
    rx_block = _require(doc, "rx", "config")
    tx, tx_pose = _build_block(tx_block, "tx block", wavelength)
    rx, rx_pose = _build_block(rx_block, "rx block", wavelength)
    scene = link_scene(tx, rx, distance, wavelength, tx_pose=tx_pose, rx_pose=rx_pose)
    return SceneConfig(
        model=model,
        snr_db=snr_db,
        scene=scene,
        tx_block=dict(tx_block),
        rx_block=dict(rx_block),
    )


def load_scene_config(path) -> SceneConfig:
    """Read and parse a JSON scene config, with line/column syntax diagnostics."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, TypeError, ValueError) as exc:  # no such file, or no path at all
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_scene_config(doc)
