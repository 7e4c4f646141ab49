"""The benchmark's layer tracer (``bench/layers.py``) against the CLI.

While installed, the tracer swaps the functions that one layer module binds
from another, and the ``serialize`` module the CLI binds as ``ser``, for
wrappers that record spans.  A traced run of each command must write the
bytes of an untraced one, and the spans must see the layers it calls.
"""

from __future__ import annotations

import functools
import types
from pathlib import Path

import losmimo
from losmimo.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_CONFIGS = _ROOT / "tests" / "golden" / "configs"

# one command of each kind (and each optimize mode), on the golden configs
_COMMANDS = {
    "channel": ["channel", "ula4", "--format", "csv"],
    "capacity": ["capacity", "ula8_fresnel", "--snr-db=-10:5:20", "--format", "json"],
    "sweep": ["sweep", "ula4", "--var", "eta", "--grid=0:0.25:2", "--snr-db=10"],
    "rotation": ["optimize", "ula4", "--mode", "rotation", "--format", "json"],
    "aosa": ["optimize", "aosa4", "--mode", "aosa", "--snr-grid=-10:5:20"],
    "angles": ["optimize", "ula4", "--mode", "angles", "--k", "2", "--snr-grid=-10:5:20",
               "--format", "json"],
    "validity": ["validity", "--freq-grid=10e9:40e9:300e9", "--dist-grid=1:1.5:10",
                 "--tx-aperture", "0.3", "--rx-aperture", "0.2", "--format", "json"],
    "phase-profile": ["phase-profile", "--freq", "140e9", "--distance", "2", "--steps", "41",
                      "--step-size", "0.0005"],
}


def _run(name: str, directory: Path, run=main) -> dict[str, bytes]:
    """Run one command with --out in ``directory``; every file it wrote, by name."""
    argv = list(_COMMANDS[name])
    if (_CONFIGS / f"{argv[1]}.json").exists():
        argv[1] = str(_CONFIGS / f"{argv[1]}.json")
    directory.mkdir()
    assert run(argv + ["--out", str(directory / "out")]) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_traced_commands_write_the_untraced_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    import layers

    tracer = layers.Tracer()
    traced_main = tracer.wrap(main, "cli.main")
    want = {name: _run(name, tmp_path / f"untraced_{name}") for name in _COMMANDS}
    got, layers_seen = {}, {}
    tracer.install(losmimo)
    try:
        for name in _COMMANDS:
            first = len(tracer.name)
            got[name] = _run(name, tmp_path / f"traced_{name}", traced_main)
            layers_seen[name] = {layers.layer_of(tracer.span_names[i])
                                 for i in tracer.name[first:]}
    finally:
        tracer.uninstall()
    assert got == want
    assert all(want.values())
    assert all({"cli", "serialize"} <= seen for seen in layers_seen.values())
    assert "optimize" in layers_seen["angles"]  # the CLI's selection goes through its span
    # uninstalled: the modules hold their own functions again
    assert losmimo.cli.select_fixed_angles is losmimo.optimize.select_fixed_angles
    assert losmimo.cli.ser is losmimo.serialize


def test_writers_yield_their_chunks_inside_a_serialize_span(tmp_path, monkeypatch):
    # formatting happens as the chunks are drawn, so it is timed where they are written
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    import layers

    tracer = layers.Tracer()
    open_spans = []  # per chunk yielded, the innermost open span

    def drawn(chunks):
        for chunk in chunks:
            innermost = tracer._stack[-1]
            open_spans.append(innermost >= 0 and tracer.span_names[tracer.name[innermost]])
            yield chunk

    def watched(writer):
        @functools.wraps(writer)
        def call(*args, **kwargs):
            result = writer(*args, **kwargs)
            return drawn(result) if isinstance(result, types.GeneratorType) else result
        return call

    for name, fn in vars(losmimo.serialize).items():
        if isinstance(fn, types.FunctionType) and fn.__module__ == "losmimo.serialize" \
                and not name.startswith("_") and name != "write":
            monkeypatch.setattr(losmimo.serialize, name, watched(fn))
    seen = {}
    tracer.install(losmimo)
    try:
        for name in _COMMANDS:
            open_spans.clear()
            _run(name, tmp_path / name, tracer.wrap(main, "cli.main"))
            seen[name] = set(open_spans)
    finally:
        tracer.uninstall()
    assert seen == {name: {"serialize.write"} for name in _COMMANDS}
