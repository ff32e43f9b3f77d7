"""The benchmark's span tracer still finds every risra function it wraps.

perfbench/tracing.py patches functions of the risra modules by attribute
name. A function it names that src/ no longer defines fails here, in a
fraction of a second, rather than only in the benchmark's smoke run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from risra import access, channel, cli, engine, receiver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

MODS = SimpleNamespace(engine=engine, cli=cli, channel=channel, access=access, receiver=receiver)


def attributes():
    return [dict(vars(module)) for module in vars(MODS).values()]


def test_tracer_wraps_and_restores_the_risra_modules():
    before = attributes()
    tracer = tracing.Tracer()
    with tracing.traced(MODS, tracer, inner=True):
        inside = attributes()
        assert receiver.peel(np.ones((1, 1), bool), np.full((1, 1), 2.0), 1.0) == 1
    after = attributes()
    assert tracer.calls("receiver.peel") == 1
    # the wrappers replace attributes inside and each original is back on exit
    assert any(new[name] is not old[name] for old, new in zip(before, inside) for name in old)
    assert all(new[name] is old[name] for old, new in zip(before, after) for name in old)
