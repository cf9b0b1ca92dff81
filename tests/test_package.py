"""The package's import surface and the names the benchmark tracer patches."""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_generate_and_evaluate_are_submodules():
    import signet.evaluate as E
    import signet.generate as G

    assert isinstance(G, types.ModuleType) and G.__name__ == "signet.generate"
    assert isinstance(E, types.ModuleType) and E.__name__ == "signet.evaluate"


def tracer_targets():
    """Every (module, attribute) that ``bench/tracer.py`` wraps, read from
    the file without installing anything."""
    spec = importlib.util.spec_from_file_location("signet_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTS]
    return targets + [("signet.generate", "GenerationState.park")]


@pytest.mark.parametrize("mod, attr", tracer_targets())
def test_tracer_target_resolves(mod, attr):
    owner = importlib.import_module(mod)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
