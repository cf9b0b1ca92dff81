"""The package's import surface and the names the benchmark tracer patches."""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

from signet.learn import ModelParams
from tests.conftest import power_law_signed_graph

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_generate_and_evaluate_are_submodules():
    import signet.evaluate as E
    import signet.generate as G

    assert isinstance(G, types.ModuleType) and G.__name__ == "signet.generate"
    assert isinstance(E, types.ModuleType) and E.__name__ == "signet.evaluate"


def load_tracer():
    """``bench/tracer.py`` as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("signet_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def tracer_targets():
    """Every (module, attribute) that ``bench/tracer.py`` wraps, read from
    the file without installing anything."""
    tracer = load_tracer()
    targets = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTS]
    return targets + [("signet.generate", "GenerationState.park")]


def owner_of(mod, attr):
    """The object whose attribute ``leaf`` is ``mod``'s dotted ``attr``,
    and ``leaf``."""
    owner = importlib.import_module(mod)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@pytest.mark.parametrize("mod, attr", tracer_targets())
def test_tracer_target_resolves(mod, attr):
    assert callable(getattr(*owner_of(mod, attr)))


def test_tracer_counts_a_small_run(monkeypatch):
    # The benchmark's per-layer metrics read these counts and spans; a
    # change that stopped calling a traced function would zero them.
    tracer = load_tracer()
    for mod, attr in tracer_targets():
        owner, leaf = owner_of(mod, attr)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))  # restored after
    trace = tracer.Tracer()
    trace.install()
    G = importlib.import_module("signet.generate")
    B = importlib.import_module("signet.baseline")
    E = importlib.import_module("signet.evaluate")
    g = power_law_signed_graph(200, 800, seed=6, eta=0.85)
    # A fixed rho: a learned one can be about 0, which takes no wedge step.
    params = ModelParams(rho=0.5, alpha=0.85, beta=0.9, eta=0.85, delta_b=0.8)
    nets = [G.generate(g, params, seed=1), B.stcl_generate(g, params.rho, 1)]
    E.evaluate(g, nets)
    for name in ("steps", "vertex_draws", "wedge_signs"):
        assert trace.count(name, "generate") > 0
    names = {span[tracer.NAME] for span in trace.spans}
    assert {"evaluate.evaluate", "evaluate.ks_statistic"} <= names
