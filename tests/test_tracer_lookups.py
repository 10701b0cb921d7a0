"""Every name that bench/tracer.py wraps resolves against the package, so a
refactor that drops or moves a traced name fails here and not only in the
benchmark.  The test reads bench/ and changes nothing there."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(owner, path):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_lookup_resolves_and_the_tracer_restores_it():
    tracer = _tracer_module()
    places = [place for _, places, _, _ in tracer.TRACED for place in places]
    mods = {m: importlib.import_module(f"discosc.{m}")
            for m in {module for module, _ in places}}
    before = {}
    for module, path in places:
        target = _lookup(mods[module], path)
        assert callable(target), (module, path)
        before[module, path] = target
    # install looks up and replaces each attribute as the benchmark does
    with tracer.Tracer(mods).installed():
        for module, path in places:
            assert _lookup(mods[module], path) != before[module, path]
    for module, path in places:
        assert _lookup(mods[module], path) == before[module, path]
    assert len(places) >= 36
