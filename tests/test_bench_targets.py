"""The benchmark's tracer (perfbench/tracer.py) wraps ``cvuq`` entry points
by name and reports a missing one as absent instead of failing, so a rename
would silently zero that layer's metrics.  This reads its ``TARGETS``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for target, _, _ in module.TARGETS]


def test_every_traced_entry_point_resolves():
    # the tracer's rule: "module:attribute[.method]", the last name defined
    # on its module or class itself
    targets = _targets()
    absent = []
    for target in targets:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            absent.append(target)
    assert "cvuq.data:DgpSpec.draw" in targets and "cvuq.ecdf:weighted_ecdf" in targets
    assert absent == []
