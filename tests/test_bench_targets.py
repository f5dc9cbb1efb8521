"""Every function the benchmark times still exists where it looks for it."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    # Tracer.install reads the attribute from its owner's __dict__, so a
    # method that moved to a base class or a name that moved to another
    # module fails the benchmark's traced runs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    targets = [target for target, *_ in workloads.LAYER_FUNCTIONS] + list(workloads.PROBED)
    missing = []
    for target in targets:
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = rest.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(target)
    assert targets and missing == [], missing
