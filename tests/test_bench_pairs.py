"""scripts/bench_pairs.py's verdict on a hand-made workload entry."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(median):
    return {"median": median, "q1": median, "q3": median}


def _run(correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {}}


def test_verdict_names_each_metric_and_the_failures():
    end_to_end = [
        {"name": "realtime_factor", "unit": "x", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rpe_p95_pct", "unit": "%", "better": "lower", "bound": 0.1},
    ]
    entry = {
        "summary": {"realtime_factor": {"parent": _side(100.0), "change": _side(70.0)},
                    "setup_s": {"parent": _side(0.2), "change": _side(0.24)},
                    "rpe_p95_pct": {"parent": _side(1.0), "change": _side(0.8)}},
        "runs": [{"seed": 1, "parent": _run(), "change": _run()},
                 {"seed": 2, "parent": _run(), "change": _run(correct=False, failed=3)}],
    }
    lines = _bench_pairs().verdict(entry, end_to_end)
    assert lines == [
        "realtime_factor median 100 -> 70 x (-30.0%, bound 25%): worse beyond bound",
        "setup_s median 0.2 -> 0.24 s (+20.0%, bound 25%): within bound",
        "rpe_p95_pct median 1 -> 0.8 % (-20.0%, bound 10%): better beyond bound",
        "parent failed operations: 0 of 20 (0.00%)",
        "change failed operations: 3 of 20 (15.00%)",
        "change seed 2: correct is false",
    ]
