"""Call timing by wrapping viwo's functions where their callers look them up.

A ``Tracer`` replaces a module attribute (``viwo.filter.klt_align``) or a
class attribute (``viwo.filter.AdaptiveEkf.predict``) with a wrapper that
times each call with ``perf_counter``.  Nested wrapped calls form a span
stack, so each call also records its self time: its duration minus the
durations of the wrapped calls made inside it.  Spans stay in memory as
per-name lists of durations until the benchmark reduces them at its end.
Nothing under ``src/`` is modified; ``restore`` puts the originals back.
"""

import functools
import importlib
from time import perf_counter


class Stat:
    """Per-name span record: durations, self times, outcome hits and
    whatever ``keep`` took from each call."""

    def __init__(self):
        self.times: list[float] = []
        self.self_times: list[float] = []
        self.hits = 0
        self.results: list = []

    @property
    def calls(self) -> int:
        return len(self.times)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.paused = False

    def wrap(self, name: str, fn, outcome=None, keep=None):
        """``fn`` timed under ``name``; ``outcome(result)`` counts hits and
        ``keep(args, result)`` is stored for each call."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            stat.times.append(dt)
            stat.self_times.append(dt - children[0])
            if outcome is not None:
                stat.hits += bool(outcome(result))
            if keep is not None:
                stat.results.append(keep(args, result))
            return result
        return timed

    def install(self, target: str, name: str, outcome=None, keep=None) -> None:
        """Wrap the attribute named by ``target``, ``module:attr`` or
        ``module:Class.attr``, e.g. ``viwo.filter:AdaptiveEkf.predict``."""
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = rest.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, outcome, keep))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
