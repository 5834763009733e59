"""Named duration samples taken with time.perf_counter, and the statistics the
benchmark reports for them (median, p90, sample count)."""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter
from typing import Dict, List


class Recorder:
    """Collects duration samples (seconds) under metric names.

    `with rec.span(name): ...` appends the block's wall time to `name`;
    `rec.add(name, seconds)` appends a duration measured elsewhere.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def span(self, name: str) -> "_Span":
        return _Span(self.samples[name])

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


class _Span:
    __slots__ = ("_out", "_t0")

    def __init__(self, out: List[float]) -> None:
        self._out = out

    def __enter__(self) -> None:
        self._t0 = perf_counter()

    def __exit__(self, *exc) -> None:
        self._out.append(perf_counter() - self._t0)


def p90(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]
