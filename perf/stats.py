"""Summary statistics and the A/B verdict rule of the benchmark.

Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
method), so a spread computed here matches one computed by anyone
else from the same values with the standard library.
"""

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Samples a reported tail percentile needs beyond it.
TAIL_SAMPLES = 10

#: Share of pairs the change must win before a gain is claimed.
GAIN_WIN_SHARE = 0.9

#: Fewest parent/change pairs a comparison may rest on.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def tail_defined(n: int, q: float) -> bool:
    """True when the ``q``-th percentile of ``n`` samples has at least
    :data:`TAIL_SAMPLES` samples beyond it (p95 needs n >= 200)."""
    return n * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refuses a tail with too few samples
    beyond it, so a reported p95 always rests on at least ten."""
    if q > 50 and not tail_defined(len(values), q):
        raise ValueError(f"p{q:g} of {len(values)} samples has fewer than "
                         f"{TAIL_SAMPLES} samples beyond it")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def better_than(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def worsening(change: float, parent: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of the
    parent (negative when it is better)."""
    gap = (change - parent) if better == "lower" else (parent - change)
    return gap / parent


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, int]:
    """Judge one (metric, workload) from paired runs.

    ``parent[i]`` and ``change[i]`` ran as a pair.  Returns the verdict
    and the number of pairs the change won (ties count for neither):

    * ``gain`` — the change won at least nine tenths of the pairs and
      the medians differ, in its favour, by more than the parent's
      interquartile range;
    * ``regression`` — the change's median is worse than the parent's
      by more than ``bound``;
    * ``unresolved`` — the parent's own spread is wider than ``bound``,
      and not every change run beats every parent run;
    * ``unchanged`` — otherwise.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change must be paired run for run")
    wins = sum(1 for p, c in zip(parent, change) if better_than(c, p, better))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    if (wins >= GAIN_WIN_SHARE * len(parent)
            and better_than(c_med, p_med, better)
            and abs(c_med - p_med) > q3 - q1):
        return "gain", wins
    if worsening(c_med, p_med, better) > bound:
        return "regression", wins
    if relative_iqr(parent) > bound and not all(
            better_than(c, p, better) for c in change for p in parent):
        return "unresolved", wins
    return "unchanged", wins
