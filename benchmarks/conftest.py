"""Shared configuration for the benchmark harness.

Every test regenerates one table/figure of the (reconstructed)
evaluation and prints it; pytest-benchmark additionally records the
harness wall-clock.  Experiments are deterministic, so a single round
is exact — there is no noise to average away.

The ``once`` fixture *enforces* that claim: each experiment runs
twice (the second pass silent) and the harness fails on any drift in
the produced numbers — cycle counters included.  Nondeterminism in an
experiment would invalidate every comparison the suite prints, so it
is treated as a harness error, not noise.
"""

from typing import Any

import pytest

from repro.bench.tables import Series, Table


def _comparable(value: Any) -> Any:
    """Project an experiment result onto comparable plain data."""
    if isinstance(value, Series):
        return ("series", value.title, value.x_label, value.series_names,
                [(x, tuple(_comparable(v) for v in vals))
                 for x, vals in value.points])
    if isinstance(value, Table):
        return ("table", value.title, tuple(value.columns),
                [tuple(row) for row in value.rows])
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    if hasattr(type(value), "__slots__") and not isinstance(value, (str, bytes)):
        return {slot: _comparable(getattr(value, slot))
                for slot in type(value).__slots__}
    return value


def _drift(first: Any, second: Any) -> str:
    a, b = _comparable(first), _comparable(second)
    if a == b:
        return ""
    if isinstance(a, tuple) and a and a[0] == "series":
        for (xa, va), (xb, vb) in zip(a[4], b[4]):
            if (xa, va) != (xb, vb):
                return f"series point drifted at x={xa}: {va} != {vb}"
    return f"{a!r} != {b!r}"


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment under pytest-benchmark, then replay it and
    fail on any drift in the results (the determinism guard)."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    replay_kwargs = dict(kwargs)
    replay_kwargs.setdefault("verbose", False)
    replay = fn(*args, **replay_kwargs)
    drift = _drift(result, replay)
    assert not drift, (
        f"experiment {getattr(fn, '__module__', fn)!s} drifted across "
        f"same-process re-runs (cycle counters are not deterministic): "
        f"{drift}"
    )
    # Results that define their own content hash (e.g. the fuzz
    # campaign's CampaignReport) get the stronger byte-identity check:
    # the serialized report, not just its comparable projection.
    if callable(getattr(result, "digest", None)) \
            and callable(getattr(replay, "digest", None)):
        assert result.digest() == replay.digest(), (
            f"experiment {getattr(fn, '__module__', fn)!s} replay produced "
            f"a different serialized report"
        )
    return result


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)
    return runner
