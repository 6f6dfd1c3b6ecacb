"""DET001: wall clocks and ambient entropy are banned everywhere."""

import pytest

from tests.analysis.invariants import check


def det(module, source):
    return check("DET001", module, source)


@pytest.mark.parametrize("snippet,needle", [
    ("import time\nt = time.time()", "time.time"),
    ("import time\nt = time.perf_counter()", "time.perf_counter"),
    ("from time import time\nt = time()", "time.time"),
    ("from time import monotonic as mono\nt = mono()", "time.monotonic"),
    ("import datetime\nnow = datetime.datetime.now()", "datetime.datetime.now"),
    ("from datetime import datetime\nnow = datetime.now()",
     "datetime.datetime.now"),
    ("import os\nnoise = os.urandom(16)", "os.urandom"),
    ("import uuid\nident = uuid.uuid4()", "uuid.uuid4"),
    ("import secrets\ntoken = secrets.token_bytes(8)", "secrets.token_bytes"),
])
def test_banned_sources_are_flagged(snippet, needle):
    findings = det("repro.hw.clocky", snippet + "\n")
    assert len(findings) == 1, snippet
    assert needle in findings[0][1]


def test_module_level_random_functions_are_flagged():
    findings = det("repro.apps.lucky", """\
        import random
        a = random.randrange(10)
        b = random.random()
        random.seed(42)
        random.shuffle([1, 2])
        """)
    assert len(findings) == 4
    assert all("module-level PRNG" in message for _, message in findings)


def test_unseeded_random_instance_is_flagged():
    findings = det("repro.apps.unlucky", "import random\nrng = random.Random()\n")
    assert len(findings) == 1
    assert "without a seed" in findings[0][1]


def test_seeded_random_instance_is_clean():
    assert det("repro.apps.seeded", """\
        import hashlib
        import random

        def prng(tag):
            seed = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8],
                                  "little")
            return random.Random(seed)

        values = [prng("demo").randrange(256) for _ in range(4)]
        """) == []


def test_instance_method_calls_are_clean():
    """Methods on a *seeded instance* must not be confused with the
    module-level singleton."""
    assert det("repro.apps.instance", """\
        import random
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(16))
        rng.shuffle(list(data))
        """) == []


def test_real_compute_module_is_clean():
    assert check("DET001", "repro.apps.compute") == []
