"""Seed stability: pinned (seed, spec) -> listing digests.

The replay contract — any failure reproduces from ``(seed, spec)``
alone — only holds while generation stays a pure function of that
pair.  ``golden_listings.json`` pins one canonical ``(seed, preset)``
per preset to its listing digest, so any change to emission order,
baking or op rendering shows up as an explicit diff instead of
silently orphaning every replay token in old failure reports.

The file is data, not output: nothing regenerates it.  After an
*intentional* generator change, the failure message prints the fresh
record to paste into it.
"""

import json
from pathlib import Path

from repro.gen.generator import generate
from repro.gen.spec import PRESETS, PRESET_ROTATION, derive_seed

GOLDEN_PATH = Path(__file__).with_name("golden_listings.json")

#: Campaign seed the golden programs derive from.
GOLDEN_SEED = 2026


def snapshot():
    """Freshly generate every golden program's identity."""
    out = {}
    for index, preset in enumerate(PRESET_ROTATION):
        seed = derive_seed(GOLDEN_SEED, index)
        plan = generate(seed, PRESETS[preset])
        out[preset] = {
            "seed": seed,
            "digest": plan.digest,
            "ops": len(plan.ops),
            "structural": plan.structural_count,
            "syscalls": sorted(plan.syscalls),
        }
    return out


def test_listings_match_committed_golden():
    committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    fresh = snapshot()
    assert set(committed) == set(PRESET_ROTATION)
    for preset in PRESET_ROTATION:
        assert fresh[preset] == committed[preset], (
            f"generator output drifted for preset {preset!r}; if the "
            f"change is intentional, replace its record in "
            f"{GOLDEN_PATH.name} with:\n"
            + json.dumps({preset: fresh[preset]}, indent=2, sort_keys=True)
        )
