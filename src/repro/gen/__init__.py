"""repro.gen — seeded guest-program generation + differential fuzzing.

Scenario diversity used to be 41 hand-written programs; this package
turns the differential oracle (:mod:`repro.faults.oracle`) into a
fuzzer.  A :class:`~repro.gen.spec.GenSpec` plus an integer seed fully
determines a *self-checking* guest program — a weighted mix of file
I/O, mmap/brk, fork/exec trees, pipes, signal storms and secret-marker
placement over the whole :mod:`repro.apps.program` surface — and every
generated program runs native-vs-cloaked under the oracle's judge
(:func:`repro.faults.oracle.judge`: native sanity, hygiene,
transparency, sampled determinism).  Any failure is replayable from
``(seed, spec)`` alone, and a failure of the pair itself shrinks to a
locally minimal reproducer (:mod:`repro.gen.shrink`).

Layers::

    spec.py       GenSpec: the (seed, spec) replay contract
    pool.py       resource pool: keeps generated fds/paths/maps well-formed
    generator.py  structural emit -> drop -> repair -> model -> OpPlan,
                  and the program's oracle AppSpec (app_spec_for)
    driver.py     fuzz campaigns over the differential oracle
    shrink.py     greedy delta-minimisation of failing (seed, spec) pairs

Entry point: ``python -m repro fuzz`` (see docs/FUZZING.md).
"""

from repro.gen.spec import GenSpec, PRESETS, PRESET_ROTATION, derive_seed
from repro.gen.generator import OpPlan, app_spec_for, build_program, generate
from repro.gen.driver import (CampaignReport, SlotResult, parse_replay_token,
                              replay_token, run_campaign, run_slot)
from repro.gen.shrink import ShrinkResult, shrink

__all__ = [
    "GenSpec",
    "PRESETS",
    "PRESET_ROTATION",
    "derive_seed",
    "OpPlan",
    "app_spec_for",
    "build_program",
    "generate",
    "CampaignReport",
    "SlotResult",
    "parse_replay_token",
    "replay_token",
    "run_campaign",
    "run_slot",
    "ShrinkResult",
    "shrink",
]
