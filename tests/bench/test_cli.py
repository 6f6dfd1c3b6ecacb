"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import DESCRIPTIONS, _experiments, main
from repro.machine import Machine

#: Mistyped options and options missing their value: each must stop at
#: parsing, before any machine runs.
PARSE_ERRORS = [
    ["serve", "--shard", "1"],
    ["serve", "--requests"],
    ["fuzz", "--count", "1", "--no-shrnk"],
    ["fuzz", "--seed"],
    ["fuzz", "--replay", "garbage"],
    ["faults", "--matrix-only", "--sed", "3"],
    ["--bogus-flag", "r-t1"],
    ["trace", "mb-read4k", "--frobnicate"],
]


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in DESCRIPTIONS:
            assert key in out

    def test_every_experiment_has_description_and_runner(self):
        experiments = _experiments()
        assert set(experiments) == set(DESCRIPTIONS)

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["r-zz"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_single_experiment_runs(self, capsys):
        assert main(["r-t1"]) == 0
        out = capsys.readouterr().out
        assert "R-T1" in out
        assert "zero-fill" in out

    def test_selection_is_case_insensitive(self, capsys):
        assert main(["R-T1"]) == 0

    @pytest.mark.parametrize("argv", PARSE_ERRORS, ids=" ".join)
    def test_bad_option_exits_2_before_any_run(self, argv, monkeypatch,
                                               capsys):
        def no_workload(machine, *args, **kwargs):
            raise AssertionError("a machine ran")

        monkeypatch.setattr(Machine, "run", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: python -m repro")
