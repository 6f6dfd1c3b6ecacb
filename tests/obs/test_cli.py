"""``python -m repro trace``: argument handling and file outputs."""

import json

import pytest

from repro.__main__ import main
from repro.obs import cli
from repro.obs.export import validate_chrome_trace


class TestTraceCLI:
    def test_roundtrip_writes_valid_outputs(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["trace", "mb-readsec4k", "4", "--cloaked",
                     "--out", str(out), "--jsonl", str(jsonl),
                     "--metrics-out", str(metrics)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "events" in printed and "cycle attribution" in printed
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)
        snap = json.loads(metrics.read_text())
        assert snap["total_events"] == len(lines)

    def test_repeated_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["trace", "mb-read4k", "--cloaked", "--quiet",
                     "--out", str(a)]) == 0
        assert main(["trace", "mb-read4k", "--cloaked", "--quiet",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_native_run_traces_without_cloak_probes(self, tmp_path):
        jsonl = tmp_path / "native.jsonl"
        assert main(["trace", "mb-read4k", "--native", "--quiet",
                     "--jsonl", str(jsonl)]) == 0
        names = {json.loads(line)["name"]
                 for line in jsonl.read_text().splitlines()}
        assert names
        assert not any(name.startswith("cloak.") for name in names)

    def test_microbench_alias_runs_the_suite(self, capsys):
        assert main(["trace", "microbench", "--cloaked", "--quiet"]) == 0
        printed = capsys.readouterr().out
        assert "microbench (cloaked)" in printed

    def test_unknown_program_rejected(self, capsys, monkeypatch):
        def boot(*args):
            raise AssertionError("a machine booted for an unknown program")

        monkeypatch.setattr(cli, "_run_traced", boot)
        assert main(["trace", "no-such-program"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "trace: unknown program 'no-such-program'\n"
        assert captured.out == ""

    def test_key_error_inside_the_run_is_not_an_unknown_program(
            self, capsys, monkeypatch):
        def run(*args):
            raise KeyError("raised by the simulation")

        monkeypatch.setattr(cli, "_run_traced", run)
        with pytest.raises(KeyError, match="raised by the simulation"):
            main(["trace", "mb-read4k", "--quiet"])
        captured = capsys.readouterr()
        assert "unknown program" not in captured.out + captured.err

    def test_missing_program_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--cloaked"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro trace")
        assert "required: program" in err

    def test_unknown_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "mb-read4k", "--frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro trace")
        assert "unrecognized arguments: --frobnicate" in err
