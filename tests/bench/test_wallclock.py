"""The virtual-cycle pin: determinism, report shape, drift check."""

import json

import pytest

from repro.bench import wallclock


@pytest.fixture(scope="module")
def report():
    # One reduced pass shared by the whole module.
    return wallclock.run(only=["forkstress", "fileio-protected"])


class TestReportShape:
    def test_schema_and_keys(self, report):
        assert report["schema"] == 2
        assert set(report) == {"schema", "workloads", "cycle_hash"}
        assert set(report["workloads"]) == {"forkstress", "fileio-protected"}
        for entry in report["workloads"].values():
            assert set(entry) == {"cycles"}  # cycles only: no host time
            assert entry["cycles"] > 0

    def test_cycle_hash_is_pure_function_of_cycles(self, report):
        cycles = {name: entry["cycles"]
                  for name, entry in report["workloads"].items()}
        assert report["cycle_hash"] == wallclock.cycle_hash(cycles)


class TestDeterminism:
    def test_cycles_stable_across_runs(self, report):
        again = wallclock.run(only=["forkstress"])
        assert (again["workloads"]["forkstress"]["cycles"]
                == report["workloads"]["forkstress"]["cycles"])


class TestCheck:
    def test_roundtrip_passes(self, report, tmp_path):
        path = tmp_path / "bench.json"
        wallclock.write_report(report, path)
        assert json.loads(path.read_text())["cycle_hash"] \
            == report["cycle_hash"]
        assert wallclock.check_against(report, path) == []

    def test_drift_fails_and_names_workload(self, report, tmp_path):
        drifted = json.loads(json.dumps(report))
        drifted["cycle_hash"] = "0" * 64
        drifted["workloads"]["forkstress"]["cycles"] += 1
        path = tmp_path / "drifted.json"
        path.write_text(json.dumps(drifted))
        problems = wallclock.check_against(report, path)
        assert problems
        assert any("forkstress" in line for line in problems)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            wallclock.run(only=["no-such-workload"])


class TestCLI:
    def test_check_and_subset_runs_never_rewrite_the_pin(
            self, report, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        pin = tmp_path / "pin.json"
        wallclock.write_report(report, pin)
        before = pin.read_text()
        assert wallclock.main(["--workloads", "forkstress",
                               "--check", str(pin)]) == 0
        assert wallclock.main(["--workloads", "forkstress"]) == 0
        assert pin.read_text() == before
        assert not (tmp_path / wallclock.DEFAULT_OUT).exists()
        assert "wrote" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--warmup", "0"], ["--repeats", "1"], ["--out", "x.json"],
    ])
    def test_removed_timing_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            wallclock.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
