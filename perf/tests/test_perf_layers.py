import os

import layers
from conftest import PERF_DIR, SRC_DIR


def _modules():
    root = os.path.join(SRC_DIR, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), SRC_DIR)
                yield os.path.splitext(rel)[0].replace(os.sep, ".")


def test_every_simulator_module_has_a_layer():
    unmapped = [m for m in _modules()
                if layers.module_layer(m) == layers.UNMAPPED]
    assert not unmapped, f"add these modules to MODULE_LAYERS: {unmapped}"


def test_a_new_package_is_unmapped_until_listed():
    assert layers.module_layer("repro.newpkg.thing") == layers.UNMAPPED
    assert layers.module_layer("reprox") == layers.UNMAPPED


def test_longest_prefix_wins():
    assert layers.module_layer("repro.hw.tlb") == "hw.mmu"
    assert layers.module_layer("repro.hw.cpu") == "hw.other"
    assert layers.module_layer("repro.core.shim.channels") == "core.shim"
    assert layers.module_layer("repro.core.multishadow") == "core.vmm"
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)


def test_file_classifier_places_repro_perf_and_other_code():
    classify = layers.file_classifier(SRC_DIR, PERF_DIR)
    assert classify(os.path.join(SRC_DIR, "repro", "machine.py")) == "machine"
    assert classify(os.path.join(SRC_DIR, "repro", "hw", "__init__.py")) \
        == "hw.other"
    assert classify(os.path.join(PERF_DIR, "child.py")) == layers.HARNESS
    assert classify("~") is None
    assert classify("/usr/lib/python3/copy.py") is None


def _classify(filename):
    return {"vmm.py": "core.vmm", "gen.py": "gen", "bench.py": "harness"}.get(
        filename)


VMM = ("vmm.py", 1, "enter")
GEN = ("gen.py", 1, "emit")
BENCH = ("bench.py", 1, "main")
BUILTIN = ("~", 0, "<built-in method len>")
STDLIB = ("copy.py", 1, "deepcopy")


def test_builtin_time_is_charged_to_its_callers():
    stats = {
        BENCH: (1, 1, 0.5, 10.0, {}),
        VMM: (1, 1, 2.0, 5.0, {BENCH: (1, 1, 2.0, 5.0)}),
        GEN: (1, 1, 1.0, 3.0, {BENCH: (1, 1, 1.0, 3.0)}),
        BUILTIN: (4, 4, 4.0, 4.0, {VMM: (3, 3, 3.0, 3.0),
                                   GEN: (1, 1, 1.0, 1.0)}),
    }
    totals = layers.rollup(stats, _classify)
    assert totals["core.vmm"] == 2.0 + 3.0
    assert totals["gen"] == 1.0 + 1.0
    assert totals["harness"] == 0.5
    assert sum(totals.values()) == 7.5


def test_standard_library_chains_and_recursion_reach_the_caller():
    # deepcopy recurses into itself through a helper; all of it was
    # done on behalf of the VMM.
    helper = ("copy.py", 2, "_deepcopy_dict")
    stats = {
        VMM: (1, 1, 1.0, 9.0, {}),
        STDLIB: (9, 1, 4.0, 8.0, {VMM: (1, 1, 1.0, 8.0),
                                  helper: (8, 8, 3.0, 6.0)}),
        helper: (8, 8, 2.0, 7.0, {STDLIB: (8, 8, 2.0, 7.0)}),
        BUILTIN: (5, 5, 2.0, 2.0, {helper: (5, 5, 2.0, 2.0)}),
    }
    totals = layers.rollup(stats, _classify)
    assert abs(totals["core.vmm"] - 9.0) < 1e-9
    assert abs(sum(totals.values()) - 9.0) < 1e-9


def test_code_nothing_called_is_harness():
    stats = {STDLIB: (1, 1, 0.25, 0.25, {})}
    assert layers.rollup(stats, _classify)["harness"] == 0.25
