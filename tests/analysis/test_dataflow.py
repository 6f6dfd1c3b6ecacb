"""The path-sensitive state tracker behind STATE001.

The AttrStateAnalysis cases mirror the idioms STATE001 must understand
in ``repro.core``.
"""

import ast
import textwrap

from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.dataflow import AttrStateAnalysis, StateLattice

STATES = ("FRESH", "ENCRYPTED", "PLAINTEXT_CLEAN", "PLAINTEXT_DIRTY")

LATTICE = StateLattice(
    attr="state",
    enum_names={"CloakState"},
    values=STATES,
    constructors={"PageMetadata": "FRESH"},
)


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def transitions_of(source):
    analysis = AttrStateAnalysis(cfg_of(source), LATTICE)
    return analysis.transitions


# ----------------------------------------------------------------------
# AttrStateAnalysis: the STATE001 engine
# ----------------------------------------------------------------------

def test_guard_refinement_tracks_prior_state():
    (t,) = transitions_of("""\
        def f(md):
            if md.state is CloakState.FRESH:
                md.state = CloakState.PLAINTEXT_DIRTY
        """)
    assert t.key == "md"
    assert t.prior == frozenset({"FRESH"})
    assert t.target == "PLAINTEXT_DIRTY"


def test_constructor_postcondition_tracks_object():
    (t,) = transitions_of("""\
        def f():
            md = PageMetadata(1, 2, 3)
            md.state = CloakState.ENCRYPTED
        """)
    assert t.prior == frozenset({"FRESH"})
    assert t.target == "ENCRYPTED"


def test_membership_guard_narrows_to_set():
    (t,) = transitions_of("""\
        def f(md):
            if md.state in (CloakState.PLAINTEXT_CLEAN,
                            CloakState.PLAINTEXT_DIRTY):
                md.state = CloakState.ENCRYPTED
        """)
    assert t.prior == frozenset({"PLAINTEXT_CLEAN", "PLAINTEXT_DIRTY"})


def test_negated_guard_refines_false_branch():
    (t,) = transitions_of("""\
        def f(md):
            if md.state is not CloakState.FRESH:
                return
            md.state = CloakState.ENCRYPTED
        """)
    # Falling through the early return means the `is not` test was
    # false, i.e. the state IS FRESH.
    assert t.prior == frozenset({"FRESH"})


def test_predicate_binding_flows_through_boolean():
    (t,) = transitions_of("""\
        def f(md):
            was_fresh = md.state is CloakState.FRESH
            if was_fresh:
                md.state = CloakState.PLAINTEXT_DIRTY
        """)
    assert t.prior == frozenset({"FRESH"})


def test_infeasible_branch_is_pruned():
    transitions = transitions_of("""\
        def f(md):
            if md.state is CloakState.FRESH:
                if md.state is CloakState.ENCRYPTED:
                    md.state = CloakState.PLAINTEXT_CLEAN
        """)
    # FRESH ∩ ENCRYPTED = ∅: the inner body is statically unreachable,
    # so no transition is observed there at all.
    assert transitions == []


def test_call_havocs_tracked_object():
    transitions = transitions_of("""\
        def f(md):
            if md.state is CloakState.FRESH:
                helper(md)
                md.state = CloakState.PLAINTEXT_CLEAN
        """)
    # helper(md) may have transitioned md arbitrarily; the write's
    # prior is unknown, so nothing is reported (humble at boundaries).
    assert transitions == []


def test_method_call_on_object_havocs_it():
    transitions = transitions_of("""\
        def f(md):
            if md.state is CloakState.FRESH:
                md.refresh()
                md.state = CloakState.PLAINTEXT_CLEAN
        """)
    assert transitions == []


def test_join_unions_possible_states():
    (t,) = transitions_of("""\
        def f(md, c):
            if md.state is CloakState.FRESH:
                pass
            elif md.state is CloakState.ENCRYPTED:
                pass
            else:
                return
            md.state = CloakState.PLAINTEXT_DIRTY
        """)
    assert t.prior == frozenset({"FRESH", "ENCRYPTED"})


def test_untracked_parameter_reports_nothing():
    transitions = transitions_of("""\
        def f(md):
            md.state = CloakState.ENCRYPTED
        """)
    # No guard, no constructor: prior is ⊤ (trust the caller).
    assert transitions == []


def test_and_guard_refines_both_conjuncts():
    (t,) = transitions_of("""\
        def f(md, other):
            if md.state is CloakState.FRESH and other.state is \\
                    CloakState.ENCRYPTED:
                md.state = CloakState.ENCRYPTED
        """)
    assert t.prior == frozenset({"FRESH"})
