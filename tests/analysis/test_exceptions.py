"""ERR001: broad handlers and the security-exception hierarchy."""

from tests.analysis.invariants import check


def err(module, source):
    return check("ERR001", module, source)


def test_bare_except_is_flagged():
    findings = err("repro.guestos.sloppy", """\
        def run(step):
            try:
                step()
            except:
                return None
        """)
    assert len(findings) == 1
    assert "bare 'except:'" in findings[0][1]


def test_broad_except_exception_is_flagged():
    findings = err("repro.core.swallow", """\
        def guard(step):
            try:
                step()
            except Exception as exc:
                return str(exc)
        """)
    assert len(findings) == 1
    assert "except Exception" in findings[0][1]


def test_broad_except_in_tuple_is_flagged():
    assert len(err("repro.core.tupled", """\
        def guard(step):
            try:
                step()
            except (ValueError, BaseException):
                return None
        """)) == 1


def test_reraising_broad_handler_is_clean():
    """A handler that re-raises cannot swallow a violation."""
    assert err("repro.core.cleanup", """\
        def guard(step, undo):
            try:
                step()
            except Exception:
                undo()
                raise
        """) == []


def test_conditional_reraise_is_flagged():
    """A bare ``raise`` on one path only: the other path swallows."""
    findings = err("repro.core.strictish", """\
        def guard(step, strict):
            try:
                step()
            except Exception:
                if strict:
                    raise
                return None
        """)
    assert len(findings) == 1
    assert "except Exception" in findings[0][1]


def test_specific_handlers_are_clean():
    assert err("repro.guestos.fine", """\
        from repro.hw.phys import OutOfMemoryError

        def alloc(allocator):
            try:
                return allocator.alloc()
            except OutOfMemoryError:
                return None
            except (ValueError, KeyError):
                return None
        """) == []


def test_rogue_violation_class_is_flagged():
    findings = err("repro.attacks.rogue", """\
        class SneakyViolation(RuntimeError):
            pass
        """)
    assert len(findings) == 1
    assert "core.errors hierarchy" in findings[0][1]


def test_violation_derived_from_core_errors_is_clean():
    assert err("repro.core.extra", """\
        from repro.core.errors import IntegrityViolation

        class ChannelViolation(IntegrityViolation):
            pass

        class NestedViolation(ChannelViolation):
            pass
        """) == []


def test_errors_module_itself_is_exempt():
    assert check("ERR001", "repro.core.errors") == []
