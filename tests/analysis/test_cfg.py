"""Golden tests for the statement-granularity CFG (post-dominators)
that MMU001 stands on.

Each test parses a small function, locates statements by line number,
and asserts edges and post-dominance facts a human can verify by eye
against the source layout.  Line 1 is always the ``def`` line.
"""

import ast
import textwrap

import pytest

from repro.analysis.flow.cfg import build_cfg


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def block_at(cfg, lineno):
    """Block carrying the statement that *starts* at ``lineno``."""
    for block in cfg.blocks:
        if block.stmt is not None and block.stmt.lineno == lineno:
            return block.index
    raise AssertionError(f"no statement starts at line {lineno}")


# ----------------------------------------------------------------------
# shape basics
# ----------------------------------------------------------------------

def test_straight_line_chain():
    cfg = cfg_of("""\
        def f():
            a = 1
            b = 2
            return a + b
        """)
    a, b, ret = block_at(cfg, 2), block_at(cfg, 3), block_at(cfg, 4)
    assert cfg.postdominates(ret, a) and cfg.postdominates(b, a)


def test_if_diamond_branch_labels_and_join():
    cfg = cfg_of("""\
        def f(c):
            if c:
                a = 1
            else:
                a = 2
            return a
        """)
    test = block_at(cfg, 2)
    then, other, join = block_at(cfg, 3), block_at(cfg, 5), block_at(cfg, 6)
    assert sorted(cfg.successors(test)) == sorted([then, other])
    # Neither arm post-dominates the test; the join post-dominates
    # everything.
    assert not cfg.postdominates(then, test)
    assert not cfg.postdominates(other, test)
    assert cfg.postdominates(join, test)
    assert cfg.postdominates(join, then) and cfg.postdominates(join, other)


def test_early_return_breaks_postdominance():
    """The exact shape MMU001 exists to catch: a statement after a
    conditional return does NOT lie on every path."""
    cfg = cfg_of("""\
        def f(c):
            mutate()
            if c:
                return
            invalidate()
        """)
    mutate, inval = block_at(cfg, 2), block_at(cfg, 5)
    assert not cfg.postdominates(inval, mutate)
    # Hoisting the invalidation above the return restores it.
    cfg2 = cfg_of("""\
        def f(c):
            mutate()
            invalidate()
            if c:
                return
        """)
    assert cfg2.postdominates(block_at(cfg2, 3), block_at(cfg2, 2))


def test_nested_loops_back_edges_and_dominance():
    cfg = cfg_of("""\
        def f(rows):
            for row in rows:
                for cell in row:
                    touch(cell)
                after_inner()
            after_outer()
        """)
    outer, inner = block_at(cfg, 2), block_at(cfg, 3)
    body, after_in, after_out = (block_at(cfg, 4), block_at(cfg, 5),
                                 block_at(cfg, 6))
    # Back edges: body -> inner header, after_inner -> outer header.
    assert inner in cfg.successors(body)
    assert outer in cfg.successors(after_in)
    # The loop body is NOT on every path (zero-iteration), but the
    # statement after the loop is.
    assert not cfg.postdominates(body, outer)
    assert cfg.postdominates(after_out, outer)
    assert cfg.postdominates(after_out, body)


def test_break_escapes_loop_postdominance():
    cfg = cfg_of("""\
        def f(xs):
            for x in xs:
                if x:
                    break
                step(x)
            done()
        """)
    header, step, done = block_at(cfg, 2), block_at(cfg, 5), block_at(cfg, 6)
    brk = block_at(cfg, 4)
    # break jumps straight to done(): step() is not on the break path.
    assert done in cfg.successors(brk)
    assert not cfg.postdominates(step, brk)
    assert cfg.postdominates(done, header)


def test_while_true_still_has_false_edge():
    """Constant tests are not folded: the extra path only weakens
    post-dominance, never strengthens it (documented posture)."""
    cfg = cfg_of("""\
        def f():
            while True:
                spin()
        """)
    header = block_at(cfg, 2)
    assert cfg.exit in cfg.successors(header)


# ----------------------------------------------------------------------
# try / except / finally
# ----------------------------------------------------------------------

def test_except_handler_reachable_via_exc_edge():
    cfg = cfg_of("""\
        def f():
            try:
                risky()
            except ValueError:
                recover()
            after()
        """)
    try_block = block_at(cfg, 2)
    risky, recover, after = (block_at(cfg, 3), block_at(cfg, 5),
                             block_at(cfg, 6))
    handler = [b.index for b in cfg.blocks if b.kind == "handler"]
    assert set(handler) <= set(cfg.successors(try_block)), \
        "try block must have an edge to its handler"
    # The body is not on the exceptional path, so it cannot post-
    # dominate the try statement; the join after the handler does.
    assert not cfg.postdominates(risky, try_block)
    assert cfg.postdominates(after, try_block)
    assert cfg.postdominates(after, recover)


def test_finally_funnel_postdominates_try_body_despite_return():
    cfg = cfg_of("""\
        def f(c):
            try:
                work()
                if c:
                    return
            finally:
                cleanup()
            after()
        """)
    work, cleanup = block_at(cfg, 3), block_at(cfg, 7)
    after = block_at(cfg, 8)
    # cleanup() runs on the return path AND the fallthrough path.
    assert cfg.postdominates(cleanup, work)
    # after() does not: the return path skips it.
    assert not cfg.postdominates(after, work)


def test_explicit_raise_routes_to_handler():
    cfg = cfg_of("""\
        def f():
            try:
                raise ValueError()
            except ValueError:
                handled()
            after()
        """)
    raise_block = block_at(cfg, 3)
    handled = block_at(cfg, 5)
    # Only the handler continues from the raise.
    handler = [b.index for b in cfg.blocks if b.kind == "handler"]
    assert list(cfg.successors(raise_block)) == handler
    assert cfg.postdominates(handled, raise_block)


def test_with_block_is_sequential():
    cfg = cfg_of("""\
        def f(lock):
            with lock:
                inner()
            after()
        """)
    w, inner, after = block_at(cfg, 2), block_at(cfg, 3), block_at(cfg, 4)
    assert cfg.postdominates(inner, w)
    assert cfg.postdominates(after, inner)


# ----------------------------------------------------------------------
# node attribution (the MMU001 regression)
# ----------------------------------------------------------------------

def test_enclosing_block_header_vs_body():
    """A call in an ``if`` *body* must map to the body statement's
    block, not the header's — collapsing them made post-dominance
    vacuously true and silenced MMU001."""
    cfg = cfg_of("""\
        def f(c):
            if cond(c):
                body_call()
        """)
    calls = {node.func.id: node
             for node in ast.walk(cfg.func)
             if isinstance(node, ast.Call)}
    header_block = cfg.enclosing_block(calls["cond"])
    body_block = cfg.enclosing_block(calls["body_call"])
    assert header_block == block_at(cfg, 2)
    assert body_block == block_at(cfg, 3)
    assert header_block != body_block


def test_enclosing_block_for_loop_iter_vs_body():
    cfg = cfg_of("""\
        def f(xs):
            for x in gen(xs):
                use(x)
        """)
    calls = {node.func.id: node
             for node in ast.walk(cfg.func)
             if isinstance(node, ast.Call)}
    assert cfg.enclosing_block(calls["gen"]) == block_at(cfg, 2)
    assert cfg.enclosing_block(calls["use"]) == block_at(cfg, 3)


def test_build_cfg_rejects_bodyless_nodes():
    with pytest.raises(TypeError):
        build_cfg(ast.parse("x = 1").body[0])
