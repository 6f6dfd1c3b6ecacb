"""Secret-named values in TCB output paths, caught by SEC002's flow.

Secret-named ``repro.core`` parameters (``enc_key``, ``master``,
``plaintext``, ...), locals and attributes are taint sources, and
``__repr__``/``__str__`` returns are log sinks, so the name-based leaks
are flow findings too.
"""

from repro.analysis.rules.secret_flow import SecretFlowRule

from tests.analysis.conftest import check

RULE = SecretFlowRule()


def test_print_of_key_is_flagged(tree):
    mod = tree.module("repro/core/leaky.py", """\
        def debug(enc_key):
            print(enc_key)
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "'print'" in findings[0].message


def test_fstring_of_keystream_is_flagged(tree):
    mod = tree.module("repro/core/fleaky.py", """\
        class Cipher:
            def __str__(self):
                return f"cipher state: {self._keystream}"
        """)
    findings = check(RULE, mod)
    assert len(findings) == 1
    assert "__str__" in findings[0].message


def test_logging_of_plaintext_is_flagged(tree):
    mod = tree.module("repro/core/logleak.py", """\
        def audit(log, plaintext):
            log.warning(plaintext)
        """)
    assert len(check(RULE, mod)) == 1


def test_percent_format_of_master_is_flagged(tree):
    mod = tree.module("repro/core/pctleak.py", """\
        class Domain:
            def __repr__(self):
                return "boot secret=%r" % (self._master,)
        """)
    assert len(check(RULE, mod)) == 1


def test_secret_named_attributes_and_locals_are_flagged(tree):
    mod = tree.module("repro/core/fieldleak.py", """\
        class Table:
            def dump(self, log, i):
                print(self._plaintext)
                log.info(self.enc_key)
                key = self._table[i]
                print(key)
        """)
    findings = check(RULE, mod)
    assert sorted(f.line for f in findings) == [3, 4, 6]


def test_secret_named_reads_reach_log_sinks_only(tree):
    """A name alone does not make a frame write a leak: metadata kept
    in ``_plaintext_frames`` is bookkeeping, not plaintext."""
    mod = tree.module("repro/core/frames.py", """\
        class Store:
            def flush(self, phys, gpfn):
                md = self._plaintext_frames.get(gpfn)
                phys.write_frame(gpfn, md.cached_ciphertext)
        """)
    assert check(RULE, mod) == []


def test_secret_string_from_plain_function_is_flagged_at_its_sink(tree):
    """The named gap: a plain function that renders a secret into the
    string it returns is not itself a finding; the first sink the string
    reaches is."""
    mod = tree.module("repro/core/banner.py", """\
        def banner(master):
            return "boot secret=%r" % (master,)

        def boot(domain):
            text = banner(domain.derive_key(0))
            print(text)
        """)
    findings = check(RULE, mod)
    assert [f.context for f in findings] == ["boot"]


def test_word_boundaries_do_not_overmatch(tree):
    """'keyboard' and 'lineage_id' are not secrets; and secret names
    outside output sinks are ordinary code."""
    mod = tree.module("repro/core/finecrypto.py", """\
        def derive(master, keyboard, lineage_id):
            enc_key = master + b"x"
            print(f"domain {lineage_id} via {keyboard!r}")
            return enc_key
        """)
    assert check(RULE, mod) == []


def test_outside_core_is_out_of_scope(tree):
    """Apps may print what they like — their pages are cloaked; the
    rule guards the TCB's own output paths."""
    mod = tree.module("repro/apps/printer.py", """\
        def show(secret_key):
            print(secret_key)
        """)
    assert check(RULE, mod) == []
