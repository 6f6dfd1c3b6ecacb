"""SEC002/SEC003: interprocedural secret-flow enforcement.

A value derived from key material, decrypted page contents or a
secret-named ``repro.core`` parameter must not reach a guest-visible
surface, and a secret-named ``repro.core`` local or attribute must not
reach a log sink, through any chain of assignments, helper calls, containers or
string formatting.  Both rules ride on the shared call graph and taint
engine in :mod:`repro.analysis.flow`; see :mod:`.taint` for the
source/sanitizer/sink model.

* ``SEC002`` — a secret escapes to a guest-visible sink: a
  ``print``/``logging`` call, a ``__repr__``/``__str__`` return, an
  exception message, a physical-frame write outside the cloak
  engine's encrypt path, or a hypercall return payload.
* ``SEC003`` — secret-derived plaintext is persisted unsealed: it
  reaches ``write_block`` without passing through ``seal_message`` /
  ``encrypt_page``.

Scope is a per-package *sink policy* (``SINK_POLICY`` in the taint
engine), not a binary checked/unchecked split: the TCB and hardware
are held to every sink kind, while ``repro.guestos`` and
``repro.attacks`` — which hold captured or in-transit secret-derived
buffers legitimately — are barred from *re-exposing* them through log
and persist sinks.

Deliberate flows (the decrypt-in-place frame write, the protected
hypercall reply channel) carry inline ``repro: allow(...)`` comments
at their sites, so the rule's job is to keep *every other* path shut.
"""

from typing import Iterator, Sequence

from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.taint import (KIND_FRAME, KIND_HC_RETURN, KIND_LOG,
                                       KIND_PERSIST, KIND_RAISE,
                                       sink_kinds_for)
from repro.analysis.rules.base import Rule


class _TaintRule(Rule):
    """Shared plumbing: re-emit the project's taint findings of this
    rule's sink kinds through the standard Finding machinery."""

    kinds: Sequence[str] = ()

    def check(self, mod: ModuleInfo, project) -> Iterator:
        wanted = [k for k in self.kinds if k in sink_kinds_for(mod.module)]
        if not wanted:
            return
        for leak in project.taint.findings_for(mod, wanted):
            yield self.finding(mod, leak.node, leak.message)


class SecretFlowRule(_TaintRule):
    rule_id = "SEC002"
    name = "secret-flow"
    summary = ("no value derived from key material or decrypted page "
               "contents may reach a guest-visible sink (print/log, "
               "__repr__/__str__, exception message, raw frame write, "
               "hypercall return) — interprocedural, over the shared "
               "call graph")
    kinds = (KIND_LOG, KIND_RAISE, KIND_FRAME, KIND_HC_RETURN)


class UnsealedPersistRule(_TaintRule):
    rule_id = "SEC003"
    name = "plaintext-persisted-unsealed"
    summary = ("secret-derived plaintext must pass through seal_message/"
               "encrypt_page before any write_block — cloaked data on "
               "disk is ciphertext, always")
    kinds = (KIND_PERSIST,)
