"""A kernel that remaps a page while its plaintext is live.

The kernel legally forces a page out to ciphertext, keeps a copy of
that ciphertext in a second frame, lets the victim decrypt the page
back into its original frame, and then remaps the page onto the copy.
The old frame must be sealed before the victim reads the new one: a
clean page then relocates legally, and a page the victim wrote since
the copy was taken is a rollback, caught as a freshness violation.
"""

from repro.apps.secrets import SECRET, SecretHolder, SecretWriter
from repro.attacks.base import Attack
from repro.core.errors import FreshnessViolation
from repro.machine import Machine

PAGE = 4096


def _victim(program_cls, argv):
    machine = Machine.build()
    machine.register(program_cls, cloaked=True)
    victim = machine.spawn(program_cls.name, argv)
    machine.run_until_output(victim.pid, b"ready\n")
    return machine, victim


def _copy_ciphertext(machine, victim, vpn):
    """Force the page out to ciphertext (legal) and copy it to a new
    frame; returns (original frame, copy frame)."""
    ciphertext = Attack.kernel_read(machine, victim, vpn << 12, PAGE)
    assert SECRET[:16] not in ciphertext
    original = dict(victim.aspace.mapped_pages())[vpn]
    copy = machine.alloc.alloc()
    machine.phys.write_frame(copy, ciphertext)
    return original, copy


def _plaintext_in(frame):
    return lambda m: m.vmm.metadata.plaintext_in_frame(frame) is not None


def test_clean_relocation_seals_the_old_frame():
    machine, victim = _victim(SecretHolder, ("12",))
    vpn = victim.runtime.program.secret_vaddr >> 12
    old, new = _copy_ciphertext(machine, victim, vpn)
    machine.run(until=_plaintext_in(old))  # victim decrypts into old
    victim.aspace.map_page(vpn, new, writable=True)
    machine.run(until=_plaintext_in(new))  # victim reads through new

    spare_vpn = 0x7F000
    victim.aspace.map_page(spare_vpn, old, writable=False)
    seen = Attack.kernel_read(machine, victim, spare_vpn << 12, PAGE)
    victim.aspace.unmap_page(spare_vpn)
    assert SECRET[:16] not in seen

    final = Attack.finish(machine, victim)
    assert machine.violations == []
    assert "intact" in final


def test_dirty_relocation_is_a_detected_rollback():
    machine, victim = _victim(SecretWriter, ("6",))
    vpn = victim.runtime.program.secret_vaddr >> 12
    old, stale = _copy_ciphertext(machine, victim, vpn)
    # The victim decrypts the page back and writes its next version.
    printed = machine.kernel.console.output_of(victim.pid).count(b"v")
    machine.run_until_output(victim.pid, b"v%d\n" % (printed + 1))
    victim.aspace.map_page(vpn, stale, writable=True)

    final = Attack.finish(machine, victim)
    assert "ROLLBACK OBSERVED" not in final
    assert any(isinstance(v.error, FreshnessViolation)
               for v in machine.violations), machine.violations
