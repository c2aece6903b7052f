"""Exception hierarchy for the eBPF substrate.

Every failure mode of the toolchain (assembling, verifying, loading,
executing) raises a distinct exception type so callers can react precisely,
mirroring the separate errno values returned by the ``bpf(2)`` syscall.
"""

from __future__ import annotations


class BpfError(Exception):
    """Base class for all eBPF-related errors."""


class AsmError(BpfError):
    """Raised when assembly text cannot be translated into instructions."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class EncodingError(BpfError):
    """Raised when an instruction cannot be encoded or decoded."""


class LinkError(BpfError):
    """Raised when an assembled source cannot be linked into a program.

    Unresolvable map references and map declarations that contradict a
    provided map land here — the moral equivalent of ``ld``
    diagnostics, kept separate from
    :class:`AsmError` (text that never parsed) and
    :class:`VerifierError` (a linked program that is unsafe).
    """


class VerifierError(BpfError):
    """Raised when the static verifier rejects a program.

    The kernel verifier prints a log and returns ``EACCES``/``EINVAL``;
    we carry the offending instruction index instead.
    """

    def __init__(self, message: str, pc: int | None = None):
        self.pc = pc
        if pc is not None:
            message = f"insn {pc}: {message}"
        super().__init__(message)


class VmFault(BpfError):
    """Raised on a runtime fault inside the virtual machine.

    A verified program should never fault; a :class:`VmFault` therefore
    indicates either a verifier gap or an unverified program being run.
    """

    def __init__(self, message: str, pc: int | None = None):
        self.pc = pc
        if pc is not None:
            message = f"pc {pc}: {message}"
        super().__init__(message)


class MemoryFault(VmFault):
    """Out-of-bounds or permission-violating guest memory access."""


class HelperError(BpfError):
    """Raised when a helper is invoked with invalid runtime arguments."""


class MapError(BpfError):
    """Raised on invalid map operations (bad key/value size, full map)."""
