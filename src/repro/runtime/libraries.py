"""Message-passing library profiles.

Figure 1 of the paper compares a portable buffered library (PVM)
against the fastest vendor/third-party libraries (``libsm.a`` on the
T3D, ``libnx.a`` under SUNMOS on the Paragon).  The differences that
matter for throughput are software, not hardware:

* a *per-message* software overhead (protocol, matching, system calls)
  that dominates small messages;
* extra copies through system buffers (PVM buffers on both sides);
* whether the library can skip packing for contiguous data (low-level
  libraries can; PVM's pack/unpack API cannot);
* fragmentation: long messages are carved into protocol fragments,
  each paying a (smaller) per-fragment cost.

A :class:`LibraryProfile` is pure data consumed by the runtime engine.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LibraryProfile",
    "pvm_profile",
    "pvm3_profile",
    "lowlevel_profile",
    "packing_profile",
]


@dataclass(frozen=True)
class LibraryProfile:
    """Software costs of one message-passing library.

    Attributes:
        name: Display name.
        per_message_ns: Fixed cost per message (both sides combined).
        per_fragment_ns: Fixed cost per protocol fragment.
        fragment_bytes: Maximum fragment carried by the transport.
        system_buffer_copies: Extra contiguous copies through library
            system buffers (PVM: one per side -> 2).
        pack_even_contiguous: Whether contiguous data still makes a
            trip through pack/unpack buffers.
        supports_chained: Whether the library exposes the machine's
            chained/deposit path at all (only low-level interfaces do).
    """

    name: str
    per_message_ns: float
    per_fragment_ns: float = 0.0
    fragment_bytes: int = 1 << 62
    system_buffer_copies: int = 0
    pack_even_contiguous: bool = True
    supports_chained: bool = False

    def fragments(self, nbytes: int) -> int:
        """Protocol fragments a message of ``nbytes`` is carved into."""
        return -(-nbytes // self.fragment_bytes)

    def overhead_ns(self, nbytes: int) -> float:
        """Software cost of one message: per-message plus per-fragment."""
        return self.per_message_ns + self.fragments(nbytes) * self.per_fragment_ns


def pvm_profile() -> LibraryProfile:
    """The vendor-tuned PVM used for Figure 1's upper curves.

    Buffered send/receive semantics: data is packed into PVM buffers,
    shipped, and unpacked — plus a visible per-message protocol cost.
    """
    return LibraryProfile(
        name="PVM",
        per_message_ns=120_000.0,
        per_fragment_ns=6_000.0,
        fragment_bytes=16384,
        system_buffer_copies=2,
        pack_even_contiguous=True,
        supports_chained=False,
    )


def pvm3_profile() -> LibraryProfile:
    """Stock Cray PVM3: the paragraph under Table 6.

    "Due to the constant overhead for sending a message in standard
    message passing libraries like PVM, the buffer packing numbers
    decrease drastically" — FEM drops to ~2 MB/s, FFT to ~6, SOR ~25.
    """
    return LibraryProfile(
        name="PVM3",
        per_message_ns=400_000.0,
        per_fragment_ns=10_000.0,
        fragment_bytes=4096,
        system_buffer_copies=2,
        pack_even_contiguous=True,
        supports_chained=False,
    )


def packing_profile() -> LibraryProfile:
    """Hand-coded buffer packing over the low-level transport.

    This is the "buffer-packing" arm of the paper's Figures 7/8 and
    Tables 5/6: the gather/scatter copies of ``xC1 o (...) o 1Cy`` are
    always performed (that is the strategy under test), but without
    PVM's protocol overheads or system-buffer detours.
    """
    return LibraryProfile(
        name="buffer-packing",
        per_message_ns=10_000.0,
        per_fragment_ns=0.0,
        system_buffer_copies=0,
        pack_even_contiguous=True,
        supports_chained=False,
    )


def lowlevel_profile() -> LibraryProfile:
    """The fastest semantics-restricted path (libsm.a / SUNMOS libnx).

    Receives posted before sends, user-managed cache consistency, no
    intermediate buffering; exposes put/get so chained transfers are
    possible.
    """
    return LibraryProfile(
        name="low-level",
        per_message_ns=8_000.0,
        per_fragment_ns=0.0,
        system_buffer_copies=0,
        pack_even_contiguous=False,
        supports_chained=True,
    )
