"""Address-space layout of the IR interpreter.

The IR-level interpreter (:mod:`repro.ir.interp`) executes programs in
one flat 64-bit address space with fixed regions for globals, frame
locals, and formal parameters; this module fixes those regions and the
word arithmetic, so any other executor of the same programs (such as a
simulator of the selected instructions) can share them and compare
results address for address.
"""

from __future__ import annotations

__all__ = [
    "WORD_SIZE",
    "GLOBAL_BASE",
    "FRAME_BASE",
    "ARG_BASE",
    "global_address",
    "local_address",
    "formal_address",
    "wrap",
]

#: Size of one machine word in bytes.
WORD_SIZE = 8

#: Base address of the global data segment.
GLOBAL_BASE = 0x0001_0000

#: Base address of the current frame's local slots.
FRAME_BASE = 0x0010_0000

#: Base address of the current frame's incoming-argument slots.
ARG_BASE = 0x0020_0000

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def wrap(value: int) -> int:
    """Wrap *value* to a signed 64-bit integer (two's complement)."""
    value &= _MASK
    if value & _SIGN:
        value -= 1 << 64
    return value


def global_address(slot: int) -> int:
    """Address of global slot *slot*."""
    return GLOBAL_BASE + slot * WORD_SIZE


def local_address(slot: int, frame: int = 0) -> int:
    """Address of local slot *slot* in frame number *frame*."""
    return FRAME_BASE + frame * 0x1000 + slot * WORD_SIZE


def formal_address(slot: int, frame: int = 0) -> int:
    """Address of formal-parameter slot *slot* in frame number *frame*."""
    return ARG_BASE + frame * 0x1000 + slot * WORD_SIZE
