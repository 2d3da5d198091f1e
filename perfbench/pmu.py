"""User-mode instructions retired by the calling thread, from the CPU's counter.

On a shared host, CPU time per operation moves with whatever the
neighbours run on the same core: over consecutive ``udp_loopback``
episodes it ranged 10.9–15.4 µs per delivery while the instructions
retired per delivery stayed within 1.3% (the cycles per instruction
explained 99% of the spread).  The instruction count is read through
``perf_event_open(2)`` for the calling thread, user mode only, which an
unprivileged process may do at the default ``perf_event_paranoid``
level; the benchmark drives each workload from that one thread.  Where
the counter cannot be opened (no PMU in the VM, a stricter paranoid
level, an unknown architecture) :func:`open_counter` returns ``None``
and callers fall back to CPU time.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

__all__ = ["InstructionCounter", "open_counter"]

#: ``perf_event_open`` system call numbers.
_SYSCALL = {"x86_64": 298, "aarch64": 241}

_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_ATTR_SIZE = 128  # >= PERF_ATTR_SIZE_VER0; the tail stays zero
_EXCLUDE_KERNEL = 1 << 5
_EXCLUDE_HV = 1 << 6
_READ_TOTAL_TIME_ENABLED = 1 << 0
_READ_TOTAL_TIME_RUNNING = 1 << 1


class InstructionCounter:
    """An open counter of the calling thread's user-mode instructions."""

    def __init__(self, fd: int) -> None:
        self._fd = fd

    def read(self) -> float:
        """Instructions retired since the counter opened.

        If the kernel had to share the hardware counter with other events,
        the count is scaled by the share of time it actually ran.
        """
        value, enabled, running = struct.unpack("QQQ", os.read(self._fd, 24))
        if running and running < enabled:
            return value * enabled / running
        return float(value)

    def close(self) -> None:
        os.close(self._fd)


def open_counter() -> InstructionCounter | None:
    """Open the counter for the calling thread, or ``None`` if unavailable."""
    nr = _SYSCALL.get(platform.machine())
    if nr is None:
        return None
    attr = bytearray(_ATTR_SIZE)
    struct.pack_into(
        "IIQQQQQ",
        attr,
        0,
        _PERF_TYPE_HARDWARE,
        _ATTR_SIZE,
        _PERF_COUNT_HW_INSTRUCTIONS,
        0,  # sample_period
        0,  # sample_type
        _READ_TOTAL_TIME_ENABLED | _READ_TOTAL_TIME_RUNNING,
        _EXCLUDE_KERNEL | _EXCLUDE_HV,  # counting starts enabled
    )
    buf = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return None
    syscall = libc.syscall
    syscall.restype = ctypes.c_long
    fd = syscall(
        ctypes.c_long(nr),
        ctypes.cast(buf, ctypes.c_void_p),
        ctypes.c_int(0),  # the calling thread
        ctypes.c_int(-1),  # on any CPU
        ctypes.c_int(-1),  # no group
        ctypes.c_ulong(0),
    )
    if fd < 0:
        return None
    return InstructionCounter(int(fd))
