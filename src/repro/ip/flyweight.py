"""A name the benchmark under ``perfbench/`` still binds; nothing runs it.

Datagrams have one ordinary lifetime (DESIGN.md §12).  The benchmark's
per-layer tracer patches the three methods below as its ``ip.pool``
boundary, so the class keeps them, and they raise if anything calls
them.  This module goes when a benchmark change drops that boundary.
"""

from __future__ import annotations

__all__ = ["PacketPool"]


class PacketPool:
    """Placeholder for the benchmark's ``ip.pool`` boundary."""

    def acquire(self, *args, **kwargs):
        raise NotImplementedError("datagrams are not pooled")

    def clone_forward(self, *args, **kwargs):
        raise NotImplementedError("datagrams are not pooled")

    def release(self, *args, **kwargs):
        raise NotImplementedError("datagrams are not pooled")
