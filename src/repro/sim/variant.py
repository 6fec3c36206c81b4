"""The kernel implementation in use: always the pure-Python one.

:func:`kernel_variant` exists only because the frozen benchmark runner
(``perfbench/run.py``) records its first element as ``repro_kernel`` in
every runner fingerprint.
"""

from __future__ import annotations

from typing import Tuple


def kernel_variant() -> Tuple[str, str]:
    """``(variant, reason)`` of the kernel implementation."""
    return "python", "pure-Python kernel (the only implementation)"


__all__ = ["kernel_variant"]
