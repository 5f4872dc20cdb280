"""Floating-point and real types used throughout the compiler IR.

Chassis works over *mixed* real/float expressions (paper section 5.1).  Every
operator in the IR has a type drawn from this module: the mathematical
``REAL`` type for pure real-number operators, and concrete float formats
for target operators.  Float types are *names into the format registry*
(:mod:`repro.formats`): ``binary32``/``binary64`` are the IEEE built-ins,
and any registered format (``fp16``, ``bf16``, ``REPRO_FORMATS`` customs)
is equally a valid operator type; ``get_format(ty)`` resolves one to its
descriptor.
"""

from __future__ import annotations

from ..formats import is_known_format
from ..formats.registry import UnknownFormatError

REAL = "real"
F32 = "binary32"
F64 = "binary64"
BOOL = "bool"


def is_float_type(ty: str) -> bool:
    """Return True when ``ty`` names a registered float format."""
    return ty not in (REAL, BOOL) and is_known_format(ty)


def check_float_type(ty: str) -> str:
    """Validate that ``ty`` is a float format, returning it unchanged."""
    if not is_float_type(ty):
        raise UnknownFormatError(
            ty, tuple(fmt.name for fmt in _registered())
        )
    return ty


def _registered():
    from ..formats import registered_formats

    return registered_formats()
