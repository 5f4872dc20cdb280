"""First-class number formats: descriptors, registry, ordinal codecs.

The :class:`FloatFormat` descriptor replaces the historical
binary32/binary64 string dichotomy: every layer that needs format
geometry (sampling, ULP metrics, oracle rounding, emission, execution)
resolves ``FPCore.precision`` through :func:`get_format` and reads the
descriptor instead of branching on magic strings.  See
``formats/format.py`` for the value-representation contract and
``formats/registry.py`` for registration (including the ``REPRO_FORMATS``
environment knob).
"""

from .format import FloatFormat
from .registry import (
    UnknownFormatError,
    get_format,
    is_known_format,
    register_format,
    registered_formats,
)

__all__ = [
    "FloatFormat",
    "UnknownFormatError",
    "get_format",
    "is_known_format",
    "register_format",
    "registered_formats",
]
