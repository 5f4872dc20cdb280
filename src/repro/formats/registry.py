"""The process-wide float-format registry.

Formats are looked up by canonical name or alias via :func:`get_format`;
new formats arrive either programmatically (:func:`register_format`) or
declaratively through the ``REPRO_FORMATS`` environment variable, a
comma-separated list of ``name=bits:precision[:emin:emax]`` specs::

    REPRO_FORMATS="e5m2=8:3,tf32=19:11:-126:127"

Env-registered formats get the pure-arithmetic generic codec; the
exponent range defaults to the IEEE-style split for the format's
exponent-field width.  The four built-ins (binary64, binary32, fp16,
bf16) are always present.
"""

from __future__ import annotations

import os
import threading

from .format import FloatFormat

__all__ = [
    "UnknownFormatError",
    "get_format",
    "register_format",
    "registered_formats",
    "is_known_format",
]


class UnknownFormatError(ValueError):
    """A format name that no registered format answers to."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.format_name = name
        self.known = known
        super().__init__(
            f"unknown number format {name!r}; registered formats: "
            + ", ".join(known)
        )


_LOCK = threading.Lock()
_FORMATS: dict[str, FloatFormat] = {}
_NAMES: dict[str, str] = {}  # every accepted spelling -> canonical name


def _install(fmt: FloatFormat, *, replace: bool = False) -> FloatFormat:
    with _LOCK:
        for spelling in (fmt.name, *fmt.aliases):
            canonical = _NAMES.get(spelling)
            if canonical is not None and canonical != fmt.name and not replace:
                raise ValueError(
                    f"format name {spelling!r} already registered "
                    f"(for {canonical!r})"
                )
        if fmt.name in _FORMATS and not replace:
            raise ValueError(f"format {fmt.name!r} already registered")
        _FORMATS[fmt.name] = fmt
        for spelling in (fmt.name, *fmt.aliases):
            _NAMES[spelling] = fmt.name
    return fmt


BINARY64 = _install(FloatFormat(
    name="binary64",
    bits=64,
    precision=53,
    emin=-1022,
    emax=1023,
    suffix="f64",
    aliases=("f64", "float64", "double"),
    codec="binary64",
    c_type="double",
    c_literal_suffix="",
    numpy_dtype="float64",
    description="IEEE 754 double precision",
))

BINARY32 = _install(FloatFormat(
    name="binary32",
    bits=32,
    precision=24,
    emin=-126,
    emax=127,
    suffix="f32",
    aliases=("f32", "float32", "single"),
    codec="binary32",
    c_type="float",
    c_literal_suffix="f",
    numpy_dtype="float32",
    description="IEEE 754 single precision",
))

FP16 = _install(FloatFormat(
    name="fp16",
    bits=16,
    precision=11,
    emin=-14,
    emax=15,
    suffix="fp16",
    aliases=("binary16", "f16", "float16", "half"),
    codec="binary16",
    c_type=None,
    numpy_dtype="float16",
    description="IEEE 754 half precision (numpy-backed; Python exec backend)",
))

BF16 = _install(FloatFormat(
    name="bf16",
    bits=16,
    precision=8,
    emin=-126,
    emax=127,
    suffix="bf16",
    aliases=("bfloat16",),
    codec="bfloat16",
    c_type=None,
    numpy_dtype=None,
    description="bfloat16: truncated binary32 (numpy-encoded; Python exec backend)",
))


def register_format(fmt: FloatFormat, *, replace: bool = False) -> FloatFormat:
    """Register a custom format; returns it for chaining."""
    return _install(fmt, replace=replace)


def get_format(name) -> FloatFormat:
    """Resolve a format name (or pass a FloatFormat through).

    Raises :class:`UnknownFormatError` — a ``ValueError`` whose message
    lists the registered formats — for unknown names.
    """
    if isinstance(name, FloatFormat):
        return name
    # No lock on the hit path: :func:`_install` stores a format before it
    # publishes the format's spellings, and a dict read is atomic.
    canonical = _NAMES.get(name)
    if canonical is not None:
        return _FORMATS[canonical]
    with _LOCK:
        known = tuple(sorted(_FORMATS))
    raise UnknownFormatError(str(name), known)


def is_known_format(name) -> bool:
    """True when ``name`` resolves to a registered format."""
    if isinstance(name, FloatFormat):
        return True
    with _LOCK:
        return name in _NAMES


def registered_formats() -> tuple[FloatFormat, ...]:
    """All registered formats, sorted by canonical name."""
    with _LOCK:
        return tuple(fmt for _, fmt in sorted(_FORMATS.items()))


def _ieee_exponent_range(ebits: int) -> tuple[int, int]:
    bias = (1 << (ebits - 1)) - 1
    return 1 - bias, bias


def _register_env_formats(spec: str) -> None:
    """Parse a ``REPRO_FORMATS`` spec; malformed entries raise ValueError."""
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, geometry = entry.partition("=")
        parts = geometry.split(":")
        if not name or len(parts) not in (2, 4):
            raise ValueError(
                f"bad REPRO_FORMATS entry {entry!r}: expected "
                "name=bits:precision[:emin:emax]"
            )
        bits, precision = int(parts[0]), int(parts[1])
        if len(parts) == 4:
            emin, emax = int(parts[2]), int(parts[3])
        else:
            emin, emax = _ieee_exponent_range(bits - precision)
        register_format(FloatFormat(
            name=name,
            bits=bits,
            precision=precision,
            emin=emin,
            emax=emax,
            suffix=name,
            codec="generic",
            description=f"custom format from REPRO_FORMATS ({entry})",
        ), replace=True)


_env_spec = os.environ.get("REPRO_FORMATS", "")
if _env_spec:
    _register_env_formats(_env_spec)
