"""Content-addressed persistent cache for compilation results.

A compilation is a pure function of (FPCore source, target description,
compile config, sample config) — sampling is seeded and the improvement
loop is deterministic — so its result can be cached under a stable
fingerprint of those four inputs.  Entries are JSON files (the
:mod:`repro.service.results` layout) sharded two-hex-chars deep under a
cache directory, written atomically so concurrent workers on the same
directory never observe torn entries.

Fingerprints must be stable across processes and Python invocations, so
they are SHA-256 digests of canonical reprs — never ``hash()``, whose
string hashing is randomized per process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ..accuracy.sampler import SampleConfig
from ..core.pipeline import CompileResult
from ..core.loop import CompileConfig
from ..ir.fpcore import FPCore
from ..ir.printer import expr_to_sexpr
from ..targets.target import Target
from .results import SCHEMA_VERSION, core_to_source, result_from_dict, result_to_dict

# --- fingerprints -----------------------------------------------------------------


def _canonical(obj) -> str:
    """A deterministic textual form for config-like values.

    Handles the types that appear in :class:`CompileConfig`,
    :class:`SampleConfig` and nested limit dataclasses.  Dataclasses
    canonicalize field-by-field (so adding a field changes every
    fingerprint — which is correct: new knobs mean new behavior).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    return repr(obj)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def core_fingerprint(core: FPCore) -> str:
    """Stable content fingerprint of one benchmark.

    Keyed on the full FPCore source — arguments, precision, precondition
    and body — so two anonymous benchmarks never collide the way
    name-keyed caches do.  Uses the transport-safe rendering: ``to_sexpr``
    alone mangles names with spaces, which would let distinct benchmarks
    ("a b" vs "a-b") share a fingerprint.
    """
    return _digest("fpcore", core_to_source(core))


def sample_fingerprint(core: FPCore, sample_config: SampleConfig | None = None) -> str:
    """Key for one benchmark's seeded sample set (session sample cache).

    Samples are a pure function of the benchmark content and the sampling
    knobs (sampling is seeded), so this is exactly what identifies them.
    """
    return _digest(
        "samples", core_fingerprint(core), _canonical(sample_config or SampleConfig())
    )


# Targets are frozen; digesting one walks its whole operator table, so the
# digest is cached per instance, keyed by id() (targets are unhashable).
# A weakref.finalize evicts the entry when its target is collected: the
# eviction both bounds the cache in long-lived sessions (it used to retain
# a keepalive reference to every Target ever fingerprinted) and prevents a
# recycled id() from ever serving a dead target's digest.  Same idiom as
# Target's impl-registry cache.
_TARGET_FP_CACHE: dict[int, str] = {}


def target_fingerprint(target: Target) -> str:
    """Stable digest of a target's operator/cost tables.

    Everything the compiler's behavior depends on is included: per-operator
    signature, desugaring, cost and latency, plus literal/variable/if costs
    and the conditional style.  Editing a target description (or re-tuning
    its costs) therefore invalidates cached results for it.
    """
    cached = _TARGET_FP_CACHE.get(id(target))
    if cached is not None:
        return cached
    op_rows = []
    for name in sorted(target.operators):
        op = target.operators[name]
        op_rows.append(
            f"{name}:{','.join(op.arg_types)}->{op.ret_type}"
            f"={expr_to_sexpr(op.approx)}@{op.cost!r}/{op.true_latency!r}"
            f"/{int(op.linked)}"
        )
    fingerprint = _digest(
        "target",
        target.name,
        ";".join(op_rows),
        _canonical(target.literal_costs),
        repr(target.variable_cost),
        target.if_style,
        repr(target.if_cost),
        repr(target.perf_overhead),
        target.output_format,
    )
    _TARGET_FP_CACHE[id(target)] = fingerprint
    weakref.finalize(target, _TARGET_FP_CACHE.pop, id(target), None)
    return fingerprint


def config_fingerprint(
    config: CompileConfig | None, sample_config: SampleConfig | None
) -> str:
    """Stable digest of the compile + sampling knobs."""
    return _digest(
        "config",
        _canonical(config or CompileConfig()),
        _canonical(sample_config or SampleConfig()),
    )


#: Bump when the *compiler's* output changes for identical inputs (new
#: rewrite rules, extraction tie-break changes, ...): entries keyed under
#: an older epoch simply stop being found, instead of serving frontiers a
#: fresh compile would no longer produce.
COMPILER_EPOCH = 1


def job_fingerprint(
    core: FPCore,
    target: Target,
    config: CompileConfig | None = None,
    sample_config: SampleConfig | None = None,
) -> str:
    """The cache key for one (benchmark, target, configuration) job."""
    return _digest(
        "job",
        f"epoch={COMPILER_EPOCH}",
        core_fingerprint(core),
        target_fingerprint(target),
        config_fingerprint(config, sample_config),
    )


# --- the persistent cache ----------------------------------------------------------


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but discarded (corrupt or stale schema).
    invalidations: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.invalidations} invalidations"
        )


class CompileCache:
    """Persistent content-addressed store of serialized compile results."""

    def __init__(self, cache_dir: str | os.PathLike):
        self.root = Path(cache_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # --- raw payload interface ----------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Fetch one entry's payload, or None on miss.

        Unreadable or schema-incompatible entries are deleted and counted
        as invalidations (plus the miss).
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            payload = None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            self.stats.invalidations += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def contains(self, key: str) -> bool:
        """Stat-free existence probe (no hit/miss accounting, no payload
        validation).  Lets batch front-ends decide whether pre-sampling is
        worth doing without perturbing the counters the engine's real
        lookups record."""
        return self._path(key).exists()

    def put(self, key: str, payload: dict) -> None:
        """Store one entry atomically (write-to-temp, rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # --- typed convenience interface ----------------------------------------------

    def load_result(
        self,
        core: FPCore,
        target: Target,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
    ) -> CompileResult | None:
        """Look up and deserialize one compilation, or None on miss."""
        payload = self.get(job_fingerprint(core, target, config, sample_config))
        if payload is None:
            return None
        return result_from_dict(payload, target)

    def store_result(
        self,
        result: CompileResult,
        config: CompileConfig | None = None,
        sample_config: SampleConfig | None = None,
    ) -> str:
        """Serialize and store one compilation; returns its fingerprint."""
        key = job_fingerprint(result.core, result.target, config, sample_config)
        self.put(key, result_to_dict(result))
        return key

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
