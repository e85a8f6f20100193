"""Metric instruments and the registry that owns them.

Three instrument kinds cover everything the simulation stack needs to
expose:

* :class:`Counter` — a monotonically increasing count (LUs received,
  events executed, messages dropped);
* :class:`Gauge` — a value that moves both ways (queue depth, live
  cluster count, staleness);
* :class:`Histogram` — a distribution (delivery latency, queueing
  delay) in mergeable log-linear buckets whose quantiles carry a fixed
  relative error bound, so no samples are retained.

Instruments are keyed by ``(name, labels)`` in a
:class:`MetricsRegistry`; asking twice for the same key returns the same
instrument, so call sites may re-derive instruments freely while hot
paths cache them once.
"""

from __future__ import annotations

import math
import sys
from typing import Any

__all__ = [
    "TelemetryError",
    "LabelTuple",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RELATIVE_ERROR",
]

#: Canonical form of a label set: sorted ``(key, value)`` pairs.
LabelTuple = tuple[tuple[str, str], ...]

#: Quantiles every histogram snapshot reports.
_SNAPSHOT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

#: Worst-case relative error of :meth:`Histogram.quantile` (< 0.8%).
RELATIVE_ERROR = 1.0 / 128.0

#: Smallest normal float: the upper bound of the zero bucket.
_SMALLEST = sys.float_info.min

#: Lower bound of the top bucket, whose upper bound would be 2**1024.
_LIMIT = math.ldexp(127, 1017)


def _bucket_key(value: float) -> int:
    """Bucket index of a normal positive float, contiguous across powers.

    ``frexp`` gives ``value = m * 2**e`` with ``m`` in [0.5, 1), so
    ``j = int(m * 128)`` in [64, 127] picks the sub-bucket
    ``[j, j + 1) * 2**(e - 7)``.  The key is ``64 * e + j``: ``key >> 6``
    is ``e + 1`` and ``key & 63`` is ``j - 64``.
    """
    mantissa, exponent = math.frexp(value)
    return (exponent << 6) + int(mantissa * 128.0)


def _upper_bound(key: int) -> float:
    """Exclusive upper bound of bucket *key*: its successor's lower bound."""
    return math.ldexp((key & 63) + 65, (key >> 6) - 8)


def _key_for_bound(upper: object) -> int | None:
    """Key of the bucket whose exact upper bound is *upper*, else None."""
    if not isinstance(upper, float) or not _SMALLEST < upper < math.inf:
        return None
    key = _bucket_key(upper) - 1
    return key if _upper_bound(key) == upper else None


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class TelemetryError(RuntimeError):
    """Misuse of the telemetry API (type conflicts, bad arguments)."""


def _label_key(labels: dict[str, Any]) -> LabelTuple:
    """Canonicalise a label mapping to a hashable, ordered tuple."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: LabelTuple) -> str:
    """Render ``name{k=v,...}`` (just ``name`` when unlabelled)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared identity of all instruments."""

    kind = "instrument"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels

    @property
    def full_name(self) -> str:
        """The instrument's registry-unique display name."""
        return format_metric_name(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.full_name})"


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelTuple = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.full_name} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state."""
        return {"kind": self.kind, "value": self._value}


class Gauge(_Instrument):
    """A value that can move in both directions."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelTuple = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by *amount*."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by *amount*."""
        self._value -= amount

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state."""
        return {"kind": self.kind, "value": self._value}


class Histogram(_Instrument):
    """Distribution summary in log-linear buckets (DDSketch/HdrHistogram).

    A positive sample lands in one of 64 equal-width sub-buckets of its
    power of two, indexed by :func:`math.frexp`, which is exact, so the
    placement is bit-identical on every platform.  Buckets live in a
    sparse dict: ``observe`` is O(1) and no sample is retained.  Samples
    below ``2**-1022`` (the smallest normal float, and ``0.0``) count in
    one zero bucket.  Negative, non-finite and huge values (from
    ``2**1024 * 127/128`` up) raise :class:`TelemetryError`.

    ``quantile(q)`` answers any ``q`` in [0, 1]: the midpoint of the
    bucket holding the nearest-rank sample (rank ``ceil(q * count)``),
    clamped to the exact ``[min, max]``.  Each bucket is at most 1/64 of
    its lower bound wide, so the estimate is within
    :data:`RELATIVE_ERROR` (1/128) of that sample; a sample in the zero
    bucket is estimated within ``2**-1022``.  Merging two histograms adds
    their bucket counts (:meth:`absorb`), so merged quantiles carry the
    same bound.
    """

    kind = "histogram"
    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, labels: LabelTuple = ()) -> None:
        super().__init__(name, labels)
        self._buckets: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        if not 0.0 <= value < _LIMIT:
            raise TelemetryError(
                f"histogram {self.full_name} cannot record {value!r}: "
                f"samples must be in [0, {_LIMIT:.4g})"
            )
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < _SMALLEST:
            self._zeros += 1
        else:
            key = _bucket_key(value)
            buckets = self._buckets
            buckets[key] = buckets.get(key, 0) + 1

    @property
    def count(self) -> int:
        """Samples recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Average sample (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate of quantile *q* in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        seen = self._zeros
        estimate = 0.0
        if seen < rank:
            for key in sorted(self._buckets):
                seen += self._buckets[key]
                if seen >= rank:
                    # The bucket's midpoint (see _bucket_key).
                    estimate = math.ldexp(2 * (key & 63) + 129, (key >> 6) - 9)
                    break
        return min(max(estimate, self._min), self._max)

    def absorb(self, snapshot: dict[str, Any]) -> None:
        """Add another histogram's :meth:`snapshot` into this one.

        Bucket counts add, so absorbing the snapshots of several
        histograms yields exactly the histogram of all their samples
        (``sum`` up to float rounding).  Raises :class:`TelemetryError`,
        leaving this histogram unchanged, unless every bucket bound is the
        zero bucket's or a finite exact bucket upper bound, every bucket
        count is a positive int and the counts sum to ``count`` — which a
        snapshot in the older fixed-bucket format (cumulative counts, an
        ``"inf"`` bound) does not satisfy.
        """
        count = snapshot.get("count")
        pairs = snapshot.get("buckets")
        if not _is_int(count) or count < 0 or not isinstance(pairs, list):
            raise TelemetryError(
                f"histogram {self.full_name} cannot absorb a snapshot with "
                f"count {count!r} and buckets {pairs!r}"
            )
        zeros = 0
        counts: list[tuple[int, int]] = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise TelemetryError(
                    f"histogram {self.full_name}: bucket {pair!r} is not an "
                    "[upper_bound, count] pair"
                )
            upper, n = pair
            if not _is_int(n) or n <= 0:
                raise TelemetryError(
                    f"histogram {self.full_name}: bucket {pair!r} has no "
                    "positive integer count"
                )
            if upper == _SMALLEST:
                zeros += n
                continue
            key = _key_for_bound(upper)
            if key is None:
                raise TelemetryError(
                    f"histogram {self.full_name}: {upper!r} is not a "
                    "bucket upper bound"
                )
            counts.append((key, n))
        if zeros + sum(n for _, n in counts) != count:
            raise TelemetryError(
                f"histogram {self.full_name}: bucket counts do not sum to "
                f"count {count}"
            )
        if not count:
            return
        self._count += count
        self._sum += snapshot["sum"]
        self._min = min(self._min, snapshot["min"])
        self._max = max(self._max, snapshot["max"])
        self._zeros += zeros
        buckets = self._buckets
        for key, n in counts:
            buckets[key] = buckets.get(key, 0) + n

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state.

        ``buckets`` lists the occupied buckets as ``[upper_bound, count]``
        pairs in ascending order; a bucket holds the samples below its
        upper bound and at or above the previous bucket's bound.  The
        bounds are exact binary fractions, so they survive a JSON round
        trip and :meth:`absorb` can re-index them.
        """
        buckets: list[list[float]] = []
        if self._zeros:
            buckets.append([_SMALLEST, self._zeros])
        for key in sorted(self._buckets):
            buckets.append([_upper_bound(key), self._buckets[key]])
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "quantiles": {str(q): self.quantile(q) for q in _SNAPSHOT_QUANTILES},
            "buckets": buckets,
        }


class MetricsRegistry:
    """Owns every instrument, keyed by ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a key creates the instrument, later calls return it.  Re-using a
    name with a different instrument kind raises — one name means one
    kind of thing.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelTuple], _Instrument] = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        labels: dict[str, Any],
    ) -> Any:
        if not name:
            raise TelemetryError("metric name must be non-empty")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
            return instrument
        if not isinstance(instrument, cls):
            raise TelemetryError(
                f"metric {instrument.full_name} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get_or_create(Histogram, name, labels)

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, in registration order."""
        return list(self._instruments.values())

    def get(self, name: str, **labels: Any) -> _Instrument | None:
        """Look up an instrument without creating it."""
        return self._instruments.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def value_map(self) -> dict[str, float]:
        """One scalar per instrument (counters/gauges: value; histograms:
        count) keyed by full name — the sampler's per-tick snapshot."""
        out: dict[str, float] = {}
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                out[instrument.full_name] = float(instrument.count)
            else:
                out[instrument.full_name] = instrument.value  # type: ignore[attr-defined]
        return out

    def snapshot(self) -> dict[str, Any]:
        """Full JSON-serialisable dump of every instrument, sorted by name."""
        return {
            instrument.full_name: instrument.snapshot()
            for instrument in sorted(
                self._instruments.values(), key=lambda m: m.full_name
            )
        }
