"""Pure arithmetic of the fleet benchmark: no I/O, no repro imports.

Everything here is unit-tested in ``test_fleetbench.py``: percentiles
and ratios, Prometheus scrape deltas, the position-based delta plan of
``closure-churn``, the per-workload validity bands, the layer-accounting
tolerance, what makes a run correct, and the printed metric format.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Every printed metric name must match this (and start with a letter
#: or digit, at most 64 characters).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units are short tokens such as ``ms``, ``s``, ``1/s``, ``count``.
UNIT_NAME = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: ``closure-churn``: every ``DELTA_EVERY``-th operation, by position
#: in the sequence, is a ``POST /delta``.
DELTA_EVERY = 50


# ----------------------------------------------------------------------
# Order statistics and ratios
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks — numpy's default method.  Raises on no samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def shard_skew(counts: Sequence[float]) -> float:
    """Busiest shard's share of requests times the shard count: 1.0 is
    a perfectly even split, ``len(counts)`` is one shard doing all."""
    return ratio(max(counts), sum(counts)) * len(counts) if counts else 0.0


# ----------------------------------------------------------------------
# Prometheus text scrapes
# ----------------------------------------------------------------------
Series = Tuple[str, Tuple[Tuple[str, str], ...]]
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_scrape(text: str) -> Dict[Series, float]:
    """``/metrics`` text -> ``{(name, sorted label pairs): value}``."""
    out: Dict[Series, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line {line!r}")
        name, _, body, value = match.groups()
        labels = tuple(sorted(_LABEL.findall(body or "")))
        out[(name, labels)] = float(value)
    return out


def total(scrape: Mapping[Series, float], name: str,
          **labels: Optional[str]) -> float:
    """Sum of ``name`` over series whose labels match ``labels``.

    A label given as ``None`` must be *absent* — how the shard-level
    aggregate ``ikrq_shard_*{shard=...}`` rows are told apart from the
    per-venue breakdown rows of the same series.
    """
    acc = 0.0
    for (series, pairs), value in scrape.items():
        if series != name:
            continue
        have = dict(pairs)
        if all((have.get(k) is None) if v is None else have.get(k) == v
               for k, v in labels.items()):
            acc += value
    return acc


def by_label(scrape: Mapping[Series, float], name: str, label: str,
             **labels: Optional[str]) -> Dict[str, float]:
    """``name`` split by one label's values (other labels filtered)."""
    values = {dict(pairs).get(label) for (series, pairs) in scrape
              if series == name}
    return {v: total(scrape, name, **{label: v}, **labels)
            for v in sorted(x for x in values if x is not None)}


def grew(before: Mapping[Series, float], after: Mapping[Series, float],
         name: str, **labels: Optional[str]) -> float:
    """How much a counter (or counter-like gauge) grew between scrapes."""
    return total(after, name, **labels) - total(before, name, **labels)


def stage_sum_ms(before: Mapping[Series, float],
                 after: Mapping[Series, float], stage: str) -> float:
    """Milliseconds a stage accumulated in ``ikrq_stage_latency_seconds``
    between two scrapes (summed over venues)."""
    return 1000.0 * grew(before, after, "ikrq_stage_latency_seconds_sum",
                         stage=stage)


# ----------------------------------------------------------------------
# closure-churn: position-based delta placement
# ----------------------------------------------------------------------
def is_delta_position(index: int, every: int = DELTA_EVERY) -> bool:
    """Whether operation ``index`` (0-based) of the sequence is a delta.

    Placement is by position, never by wall clock, so every run serves
    the same ``every - 1`` searches under each dynamic version.
    """
    return index % every == every - 1


def closure_op(step: int, doors: Sequence[int]) -> Dict:
    """The ``step``-th delta op over a seeded door list.

    Close ``d0``; then alternately close the next door and reopen the
    oldest closed one: ``{d0}, {d0,d1}, {d1}, {d1,d2}, {d2}, ...``.
    No two versions share a closure set, so every delta is a new
    overlay identity and the overlay-keyed caches start cold again;
    at most two doors are closed at once.
    """
    if step == 0 or step % 2 == 1:
        return {"op": "close_door", "did": doors[(step + 1) // 2]}
    return {"op": "open_door", "did": doors[step // 2 - 1]}


def closed_after(steps: int, doors: Sequence[int]) -> frozenset:
    """The closed-door set once ``steps`` deltas have been applied."""
    closed = set()
    for step in range(steps):
        op = closure_op(step, doors)
        if op["op"] == "close_door":
            closed.add(op["did"])
        else:
            closed.discard(op["did"])
    return frozenset(closed)


# ----------------------------------------------------------------------
# Workload-validity bands
# ----------------------------------------------------------------------
#: ``guard -> (low, high)`` per workload; ``None`` leaves a side open.
#: A run whose guards fall outside its bands exercised something other
#: than what its workload promises, and is reported invalid.
BANDS: Dict[str, Dict[str, Tuple[Optional[float], Optional[float]]]] = {
    "kiosk-hot": {
        "answer_hit_frac": (0.9, None),
        "distinct_queries": (1, 64),
        "deltas_applied": (0, 0),
        "shard_skew": (1.0, 1.9),
        "gen_lag_p50_ms": (None, 2.0),
    },
    "explore-cold": {
        "answer_hit_frac": (0.0, 0.0),
        "repeated_queries": (0, 0),
        "deltas_applied": (0, 0),
        "shard_skew": (1.0, 1.3),
        "gen_lag_p50_ms": (None, 2.0),
    },
    "closure-churn": {
        "answer_hit_frac": (0.05, 0.9),
        "distinct_queries": (1, 64),
        "deltas_missing": (0, 0),
        "shard_skew": (1.0, 1.9),
        "gen_lag_p50_ms": (None, 2.0),
    },
}


def band_violations(workload: str,
                    guards: Mapping[str, float]) -> List[str]:
    """Human-readable reasons ``guards`` fall outside the workload's
    bands (empty when the run is valid)."""
    out = []
    for name, (low, high) in BANDS[workload].items():
        if name not in guards:
            out.append(f"{name}: not recorded")
            continue
        value = guards[name]
        if (low is not None and value < low) or \
                (high is not None and value > high):
            out.append(f"{name}={value:g} outside "
                       f"[{'-inf' if low is None else low}, "
                       f"{'inf' if high is None else high}]")
    return out


#: ``--trace 1``: the stage means plus the front end must account for
#: the client's mean latency to within this share.
ACCOUNTED_TOLERANCE = 0.1


def accounting_violations(accounted_frac: float) -> List[str]:
    """Why a traced run's layer split does not add up (empty when it
    does)."""
    if abs(accounted_frac - 1.0) <= ACCOUNTED_TOLERANCE:
        return []
    return [f"accounted_frac={accounted_frac:g} outside "
            f"[{1.0 - ACCOUNTED_TOLERANCE:g}, {1.0 + ACCOUNTED_TOLERANCE:g}]"]


# ----------------------------------------------------------------------
# The printed result
# ----------------------------------------------------------------------
def is_correct(checked: int, mismatches: Sequence[str],
               failures: Sequence[str]) -> bool:
    """A run is correct when it byte-checked at least one answer, found
    no mismatch, and every operation was answered ``ok`` — a shed, an
    error status or a transport error fails the run like a wrong answer.
    """
    return checked > 0 and not mismatches and not failures


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def check_metrics(metrics: Mapping[str, Mapping],
                  expected: Iterable[Tuple[str, str]]) -> None:
    """Raise unless ``metrics`` holds exactly the ``(name, unit)`` pairs
    of ``expected``, every name and unit well formed, every value a
    finite number."""
    expected = dict(expected)
    if set(metrics) != set(expected):
        raise ValueError(f"metric set mismatch: missing "
                         f"{sorted(set(expected) - set(metrics))}, extra "
                         f"{sorted(set(metrics) - set(expected))}")
    for name, doc in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if doc.get("unit") != expected[name] or \
                not UNIT_NAME.fullmatch(doc["unit"]):
            raise ValueError(f"metric {name!r} has unit {doc.get('unit')!r},"
                             f" expected {expected[name]!r}")
        value = doc.get("value")
        if not isinstance(value, float) or not math.isfinite(value):
            raise ValueError(f"metric {name!r} value {value!r} is not a "
                             f"finite number")
