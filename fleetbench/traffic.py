"""Seeded traffic for the three workloads.

Every input comes from the ``--seed``; the server only ever sees the
generated requests.  Queries follow the paper's Section V-A generator
with the parameters ``repro.bench.scale.build_scale_stream`` uses
(``δs2t`` at 35% of the venue diameter, ``Δ = 1.8·δs2t``, |QW| = 6
at i-word fraction 0.6, k = 7).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ledger import DELTA_EVERY, closure_op, is_delta_position
from repro.bench.load_model import zipf_weights
from repro.datasets.queries import QueryGenerator
from repro.datasets.synth import venue_diameter
from repro.serve import query_to_wire

KIOSKS = 16
KIOSK_POOL = 64


@dataclass(frozen=True)
class Search:
    """One pool entry: the query, its algorithm and its request body."""

    query: object
    algorithm: str
    body: bytes


@dataclass(frozen=True)
class Op:
    """One position of the operation sequence."""

    search: Optional[int] = None  # pool index
    delta: Optional[int] = None   # delta step


class _KioskGenerator(QueryGenerator):
    """The §V-A generator with the start point pinned to a kiosk."""

    kiosk = None

    def random_point(self):
        return self.kiosk if self.kiosk is not None \
            else super().random_point()


def _workload_args(engine) -> dict:
    return dict(s2t=max(venue_diameter(engine.space) * 0.35, 1.0),
                eta=1.8, qw_size=6, beta=0.6, k=7, alpha=0.5, tau=0.2)


def _search(query, algorithm: str, trace: bool = False) -> Search:
    doc = {"query": query_to_wire(query), "algorithm": algorithm}
    if trace:
        doc["trace"] = True
    return Search(query, algorithm, json.dumps(doc).encode("utf-8"))


def kiosk_pool(engine, seed: int) -> List[Search]:
    """64 distinct ToE/KoE queries from 16 kiosk start points, most
    popular first.

    The kiosks, their queries and their popularity order belong to the
    deployed venue, like its floor plan: they are drawn from the venue's
    own seed, not the workload seed.  With only 64 queries, a pool drawn
    per workload seed swings the cold-evaluation cost of a
    ``closure-churn`` run by about 15% from seed to seed (most of it
    from which queries land on the top zipf ranks), which would drown
    the changes the workload exists to catch.
    """
    gen = _KioskGenerator(engine.space, engine.kindex,
                          graph=engine.graph, seed=seed)
    kiosks = [gen.random_point() for _ in range(KIOSKS)]
    args = _workload_args(engine)
    rng = random.Random(seed ^ 0x6B696F)
    pool, seen = [], set()
    while len(pool) < KIOSK_POOL:
        gen.kiosk = kiosks[len(pool) % KIOSKS]
        query = gen.workload(instances=1, **args).queries[0]
        if query in seen:
            continue
        seen.add(query)
        pool.append(_search(query, rng.choice(("ToE", "KoE"))))
    return pool


def cold_pool(engine, seed: int, size: int) -> List[Search]:
    """``size`` distinct ToE/KoE/KoE* queries, each sent once."""
    gen = QueryGenerator(engine.space, engine.kindex, graph=engine.graph,
                         seed=seed)
    rng = random.Random(seed ^ 0x636F6C)
    args = _workload_args(engine)
    pool, seen = [], set()
    while len(pool) < size:
        for query in gen.workload(instances=64, **args).queries:
            if query not in seen and len(pool) < size:
                seen.add(query)
                pool.append(_search(query,
                                    rng.choice(("ToE", "KoE", "KoE*"))))
    return pool


def traced(pool: Sequence[Search]) -> List[Search]:
    """The same searches with ``"trace": true`` in every body."""
    return [_search(s.query, s.algorithm, trace=True) for s in pool]


def zipf_ops(pool_size: int, count: int, seed: int,
             churn: bool) -> List[Op]:
    """Seeded zipf-popular picks from a pool ordered most popular
    first; with ``churn`` every :data:`~ledger.DELTA_EVERY`-th position
    is a delta instead.  Popularity uses the repository's own zipf
    exponent, as ``repro.bench soak`` does."""
    rng = random.Random(seed ^ 0x6F7073)
    picks = rng.choices(range(pool_size), weights=zipf_weights(pool_size),
                        k=count)
    ops = []
    for i, pick in enumerate(picks):
        if churn and is_delta_position(i):
            ops.append(Op(delta=i // DELTA_EVERY))
        else:
            ops.append(Op(search=pick))
    return ops


def once_ops(pool_size: int) -> List[Op]:
    """Each pool entry exactly once, in order."""
    return [Op(search=i) for i in range(pool_size)]


def closure_doors(engine, seed: int) -> List[int]:
    """The seeded door list the churn deltas close and reopen."""
    doors = sorted(engine.space.doors)
    random.Random(seed ^ 0x646F6F).shuffle(doors)
    return doors


def delta_body(step: int, doors: Sequence[int]) -> bytes:
    return json.dumps({"venue": "default",
                       "ops": [closure_op(step, doors)]}).encode("utf-8")
