"""Fleet benchmark: the IKRQ HTTP fleet end to end, and layer by layer.

One run deploys a 10-floor synthetic mall through the documented path
(compile with an eager door matrix, bake a binary snapshot, boot
``repro serve --workers 2 --trace-sample 0``), drives it as a closed
loop over one or two client connections for ``--seconds``, byte-checks a
seeded sample of the answers against sequential ``IKRQEngine.search``
and prints one JSON result as its last line::

    python3 fleetbench/run.py --workload kiosk-hot --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats
the workload with ``"trace": true`` on every search and reports the
per-layer split, read from the fleet's ``/metrics`` stage histograms
and counters; its end-to-end numbers still come from an untraced phase
of the same run.

Workloads (``BENCHMARK.json`` lists the two that are benchmarked;
``kiosk-hot`` runs the same way but its figures follow the host's
speed by more than a benchmark bound allows):

* ``kiosk-hot`` — 16 kiosks, a zipf-popular pool of 64 ToE/KoE
  queries, warmed first: answer-cache hits, so the time is the HTTP
  front end, admission, dispatch and transport.
* ``explore-cold`` — every search a distinct ToE/KoE/KoE* query: the
  time is the search engine.
* ``closure-churn`` — ``kiosk-hot``'s pool with every 50th operation
  (by position) a ``POST /delta`` closing or reopening a door: the
  dynamic layer and the overlay-keyed caches.

Exit codes: 0 measured; 1 an answer differed from the reference or an
operation was not answered ``ok`` (result printed with ``"correct":
false``); 2 the repository or an argument is unusable; 3 the run fell
outside its workload's validity bands, or a traced run's layers do not
add up (nothing measured is printed).  ``--smoke`` reports the bands
and the accounting but does not fail on them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")

import ledger  # noqa: E402  (pure; importable without the repository)
from ledger import (DELTA_EVERY, accounting_violations,  # noqa: E402
                    band_violations, by_label, closed_after, grew,
                    is_correct, median, metric, parse_scrape, percentile,
                    ratio, shard_skew, stage_sum_ms)

WORKLOADS = ("kiosk-hot", "explore-cold", "closure-churn")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("qps", "1/s"), ("p50_ms", "ms"), ("p95_ms", "ms"), ("setup_s", "s"),
    ("rss_mb", "MB"))

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("server.frontend_ms", "ms"), ("server.boot_s", "s"),
    ("pool.admission_ms", "ms"), ("pool.transport_ms", "ms"),
    ("pool.queue_wait_ms", "ms"), ("pool.shard_skew", "ratio"),
    ("pool.shed_frac", "ratio"), ("wire.decode_ms", "ms"),
    ("engine.ms", "ms"), ("engine.answer_hit_frac", "ratio"),
    ("engine.endpoint_hit_frac", "ratio"),
    ("engine.keyword_hit_frac", "ratio"),
    ("search.relaxation_ms", "ms"), ("search.lower_bound_ms", "ms"),
    ("search.merge_ms", "ms"), ("search.expansions", "count"),
    ("search.dijkstra_calls", "count"), ("search.connects", "count"),
    ("search.pruned", "count"), ("graph.precomputed_hit_frac", "ratio"),
    ("graph.matrix_evictions", "count"),
    ("dynamic.delta_ms", "ms"), ("dynamic.delta_server_ms", "ms"),
    ("dynamic.first_query_ms", "ms"),
    ("snapshot.compile_s", "s"), ("snapshot.bake_s", "s"),
    ("snapshot.mb", "MB"), ("obs.trace_overhead_frac", "ratio"),
    ("accounted_frac", "ratio"))

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Searches per second a run is provisioned for: kiosk sequences hold
#: ``seconds * HOT_RATE`` operations and the explore pool
#: ``seconds * COLD_RATE`` distinct queries (about twice what the
#: fleet serves today).  Running out ends the phase early and is
#: recorded.
HOT_RATE = 2500
COLD_RATE = 300
#: Distinct answer keys byte-checked against the reference per phase.
CHECK_KEYS = 32
#: Closed-loop clients per workload.  explore-cold's searches all cost
#: alike, and two clients keep both of the host's two cores busy.
#: With two clients, closure-churn's millisecond cache hits queued
#: behind cold searches on their shard and kiosk-hot's tail was the
#: server's thread hand-offs: their p50/p95 moved by more than a
#: quarter between sets of runs of the same code.  One client keeps
#: one request in flight, so their latency is service time.
CLIENTS = {"kiosk-hot": 1, "explore-cold": 2, "closure-churn": 1}


# ----------------------------------------------------------------------
def _phase_ops(workload: str, seconds: float) -> int:
    """Operations one phase is provisioned with."""
    if workload == "explore-cold":
        return max(8, int(seconds * COLD_RATE))
    return max(DELTA_EVERY, int(seconds * HOT_RATE))


def _args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="seconds-scale self-check: a 2-floor mall and "
                        "one set-up")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _prepare_environment(workdir: str) -> None:
    """Keep every file the run and its server write inside the
    checkout, and pin the kernel choice to the shipped default."""
    os.environ.pop("REPRO_KERNEL", None)
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(BUILD, "kernels")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile
    tempfile.tempdir = tmp


class Run:
    """One invocation: set-up, phases, checks and the result."""

    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        import fleet
        import traffic
        from repro.datasets.synth import SynthMallConfig
        from repro.space.kernels import resolve_backend

        self.fleet, self.traffic = fleet, traffic
        self.args = args
        self.workload = args.workload
        self.workdir = workdir
        self.cfg = SynthMallConfig(floors=2 if args.smoke else 10)
        # Build the C kernel once before anything is timed: a one-off
        # compile per source revision, not part of deploying.
        resolve_backend("auto")
        self.server = None

    # ------------------------------------------------------------------
    def setup(self, repeats: int) -> Dict:
        """Deploy ``repeats`` times; the last server stays up."""
        rounds = []
        for n in range(repeats):
            snapshot = os.path.join(self.workdir, f"venue-{n}.bin")
            deployed = self.fleet.compile_and_bake(self.cfg, snapshot)
            server = self.server = self.fleet.Server(ROOT, snapshot,
                                                     self.workdir)
            rounds.append({"compile_s": deployed.compile_s,
                           "bake_s": deployed.bake_s,
                           "boot_s": server.boot_s,
                           "setup_s": deployed.compile_s + deployed.bake_s
                           + server.boot_s})
            if n + 1 < repeats:
                self.close()
                os.unlink(snapshot)
        self.deployed, self.engine = deployed, deployed.engine
        self.doors = self.traffic.closure_doors(self.engine, self.args.seed)
        return {key: median([r[key] for r in rounds]) for key in rounds[0]} \
            | {"rounds": rounds}

    # ------------------------------------------------------------------
    def inputs(self, phases: int) -> None:
        """The seeded pools and operation sequences, one per phase."""
        tr, seed, seconds = self.traffic, self.args.seed, self.args.seconds
        churn = self.workload == "closure-churn"
        size = _phase_ops(self.workload, seconds)
        if self.workload == "explore-cold":
            pool = tr.cold_pool(self.engine, seed, 8 + phases * size)
            self.warm = pool[:8]
            self.pools = [pool[8 + k * size: 8 + (k + 1) * size]
                          for k in range(phases)]
            self.ops = [tr.once_ops(size) for _ in range(phases)]
        else:
            pool = tr.kiosk_pool(self.engine, self.cfg.seed)
            self.warm = pool
            self.pools = [pool] * phases
            self.ops = [tr.zipf_ops(len(pool), size, seed + k, churn)
                        for k in range(phases)]
        if self.args.trace:
            self.pools[1] = tr.traced(self.pools[1])

    def warm_up(self) -> None:
        for search in self.warm:
            status, _ = self.server.request("POST", "/search", search.body)
            if status != 200:
                raise RuntimeError(f"warm-up search answered {status}")

    # ------------------------------------------------------------------
    def phase(self, k: int, delta_base: int) -> Dict:
        """Run phase ``k``; deltas are numbered from ``delta_base``."""
        pool = self.pools[k]
        before = parse_scrape(self.server.metrics_text())
        done = self.fleet.closed_loop(
            self.server, self.ops[k], [s.body for s in pool],
            lambda step: self.traffic.delta_body(delta_base + step,
                                                 self.doors),
            self.args.seconds, CLIENTS[self.workload])
        after = parse_scrape(self.server.metrics_text())
        return {"k": k, "done": done, "before": before, "after": after,
                "rss_bytes": self.server.rss_bytes()}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


# ----------------------------------------------------------------------
# Reading a phase
# ----------------------------------------------------------------------
def _decode(samples) -> List[Dict]:
    """Per operation: kind, latency, outcome and the decoded reply."""
    out = []
    for s in samples:
        try:
            doc = json.loads(s.body) if s.status else {}
        except ValueError:
            doc = {}
        out.append({"index": s.index, "kind": s.kind,
                    "ms": (s.done - s.sent) * 1000.0,
                    "ok": s.status == 200 and doc.get("status") == "ok",
                    "doc": doc, "gap_ms": s.gap_ms,
                    "after_delta": s.after_delta})
    return out


def _latency(ops: List[Dict]) -> Dict:
    ms = [o["ms"] for o in ops if o["kind"] == "search" and o["ok"]]
    if not ms:
        raise RuntimeError("no search was answered ok")
    return {"n": len(ms), "p50": median(ms), "p95": percentile(ms, 95.0),
            "mean": sum(ms) / len(ms)}


def _closure_steps(workload: str, index: int, delta_base: int) -> int:
    """Closure deltas applied before operation ``index`` of a phase."""
    if workload != "closure-churn":
        return delta_base
    return delta_base + index // DELTA_EVERY


class Checker:
    """Byte-compares served answers with sequential ``IKRQEngine.search``
    on the venue as edited after the answer's closure steps."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self._engines = {}
        self.checked = 0
        self.mismatches: List[str] = []

    def _engine(self, steps: int):
        if steps == 0:
            return self.run.engine
        if steps not in self._engines:
            from repro.core.engine import IKRQEngine
            from repro.dynamic import ClosureOverlay, apply_closures
            base = self.run.engine
            overlay = ClosureOverlay(closed_after(steps, self.run.doors))
            self._engines[steps] = IKRQEngine(
                apply_closures(base.space, overlay), base.kindex,
                door_matrix_eager=False)
        return self._engines[steps]

    def check(self, pool, answers: List[Tuple[int, int, str]],
              rng: random.Random) -> None:
        """``answers``: ``(pool index, closure steps, canonical answer)``;
        every answer whose ``(pool index, steps)`` key is in a seeded
        sample of :data:`CHECK_KEYS` keys is compared."""
        from repro.serve import answer_to_wire, canonical_json
        keys = sorted({(i, v) for i, v, _ in answers})
        chosen = set(rng.sample(keys, min(CHECK_KEYS, len(keys))))
        expected: Dict = {}
        for index, version, got in answers:
            key = (index, version)
            search = pool[index]
            if key not in chosen:
                continue
            if key not in expected:
                answer = self._engine(version).search(search.query,
                                                      search.algorithm)
                expected[key] = canonical_json(answer_to_wire(answer))
            self.checked += 1
            if got != expected[key]:
                self.mismatches.append(
                    f"{search.algorithm} answer at version {version} "
                    f"differs from the reference")


def _answers(run: Run, k: int, ops: List[Dict], delta_base: int,
             mismatches: List[str]) -> List[Tuple]:
    """``(pool index, closure steps, canonical answer)`` of each ok
    search; a reply stamped with another dynamic version than its
    position implies is a mismatch."""
    from repro.serve import canonical_json
    out = []
    for o in ops:
        if o["kind"] != "search" or not o["ok"]:
            continue
        doc = o["doc"]
        steps = _closure_steps(run.workload, o["index"], delta_base)
        if doc.get("dynamic_version") != steps:
            mismatches.append(f"search {o['index']} answered at version "
                              f"{doc.get('dynamic_version')}, expected "
                              f"{steps}")
            continue
        out.append((run.ops[k][o["index"]].search, steps, canonical_json(
            {"algorithm": doc.get("algorithm"),
             "routes": doc.get("routes")})))
    return out


def _server_side(before, after, searches: int) -> Dict[str, float]:
    """Per-request stage means (ms) and hit ratios between two scrapes."""
    n = grew(before, after, "ikrq_request_latency_seconds_count")
    if n != searches:
        raise RuntimeError(f"server counted {n:g} requests, the client "
                           f"sent {searches}")
    stage = {name: ratio(stage_sum_ms(before, after, name), n)
             for name in ("admission", "generation_acquire",
                          "shard_dispatch", "queue_wait", "wire_decode",
                          "engine")}

    def hit(prefix: str) -> float:
        h = grew(before, after, f"ikrq_shard_{prefix}_hits", venue=None)
        m = grew(before, after, f"ikrq_shard_{prefix}_misses", venue=None)
        return ratio(h, h + m)

    served = by_label(after, "ikrq_shard_queries_served", "shard",
                      venue=None)
    prior = by_label(before, "ikrq_shard_queries_served", "shard",
                     venue=None)
    evaluated = grew(before, after, "ikrq_shard_answer_misses", venue=None)
    ph = grew(before, after, "ikrq_search_precomputed_hits")
    pm = grew(before, after, "ikrq_search_precomputed_misses")
    return {
        "request_ms": 1000.0 * ratio(
            grew(before, after, "ikrq_request_latency_seconds_sum"), n),
        **{f"stage.{k}": v for k, v in stage.items()},
        "answer_hit_frac": hit("answer"),
        "endpoint_hit_frac": hit("point_map"),
        "keyword_hit_frac": hit("keyword_cache"),
        "shard_skew": shard_skew([served[s] - prior.get(s, 0.0)
                                  for s in served]),
        "shed": grew(before, after, "ikrq_shed_total"),
        **{f"per_eval.{name}": ratio(
            grew(before, after, f"ikrq_search_{name}"), evaluated)
           for name in ("expansions", "dijkstra_calls", "connects",
                        "pruned_total")},
        "precomputed_hit_frac": ratio(ph, ph + pm),
        "matrix_evictions": grew(before, after,
                                 "ikrq_search_matrix_evictions"),
        "kernels": sorted({dict(labels).get("kernel") for (name, labels)
                           in after if name == "ikrq_shard_kernel_info"}),
    }


def _guards(sequence, ops: List[Dict], side: Dict) -> Dict:
    sent = [sequence[o["index"]].search for o in ops
            if o["kind"] == "search"]
    deltas = sum(1 for o in ops if o["kind"] == "delta" and o["ok"])
    expected_deltas = sum(1 for o in ops if o["kind"] == "delta")
    gaps = [o["gap_ms"] for o in ops if o["gap_ms"] > 0.0]
    return {
        "answer_hit_frac": side["answer_hit_frac"],
        "distinct_queries": len(set(sent)),
        "repeated_queries": len(sent) - len(set(sent)),
        "deltas_applied": deltas,
        "deltas_missing": expected_deltas - deltas,
        "shard_skew": side["shard_skew"],
        "gen_lag_p50_ms": median(gaps) if gaps else 0.0,
        "gen_lag_p99_ms": percentile(gaps, 99.0) if gaps else 0.0,
    }


def _fine_stages(res: Dict, searches: int) -> Dict:
    """Mean fine engine stages (ms) per traced search, from the stage
    histograms that every traced span tree feeds."""
    return {name: ratio(stage_sum_ms(res["before"], res["after"], name),
                        searches)
            for name in ("relaxation", "lower_bound", "merge")}


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"fleetbench: cannot import the repro package from "
              f"{ROOT}/src: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    _prepare_environment(workdir)
    run = Run(args, workdir)
    try:
        return _measure(run)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(run: Run) -> int:
    args, workload = run.args, run.workload
    trace = bool(args.trace)
    phases = 2 if trace else 1
    setup = run.setup(1 if (trace or args.smoke) else SETUP_REPEATS)
    run.inputs(phases)
    run.warm_up()
    rng = random.Random(args.seed ^ 0x636B)
    checker = Checker(run)
    failures: List[str] = []
    results = []
    delta_base = 0
    for k in range(phases):
        res = run.phase(k, delta_base)
        ops = _decode(res["done"].samples)
        searches = sum(1 for o in ops if o["kind"] == "search")
        side = _server_side(res["before"], res["after"], searches)
        guards = _guards(run.ops[k], ops, side)
        failures += [f"{o['kind']} {o['index']} not ok: "
                     f"{str(o['doc'].get('status') or o['doc'])[:80]}"
                     for o in ops if not o["ok"]]
        checker.check(run.pools[k], _answers(run, k, ops, delta_base,
                                             checker.mismatches), rng)
        res.update(ops=ops, side=side, guards=guards,
                   latency=_latency(ops))
        if trace and k == 1:
            res["fine"] = _fine_stages(res, res["latency"]["n"])
        results.append(res)
        delta_base += sum(1 for o in ops if o["kind"] == "delta")
    untraced = results[0]
    # closure-churn's inline deltas, and the first search after each.
    delta_ops = [o for o in untraced["ops"] if o["kind"] == "delta"]
    first_ops = [o for o in untraced["ops"] if o["after_delta"]]

    violations = []
    for res in results:
        violations += [f"phase {res['k']}: {v}" for v in
                       band_violations(workload, res["guards"])]
        if res["done"].exhausted:
            print(f"fleetbench: phase {res['k']} used its whole "
                  f"operation sequence before {args.seconds:g} s",
                  file=sys.stderr)

    lat = untraced["latency"]
    side = untraced["side"]
    ok_delta_ms = [o["ms"] for o in delta_ops if o["ok"]]
    attempted = sum(len(r["ops"]) for r in results)
    failed = len(failures) + len(checker.mismatches)
    e2e = {
        "qps": metric(lat["n"] / untraced["done"].elapsed_s, "1/s"),
        "p50_ms": metric(lat["p50"], "ms"),
        "p95_ms": metric(lat["p95"], "ms"),
        "setup_s": metric(setup["setup_s"], "s"),
        "rss_mb": metric(untraced["rss_bytes"] / 1e6, "MB"),
    }
    # Printed with the end-to-end metrics, but not in BENCHMARK.json,
    # whose metrics every workload reports and never reads 0: any
    # failure fails the run, so fail_frac is 0 on every correct run, and
    # only closure-churn writes.
    also = {"fail_frac": metric(ratio(failed, attempted), "ratio")}
    if ok_delta_ms:
        also["delta_ms"] = metric(median(ok_delta_ms), "ms")
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "kernel": side["kernels"], "nproc": os.cpu_count(),
        "clients": CLIENTS[workload],
        "python": platform.python_version(),
        "venue": _venue_stats(run), "snapshot_bytes":
            os.path.getsize(run.deployed.snapshot),
        "setup": setup, "guards": [r["guards"] for r in results],
        "samples": {"searches_ok": lat["n"], "deltas": len(delta_ops),
                    "first_after_delta": len(first_ops)},
        "checked": checker.checked, "mismatches": checker.mismatches[:10],
        "failures": failures[:10], "invalid": violations,
        "end_to_end": e2e, "also": also,
    }
    if trace:
        record["per_layer"] = _per_layer(run, setup, untraced, results[1],
                                         delta_ops, first_ops)
        violations += accounting_violations(
            record["per_layer"]["accounted_frac"]["value"])
    _write_record(record)
    _print_human(record)
    for v in violations:
        print(f"fleetbench: invalid run: {v}", file=sys.stderr)
    if violations and not args.smoke:
        return 3
    metrics = record["per_layer"] if trace else e2e
    ledger.check_metrics(metrics, PER_LAYER if trace else END_TO_END)
    correct = is_correct(checker.checked, checker.mismatches, failures)
    for failure in failures[:10]:
        print(f"fleetbench: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _per_layer(run: Run, setup: Dict, untraced: Dict, traced: Dict,
               delta_ops: List[Dict], first_ops: List[Dict]) -> Dict:
    """The per-layer split.  The ``dynamic.*`` metrics read 0 on the
    workloads that send no delta."""
    side, lat = untraced["side"], untraced["latency"]
    t_side, t_lat = traced["side"], traced["latency"]
    stage = {k[len("stage."):]: v for k, v in side.items()
             if k.startswith("stage.")}
    t_stage = {k[len("stage."):]: v for k, v in t_side.items()
               if k.startswith("stage.")}

    def transport(st: Dict) -> float:
        return st["shard_dispatch"] - st["queue_wait"] - \
            st["wire_decode"] - st["engine"]

    # With the front end and transport both defined as differences, the
    # worker stages cancel: this is 1 minus the dispatcher time outside
    # admission, generation_acquire and shard_dispatch, over the client
    # mean.
    t_frontend = t_lat["mean"] - t_side["request_ms"]
    accounted = (t_frontend + t_stage["admission"]
                 + t_stage["generation_acquire"] + transport(t_stage)
                 + t_stage["queue_wait"] + t_stage["wire_decode"]
                 + t_stage["engine"]) / t_lat["mean"]
    delta_ms = [o["ms"] for o in delta_ops if o["ok"]]
    server_delta = [1000.0 * o["doc"]["elapsed"] for o in delta_ops
                    if o["ok"] and "elapsed" in o["doc"]]
    first = [o["ms"] for o in first_ops if o["ok"]]
    fine = traced["fine"]
    m = metric
    return {
        "server.frontend_ms": m(lat["mean"] - side["request_ms"], "ms"),
        "server.boot_s": m(setup["boot_s"], "s"),
        "pool.admission_ms": m(stage["admission"]
                               + stage["generation_acquire"], "ms"),
        "pool.transport_ms": m(transport(stage), "ms"),
        "pool.queue_wait_ms": m(stage["queue_wait"], "ms"),
        "pool.shard_skew": m(side["shard_skew"], "ratio"),
        "pool.shed_frac": m(ratio(side["shed"], lat["n"]), "ratio"),
        "wire.decode_ms": m(stage["wire_decode"], "ms"),
        "engine.ms": m(stage["engine"], "ms"),
        "engine.answer_hit_frac": m(side["answer_hit_frac"], "ratio"),
        "engine.endpoint_hit_frac": m(side["endpoint_hit_frac"], "ratio"),
        "engine.keyword_hit_frac": m(side["keyword_hit_frac"], "ratio"),
        "search.relaxation_ms": m(fine["relaxation"], "ms"),
        "search.lower_bound_ms": m(fine["lower_bound"], "ms"),
        "search.merge_ms": m(fine["merge"], "ms"),
        "search.expansions": m(side["per_eval.expansions"], "count"),
        "search.dijkstra_calls": m(side["per_eval.dijkstra_calls"],
                                   "count"),
        "search.connects": m(side["per_eval.connects"], "count"),
        "search.pruned": m(side["per_eval.pruned_total"], "count"),
        "graph.precomputed_hit_frac": m(side["precomputed_hit_frac"],
                                        "ratio"),
        "graph.matrix_evictions": m(side["matrix_evictions"], "count"),
        "dynamic.delta_ms": m(median(delta_ms) if delta_ms else 0.0, "ms"),
        "dynamic.delta_server_ms": m(median(server_delta)
                                     if server_delta else 0.0, "ms"),
        "dynamic.first_query_ms": m(median(first) - lat["p50"]
                                    if first else 0.0, "ms"),
        "snapshot.compile_s": m(setup["compile_s"], "s"),
        "snapshot.bake_s": m(setup["bake_s"], "s"),
        "snapshot.mb": m(os.path.getsize(run.deployed.snapshot) / 1e6,
                         "MB"),
        "obs.trace_overhead_frac": m(t_lat["p50"] / lat["p50"] - 1.0,
                                     "ratio"),
        "accounted_frac": m(accounted, "ratio"),
    }


def _venue_stats(run: Run) -> Dict:
    from repro.datasets.synth import mall_stats
    return mall_stats(run.engine.space, run.engine.kindex)


def _write_record(record: Dict) -> None:
    path = os.path.join(BUILD, "records")
    os.makedirs(path, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}.json")
    with open(os.path.join(path, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def _print_human(record: Dict) -> None:
    print(f"fleetbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} kernel={','.join(record['kernel'])} "
          f"nproc={record['nproc']} python={record['python']} "
          f"venue={record['venue']} snapshot_bytes="
          f"{record['snapshot_bytes']}")
    print(f"  samples {record['samples']}  checked {record['checked']} "
          f"answers, {len(record['mismatches'])} mismatches")
    for guards in record["guards"]:
        print("  guards " + " ".join(f"{k}={v:.4g}"
                                     for k, v in sorted(guards.items())))
    for section in ("end_to_end", "also", "per_layer"):
        for name, doc in (record.get(section) or {}).items():
            print(f"  {name:<28} {doc['value']:>14.6f} {doc['unit']}")


if __name__ == "__main__":
    sys.exit(main())
