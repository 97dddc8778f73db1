"""Deploy the venue, run ``repro serve`` as a subprocess, and drive it.

The deployment path is the documented one (``docs/serving.md``): build
the venue, compile it with an eager door matrix, bake a binary
snapshot — what ``repro snapshot --warm-matrix --binary`` does — then
boot ``repro serve --workers 2 --trace-sample 0`` with every other
flag at its default and wait for ``/healthz`` to answer 200.
"""

from __future__ import annotations

import gc
import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence
from urllib.parse import urlparse

from repro.core.engine import IKRQEngine
from repro.datasets.synth import SynthMallConfig, build_synth_mall
from repro.serve import save_snapshot

WORKERS = 2
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Set-up: compile, bake, boot
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    engine: IKRQEngine
    snapshot: str
    compile_s: float
    bake_s: float


def compile_and_bake(cfg: SynthMallConfig, snapshot: str) -> Deployment:
    started = time.perf_counter()
    space, kindex = build_synth_mall(cfg)
    engine = IKRQEngine(space, kindex)
    engine.door_matrix()
    compiled = time.perf_counter()
    save_snapshot(snapshot, engine, binary=True)
    baked = time.perf_counter()
    return Deployment(engine, snapshot, compiled - started, baked - compiled)


class Server:
    """One ``repro serve`` subprocess (its own process group)."""

    def __init__(self, root: str, snapshot: str, workdir: str) -> None:
        argv = [sys.executable, "-m", "repro", "serve", snapshot,
                "--workers", str(WORKERS), "--trace-sample", "0",
                "--port", "0"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._out_path = os.path.join(workdir, "serve.out")
        self._out = open(self._out_path, "wb")
        self._err = open(os.path.join(workdir, "serve.err"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=self._out, stderr=self._err,
                                     stdin=subprocess.DEVNULL,
                                     start_new_session=True)
        try:
            self.url = self._wait_url(started)
            parsed = urlparse(self.url)
            self.host, self.port = parsed.hostname, parsed.port
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_url(self, started: float) -> str:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            with open(self._out_path, "rb") as fh:
                for line in fh.read().decode("utf-8", "replace").splitlines():
                    if line.startswith("serving ") and " on http://" in line:
                        return line.split(" on ")[1].split()[0]
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with code "
                                   f"{self.proc.returncode} while booting")
            time.sleep(0.002)
        raise RuntimeError("repro serve printed no address")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited while booting")
            time.sleep(0.002)
        raise RuntimeError("repro serve never became healthy")

    # ------------------------------------------------------------------
    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get(self, path: str):
        return self.request("GET", path)

    def metrics_text(self) -> str:
        return self.get("/metrics")[1].decode("utf-8")

    def rss_bytes(self) -> int:
        """Resident set of the server process plus every descendant
        (the shard workers)."""
        return sum(_rss(pid) for pid in _tree(self.proc.pid))

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL the process
        group if it lingers; always waits for the exit."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
            except ProcessLookupError:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._out.close()
        self._err.close()


def _tree(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One completed operation."""

    index: int
    kind: str          # "search" or "delta"
    sent: float        # seconds from phase start
    done: float
    status: int        # HTTP status; 0 for a transport error
    body: bytes
    gap_ms: float      # client-side time between its previous reply
                       # and this send (barrier waits excluded)
    after_delta: bool = False


@dataclass
class Phase:
    samples: List[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    exhausted: bool = False


def closed_loop(server: Server, ops: Sequence, bodies: Sequence[bytes],
                delta_bodies, seconds: float, clients: int) -> Phase:
    """Drive ``ops`` in order over ``clients`` connections, each
    sending its next operation only once its previous one answered.

    A delta is a barrier: it is sent once every earlier operation has
    answered, and no later operation is sent before it is acknowledged,
    so the searches between two deltas all run under one dynamic
    version.  No new operation starts after ``seconds``.
    """
    cond = threading.Condition()
    state = {"next": 0, "in_flight": 0, "barrier": False,
             "after_delta": False}
    phase = Phase()
    t0 = time.perf_counter()
    errors: List[BaseException] = []

    def claim():
        """``(index, op, first search after a delta, seconds spent
        blocked on a barrier)``, or None once the phase is over."""
        waited = 0.0
        with cond:
            while True:
                i = state["next"]
                if time.perf_counter() - t0 >= seconds:
                    return None
                if i >= len(ops):
                    phase.exhausted = True
                    return None
                op = ops[i]
                if state["barrier"] or (op.delta is not None
                                        and state["in_flight"]):
                    blocked = time.perf_counter()
                    cond.wait()
                    waited += time.perf_counter() - blocked
                    continue
                if op.delta is not None:
                    state["barrier"] = True
                state["next"] = i + 1
                state["in_flight"] += 1
                first = state["after_delta"] and op.search is not None
                if first:
                    state["after_delta"] = False
                return i, op, first, waited

    def release(op) -> None:
        with cond:
            state["in_flight"] -= 1
            if op.delta is not None:
                state["barrier"] = False
                state["after_delta"] = True
            cond.notify_all()

    def client() -> None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=REQUEST_TIMEOUT_S)
        last = None
        try:
            while True:
                claimed = claim()
                if claimed is None:
                    return
                i, op, first, waited = claimed
                if op.delta is not None:
                    path, body, kind = "/delta", delta_bodies(op.delta), \
                        "delta"
                else:
                    path, body, kind = "/search", bodies[op.search], "search"
                sent = time.perf_counter()
                try:
                    conn.request("POST", path, body=body, headers={
                        "Content-Type": "application/json"})
                    resp = conn.getresponse()
                    payload, status = resp.read(), resp.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    payload, status = repr(exc).encode(), 0
                done = time.perf_counter()
                gap = 0.0 if last is None else \
                    (sent - last - waited) * 1000.0
                last = done
                phase.samples.append(Sample(
                    i, kind, sent - t0, done - t0, status, payload, gap,
                    after_delta=first))
                release(op)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            with cond:
                state["barrier"] = False
                state["next"] = len(ops)
                cond.notify_all()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"fleetbench-client-{n}")
               for n in range(clients)]
    # A collector pause in the client would be charged to the fleet.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    if errors:
        raise errors[0]
    phase.elapsed_s = max((s.done for s in phase.samples), default=0.0)
    phase.samples.sort(key=lambda s: s.index)
    return phase
