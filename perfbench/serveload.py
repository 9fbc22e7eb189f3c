"""The serve workload: closed-loop HTTP clients against ``repro serve``.

Each repetition starts a fresh ``python -m repro serve`` process with
its default flags (plus a free ``--port`` and an empty ``--cache-dir``
inside the benchmark's work directory), waits until ``/healthz``
answers, and warms it with one ``characterize`` and one ``analyze`` per
BioPerf program on that program's warm key.  Start-up plus warm-up is
the repetition's set-up time.

The timed phase is a closed loop: ``CLIENTS`` threads, each on its own
keep-alive connection, send their next request only after the previous
reply arrived.  The request stream runs in rounds of blocks of
``BLOCK`` requests (see :class:`Stream`).  One request per block
touches a new (workload, dataset seed) key, so the server runs the
engine and writes its run cache and trace store; the others repeat warm
keys and are answered from the session memo (``characterize``) or by
replaying the memoized trace (``analyze``, one request in
``ANALYZE_EVERY``).  Every reply's payload digest is checked against
the committed reference.

The mix is chosen, not taken from a recorded workload: it gives every
round every request class on every program in whole numbers.  Each run
prints each class's share of the time with a request in flight; on a
2-vCPU cloud VM the repeat ``analyze`` replays take about 55% of it, the
first-touch engine runs about 40% and the memo hits, 78% of the
requests, about 4%.

The server runs pinned to one processor, whose speed a thread of this
process samples (``child.Calls``), so set-up and rounds are reported in
calibrated seconds like the batch workloads' calls.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

from child import Calls
from run import (
    BenchFailure, calibrated, child_env, fresh_dir, median, percentile,
    repetitions,
)

#: Server lifecycles per run; each one gives a set-up sample.
REPETITIONS = 3
#: Nominal host seconds of one round (2-vCPU cloud VM): a lifecycle runs
#: its share of ``--seconds`` over this many rounds, at least one, at
#: most ``Stream.max_rounds`` (see ``run.REPETITION_S``).
ROUND_S = 3.3
#: Requests per block; exactly one of them touches a new key.  With
#: nine programs, (BLOCK - 1) * 18 repeat requests per round are a whole
#: number of warm cycles of 9 * ANALYZE_EVERY requests.
BLOCK = 9
#: One repeat request in this many is an ``analyze``; the rest characterize.
ANALYZE_EVERY = 8
#: Closed-loop client connections (at most the machine's processor count).
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: The analyses an ``analyze`` request asks for (the reference's set).
COMPANION_TOOLS = ["branch", "reuse", "value", "ldbp"]
#: Seconds to wait for a starting server to answer ``/healthz``.
START_TIMEOUT = 60
#: Seconds one ``/healthz`` probe may take before the next is sent.
HEALTH_TIMEOUT = 2
#: Seconds a server may take to exit after SIGTERM before it is killed.
STOP_TIMEOUT = 10


def key_pool(seed, reference):
    """Dataset seeds the request keys draw on: the tuning pool, or the
    held-out pool for the held-out seed."""
    base = reference["held_out"] if seed == reference["held_out"] else 0
    return [base + i for i in range(reference["pool"])]


class Stream:
    """The seeded request stream of one run, served round by round.

    A round asks every program for one new key with ``characterize``
    and one with ``analyze``, each at a random position of its own block
    of ``BLOCK`` requests.  The other requests of the round repeat every
    warm key equally often, one in ``ANALYZE_EVERY`` of them as an
    ``analyze``, so every round asks for the same work whatever the seed.
    Each server lifecycle starts from an empty cache, so each replays the
    same new keys from the first; a lifecycle runs at most
    ``max_rounds`` rounds, after which its keys would no longer be new.
    """

    def __init__(self, seed, pool, programs):
        self._seed = seed
        rng = random.Random(f"perfbench-serve-{seed}")
        self._programs = programs
        warm_seed = {name: rng.choice(pool) for name in programs}
        self.warm = [(name, warm_seed[name]) for name in programs]
        self._cold_seeds = {
            name: rng.sample([s for s in pool if s != warm_seed[name]],
                             len(pool) - 1)
            for name in programs
        }
        self.max_rounds = len(pool) - 1

    def rounds(self, lifecycle, count):
        """``count`` rounds of (request key, first-touch) pairs, in
        order, for server lifecycle number ``lifecycle``."""
        rng = random.Random(f"perfbench-serve-{self._seed}-{lifecycle}")
        for index in range(min(count, self.max_rounds)):
            cold = [
                (kind, name, self._cold_seeds[name][index])
                for kind in ("characterize", "analyze")
                for name in self._programs
            ]
            kinds = ["analyze"] + ["characterize"] * (ANALYZE_EVERY - 1)
            cycle = [
                (kind, name, seed) for name, seed in self.warm for kind in kinds
            ]
            warm = cycle * ((BLOCK - 1) * len(cold) // len(cycle))
            rng.shuffle(cold)
            rng.shuffle(warm)
            items = []
            for key in cold:
                block = [(warm.pop(), False) for _ in range(BLOCK - 1)]
                block.insert(rng.randrange(BLOCK), (key, True))
                items.extend(block)
            yield items


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _post(conn, kind, name, seed):
    body = {"workload": name, "seed": seed}
    if kind == "analyze":
        body["tools"] = COMPANION_TOOLS
    started = time.monotonic()
    conn.request(
        "POST", f"/v1/{kind}", json.dumps(body),
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    data = response.read()
    ended = time.monotonic()
    return response.status, json.loads(data), started, ended


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process with its own empty run cache."""

    def __init__(self, work, cpu):
        self.work = work
        self.cache_dir = os.path.join(work, "cache")
        self.port = _free_port()
        self._log = open(os.path.join(work, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
             "--cache-dir", self.cache_dir],
            cwd=work, env=child_env(self.cache_dir),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})

    def wait_healthy(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchFailure(f"repro serve exited:\n{self.log_tail()}")
            if self._answers_health():
                return
            time.sleep(0.02)
        raise BenchFailure(f"repro serve not healthy in {START_TIMEOUT} s")

    def _answers_health(self):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=HEALTH_TIMEOUT
        )
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def runcache_stats(self):
        try:
            with open(os.path.join(self.cache_dir, "_stats.json")) as handle:
                return json.load(handle)
        except OSError:
            return {}

    def log_tail(self):
        self._log.flush()
        with open(os.path.join(self.work, "server.log"), "rb") as handle:
            return handle.read()[-3000:].decode(errors="replace")

    def stop(self):
        """Ctrl-C (the server closes its session and flushes its
        counters), then wait; kill if it does not end.  SIGINT lets
        ``asyncio.run`` cancel the server cleanly; the SIGTERM handler
        raises wherever the main thread happens to be, and the server
        then sometimes hangs in its shutdown."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                print(f"perfbench: repro serve still running {STOP_TIMEOUT} s "
                      f"after SIGINT; killed", file=sys.stderr)
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _check(kind, name, seed, status, body, reference, problems):
    if status != 200:
        return False
    want = reference["bioperf"][str(seed)][name][kind]
    got = body["result"]["digest"]
    if got != want:
        problems.append(f"serve {kind} {name} seed {seed}: digest {got}, "
                        f"reference {want}")
    return True


def _stage_p99s(snapshot):
    """serve.stage_ms p99 per stage from a ``GET /metrics`` snapshot."""
    out = {}

    def walk(node):
        for key, value in node.items():
            if key.startswith("serve.stage_ms") and isinstance(value, dict):
                stage = key.partition('stage="')[2].partition('"')[0]
                if stage and "p99" in value:
                    out[stage] = value["p99"]
            elif isinstance(value, dict):
                walk(value)

    walk(snapshot)
    return out


def _request_class(sample):
    touch = "first_touch" if sample["cold"] else "repeat"
    return f"serve.{touch}.{sample['kind']}"


def _busy_by_class(samples):
    """Seconds with a request in flight, by request class.  Time with
    several requests in flight is split evenly between them, so the
    classes add up to the time with any request in flight."""
    edges = sorted(
        [(s["start"], 1, i) for i, s in enumerate(samples)]
        + [(s["end"], -1, i) for i, s in enumerate(samples)]
    )
    out, active, last = {}, set(), None
    for at, step, index in edges:
        for other in active:
            label = _request_class(samples[other])
            out[label] = out.get(label, 0.0) + (at - last) / len(active)
        last = at
        if step > 0:
            active.add(index)
        else:
            active.discard(index)
    return out


def _round(conns, items, samples, errors):
    """Send one round's requests in a closed loop, one thread per
    connection, each sending its next request after the last reply."""
    pending = iter(items)
    lock = threading.Lock()

    def client(conn):
        try:
            while True:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                (kind, name, seed), cold = item
                status, body, started, ended = _post(conn, kind, name, seed)
                samples.append({
                    "kind": kind, "name": name, "seed": seed, "cold": cold,
                    "status": status, "body": body,
                    "start": started, "end": ended,
                })
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(conn,)) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _repetition(stream, lifecycle, rounds, reference, problems, cpu):
    """One server lifecycle: start, warm, closed loop, read metrics, stop.

    The server runs pinned to ``cpu``; a sampling thread pinned there
    too measures that core's speed for the set-up and each round."""
    calls = Calls(cpu=cpu)
    server = None
    try:
        with calls.timed("setup"):
            server = Server(fresh_dir("serve-rep"), cpu)
            server.wait_healthy()
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120
            )
            warm_failed = 0
            for name, seed in stream.warm:
                for kind in ("characterize", "analyze"):
                    status, body, _, _ = _post(conn, kind, name, seed)
                    if not _check(kind, name, seed, status, body, reference,
                                  problems):
                        warm_failed += 1
            conn.close()

        samples, errors = [], []
        conns = [
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
            for _ in range(CLIENTS)
        ]
        t0 = time.monotonic()
        firsts = []  # the first sample index of each round
        for index, items in enumerate(stream.rounds(lifecycle, rounds)):
            firsts.append(len(samples))
            with calls.timed(index):
                _round(conns, items, samples, errors)
            if errors:
                raise BenchFailure(f"serve client failed: {errors[0]}")
        duration = time.monotonic() - t0
        for conn in conns:
            conn.close()
        _, snapshot = _get(server.port, "/metrics")
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        times = calls.times()
    failed = warm_failed
    for sample in samples:
        sample["executed"] = 0
        if not _check(sample["kind"], sample["name"], sample["seed"],
                      sample["status"], sample["body"], reference, problems):
            failed += 1
        elif sample["cold"]:
            sample["executed"] = sample["body"]["result"]["executed"]
    ends = firsts[1:] + [len(samples)]
    return {
        "setup": calibrated(*times["setup"]), "duration": duration,
        "samples": samples,
        "rounds": [
            (calibrated(*times[index]),
             sum(s["executed"] for s in samples[first:end]))
            for index, (first, end) in enumerate(zip(firsts, ends))
        ],
        "failed": failed,
        "attempted": len(samples) + 2 * len(stream.warm),
        "stages": _stage_p99s(snapshot), "rss_mb": rss,
        "runcache": server.runcache_stats(),
    }


def _class_shares(busy, samples, ms):
    """Each request class's share of the time with a request in flight,
    with its request count and mean latency."""
    total = sum(busy.values()) or 1.0
    out = {}
    for label in sorted(busy):
        group = ms([s for s in samples if _request_class(s) == label])
        out[f"{label} share"] = (
            round(busy[label] / total, 4),
            f"of busy time, {len(group)} requests, mean "
            f"{sum(group) / len(group):.2f} ms",
        )
    return out


def run_serve(seed, seconds, traced, reference):
    """The serve workload; same result shape as ``run.run_batch``."""
    problems = []
    programs = sorted(reference["bioperf"][str(key_pool(seed, reference)[0])])
    stream = Stream(seed, key_pool(seed, reference), programs)
    # The server gets the last processor to itself; the clients the rest.
    allowed = sorted(os.sched_getaffinity(0))
    server_cpu = allowed[-1]
    os.sched_setaffinity(0, allowed[:-1] or allowed)
    per_lifecycle = min(stream.max_rounds,
                        repetitions(seconds / REPETITIONS, ROUND_S))
    try:
        reps = [
            _repetition(stream, lifecycle, per_lifecycle, reference,
                        problems, server_cpu)
            for lifecycle in range(REPETITIONS)
        ]
    finally:
        os.sched_setaffinity(0, allowed)
    samples = [sample for rep in reps for sample in rep["samples"]]
    rounds = [entry for rep in reps for entry in rep["rounds"]]
    ms = lambda group: [(s["end"] - s["start"]) * 1e3 for s in group]  # noqa: E731
    latencies = ms(samples)
    warm = ms([s for s in samples if not s["cold"]])
    cold = ms([s for s in samples if s["cold"]])
    # Lifecycles follow one another, so their requests never overlap.
    busy = _busy_by_class(samples)
    total_time = sum(rep["duration"] for rep in reps)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = {
        "setup_s": median([rep["setup"] for rep in reps]),
        "wall_s": median([seconds for seconds, _ in rounds]),
        "sim_instr_per_s": median([
            executed / seconds for seconds, executed in rounds
        ]),
        "peak_rss_mb": median([rep["rss_mb"] for rep in reps]),
    }
    notes = {
        **_class_shares(busy, samples, ms),
        "repetitions": REPETITIONS,
        "clients (closed loop)": CLIENTS,
        "requests timed": len(samples),
        "first-touch requests": len(cold),
        "rounds": len(rounds),
        "req_per_s": (len(samples) / total_time, "1/s, not calibrated"),
        "latency_p50_ms": (percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (
            percentile(latencies, 0.99), f"ms over {len(latencies)} requests"
        ),
        "error_frac": (failed / attempted, "ratio"),
    }
    layers = table = None
    if traced:
        hits = sum(rep["runcache"].get("hits", 0) for rep in reps)
        misses = sum(rep["runcache"].get("misses", 0) for rep in reps)
        stage = lambda name: median(  # noqa: E731
            [rep["stages"].get(name, 0.0) for rep in reps]
        )
        layers = {
            "serve.client.warm_ms.p50": percentile(warm, 0.50),
            "serve.client.warm_ms.p99": percentile(warm, 0.99),
            "serve.client.cold_ms.p50": percentile(cold, 0.50),
            "serve.client.cold_ms.p99": percentile(cold, 0.99),
            "serve.memo_hits": sum(
                1 for s in samples if s["body"].get("cached") is True
            ),
            "serve.rejected": sum(1 for s in samples if s["status"] == 429),
            "serve.stage_ms.queue.p99": stage("queue"),
            "serve.stage_ms.batch.p99": stage("batch"),
            "serve.stage_ms.exec.p99": stage("exec"),
            "serve.stage_ms.total.p99": stage("total"),
            "core.runcache.hits": hits,
            "core.runcache.misses": misses,
            "core.runcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "bench.traced_wall_s": total_time,
            "bench.untraced_wall_s": total_time,
            "bench.remainder_s": total_time - sum(busy.values()),
        }
        table = {**busy, "bench.wall": total_time - sum(busy.values())}
    return {
        "metrics": metrics, "notes": notes, "layers": layers,
        "self_times": table, "attempted": attempted, "failed": failed,
        "problems": problems,
    }
