#!/usr/bin/env python3
"""End-to-end benchmark of the SCU reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. The benchmark builds the user-facing
binaries (`graph_store`, `export_json`, `run_one`, `scu_serve`) and its
own tracer from source into `$CARGO_TARGET_DIR` (default `.bench_build`),
then drives the binaries the way a user does, each run in fresh working
directories under `.bench_work/`. See `perfbench/README.md` for the
workloads, the metrics and what each one should move.

With `--trace 0` the last stdout line reports the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` it reports the per-layer metrics of
one traced in-process run and writes its spans to `.bench_out/`. The
line before it (`record: {...}`) carries every metric by name, the host
fingerprint, `sim_digest` and the sample counts; `perfbench/compare.py`
compares such records. `--all` runs every workload once and prints a
table. The exit code is 1 if any output check fails.
"""

import argparse
import http.client
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# Matrix workloads run at 1/1024 of the published graph sizes: the
# smallest scale at which every one of the 240 cells finishes on every
# seed tried (KCORE on kron stops terminating below it).
MATRIX_SCALE = "0.0009765625"
BIG_SCALE = "1"
BIG_CELL = ("BFS", "kron", "GTX980", "gpu")
HITS_PER_ITERATION = 4
SETUP_REPEATS = 5
MAX_ITERATIONS = 8
# Each run stops starting iterations once this much time is gone, so it
# ends well inside its 180 s budget.
RUN_BUDGET_S = 120.0
PROCESS_TIMEOUT_S = 150.0

ALGOS = ["BFS", "SSSP", "PR", "CC", "KCORE"]
DATASETS = ["ca", "cond", "delaunay", "human", "kron", "msdoor"]
SYSTEMS = ["GTX980", "TX1"]
MODES = ["gpu", "scu-basic", "scu-filtering", "scu-enhanced"]
DAEMON_READ_ALGOS = ["BFS", "SSSP", "PR"]
DAEMON_WRITE_ALGOS = ["CC", "KCORE"]

# Workload-specific end-to-end metrics, printed in the record line and
# compared by compare.py with these bounds (share of the base median).
EXTRA_METRICS = {
    "failed_frac": ("1", "lower", None),
    "hit_ms": ("ms", "lower", 0.15),
    "warm_sweep_s": ("s", "lower", 0.15),
    "read_p50_ms": ("ms", "lower", 0.25),
    "read_p99_ms": ("ms", "lower", 0.25),
    "write_cells_per_s": ("1/s", "higher", 0.15),
    "server_ready_s": ("s", "lower", 0.2),
}


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    rank = max(1, min(len(s), math.ceil(q * len(s))))
    return s[rank - 1]


def cell_ids(algos=ALGOS):
    """Matrix cell ids in plan order (dataset, algorithm, system, mode)."""
    return [f"{a}/{d}/{s}/{m}" for d in DATASETS for a in algos for s in SYSTEMS for m in MODES]


# ---------------------------------------------------------------------
# Build, processes, host.


def build():
    """Builds the binaries the benchmark drives and its tracer."""
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "scu-bench",
         "--bin", "graph_store", "--bin", "export_json", "--bin", "run_one",
         "-p", "scu-server", "--bin", "scu_serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def binary(name):
    return os.path.join(TARGET, "release", name)


def child_env(scale, seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCU_")}
    env.update(SCU_SCALE=scale, SCU_SEED=str(seed))
    return env


class Proc:
    """One finished child process: exit code, output, wall and peak RSS."""

    def __init__(self, rc, out, err, wall, rss_mb):
        self.rc, self.out, self.err, self.wall, self.rss_mb = rc, out, err, wall, rss_mb


def run(argv, cwd, env, timeout=PROCESS_TIMEOUT_S):
    """Runs a child to completion; its stdout and stderr go to files."""
    tag = os.path.basename(argv[0])
    out_path = os.path.join(cwd, f".{tag}.out")
    err_path = os.path.join(cwd, f".{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        out = f.read()
    with open(err_path, "rb") as f:
        err = f.read().decode(errors="replace")
    return Proc(p.returncode, out, err, wall, ru.ru_maxrss / 1024.0)


def ok(proc, what):
    if proc.rc != 0:
        tail = "\n".join(proc.err.strip().splitlines()[-5:])
        raise CheckFailed(f"{what} exited {proc.rc}: {tail}")
    return proc


def jobs():
    return len(os.sched_getaffinity(0))


def fingerprint(scale):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": jobs(), "cpu": model, "rustc": rustc,
            "kernel": platform.release(), "scu_scale": scale}


def fresh_dir(*parts):
    d = os.path.join(WORK, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def digest(cwd, env, cells=None):
    argv = [binary("scu-perfbench-tracer"), "digest"]
    if cells:
        argv += ["--cells", ",".join(cells)]
    p = ok(run(argv, cwd, env), "digest")
    d = json.loads(p.out.decode().strip().splitlines()[-1])
    if d["failed"]:
        raise CheckFailed(f"digest: {d['failed']} cell(s) missing from the store")
    return d["sim_digest"]


# ---------------------------------------------------------------------
# Output checks.


def parse_rows(out):
    rows = json.loads(out)
    return {f"{r['algorithm']}/{r['dataset']}/{r['system']}/{r['mode']}": r for r in rows}


def check_matrix(rows, expected_ids):
    """Every planned cell is present, and the answer fingerprint agrees
    across the 8 system x mode cells of each (algorithm, dataset).
    Returns the number of cells that fail."""
    bad = {i for i in expected_ids if i not in rows}
    groups = {}
    for cid in expected_ids:
        if cid in rows:
            a, d = cid.split("/")[:2]
            groups.setdefault((a, d), []).append(cid)
    for (a, d), ids in groups.items():
        fnvs = {rows[i]["values_fnv"] for i in ids}
        if len(fnvs) != 1 or len(ids) != len(SYSTEMS) * len(MODES):
            log(f"check: {a}/{d} answer fingerprints disagree across modes: {sorted(fnvs)}")
            bad.update(ids)
    for i in sorted(bad - set(rows)):
        log(f"check: {i} missing from the export")
    return len(bad)


REPORT_FNV = re.compile(r"^answer values\s+(\d+) \(fnv ([0-9a-f]{16})\)$", re.M)
REPORT_ITERS = re.compile(r"^iterations\s+(\d+)$", re.M)


def report_fields(text):
    fnv, iters = REPORT_FNV.search(text), REPORT_ITERS.search(text)
    if not fnv or not iters:
        raise CheckFailed("run_one report lacks its answer or iteration line")
    return int(fnv.group(2), 16), int(iters.group(1)), int(fnv.group(1))


# ---------------------------------------------------------------------
# Workloads. Each iteration works in a fresh directory and returns
# {"setup": s, "wall": s, "rss": MB, "attempted": n, "failed": n, ...}.


class Workload:
    scale = MATRIX_SCALE
    min_iterations = 2

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = run_dir
        self.env = child_env(self.scale, seed)
        self.rng = random.Random(seed)
        self.last_dir = None

    def iteration_dir(self, k):
        if self.last_dir:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.last_dir = fresh_dir(self.run_dir, f"iter{k}")
        return self.last_dir

    def build_graphs(self, cwd, datasets=()):
        return ok(run([binary("graph_store"), "build", *datasets], cwd, self.env), "graph_store build")

    def export(self, cwd, *flags):
        return ok(run([binary("export_json"), "--jobs", str(jobs()), *flags], cwd, self.env),
                  "export_json")

    def digest_cells(self):
        return None

    def finish(self):
        """sim_digest of the last iteration's store."""
        return digest(self.last_dir, self.env, self.digest_cells())

    def extra(self):
        """Workload-specific end-to-end metrics."""
        return {}

    def trace_args(self):
        return []

    def prepare_trace(self, cwd):
        """Inputs the traced run expects in `cwd` beyond its own calls."""


class SweepCold(Workload):
    """The full matrix, cold, into an empty store."""

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.reference = None

    def iteration(self, k):
        # Building the matrix's artifacts takes tens of milliseconds, so
        # one sample is mostly process start-up noise: build them in
        # several fresh directories, keep the median, sweep in the last.
        setups = []
        for j in range(SETUP_REPEATS):
            cwd = self.iteration_dir(f"{k}.{j}")
            setups.append(self.build_graphs(cwd))
        p = self.export(cwd)
        ids = cell_ids()
        failed = check_matrix(parse_rows(p.out), ids)
        if self.reference is None:
            self.reference = p.out
        elif p.out != self.reference:
            log("check: the export differs from the run's first iteration")
            failed = len(ids)
        return {"setup": median([g.wall for g in setups]), "wall": p.wall,
                "rss": max([g.rss_mb for g in setups] + [p.rss_mb]),
                "attempted": len(ids), "failed": failed}

    def traced_base(self, m):
        return m["setup_s"] + m["wall_s"]


class CacheHit(Workload):
    """run_one and a warm sweep against a store one cold sweep filled."""

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.cells = self.rng.sample(cell_ids(), HITS_PER_ITERATION)
        self.reports = {}
        self.hits = []
        self.warm = []

    def prepare_trace(self, cwd):
        self.build_graphs(cwd)
        self.export(cwd)

    def iteration(self, k):
        cwd = self.iteration_dir(k)
        t0 = time.perf_counter()
        g = self.build_graphs(cwd)
        cold = self.export(cwd)
        setup = time.perf_counter() - t0
        rows = parse_rows(cold.out)
        failed = check_matrix(rows, cell_ids())
        rss = [g.rss_mb, cold.rss_mb]
        t0 = time.perf_counter()
        for cid in self.cells:
            p = run([binary("run_one"), *cid.split("/")], cwd, self.env)
            rss.append(p.rss_mb)
            try:
                ok(p, f"run_one {cid}")
                text = p.out.decode()
                if "(cached result" not in text:
                    raise CheckFailed(f"run_one {cid} was not served from the store")
                fnv, iters, _ = report_fields(text)
                row = rows[cid]
                if (fnv, iters) != (row["values_fnv"], row["iterations"]):
                    raise CheckFailed(f"run_one {cid} reports fnv {fnv:016x}/{iters} iterations, "
                                      f"the sweep stored {row['values_fnv']:016x}/{row['iterations']}")
                if self.reports.setdefault(cid, p.out) != p.out:
                    raise CheckFailed(f"run_one {cid} report changed between iterations")
                self.hits.append(p.wall)
            except CheckFailed as e:
                log(f"check: {e}")
                failed += 1
        w = self.export(cwd)
        wall = time.perf_counter() - t0
        rss.append(w.rss_mb)
        if w.out != cold.out:
            log("check: the warm sweep's export differs from the cold sweep's")
            failed += len(cell_ids())
        self.warm.append(w.wall)
        return {"setup": setup, "wall": wall, "rss": max(rss),
                "attempted": len(self.cells) + len(cell_ids()), "failed": failed}

    def extra(self):
        return {"hit_ms": median(self.hits) * 1e3, "hit_samples": len(self.hits),
                "warm_sweep_s": median(self.warm), "warm_sweep_samples": len(self.warm)}

    def trace_args(self):
        return ["--cells", ",".join(self.cells)]

    def traced_base(self, m):
        return m["wall_s"]


class HttpError(Exception):
    pass


def request(base, method, path, body=None, timeout=120):
    """One request on its own connection (the daemon closes each)."""
    conn = http.client.HTTPConnection(base, timeout=timeout)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"} if body else {})
        r = conn.getresponse()
        data = r.read()
    finally:
        conn.close()
    if not 200 <= r.status < 300:
        raise HttpError(f"{method} {path} -> {r.status}: {data[:200]!r}")
    return data


class DaemonMixed(Workload):
    """One reader and one writer against scu_serve on a part-filled store."""

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.read_ids = cell_ids(DAEMON_READ_ALGOS)
        self.read_seq = [self.rng.choice(self.read_ids) for _ in range(4096)]
        self.writes = [f"{a}/{d}/" for a in DAEMON_WRITE_ALGOS for d in DATASETS]
        self.latencies = []
        self.rates = []
        self.ready = []

    def populate(self, cwd):
        procs = [self.build_graphs(cwd)]
        for a in DAEMON_READ_ALGOS:
            procs.append(self.export(cwd, "--filter", f"{a}/"))
        rows = {}
        for p in procs[1:]:
            rows.update(parse_rows(p.out))
        return procs, rows

    def prepare_trace(self, cwd):
        self.populate(cwd)

    def start_daemon(self, cwd):
        err = open(os.path.join(cwd, ".scu_serve.err"), "wb")
        p = subprocess.Popen([binary("scu_serve"), "--port", "0", "--jobs", "1"], cwd=cwd,
                             env=self.env, stdout=subprocess.PIPE, stderr=err)
        err.close()
        killer = threading.Timer(60, p.kill)
        killer.start()
        line = p.stdout.readline().decode()
        killer.cancel()
        m = re.search(r"listening on http://(\S+)", line)
        if not m:
            p.kill()
            p.wait()
            raise CheckFailed(f"scu_serve printed no address: {line!r}")
        base = m.group(1)
        deadline = time.monotonic() + 60
        while True:
            try:
                request(base, "GET", "/healthz", timeout=5)
                return p, base
            except (OSError, HttpError, http.client.HTTPException):
                if time.monotonic() > deadline or p.poll() is not None:
                    p.kill()
                    p.wait()
                    raise CheckFailed("scu_serve never answered /healthz")
                time.sleep(0.002)

    def stop_daemon(self, p):
        p.send_signal(signal.SIGINT)
        timer = threading.Timer(60, p.kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        if p.returncode != 0:
            raise CheckFailed(f"scu_serve exited {p.returncode} on SIGINT")
        return ru.ru_maxrss / 1024.0

    def iteration(self, k):
        cwd = self.iteration_dir(k)
        t0 = time.perf_counter()
        procs, rows = self.populate(cwd)
        t1 = time.perf_counter()
        daemon, base = self.start_daemon(cwd)
        setup = time.perf_counter() - t0
        self.ready.append(time.perf_counter() - t1)
        failed = check_matrix(rows, self.read_ids)
        try:
            reference = {}
            for cid in self.read_ids:
                body = request(base, "GET", f"/cells/{cid}")
                value = json.loads(body)["value"]
                row = rows[cid]
                if value["values_fnv"] != row["values_fnv"] or value["report"] != row["report"] \
                        or value["phases"] != row["phases"]:
                    log(f"check: GET {cid} differs from the result its sweep exported")
                    failed += 1
                reference[cid] = body
            reads, read_failed, write = self.mixed(base, reference)
        finally:
            daemon_rss = self.stop_daemon(daemon)
        self.latencies.extend(reads)
        self.rates.append(write["cells"] / write["wall"])
        return {"setup": setup, "wall": write["wall"],
                "rss": max([p.rss_mb for p in procs] + [daemon_rss]),
                "attempted": len(reads) + read_failed + write["attempted"],
                "failed": failed + read_failed + write["failed"]}

    def mixed(self, base, reference):
        """The timed phase: the writer's sweeps beside back-to-back reads."""
        done = threading.Event()
        reads, read_failed = [], [0]

        def reader():
            i = 0
            while not done.is_set():
                cid = self.read_seq[i % len(self.read_seq)]
                i += 1
                t = time.perf_counter()
                try:
                    body = request(base, "GET", f"/cells/{cid}")
                    reads.append(time.perf_counter() - t)
                    if body != reference[cid]:
                        log(f"check: GET {cid} body changed under writes")
                        read_failed[0] += 1
                except (OSError, HttpError, http.client.HTTPException) as e:
                    log(f"check: GET {cid}: {e}")
                    read_failed[0] += 1

        t = threading.Thread(target=reader)
        t.start()
        write = {"cells": 0, "attempted": 0, "failed": 0}
        t0 = time.perf_counter()
        try:
            for f in self.writes:
                write["attempted"] += 1
                try:
                    sweep = json.loads(request(base, "POST", "/sweeps",
                                            json.dumps({"filter": f}).encode()))
                    request(base, "GET", f"/sweeps/{sweep['id']}/events")
                    status = json.loads(request(base, "GET", f"/sweeps/{sweep['id']}"))
                except (OSError, HttpError, http.client.HTTPException, KeyError, ValueError) as e:
                    log(f"check: sweep {f}: {e}")
                    write["failed"] += 1
                    continue
                states = [c["state"] for c in status["cells"]]
                write["attempted"] += len(states)
                write["cells"] += states.count("done")
                if states.count("done") != len(states) or not states:
                    log(f"check: sweep {f} ended {states}")
                    write["failed"] += 1 + len(states) - states.count("done")
        finally:
            write["wall"] = time.perf_counter() - t0
            done.set()
            t.join()
        return reads, read_failed[0], write

    def extra(self):
        ms = [x * 1e3 for x in self.latencies]
        return {"read_p50_ms": median(ms), "read_p99_ms": percentile(ms, 0.99),
                "read_samples": len(ms), "write_cells_per_s": median(self.rates),
                "server_ready_s": median(self.ready)}

    def trace_args(self):
        return ["--cells", ",".join(self.read_seq[:256]), "--writes", ",".join(self.writes)]

    def traced_base(self, m):
        return m["wall_s"] + median(self.ready)


class BigCell(Workload):
    """One cold single cell on the full-size Kronecker graph."""

    scale = BIG_SCALE
    # One iteration (a 12 s artifact build, then a 13 s cell) already
    # exceeds the run time; a second would double every run's cost.
    min_iterations = 1

    def cell(self):
        return "/".join(BIG_CELL)

    def digest_cells(self):
        return [self.cell()]

    def iteration(self, k):
        cwd = self.iteration_dir(k)
        g = self.build_graphs(cwd, ["kron"])
        p = run([binary("run_one"), *BIG_CELL], cwd, self.env)
        failed = 0
        try:
            ok(p, "run_one")
            text = p.out.decode()
            nodes = re.search(r"\((\d+) nodes", text)
            _, iters, values = report_fields(text)
            if "(cached result" in text or not nodes or int(nodes.group(1)) != values \
                    or iters == 0:
                raise CheckFailed(f"run_one {self.cell()} report is inconsistent")
        except CheckFailed as e:
            log(f"check: {e}")
            failed = 1
        return {"setup": g.wall, "wall": p.wall, "rss": max(g.rss_mb, p.rss_mb),
                "attempted": 1, "failed": failed}

    def trace_args(self):
        return ["--cells", self.cell()]

    def traced_base(self, m):
        return m["setup_s"] + m["wall_s"]


WORKLOADS = {
    "sweep_cold": SweepCold,
    "cache_hit": CacheHit,
    "daemon_mixed": DaemonMixed,
    "big_cell": BigCell,
}

# ---------------------------------------------------------------------
# One run.


def measure(w, seconds, started):
    iters = []
    t0 = time.perf_counter()
    while True:
        k0 = time.perf_counter()
        iters.append(w.iteration(len(iters)))
        took = time.perf_counter() - k0
        elapsed = time.perf_counter() - t0
        if len(iters) >= w.min_iterations and elapsed >= seconds:
            break
        if len(iters) >= MAX_ITERATIONS or time.perf_counter() - started + took > RUN_BUDGET_S:
            break
    return iters


def run_workload(name, seed, seconds, trace):
    started = time.perf_counter()
    run_dir = fresh_dir(f"{name}-seed{seed}-{os.getpid()}")
    w = WORKLOADS[name](seed, run_dir)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "fingerprint": fingerprint(w.scale)}
    if trace:
        # One untraced iteration is the base the tracing overhead is
        # measured against; the end-to-end figures come from --trace 0.
        w.min_iterations, seconds = 1, 0
    try:
        iters = measure(w, seconds, started)
        attempted = sum(i["attempted"] for i in iters)
        failed = sum(i["failed"] for i in iters)
        m = {"setup_s": median([i["setup"] for i in iters]),
             "wall_s": median([i["wall"] for i in iters]),
             "peak_rss_mb": median([i["rss"] for i in iters])}
        extra = {"failed_frac": failed / attempted if attempted else 1.0,
                 "iterations": len(iters)}
        extra.update(w.extra())
        try:
            record["sim_digest"] = w.finish()
        except CheckFailed as e:
            log(f"check: {e}")
            failed += 1
        record.update(end_to_end=m, extra=extra)
        if trace:
            layers = traced(w, name, seed)
            layers["metrics"]["trace_overhead_frac"] = \
                layers["wall_s"] / max(w.traced_base(m), 1e-9) - 1.0
            if layers["sim_digest"] != record.get("sim_digest"):
                log(f"check: traced sim_digest {layers['sim_digest']} differs from "
                    f"the untraced {record.get('sim_digest')}")
                failed += 1
            attempted += layers["cells"]
            failed += layers["failed"]
            record.update(per_layer=layers["metrics"], spans=layers["spans"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record.update(attempted=attempted, failed=failed, correct=failed == 0)
    return record


def traced(w, name, seed):
    cwd = fresh_dir(os.path.basename(w.run_dir), "traced")
    w.prepare_trace(cwd)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"{name}-seed{seed}.spans.json")
    argv = [binary("scu-perfbench-tracer"), "trace", name, "--jobs", str(jobs()),
            "--run-id", f"{name}-seed{seed}", "--spans", spans, *w.trace_args()]
    p = run(argv, cwd, w.env)
    log(p.err.rstrip())
    ok(p, "traced run")
    d = json.loads(p.out.decode().strip().splitlines()[-1])
    d["spans"] = os.path.relpath(spans, ROOT)
    return d


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(record, spec):
    """The result line: exactly the metrics BENCHMARK.json names."""
    section, values = ("per_layer", record["per_layer"]) if record["trace"] \
        else ("end_to_end", record["end_to_end"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save(record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)


def summary(records, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({k: v[0] for k, v in EXTRA_METRICS.items()})
    for r in records:
        print(f"{r['workload']} (seed {r['seed']}, {r['extra']['iterations']} iterations, "
              f"sim_digest {r.get('sim_digest')}, correct {r['correct']})")
        values = dict(r["end_to_end"], **r["extra"])
        for k, unit in units.items():
            if k in values:
                print(f"  {k:<20} {values[k]:>14.4f} {unit}")
        for k in ("hit_samples", "warm_sweep_samples", "read_samples"):
            if k in values:
                print(f"  {k:<20} {values[k]:>14d}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload once, print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    spec = load_spec()
    build()
    names = list(WORKLOADS) if args.all else [args.workload]
    records = []
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except CheckFailed as e:
            log(f"check: {e}")
            raise SystemExit(1)
        save(r)
        records.append(r)
    if args.all:
        summary(records, spec)
    else:
        print("record: " + json.dumps(records[0], sort_keys=True))
        print(json.dumps(result_line(records[0], spec)))
    if not all(r["correct"] for r in records):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
