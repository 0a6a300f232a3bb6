#!/usr/bin/env python3
"""Repository benchmark: file-to-labels and request-to-reply cost of
ppnpart / ppnpartd on generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the two binaries and the
benchmark harness (perfbench/harness.ml) with dune into .bench_build/,
generates the workload's inputs from --seed, measures for --seconds
seconds, checks every answer, and prints one JSON object as its last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off), --trace 1 the
per-layer metrics of a traced in-process run. The metric list, its
units and the layer-to-metric map are in BENCHMARK.json and
perfbench/README.md. Workloads:

  stream_rmat   ppnpart partition --mode stream -j 2 on one R-MAT graph
                (scale 18, k = 16)
  daemon_edits  ppnpartd --workers 2, two closed-loop connections sending
                single-op repartition batches and report reads
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD = ".bench_build"
DUNE_BUILD = os.path.join(BUILD, "dune")
BIN = os.path.join(DUNE_BUILD, "default")
PPNPART = os.path.join(BIN, "bin", "ppnpart.exe")
PPNPARTD = os.path.join(BIN, "bin", "ppnpartd.exe")
HARNESS = os.path.join(BIN, "perfbench", "harness.exe")

WORKLOADS = ("stream_rmat", "daemon_edits")
JOBS = 2  # the host has two cores: -j 2, --workers 2, two connections
SETUP_REPS = 5  # at least this many set-ups per run,
SETUP_MIN_S = 2.0  # and more while their total is under this,
SETUP_MAX_REPS = 25  # so a set-up of a tenth of a second is not all noise
CLI_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 30
UPLOAD_PIECE = 8192  # bytes of METIS text per submit-rows frame
REPLAY_EVERY = 10  # offline replay of every n-th daemon answer
REPORT_STEP = 9  # a request cycle: nine repartition batches, then a report
TRACE_LOOP_S = 3.0  # untraced closed loop giving the traced run its latency


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build ---------------------------------------------------------------


def build():
    for need in ("dune-project", "bin", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            raise BenchError(f"{need} not found: run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.abspath(DUNE_BUILD),
           "--profile", "release", "./bin/ppnpart.exe", "./bin/ppnpartd.exe",
           "./perfbench/harness.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


# --- processes -----------------------------------------------------------


class Proc:
    """A child process whose rusage is collected with wait4."""

    def __init__(self, argv, **kw):
        self.p = subprocess.Popen(argv, **kw)
        self.status = None
        self.rusage = None

    def wait(self, timeout):
        """Exit code, or None when [timeout] passed and it was killed."""
        timer = threading.Timer(timeout, self.p.kill)
        timer.start()
        try:
            _, self.status, self.rusage = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.p.returncode = os.waitstatus_to_exitcode(self.status)
        if self.p.returncode == -signal.SIGKILL:
            return None
        return self.p.returncode

    def kill(self):
        if self.status is None:
            self.p.kill()
            _, self.status, self.rusage = os.wait4(self.p.pid, 0)
            self.p.returncode = os.waitstatus_to_exitcode(self.status)

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0


class Checker:
    """The harness's output checker, fed one request line at a time."""

    def __init__(self, workload, seed, work):
        self.argv = [HARNESS, "check", "-w", workload, "-s", str(seed),
                     "-d", work]
        self.p = None

    def ask(self, *words):
        # Started on first use, after the measurement: it regenerates the
        # inputs, which must not compete with the program under test.
        if self.p is None:
            self.p = subprocess.Popen(self.argv, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.p.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            raise BenchError("output checker died")
        return json.loads(line)

    def close(self):
        if self.p is not None and self.p.poll() is None:
            self.p.stdin.close()
            try:
                self.p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()


# --- statistics ----------------------------------------------------------


def tail_ms(latencies_s):
    """p99 once at least ten samples lie beyond it (1000 samples). A CLI
    run has a few invocations and no measurable tail: it reports the
    median."""
    xs = sorted(latencies_s)
    if len(xs) >= 1000:
        return 1000.0 * xs[int(0.99 * len(xs)) - 1]
    return 1000.0 * statistics.median(xs)


def labels_digest(reply):
    labels = json.dumps(json.loads(reply)["labels"])
    return hashlib.md5(labels.encode()).hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- setup ---------------------------------------------------------------


def gen(workload, seed, work):
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    r = subprocess.run([HARNESS, "gen", "-w", workload, "-s", str(seed),
                        "-d", work])
    if r.returncode != 0:
        raise BenchError("input generation failed")
    with open(os.path.join(work, "spec.json")) as f:
        return json.load(f)


class Conn:
    """One closed-loop NDJSON connection to the daemon."""

    def __init__(self, path, graph):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.graph = graph
        self.buf = b""
        self.log = []  # (cycle, step, reply line)
        self.latencies = []
        self.next = (0, 0)
        self.sent_at = None
        self.pending = None

    def send(self, line, tag):
        data = (line + "\n").encode()
        self.pending = tag
        self.sent_at = time.perf_counter()
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def read_line(self):
        """A complete reply if one has arrived, else None."""
        while b"\n" not in self.buf:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                return None
            if not chunk:
                raise BenchError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def call(self, line, timeout=REQUEST_TIMEOUT_S):
        """Blocking request/reply (setup only)."""
        self.send(line, None)
        deadline = time.monotonic() + timeout
        sel = selectors.DefaultSelector()
        sel.register(self.sock, selectors.EVENT_READ)
        try:
            while True:
                reply = self.read_line()
                if reply is not None:
                    return reply
                if time.monotonic() > deadline:
                    raise BenchError("daemon request timed out")
                sel.select(timeout=0.5)
        finally:
            sel.close()

    def close(self):
        self.sock.close()


def ok_frame(reply):
    return reply.startswith('{"ok":true')


class Daemon:
    def __init__(self, work, spec):
        self.work = work
        self.spec = spec
        self.path = os.path.join(work, "d.sock")
        self.proc = Proc([PPNPARTD, "--socket", self.path, "--workers",
                          str(JOBS)], stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:
            try:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                probe.connect(self.path)
                probe.close()
                break
            except OSError:
                probe.close()
                if self.proc.p.poll() is not None or time.monotonic() > deadline:
                    self.proc.kill()
                    raise BenchError("ppnpartd did not start")
                time.sleep(0.001)
        self.conns = [Conn(self.path, inst["name"]) for inst in spec["instances"]]

    def upload_and_partition(self):
        """Chunked upload, then the first partition, of each graph; the
        two connections run concurrently like two clients would."""
        scripts = []
        for conn, inst in zip(self.conns, self.spec["instances"]):
            with open(os.path.join(self.work, inst["file"])) as f:
                text = f.read()
            g = json.dumps(inst["name"])
            frames = [f'{{"op":"submit-begin","graph":{g}}}']
            for off in range(0, len(text), UPLOAD_PIECE):
                piece = json.dumps(text[off:off + UPLOAD_PIECE])
                frames.append(
                    f'{{"op":"submit-rows","graph":{g},"metis":{piece}}}')
            frames.append(f'{{"op":"submit-end","graph":{g}}}')
            frames.append(
                f'{{"op":"partition","graph":{g},"k":{inst["k"]},'
                f'"bmax":{inst["bmax"]},"rmax":{inst["rmax"]},'
                f'"seed":{self.spec["partition_seed"]}}}')
            scripts.append(frames)
        replies = closed_loop(
            self.conns,
            lambda ci, _: (scripts[ci].pop(0), None) if scripts[ci] else None,
            deadline=None)
        for conn, rs in zip(self.conns, replies):
            for _, reply in rs:
                if not ok_frame(reply):
                    raise BenchError("setup request failed: " + reply[:200])
            conn.log.append((-1, -1, rs[-1][1]))

    def stop(self):
        """Shut down through the protocol; returns the daemon's peak RSS."""
        try:
            self.conns[0].call('{"op":"shutdown"}')
        except (BenchError, OSError):
            pass
        for c in self.conns:
            c.close()
        if self.proc.wait(30) is None:
            raise BenchError("ppnpartd did not shut down")
        return self.proc.peak_rss_mb()

    def kill(self):
        for c in self.conns:
            c.close()
        self.proc.kill()


def closed_loop(conns, next_request, deadline):
    """Drive every connection in a closed loop: [next_request ci n]
    gives the (line, tag) of connection ci's n-th request, or None when
    it is done; no new request starts after [deadline]. Returns, per
    connection, the (tag, reply) pairs and records latencies."""
    sel = selectors.DefaultSelector()
    out = [[] for _ in conns]
    counts = [0] * len(conns)
    live = 0
    for ci, c in enumerate(conns):
        req = next_request(ci, 0)
        if req is not None:
            c.send(*req)
            sel.register(c.sock, selectors.EVENT_READ, ci)
            live += 1
    try:
        while live:
            events = sel.select(timeout=REQUEST_TIMEOUT_S)
            if not events:
                raise BenchError("daemon request timed out")
            for key, _ in events:
                ci = key.data
                c = conns[ci]
                reply = c.read_line()
                while reply is not None:
                    t = time.perf_counter()
                    c.latencies.append(t - c.sent_at)
                    out[ci].append((c.pending, reply))
                    counts[ci] += 1
                    req = None
                    if deadline is None or t < deadline:
                        req = next_request(ci, counts[ci])
                    if req is None:
                        sel.unregister(c.sock)
                        live -= 1
                        break
                    c.send(*req)
                    reply = c.read_line()
    finally:
        sel.close()
    return out


def setup(workload, seed, work, keep_daemon):
    """One set-up; returns (spec, daemon or None, seconds)."""
    t0 = time.perf_counter()
    spec = gen(workload, seed, work)
    daemon = None
    if workload == "daemon_edits":
        daemon = Daemon(work, spec)
        try:
            daemon.upload_and_partition()
        except BaseException:
            daemon.kill()
            raise
    elapsed = time.perf_counter() - t0
    if daemon is not None and not keep_daemon:
        daemon.stop()
        daemon = None
    return spec, daemon, elapsed


def repeated_setup(workload, seed, work, trace):
    """Full set-ups, repeated unless tracing; the last one is kept. The
    daemon's setup partition labels must agree across them."""
    times, digests = [], []
    while True:
        last = trace or (len(times) + 1 >= SETUP_REPS
                         and (sum(times) >= SETUP_MIN_S
                              or len(times) + 1 >= SETUP_MAX_REPS))
        spec, daemon, dt = setup(workload, seed, work, keep_daemon=last)
        times.append(dt)
        if daemon is not None:
            digests.append(tuple(labels_digest(c.log[0][2])
                                 for c in daemon.conns))
        if last:
            break
    deterministic = len(set(digests)) <= 1
    return spec, daemon, times, deterministic


# --- CLI workloads -------------------------------------------------------


def run_cli(work, inst, tag):
    labels = os.path.join(work, f"{tag}.part")
    out = os.path.join(work, f"{tag}.out")
    argv = [PPNPART, "partition", "-i", os.path.join(work, inst["file"]),
            "--mode", "stream", "-j", str(JOBS), "-k", str(inst["k"]),
            "--bmax", str(inst["bmax"]), "--rmax", str(inst["rmax"]),
            "--save", labels]
    with open(out, "w") as f:
        t0 = time.perf_counter()
        p = Proc(argv, stdout=f, stderr=subprocess.DEVNULL)
        code = p.wait(CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return {"inst": inst, "labels": labels, "out": out, "code": code,
            "wall": wall, "rss": p.peak_rss_mb()}


def cli_rounds(spec, work, seconds):
    """Partition every instance once per round until [seconds] pass."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        r = len(rounds)
        rounds.append([run_cli(work, inst, f"r{r}i{i}")
                       for i, inst in enumerate(spec["instances"])])
    return rounds


def check_cli_runs(checker, spec, runs):
    """Check every invocation; returns (answers, errors, infeasible,
    digests per instance)."""
    answers, errors = [], []
    infeasible = 0
    digests = {}
    for run in runs:
        idx = spec["instances"].index(run["inst"])
        if run["code"] not in (0, 4):
            errors.append(f"{run['inst']['name']}: exit code {run['code']}")
            continue
        a = checker.ask("cli", idx, run["labels"], run["out"], run["code"])
        if not a["ok"]:
            errors.append(f"{run['inst']['name']}: {a['error']}")
            continue
        answers.append(a)
        if not a["feasible"]:
            infeasible += 1
        digests.setdefault(idx, set()).add(a["digest"])
    for idx, ds in digests.items():
        if len(ds) > 1:
            errors.append(f"{spec['instances'][idx]['name']}: labels differ "
                          "between runs of the same input")
    return answers, errors, infeasible, digests


def measure_cli(work, spec, seconds, checker):
    rounds = cli_rounds(spec, work, seconds)
    runs = [run for rnd in rounds for run in rnd]
    answers, errors, infeasible, digests = check_cli_runs(checker, spec, runs)
    walls = [run["wall"] for run in runs]
    metrics = {
        "wall_s": metric(statistics.median(sum(r["wall"] for r in rnd)
                                           for rnd in rounds), "s"),
        "req_per_s": metric(len(runs) / sum(walls), "1/s"),
        "latency_p50_ms": metric(1000.0 * statistics.median(walls), "ms"),
        "latency_p99_ms": metric(tail_ms(walls), "ms"),
    }
    quality = quality_metrics(answers)
    metrics.update(quality)
    metrics["peak_rss_mb"] = metric(max(r["rss"] for r in runs), "MB")
    info = {"invocations": len(runs), "rounds": len(rounds),
            "infeasible": infeasible,
            "labels_digest": hashlib.md5(" ".join(
                sorted(d)[0] for _, d in sorted(digests.items())).encode()
            ).hexdigest()}
    return metrics, len(runs), errors, infeasible, info


def quality_metrics(answers):
    if not answers:
        return {}
    return {
        "cut_ratio": metric(statistics.mean(a["cut_ratio"] for a in answers), "1"),
        "violation_ratio": metric(
            statistics.mean(a["violation_ratio"] for a in answers), "1"),
    }


# --- daemon workload -----------------------------------------------------


def edit_cycles(daemon, deadline):
    """Closed loop over both connections: nine single-op repartition
    batches, then a report read, per cycle."""
    spec = daemon.spec

    def next_request(ci, _):
        c = daemon.conns[ci]
        cycle, step = c.next
        g = json.dumps(c.graph)
        if step < REPORT_STEP:
            op = spec["cycles"][ci][cycle % len(spec["cycles"][ci])][step]
            line = f'{{"op":"repartition","graph":{g},"edits":[{op}]}}'
        else:
            line = f'{{"op":"report","graph":{g}}}'
        c.next = (cycle, step + 1) if step < REPORT_STEP else (cycle + 1, 0)
        return line, (cycle, step)

    t0 = time.perf_counter()
    for c in daemon.conns:
        c.latencies = []
    replies = closed_loop(daemon.conns, next_request, deadline)
    t1 = time.perf_counter()
    for c, rs in zip(daemon.conns, replies):
        for (cycle, step), reply in rs:
            c.log.append((cycle, step, reply))
    return t1 - t0


def cycle_walls(conn):
    """Send of a cycle's first request to its report reply."""
    walls, acc = [], 0.0
    entries = [e for e in conn.log if e[0] >= 0]
    for (cycle, step, _), lat in zip(entries, conn.latencies):
        acc += lat
        if step == REPORT_STEP:
            walls.append(acc)
            acc = 0.0
    return walls


def check_daemon_logs(checker, daemon):
    errors, answers = [], []
    infeasible = 0
    for ci, c in enumerate(daemon.conns):
        path = os.path.join(daemon.work, f"conn{ci}.replies")
        with open(path, "w") as f:
            for cycle, step, reply in c.log:
                f.write(f"{cycle} {step} {reply}\n")
        a = checker.ask("daemon", ci, path, REPLAY_EVERY)
        if not a["ok"]:
            errors.append(f"connection {ci}: {a['error']}")
            continue
        infeasible += a["infeasible"]
        answers.append(a)
    return answers, errors, infeasible


def measure_daemon(daemon, seconds, checker):
    elapsed = edit_cycles(daemon, time.perf_counter() + seconds)
    rss = daemon.stop()
    lat = [x for c in daemon.conns for x in c.latencies]
    walls = [w for c in daemon.conns for w in cycle_walls(c)]
    answers, errors, infeasible = check_daemon_logs(checker, daemon)
    n_answers = sum(a["answers"] for a in answers)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "req_per_s": metric(len(lat) / elapsed, "1/s"),
        "latency_p50_ms": metric(1000.0 * statistics.median(lat), "ms"),
        "latency_p99_ms": metric(tail_ms(lat), "ms"),
    }
    if answers:
        metrics["cut_ratio"] = metric(
            sum(a["cut_ratio_sum"] for a in answers) / n_answers, "1")
        metrics["violation_ratio"] = metric(
            sum(a["violation_ratio_sum"] for a in answers) / n_answers, "1")
    metrics["peak_rss_mb"] = metric(rss, "MB")
    info = {"requests": len(lat), "answers": n_answers,
            "replayed": sum(a["replayed"] for a in answers),
            "infeasible": infeasible,
            "labels_digest": hashlib.md5(" ".join(
                labels_digest(c.log[0][2]) for c in daemon.conns).encode()
            ).hexdigest()}
    return metrics, len(lat), errors, infeasible, info


# --- traced run ----------------------------------------------------------


def traced(workload, seed, work, daemon, checker):
    """The harness's traced in-process repetition of the workload's
    operations, next to their untraced end-to-end time: the harness
    launches the CLI itself, per instance, between its own passes; the
    daemon's latency comes from a short untraced closed loop first."""
    argv = [HARNESS, "trace", "-w", workload, "-s", str(seed), "-d", work]
    errors = []
    attempted = 0
    if daemon is None:
        argv += ["--ppnpart", PPNPART]
    else:
        edit_cycles(daemon, time.perf_counter() + TRACE_LOOP_S)
        daemon.stop()
        lat = [x for c in daemon.conns for x in c.latencies]
        attempted = len(lat)
        _, errors, _ = check_daemon_logs(checker, daemon)
        argv += ["--latency-ms", repr(1000.0 * statistics.median(lat))]
    r = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0 or not r.stdout.strip():
        raise BenchError("traced run failed")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    errors += result["errors"]
    attempted += result["attempted"]
    return result["metrics"], attempted, errors


# --- main ----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    daemon = checker = None
    try:
        spec, daemon, setup_times, setup_det = repeated_setup(
            args.workload, args.seed, work, args.trace)
        errors = [] if setup_det else ["setup partition labels differ "
                                       "between set-ups of the same input"]
        checker = Checker(args.workload, args.seed, work)
        if args.trace:
            metrics, attempted, errs = traced(
                args.workload, args.seed, work, daemon, checker)
            errors += errs
            infeasible, info = 0, {}
        elif daemon is None:
            metrics, attempted, errs, infeasible, info = measure_cli(
                work, spec, args.seconds, checker)
            errors += errs
        else:
            metrics, attempted, errs, infeasible, info = measure_daemon(
                daemon, args.seconds, checker)
            errors += errs
        daemon = None
        if not args.trace:
            metrics = {"setup_s": metric(statistics.median(setup_times), "s"),
                       **metrics}
        if "witness" in spec:
            info["witness_feasible"] = spec["witness"]["feasible"]
        info["error_frac"] = len(errors) / attempted
        info["infeasible_frac"] = infeasible / attempted
        log(json.dumps(info, sort_keys=True))
        for e in errors:
            log("ERROR " + e)
    finally:
        if daemon is not None:
            daemon.kill()
        if checker is not None:
            checker.close()
        shutil.rmtree(work, ignore_errors=True)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(2)
