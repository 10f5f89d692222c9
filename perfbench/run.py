#!/usr/bin/env python3
"""End-to-end benchmark of the cbic binaries, with a traced per-layer run.

    python3 perfbench/run.py --workload archive|viewer|service \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds `cbic`, `cbic-serve` and
the helper in `perfbench/probe` with cargo (into `$CARGO_TARGET_DIR`,
default `.bench_build`), makes the workload's inputs from the seed, runs the
workload for at least `--seconds` seconds of whole rounds, checks every
output against a computation made here, and prints one JSON object as the
last line of stdout. See perfbench/README.md for workloads and metrics.

The end-to-end run (`--trace 0`) drives only the shipped binaries and the
documented wire protocol. The traced run (`--trace 1`) links the library
through `perfbench-probe trace`, probes the server and the CLI from here,
and writes its spans to `.perfbench/spans/`.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = ".perfbench"
CORPUS_SIZE = 4096

# Set-up is repeated this many times per run; setup_s is their median.
SETUP_REPEATS = 3

ARCHIVE_SIZE = 1024
ARCHIVE_MIN_ROUNDS = 8  # 8 rounds x 14 CLI calls >= 100 unit operations

VIEWER_CLASS = "lena"
VIEWER_W, VIEWER_H = 3840, 2160
VIEWER_TILE = 256
VIEWER_CROP = 256
VIEWER_CROPS_PER_ROUND = 25
VIEWER_MIN_ROUNDS = 4  # 4 rounds x 25 crops >= 100 unit operations

SERVICE_SIZE = 128
SERVICE_IMAGES = 64
SERVICE_RATE = 60.0  # users per second, about half of the ~120/s two workers sustain
SERVICE_SEGMENT_S = 0.5  # arrivals between two reference-kernel samples
SERVICE_MIN_SEGMENTS = 8
SERVICE_WARMUP = 16  # ENCODE+DECODE pairs before timing, half on each of 2 connections
SERVICE_CHECK_EVERY = 16  # every 16th container also goes through `cbic decompress`
CLIENT_THREADS = 2

REF_PIXELS = 1 << 16  # pixels one reference-kernel call processes
# Reference-kernel calls before each timed operation. Single samples are
# bimodal on a shared host; four per operation and an interquartile mean
# keep the run's reference steady to about 2%.
REF_CALLS = 4


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- inputs


def pgm_bytes(w, h, pixels):
    """An 8-bit PGM in the exact form `cbic` writes."""
    return b"P5\n%d %d\n255\n" % (w, h) + pixels


def parse_pgm(data):
    """(width, height, pixels) of an 8-bit binary PGM."""
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.index(b"\n", pos) + 1
            continue
        end = pos
        while not data[end : end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    if fields[0] != b"P5" or int(fields[3]) > 255:
        raise ValueError("not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    return w, h, data[pos + 1 : pos + 1 + w * h]


def cut(pixels, stride, x, y, w, h):
    """The w x h rectangle at (x, y) of a row-major 8-bit image."""
    return b"".join(pixels[(y + r) * stride + x : (y + r) * stride + x + w] for r in range(h))


class Corpus:
    """The `cbic corpus --size 4096` images, generated once per checkout."""

    def __init__(self, cbic):
        self.dir = os.path.join(STATE, f"corpus-{CORPUS_SIZE}")
        if not os.path.isdir(self.dir):
            tmp = f"{self.dir}.tmp-{os.getpid()}"
            log(f"generating the {CORPUS_SIZE}px corpus once for this checkout (about a minute)")
            subprocess.run([cbic, "corpus", "--size", str(CORPUS_SIZE), tmp],
                           check=True, stdout=subprocess.DEVNULL)
            os.rename(tmp, self.dir)
        self.classes = sorted(f[:-4] for f in os.listdir(self.dir) if f.endswith(".pgm"))
        if not self.classes:
            raise RuntimeError(f"{self.dir} holds no images")

    def cut(self, cls, x, y, w, h):
        """Reads only the rows of the band it needs."""
        with open(os.path.join(self.dir, f"{cls}.pgm"), "rb") as f:
            head = f.read(64)
            sw, sh, _ = parse_pgm(head + b"\0" * (CORPUS_SIZE * 2))
            offset = head.index(b"255\n") + 4
            assert (sw, sh) == (CORPUS_SIZE, CORPUS_SIZE) and x + w <= sw and y + h <= sh
            f.seek(offset + y * sw)
            band = f.read(h * sw)
        return cut(band, sw, x, 0, w, h)


# ---------------------------------------------------------------- helpers


def interquartile_mean(values):
    """Mean of the middle half of `values`."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k : len(ordered) - k])


class Runner:
    """The `perfbench-probe runner` co-process: reference kernel and spawner."""

    def __init__(self, probe):
        self.proc = subprocess.Popen([probe, "runner"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        ready = self.proc.stdout.readline().split()
        if not ready or ready[0] != "ready":
            raise RuntimeError("runner did not start")
        self.nominal_ns_px = float(ready[1])
        self.ref_ns = []

    def _ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if not reply:
            raise RuntimeError("runner exited")
        return reply

    def ref(self):
        """REF_CALLS reference-kernel calls; their times join this run's samples."""
        for _ in range(REF_CALLS):
            self.ref_ns.append(int(self._ask("ref")[1]))

    def run(self, argv):
        """(exit code, wall ns, cpu ns, peak rss KiB) of one child process."""
        _, code, wall, cpu, rss = self._ask("run\t" + "\t".join(argv))
        return int(code), int(wall), int(cpu), int(rss)

    def scale(self):
        """Factor turning this run's times into nominal-host times."""
        return self.nominal_ns_px / (interquartile_mean(self.ref_ns) / REF_PIXELS)

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Tally:
    """Operations attempted and failed, and the sums the metrics come from."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_ns = []
        self.enc_ns = self.enc_px = 0
        self.dec_ns = self.dec_px = 0
        self.cpu_ns = self.cpu_px = 0
        self.bytes = self.bytes_px = 0
        self.rss_kib = 0
        self.setup_ns = []

    def check(self, ok):
        """Counts one operation; a wrong output counts it as failed."""
        self.attempted += 1
        self.failed += not ok

    def cli(self, ctx, argv, cpu_px):
        """Runs one timed CLI call after the reference kernel; returns (exit code, wall ns)."""
        ctx.runner.ref()
        code, wall, cpu, rss = ctx.runner.run(argv)
        self.cpu_ns += cpu
        self.cpu_px += cpu_px
        self.rss_kib = max(self.rss_kib, rss)
        return code, wall

    def metrics(self, scale):
        p90 = statistics.quantiles(self.op_ns, n=10, method="inclusive")[8]
        return {
            "encode_ns_px": (self.enc_ns / self.enc_px * scale, "ns/px"),
            "decode_ns_px": (self.dec_ns / self.dec_px * scale, "ns/px"),
            "cpu_ns_px": (self.cpu_ns / self.cpu_px * scale, "ns/px"),
            "op_p50_ms": (statistics.median(self.op_ns) / 1e6 * scale, "ms"),
            "op_p90_ms": (p90 / 1e6 * scale, "ms"),
            "bpp": (self.bytes * 8 / self.bytes_px, "bit/px"),
            "peak_rss_mb": (self.rss_kib / 1024, "MiB"),
            "setup_s": (statistics.median(self.setup_ns) / 1e9 * scale, "s"),
        }


def timed_setup(tally, fn):
    """Runs `fn` SETUP_REPEATS times, recording each duration; returns the last result."""
    result = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter_ns()
        result = fn()
        tally.setup_ns.append(time.perf_counter_ns() - start)
    return result


# ---------------------------------------------------------------- archive


def archive_inputs(corpus, seed, work):
    rng = random.Random(f"archive-{seed}")
    images = []
    for cls in corpus.classes:
        x = rng.randrange(CORPUS_SIZE - ARCHIVE_SIZE + 1)
        y = rng.randrange(CORPUS_SIZE - ARCHIVE_SIZE + 1)
        data = pgm_bytes(ARCHIVE_SIZE, ARCHIVE_SIZE, corpus.cut(cls, x, y, ARCHIVE_SIZE, ARCHIVE_SIZE))
        path = os.path.join(work, f"archive-{cls}.pgm")
        with open(path, "wb") as f:
            f.write(data)
        images.append((path, data))
    return rng, images


def archive(ctx, tally):
    """Whole 1K images through `cbic compress` / `cbic decompress`, one at a time."""

    def setup():
        rng, images = archive_inputs(ctx.corpus, ctx.seed, ctx.work)
        path, _ = images[0]
        ctx.runner.run([ctx.cbic, "compress", path, path + ".cbic"])
        ctx.runner.run([ctx.cbic, "decompress", path + ".cbic", path + ".out"])
        return rng, images

    rng, images = timed_setup(tally, setup)
    px = ARCHIVE_SIZE * ARCHIVE_SIZE
    start, rounds = time.monotonic(), 0
    while rounds < ARCHIVE_MIN_ROUNDS or time.monotonic() - start < ctx.seconds:
        for path, source in rng.sample(images, len(images)):
            container, out = path + ".cbic", path + ".out"
            code, wall = tally.cli(ctx, [ctx.cbic, "compress", path, container], px)
            tally.op_ns.append(wall)
            tally.enc_ns += wall
            tally.enc_px += px
            size = os.path.getsize(container) if code == 0 else 0
            tally.bytes += size
            tally.bytes_px += px
            tally.check(code == 0 and size > 0)

            code, wall = tally.cli(ctx, [ctx.cbic, "decompress", container, out], px)
            tally.op_ns.append(wall)
            tally.dec_ns += wall
            tally.dec_px += px
            tally.check(code == 0 and read_file(out) == source)
        rounds += 1


def read_file(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


# ---------------------------------------------------------------- viewer


def viewer_inputs(corpus, seed, work):
    rng = random.Random(f"viewer-{seed}")
    cls = VIEWER_CLASS if VIEWER_CLASS in corpus.classes else corpus.classes[0]
    x = rng.randrange(CORPUS_SIZE - VIEWER_W + 1)
    y = rng.randrange(CORPUS_SIZE - VIEWER_H + 1)
    pixels = corpus.cut(cls, x, y, VIEWER_W, VIEWER_H)
    path = os.path.join(work, "viewer.pgm")
    with open(path, "wb") as f:
        f.write(pgm_bytes(VIEWER_W, VIEWER_H, pixels))
    return rng, path, pixels


def viewer_rect(rng):
    return (rng.randrange(VIEWER_W - VIEWER_CROP + 1), rng.randrange(VIEWER_H - VIEWER_CROP + 1),
            VIEWER_CROP, VIEWER_CROP)


def tiled_compress(cbic, path):
    """argv of the viewer's tiled, 2-thread encode of `path` into `path`.cbti."""
    return [cbic, "compress", "--tile", f"{VIEWER_TILE}x{VIEWER_TILE}", "--threads", "2",
            path, path + ".cbti"]


def crop_matches(out_bytes, pixels, stride, rect):
    x, y, w, h = rect
    return out_bytes == pgm_bytes(w, h, cut(pixels, stride, x, y, w, h))


def viewer(ctx, tally):
    """One 4K image: tiled encode and whole decode at 2 threads, then 256x256 crops."""

    def setup():
        result = viewer_inputs(ctx.corpus, ctx.seed, ctx.work)
        ctx.runner.run(tiled_compress(ctx.cbic, result[1]))
        return result

    rng, path, pixels = timed_setup(tally, setup)
    source = pgm_bytes(VIEWER_W, VIEWER_H, pixels)
    container, whole, crop = path + ".cbti", path + ".out", path + ".crop"
    px = VIEWER_W * VIEWER_H
    start, rounds = time.monotonic(), 0
    while rounds < VIEWER_MIN_ROUNDS or time.monotonic() - start < ctx.seconds:
        code, wall = tally.cli(ctx, tiled_compress(ctx.cbic, path), px)
        tally.enc_ns += wall
        tally.enc_px += px
        size = os.path.getsize(container) if code == 0 else 0
        tally.bytes += size
        tally.bytes_px += px
        tally.check(code == 0 and size > 0)

        code, wall = tally.cli(ctx, [ctx.cbic, "decompress", "--threads", "2", container, whole], px)
        tally.dec_ns += wall
        tally.dec_px += px
        tally.check(code == 0 and read_file(whole) == source)

        for _ in range(VIEWER_CROPS_PER_ROUND):
            rect = viewer_rect(rng)
            code, wall = tally.cli(ctx, [ctx.cbic, "crop", "--rect", ",".join(map(str, rect)),
                                         container, crop], rect[2] * rect[3])
            tally.op_ns.append(wall)
            tally.check(code == 0 and crop_matches(read_file(crop), pixels, VIEWER_W, rect))
        rounds += 1


# ---------------------------------------------------------------- service


def service_inputs(corpus, seed):
    rng = random.Random(f"service-{seed}")
    images = []
    for i in range(SERVICE_IMAGES):
        cls = corpus.classes[i % len(corpus.classes)]
        x = rng.randrange(CORPUS_SIZE - SERVICE_SIZE + 1)
        y = rng.randrange(CORPUS_SIZE - SERVICE_SIZE + 1)
        images.append(corpus.cut(cls, x, y, SERVICE_SIZE, SERVICE_SIZE))
    return images


def frame(body):
    return struct.pack("<I", len(body)) + body


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return bytes(buf)


def call(sock, body):
    """Sends one request frame and returns the reply body."""
    sock.sendall(frame(body))
    (n,) = struct.unpack("<I", recv_exact(sock, 4))
    return recv_exact(sock, n)


def encode_body(w, h, pixels):
    """ENCODE of an 8-bit image with the flat `proposed` container (magic CBIC)."""
    return b"\x01CBIC" + bytes([1, 0, 8]) + struct.pack("<IIHH", w, h, 0, 0) + b"\x00" + pixels


def parse_encode_reply(reply):
    """The container of an OK ENCODE reply, else None."""
    return reply[9:] if reply[:1] == b"\x00" and len(reply) > 9 else None


def parse_decode_reply(reply):
    """(width, height, depth, samples) of an OK DECODE reply, else None."""
    if reply[:1] != b"\x00" or len(reply) < 10:
        return None
    w, h, depth = struct.unpack("<IIB", reply[1:10])
    return w, h, depth, reply[10:]


def decode_matches(reply, w, h, pixels):
    return parse_decode_reply(reply) == (w, h, 8, pixels)


class Server:
    """A `cbic-serve` child on an ephemeral localhost port."""

    def __init__(self, binary, work):
        self.log_path = os.path.join(work, f"serve-{time.monotonic_ns()}.log")
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen([binary, "--addr", "127.0.0.1:0", "--summary-secs", "0"],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        deadline = time.monotonic() + 30
        while True:
            text = read_file(self.log_path).decode(errors="replace")
            if "listening on " in text:
                host, port = text.split("listening on ")[1].split()[0].rsplit(":", 1)
                self.addr = (host, int(port))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"cbic-serve did not start: {text.strip()}")
            time.sleep(0.002)

    def connect(self):
        sock = socket.create_connection(self.addr, timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def cpu_ns(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def session(server, pixels, size=SERVICE_SIZE):
    """One user: new connection, ENCODE then DECODE, close.

    Returns (ok, encode ns, decode ns, container or None)."""
    try:
        t0 = time.perf_counter_ns()
        with server.connect() as sock:
            container = parse_encode_reply(call(sock, encode_body(size, size, pixels)))
            t1 = time.perf_counter_ns()
            if container is None:
                return False, t1 - t0, 0, None
            reply = call(sock, b"\x02" + container)
            t2 = time.perf_counter_ns()
        return decode_matches(reply, size, size, pixels), t1 - t0, t2 - t1, container
    except (OSError, ConnectionError):
        return False, 0, 0, None


def open_loop(server, images, runner, seconds, min_segments, on_result):
    """Independent users arriving at SERVICE_RATE from CLIENT_THREADS threads.

    Arrivals come in segments of SERVICE_SEGMENT_S; between two segments the
    clients drain and the reference kernel runs, and the schedule resumes
    after it. Calls on_result(k, due_ns, start_ns, result) per user."""
    per_segment = int(SERVICE_RATE * SERVICE_SEGMENT_S)
    interval_ns = int(1e9 / SERVICE_RATE)
    lock = threading.Lock()
    k_next = 0
    start, segments = time.monotonic(), 0
    while segments < min_segments or time.monotonic() - start < seconds:
        runner.ref()
        seg_first, seg_start = k_next, time.perf_counter_ns() + interval_ns
        seg_end = seg_first + per_segment

        def client():
            nonlocal k_next
            while True:
                with lock:
                    k = k_next
                    if k >= seg_end:
                        return
                    k_next += 1
                due = seg_start + (k - seg_first) * interval_ns
                delay = due - time.perf_counter_ns()
                if delay > 0:
                    time.sleep(delay / 1e9)
                begun = time.perf_counter_ns()
                result = session(server, images[k % len(images)])
                on_result(k, due, begun, result)

        threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        segments += 1


def service(ctx, tally):
    """An open loop of users, each a new connection with ENCODE then DECODE of 128x128."""

    servers = []
    ctx.cleanup.append(lambda: [s.stop() for s in servers])

    def setup():
        images = service_inputs(ctx.corpus, ctx.seed)
        server = Server(ctx.serve, ctx.work)
        servers.append(server)

        # Both workers get a connection; keeping them open means set-up
        # time is work, not the accept loop's idle sleeps.
        def warm(batch):
            with server.connect() as sock:
                for pixels in batch:
                    body = encode_body(SERVICE_SIZE, SERVICE_SIZE, pixels)
                    call(sock, b"\x02" + (parse_encode_reply(call(sock, body)) or b""))

        threads = [threading.Thread(target=warm, args=(images[i:SERVICE_WARMUP:2],))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return images

    images = timed_setup(tally, setup)
    for spare in servers[:-1]:
        spare.stop()
    server = servers[-1]
    px = SERVICE_SIZE * SERVICE_SIZE
    kept = []
    results_lock = threading.Lock()

    def on_result(k, due, begun, result):
        ok, enc, dec, container = result
        done = begun + enc + dec
        with results_lock:
            tally.op_ns.append(done - due)
            tally.enc_ns += enc
            tally.enc_px += px
            tally.dec_ns += dec
            tally.dec_px += px
            if container is not None:
                tally.bytes += len(container)
                tally.bytes_px += px
                if k % SERVICE_CHECK_EVERY == 0:
                    kept.append((k, container))
            tally.check(ok)

    cpu0 = server.cpu_ns()
    open_loop(server, images, ctx.runner, ctx.seconds, SERVICE_MIN_SEGMENTS, on_result)
    tally.cpu_ns = server.cpu_ns() - cpu0
    tally.cpu_px = tally.enc_px + tally.dec_px
    tally.rss_kib = server.peak_rss_kib()

    # Two paths agree: a sample of server containers through the CLI decoder.
    # A mismatch fails that user's operation, already counted as attempted.
    for k, container in kept:
        path = os.path.join(ctx.work, f"service-{k}.cbic")
        with open(path, "wb") as f:
            f.write(container)
        code, *_ = ctx.runner.run([ctx.cbic, "decompress", path, path + ".pgm"])
        expect = pgm_bytes(SERVICE_SIZE, SERVICE_SIZE, images[k % len(images)])
        if code != 0 or read_file(path + ".pgm") != expect:
            tally.failed += 1


# ---------------------------------------------------------------- traced run

TRACE_SERVER_IMAGES = 7
TRACE_CLI_CALLS = 20
TRACE_REF_CALLS = 5
TRACE_LOOP_SEGMENTS = 4


class Spans:
    """Spans of the harness side of the traced run, kept in memory."""

    def __init__(self):
        self.base = time.perf_counter_ns()
        self.spans = []

    def add(self, name, start_ns, end_ns, parent=None, op=0):
        self.spans.append({"id": len(self.spans), "name": name, "start_ns": start_ns - self.base,
                           "end_ns": end_ns - self.base, "parent": parent, "op": op})
        return len(self.spans) - 1


def server_metrics(server):
    """The server's METRICS text as {series: value}."""
    with server.connect() as sock:
        text = call(sock, b"\x04")[1:].decode()
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def trace(ctx):
    """Per-layer metrics on the workload's inputs; returns (attempted, failed, metrics)."""
    spans = Spans()
    t0 = time.perf_counter_ns()
    rois = []
    if ctx.workload == "archive":
        _, images = archive_inputs(ctx.corpus, ctx.seed, ctx.work)
        paths = [p for p, _ in images]
        pixel_sets = [(ARCHIVE_SIZE, parse_pgm(d)[2]) for _, d in images]
        rng = random.Random(f"archive-roi-{ctx.seed}")
        span = ARCHIVE_SIZE - VIEWER_CROP + 1
        rois = [(i, rng.randrange(span), rng.randrange(span), VIEWER_CROP, VIEWER_CROP)
                for i in range(len(paths)) for _ in range(4)]
    elif ctx.workload == "viewer":
        rng, path, pixels = viewer_inputs(ctx.corpus, ctx.seed, ctx.work)
        paths = [path]
        # The server is probed with a 1K cut: a 4K ENCODE would dominate the run.
        pixel_sets = [(ARCHIVE_SIZE, cut(pixels, VIEWER_W, 0, 0, ARCHIVE_SIZE, ARCHIVE_SIZE))]
        rois = [(0, *viewer_rect(rng)) for _ in range(VIEWER_CROPS_PER_ROUND)]
    else:
        images = service_inputs(ctx.corpus, ctx.seed)
        paths = []
        for i, pixels in enumerate(images):
            path = os.path.join(ctx.work, f"service-{i}.pgm")
            with open(path, "wb") as f:
                f.write(pgm_bytes(SERVICE_SIZE, SERVICE_SIZE, pixels))
            paths.append(path)
            rois.append((i, 32, 32, 64, 64))  # a 256x256 crop does not fit
        pixel_sets = [(SERVICE_SIZE, p) for p in images]
    spans.add("setup", t0, time.perf_counter_ns())

    attempted = failed = 0
    for _ in range(TRACE_REF_CALLS):
        ctx.runner.ref()

    # In-process layers.
    spans_dir = os.path.join(STATE, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    probe_spans = os.path.join(ctx.work, "probe-spans.json")
    argv = [ctx.probe, "trace", "--spans", probe_spans]
    for i, x, y, w, h in rois:
        argv += ["--roi", f"{i}:{x},{y},{w},{h}"]
    t0 = time.perf_counter_ns()
    out = subprocess.run(argv + paths, check=True, stdout=subprocess.PIPE, text=True).stdout
    spans.add("probe", t0, time.perf_counter_ns())
    layers = json.loads(out.strip().splitlines()[-1])
    attempted += layers["attempted"]
    failed += layers["failed"]
    metrics = dict(layers["metrics"])

    # Server: first reply vs a second request on the same connection, and
    # the server's own service-time histograms.
    server = Server(ctx.serve, ctx.work)
    ctx.cleanup.append(server.stop)
    first, warm = [], []
    parent = spans.add("server.probe", time.perf_counter_ns(), 0)
    for op, (size, pixels) in enumerate(pixel_sets[:TRACE_SERVER_IMAGES]):
        body = encode_body(size, size, pixels)
        attempted += 1
        try:
            t0 = time.perf_counter_ns()
            with server.connect() as sock:
                c1 = parse_encode_reply(call(sock, body))
                t1 = time.perf_counter_ns()
                c2 = parse_encode_reply(call(sock, body))
                t2 = time.perf_counter_ns()
                reply = call(sock, b"\x02" + (c1 or b""))
                t3 = time.perf_counter_ns()
        except (OSError, ConnectionError):
            failed += 1
            continue
        spans.add("server.first_reply", t0, t1, parent, op)
        spans.add("server.warm_rtt", t1, t2, parent, op)
        spans.add("server.decode", t2, t3, parent, op)
        first.append(t1 - t0)
        warm.append(t2 - t1)
        if c1 is None or c1 != c2 or not decode_matches(reply, size, size, pixels):
            failed += 1
    spans.spans[parent]["end_ns"] = time.perf_counter_ns() - spans.base
    values = server_metrics(server)

    def mean_ms(hist):
        return values.get(f"{hist}_sum", 0) / max(values.get(f"{hist}_count", 0), 1) / 1e3

    metrics["server.first_reply_ms"] = statistics.median(first) / 1e6 if first else 0.0
    metrics["server.warm_rtt_ms"] = statistics.median(warm) / 1e6 if warm else 0.0
    metrics["server.encode_service_ms"] = mean_ms("cbic_encode_latency_us")
    metrics["server.decode_service_ms"] = mean_ms("cbic_decode_latency_us")

    # Open-loop generator lateness on the service inputs.
    lateness = []

    def on_result(k, due, begun, result):
        nonlocal attempted, failed
        lateness.append(begun - due)
        attempted += 1
        failed += 0 if result[0] else 1
        spans.add("loadgen.session", due, begun + result[1] + result[2], None, k)

    open_loop(server, service_inputs(ctx.corpus, ctx.seed), ctx.runner, 0, TRACE_LOOP_SEGMENTS,
              on_result)
    metrics["server.busy_rejections"] = server_metrics(server).get("cbic_busy_rejections_total", 0.0)
    metrics["loadgen.late_ms_p90"] = statistics.quantiles(lateness, n=10)[8] / 1e6

    startup = []
    for op in range(TRACE_CLI_CALLS):
        code, wall, _, _ = ctx.runner.run([ctx.cbic, "codecs"])
        attempted += 1
        failed += code != 0
        startup.append(wall)
    metrics["cli.startup_ms"] = statistics.median(startup) / 1e6
    metrics["bench.ref_ns_px"] = interquartile_mean(ctx.runner.ref_ns) / REF_PIXELS

    with open(probe_spans) as f:
        probe = json.load(f)
    path = os.path.join(spans_dir, f"{ctx.workload}-seed{ctx.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": ctx.workload, "seed": ctx.seed,
                   "harness": {"clock": "harness", "spans": spans.spans},
                   "probe": probe}, f)
    log(f"spans written to {path}")
    return attempted, failed, metrics


# ---------------------------------------------------------------- main

PER_LAYER_UNITS = {
    "pgm.read_ns_px": "ns/px", "pgm.write_ns_px": "ns/px",
    "engine.model_ns_px": "ns/px", "engine.decisions_per_px": "count/px",
    "engine.coded_decisions_per_px": "count/px",
    "arith.encode_ns_decision": "ns", "arith.decode_ns_decision": "ns",
    "codec.encode_ns_px": "ns/px", "codec.decode_ns_px": "ns/px",
    "stream.encode_ns_px": "ns/px", "stream.decode_ns_px": "ns/px",
    "grid.encode_ns_px_t1": "ns/px", "grid.encode_ns_px_t2": "ns/px",
    "grid.decode_ns_px_t1": "ns/px", "grid.decode_ns_px_t2": "ns/px",
    "grid.roi_ms": "ms", "grid.roi_tiles": "count", "grid.roi_bytes_read": "bytes",
    "grid.index_parse_us": "us", "grid.flat_bpp": "bit/px",
    "server.first_reply_ms": "ms", "server.warm_rtt_ms": "ms",
    "server.encode_service_ms": "ms", "server.decode_service_ms": "ms",
    "server.busy_rejections": "count",
    "cli.startup_ms": "ms", "loadgen.late_ms_p90": "ms", "bench.ref_ns_px": "ns/px",
}

WORKLOADS = {"archive": archive, "viewer": viewer, "service": service}


def build():
    """Builds the binaries and the probe; returns their paths."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    subprocess.run(cargo + ["--bin", "cbic", "--bin", "cbic-serve"], check=True,
                   stdout=sys.stderr)
    subprocess.run(cargo + ["--manifest-path", "perfbench/probe/Cargo.toml"], check=True,
                   stdout=sys.stderr)
    release = os.path.join(os.path.abspath(target), "release")
    return [os.path.join(release, b) for b in ("cbic", "cbic-serve", "perfbench-probe")]


class Context:
    pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)

    try:
        cbic, serve, probe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    ctx = Context()
    ctx.workload, ctx.seed, ctx.seconds = args.workload, args.seed, args.seconds
    ctx.cbic, ctx.serve, ctx.probe = cbic, serve, probe
    ctx.corpus = Corpus(cbic)
    ctx.work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(ctx.work, exist_ok=True)
    ctx.cleanup = []
    ctx.runner = Runner(probe)
    try:
        if args.trace:
            attempted, failed, values = trace(ctx)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            tally = Tally()
            WORKLOADS[args.workload](ctx, tally)
            attempted, failed = tally.attempted, tally.failed
            scale = ctx.runner.scale()
            log(f"reference kernel {ctx.runner.nominal_ns_px / scale:.4f} ns/px over "
                f"{len(ctx.runner.ref_ns)} calls; times scaled by {scale:.6f}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in tally.metrics(scale).items()}
    finally:
        for stop in reversed(ctx.cleanup):
            stop()
        ctx.runner.close()
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
