#!/usr/bin/env python3
"""Feeds the harness's output checks corrupted outputs and confirms that it
counts those operations as failed.

    python3 perfbench/test_checks.py

Needs no build: the program is replaced by fakes that corrupt one output.
"""

import os
import shutil
import socket
import struct
import sys
import tempfile
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import selfcheck  # noqa: E402


class FakeCorpus:
    classes = ["a", "b"]

    def cut(self, cls, x, y, w, h):
        return bytes((x * 7 + y * 3 + i + ord(cls)) % 256 for i in range(w * h))


class FakeRunner:
    """Stands in for `perfbench-probe runner`: `compress` copies the PGM,
    `decompress` and `crop` write their output, with one byte flipped when
    `corrupt` names that command."""

    def __init__(self, corrupt):
        self.corrupt = corrupt
        self.ref_ns = []

    def ref(self):
        self.ref_ns.append(1000)
        return 1000

    def run(self, argv):
        cmd, pos = argv[1], [a for a in argv[2:] if not a.startswith("--")]
        if cmd == "compress":
            shutil.copyfile(pos[-2], pos[-1])
        elif cmd == "decompress":
            self._write(pos[-1], run.read_file(pos[-2]), cmd)
        elif cmd == "crop":
            x, y, w, h = map(int, argv[argv.index("--rect") + 1].split(","))
            sw, _, pixels = run.parse_pgm(run.read_file(pos[-2]))
            self._write(pos[-1], run.pgm_bytes(w, h, run.cut(pixels, sw, x, y, w, h)), cmd)
        return 0, 1_000_000, 1_000_000, 1024

    def _write(self, path, data, cmd):
        if cmd == self.corrupt:
            data = data[:-1] + bytes([data[-1] ^ 1])
        with open(path, "wb") as f:
            f.write(data)


def context(corrupt, work):
    ctx = run.Context()
    ctx.corpus, ctx.seed, ctx.seconds, ctx.work = FakeCorpus(), 1, 0, work
    ctx.cbic, ctx.runner, ctx.cleanup = "cbic", FakeRunner(corrupt), []
    return ctx


class CliChecks(unittest.TestCase):
    def setUp(self):
        self.work = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.work)

    def run_workload(self, fn, corrupt):
        tally = run.Tally()
        fn(context(corrupt, self.work), tally)
        return tally

    def test_archive_counts_a_wrong_decompress_as_failed(self):
        good = self.run_workload(run.archive, None)
        self.assertEqual(good.failed, 0)
        bad = self.run_workload(run.archive, "decompress")
        self.assertEqual(bad.attempted, good.attempted)
        self.assertEqual(bad.failed, bad.attempted // 2)  # every decompress, no compress

    def test_viewer_counts_wrong_crops_and_decodes_as_failed(self):
        old = run.VIEWER_W, run.VIEWER_H
        run.VIEWER_W, run.VIEWER_H = 512, 384  # the fake corpus is slow at 4K
        self.addCleanup(setattr, run, "VIEWER_W", old[0])
        self.addCleanup(setattr, run, "VIEWER_H", old[1])
        self.assertEqual(self.run_workload(run.viewer, None).failed, 0)
        crops = self.run_workload(run.viewer, "crop")
        self.assertEqual(crops.failed, run.VIEWER_MIN_ROUNDS * run.VIEWER_CROPS_PER_ROUND)
        whole = self.run_workload(run.viewer, "decompress")
        self.assertEqual(whole.failed, run.VIEWER_MIN_ROUNDS)


class FakeServer:
    """Speaks the wire protocol on localhost; its DECODE reply flips one sample."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        conn, _ = self.listener.accept()
        with conn:
            while True:
                head = conn.recv(4, socket.MSG_WAITALL)
                if len(head) < 4:
                    return
                body = run.recv_exact(conn, struct.unpack("<I", head)[0])
                if body[0] == 1:
                    w, h = struct.unpack("<II", body[8:16])
                    reply = b"\x00" + bytes(8) + b"FAKE" + struct.pack("<II", w, h) + body[21:]
                else:
                    w, h = struct.unpack("<II", body[5:13])
                    samples = bytearray(body[13:])
                    samples[0] ^= 1
                    reply = b"\x00" + struct.pack("<IIB", w, h, 8) + bytes(samples)
                conn.sendall(run.frame(reply))

    def connect(self):
        return socket.create_connection(self.addr, timeout=10)


class ServiceChecks(unittest.TestCase):
    def test_wrong_decode_samples_fail_the_session(self):
        server = FakeServer()
        pixels = bytes(range(256)) * 64
        ok, enc_ns, dec_ns, container = run.session(server, pixels)
        server.listener.close()
        self.assertFalse(ok)
        self.assertIsNotNone(container)
        self.assertGreater(enc_ns, 0)

    def test_decode_matches_needs_every_sample(self):
        pixels = bytes(range(16))
        reply = b"\x00" + struct.pack("<IIB", 4, 4, 8) + pixels
        self.assertTrue(run.decode_matches(reply, 4, 4, pixels))
        self.assertFalse(run.decode_matches(reply[:-1] + b"\x00", 4, 4, pixels))
        self.assertFalse(run.decode_matches(b"\x04", 4, 4, pixels))


class OutputChecks(unittest.TestCase):
    DECLARED = {"a_ms": "ms", "b": "bit/px"}

    def result(self, metrics):
        return ('{"correct": true, "attempted": 3, "failed": 0, "metrics": {%s}}'
                % ", ".join(metrics))

    def test_accepts_each_declared_metric_once(self):
        out = self.result(['"a_ms": {"value": 1.5, "unit": "ms"}',
                           '"b": {"value": 4.1, "unit": "bit/px"}'])
        self.assertEqual(selfcheck.check_output(out, self.DECLARED, True), [])

    def test_rejects_repeats_zero_and_undeclared(self):
        out = self.result(['"a_ms": {"value": 1.5, "unit": "ms"}',
                           '"a_ms": {"value": 1.5, "unit": "ms"}',
                           '"b": {"value": 0, "unit": "bit/px"}',
                           '"c": {"value": 1, "unit": "s"}'])
        problems = " ".join(selfcheck.check_output(out, self.DECLARED, True))
        self.assertIn("a_ms printed more than once", problems)
        self.assertIn("b: value 0", problems)
        self.assertIn("undeclared metric c", problems)


if __name__ == "__main__":
    unittest.main()
