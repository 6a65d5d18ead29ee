"""The ``serve`` workload: a ``repro serve --wal`` process and its load.

A single-process load generator with two connections drives the server:

- reads: one closed-loop connection cycles the seeded ``/predict`` list,
  sending the next request when the previous reply has arrived;
- writes: a second connection posts one 16-event ``/ingest`` batch every
  ``write_period_s`` of the config on a fixed (open-loop) schedule, each
  timed from its scheduled send so a stalled server's backlog counts.
  Batches fall due only inside the run's nominal seconds, so a run that
  continues to reach its read floor still sees the same number of
  writes.

The load generator and every server it starts share one CPU
(:func:`pin_to_one_cpu`).  A read hands off between the client, the
server's event loop and a worker thread several times; on a virtual
machine a hand-off to another CPU waits on that CPU being scheduled by
the host, and that wait, not the program, set most of the run-to-run
spread of the read latency.

Every read passes ``deadline_ms=READ_DEADLINE_MS``: the first PA read
on each fresh snapshot enumerates every node pair, which on larger
graphs takes longer than the server's default 1000 ms deadline.  With
the longer deadline that read is slow instead of failed.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

READ_DEADLINE_MS = 20000
#: the server must print its banner and pass /readyz within this time.
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 60.0


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ServerError(RuntimeError):
    """The server failed to start, answer, or drain."""


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, work: Path, config: dict, tag: str, spans: "Path | None"):
        self.wal = work / f"wal-{tag}"
        self.stderr_path = work / f"server-{tag}.err"
        if spans is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, "-m", "perfbench.traced_serve", "--spans-out", str(spans), "--"]
        cmd += ["serve", "--trace", config["trace"], "--port", "0", "--wal", str(self.wal)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root))))
        started = time.perf_counter()
        with open(self.stderr_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=err, text=True
            )
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._await_ready(started + START_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if sel.select(timeout=0.5):
                    line = self.proc.stdout.readline()
                    if line.startswith("serving on http://"):
                        return int(line.strip().rsplit(":", 1)[1])
                    if not line:
                        break
                if self.proc.poll() is not None:
                    break
        raise ServerError(f"server did not start: {self.stderr_path.read_text()[-2000:]}")

    def _await_ready(self, deadline: float) -> None:
        conn = self.connect()
        try:
            while time.perf_counter() < deadline:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
                time.sleep(0.005)
        finally:
            conn.close()
        raise ServerError("server never became ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=READ_DEADLINE_MS / 1000 + 30)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait for a clean drain (exit 0)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not drain after SIGTERM") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise ServerError(f"server exited {code}: {self.stderr_path.read_text()[-2000:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def _get(conn: http.client.HTTPConnection, path: str) -> "tuple[int, bytes]":
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def drive(server: Server, config: dict, seconds: float, min_reads: int, toggle_at: "float | None") -> dict:
    """Run reads and scheduled writes until ``seconds`` and ``min_reads``.

    ``toggle_at`` (a share of ``seconds``) sends SIGUSR1 to the server
    at start and again at that point, between two reads, so a traced
    server records only the second part; reads carry their part's index.
    """
    reads, writes = [], []
    stop = threading.Event()
    phase = [0]
    started = time.perf_counter()

    def writer() -> None:
        conn = server.connect()
        try:
            for i, batch in enumerate(config["batches"]):
                due = started + config["write_offset_s"] + i * config["write_period_s"]
                if due >= started + seconds:
                    return
                while not stop.is_set() and time.perf_counter() < due:
                    stop.wait(min(0.05, max(0.0, due - time.perf_counter())))
                if stop.is_set():
                    return
                body = "\n".join(f"{u} {v} {t!r}" for u, v, t in batch["events"])
                sent, sent_phase = time.perf_counter(), phase[0]
                conn.request("POST", f"/ingest?deadline_ms={READ_DEADLINE_MS}", body=body.encode())
                response = conn.getresponse()
                payload = response.read()
                done = time.perf_counter()
                writes.append(
                    {"batch": i, "status": response.status, "body": payload.decode(),
                     "latency_ms": 1000.0 * (done - due), "late_ms": 1000.0 * (sent - due),
                     "phase": sent_phase}
                )
        finally:
            conn.close()

    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            writer()
        except BaseException as exc:  # reported by the reader thread below
            errors.append(exc)
            stop.set()

    def toggle() -> None:
        # Between two reads, so no read straddles the switch; the pause
        # lets the server act on the signal before the next request.
        server.proc.send_signal(signal.SIGUSR1)
        phase[0] += 1
        time.sleep(0.01)

    thread = threading.Thread(target=guarded, name="perfbench-writer")
    if toggle_at is not None:
        toggle()
    conn = server.connect()
    thread.start()
    try:
        i = 0
        read_list = config["reads"]
        while not stop.is_set():
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and len(reads) >= min_reads:
                break
            if toggle_at is not None and phase[0] == 1 and elapsed >= toggle_at * seconds:
                toggle()
            u, metric = read_list[i % len(read_list)]
            path = f"/predict?u={u}&k={config['k']}&metric={metric}&deadline_ms={READ_DEADLINE_MS}"
            t0 = time.perf_counter()
            status, body = _get(conn, path)
            latency = time.perf_counter() - t0
            reads.append(
                {"i": i, "u": u, "metric": metric, "status": status, "body": body.decode(),
                 "latency_ms": 1000.0 * latency, "phase": phase[0]}
            )
            i += 1
    finally:
        wall = time.perf_counter() - started
        stop.set()
        thread.join(STOP_TIMEOUT_S)
        conn.close()
    if thread.is_alive():
        raise ServerError("writer did not finish")
    if errors:
        raise errors[0]
    conn = server.connect()
    try:
        status, body = _get(conn, "/statz")
    finally:
        conn.close()
    if status != 200:
        raise ServerError(f"/statz returned {status}")
    return {"reads": reads, "writes": writes, "wall_s": wall, "statz": json.loads(body)}


def verify_wal(root: Path, wal: Path) -> "tuple[int, str]":
    """``repro wal verify`` on a stopped server's WAL directory."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "wal", "verify", str(wal)],
        env=env, capture_output=True, text=True, timeout=STOP_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout + proc.stderr
