"""Start, reach and stop one ``python -m repro serve`` subprocess.

The timed runs measure the shipped defaults, so the child gets the
parent's environment with every ``REPRO_*`` variable removed, and is
driven only through the CLI and the HTTP routes.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

from bench_e2e import ROOT

HOST = "127.0.0.1"
#: Scratch space inside the checkout (git-ignored); each server gets its
#: own directory under it and removes it on the way out.
WORK_DIR = ROOT / "bench_e2e" / ".work"
#: How long a bootstrap at the benchmark's scale may take before the run
#: gives up.
SETUP_DEADLINE_S = 120.0
#: One slow reply must not hang the harness past the driver's patience.
REQUEST_TIMEOUT_S = 60.0

JSON_HEADERS = {"Content-Type": "application/json"}


@contextlib.contextmanager
def work_directory(prefix: str) -> Iterator[str]:
    """A fresh directory under ``WORK_DIR``, deleted on the way out."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only succeeds once the last user is gone


class ServerFailed(RuntimeError):
    """The server died or never answered ``/health`` during set-up."""


def scrubbed_environment() -> Tuple[Dict[str, str], List[str]]:
    """The child's environment and the ``REPRO_*`` names removed from it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env, removed


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)


def exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, bytes]:
    """One request on a kept-alive connection: ``(status, body)``."""
    conn.request(method, path, body or None, headers or JSON_HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def get_json(port: int, path: str) -> Any:
    conn = connect(port)
    try:
        status, body = exchange(conn, "GET", path)
    finally:
        conn.close()
    if status != 200:
        raise ServerFailed(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


@dataclass(frozen=True)
class Server:
    """A running ``repro serve`` subprocess that has answered ``/health``."""

    port: int
    pid: int
    #: Spawn to first 200 on ``/health``.
    setup_s: float
    directory: str

    def generation_path(self, number: int) -> str:
        return os.path.join(self.directory, "db", f"gen-{number:06d}")


def _read_log(log: IO[bytes]) -> str:
    log.flush()
    log.seek(0)
    return log.read().decode("utf-8", "replace")


def _await_health(
    process: subprocess.Popen, port: int, log: IO[bytes], deadline: float
) -> None:
    """Poll ``/health``; fail fast, with the server's output, if it dies."""
    while True:
        if process.poll() is not None:
            raise ServerFailed(
                f"server exited with {process.returncode} during set-up:\n"
                f"{_read_log(log)}"
            )
        try:
            if get_json(port, "/health").get("status") == "ok":
                return
        except (OSError, http.client.HTTPException, ServerFailed):
            pass
        if time.perf_counter() > deadline:
            raise ServerFailed(
                f"no 200 on /health within {SETUP_DEADLINE_S:.0f} s:\n"
                f"{_read_log(log)}"
            )
        time.sleep(0.01)


@contextlib.contextmanager
def serve(scale: float, seed: int) -> Iterator[Server]:
    """``repro serve --bootstrap-scale`` over a fresh temp directory.

    Entering spawns the server and waits for the first 200 on
    ``/health``.  Leaving terminates the child, waits for it, and deletes
    the directory — on every exit path, Ctrl-C included.
    """
    env, _removed = scrubbed_environment()
    with work_directory("srv-") as directory, open(
        os.path.join(directory, "server.log"), "w+b"
    ) as log:
        port = free_port()
        started = time.perf_counter()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                os.path.join(directory, "db"),
                "--bootstrap-scale", str(scale),
                "--seed", str(seed),
                "--refresh-interval", "0",
                "--port", str(port),
            ],
            env=env,
            cwd=directory,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            _await_health(process, port, log, started + SETUP_DEADLINE_S)
            yield Server(
                port, process.pid, time.perf_counter() - started, directory
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
