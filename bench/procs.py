"""Server subprocess hygiene: free ports, readiness, reaping, leak checks.

Everything a run writes stays under ``bench/out/`` — the server's log, its
job directory — so a failed run is diagnosable and the checkout stays the
only place the benchmark touches.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from . import OUT_DIR, ROOT, child_env

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_python(args: Sequence[str], timeout_s: float = 170.0,
               capture: bool = True) -> subprocess.CompletedProcess:
    """Run ``python <args>`` from the repo root with ``src/`` importable;
    without ``capture`` the child writes to this process's stdout and stderr."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=capture, text=True, timeout=timeout_s)


class ServerProcess:
    """One ``python -m repro serve`` subprocess with TCP, HTTP and durable jobs.

    ``--no-store`` keeps routing hermetic: a results store left in the
    checkout by earlier tuning must not change which variant serves.
    """

    def __init__(self, tag: str, checkpoint_every: int) -> None:
        self.tag = tag
        self.checkpoint_every = checkpoint_every
        self.tcp_port = 0
        self.http_port = 0
        self.job_dir = ""
        self.log_path = os.path.join(OUT_DIR, f"server-{tag}-{os.getpid()}.log")
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> "ServerProcess":
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tcp_port, self.http_port = free_port(), free_port()
        self.job_dir = tempfile.mkdtemp(prefix=f"jobs-{self.tag}-", dir=OUT_DIR)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(self.tcp_port), "--http-port", str(self.http_port),
            "--no-store", "--job-dir", self.job_dir,
            "--checkpoint-every", str(self.checkpoint_every),
        ]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(argv, stdout=log, stderr=log,
                                            env=child_env(), cwd=OUT_DIR)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def client(self, transport: str = "http", binary_threshold_bytes: int = 0):
        """A :class:`StencilClient`; threshold 0 means RPG1 both ways."""
        from repro.client import ClientConfig, StencilClient

        port = self.http_port if transport == "http" else self.tcp_port
        return StencilClient(ClientConfig(
            transport=transport, port=port, timeout_s=120.0,
            binary_threshold_bytes=binary_threshold_bytes,
        ))

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} "
                                   f"before ready; see {self.log_path}")
            client = self.client()
            try:
                if client.ping(timeout_s=1.0):
                    return
            except Exception:  # noqa: BLE001 - still booting
                pass
            finally:
                client.close()
            time.sleep(0.02)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:g}s; "
                           f"see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set), in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported for the server process")

    def job_dir_bytes(self) -> int:
        total = 0
        for directory, _dirs, files in os.walk(self.job_dir):
            total += sum(os.path.getsize(os.path.join(directory, name))
                         for name in files)
        return total

    def stop(self) -> None:
        """Terminate, then kill, then reap; remove the job directory, and
        the log too when the server drained and exited cleanly."""
        process, self.process = self.process, None
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(STOP_TIMEOUT_S)
            if process.returncode == 0:
                os.unlink(self.log_path)
        if self.job_dir:
            shutil.rmtree(self.job_dir, ignore_errors=True)
            self.job_dir = ""

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def stop_resource_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait for it to end.

    The interpreter starts one for the reference workers' semaphores and the
    shard rung's shared memory and only lets go of it by exiting, so the
    tracker outlives this process: for a moment, or for good as a zombie
    where pid 1 does not reap orphans.  ``main`` calls this on every path
    out; by then nothing it tracks is left.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None:
        tracker._stop()     # closes the pipe it watches, then waitpid()s it


def _processes() -> Iterator[Tuple[str, List[str], str]]:
    """``(pid, stat fields from the state on, command line)`` of every
    process on the machine right now."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", encoding="utf-8") as handle:
                command = handle.read()
        except OSError:
            continue
        yield entry, fields, command


def leaked_children() -> List[str]:
    """Direct children of this process that a run should have reaped.

    ``multiprocessing``'s resource tracker is excluded: the interpreter
    keeps it for as long as it may track something, and ``main`` stops it
    on the way out (:func:`stop_resource_tracker`).
    """
    me = os.getpid()
    return [f"child process {pid} still alive" for pid, fields, command in _processes()
            if int(fields[1]) == me and "resource_tracker" not in command]


def session_members(session: int) -> List[str]:
    """Processes of ``session`` that exist right now, zombies included: what
    a run started with ``start_new_session`` left behind once it has exited."""
    return [f"process {pid} (state {fields[0]}, parent {fields[1]})"
            for pid, fields, _command in _processes() if int(fields[3]) == session]


def shm_segments() -> Set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments (``psm_*``,
    what shard slabs are) that exist on this machine right now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def leaked_shm(before: Set[str]) -> List[str]:
    """Segments that appeared since ``before`` and are still there.

    ``/dev/shm`` is machine-wide, so this is only taken around the shard
    rung, not around whole runs that may overlap another process's.
    """
    return [f"shared-memory segment {name} not unlinked"
            for name in sorted(shm_segments() - before)]
