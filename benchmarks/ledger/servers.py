"""Lifecycle of ``python -m repro.cli serve`` subprocesses under test.

The server runs in its own process so client and server never share an
interpreter lock.  :func:`start` parses the bound port from the banner
(``--port 0``), waits for ``GET /v1/stats`` to answer, and returns a
:class:`Server` whose :meth:`~Server.stop` terminates → waits → kills
on timeout and then verifies that nothing it spawned outlived it.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional

import httpclient
import proctree

_BANNER = re.compile(r"listening on http://([^:/\s]+):(\d+)")
_RECOVERED = re.compile(r"recovered version (\d+) .*?(\d+) wal records replayed")

#: How long a boot may take before the run is abandoned.
BOOT_TIMEOUT = 60.0


def write_data_file(path: str, db) -> int:
    """Write ``db`` in the CLI's data-file format and return its fact count.

    The format is ``{relation: [{"row": [...], "annotation": s}]}``.
    ``repro.io.database_to_dict`` wraps the same rows in
    ``{"relations": ...}``, which ``serve -d`` loads without complaint
    as one junk relation named ``relations`` — every join then comes
    back empty.  :meth:`Server.assert_loaded` guards against that.
    """
    payload: Dict[str, List[dict]] = {}
    count = 0
    for relation, row, annotation in db.all_facts():
        payload.setdefault(relation, []).append(
            {"row": list(row), "annotation": annotation}
        )
        count += 1
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return count


class Server:
    """A running serve subprocess: address, pid tree, stop."""

    def __init__(self, process: subprocess.Popen, host: str, port: int, log_path: str):
        self.process = process
        self.host = host
        self.port = port
        self.log_path = log_path
        self.recovered_version: Optional[int] = None
        self.replayed: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def connect(self, quickack: bool = False) -> httpclient.Connection:
        return httpclient.Connection(self.host, self.port, quickack)

    def stats(self, connection: httpclient.Connection) -> dict:
        response = connection.get("/v1/stats")
        if response.status != 200:
            raise RuntimeError("GET /v1/stats answered {}".format(response.status))
        return json.loads(response.body)

    def assert_loaded(self, connection: httpclient.Connection, facts: int) -> dict:
        """The server holds the facts the harness wrote (intern-table
        symbols are per fact on an abstractly-tagged database)."""
        stats = self.stats(connection)
        if stats["db_version"] < facts:
            raise RuntimeError(
                "server is at db version {} but {} facts were written: the "
                "data file did not load as relations".format(stats["db_version"], facts)
            )
        return stats

    def stop(self) -> None:
        """Terminate → wait → kill, then check for survivors."""
        spawned = [pid for pid in proctree.tree(self.pid) if pid != self.pid]
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(10)
        if self.process.stdout is not None:
            self.process.stdout.close()
        survivors = [pid for pid in spawned if proctree.command_line(pid)]
        if survivors:
            raise RuntimeError(
                "server {} left processes behind: {}".format(self.pid, survivors)
            )


def _read_line(process: subprocess.Popen, deadline: float) -> str:
    """One stdout line, or '' once the deadline passes or the pipe ends."""
    descriptor = process.stdout.fileno()
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        ready, _, _ = select.select([descriptor], [], [], remaining)
        if not ready:
            break
        byte = os.read(descriptor, 1)
        if not byte:
            break
        line += byte
    return line.decode("utf-8", "replace")


def start(
    src_dir: str,
    data_path: str,
    log_path: str,
    program_path: Optional[str] = None,
    data_dir: Optional[str] = None,
    server_mode: Optional[str] = None,
) -> Server:
    """Boot one server and return once ``/v1/stats`` answers."""
    command = [sys.executable, "-m", "repro.cli", "serve", "-d", data_path, "--port", "0"]
    if program_path is not None:
        command += ["-p", program_path]
    if data_dir is not None:
        command += ["--data-dir", data_dir]
    if server_mode is not None:
        command += ["--server-mode", server_mode]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = src_dir
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=environment
        )
    deadline = time.monotonic() + BOOT_TIMEOUT
    banner = _read_line(process, deadline)
    match = _BANNER.search(banner)
    if match is None:
        process.kill()
        process.wait()
        process.stdout.close()
        with open(log_path, "rb") as log:
            tail = log.read()[-2000:].decode("utf-8", "replace")
        raise RuntimeError("no banner from {!r}: {!r}\n{}".format(command, banner, tail))
    server = Server(process, match.group(1), int(match.group(2)), log_path)
    try:
        if data_dir is not None:
            # Printed and flushed together with the banner, so it is
            # already in the pipe if it is coming at all.
            recovered = _RECOVERED.search(
                _read_line(process, time.monotonic() + 0.5)
            )
            if recovered is not None:
                server.recovered_version = int(recovered.group(1))
                server.replayed = int(recovered.group(2))
        while True:
            try:
                connection = server.connect()
                try:
                    server.stats(connection)
                finally:
                    connection.close()
                return server
            except OSError:
                if time.monotonic() > deadline or process.poll() is not None:
                    raise RuntimeError("server never answered /v1/stats")
                time.sleep(0.01)
    except BaseException:
        server.stop()
        raise
