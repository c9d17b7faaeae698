"""The TCP shell around the wire handlers, for ``cloudpass serve``.

Each connection is read line by line; every line gets exactly one reply
from ``wire.handle_embassy_line`` or ``wire.handle_airport_line``, under
one lock per server. ``import cloudpass`` does not load this module, so
a run or a validation never loads the socket modules; it registers no
codec.
"""

from __future__ import annotations

import hashlib
import random
import socketserver
import threading

from .clouds import AirportCloud, EmbassyCloud
from .wire import MAX_LINE_BYTES, handle_airport_line, handle_embassy_line

__all__ = ["CloudServer", "serve"]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: CloudServer = self.server  # type: ignore[assignment]
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                # The rest of the line is never read, so no reply can be
                # lined up with the next request: answer once and hang up.
                self._reply("ERR LINE_TOO_LONG")
                return
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                self._reply("ERR BAD_UTF8")
                continue
            with server.lock:
                if isinstance(server.cloud, EmbassyCloud):
                    reply = handle_embassy_line(server.cloud, line, server.rng)
                else:
                    reply = handle_airport_line(server.cloud, line)
            self._reply(reply)

    def _reply(self, reply: str) -> None:
        self.wfile.write(reply.encode("utf-8") + b"\n")
        self.wfile.flush()


class CloudServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, cloud, port: int, host: str = "127.0.0.1"):
        self.cloud = cloud
        self.lock = threading.Lock()
        # Only an embassy draws (tracking ids); an airport has no rng.
        self.rng = None
        if isinstance(cloud, EmbassyCloud):
            self.rng = random.Random(int.from_bytes(hashlib.sha256(
                f"wire:{cloud.authority_id}".encode()).digest()[:8], "big"))
        super().__init__((host, port), _Handler)


def _default_cloud(role: str, name: str | None):
    if role == "embassy":
        authority = name or "XX"
        secret = hashlib.sha256(f"wire-secret:{authority}".encode()).digest()[:16]
        return EmbassyCloud(authority, secret)
    return AirportCloud(name or "XXX")


def serve(role: str, port: int, name: str | None = None) -> None:
    """Run one cloud on a TCP port until interrupted. Once bound, say where
    it listens: with port 0 the OS picks the port."""
    with CloudServer(_default_cloud(role, name), port) as server:
        host, bound = server.server_address[:2]
        print(f"listening on {host}:{bound}", flush=True)
        server.serve_forever()
