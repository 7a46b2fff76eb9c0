"""The byte transport of the sharded backend: stdlib TCP on loopback.

A transport moves opaque frames (length-prefixed byte strings) between
the coordinator and its workers; all semantics live above it in
:mod:`repro.net.codec`.  It is used directly, with no dependencies::

    listener = TcpListener()                        # coordinator side
    conn = TcpConnection.connect(listener.address)  # worker side
    peer = listener.accept()       # coordinator's handle on it
    conn.send(frame); frame = peer.recv()

Addresses are picklable tuples so they can ride in the spawn config of
a worker process.
"""

from __future__ import annotations

import select
import socket
import struct
from typing import Tuple

__all__ = [
    "DEFAULT_TIMEOUT",
    "TcpConnection",
    "TcpListener",
    "TransportClosed",
]

#: Generous ceiling so a hung peer fails loudly instead of deadlocking
#: the round barrier forever.
DEFAULT_TIMEOUT = 300.0

_LEN = struct.Struct(">I")


class TransportClosed(ConnectionError):
    """The peer went away mid-conversation."""


class TcpConnection:
    """One bidirectional frame pipe over a connected socket.

    Every connection keeps frame/byte counters for both directions
    (payload bytes, excluding the length prefix).  The counts are always
    on — four integer adds per frame — so the coordinator can report
    per-worker transport totals without a telemetry opt-in.
    """

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        sock.settimeout(timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform quirk, not fatal
            pass
        self._sock = sock
        self.sent_frames = 0
        self.sent_bytes = 0
        self.recv_frames = 0
        self.recv_bytes = 0

    @classmethod
    def connect(
        cls, address: Tuple[object, ...], timeout: float = DEFAULT_TIMEOUT
    ) -> "TcpConnection":
        """The worker side: dial a :attr:`TcpListener.address`."""
        scheme, host, port = address
        if scheme != "tcp":
            raise ValueError("tcp transport got address {!r}".format(address))
        sock = socket.create_connection((str(host), int(port)), timeout=timeout)
        return cls(sock, timeout=timeout)

    def wire_totals(self) -> dict:
        return {
            "sent_frames": self.sent_frames,
            "sent_bytes": self.sent_bytes,
            "recv_frames": self.recv_frames,
            "recv_bytes": self.recv_bytes,
        }

    def send(self, frame: bytes) -> None:
        try:
            self._sock.sendall(_LEN.pack(len(frame)) + frame)
        except OSError as exc:
            raise TransportClosed("send failed: {}".format(exc))
        self.sent_frames += 1
        self.sent_bytes += len(frame)

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        while count:
            try:
                chunk = self._sock.recv(min(count, 1 << 20))
            except socket.timeout:
                raise TransportClosed(
                    "peer silent past the {}s transport timeout".format(
                        self._sock.gettimeout()
                    )
                )
            except OSError as exc:
                raise TransportClosed("recv failed: {}".format(exc))
            if not chunk:
                raise TransportClosed("peer closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> bytes:
        (length,) = _LEN.unpack(self._recv_exact(_LEN.size))
        frame = self._recv_exact(length)
        self.recv_frames += 1
        self.recv_bytes += len(frame)
        return frame

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


class TcpListener:
    """The coordinator side: accepts worker connections."""

    def __init__(self, host: str = "127.0.0.1", timeout: float = DEFAULT_TIMEOUT):
        self._timeout = timeout
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
        self._sock.listen(64)
        self._sock.settimeout(timeout)
        self._host, self._port = self._sock.getsockname()

    @property
    def address(self) -> Tuple[str, str, int]:
        return ("tcp", self._host, self._port)

    def wait(self, seconds: float) -> bool:
        """True once a peer is waiting to be accepted, False after
        ``seconds`` without one."""
        return bool(select.select([self._sock], [], [], seconds)[0])

    def accept(self) -> TcpConnection:
        try:
            sock, _ = self._sock.accept()
        except socket.timeout:
            raise TransportClosed("no worker connected before the timeout")
        return TcpConnection(sock, timeout=self._timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
