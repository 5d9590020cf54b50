"""Framed TCP transport for the distributed execution protocol.

Everything on the wire is a *frame*::

    +----------------+-----------+------------------+
    | payload length | type byte | payload bytes    |
    | u32 big-endian | u8        | ``length`` bytes |
    +----------------+-----------+------------------+

The framing layer is deliberately dumb: it moves opaque byte strings and
counts them.  What the bytes *mean* -- message types, codecs, version and
signature checks -- lives in :mod:`repro.distributed.protocol`, and the
pure functions here (:func:`encode_frame`, :class:`FrameDecoder`) are
directly property-tested without any sockets involved.

:class:`Connection` wraps a connected socket with thread-safe frame
sends (the worker's heartbeat-responder thread and its training loop
share one socket) and per-connection byte counters -- totals plus
always-on per-frame-type frame and byte tallies (one dict update per
frame, no telemetry branching on the hot path) -- which the coordinator
aggregates into its ``bytes_sent`` / ``bytes_received`` totals (what
``perf/`` reports as ``wire_bytes_per_round``) and into the telemetry
``wire.*`` metrics.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_PAYLOAD",
    "ConnectionClosed",
    "FrameError",
    "encode_frame",
    "FrameDecoder",
    "Connection",
]

#: ``(payload_length, msg_type)`` -- 5 bytes, network byte order.
FRAME_HEADER = struct.Struct("!IB")

#: Default upper bound on a single frame's payload.  A corrupt or
#: misaligned stream shows up as a nonsense length in the ``!IB`` header;
#: failing fast on the *announcement* beats buffering toward a
#: multi-gigabyte allocation.  The bound is configurable per decoder /
#: connection (``max_payload=``) -- a coordinator that knows its model
#: is 3 MB can refuse anything bigger long before the bytes arrive.
MAX_FRAME_PAYLOAD = 1 << 30


class FrameError(RuntimeError):
    """The byte stream does not parse as a valid frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF while a frame was expected)."""


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Serialise one frame to bytes."""
    if not 0 <= int(msg_type) <= 255:
        raise FrameError(f"msg_type must fit in one byte, got {msg_type}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte frame limit"
        )
    return FRAME_HEADER.pack(len(payload), int(msg_type)) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrarily-chunked byte stream.

    Feed it whatever ``recv`` returned; it yields complete
    ``(msg_type, payload)`` pairs and buffers partial frames until the
    rest arrives.  TCP guarantees ordering, so frames pop out exactly as
    the peer sent them.

    ``max_payload`` caps the payload length a header may announce;
    anything larger raises :class:`FrameError` the moment the 5-byte
    header parses, so a corrupt or malicious stream can never make the
    decoder buffer gigabytes.
    """

    def __init__(self, max_payload: Optional[int] = None) -> None:
        self._buf = bytearray()
        self.max_payload = (
            MAX_FRAME_PAYLOAD if max_payload is None else int(max_payload)
        )
        if self.max_payload < 1:
            raise ValueError(
                f"max_payload must be positive, got {self.max_payload}"
            )

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Absorb ``data``; return every frame completed by it."""
        self._buf.extend(data)
        frames: List[Tuple[int, bytes]] = []
        while True:
            frame = self._pop()
            if frame is None:
                return frames
            frames.append(frame)

    def _pop(self) -> Optional[Tuple[int, bytes]]:
        if len(self._buf) < FRAME_HEADER.size:
            return None
        length, msg_type = FRAME_HEADER.unpack_from(self._buf)
        if length > self.max_payload:
            raise FrameError(
                f"peer announced a {length}-byte payload, over the "
                f"{self.max_payload}-byte frame limit (corrupt stream?)"
            )
        end = FRAME_HEADER.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[FRAME_HEADER.size : end])
        del self._buf[:end]
        return msg_type, payload

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buf)


class Connection:
    """A framed, counted, thread-safe-send wrapper over one TCP socket."""

    RECV_CHUNK = 1 << 16

    def __init__(
        self, sock: socket.socket, max_payload: Optional[int] = None
    ) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX socketpair
            pass
        self._sock = sock
        self._send_lock = threading.Lock()
        self._decoder = FrameDecoder(max_payload=max_payload)
        self._ready: List[Tuple[int, bytes]] = []
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Always-on per-frame-type accounting, keyed by the type byte:
        #: one dict update per frame.  ``bytes_*_by_type`` counts framed
        #: bytes (header + payload); ``bytes_received`` above counts raw
        #: socket reads, so it can momentarily run ahead of the per-type
        #: sum while a frame is partially buffered.
        self.frames_sent: Dict[int, int] = {}
        self.frames_received: Dict[int, int] = {}
        self.bytes_sent_by_type: Dict[int, int] = {}
        self.bytes_received_by_type: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def send(self, msg_type: int, payload: bytes = b"") -> None:
        """Send one frame atomically (safe from multiple threads)."""
        frame = encode_frame(msg_type, payload)
        key = int(msg_type)
        with self._send_lock:
            self._sock.sendall(frame)
            self.bytes_sent += len(frame)
            self.frames_sent[key] = self.frames_sent.get(key, 0) + 1
            self.bytes_sent_by_type[key] = (
                self.bytes_sent_by_type.get(key, 0) + len(frame)
            )

    def recv(self, timeout: Optional[float] = None) -> Tuple[int, bytes]:
        """Receive the next frame.

        Raises :class:`ConnectionClosed` on EOF and ``socket.timeout``
        when ``timeout`` elapses mid-wait.  Only one thread may receive.
        """
        while not self._ready:
            self._sock.settimeout(timeout)
            data = self._sock.recv(self.RECV_CHUNK)
            if not data:
                raise ConnectionClosed("peer closed the connection")
            self.bytes_received += len(data)
            completed = self._decoder.feed(data)
            for msg_type, payload in completed:
                key = int(msg_type)
                self.frames_received[key] = (
                    self.frames_received.get(key, 0) + 1
                )
                self.bytes_received_by_type[key] = (
                    self.bytes_received_by_type.get(key, 0)
                    + FRAME_HEADER.size
                    + len(payload)
                )
            self._ready.extend(completed)
        return self._ready.pop(0)

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Blocking iterator over incoming frames until EOF."""
        while True:
            try:
                yield self.recv()
            except (ConnectionClosed, OSError):
                return

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
