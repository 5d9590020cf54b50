"""Framed TCP transport for the distributed execution protocol.

Everything on the wire is a *frame*::

    +----------------+-----------+------------------+
    | payload length | type byte | payload bytes    |
    | u32 big-endian | u8        | ``length`` bytes |
    +----------------+-----------+------------------+

The framing layer is deliberately dumb: it moves opaque byte strings and
counts them.  What the bytes *mean* -- message types, codecs, version and
signature checks -- lives in :mod:`repro.distributed.protocol`.

:class:`Connection` is the one frame writer and the one frame parser.
A frame is written from and read into one buffer: ``send`` hands the
5-byte header and the caller's payload to the socket as two buffers
(never a ``header + payload`` copy), and ``recv`` reads the header,
checks the announced length against the cap, then ``recv_into``s a
single buffer of exactly that length and returns it.  Sends are
thread-safe (the worker's heartbeat-responder thread and its training
loop share one socket), and every connection keeps byte counters --
totals plus always-on per-frame-type frame and byte tallies (one dict
update per frame, no telemetry branching on the hot path) -- which the
coordinator aggregates into its ``bytes_sent`` / ``bytes_received``
totals (what ``perf/`` reports as ``wire_bytes_per_round``) and into
the telemetry ``wire.*`` metrics.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Dict, Optional, Tuple

__all__ = [
    "FRAME_HEADER",
    "MAX_FRAME_PAYLOAD",
    "ConnectionClosed",
    "FrameError",
    "Connection",
]

#: ``(payload_length, msg_type)`` -- 5 bytes, network byte order.
FRAME_HEADER = struct.Struct("!IB")

#: Default upper bound on a single frame's payload.  A corrupt or
#: misaligned stream shows up as a nonsense length in the ``!IB`` header,
#: and the receiver allocates the payload buffer at the *announcement*,
#: so the bound is checked before that allocation.  It is settable per
#: connection (``max_payload``) -- a coordinator that knows its model is
#: 3 MB can refuse anything bigger long before the bytes arrive.
MAX_FRAME_PAYLOAD = 1 << 30


class FrameError(RuntimeError):
    """The byte stream does not parse as a valid frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (EOF while a frame was expected)."""


class Connection:
    """A framed, counted, thread-safe-send wrapper over one TCP socket."""

    def __init__(
        self, sock: socket.socket, max_payload: Optional[int] = None
    ) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX socketpair
            pass
        self._sock = sock
        self._send_lock = threading.Lock()
        self.max_payload = max_payload
        # The frame being received.  ``_filled`` counts the bytes of the
        # part in progress (header, then payload) already in place, so a
        # ``socket.timeout`` mid-frame loses nothing: the next ``recv``
        # resumes at that offset.
        self._header = bytearray(FRAME_HEADER.size)
        self._payload: Optional[bytearray] = None
        self._msg_type = 0
        self._filled = 0
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Always-on per-frame-type accounting, keyed by the type byte:
        #: one dict update per frame.  ``bytes_*_by_type`` counts framed
        #: bytes (header + payload); ``bytes_received`` above counts raw
        #: socket reads, so it runs ahead of the per-type sum while a
        #: frame is partially read and equals it at every frame boundary.
        self.frames_sent: Dict[int, int] = {}
        self.frames_received: Dict[int, int] = {}
        self.bytes_sent_by_type: Dict[int, int] = {}
        self.bytes_received_by_type: Dict[int, int] = {}

    @property
    def max_payload(self) -> int:
        """Largest payload a header may announce (``None`` sets the
        :data:`MAX_FRAME_PAYLOAD` default).  Anything larger raises
        :class:`FrameError` the moment the 5-byte header parses, before
        a payload buffer exists."""
        return self._max_payload

    @max_payload.setter
    def max_payload(self, value: Optional[int]) -> None:
        value = MAX_FRAME_PAYLOAD if value is None else int(value)
        if value < 1:
            raise ValueError(f"max_payload must be positive, got {value}")
        self._max_payload = value

    # ------------------------------------------------------------------
    def send(self, msg_type: int, payload: bytes = b"") -> None:
        """Send one frame atomically (safe from multiple threads)."""
        key = int(msg_type)
        if not 0 <= key <= 255:
            raise FrameError(f"msg_type must fit in one byte, got {msg_type}")
        if len(payload) > MAX_FRAME_PAYLOAD:
            raise FrameError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_PAYLOAD}-byte frame limit"
            )
        header = FRAME_HEADER.pack(len(payload), key)
        size = len(header) + len(payload)
        with self._send_lock:
            # One gathered write: no frame-sized concatenation, and a
            # small frame still leaves as one segment under TCP_NODELAY.
            sent = self._sock.sendmsg((header, payload))
            if sent < len(header):
                self._sock.sendall(header[sent:])
                sent = len(header)
            if sent < size:
                self._sock.sendall(memoryview(payload)[sent - len(header) :])
            self.bytes_sent += size
            self.frames_sent[key] = self.frames_sent.get(key, 0) + 1
            self.bytes_sent_by_type[key] = (
                self.bytes_sent_by_type.get(key, 0) + size
            )

    def _fill(self, buf: bytearray) -> None:
        """Read from the socket until ``buf`` is full, from ``_filled`` on."""
        view = memoryview(buf)
        while self._filled < len(buf):
            got = self._sock.recv_into(view[self._filled :])
            if not got:
                raise ConnectionClosed("peer closed the connection")
            self._filled += got
            self.bytes_received += got
        self._filled = 0

    def recv(self, timeout: Optional[float] = None) -> Tuple[int, bytearray]:
        """Receive the next frame; the payload is the buffer it was read
        into (``len()``-able, compares equal to ``bytes``).

        Raises :class:`ConnectionClosed` on EOF, :class:`FrameError` on
        an announced length over ``max_payload``, and ``socket.timeout``
        when ``timeout`` elapses mid-wait -- after which the next call
        resumes the same frame.  Only one thread may receive.
        """
        self._sock.settimeout(timeout)
        if self._payload is None:
            self._fill(self._header)
            length, self._msg_type = FRAME_HEADER.unpack(self._header)
            if length > self._max_payload:
                raise FrameError(
                    f"peer announced a {length}-byte payload, over the "
                    f"{self._max_payload}-byte frame limit (corrupt stream?)"
                )
            self._payload = bytearray(length)
        self._fill(self._payload)
        key, payload, self._payload = self._msg_type, self._payload, None
        self.frames_received[key] = self.frames_received.get(key, 0) + 1
        self.bytes_received_by_type[key] = (
            self.bytes_received_by_type.get(key, 0)
            + FRAME_HEADER.size
            + len(payload)
        )
        return key, payload

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
