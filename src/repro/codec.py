"""Weight-transport codecs: two lossless codecs, fixed wire ids.

Every layer that moves a flat weight vector across an address-space or
machine boundary (the distributed BROADCAST/UPDATE hot path above all)
encodes it through a :class:`WeightCodec`.  Two codecs ship, and both
are lossless, so every codec takes part in the bit-identity gates:

* ``raw`` (id 1) -- the default and the bit-exact baseline: little-endian
  float64 via :func:`repro.serialization.flat_weights_to_bytes`.  Never
  needs a baseline, always decodable.
* ``delta`` (id 2) -- differential coding against a baseline
  vector both peers already hold (the last broadcast retained on the
  other side).  The element-wise difference is taken in *ULP space*: each
  float64 is mapped through the IEEE-754 total-order bijection to a
  uint64, the two keys are subtracted modulo 2^64 and the (small, signed)
  distance is zigzag-encoded.  Every step is a bijection, so the decode
  is bit-identical by construction (NaN payloads, signed zeros and
  subnormals included) -- a float subtract/add pair could never promise
  that.  The distances travel *plane-wise* (:class:`DeltaCodec` has the
  layout): each of their 8 byte planes is elided when all zero, stored
  when it is mantissa noise and deflated only when it is structured.
  This is what cuts the steady-state bytes-per-round on the wire
  (>= 30% on a converged run; gated in
  ``tests/distributed/test_codec.py``) without paying a deflate
  pass over bytes that cannot compress.

The codec layer deliberately handles *payloads only*.  Who chose the
codec, which baseline sequence number it refers to, and how baselines
are retained per peer is the transport's business
(:mod:`repro.distributed.protocol` carries ``codec_id`` +
``baseline_seq`` in its v4 frame headers; the serial executor passes
arrays by reference and never encodes at all -- see
:mod:`repro.execution.base`).

Registry: :func:`get_codec` by name, :func:`codec_for_id` by the wire
id, :data:`CODEC_NAMES` for the choices a config or flag accepts.  The
set is fixed; wire id 3 is retired and never reused.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry

__all__ = [
    "flat_weights_to_bytes",
    "flat_weights_from_bytes",
    "WeightCodec",
    "RawCodec",
    "DeltaCodec",
    "CodecError",
    "get_codec",
    "codec_for_id",
    "CODEC_NAMES",
    "PLANE_MODES",
]


class CodecError(ValueError):
    """A payload (or baseline) cannot be encoded/decoded by this codec."""


def flat_weights_to_bytes(flat: np.ndarray) -> bytes:
    """Encode a flat weight vector as raw little-endian float64 bytes.

    The encoding is bit-exact (NaNs, signed zeros and subnormals round
    trip unchanged), which is what lets the distributed executor promise
    bit-identical training to the in-process backends.  Re-exported by
    :mod:`repro.serialization` (its historical home).
    """
    arr = np.asarray(flat, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"flat weights must be 1-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def flat_weights_from_bytes(buf: bytes, expected_size: int = -1) -> np.ndarray:
    """Inverse of :func:`flat_weights_to_bytes`; returns a writable array.

    ``expected_size`` (when >= 0) guards against truncated or misframed
    payloads -- a mismatch raises ``ValueError`` instead of silently
    training on garbage.
    """
    if len(buf) % 8 != 0:
        raise ValueError(
            f"weight payload of {len(buf)} bytes is not a whole number of "
            f"float64 values (truncated or corrupt frame? {len(buf) % 8} "
            "trailing bytes)"
        )
    arr = np.frombuffer(buf, dtype="<f8").astype(np.float64, copy=True)
    if expected_size >= 0 and arr.size != expected_size:
        raise ValueError(
            f"expected {expected_size} weight values, got {arr.size} "
            f"({len(buf)} bytes): truncated or misframed payload"
        )
    return arr


def _as_flat_f64(arr, what: str) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64), dtype="<f8")
    if out.ndim != 1:
        raise CodecError(f"{what} must be a 1-D vector, got shape {out.shape}")
    return out


class WeightCodec:
    """One way of turning a flat float64 weight vector into wire bytes.

    ``decode(encode(w)) == w`` bit for bit, for every codec.

    Attributes
    ----------
    name / codec_id:
        Registry key and the one-byte id that travels in frame headers.
    requires_baseline:
        Whether :meth:`encode` / :meth:`decode` need a baseline vector
        both peers hold.  Callers that have no shared baseline (first
        round, a newly joined worker) must fall back to a codec
        that does not (``raw``).
    """

    name: str = "abstract"
    codec_id: int = 0
    requires_baseline: bool = False

    def encode(
        self, flat: np.ndarray, baseline: Optional[np.ndarray] = None
    ) -> bytes:
        """Encode ``flat`` (against ``baseline`` when the codec needs one)."""
        raise NotImplementedError

    def decode(
        self,
        payload: bytes,
        expected_size: int,
        baseline: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Inverse of :meth:`encode`; returns a fresh writable float64 array.

        ``expected_size`` is mandatory: every decode knows how many
        parameters the model has, and a mismatched payload must raise
        :class:`CodecError` instead of producing a silently-wrong vector.
        """
        raise NotImplementedError

    def _check_baseline(
        self, baseline: Optional[np.ndarray], size: int
    ) -> np.ndarray:
        if baseline is None:
            raise CodecError(f"{self.name} codec requires a baseline vector")
        base = _as_flat_f64(baseline, "baseline")
        if base.size != size:
            raise CodecError(
                f"baseline has {base.size} values but the vector has {size}"
            )
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} id={self.codec_id}>"


class RawCodec(WeightCodec):
    """Little-endian float64, bit-exact -- today's wire format, unchanged."""

    name = "raw"
    codec_id = 1
    requires_baseline = False

    def encode(
        self, flat: np.ndarray, baseline: Optional[np.ndarray] = None
    ) -> bytes:
        return flat_weights_to_bytes(_as_flat_f64(flat, "flat weights"))

    def decode(
        self,
        payload: bytes,
        expected_size: int,
        baseline: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        try:
            return flat_weights_from_bytes(payload, expected_size=expected_size)
        except ValueError as exc:
            raise CodecError(str(exc)) from exc


#: Sign bit of the IEEE-754 bit pattern (the total-order map's pivot).
_SIGN_BIT = np.uint64(1) << np.uint64(63)
_SHIFT_63 = np.int64(63)
_ONE = np.uint64(1)


def _total_order_key(bits: np.ndarray) -> np.ndarray:
    """IEEE-754 total-order bijection: float64 bits -> monotonic uint64.

    Negative floats map below positive ones and every distinct bit
    pattern (NaN payloads included) keeps a distinct key, so ULP
    distances between nearby values are small integers.  Negative
    patterns are complemented and positive ones get the sign bit set --
    one XOR with a mask built from the arithmetic sign shift.  Returns a
    fresh array; ``bits`` is never written.
    """
    mask = (bits.view(np.int64) >> _SHIFT_63).view(np.uint64)
    mask |= _SIGN_BIT
    mask ^= bits
    return mask


def _total_order_unkey(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_total_order_key`; returns a fresh array."""
    mask = ((~keys).view(np.int64) >> _SHIFT_63).view(np.uint64)
    mask |= _SIGN_BIT
    mask ^= keys
    return mask


#: Plane modes of the delta payload's table (one byte each on the wire).
_PLANE_ZERO = 0  # every byte of the plane is zero; no body travels
_PLANE_STORED = 1  # body is the plane verbatim (exactly n bytes)
_PLANE_DEFLATE = 2  # body is one zlib stream inflating to exactly n bytes
PLANE_MODES = {
    _PLANE_ZERO: "zero",
    _PLANE_STORED: "stored",
    _PLANE_DEFLATE: "deflate",
}
#: The payload opens with 8 ``(mode: u8, body length: u32)`` entries, one
#: per byte plane, least-significant plane first; bodies follow in order.
_PLANE_TABLE = struct.Struct("!" + "BI" * 8)
#: A plane whose order-0 byte entropy reaches this many bits per byte is
#: stored: no entropy coder can take more than 1 - 7.5/8 (about 6%) off
#: it, and on ULP deltas such planes are mantissa noise that deflate
#: *grows*.  Measured planes are bimodal (>= 7.99 or <= 7.4), so the
#: exact value is not a tuning point.
_STORE_ENTROPY_BITS = 7.5
#: The probe histograms about this many evenly strided bytes of a plane;
#: enough that uniform noise reads >= 7.9 bits.
_PROBE_BYTES = 4096


def _looks_incompressible(plane: np.ndarray) -> bool:
    """Order-0 entropy probe over a strided sample of one byte plane."""
    sample = plane[:: max(1, plane.size // _PROBE_BYTES)]
    counts = np.bincount(sample)
    counts = counts[counts > 0].astype(np.float64)
    entropy = np.log2(sample.size) - float(
        (counts * np.log2(counts)).sum()
    ) / sample.size
    return entropy >= _STORE_ENTROPY_BITS


def _deflate_plane(plane: np.ndarray) -> bytes:
    """Deflate one structured plane: fastest level, run-length strategy.

    ULP-delta planes carry no LZ77 back-reference structure beyond runs
    of one byte (zeros, mostly), so ``Z_RLE`` + Huffman is both faster
    and *smaller* here than the default strategy at any level.
    """
    deflater = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 9, zlib.Z_RLE)
    return deflater.compress(plane) + deflater.flush()


class DeltaCodec(WeightCodec):
    """Lossless ULP-delta against a shared baseline, coded plane by plane.

    ``encode(w, baseline)`` maps both vectors through the total-order
    bijection, subtracts the keys modulo 2^64, zigzag-encodes the signed
    distances and regroups the 8 little-endian bytes of every word by
    byte *position* into 8 planes of ``n`` bytes.  Payload layout::

        table   8 x (mode: u8, length: u32)      plane 0 (LSB) .. plane 7
        bodies  concatenated in plane order, ``length`` bytes each

    with, per plane, ``mode`` one of

    * ``zero`` (0): the plane is all zero -- length 0, nothing travels
      (the high-order planes of a converging delta; all 8 when the vector
      equals its baseline);
    * ``stored`` (1): the body is the plane verbatim, length ``n`` --
      chosen when the plane's byte histogram is near-uniform
      (:func:`_looks_incompressible`; the low-order planes are mantissa
      noise), or when deflating it did not make it smaller;
    * ``deflate`` (2): the body is one zlib stream that inflates to
      exactly ``n`` bytes -- only structured planes pay for a deflate.

    The stored-vs-deflate choice is a property the encoder observes in
    its input, not an option: the decoder reads the mode from the table,
    so peers never need to agree on anything.  ``decode`` validates the
    table against the payload length before touching a body, inflates
    each deflate plane under an ``n``-byte bound (a corrupt or malicious
    payload can never allocate more than the ``8 * n`` bytes the header
    promised) and reverses each bijection, so the round trip is
    bit-identical by construction, whatever the values (NaNs and signed
    zeros included).
    """

    name = "delta"
    codec_id = 2
    requires_baseline = True

    def planes(
        self, flat: np.ndarray, baseline: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The zigzag ULP distances as an ``(n, 8)`` byte array.

        Column ``j`` is byte plane ``j`` (least significant first).
        First half of :meth:`encode`; public so a plane's mode, size
        and cost can be examined on its own.
        """
        arr = _as_flat_f64(flat, "flat weights")
        base = self._check_baseline(baseline, arr.size)
        distance = _total_order_key(arr.view("<u8"))
        distance -= _total_order_key(base.view("<u8"))  # mod-2^64 wrap
        signed = distance.view(np.int64)
        zigzag = signed << 1
        zigzag ^= signed >> _SHIFT_63
        zigzag = zigzag.view(np.uint64).astype("<u8", copy=False)
        return zigzag.view(np.uint8).reshape(arr.size, 8)

    @staticmethod
    def encode_plane(plane: np.ndarray) -> Tuple[int, bytes]:
        """``(mode, body)`` for one contiguous byte plane."""
        if not plane.any():
            return _PLANE_ZERO, b""
        if not _looks_incompressible(plane):
            body = _deflate_plane(plane)
            if len(body) < plane.size:
                return _PLANE_DEFLATE, body
        return _PLANE_STORED, plane.tobytes()

    def encode(
        self, flat: np.ndarray, baseline: Optional[np.ndarray] = None
    ) -> bytes:
        word_bytes = self.planes(flat, baseline)
        table: List[int] = []
        bodies: List[bytes] = []
        for j in range(8):
            mode, body = self.encode_plane(
                np.ascontiguousarray(word_bytes[:, j])
            )
            table += (mode, len(body))
            bodies.append(body)
        return _PLANE_TABLE.pack(*table) + b"".join(bodies)

    @staticmethod
    def _parse_table(payload: bytes, n: int) -> List[Tuple[int, int, int]]:
        """Validate the plane table; returns ``(mode, offset, length)`` x 8.

        Every structural lie is caught here, before any body is read:
        a short table, an unknown mode, a zero plane with a body, a
        stored plane that is not ``n`` bytes, and lengths that do not
        sum to exactly the payload (truncation or trailing bytes).
        """
        if len(payload) < _PLANE_TABLE.size:
            raise CodecError(
                f"delta payload of {len(payload)} bytes is shorter than "
                f"its {_PLANE_TABLE.size}-byte plane table"
            )
        fields = _PLANE_TABLE.unpack_from(payload)
        planes = []
        offset = _PLANE_TABLE.size
        for j, (mode, length) in enumerate(zip(fields[0::2], fields[1::2])):
            if mode not in PLANE_MODES:
                raise CodecError(
                    f"delta plane {j} has unknown mode byte {mode} "
                    f"(known: {sorted(PLANE_MODES)})"
                )
            if mode == _PLANE_ZERO and length != 0:
                raise CodecError(
                    f"delta plane {j} is marked zero but carries a "
                    f"{length}-byte body"
                )
            if mode == _PLANE_STORED and length != n:
                raise CodecError(
                    f"delta plane {j} is stored as {length} bytes, "
                    f"expected {n}"
                )
            planes.append((mode, offset, length))
            offset += length
        if offset != len(payload):
            raise CodecError(
                f"delta plane table accounts for {offset} bytes but the "
                f"payload has {len(payload)} (truncated or trailing bytes)"
            )
        return planes

    @staticmethod
    def _inflate_plane(body: bytes, n: int, j: int) -> bytes:
        """Inflate one plane body under an ``n``-byte bound."""
        inflater = zlib.decompressobj()
        try:
            # zlib reads max_length=0 as "unbounded": hold an empty
            # vector's plane to one byte, which the length check rejects.
            raw = inflater.decompress(body, max(n, 1))
        except zlib.error as exc:
            raise CodecError(
                f"delta plane {j} does not inflate: {exc}"
            ) from exc
        if inflater.unconsumed_tail or not inflater.eof:
            raise CodecError(
                f"delta plane {j} inflates past the expected {n} bytes "
                "(corrupt frame?)"
            )
        if len(raw) != n:
            raise CodecError(
                f"delta plane {j} inflated to {len(raw)} bytes, expected {n}"
            )
        if inflater.unused_data:
            raise CodecError(
                f"delta plane {j} has {len(inflater.unused_data)} bytes "
                "after the end of its zlib stream"
            )
        return raw

    def decode(
        self,
        payload: bytes,
        expected_size: int,
        baseline: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        base = self._check_baseline(baseline, expected_size)
        n = expected_size
        planes = self._parse_table(payload, n)
        word_bytes = np.empty((n, 8), dtype=np.uint8)
        for j, (mode, offset, length) in enumerate(planes):
            if mode == _PLANE_ZERO:
                word_bytes[:, j] = 0
            elif mode == _PLANE_STORED:
                word_bytes[:, j] = np.frombuffer(payload, np.uint8, n, offset)
            else:
                raw = self._inflate_plane(
                    payload[offset : offset + length], n, j
                )
                word_bytes[:, j] = np.frombuffer(raw, np.uint8)
        zigzag = word_bytes.reshape(-1).view("<u8").astype(np.uint64, copy=False)
        keys = zigzag >> _ONE
        zigzag &= _ONE
        keys ^= (-zigzag.view(np.int64)).view(np.uint64)  # un-zigzag
        keys += _total_order_key(base.view("<u8"))  # mod-2^64 wrap
        return _total_order_unkey(keys).view("<f8").astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: Every codec, keyed both ways.  Wire ids 1 and 2 are taken; id 3 is
#: retired and never reused.
_CODECS = (RawCodec(), DeltaCodec())
_BY_NAME: Dict[str, WeightCodec] = {c.name: c for c in _CODECS}
_BY_ID: Dict[int, WeightCodec] = {c.codec_id: c for c in _CODECS}
#: The codec names, ``raw`` first: it is the default everywhere a codec
#: is chosen.
CODEC_NAMES = tuple(_BY_NAME)


def get_codec(name: str) -> WeightCodec:
    """Look a codec up by name; raises ``ValueError`` for unknown names."""
    try:
        codec = _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown weight codec {name!r}; known: {CODEC_NAMES}"
        ) from None
    if telemetry.enabled():
        telemetry.count("codec.registry_lookups", 1, codec=codec.name)
    return codec


def codec_for_id(codec_id: int) -> WeightCodec:
    """Look a codec up by its wire id; raises ``ValueError`` when unknown."""
    try:
        codec = _BY_ID[int(codec_id)]
    except KeyError:
        raise ValueError(
            f"unknown weight codec id {codec_id}; known ids: "
            f"{sorted(_BY_ID)}"
        ) from None
    if telemetry.enabled():
        telemetry.count("codec.registry_lookups", 1, codec=codec.name)
    return codec
