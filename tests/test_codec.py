"""Property tests for the pluggable weight-transport codecs.

The lossless codecs (raw, delta) must round-trip ANY float64 vector
bit-for-bit -- NaN payloads, signed zeros, infinities and subnormals
included -- because the distributed backend's bit-identity contract
rides on them.  The quantized codec is lossy by design and is held to a
tolerance instead.  Corrupt payloads must raise, never return garbage.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    CODEC_NAMES,
    PLANE_MODES,
    CodecError,
    DeltaCodec,
    QuantizedCodec,
    RawCodec,
    WeightCodec,
    codec_for_id,
    get_codec,
    register_codec,
)

f64_vectors = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=0,
    max_size=64,
).map(lambda v: np.asarray(v, dtype=np.float64))

# Arbitrary float64 *bit patterns*: every NaN payload, both zeros,
# subnormals and infinities are just integers here.
f64_bit_patterns = st.lists(
    st.integers(0, 2**64 - 1), min_size=0, max_size=64
).map(lambda v: np.asarray(v, dtype=np.uint64).view(np.float64))

ZERO, STORED, DEFLATE = sorted(PLANE_MODES)
PLANE_TABLE = struct.Struct("!" + "BI" * 8)


def delta_payload(*planes):
    """A delta payload from 8 ``(mode, body)`` pairs (table + bodies)."""
    assert len(planes) == 8
    table = [field for mode, body in planes for field in (mode, len(body))]
    return PLANE_TABLE.pack(*table) + b"".join(body for _, body in planes)


def plane_modes(payload):
    return list(PLANE_TABLE.unpack_from(payload)[0::2])


class TestRegistry:
    def test_builtins_registered_raw_first(self):
        assert CODEC_NAMES[0] == "raw"
        assert set(CODEC_NAMES) == {"raw", "delta", "quantized"}

    def test_lookup_by_name_and_id_agree(self):
        for name in CODEC_NAMES:
            codec = get_codec(name)
            assert codec_for_id(codec.codec_id) is codec

    def test_unknown_name_and_id_raise(self):
        with pytest.raises(ValueError, match="unknown weight codec"):
            get_codec("zstd")
        with pytest.raises(ValueError, match="unknown weight codec id"):
            codec_for_id(200)

    def test_duplicate_registration_rejected(self):
        class Clash(WeightCodec):
            name = "raw"
            codec_id = 77

        with pytest.raises(ValueError, match="already registered"):
            register_codec(Clash())

        class IdClash(WeightCodec):
            name = "unique-name"
            codec_id = 1  # raw's wire id

        with pytest.raises(ValueError, match="already registered"):
            register_codec(IdClash())

    def test_lossless_flags(self):
        assert get_codec("raw").lossless
        assert get_codec("delta").lossless
        assert not get_codec("quantized").lossless
        assert get_codec("delta").requires_baseline
        assert not get_codec("raw").requires_baseline


class TestRawCodec:
    @settings(max_examples=50, deadline=None)
    @given(values=f64_vectors)
    def test_round_trip_bit_exact(self, values):
        codec = RawCodec()
        back = codec.decode(codec.encode(values), values.size)
        assert back.tobytes() == values.tobytes()
        assert back.flags.writeable

    def test_size_mismatch_raises(self):
        codec = RawCodec()
        blob = codec.encode(np.zeros(4))
        with pytest.raises(ValueError):
            codec.decode(blob, 5)
        with pytest.raises(ValueError):
            codec.decode(blob[:-3], 4)


class TestDeltaCodec:
    @settings(max_examples=50, deadline=None)
    @given(values=f64_vectors, baseline_seed=st.integers(0, 2**31))
    def test_round_trip_bit_exact_against_any_baseline(
        self, values, baseline_seed
    ):
        """Losslessness may not depend on the baseline being close: any
        (vector, baseline) pair must round-trip bit-for-bit."""
        codec = DeltaCodec()
        baseline = np.random.default_rng(baseline_seed).standard_normal(
            values.size
        )
        blob = codec.encode(values, baseline=baseline)
        back = codec.decode(blob, values.size, baseline=baseline)
        assert back.tobytes() == values.tobytes()

    def test_special_values_survive(self):
        codec = DeltaCodec()
        values = np.array(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
             1e308, -1e308, 1.0, np.pi],
            dtype=np.float64,
        )
        baseline = np.linspace(-2, 2, values.size)
        back = codec.decode(
            codec.encode(values, baseline=baseline),
            values.size,
            baseline=baseline,
        )
        assert back.tobytes() == values.tobytes()

    def test_converging_delta_compresses(self):
        """The point of the codec: a near-baseline vector costs far
        fewer bytes than raw."""
        rng = np.random.default_rng(0)
        baseline = rng.standard_normal(20_000) * 0.1
        values = baseline + rng.standard_normal(20_000) * 1e-6
        blob = DeltaCodec().encode(values, baseline=baseline)
        assert len(blob) < 0.8 * values.size * 8

    def test_missing_baseline_raises(self):
        codec = DeltaCodec()
        with pytest.raises(CodecError, match="requires a baseline"):
            codec.encode(np.zeros(3))
        with pytest.raises(CodecError, match="requires a baseline"):
            codec.decode(b"x", 3)

    def test_baseline_size_mismatch_raises(self):
        codec = DeltaCodec()
        with pytest.raises(CodecError, match="baseline"):
            codec.encode(np.zeros(3), baseline=np.zeros(4))

    def test_corrupt_payload_raises(self):
        codec = DeltaCodec()
        baseline = np.zeros(4)
        with pytest.raises(CodecError, match="plane table"):
            codec.decode(b"\x00not a table", 4, baseline=baseline)
        garbage = delta_payload(
            (DEFLATE, b"\x00not zlib"), *[(ZERO, b"")] * 7
        )
        with pytest.raises(CodecError, match="does not inflate"):
            codec.decode(garbage, 4, baseline=baseline)

    def test_inflation_bomb_rejected(self):
        """A plane decompressing past the promised size must raise
        before allocating, not hand back a silently-wrong vector."""
        codec = DeltaCodec()
        baseline = np.zeros(4)
        bomb = delta_payload(
            (DEFLATE, zlib.compress(b"\x00" * 10_000)), *[(ZERO, b"")] * 7
        )
        with pytest.raises(CodecError, match="inflates past"):
            codec.decode(bomb, 4, baseline=baseline)

    def test_short_payload_rejected(self):
        codec = DeltaCodec()
        baseline = np.zeros(100)
        short = delta_payload(  # 8 bytes in a plane that promised 100
            (DEFLATE, zlib.compress(b"\x00" * 8)), *[(ZERO, b"")] * 7
        )
        with pytest.raises(CodecError, match="inflated to"):
            codec.decode(short, 100, baseline=baseline)

    def test_empty_vector(self):
        codec = DeltaCodec()
        empty = np.empty(0, dtype=np.float64)
        blob = codec.encode(empty, baseline=empty)
        assert plane_modes(blob) == [ZERO] * 8
        assert codec.decode(blob, 0, baseline=empty).size == 0


class TestDeltaCodecLevels:
    """Decode is level-agnostic: a deflate plane is "one zlib stream
    inflating to n bytes", whatever level or strategy produced it, so a
    peer (or a later release) that picks another constant stays
    wire-compatible."""

    @pytest.mark.parametrize("level", [0, 1, 6, 9])
    def test_round_trip_lossless_at_every_level(self, level):
        codec = DeltaCodec()
        rng = np.random.default_rng(level)
        baseline = rng.standard_normal(5_000)
        values = baseline + rng.standard_normal(5_000) * 1e-6
        word_bytes = codec.planes(values, baseline=baseline)
        blob = delta_payload(*[
            (DEFLATE, zlib.compress(word_bytes[:, j].tobytes(), level))
            for j in range(8)
        ])
        back = codec.decode(blob, values.size, baseline=baseline)
        assert back.tobytes() == values.tobytes()


class TestDeltaPlanes:
    """The plane-wise payload: which form each plane takes, and that the
    round trip is bit-exact for every float64 bit pattern."""

    @settings(max_examples=100, deadline=None)
    @given(values=f64_bit_patterns, baseline_bits=st.data())
    def test_round_trip_any_bit_patterns(self, values, baseline_bits):
        baseline = baseline_bits.draw(
            st.lists(
                st.integers(0, 2**64 - 1),
                min_size=values.size,
                max_size=values.size,
            ).map(lambda v: np.asarray(v, dtype=np.uint64).view(np.float64))
        )
        codec = DeltaCodec()
        blob = codec.encode(values, baseline=baseline)
        back = codec.decode(blob, values.size, baseline=baseline)
        assert back.tobytes() == values.tobytes()
        assert back.flags.writeable

    def test_special_bit_patterns_against_themselves_and_each_other(self):
        bits = np.array(
            [
                0x7FF8000000000001,  # quiet NaN with a payload
                0xFFF0000000000DEA,  # negative signalling NaN
                0x0000000000000000,  # +0.0
                0x8000000000000000,  # -0.0
                0x0000000000000001,  # smallest subnormal
                0x800FFFFFFFFFFFFF,  # largest negative subnormal
                0x7FF0000000000000,  # +inf
                0xFFF0000000000000,  # -inf
            ],
            dtype=np.uint64,
        )
        values = bits.view(np.float64)
        codec = DeltaCodec()
        for baseline in (values, values[::-1].copy(), np.zeros(bits.size)):
            blob = codec.encode(values, baseline=baseline)
            back = codec.decode(blob, values.size, baseline=baseline)
            assert back.tobytes() == values.tobytes()

    def test_identical_vector_is_the_table_alone(self):
        w = np.random.default_rng(0).standard_normal(1000)
        blob = DeltaCodec().encode(w, baseline=w)
        assert len(blob) == PLANE_TABLE.size
        assert plane_modes(blob) == [ZERO] * 8

    def test_wide_deltas_store_every_plane(self):
        """Adversarially wide deltas make all 8 planes noise: each is
        stored verbatim, so the payload is the table plus exactly 8n
        bytes -- never larger than raw by more than the table."""
        rng = np.random.default_rng(1)
        n = 8192
        values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        baseline = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        codec = DeltaCodec()
        blob = codec.encode(values, baseline=baseline)
        assert plane_modes(blob) == [STORED] * 8
        assert len(blob) == PLANE_TABLE.size + 8 * n
        back = codec.decode(blob, n, baseline=baseline)
        assert back.tobytes() == values.tobytes()

    def test_converging_delta_uses_all_three_modes(self):
        """Low planes are mantissa noise (stored), the plane holding the
        distances' top bits is structured (deflated), the rest is zero."""
        rng = np.random.default_rng(2)
        baseline = rng.standard_normal(20_000) * 0.1
        values = baseline * (1 + rng.standard_normal(20_000) * 1e-9)
        blob = DeltaCodec().encode(values, baseline=baseline)
        modes = plane_modes(blob)
        assert modes[0] == STORED and modes[-1] == ZERO
        assert DEFLATE in modes
        # Modes only ever go noise -> structured -> empty with significance.
        assert modes == sorted(modes, key=[STORED, DEFLATE, ZERO].index)

    def test_deflate_never_grows_a_plane(self):
        """A small plane never reads as near-uniform (163 bytes cannot
        fill 256 bins) so it is deflated -- and falls back to stored
        when that did not shrink it."""
        rng = np.random.default_rng(3)
        n = 163
        values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        blob = DeltaCodec().encode(values, baseline=np.zeros(n))
        assert len(blob) <= PLANE_TABLE.size + 8 * n


class TestDeltaCorruption:
    """Structure-aware corruption: every lie the table or a body can
    tell ends in CodecError -- never another exception, never more than
    the promised 8n bytes inflated."""

    N = 64

    def _valid(self):
        rng = np.random.default_rng(4)
        baseline = rng.standard_normal(self.N)
        values = baseline * (1 + rng.standard_normal(self.N) * 1e-9)
        return DeltaCodec().encode(values, baseline=baseline), baseline

    def _decode(self, payload, n=None):
        n = self.N if n is None else n
        return DeltaCodec().decode(payload, n, baseline=np.zeros(n))

    def test_truncated_table(self):
        blob, _ = self._valid()
        for cut in (0, 1, PLANE_TABLE.size - 1):
            with pytest.raises(CodecError, match="plane table"):
                self._decode(blob[:cut])

    def test_unknown_mode_byte(self):
        bad = delta_payload((7, b""), *[(ZERO, b"")] * 7)
        with pytest.raises(CodecError, match="unknown mode byte 7"):
            self._decode(bad)

    def test_table_lengths_must_sum_to_the_payload(self):
        blob, _ = self._valid()
        with pytest.raises(CodecError, match="truncated or trailing"):
            self._decode(blob + b"\x00")
        with pytest.raises(CodecError, match="truncated or trailing"):
            self._decode(blob[:-1])

    def test_stored_plane_must_be_n_bytes(self):
        for size in (self.N - 1, self.N + 1, 0):
            bad = delta_payload((STORED, b"\x01" * size), *[(ZERO, b"")] * 7)
            with pytest.raises(CodecError, match="stored as"):
                self._decode(bad)

    def test_zero_plane_with_a_body(self):
        table = PLANE_TABLE.pack(ZERO, 3, *[ZERO, 0] * 7)
        with pytest.raises(CodecError, match="marked zero"):
            self._decode(table + b"abc")

    def test_deflate_plane_short_of_n(self):
        bad = delta_payload(
            (DEFLATE, zlib.compress(b"\x01" * (self.N - 1))),
            *[(ZERO, b"")] * 7,
        )
        with pytest.raises(CodecError, match="inflated to"):
            self._decode(bad)

    def test_deflate_plane_past_n(self):
        bad = delta_payload(
            (DEFLATE, zlib.compress(b"\x01" * (self.N + 1))),
            *[(ZERO, b"")] * 7,
        )
        with pytest.raises(CodecError, match="inflates past"):
            self._decode(bad)

    def test_bytes_after_a_plane_zlib_stream(self):
        bad = delta_payload(
            (DEFLATE, zlib.compress(b"\x01" * self.N) + b"tail"),
            *[(ZERO, b"")] * 7,
        )
        with pytest.raises(CodecError, match="after the end"):
            self._decode(bad)

    def test_empty_vector_deflate_plane_is_still_bounded(self):
        """zlib treats max_length=0 as unbounded; an empty vector's
        deflate plane must not become the one unguarded inflate."""
        bomb = delta_payload(
            (DEFLATE, zlib.compress(b"\x00" * 10_000_000)), *[(ZERO, b"")] * 7
        )
        with pytest.raises(CodecError):
            self._decode(bomb, n=0)

    def test_bomb_allocates_no_more_than_the_promised_bytes(self):
        n = 50_000
        bombs = [(DEFLATE, zlib.compress(b"\x00" * 64_000_000))] * 8
        payload = delta_payload(*bombs)
        baseline = np.zeros(n)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="inflates past"):
                DeltaCodec().decode(payload, n, baseline=baseline)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The (n, 8) plane array, one n-byte inflate, one body slice.
        assert peak < 2 * 8 * n

    @settings(max_examples=200, deadline=None)
    @given(
        position=st.integers(0, 10_000),
        value=st.integers(0, 255),
        cut=st.integers(0, 10_000),
    )
    def test_mutated_payload_raises_codec_error_only(self, position, value, cut):
        blob, baseline = self._valid()
        mutated = bytearray(blob)
        mutated[position % len(blob)] = value
        mutated = bytes(mutated[: len(blob) - cut % 3])
        try:
            out = DeltaCodec().decode(mutated, self.N, baseline=baseline)
        except CodecError:
            return
        assert out.shape == (self.N,) and out.dtype == np.float64


class TestQuantizedCodec:
    def test_within_float16_tolerance(self):
        codec = QuantizedCodec()
        rng = np.random.default_rng(1)
        values = rng.standard_normal(10_000)
        back = codec.decode(codec.encode(values), values.size)
        # float16 keeps ~3 decimal digits; relative error < 2^-10.
        np.testing.assert_allclose(back, values, rtol=1e-3, atol=1e-6)

    def test_quarter_the_bytes(self):
        codec = QuantizedCodec()
        values = np.zeros(1000)
        assert len(codec.encode(values)) == values.size * 2

    def test_size_mismatch_raises(self):
        codec = QuantizedCodec()
        blob = codec.encode(np.zeros(8))
        with pytest.raises(CodecError):
            codec.decode(blob, 9)
        with pytest.raises(CodecError, match="float16"):
            codec.decode(blob[:-1], 8)

    def test_no_baseline_needed(self):
        assert not QuantizedCodec().requires_baseline


class TestShapeValidation:
    @pytest.mark.parametrize("name", ["raw", "delta", "quantized"])
    def test_non_1d_rejected(self, name):
        codec = get_codec(name)
        with pytest.raises(ValueError, match="1-D"):
            codec.encode(
                np.zeros((2, 2)),
                baseline=np.zeros(4) if codec.requires_baseline else None,
            )
