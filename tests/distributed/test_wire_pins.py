"""Golden bytes of every protocol v10 frame type.

Each pin is a whole frame as it crosses the socket -- the transport's
``(length, type byte)`` header followed by the payload a ``proto.encode_*``
function built from fixed inputs -- so a pin covers the type byte, the
JSON key order and separators, the ``struct`` header layouts, the codec
payloads and the pickled envelopes.  A frame of at most 120 bytes is
pinned as its hex, a longer one as the sha256 of its bytes.

A pin that moves is a wire change: it bumps ``PROTOCOL_VERSION`` and is
re-recorded on purpose, never edited to make a refactor pass.  The delta
inputs are a few values long, so every byte plane is zero or stored and
no pin depends on the zlib build.
"""

import hashlib

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.distributed import protocol as proto
from repro.distributed.transport import FRAME_HEADER

T = proto.MsgType

BASELINE = np.array([0.5, -1.0, 2.0, 3.25])
#: One and two ULPs off the baseline in the low planes, one value equal.
STEPPED = np.array(
    [
        np.nextafter(0.5, 1.0),
        np.nextafter(np.nextafter(-1.0, 0.0), 0.0),
        2.0,
        np.nextafter(3.25, -np.inf),
    ]
)
WEIGHTS = np.array([1.5, -0.0, np.pi])
#: A fresh PCG64 state: plain ints under a fixed dict layout.
RNG_STATE = np.random.default_rng(3).bit_generator.state
TRACEBACK = 'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: boom'


def _wire(msg_type, payload=b""):
    return FRAME_HEADER.pack(len(payload), int(msg_type)) + payload


#: Pin name -> the frame it pins, built from fixed inputs.
FRAMES = {
    "hello": lambda: _wire(T.HELLO, proto.encode_hello(7, 2, 4242)),
    "welcome": lambda: _wire(T.WELCOME, proto.encode_welcome(7, 3, "ab" * 32, 163)),
    "welcome_short": lambda: _wire(T.WELCOME, proto.encode_welcome(7, 0, "sig", 12)),
    "reject_version": lambda: _wire(
        T.REJECT, proto.encode_reject("worker speaks v6, coordinator requires v7")
    ),
    "assign_config": lambda: _wire(
        T.ASSIGN, proto.encode_assign({}, TrainingConfig(lr=0.02), "sig-abc")
    ),
    "assign_clients": lambda: _wire(
        T.ASSIGN, proto.encode_assign({4: "client-4", 9: None}, None, "sig-def")
    ),
    "assign_shard_config": lambda: _wire(
        T.ASSIGN_SHARD,
        proto.encode_assign_shard(b"PSH1\x00\x00\x00\x02{}", TrainingConfig(), "sig-abc"),
    ),
    "assign_shard_bare": lambda: _wire(
        T.ASSIGN_SHARD, proto.encode_assign_shard(b"blob", None, "sig-def")
    ),
    "broadcast_raw": lambda: _wire(T.BROADCAST, proto.encode_broadcast(5, WEIGHTS)),
    "broadcast_delta": lambda: _wire(
        T.BROADCAST,
        proto.encode_broadcast(
            6, STEPPED, codec="delta", baseline=BASELINE, baseline_seq=5
        ),
    ),
    "broadcast_delta_equal": lambda: _wire(
        T.BROADCAST,
        proto.encode_broadcast(
            7, BASELINE, codec="delta", baseline=BASELINE, baseline_seq=6
        ),
    ),
    "broadcast_alias": lambda: _wire(T.BROADCAST, proto.encode_broadcast_alias(9, 3, 8)),
    "train": lambda: _wire(T.TRAIN, proto.encode_train(9, 4, [(3, 1), (1, 2)])),
    "train_rng": lambda: _wire(
        T.TRAIN, proto.encode_train(9, 4, [(3, 1), (1, 2)], [(1, RNG_STATE)])
    ),
    "train_empty": lambda: _wire(T.TRAIN, proto.encode_train(1, 0, [])),
    "update_raw": lambda: _wire(
        T.UPDATE, proto.encode_update(2, 11, 30, RNG_STATE, WEIGHTS)
    ),
    "update_delta": lambda: _wire(
        T.UPDATE,
        proto.encode_update(
            4, 2, 30, None, STEPPED, codec="delta", baseline=BASELINE,
            baseline_seq=4,
        ),
    ),
    "trainfail": lambda: _wire(T.TRAINFAIL, proto.encode_trainfail(3, 5, TRACEBACK)),
    "trainfail_empty": lambda: _wire(T.TRAINFAIL, proto.encode_trainfail(1, 0, "")),
    "ping": lambda: _wire(T.PING),
    "pong": lambda: _wire(T.PONG),
    "shutdown": lambda: _wire(T.SHUTDOWN),
    "bye": lambda: _wire(T.BYE),
    "eval": lambda: _wire(T.EVAL, proto.encode_eval(4, [3, 1, 2])),
    "eval_empty": lambda: _wire(T.EVAL, proto.encode_eval(5, [])),
    "eval_result_accuracy": lambda: _wire(
        T.EVAL_RESULT, proto.encode_eval_result(4, [3], [0.8125], [None])
    ),
    "eval_result_error": lambda: _wire(
        T.EVAL_RESULT, proto.encode_eval_result(4, [1], [None], [TRACEBACK])
    ),
    "eval_result_batch": lambda: _wire(
        T.EVAL_RESULT, proto.encode_eval_result(4, [3, 1], [0.8125, None], [None, TRACEBACK])
    ),
    "eval_result_empty": lambda: _wire(T.EVAL_RESULT, proto.encode_eval_result(5, [], [], [])),
    "bind_eval": lambda: _wire(
        T.BIND_EVAL,
        proto.encode_bind_eval(
            np.arange(6, dtype=np.float64).reshape(2, 3),
            np.array([0, 1], dtype=np.int64),
        ),
    ),
    "bind_eval_images": lambda: _wire(
        T.BIND_EVAL,
        proto.encode_bind_eval(
            np.full((1, 2, 2, 1), 0.25, dtype=np.float32),
            np.array([2], dtype=np.int64),
        ),
    ),
    "eval_model": lambda: _wire(T.EVAL_MODEL, proto.encode_eval_model(7, [(0, 50), (50, 100)])),
    "eval_model_one": lambda: _wire(T.EVAL_MODEL, proto.encode_eval_model(8, [(0, 1)])),
    "eval_model_result_correct": lambda: _wire(
        T.EVAL_MODEL_RESULT, proto.encode_eval_model_result(7, 0, 50, correct=41)
    ),
    "eval_model_result_error": lambda: _wire(
        T.EVAL_MODEL_RESULT, proto.encode_eval_model_result(7, 50, 100, error="boom")
    ),
    "telemetry_flat": lambda: _wire(
        T.TELEMETRY, proto.encode_telemetry(0, {"train_requests": 3, "busy_s": 1.25})
    ),
    "telemetry_nested": lambda: _wire(
        T.TELEMETRY,
        proto.encode_telemetry(
            1,
            {
                "frames_sent": {"7": 3, "14": 2},
                "codec": {"encode_s": 0.5, "decode_s": 0.0},
                "reconnects": 0,
            },
        ),
    ),
}

#: Recorded at protocol v7; EVAL_RESULT and BIND_EVAL re-recorded at v8, WELCOME at v10.
PINS = {
    "hello": "0000002a017b2276657273696f6e223a20372c20226361706163697479223a20322c2022706964223a20343234327d",
    "welcome": "sha256:e9e1ba62efd3f8d43b255c266f097b7a66920571bcc87dbc5295b749314b1487",
    "welcome_short": "0000004a027b2276657273696f6e223a20372c2022776f726b65725f6964223a20302c20226d6f64656c5f7369676e6174757265223a2022736967222c20226e756d5f706172616d73223a2031327d",
    "reject_version": "00000037037b22726561736f6e223a2022776f726b657220737065616b732076362c20636f6f7264696e61746f72207265717569726573207637227d",
    "assign_config": "sha256:e44c1efce22bcf83c885e031828476f13438a15f9b0d29deaccbcc0f0e4968fe",
    "assign_clients": "00000059048005954e000000000000007d94288c07636c69656e7473947d94284b048c08636c69656e742d34944b094e758c08747261696e696e67944e8c097369676e6174757265948c077369672d646566948c056d6f64656c944e752e",
    "assign_shard_config": "sha256:058a7a68c0699d852e9d24885a019cceaf9d31be27a9afa677bb76bc32282998",
    "assign_shard_bare": "0000004a138005953f000000000000007d94288c057368617264944304626c6f62948c08747261696e696e67944e8c097369676e6174757265948c077369672d646566948c056d6f64656c944e752e",
    "broadcast_raw": "00000029050000000500000000000000030100000000000000000000f83f0000000000000080182d4454fb210940",
    "broadcast_delta": "0000003d0500000006000000000000000402000000050100000004000000000000000000000000000000000000000000000000000000000000000000000002040001",
    "broadcast_delta_equal": "0000003905000000070000000000000004020000000600000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "broadcast_alias": "00000011050000000900000000000000030000000008",
    "train": "0000003f067b22736571223a20392c2022726f756e645f696478223a20342c20226a6f6273223a205b5b332c20315d2c205b312c20325d5d2c2022726e67223a205b5d7d",
    "train_rng": "sha256:9ea5e7929dd72747d0895c032f099bbfa170e9749749433484e5ffee1075af08",
    "train_empty": "00000031067b22736571223a20312c2022726f756e645f696478223a20302c20226a6f6273223a205b5d2c2022726e67223a205b5d7d",
    "update_raw": "0000005307000000020000000b000000000000001e010000000001f38b68fdd16b0f8da7f7267aef605897a7043c160277735a2ed88b8bc66abe1f0000000000000000000000f83f0000000000000080182d4454fb210940",
    "update_delta": "00000042070000000400000002000000000000001e0200000004000100000004000000000000000000000000000000000000000000000000000000000000000000000002040001",
    "trainfail": "sha256:41b8ee56cc6f32e301e2368885c18dc41f38e88c74d9ffe4a850d24210e0d85e",
    "trainfail_empty": "0000002b087b22736571223a20312c2022636c69656e745f6964223a20302c202274726163656261636b223a2022227d",
    "ping": "0000000009",
    "pong": "000000000a",
    "shutdown": "000000000b",
    "bye": "000000000c",
    "eval": "000000200d7b22736571223a20342c2022636c69656e7473223a205b332c20312c20325d7d",
    "eval_empty": "000000190d7b22736571223a20352c2022636c69656e7473223a205b5d7d",
    "eval_result_accuracy": "000000470e7b22736571223a20342c2022636c69656e745f696473223a205b335d2c202261636375726163696573223a205b302e383132355d2c20226572726f7273223a205b6e756c6c5d7d",
    "eval_result_error": "sha256:2fb982b718664543ad05a7a7752db04e86fdad8d0b1319e8f12867ffd55ea049",
    "eval_result_batch": "sha256:8cd414f1ce397053da5e5e4cf1fddb72d5ab49b6867f7684011476eca919cb05",
    "eval_result_empty": "0000003c0e7b22736571223a20352c2022636c69656e745f696473223a205b5d2c202261636375726163696573223a205b5d2c20226572726f7273223a205b5d7d",
    "bind_eval": "000000600f00010002000300010000000000000002000000000000000300000000000000020000000000000000000000000000f03f000000000000004000000000000008400000000000001040000000000000144000000000000000000100000000000000",
    "bind_eval_images": "000000480f0002000400030001000000000000000100000000000000020000000000000002000000000000000100000000000000010000803e0000803e0000803e0000803e0200000000000000",
    "eval_model": "0000002a107b22736571223a20372c2022736861726473223a205b5b302c2035305d2c205b35302c203130305d5d7d",
    "eval_model_one": "0000001e107b22736571223a20382c2022736861726473223a205b5b302c20315d5d7d",
    "eval_model_result_correct": "0000003f117b22736571223a20372c20227374617274223a20302c2022656e64223a2035302c2022636f7272656374223a2034312c20226572726f72223a206e756c6c7d",
    "eval_model_result_error": "00000045117b22736571223a20372c20227374617274223a2035302c2022656e64223a203130302c2022636f7272656374223a206e756c6c2c20226572726f72223a2022626f6f6d227d",
    "telemetry_flat": "00000042127b22776f726b65725f6964223a20302c202273756d6d617279223a207b22747261696e5f7265717565737473223a20332c2022627573795f73223a20312e32357d7d",
    "telemetry_nested": "sha256:dbe94445d4b1b9cb11c4623f915c72ef1e36327d2e144a212fe3ae43d4b55ab1",
}


def _digest(wire):
    return wire.hex() if len(wire) <= 120 else "sha256:" + hashlib.sha256(wire).hexdigest()


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_bytes_are_pinned(name):
    assert _digest(FRAMES[name]()) == PINS[name]


def test_the_pins_are_of_protocol_v10():
    assert proto.PROTOCOL_VERSION == 10


def test_every_frame_type_is_pinned():
    pinned = {FRAMES[name]()[FRAME_HEADER.size - 1] for name in FRAMES}
    assert pinned == {int(t) for t in T}
    assert sorted(PINS) == sorted(FRAMES)


def test_numpy_ints_encode_like_python_ints():
    """Encoders cast, so numpy scalars and arrays put the same bytes on
    the wire as the Python ints the pins were built from."""
    i = np.int64
    assert _digest(_wire(T.EVAL, proto.encode_eval(i(4), np.array([3, 1, 2])))) == PINS["eval"]
    assert (
        _digest(_wire(T.TRAIN, proto.encode_train(i(9), i(4), np.array([[3, 1], [1, 2]]))))
        == PINS["train"]
    )
    assert (
        _digest(_wire(T.HELLO, proto.encode_hello(i(7), i(2), i(4242))))
        == PINS["hello"]
    )
    assert (
        _digest(
            _wire(T.EVAL_MODEL_RESULT, proto.encode_eval_model_result(i(7), i(0), i(50), correct=i(41)))
        )
        == PINS["eval_model_result_correct"]
    )
