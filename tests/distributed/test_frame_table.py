"""The frame table: codecs checked against the rows they interpret.

Every ``json`` and ``pickle`` row of ``proto.FRAMES`` is exercised
through its own ``encode_*`` / ``decode_*`` entry points, with
hypothesis strategies built from the row's field kinds:

* valid values round-trip, and re-encoding the decoded values gives the
  same bytes;
* a field holding a value of the wrong type, a missing key, and a
  payload that is not an object each raise ``ProtocolError`` naming the
  frame.

The PCG64 rows that carry client RNG states (TRAIN's ``rng``, UPDATE's
struct tail) are also fed hand-made hostile values, each of which must
be refused before numpy's ``bit_generator.state`` setter runs.

The strategy builder knows each field kind by name; a row naming a kind
it does not know fails here, so no frame type can be added unfuzzed.
"""

import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.distributed import protocol as proto
from repro.distributed import worker as worker_mod
from repro.distributed.worker import WorkerAgent
from repro.nn import build_mlp
from repro.rng import PCG64_ROW
from tests.conftest import make_test_client

#: The rows the two interpreters encode and decode.
ROWS = [spec for spec in proto.FRAMES if spec.layout in ("json", "pickle")]

_SCALARS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False),
    "str": st.text(max_size=8),
}


def _json_except(*types):
    """JSON values of any type but ``types``: scalars, lists, objects."""
    scalars = [s for name, s in _SCALARS.items() if name not in types]
    if "list" not in types:
        scalars.append(st.lists(st.integers(), max_size=2))
    if "object" not in types:
        scalars.append(st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))
    return st.one_of(scalars)


json_values = st.recursive(
    st.one_of(list(_SCALARS.values())),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
int_pairs = st.tuples(st.integers(0, 2**40), st.integers(1, 2**40)).map(
    lambda p: (p[0], p[0] + p[1])
)
#: Per example, the one list of pairs a row draws: TRAIN's RNG states
#: name clients of its own jobs, so both fields read the same draw.
_pairs = st.shared(st.lists(int_pairs, max_size=4), key="pairs")
pcg64_states = st.builds(
    lambda state, inc, has_uint32, uinteger: {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": 2 * inc + 1},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    },
    st.integers(0, 2**128 - 1), st.integers(0, 2**127 - 1), st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)


def _rng_for(pairs):
    """``(client, state)`` for a unique subset of the jobs' clients."""
    ids = sorted({a for a, _ in pairs})
    if not ids:
        return st.just([])
    return st.lists(st.sampled_from(ids), unique=True).flatmap(
        lambda chosen: st.tuples(*[st.tuples(st.just(c), pcg64_states) for c in chosen]).map(list)
    )


#: A well-formed PCG64 row, and hostile rows of TRAIN's ``rng``:
#: ``[client, state, inc, has_uint32, uinteger]`` for a client the
#: order trains (1), unless the case is about the client.
GOOD_ROW = [1, 5, 7, 0, 0]
HOSTILE_RNG = {
    "state is 2**128": [[1, 2**128, 7, 0, 0]],
    "state is negative": [[1, -1, 7, 0, 0]],
    "inc is 2**128 + 1": [[1, 5, 2**128 + 1, 0, 0]],
    "inc is even": [[1, 5, 6, 0, 0]],
    "has_uint32 is 2": [[1, 5, 7, 2, 0]],
    "uinteger is 2**32": [[1, 5, 7, 1, 2**32]],
    "a row of 4": [[1, 5, 7, 0]],
    "a row of 6": [GOOD_ROW + [0]],
    "a float state": [[1, 5.0, 7, 0, 0]],
    "a bool has_uint32": [[1, 5, 7, True, 0]],
    "a client without a job": [[2, 5, 7, 0, 0]],
    "one client twice": [GOOD_ROW, GOOD_ROW],
}

#: Per example, which entries of a batch failed: its length is the one
#: length of every list field the example draws, so EVAL_RESULT's
#: parallel lists line up and each entry holds an accuracy or an error.
_batch = st.shared(st.lists(st.booleans(), max_size=6), key="batch")


def _per_entry(ok, failed):
    return _batch.flatmap(lambda mask: st.tuples(*[failed if f else ok for f in mask]).map(list))


#: Field kind -> the values an encoder takes for it.  Pairs are drawn as
#: ``0 <= a < b`` so EVAL_MODEL's row check holds.
VALID = {
    "int": st.integers(),
    "str": st.text(max_size=12),
    "float?": st.none() | st.floats(allow_nan=False),
    "int?": st.none() | st.integers(),
    "str?": st.none() | st.text(max_size=12),
    "[int]": _per_entry(st.integers(), st.integers()),
    "[float?]": _per_entry(st.floats(allow_nan=False), st.none()),
    "[str?]": _per_entry(st.none(), st.text(max_size=12)),
    "[[int, int]]": _pairs,
    "[[int, PCG64 row]]": _pairs.flatmap(_rng_for),
    "JSON object": st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    "bytes": st.binary(max_size=64),
    "dict": st.dictionaries(st.integers(0, 99), st.text(max_size=4) | st.none(), max_size=4),
    "any": st.none() | st.builds(TrainingConfig, lr=st.floats(1e-4, 1.0)),
}

#: Field kind -> values of the wrong type for it, as they arrive in a
#: payload (JSON values for json rows, Python objects for pickle rows).
#: ``any`` has no wrong value.
WRONG = {
    "int": _json_except("int"),
    "str": _json_except("str"),
    "float?": _json_except("float", "null"),
    "int?": _json_except("int", "null"),
    "str?": _json_except("str", "null"),
    "[int]": _json_except("list")
    | st.lists(st.booleans() | st.floats() | st.text(max_size=2), min_size=1, max_size=3),
    "[float?]": _json_except("list")
    | st.lists(st.booleans() | st.integers() | st.text(max_size=2), min_size=1, max_size=3),
    "[str?]": _json_except("list")
    | st.lists(st.booleans() | st.integers() | st.floats(), min_size=1, max_size=3),
    "[[int, int]]": _json_except("list")
    | st.sampled_from([[1], [[1]], [[1, 2, 3]], [[1, True]], [[1.0, 2]], [[1, "2"]]]),
    "[[int, PCG64 row]]": _json_except("list")
    | st.sampled_from(sorted(HOSTILE_RNG)).map(
        # A client no job names: refused whatever the drawn jobs are.
        lambda case: [[-1] + row[1:] if len(row) > 1 else row for row in HOSTILE_RNG[case]]
    ),
    "JSON object": _json_except("object"),
    "bytes": st.text(max_size=4) | st.integers() | st.none() | st.just(bytearray(b"x")),
    "dict": st.lists(st.integers(), max_size=3) | st.none() | st.text(max_size=3),
    "any": None,
}


def _strategy(table, kind):
    if kind not in table:
        pytest.fail(f"no strategy for field kind {kind!r}: teach this file the kind")
    return table[kind]


def _codec(spec):
    name = spec.type.name.lower()
    return getattr(proto, "encode_" + name), getattr(proto, "decode_" + name)


def _values(spec, decoded):
    """A decoder's result as the encoder's argument list."""
    names = [name for name, _ in spec.fields]
    if isinstance(decoded, dict):
        return [decoded[name] for name in names]
    if isinstance(decoded, tuple):
        return list(decoded)
    return [decoded]


def _load(spec, payload):
    return json.loads(payload) if spec.layout == "json" else pickle.loads(payload)


def _dump(spec, obj):
    if spec.layout == "json":
        return json.dumps(obj).encode("utf-8")
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _draw_frame(spec, data):
    """Valid field values for ``spec`` and their encoded payload."""
    values = [data.draw(_strategy(VALID, kind), label=name) for name, kind in spec.fields]
    encode, _ = _codec(spec)
    try:
        payload = encode(*values)
    except ValueError:  # the row's cross-field check refused the draw
        assume(False)
    return values, payload


def _malformed(spec):
    return pytest.raises(proto.ProtocolError, match=f"malformed {spec.type.name} payload")


def test_every_row_kind_has_strategies():
    kinds = {kind for spec in ROWS for _, kind in spec.fields}
    assert kinds <= set(VALID), f"unknown field kinds {sorted(kinds - set(VALID))}"
    assert kinds <= set(WRONG), f"unknown field kinds {sorted(kinds - set(WRONG))}"


def test_rows_cover_the_message_types_once():
    assert [spec.type for spec in proto.FRAMES] == list(proto.MsgType)
    for spec in ROWS:
        encode, decode = _codec(spec)
        assert callable(encode) and callable(decode)


@pytest.mark.parametrize("spec", ROWS, ids=lambda spec: spec.type.name)
class TestRowProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_valid_values_round_trip_byte_for_byte(self, spec, data):
        values, payload = _draw_frame(spec, data)
        encode, decode = _codec(spec)
        back = _values(spec, decode(payload))
        assert len(back) == len(values)
        assert back == values
        assert encode(*back) == payload

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_wrong_typed_field_is_a_protocol_error(self, spec, data):
        _, payload = _draw_frame(spec, data)
        name, kind = data.draw(st.sampled_from(spec.fields), label="field")
        wrong = _strategy(WRONG, kind)
        assume(wrong is not None)
        obj = _load(spec, payload)
        obj[name] = data.draw(wrong, label="wrong value")
        with _malformed(spec):
            _codec(spec)[1](_dump(spec, obj))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_missing_key_is_a_protocol_error(self, spec, data):
        _, payload = _draw_frame(spec, data)
        name, _ = data.draw(st.sampled_from(spec.fields), label="field")
        obj = _load(spec, payload)
        obj.pop(name, None)
        with _malformed(spec):
            _codec(spec)[1](_dump(spec, obj))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_a_payload_that_is_not_an_object_is_a_protocol_error(self, spec, data):
        obj = data.draw(_json_except("object") | st.lists(json_values, max_size=3))
        with _malformed(spec):
            _codec(spec)[1](_dump(spec, obj))


class TestTypedFields:
    """Decoding checks JSON types exactly: each of these payloads used to
    decode, cast into a value the peer never sent."""

    @pytest.mark.parametrize(
        "decode,payload",
        [
            # was {"version": 7, "capacity": 1, "pid": 1}
            (proto.decode_hello, b'{"version": "7", "capacity": true, "pid": 1.9}'),
            (proto.decode_hello, b'{"version": 7, "capacity": true, "pid": 1}'),
            (proto.decode_hello, b'{"version": 7, "capacity": 1, "pid": 1.9}'),
            # was (2, [1, 1])
            (proto.decode_eval, b'{"seq": "2", "clients": [1.7, true]}'),
            (proto.decode_eval, b'{"seq": 2, "clients": [1, true]}'),
            # was (1, [0], [0.5], [None])
            (
                proto.decode_eval_result,
                b'{"seq": 1, "client_ids": [0], "accuracies": ["0.5"], "errors": [null]}',
            ),
            # was model_signature "12"
            (
                proto.decode_welcome,
                b'{"version": 7, "worker_id": 0, "model_signature": 12, "num_params": 3}',
            ),
        ],
    )
    def test_a_wrong_json_type_is_not_cast(self, decode, payload):
        frame = decode.__name__[len("decode_"):].upper()
        with pytest.raises(proto.ProtocolError, match=f"malformed {frame} payload"):
            decode(payload)

    def test_the_right_json_types_still_decode(self):
        assert proto.decode_hello(b'{"version": 7, "capacity": 2, "pid": 9}') == {
            "version": 7, "capacity": 2, "pid": 9,
        }
        assert proto.decode_eval(b'{"seq": 2, "clients": [1, 7]}') == (2, [1, 7])
        assert proto.decode_eval_result(
            b'{"seq": 1, "client_ids": [0], "accuracies": [0.5], "errors": [null]}'
        ) == (1, [0], [0.5], [None])


class TestPCG64Rows:
    """The train-RNG state a TRAIN job carries and an UPDATE returns: four
    checked ints on both frames, never a pickle."""

    def _train(self, rng):
        payload = {"seq": 1, "round_idx": 0, "jobs": [[1, 1], [3, 2]], "rng": rng}
        return json.dumps(payload).encode()

    def test_a_real_state_round_trips_on_both_frames(self):
        rng = np.random.default_rng(11)
        rng.integers(0, 2**32, dtype=np.uint32)  # half a word left buffered
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["uinteger"] > 0
        assert proto.decode_train(proto.encode_train(4, 2, [(1, 1)], [(1, state)]))[3] == [
            (1, state)
        ]
        update = proto.encode_update(4, 1, 30, state, np.zeros(3))
        assert proto.decode_update(update)[3] == state
        assert proto.decode_update(proto.encode_update(4, 1, 30, None, np.zeros(3)))[3] is None

    def test_the_good_row_decodes(self):
        _seq, _rnd, _jobs, rng = proto.decode_train(self._train([GOOD_ROW]))
        assert rng == [(1, {
            "bit_generator": "PCG64", "state": {"state": 5, "inc": 7},
            "has_uint32": 0, "uinteger": 0,
        })]

    @pytest.mark.parametrize("case", sorted(HOSTILE_RNG))
    def test_a_hostile_train_row_is_a_protocol_error(self, case):
        with pytest.raises(proto.ProtocolError, match="malformed TRAIN payload"):
            proto.decode_train(self._train(HOSTILE_RNG[case]))

    @pytest.mark.parametrize("case", sorted(HOSTILE_RNG))
    def test_a_worker_refuses_it_before_any_stream_is_set(self, case, monkeypatch):
        """The agent's TRAIN handler raises -- the serve loop's REJECT --
        and never reaches the trainer that would set a client's stream."""
        model = build_mlp((4, 4, 1), 3, hidden=(8,), rng=7)
        agent = WorkerAgent("unused", 1, log=io.StringIO())
        agent._expected_signature = proto.model_signature(model)
        agent._handle_assign(
            proto.encode_assign(
                {1: make_test_client(client_id=1), 3: make_test_client(client_id=3)},
                TrainingConfig(), agent._expected_signature, model=model,
            )
        )
        agent._store_broadcast(proto.encode_broadcast(1, model.get_flat_weights()))
        before = {cid: agent._clients[cid].rng_states() for cid in (1, 3)}
        served = []
        monkeypatch.setattr(worker_mod, "serve_train", lambda *a, **k: served.append(a))
        with pytest.raises(proto.ProtocolError):
            agent._handle_train(None, self._train(HOSTILE_RNG[case]))
        assert served == []
        assert {cid: agent._clients[cid].rng_states() for cid in (1, 3)} == before

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("inc", (6).to_bytes(16, "big"), "inc odd"),
            ("has_uint32", 2, "has_uint32 must be 0 or 1"),
            ("has_rng", 2, "has_rng is 2"),
            ("truncated", None, "truncated UPDATE rng-state row"),
        ],
    )
    def test_a_hostile_update_row_is_a_protocol_error(self, field, value, match):
        header = proto._UPDATE_HEADER
        state = np.random.default_rng(2).bit_generator.state
        frame = bytearray(proto.encode_update(3, 1, 30, state, np.zeros(0)))
        row = PCG64_ROW
        fields = list(row.unpack_from(frame, header.size))
        if field == "inc":
            fields[1] = value
        elif field == "has_uint32":
            fields[2] = value
        if field in ("inc", "has_uint32"):
            row.pack_into(frame, header.size, *fields)
        elif field == "has_rng":
            frame[header.size - 1] = value
        else:
            frame = frame[: header.size + row.size - 1]
        with pytest.raises(proto.ProtocolError, match=match):
            proto.decode_update(bytes(frame))

    def test_an_encoder_refuses_what_the_row_cannot_carry(self):
        mt = np.random.Generator(np.random.MT19937(1)).bit_generator.state
        with pytest.raises(ValueError, match="not a PCG64 row"):
            proto.encode_update(1, 1, 1, mt, np.zeros(1))
        with pytest.raises(ValueError, match="which has no job"):
            proto.encode_train(1, 0, [(1, 1)], [(2, np.random.default_rng(0).bit_generator.state)])
