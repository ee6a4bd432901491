"""The socket wire format: frames, blobs, and program specs.

The invariants the distributed layer leans on: frames are versioned
and reject mismatches loudly; data blobs round-trip; programs travel
by registry name only — every name-built program carries a spec, a
hand-built one is refused with a pointed error, and both ends of the
wire resolve a name to the same program.  Whatever bytes arrive,
``decode_frame`` returns a valid frame or raises ``WireError``.
"""

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import wire
from repro.core.engine.wire import (ProgramFactory, WireError,
                                    attach_spec, build_named_program,
                                    build_program, decode_frame,
                                    encode_frame, factory_spec, pack_blob,
                                    program_spec, unpack_blob)
from repro.errors import CheckerError, ReproError
from repro.sim.faults import make_fault
from repro.workloads import make
from repro.workloads.seeded_bugs import seeded_program

from _programs import RacyProgram


# -- frames -------------------------------------------------------------------


def test_frame_roundtrip():
    line = encode_frame({"type": "hello", "role": "worker", "pid": 7})
    assert line.endswith(b"\n")
    frame = decode_frame(line)
    assert frame["type"] == "hello"
    assert frame["role"] == "worker"
    assert frame["v"] == wire.WIRE_VERSION


def test_frame_version_mismatch_rejected():
    line = encode_frame({"type": "hello"}).replace(
        b'"v":%d' % wire.WIRE_VERSION, b'"v":999')
    with pytest.raises(WireError, match="version mismatch"):
        decode_frame(line)


def test_unversioned_frame_rejected():
    with pytest.raises(WireError, match="version mismatch"):
        decode_frame(b'{"type": "hello"}\n')


def test_frame_without_type_rejected():
    with pytest.raises(WireError, match="no 'type'"):
        decode_frame(encode_frame({"kind": "oops"}))


def test_garbage_frame_rejected():
    with pytest.raises(WireError, match="undecodable"):
        decode_frame(b"\xff\xfe not json\n")
    with pytest.raises(WireError, match="JSON object"):
        decode_frame(b'[1, 2, 3]\n')


def _decodes_or_refuses(line: bytes) -> None:
    """decode_frame's whole contract: a valid frame or a WireError."""
    try:
        frame = decode_frame(line)
    except WireError:
        return
    assert isinstance(frame, dict)
    assert frame["v"] == wire.WIRE_VERSION
    assert isinstance(frame["type"], str)


@pytest.mark.parametrize("line", [b"[" * 100000, b'{"a":' * 100000,
                                  b"1" * 5000],
                         ids=["deep-array", "deep-object", "huge-int"])
def test_deeply_nested_or_huge_frame_is_a_wire_error(line):
    with pytest.raises(WireError, match="undecodable"):
        decode_frame(line)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20)


@given(st.binary())
def test_arbitrary_bytes_decode_or_raise_wire_error(line):
    _decodes_or_refuses(line)


@given(_JSON, st.dictionaries(
    st.sampled_from(["v", "type", "index"]), _JSON | st.just(1)))
def test_arbitrary_json_decodes_or_raises_wire_error(value, frame):
    _decodes_or_refuses(json.dumps(value).encode())
    _decodes_or_refuses(json.dumps(frame).encode())
    _decodes_or_refuses(encode_frame(frame))


# -- blobs --------------------------------------------------------------------


def test_blob_roundtrip():
    payload = {"record": [1, 2, 3], "failure": None, "nested": {"x": (4, 5)}}
    assert unpack_blob(pack_blob(payload)) == payload


def test_blob_rejects_garbage():
    with pytest.raises(WireError, match="undecodable blob"):
        unpack_blob("not-base64-zlib-pickle!")


# -- program specs ------------------------------------------------------------


def test_every_factory_attaches_a_spec():
    assert make("fft", n_workers=2).registry_spec == {
        "kind": "workload", "name": "fft", "params": {"n_workers": 2}}
    assert make_fault("deadlock-fault").registry_spec["kind"] == "fault"
    assert seeded_program("radix").registry_spec["kind"] == "seeded"


def test_spec_rebuilds_the_same_program():
    for program in (make("fft", n_workers=2), make_fault("deadlock-fault"),
                    seeded_program("radix")):
        rebuilt = build_program(program_spec(program))
        assert type(rebuilt) is type(program)
        assert rebuilt.registry_spec == program.registry_spec


def test_unspecced_program_is_refused_with_guidance():
    with pytest.raises(ReproError, match="registry name"):
        program_spec(RacyProgram())


def test_unknown_spec_kind_rejected():
    with pytest.raises(WireError, match="unknown program-spec kind"):
        build_program({"kind": "telepathy", "name": "x", "params": {}})


def test_build_named_program_dispatch_order():
    # fault probes and seeded bugs shadow nothing in the workload
    # registry; each name resolves through its own family.
    assert build_named_program("fft").registry_spec["kind"] == "workload"
    assert build_named_program(
        "deadlock-fault").registry_spec["kind"] == "fault"
    assert build_named_program(
        "seeded-radix").registry_spec["kind"] == "seeded"


@pytest.mark.parametrize("app", ["fft", "deadlock-fault"])
def test_build_named_program_rejects_unknown_params(app):
    with pytest.raises(CheckerError,
                       match=r"takes no parameter 'bogus'; accepted: "
                             r"n_workers"):
        build_named_program(app, n_workers=2, bogus=1)


def test_build_named_program_passes_any_key_to_a_kwargs_target():
    # Seeded-bug factories take **kwargs and forward them; the check
    # leaves those to the constructor they reach.
    program = build_named_program("seeded-radix", n_workers=2)
    assert program.registry_spec["params"] == {"n_workers": 2}


def test_attach_spec_copies_params():
    params = {"n_workers": 4}
    program = attach_spec(RacyProgram(), "workload", "racy", params)
    params["n_workers"] = 99
    assert program.registry_spec["params"] == {"n_workers": 4}


# -- campaign factories -------------------------------------------------------


def test_program_factory_is_picklable_and_wireable():
    factory = ProgramFactory("fft")
    clone = pickle.loads(pickle.dumps(factory))
    assert clone.app == "fft"
    assert factory_spec(clone) == {"app": "fft"}
    program = clone(n_workers=2)
    assert program.name == "fft"
    assert program.registry_spec["kind"] == "workload"


def test_cli_app_factory_is_wireable():
    from repro.cli import _AppFactory

    factory = _AppFactory("fft")
    assert factory_spec(factory) == {"app": "fft"}
    assert pickle.loads(pickle.dumps(factory))(n_workers=2).name == "fft"


def test_lambda_factory_is_refused_with_guidance():
    with pytest.raises(ReproError, match="registry name"):
        factory_spec(lambda **kw: RacyProgram())
