"""Property-based algebra of the batch hash kernels.

The batched datapath (:mod:`repro.core.hashing.kernels`) is only
admissible because the AdHash sum lives in the commutative group
(Z_2^64, +); these properties pin the algebra down for every backend ×
mixer × rounding-policy combination:

* a batch fold equals the sequential scalar fold, element for element;
* store deltas are exact group differences, so applying a delta and its
  inverse round-trips to the identity;
* the fold is independent of element order (the property that makes
  deferred/batched delivery sound in the first place);
* the NumPy backend is *bit-identical* to the pure-Python reference on
  adversarial values: 2^64-1 wraparound, negative zero, NaNs and
  infinities through the FP round-off unit, denormals, decimal ties.

The NumPy kernel sends batches shorter than ``kernels._NUMPY_MIN_BATCH``
through the pure-Python code.  So that the properties above test its
vectorized bodies on small arrays too, rather than comparing Python with
Python, the module-scoped :func:`vectorize_every_batch` fixture sets that
threshold to 0 for every test here; only
:func:`test_dispatching_numpy_kernel_matches_python_at_every_length`
runs the threshold the checker uses.

Example counts follow the hypothesis profile registered in
``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci`` runs >= 200 per
property).
"""

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.hashing import kernels
from repro.core.hashing.kernels import (AUTO_BACKEND, ENV_BACKEND,
                                        PythonKernel, available_backends,
                                        get_kernel, has_numpy,
                                        resolve_backend)
from repro.core.hashing.mixers import available_mixers, get_mixer
from repro.core.hashing.rounding import (default_policy, floor_policy,
                                         mantissa_policy, no_rounding)
from repro.sim.values import MASK64, float_to_bits

BACKENDS = available_backends()
MIXERS = available_mixers()

#: The threshold the checker runs with (the fixture below zeroes it).
NUMPY_MIN_BATCH = kernels._NUMPY_MIN_BATCH


@pytest.fixture(autouse=True, scope="module")
def vectorize_every_batch():
    """Route every batch, however short, through the vectorized bodies."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_NUMPY_MIN_BATCH", 0)
        yield

#: Every rounding-policy shape the schemes can configure.
POLICIES = {
    "none": no_rounding(),
    "nearest3": default_policy(),
    "floor2": floor_policy(2),
    "mantissa13": mantissa_policy(13),
}

#: Values chosen to stress the exact edges where backends could diverge:
#: unsigned wraparound at 2^64-1, the sign bit at -2^63, bool-vs-int,
#: signed zeros, NaN/infinity through rounding, denormals, magnitudes
#: whose decimal scaling overflows, and ties of the away-from-zero rule.
ADVERSARIAL_VALUES = [
    0, 1, -1, MASK64, MASK64 - 1, 2**63, -(2**63), 2**32, True, False,
    0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e306,
    0.0005, -0.0005, 5.0005, -5.0005, -0.0004, 123.456, -123.456,
]

addresses = st.integers(min_value=0, max_value=MASK64)
int_words = st.integers(min_value=-(1 << 63), max_value=MASK64)
float_words = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True),
    st.sampled_from([v for v in ADVERSARIAL_VALUES if isinstance(v, float)]),
)
word_values = st.one_of(int_words, float_words, st.booleans())
locations = st.lists(st.tuples(addresses, word_values), max_size=32)
transitions = st.lists(st.tuples(addresses, word_values, word_values),
                       max_size=32)
policy_keys = st.sampled_from(sorted(POLICIES))


def fp_flags_of(values):
    """The flags the schemes derive: FP datapath iff the value is a float."""
    return [isinstance(v, float) for v in values]


def scalar_fold(mixer, policy, addrs, values, fp_flags):
    """The definitional fold: one scalar location_hash per element."""
    total = 0
    for a, v, f in zip(addrs, values, fp_flags):
        if f and policy.enabled:
            v = policy.apply(v)
        total += mixer.location_hash(a, v)
    return total & MASK64


def unzip3(items):
    if not items:
        return [], [], []
    a, b, c = zip(*items)
    return list(a), list(b), list(c)


# -- batch == sequential scalar fold --------------------------------------------------


@pytest.mark.parametrize("mixer_name", MIXERS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(locs=locations, policy_key=policy_keys)
def test_fold_matches_sequential_scalar_fold(backend, mixer_name, locs,
                                             policy_key):
    policy = POLICIES[policy_key]
    kernel = get_kernel(backend)
    addrs = [a for a, _ in locs]
    values = [v for _, v in locs]
    flags = fp_flags_of(values)
    expected = scalar_fold(get_mixer(mixer_name), policy, addrs, values, flags)
    assert kernel.fold_locations(get_mixer(mixer_name), policy, addrs,
                                 values, flags) == expected


@pytest.mark.parametrize("mixer_name", MIXERS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(locs=locations)
def test_terms_match_scalar_terms_without_flags(backend, mixer_name, locs):
    """``fp_flags=None`` is the no-rounding integer datapath."""
    kernel = get_kernel(backend)
    mixer = get_mixer(mixer_name)
    addrs = [a for a, _ in locs]
    values = [v for _, v in locs]
    expected = [get_mixer(mixer_name).location_hash(a, v)
                for a, v in zip(addrs, values)]
    assert list(kernel.location_terms(mixer, None, addrs, values)) == expected


# -- store deltas and inverses ---------------------------------------------------------


@pytest.mark.parametrize("mixer_name", MIXERS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(stores=transitions, policy_key=policy_keys)
def test_store_delta_is_exact_group_difference(backend, mixer_name, stores,
                                               policy_key):
    policy = POLICIES[policy_key]
    kernel = get_kernel(backend)
    addrs, old, new = unzip3(stores)
    flags = fp_flags_of(new)
    mixer = get_mixer(mixer_name)
    expected = (scalar_fold(mixer, policy, addrs, new, flags)
                - scalar_fold(mixer, policy, addrs, old, flags)) & MASK64
    assert kernel.store_delta(get_mixer(mixer_name), policy, addrs, old,
                              new, flags) == expected


@pytest.mark.parametrize("mixer_name", MIXERS)
@pytest.mark.parametrize("backend", BACKENDS)
@given(stores=transitions, policy_key=policy_keys)
def test_store_delta_roundtrips_to_identity(backend, mixer_name, stores,
                                            policy_key):
    """Applying a delta and its reverse is the group identity — the
    algebraic fact that lets frees and reverted stores cancel exactly."""
    policy = POLICIES[policy_key]
    kernel = get_kernel(backend)
    mixer = get_mixer(mixer_name)
    addrs, old, new = unzip3(stores)
    flags = fp_flags_of(new)
    forward = kernel.store_delta(mixer, policy, addrs, old, new, flags)
    backward = kernel.store_delta(mixer, policy, addrs, new, old, flags)
    assert (forward + backward) & MASK64 == 0


@pytest.mark.parametrize("backend", BACKENDS)
@given(locs=locations, extra=st.tuples(addresses, word_values))
def test_add_then_subtract_restores_fold(backend, locs, extra):
    """Including one more location and deleting it again is a no-op."""
    kernel = get_kernel(backend)
    mixer = get_mixer()
    addrs = [a for a, _ in locs]
    values = [v for _, v in locs]
    base = kernel.fold_locations(mixer, None, addrs, values)
    grown = kernel.fold_locations(mixer, None, addrs + [extra[0]],
                                  values + [extra[1]])
    term = kernel.fold_locations(mixer, None, [extra[0]], [extra[1]])
    assert (grown - term) & MASK64 == base


# -- order independence ----------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@given(locs=locations, policy_key=policy_keys,
       seed=st.integers(0, 2**32 - 1))
def test_fold_is_order_independent(backend, locs, policy_key, seed):
    """The commutativity that makes batched/deferred delivery sound."""
    policy = POLICIES[policy_key]
    kernel = get_kernel(backend)
    mixer = get_mixer()
    shuffled = list(locs)
    random.Random(seed).shuffle(shuffled)
    flags = fp_flags_of([v for _, v in locs])
    shuffled_flags = fp_flags_of([v for _, v in shuffled])
    assert kernel.fold_locations(
        mixer, policy, [a for a, _ in locs], [v for _, v in locs],
        flags) == kernel.fold_locations(
        mixer, policy, [a for a, _ in shuffled], [v for _, v in shuffled],
        shuffled_flags)


# -- NumPy vs pure-Python bit-equality -------------------------------------------------


needs_numpy = pytest.mark.skipif(not has_numpy(),
                                 reason="numpy backend not installed")


@needs_numpy
@pytest.mark.parametrize("mixer_name", MIXERS)
@pytest.mark.parametrize("policy_key", sorted(POLICIES))
def test_backends_bit_identical_on_adversarial_values(mixer_name, policy_key):
    policy = POLICIES[policy_key]
    py, np_k = get_kernel("python"), get_kernel("numpy")
    values = list(ADVERSARIAL_VALUES)
    addrs = [(i * 0x9E3779B97F4A7C15 + 7) & MASK64 for i in range(len(values))]
    flags = fp_flags_of(values)
    assert py.location_terms(get_mixer(mixer_name), policy, addrs, values,
                             flags) == np_k.location_terms(
        get_mixer(mixer_name), policy, addrs, values, flags)
    reversed_values = list(reversed(values))
    assert py.store_delta(get_mixer(mixer_name), policy, addrs, values,
                          reversed_values, flags) == np_k.store_delta(
        get_mixer(mixer_name), policy, addrs, values, reversed_values, flags)


@needs_numpy
@pytest.mark.parametrize("mixer_name", MIXERS)
@given(locs=locations, policy_key=policy_keys)
def test_backends_bit_identical_on_random_values(mixer_name, locs, policy_key):
    policy = POLICIES[policy_key]
    py, np_k = get_kernel("python"), get_kernel("numpy")
    addrs = [a for a, _ in locs]
    values = [v for _, v in locs]
    flags = fp_flags_of(values)
    assert py.location_terms(get_mixer(mixer_name), policy, addrs, values,
                             flags) == np_k.location_terms(
        get_mixer(mixer_name), policy, addrs, values, flags)


@needs_numpy
@pytest.mark.parametrize("mixer_name", MIXERS)
@given(stores=st.lists(st.tuples(addresses, word_values, word_values),
                       min_size=2 * NUMPY_MIN_BATCH,
                       max_size=2 * NUMPY_MIN_BATCH))
def test_dispatching_numpy_kernel_matches_python_at_every_length(mixer_name,
                                                                 stores):
    """At the checker's real threshold, every batch length from 0 to
    twice it (both sides of the scalar/vectorized switch), with and
    without FP rounding, gives the Python kernel's value."""
    py, np_k = PythonKernel(), get_kernel("numpy")
    mixer = get_mixer(mixer_name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_NUMPY_MIN_BATCH", NUMPY_MIN_BATCH)
        for policy in (None, default_policy()):
            for n in range(2 * NUMPY_MIN_BATCH + 1):
                addrs, old, new = unzip3(stores[:n])
                flags = fp_flags_of(new)
                assert np_k.store_delta(mixer, policy, addrs, old, new,
                                        flags) == py.store_delta(
                    mixer, policy, addrs, old, new, flags)
                assert np_k.fold_locations(mixer, policy, addrs, new,
                                           flags) == py.fold_locations(
                    mixer, policy, addrs, new, flags)
                assert np_k.location_terms(mixer, policy, addrs, new,
                                           flags) == py.location_terms(
                    mixer, policy, addrs, new, flags)


@needs_numpy
@pytest.mark.parametrize("policy_key", sorted(POLICIES))
@given(values=st.lists(float_words, max_size=32))
def test_apply_array_bit_identical_to_scalar_apply(policy_key, values):
    """The vectorized round-off unit matches the scalar one bit-for-bit
    (including -0.0 normalization and NaN/overflow passthrough)."""
    import numpy as np

    policy = POLICIES[policy_key]
    rounded = policy.apply_array(np.array(values, dtype=np.float64))
    for v, r in zip(values, rounded):
        assert float_to_bits(policy.apply(v)) == float_to_bits(float(r))


@needs_numpy
@given(values=st.lists(float_words, min_size=1, max_size=16))
def test_mixer_batch_matches_scalar_bits_path(values):
    """Mixer.location_hash_batch (the base-class fallback included) is
    bit-identical to the scalar location_hash on float bit patterns."""
    import numpy as np

    bits = np.array([float_to_bits(v) for v in values], dtype=np.uint64)
    addrs = np.arange(1, len(values) + 1, dtype=np.uint64)
    for mixer_name in MIXERS:
        mixer = get_mixer(mixer_name)
        batch = mixer.location_hash_batch(addrs, bits)
        fallback = super(type(mixer), mixer).location_hash_batch(addrs, bits)
        for a, b, got, fb in zip(addrs, bits, batch, fallback):
            assert int(got) == mixer.location_hash_bits(int(a), int(b))
            assert int(got) == int(fb)


# -- backend registry and resolution ---------------------------------------------------


def test_python_backend_always_available():
    assert "python" in BACKENDS
    assert get_kernel("python").name == "python"


def test_get_kernel_returns_singletons_and_passthrough():
    kernel = get_kernel("python")
    assert get_kernel("python") is kernel
    assert get_kernel(kernel) is kernel  # instances pass through


def test_resolve_backend_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "python")
    assert resolve_backend("python") == "python"
    if has_numpy():
        assert resolve_backend("numpy") == "numpy"


def test_resolve_backend_env_beats_auto(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "python")
    assert resolve_backend(None) == "python"
    assert resolve_backend(AUTO_BACKEND) == "python"


def test_resolve_backend_auto_detects(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    expected = "numpy" if has_numpy() else "python"
    assert resolve_backend(None) == expected
    assert resolve_backend(AUTO_BACKEND) == expected


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown hash backend"):
        resolve_backend("cuda")


def test_resolve_backend_numpy_unavailable(monkeypatch):
    # A None entry in sys.modules is how the import system spells "not
    # installed": find_spec answers None and ``import numpy`` fails.
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    monkeypatch.setitem(sys.modules, "numpy", None)
    has_numpy.cache_clear()
    try:
        assert resolve_backend(None) == "python"
        with pytest.raises(ValueError, match=r"\[fast\]"):
            resolve_backend("numpy")
    finally:
        has_numpy.cache_clear()


def test_python_kernel_handles_empty_batches():
    kernel = PythonKernel()
    mixer = get_mixer()
    assert kernel.fold_locations(mixer, None, [], []) == 0
    assert kernel.store_delta(mixer, None, [], [], []) == 0


@needs_numpy
def test_numpy_kernel_handles_empty_batches():
    kernel = get_kernel("numpy")
    mixer = get_mixer()
    assert kernel.fold_locations(mixer, None, [], []) == 0
    assert kernel.store_delta(mixer, None, [], [], []) == 0
    assert kernel.location_terms(mixer, None, [], []) == []
