import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import per_sample_affine_unbreakable, per_sample_convex_unbreakable
from qcensor import suites
from qcensor.censorship import encode_description
from qcensor.states import bell_phi_plus, make_rng
from qcensor.suites import SUITES, SuiteResult, run_suite


def test_suite_registry_names():
    assert set(SUITES) == {
        "affine_unbreakable",
        "convex_unbreakable",
        "discord_breach",
        "activation",
        "channel_axioms",
    }
    with pytest.raises(ValueError):
        run_suite("bogus", samples=1, seed=0)


def test_affine_suite_small():
    result = run_suite("affine_unbreakable", samples=25, seed=7)
    assert result.passed
    assert result.max_defects["receiver_max_imag"] <= 1e-9
    assert not result.failures


def test_convex_suite_small():
    result = run_suite("convex_unbreakable", samples=10, seed=11)
    assert result.passed
    assert result.max_defects["mixture_reconstruction"] <= 1e-9
    assert result.max_defects["ppt_negativity"] <= 1e-9


def test_discord_breach_suite_detects_breach():
    result = run_suite("discord_breach", samples=1, seed=0)
    assert result.passed
    assert result.max_defects["discord_witness_nats"] > 1e-3
    assert result.max_defects["component_discord_0"] <= 1e-6
    assert result.max_defects["component_discord_1"] <= 1e-6
    assert result.max_defects["luo_discord_error"] <= 1e-9


def test_discord_breach_suite_samples_from_seed():
    a = run_suite("discord_breach", samples=12, seed=5)
    assert a.passed and not a.failures
    assert a.max_defects["luo_discord_error"] <= 1e-9
    # the first draw is shared, so the smallest witness over more samples can only fall
    first = run_suite("discord_breach", samples=1, seed=5)
    assert a.max_defects["discord_witness_nats"] <= first.max_defects["discord_witness_nats"]
    assert run_suite("discord_breach", samples=12, seed=5).max_defects == a.max_defects
    assert run_suite("discord_breach", samples=12, seed=6).max_defects != a.max_defects


def test_activation_suite():
    result = run_suite("activation", samples=1, seed=0)
    assert result.passed
    assert result.max_defects["marginal_roundtrip"] <= 1e-10
    assert result.max_defects["chsh_parameter"] < 1.0


def test_channel_axioms_suite():
    result = run_suite("channel_axioms", samples=40, seed=3)
    assert result.passed
    assert result.max_defects["trace_preservation"] <= 1e-10
    assert result.max_defects["dephasing_idempotence"] <= 1e-10
    assert result.max_defects["replacement_input_independence"] <= 1e-10
    for theory in ("coherence", "imaginarity", "entanglement", "discord", "locality"):
        assert f"condition_v_{theory}" in result.max_defects
        assert result.max_defects[f"condition_vi_{theory}"] <= 1e-9


def test_suites_deterministic_for_seed():
    a = run_suite("affine_unbreakable", samples=5, seed=21)
    b = run_suite("affine_unbreakable", samples=5, seed=21)
    assert a.max_defects == b.max_defects


def test_record_keeps_and_fails_a_nan_defect():
    result = SuiteResult("k", True, 1, 0)
    result.record("k", np.array([1e-12, np.nan]), 1e-9)
    assert not result.passed
    assert math.isnan(result.max_defects["k"])
    assert result.failures == ["k: defect nan exceeds bound 1.0e-09"]
    # a NaN maximum stays NaN under later finite defects
    result.record("k", 0.5, 1.0)
    assert math.isnan(result.max_defects["k"])


def test_record_keeps_a_finite_maximum_and_its_sign():
    result = SuiteResult("k", True, 1, 0)
    result.record("k", -0.0, 1e-9)
    assert math.copysign(1.0, result.max_defects["k"]) == 1.0
    result.record("k", np.array([3e-10, 2e-9, 5e-9]), 1e-9)
    assert result.max_defects["k"] == 5e-9
    assert result.failures == [
        "k: defect 2.000e-09 exceeds bound 1.0e-09",
        "k: defect 5.000e-09 exceeds bound 1.0e-09",
    ]


PER_SAMPLE_ORACLES = {
    "affine_unbreakable": per_sample_affine_unbreakable,
    "convex_unbreakable": per_sample_convex_unbreakable,
}


def _fields(result: SuiteResult) -> tuple:
    bits = {key: struct.pack("<d", value) for key, value in result.max_defects.items()}
    return result.passed, bits, result.failures


# A complex basis: an imaginarity branch that dephases in it leaks imaginarity.
LEAKY_BASIS = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
# An entangled target: a replacement branch that prepares it breaks the PPT check.
LEAKY_STATE = bell_phi_plus(2)


def _forging(encode, forged: dict):
    """``encode`` as the per-sample oracle calls it, once per claim in
    sampling order, with the description at each (sample, claim) position
    of ``forged`` (both from 1) replaced by ``forged[position](made)``, where
    ``made`` maps positions to the descriptions made so far; and the map
    from each made description's state bytes to its position."""
    made, positions = {}, {}

    def wrapper(*args, **kwargs):
        n = len(made)
        at = (n // 2 + 1, n % 2 + 1)
        made[at] = encode(*args, **kwargs)
        positions[made[at].state.mat.tobytes()] = at
        return forged[at](made) if at in forged else made[at]

    return wrapper, positions


def _forging_chunks(forged: dict, positions: dict):
    """``suites._censored_samples`` whose chunk encoder forges as ``_forging``
    does, finding each description's position from its state's bytes; a
    claim the per-sample oracle never drew (one drawn past a collision, and
    dropped) has no position and is left as it is."""
    censored = suites._censored_samples

    def wrapper(result, theory, kind, shape, draw, encode, judge, bounds):
        def forging(claims):
            made, out = {}, []
            for desc in encode(claims):
                at = positions.get(desc.state.mat.tobytes())
                made[at] = desc
                out.append(forged[at](made) if at in forged else desc)
            return out

        return censored(result, theory, kind, shape, draw, forging, judge, bounds)

    return wrapper


def _forgeries(suite: str, collide, leak) -> dict:
    """A label collision (m = 2) at each sample of ``collide``, its second
    claim repeating its first, and a leaking first claim at each sample of
    ``leak``."""
    field, value = ("basis", LEAKY_BASIS) if suite == "affine_unbreakable" else ("state", LEAKY_STATE)
    forged = {
        (k, 1): lambda made, k=k: dataclasses.replace(made[k, 1], **{field: value}) for k in leak
    }
    forged.update({(k, 2): lambda made, k=k: made[k, 1] for k in collide})
    return forged


def _generators(module, mp) -> list:
    """The generators ``module`` makes with ``make_rng`` from now on."""
    made = []

    def make(seed):
        made.append(make_rng(seed))
        return made[-1]

    mp.setattr(module, "make_rng", make)
    return made


def _run_both(suite: str, samples: int, seed: int, budget: int, forged: dict, stacks=None):
    """The suite and its per-sample oracle under the same forgeries; each
    generator must end where the other does. ``stacks``, if given, collects
    the (count, width) of each censored stack of joints."""
    with pytest.MonkeyPatch.context() as mp:
        encode, positions = _forging(encode_description, forged)
        mp.setattr(dense_reference, "encode_description", encode)
        oracle = _generators(dense_reference, mp)
        want = PER_SAMPLE_ORACLES[suite](samples, seed)
        mp.setattr(suites, "CHUNK_BYTES", budget)
        mp.setattr(suites, "_censored_samples", _forging_chunks(forged, positions))
        drawn = _generators(suites, mp)
        if stacks is not None:
            censor = suites._censor_joint

            def spy(transfers, mats, *args):
                stacks.append(mats.shape[:2])
                return censor(transfers, mats, *args)

            mp.setattr(suites, "_censor_joint", spy)
        got = run_suite(suite, samples, seed)
    assert drawn[0].bit_generator.state == oracle[0].bit_generator.state
    return got, want


@pytest.mark.parametrize("suite,examples", [("affine_unbreakable", 25), ("convex_unbreakable", 6)])
def test_unbreakable_suites_match_the_per_sample_oracle(suite, examples):
    @settings(max_examples=examples)
    @given(
        samples=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([suites.CHUNK_BYTES, 2**12, 2**21]),
        collide=st.sets(st.integers(1, 40), max_size=3),
        leak=st.sets(st.integers(1, 40), max_size=2),
    )
    def check(samples, seed, budget, collide, leak):
        got, want = _run_both(suite, samples, seed, budget, _forgeries(suite, collide, leak))
        assert _fields(got) == _fields(want)

    check()


@pytest.mark.parametrize("suite", ["affine_unbreakable", "convex_unbreakable"])
def test_a_forced_collision_and_failures_inside_one_chunk(suite):
    """Sample 3 registers one label (m = 2): its narrower joint, among wider
    ones that would share one chunk, is censored as a stack of its own, and
    samples 2 and 5 leak inside the wider stacks around it."""
    forged = _forgeries(suite, {3}, {2, 5})
    got, want = _run_both(suite, 8, 5, 2**21, forged)
    assert not got.passed and len(got.failures) == 2
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("suite,register", [("affine_unbreakable", 2), ("convex_unbreakable", 4)])
def test_collisions_at_the_ends_of_a_chunk_and_in_a_row(suite, register):
    """With four widest joints to a chunk, sample 1 collides at the first
    sample of a chunk, 5 at the last of the next one, and 6 and 7 in a row:
    each collision ends its chunk, whose later samples are drawn again."""
    wide, narrow = (3 * register) ** 2, (2 * register) ** 2
    stacks = []
    forged = _forgeries(suite, {1, 5, 6, 7}, {3})
    got, want = _run_both(suite, 12, 9, 4 * 16 * wide**2, forged, stacks)
    assert not got.passed
    assert _fields(got) == _fields(want)
    assert stacks == [
        (1, narrow), (3, wide), (1, narrow), (1, narrow), (1, narrow), (4, wide), (1, wide)
    ]


@given(
    st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 5e-10, 1e-9, 2e-9, 1e-3, np.nan]), min_size=2, max_size=2),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200)
def test_record_samples_is_each_sample_recording_its_keys_in_turn(rows):
    bounds = {"a": 1e-9, "b": 1e-10}
    got, want = SuiteResult("k", True, 1, 0), SuiteResult("k", True, 1, 0)
    got.record_samples(bounds, np.array(rows))
    for row in rows:
        for (key, bound), value in zip(bounds.items(), row):
            want.record(key, value, bound)
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("suite", ["affine_unbreakable", "convex_unbreakable"])
def test_no_samples_pass_with_no_defects(suite):
    got = run_suite(suite, 0, 1)
    assert _fields(got) == _fields(PER_SAMPLE_ORACLES[suite](0, 1)) == (True, {}, [])


def test_channel_axioms_rejects_no_samples_as_an_empty_probe_stack():
    with pytest.raises(ValueError, match=r"expected a non-empty matrix, got shape \(0, 2, 2\)"):
        run_suite("channel_axioms", 0, 1)


@pytest.mark.parametrize("suite", ["affine_unbreakable", "convex_unbreakable", "channel_axioms"])
def test_chunk_budget_keeps_every_bit(suite, monkeypatch):
    want = run_suite(suite, 30, 4)
    for budget in (1, 2**12, 2**30):
        monkeypatch.setattr(suites, "CHUNK_BYTES", budget)
        assert _fields(run_suite(suite, 30, 4)) == _fields(want)


@pytest.mark.parametrize(
    "suite,counts",
    [("affine_unbreakable", (6, 24)), ("convex_unbreakable", (6, 24)), ("channel_axioms", (40, 160))],
)
def test_peak_memory_does_not_grow_with_samples(suite, counts, monkeypatch):
    # a 4 KiB budget holds one joint of either unbreakable suite, and 16
    # two-qubit channel_axioms probes, so both counts fill whole chunks
    monkeypatch.setattr(suites, "CHUNK_BYTES", 2**12)
    run_suite(suite, 3, 1)  # caches filled
    peaks = []
    for samples in counts:
        tracemalloc.start()
        run_suite(suite, samples, 1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0] + 2**14, peaks
