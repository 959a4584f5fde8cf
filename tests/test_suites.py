import pytest

from qcensor.suites import SUITE_NAMES, run_suite


def test_suite_registry_names():
    assert set(SUITE_NAMES) == {
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
