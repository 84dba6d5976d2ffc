"""Winding, action, energy and chord-weight arithmetic."""

import random
from fractions import Fraction

import pytest

from logcy.energy import (ChordLabel, EnergyParameters, OrbitLabel, chord_action_approx,
                          chord_weight, filtration_monotone_check, orbit_action_approx,
                          parameters_from_json, pss_energy, pss_energy_approx,
                          short_chord_winding, weighted_winding)
from logcy.errors import InputError

from helpers import winding

F = Fraction


def params(kappa=(1, 1, 1), eps1=F(1, 10), pert=None):
    return EnergyParameters(kappa, eps1, pert if pert is not None else [0] * len(kappa))


def random_params(rng, k):
    kappa = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)]
    eps1 = F(1, rng.randint(2, 12))
    pert = [F(rng.randint(-1, 1), 50) for _ in range(k)]
    return EnergyParameters(kappa, eps1, pert)


def random_chord(rng, p):
    k = p.k
    size = rng.randint(0, k)
    indices = tuple(sorted(rng.sample(range(1, k + 1), size)))
    alpha0, alpha1 = [], []
    for _ in indices:
        a0 = F(rng.randint(0, 9), 10)
        a1 = F(rng.randint(0, 9), 10)
        while a1 == a0:
            a1 = F(rng.randint(0, 9), 10)
        alpha0.append(a0)
        alpha1.append(a1)
    v = [0] * k
    for i in indices:
        v[i - 1] = rng.randint(0, 3)
    f0 = F(rng.randint(-5, 5), rng.randint(1, 4))
    f1 = F(rng.randint(-5, 5), rng.randint(1, 4))
    return ChordLabel(indices, alpha0, alpha1, tuple(v), f0, f1)


def test_parameter_validation():
    with pytest.raises(InputError):
        EnergyParameters((0,), F(1, 10), (0,))
    with pytest.raises(InputError):
        EnergyParameters((1,), F(1), (0,))
    with pytest.raises(InputError):
        EnergyParameters((1,), F(3, 2), (0,))
    with pytest.raises(InputError):
        EnergyParameters((1, 1), F(1, 2), (0,))


def test_weighted_winding_examples():
    p = params()
    assert weighted_winding(p, (1, 1, 1)) == 3
    assert weighted_winding(p, (0, 0, 0)) == 0
    half = params(kappa=(1, 1, F(1, 2)))
    assert weighted_winding(half, (2, 0, 4)) == 4
    with pytest.raises(InputError):
        weighted_winding(p, (1, 0))


def test_orbit_action_examples():
    p = params()
    assert orbit_action_approx(p, (1, 1, 1)) == F(-597, 200)
    assert orbit_action_approx(p, (0, 0, 0)) == 0
    rng = random.Random(2)
    for _ in range(50):
        q = random_params(rng, 3)
        v = tuple(rng.randint(0, 4) for _ in range(3))
        assert orbit_action_approx(q, v) <= 0


def test_orbit_action_strictly_decreasing_in_each_coordinate():
    rng = random.Random(8)
    for _ in range(50):
        p = random_params(rng, 3)
        v = [rng.randint(0, 3) for _ in range(3)]
        base = orbit_action_approx(p, tuple(v))
        for i in range(3):
            bumped = list(v)
            bumped[i] += 1
            assert orbit_action_approx(p, tuple(bumped)) < base


def test_pss_energy_forms_agree():
    p = params()
    orbit = OrbitLabel((1, 1, 1))
    # w(v)=2, w(x0)=3: 2 - 597/200 = -197/200
    assert pss_energy_approx(p, (1, 1, 0), orbit) == F(-197, 200)
    assert pss_energy(p, (1, 1, 0), orbit_action_approx(p, orbit.v)) == F(-197, 200)
    # same vector: energy w * eps^2/2 > 0
    assert pss_energy_approx(p, (1, 1, 1), orbit) == 3 * F(1, 100) / 2


def test_pss_energy_consistency_random():
    rng = random.Random(5)
    for _ in range(100):
        p = random_params(rng, rng.randint(1, 4))
        v = tuple(rng.randint(0, 4) for _ in range(p.k))
        x0 = OrbitLabel(tuple(rng.randint(0, 4) for _ in range(p.k)))
        assert pss_energy(p, v, orbit_action_approx(p, x0.v)) == pss_energy_approx(p, v, x0)


def test_pss_energy_positive_under_strict_weight_increase():
    rng = random.Random(55)
    for _ in range(100):
        p = random_params(rng, 3)
        x0 = OrbitLabel(tuple(rng.randint(0, 3) for _ in range(3)))
        v = tuple(x + rng.randint(0, 2) for x in x0.v)
        if weighted_winding(p, v) > weighted_winding(p, x0.v):
            assert pss_energy_approx(p, v, x0) > 0


def test_short_chord_winding_cases():
    chord = ChordLabel((1,), (F(3, 10),), (F(7, 10),), (0, 0, 0), 0, 0)
    assert short_chord_winding(chord) == (1,)
    chord = ChordLabel((1,), (F(7, 10),), (F(3, 10),), (0, 0, 0), 0, 0)
    assert short_chord_winding(chord) == (0,)
    degenerate = ChordLabel((1,), (F(1, 2),), (F(1, 2),), (0, 0, 0), 0, 0)
    with pytest.raises(InputError, match="chord angles coincide at index 1"):
        short_chord_winding(degenerate)


def test_chord_weight_interior_chord():
    p = params()
    chord = ChordLabel((), (), (), (0, 0, 0), F(5, 7), F(5, 7))
    assert chord_weight(p, chord) == 0
    assert chord_action_approx(p, chord) == 0


def test_chord_weight_worked_example():
    p = params(kappa=(1,))
    chord = ChordLabel((1,), (F(0),), (F(1, 2),), (0,), 0, 0)
    assert chord_weight(p, chord) == F(1, 2)


def test_chord_weight_additivity_in_winding():
    rng = random.Random(11)
    for _ in range(100):
        p = random_params(rng, rng.randint(1, 4))
        chord = random_chord(rng, p)
        base = winding(chord, (0,) * p.k)
        assert chord_weight(p, chord) - chord_weight(p, base) == \
            weighted_winding(p, chord.v)


def test_chord_action_equals_scaled_weight_without_perturbation():
    rng = random.Random(13)
    for _ in range(100):
        p0 = random_params(rng, rng.randint(1, 4))
        p = EnergyParameters(p0.kappa, p0.eps1, [0] * p0.k)
        chord = random_chord(rng, p)
        assert chord_action_approx(p, chord) == -p.shell_factor * chord_weight(p, chord)


def test_chord_action_linear_in_winding():
    rng = random.Random(17)
    for _ in range(60):
        p = random_params(rng, 3)
        chord = random_chord(rng, p)
        if not chord.indices:
            continue
        i = chord.indices[0]
        bumped_v = list(chord.v)
        bumped_v[i - 1] += 1
        bumped = winding(chord, bumped_v)
        delta = chord_action_approx(p, bumped) - chord_action_approx(p, chord)
        factor = 1 - (p.eps1 + p.eps_pert[i - 1]) ** 2 / 2
        assert delta == -p.kappa[i - 1] * factor


def test_filtration_monotone():
    p = params()
    assert filtration_monotone_check(p, F(3), F(3))
    assert filtration_monotone_check(p, F(3), F(1))
    assert not filtration_monotone_check(p, F(1), F(3))


def test_filtration_monotone_on_generated_chords():
    # chord pairs with nonnegative energy never raise the filtration level:
    # action is a negative multiple of weight, so the target of an
    # energy-consuming trajectory (higher action) sits at lower weight
    rng = random.Random(23)
    p0 = random_params(rng, 2)
    p = EnergyParameters(p0.kappa, p0.eps1, [0] * p0.k)
    chords = [random_chord(rng, p) for _ in range(40)]
    passed = 0
    for a in chords:
        for b in chords:
            if chord_action_approx(p, b) - chord_action_approx(p, a) >= 0:
                assert filtration_monotone_check(
                    p, chord_weight(p, a), chord_weight(p, b))
                passed += 1
    assert passed > 0


def test_chord_label_validation():
    with pytest.raises(InputError):
        ChordLabel((2, 1), (F(0), F(0)), (F(1, 2), F(1, 2)), (0, 0), 0, 0)
    with pytest.raises(InputError):
        ChordLabel((1,), (F(3, 2),), (F(0),), (0,), 0, 0)
    with pytest.raises(InputError):
        ChordLabel((1,), (F(0),), (F(1, 2),), (0, 1), 0, 0)


def test_parameters_from_json():
    p = parameters_from_json({"kappa": ["1", "1/2"], "eps1": "1/5", "epsPert": ["0", "1/100"]})
    assert p.kappa == (F(1), F(1, 2))
    assert p.eps1 == F(1, 5)
    with pytest.raises(InputError):
        parameters_from_json({"eps1": "1/5"})
