"""Divisor configurations: basis-vector membership, dual complexes, maps."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy.errors import InputError, UnsupportedStructureError
from logcy.mirror import appendix_c_configuration
from logcy.stratum import DivisorConfiguration, configuration_from_json

from helpers import random_configuration


def connected_config(k, nonempty, a=None, kappa=None):
    """Configuration with the given nonempty strata, all connected."""
    strata = {frozenset(s): (0,) for s in nonempty}
    strata.setdefault(frozenset(), (0,))
    return DivisorConfiguration(
        k,
        kappa or [Fraction(1)] * k,
        a if a is not None else [Fraction(1)] * k,
        strata)


def projective_plane_boundary():
    """Toric boundary of the projective plane: pairwise strata meet, triple empty."""
    nonempty = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    return connected_config(3, nonempty)


def test_in_basis_calabi_yau_only_needs_nonempty_stratum():
    config = projective_plane_boundary()
    assert config.in_basis((2, 1, 0))
    assert config.in_basis((0, 0, 5))
    assert not config.in_basis((1, 1, 1))  # triple stratum empty


def test_in_basis_zero_vector():
    config = projective_plane_boundary()
    assert config.in_basis((0, 0, 0))


def test_in_basis_pole_order_condition():
    config = connected_config(2, [(), (1,), (2,), (1, 2)], a=[Fraction(1), Fraction(1, 2)])
    assert not config.in_basis((0, 1))          # (1 - 1/2) * 1 != 0
    assert config.in_basis((1, 0))
    assert config.in_basis((0, 0))


def test_in_basis_dimension_mismatch():
    config = projective_plane_boundary()
    with pytest.raises(InputError):
        config.in_basis((1, 0))


def test_in_basis_monotone_under_calabi_yau_specialization():
    rng = random.Random(23)
    from itertools import product
    for _ in range(40):
        config = random_configuration(rng, k_max=3)
        cy = DivisorConfiguration(config.k, config.kappa, [Fraction(1)] * config.k,
                                  config.strata, dict(config._adjacent_maps))
        for vec in product(range(3), repeat=config.k):
            if config.in_basis(vec):
                assert cy.in_basis(vec)


def test_dual_complex_projective_plane():
    # nonempty torus-orbit closures enumerated by hand: every proper subset
    config = projective_plane_boundary()
    cx = config.dual_complex()
    expected = {frozenset(s) for size in range(4) for s in combinations((1, 2, 3), size)}
    expected.discard(frozenset((1, 2, 3)))
    assert cx.faces == expected


def test_dual_complex_single_divisor():
    config = connected_config(1, [(), (1,)])
    assert config.dual_complex().faces == {frozenset(), frozenset((1,))}


def test_dual_complex_rejects_disconnected_stratum():
    config = appendix_c_configuration()
    with pytest.raises(UnsupportedStructureError) as err:
        config.dual_complex()
    assert "[1, 2, 3]" in str(err.value)


def test_dual_complex_downward_closed_exhaustive():
    from helpers import random_downward_closed
    rng = random.Random(5)
    for k in range(1, 9):
        for _ in range(8):
            faces = random_downward_closed(rng, k)
            config = connected_config(k, faces)
            cx = config.dual_complex()
            for face in cx.faces:
                for v in face:
                    assert face - {v} in cx.faces


def test_delta_zero_subcomplex():
    config = projective_plane_boundary()
    assert config.delta_zero_subcomplex() == config.dual_complex()

    mixed = connected_config(3, [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)],
                             a=[Fraction(1), Fraction(1, 2), Fraction(1)])
    sub = mixed.delta_zero_subcomplex()
    assert sub.faces == {frozenset(), frozenset((1,)), frozenset((3,)), frozenset((1, 3))}

    none = connected_config(2, [(), (1,), (2,), (1, 2)],
                            a=[Fraction(0), Fraction(1, 2)])
    assert none.delta_zero_subcomplex().faces == {frozenset()}


def test_delta_zero_requires_log_nef():
    config = connected_config(2, [(), (1,), (2,), (1, 2)], a=[Fraction(2), Fraction(1)])
    assert not config.log_nef
    with pytest.raises(InputError):
        config.delta_zero_subcomplex()


def test_downward_closure_validation():
    with pytest.raises(InputError):
        DivisorConfiguration(2, [1, 1], [1, 1],
                             {frozenset(): (0,), frozenset((1, 2)): (0,)})


def test_kappa_positive_validation():
    with pytest.raises(InputError):
        connected_config(1, [(), (1,)], kappa=[Fraction(0)])


def test_component_maps_compose_on_random_models():
    rng = random.Random(91)
    for _ in range(25):
        config = random_configuration(rng, k_max=4)
        for index, comps in config.strata.items():
            for i, j in combinations(sorted(index), 2):
                via_i = {c: config.component_map(index - {i}, index - {i, j})[
                    config.component_map(index, index - {i})[c]] for c in comps}
                via_j = {c: config.component_map(index - {j}, index - {i, j})[
                    config.component_map(index, index - {j})[c]] for c in comps}
                assert via_i == via_j
        # identity maps
        for index, comps in config.strata.items():
            assert config.component_map(index, index) == {c: c for c in comps}


def test_strata_hold_only_the_nonempty_strata():
    strata = {frozenset(s): (0,) for s in [(), (1,), (2,), (1, 2)]}
    strata[frozenset((3,))] = ()
    config = DivisorConfiguration(3, [1, 1, 1], [1, 1, 1], strata)
    assert config.strata == {index: comps for index, comps in strata.items() if comps}
    assert config.components((3,)) == config.components((1, 2, 3)) == ()
    with pytest.raises(InputError, match="out of range"):
        config.components((1, 4))
    rng = random.Random(17)
    for _ in range(25):
        assert all(random_configuration(rng).strata.values())


def test_every_adjacent_map_is_settled_on_construction():
    rng = random.Random(29)
    configs = [projective_plane_boundary(), appendix_c_configuration()]
    configs += [random_configuration(rng) for _ in range(25)]
    for config in configs:
        assert set(config._adjacent_maps) == {
            (index, index - {i}) for index in config.strata for i in index}


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_component_map_is_the_chain_peeling_the_smallest_index_first(rng):
    config = random_configuration(rng)
    for src, comps in config.strata.items():
        for size in range(len(src) + 1):
            for dst in map(frozenset, combinations(sorted(src), size)):
                assign, current = {c: c for c in comps}, src
                for i in sorted(src - dst):
                    step = config._adjacent_maps[(current, current - {i})]
                    assign = {c: step[assign[c]] for c in assign}
                    current = current - {i}
                assert config.component_map(src, dst) == assign


def test_missing_map_with_disconnected_target_rejected():
    strata = {frozenset(): (0,), frozenset((1,)): (0, 1), frozenset((2,)): (0,),
              frozenset((1, 2)): (0,)}
    with pytest.raises(InputError):
        DivisorConfiguration(2, [1, 1], [1, 1], strata)
    maps = {(frozenset((1, 2)), frozenset((1,))): {0: 1}}
    config = DivisorConfiguration(2, [1, 1], [1, 1], strata, maps)
    assert config.component_map(frozenset((1, 2)), frozenset((1,))) == {0: 1}


def _two_sheet_configuration(maps):
    # k = 3; every stratum is connected except D_1, which has two components
    strata = {frozenset(index): (0,) for size in range(4)
              for index in combinations((1, 2, 3), size)}
    strata[frozenset((1,))] = (0, 1)
    return DivisorConfiguration(3, [1, 1, 1], [1, 1, 1], strata,
                                {(frozenset(src), frozenset(dst)): assign
                                 for (src, dst), assign in maps.items()})


def test_diamond_with_disagreeing_maps_rejected():
    maps = {((1, 2), (1,)): {0: 0}, ((1, 3), (1,)): {0: 1}}
    with pytest.raises(InputError, match="component maps do not compose consistently"):
        _two_sheet_configuration(maps)


def test_supplied_map_disagreeing_with_composition_rejected():
    maps = {((1, 2), (1,)): {0: 0}, ((1, 3), (1,)): {0: 0}}
    config = _two_sheet_configuration(maps)
    assert config.component_map(frozenset((1, 2, 3)), frozenset((1,))) == {0: 0}
    with pytest.raises(InputError, match="disagrees with composition"):
        _two_sheet_configuration({**maps, ((1, 2, 3), (1,)): {0: 1}})


def test_json_malformed():
    with pytest.raises(InputError):
        configuration_from_json({"k": 1})
    with pytest.raises(InputError):
        configuration_from_json({"k": 1, "kappa": ["1"], "a": ["1"],
                                 "strata": [{"I": [1]}]})


def test_log_nef_flag_consistency():
    with pytest.raises(InputError):
        DivisorConfiguration(1, [1], [Fraction(3, 2)], {frozenset(): (0,)}, log_nef=True)
    config = DivisorConfiguration(1, [1], [Fraction(3, 2)],
                                  {frozenset(): (0,), frozenset((1,)): (0,)})
    assert config.log_nef is False
