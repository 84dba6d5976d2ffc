"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; "tolerance" is set equality or exact
rational identity throughout.  Time budgets are asserted with a monotonic
clock.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from logcy import mirror
from logcy.complexes import SimplicialComplex
from logcy.energy import (ChordLabel, EnergyParameters, OrbitLabel, chord_action_approx,
                          chord_weight, orbit_action_approx, pss_energy, pss_energy_approx,
                          weighted_winding)
from logcy.errors import InputError
from logcy.homology import gorenstein_verdict
from logcy.poly import parse_polynomial
from logcy.rees import (WeightedPresentation, associated_graded, fiber_at,
                        presentations_ideal_equal)
from logcy.sr_algebra import ThetaElement, graded_dimension, multiply, multiply_basis, unit_element
from logcy.trees import balancing_feasible, build_rho, kernel_dim, obstruction_dim, partition_count, vdim_log, vdim_prelog

from helpers import (basis_elements, criterion_11_jobs, cross_polytope_boundary, full_simplex,
                     random_configuration, random_tree, sphere_boundary, winding)

F = Fraction


def _report(name, elapsed, limit):
    print(f"PASS {name}: exact, {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.2f}s)"


def test_criterion_01_ring_axioms():
    start = time.monotonic()
    rng = random.Random(20260809)
    for trial in range(50):
        config = random_configuration(rng, k_max=4, comp_max=2,
                                      basis_cap=36, mult_bound=2)
        basis = basis_elements(config, mult_bound=2)
        cache = {}

        def product(x, y):
            key = (x, y)
            found = cache.get(key)
            if found is None:
                found = multiply_basis(config, x, y)
                cache[key] = found
            return found

        def element_times_basis(element, z, on_left):
            total = ThetaElement.zero()
            for term, coeff in element.coeffs.items():
                part = product(z, term) if on_left else product(term, z)
                total = total + part.scale(coeff)
            return total

        unit = unit_element(config)
        for x in basis:
            assert multiply(config, unit, ThetaElement.basis(x)) == ThetaElement.basis(x)
            for y in basis:
                assert product(x, y) == product(y, x)
        for x in basis:
            for y in basis:
                xy = product(x, y)
                for z in basis:
                    lhs = element_times_basis(xy, z, on_left=False)
                    rhs = element_times_basis(product(y, z), x, on_left=True)
                    assert lhs == rhs, (trial, x, y, z)
    _report("criterion 1 (ring axioms on 50 random configurations)",
            time.monotonic() - start, 30)


def test_criterion_02_admissible_monomials():
    start = time.monotonic()
    found = mirror.admissible_deformation_monomials()
    assert found == set(mirror.ADMISSIBLE_MONOMIALS)
    assert len(found) == 7
    _report("criterion 2 (deformation classification: the 7 admissible monomials)",
            time.monotonic() - start, 1)


def test_criterion_03_singular_line_symbolic():
    start = time.monotonic()
    assert mirror.singular_line_residuals(mirror.hypersurface_family()) == []
    _report("criterion 3 (symbolic singular line for the hypersurface family)",
            time.monotonic() - start, 1)


@pytest.mark.parametrize("n,kappa1", [(2, F(3, 2)), (3, F(2))])
def test_criterion_04_conic_smoothness(n, kappa1):
    start = time.monotonic()
    fixture = mirror.ConicBundleFixture(n, 1, 1, kappa1, F(1))
    results = mirror.conic_bundle_smooth_check(fixture)
    smooth, cert = results[n]
    assert smooth
    replay = cert.replay()
    one = parse_polynomial("1", replay.vars)
    assert replay == one
    _report(f"criterion 4 (conic-bundle smoothness certificate, n={n})",
            time.monotonic() - start, 60)


def test_criterion_05_degeneration_shadow():
    start = time.monotonic()
    fixture = mirror.ConicBundleFixture(3, 1, 1, F(2), F(1))
    graded = associated_graded(mirror.conic_bundle_presentation(fixture))
    sr_side = mirror.conic_bundle_sr_fixture(fixture)
    assert graded.hilbert_up_to(10) == sr_side.hilbert_up_to(10)

    quotient = mirror.appendix_c_sr_presentation()
    theta = graded_dimension(mirror.appendix_c_configuration(), 5)
    assert quotient.hilbert_up_to(5) == theta
    _report("criterion 5 (degeneration shadow: graded rings match basis counts)",
            time.monotonic() - start, 60)


def test_criterion_06_gorenstein_criterion():
    start = time.monotonic()
    for d in range(1, 5):
        assert gorenstein_verdict(sphere_boundary(d)).verdict, f"sphere d={d}"
    assert gorenstein_verdict(sphere_boundary(0)).verdict
    assert gorenstein_verdict(cross_polytope_boundary(3)).verdict
    assert not gorenstein_verdict(full_simplex(3)).verdict
    assert not gorenstein_verdict(SimplicialComplex.from_facets([[1, 2], [2, 3]])).verdict
    assert not gorenstein_verdict(SimplicialComplex.from_facets([[1, 2], [1, 3]])).verdict
    _report("criterion 6 (Gorenstein verdicts on spheres and non-spheres)",
            time.monotonic() - start, 10)


def test_criterion_07_tree_calculus():
    start = time.monotonic()
    rng = random.Random(4096)
    single_seen = 0
    feasible_seen = 0
    for _ in range(200):
        tree = random_tree(rng, k_max=3, max_vertices=6)
        # the two obstruction computations agree (asserted inside as well)
        edge_sum = sum(len(e.depth) - 1 for e in tree.edges)
        vertex_sum = sum(len(d) for d in tree.vertices.values())
        rho = build_rho(tree)
        direct = 2 * (edge_sum - vertex_sum + rho.kernel_dim())
        via_rank = 2 * (sum(len(e.depth) for e in tree.edges) - rho.rank())
        assert direct == via_rank == obstruction_dim(tree)
        if not tree.edges:
            single_seen += 1
            assert vdim_prelog(tree) == tree.deg_x0
            assert vdim_log(tree) == tree.deg_x0
        cert = balancing_feasible(tree)
        if cert is not None:
            feasible_seen += 1
            assert cert.verify(tree)
            image = rho.apply(cert.kernel_vector(tree, rho))
            assert all(x == 0 for x in image)
            if tree.edges:
                assert vdim_log(tree) <= tree.deg_x0 - 2
    assert single_seen >= 5
    assert feasible_seen >= 20
    _report("criterion 7 (tree calculus on 200 random trees; "
            f"{single_seen} single-vertex, {feasible_seen} balanced)",
            time.monotonic() - start, 30)


def _random_presentation(rng):
    nvars = rng.randint(1, 3)
    names = tuple(("x", "y", "z")[:nvars])
    monos = []
    for total in range(0, 4):
        for exps in _exponents(nvars, total):
            monos.append(exps)

    def random_poly():
        terms = rng.sample(monos, rng.randint(1, 3))
        parts = []
        for exps in terms:
            coeff = rng.choice(["1", "-1", "2", "-2", "1/2", "3"])
            body = "*".join(f"{names[i]}^{e}" for i, e in enumerate(exps) if e)
            parts.append(f"{coeff}*{body}" if body else coeff)
        return parse_polynomial(" + ".join(parts), names)

    relations = []
    for _ in range(rng.randint(1, 2)):
        poly = random_poly()
        if not poly.is_zero() and poly.total_degree() > 0:
            relations.append(poly)
    if not relations:
        return None
    weights = [rng.choice([1, 2, F(1, 2)]) for _ in range(nvars)]
    return WeightedPresentation(names, weights, relations)


def _exponents(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(nvars - 1, total - head):
            yield (head,) + rest


def test_criterion_08_rees_families():
    start = time.monotonic()
    rng = random.Random(777)
    checked = 0
    while checked < 20:
        pres = _random_presentation(rng)
        if pres is None:
            continue
        try:
            graded = associated_graded(pres)
            special = fiber_at(pres, 0)
        except InputError:
            continue  # unit-ideal draw: filtration not positive
        generic = fiber_at(pres, 1)
        assert presentations_ideal_equal(special, graded)
        assert special.hilbert_up_to(6) == generic.hilbert_up_to(6)
        checked += 1
    _report("criterion 8 (20 random Rees families: special fiber = gr, flat shadow)",
            time.monotonic() - start, 120)


def test_criterion_09_energy_identities():
    start = time.monotonic()
    rng = random.Random(31337)
    for _ in range(1000):
        k = rng.randint(1, 4)
        kappa = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)]
        eps1 = F(1, rng.randint(2, 12))
        pert = [F(rng.randint(-1, 1), 40) for _ in range(k)]
        params = EnergyParameters(kappa, eps1, pert)
        pert_free = EnergyParameters(kappa, eps1, [0] * k)

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
        chord = ChordLabel(indices, alpha0, alpha1, tuple(v),
                           F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 5))

        base = winding(chord, (0,) * k)
        assert chord_weight(params, chord) - chord_weight(params, base) == \
            weighted_winding(params, chord.v)
        assert chord_action_approx(pert_free, chord) == \
            -pert_free.shell_factor * chord_weight(pert_free, chord)

        w_vec = tuple(rng.randint(0, 4) for _ in range(k))
        orbit = OrbitLabel(tuple(rng.randint(0, 4) for _ in range(k)))
        assert pss_energy(params, w_vec, orbit_action_approx(params, orbit.v)) == \
            pss_energy_approx(params, w_vec, orbit)
    _report("criterion 9 (energy identities on 1000 random inputs)",
            time.monotonic() - start, 5)


def test_criterion_10_partition_counts():
    start = time.monotonic()
    for r in range(9):
        for r0 in range(r + 1):
            r1 = r - r0
            brute = sum(1 for _ in combinations(range(r), r0))
            assert partition_count(r, r0, r1) == brute
    _report("criterion 10 (partition counts vs brute force, r <= 8)",
            time.monotonic() - start, 1)


def test_criterion_11_cli_determinism(tmp_path):
    start = time.monotonic()
    jobs = criterion_11_jobs(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    outputs = []
    for _ in range(4):
        proc = subprocess.run(
            [sys.executable, "-m", "logcy.cli", "batch", "--manifest", str(manifest)],
            capture_output=True)
        assert proc.returncode == 0, proc.stdout
        outputs.append(proc.stdout)
    assert all(out == outputs[0] for out in outputs[1:])
    _report("criterion 11 (byte-identical CLI output across four runs)",
            time.monotonic() - start, 120)
