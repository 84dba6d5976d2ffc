"""Exact arithmetic for winding numbers, actions, energies and chord weights.

Angles are stored as turn fractions in [0,1), which cancels every 2*pi in
the displayed formulas; the "approximate" quantities are exact evaluations
of the closed-form right-hand sides, with no error terms modeled.
"""

from fractions import Fraction

from .errors import InputError
from .rationals import RATIONAL, parse_rational, parse_rational_vector
from .schema import validate


class EnergyParameters:
    """kappa weights, the shell scale eps1, and per-divisor perturbations."""

    __slots__ = ("kappa", "eps1", "eps_pert")

    def __init__(self, kappa, eps1, eps_pert):
        self.kappa = tuple(Fraction(x) for x in kappa)
        self.eps1 = Fraction(eps1)
        self.eps_pert = tuple(Fraction(x) for x in eps_pert)
        if any(x <= 0 for x in self.kappa):
            raise InputError("kappa weights must be positive")
        if not 0 < self.eps1 < 1:
            raise InputError("eps1 must lie strictly between 0 and 1")
        if len(self.eps_pert) != len(self.kappa):
            raise InputError("eps_pert needs one entry per kappa weight")

    @property
    def k(self) -> int:
        return len(self.kappa)

    @property
    def shell_factor(self) -> Fraction:
        """1 - eps1^2/2, the common action normalization (positive)."""
        return 1 - self.eps1 ** 2 / 2


def parameters_from_json(data) -> EnergyParameters:
    validate(data, PARAMETERS_SCHEMA)
    kappa = parse_rational_vector(data["kappa"])
    eps1 = parse_rational(data.get("eps1", "1/10"))
    pert = parse_rational_vector(data.get("epsPert", [0] * len(kappa)))
    return EnergyParameters(kappa, eps1, pert)


PARAMETERS_SCHEMA = {
    "title": "parameter JSON",
    "type": "object",
    "required": ["kappa"],
    "properties": {
        "kappa": {"type": "array", "items": RATIONAL},
        "eps1": RATIONAL,
        "epsPert": {"type": "array", "items": RATIONAL},
    },
}


class OrbitLabel:
    """A family of Hamiltonian orbits, by its winding vector."""

    __slots__ = ("v",)

    def __init__(self, v):
        if any((not isinstance(x, int)) or x < 0 for x in v):
            raise InputError("orbit winding vectors are nonnegative integer tuples")
        self.v = v


class ChordLabel:
    """A Hamiltonian chord near a depth-I stratum.

    Angle tuples are turn fractions in [0,1) aligned with the sorted index
    set; the winding vector is a full-length vector supported in I; f0 and
    f1 are the primitive values at the endpoints.
    """

    __slots__ = ("indices", "alpha0", "alpha1", "v", "f0", "f1")

    def __init__(self, indices, alpha0, alpha1, v, f0, f1):
        self.indices = tuple(int(i) for i in indices)  # sorted subset I of 1..k
        self.alpha0 = tuple(Fraction(x) for x in alpha0)
        self.alpha1 = tuple(Fraction(x) for x in alpha1)
        self.v = tuple(int(x) for x in v)  # length k, support inside indices
        self.f0 = Fraction(f0)
        self.f1 = Fraction(f1)
        if sorted(set(self.indices)) != list(self.indices):
            raise InputError("chord indices must be strictly increasing")
        if len(self.alpha0) != len(self.indices) or len(self.alpha1) != len(self.indices):
            raise InputError("one angle per chord index is required")
        for angle in self.alpha0 + self.alpha1:
            if not 0 <= angle < 1:
                raise InputError("angles are turn fractions in [0,1)")
        support = {i + 1 for i, x in enumerate(self.v) if x != 0}
        if not support <= set(self.indices):
            raise InputError("chord winding must be supported in the index set")
        if any(x < 0 for x in self.v):
            raise InputError("chord winding vectors are nonnegative")


def chord_from_json(data, k: int) -> ChordLabel:
    validate(data, CHORD_SCHEMA)
    v = data.get("v", [0] * k)
    if len(v) != k:
        raise InputError(f"chord winding vector has length {len(v)}, expected {k}")
    return ChordLabel(
        indices=tuple(data["I"]),
        alpha0=parse_rational_vector(data["alpha0"]),
        alpha1=parse_rational_vector(data["alpha1"]),
        v=tuple(v),
        f0=parse_rational(data.get("f0", 0)),
        f1=parse_rational(data.get("f1", 0)),
    )


CHORD_SCHEMA = {
    "title": "chord JSON",
    "type": "object",
    "required": ["I", "alpha0", "alpha1"],
    "properties": {
        "y": {"type": "integer"},  # the chord's point: accepted, not read
        "I": {"type": "array", "items": {"type": "integer"}},
        "alpha0": {"type": "array", "items": RATIONAL},
        "alpha1": {"type": "array", "items": RATIONAL},
        "v": {"type": "array", "items": {"type": "integer"}},
        "f0": RATIONAL,
        "f1": RATIONAL}}


def weighted_winding(params: EnergyParameters, v) -> Fraction:
    """sum kappa_i v_i, the filtration level of multiplicity v."""
    v = tuple(v)
    if len(v) != params.k:
        raise InputError(f"winding vector has length {len(v)}, expected {params.k}")
    return sum((k * x for k, x in zip(params.kappa, v)), Fraction(0))


def orbit_action_approx(params: EnergyParameters, v) -> Fraction:
    """-w(v) * (1 - eps1^2/2): the sharp orbit action value."""
    return -weighted_winding(params, v) * params.shell_factor


def pss_energy(params: EnergyParameters, v, orbit_action) -> Fraction:
    """Topological energy w(v) + A(x0) of a solution with output action A(x0)."""
    return weighted_winding(params, v) + Fraction(orbit_action)


def pss_energy_approx(params: EnergyParameters, v, orbit: OrbitLabel) -> Fraction:
    """w(v) - w(x0)(1 - eps1^2/2): the energy at the sharp action value."""
    return weighted_winding(params, v) - weighted_winding(params, orbit.v) * params.shell_factor


def short_chord_winding(chord: ChordLabel) -> tuple:
    """Per-index extra winding of the short chord: 1 where alpha1 > alpha0.

    Equal angles at any index are degenerate and rejected.
    """
    out = []
    for i, a0, a1 in zip(chord.indices, chord.alpha0, chord.alpha1):
        if a0 == a1:
            raise InputError(f"chord angles coincide at index {i}")
        out.append(1 if a1 > a0 else 0)
    return tuple(out)


def chord_weight(params: EnergyParameters, chord: ChordLabel) -> Fraction:
    """The descending-filtration level of a chord.

    (f0 - f1)/(1 - eps1^2/2) + sum_i kappa_i (alpha0_i + v_i + vs_i - alpha1_i),
    with angles as turn fractions.
    """
    vs = short_chord_winding(chord)
    total = (chord.f0 - chord.f1) / params.shell_factor
    for pos, i in enumerate(chord.indices):
        if not 1 <= i <= params.k:
            raise InputError(f"chord index {i} leaves 1..{params.k}")
        total += params.kappa[i - 1] * (
            chord.alpha0[pos] + chord.v[i - 1] + vs[pos] - chord.alpha1[pos])
    return total


def chord_action_approx(params: EnergyParameters, chord: ChordLabel) -> Fraction:
    """Sharp chord action:
    f1 - f0 + sum_i kappa_i (1 - (eps1 + pert_i)^2/2)(alpha1_i - v_i - vs_i - alpha0_i)."""
    vs = short_chord_winding(chord)
    total = chord.f1 - chord.f0
    for pos, i in enumerate(chord.indices):
        if not 1 <= i <= params.k:
            raise InputError(f"chord index {i} leaves 1..{params.k}")
        factor = 1 - (params.eps1 + params.eps_pert[i - 1]) ** 2 / 2
        total += params.kappa[i - 1] * factor * (
            chord.alpha1[pos] - chord.v[i - 1] - vs[pos] - chord.alpha0[pos])
    return total


def filtration_monotone_check(params: EnergyParameters, from_weight, to_weight) -> bool:
    """Descending-filtration compatibility: the target level does not exceed
    the source level (the combinatorial shadow of nonnegative energy)."""
    return Fraction(to_weight) <= Fraction(from_weight)

