"""Stratified posets of normal-crossings divisor configurations.

A configuration records, for a divisor D = D_1 u ... u D_k inside an ambient
space M, which intersection strata D_I are nonempty, how many connected
components each stratum has, and how components restrict when the index set
grows.  Ample weights kappa_i and the pole orders a_i of the chosen volume
form ride along; all arithmetic is exact.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from . import complexes
from .errors import InputError, UnsupportedStructureError
from .rationals import RATIONAL, parse_rational
from .schema import require_distinct, validate


class DivisorConfiguration:
    """Immutable stratum poset of a k-component normal-crossings divisor.

    strata maps each nonempty stratum's frozenset index set I to its tuple
    of component ids; an index set that is absent is an empty stratum.
    Component ids are opaque small integers scoped per stratum; identities
    across strata exist only through the component maps.  Each map from a
    nonempty D_I to D_{I - i} is settled once, on construction: the supplied
    one, or the only map when D_{I - i} is connected.  component_map
    composes these; any other supplied map must agree with that composition.
    poles holds the pole orders 1 - a_i scaled to integers by the lcm of the
    denominators of the a_i.
    """

    def __init__(self, k, kappa, a, strata, maps=None, log_nef=None):
        if not isinstance(k, int) or k < 1:
            raise InputError("k must be a positive integer")
        self.k = k
        self.kappa = tuple(Fraction(x) for x in kappa)
        self.a = tuple(Fraction(x) for x in a)
        if len(self.kappa) != k or len(self.a) != k:
            raise InputError("kappa and a must have length k")
        if any(x <= 0 for x in self.kappa):
            raise InputError("all ample weights kappa_i must be positive")
        scale = lcm(*(x.denominator for x in self.a))
        self.poles = tuple(int((1 - x) * scale) for x in self.a)

        cells = {}
        for key, comps in strata.items():
            index = frozenset(key)
            if not self._in_range(index):
                raise InputError(f"stratum index {sorted(index)} out of range 1..{k}")
            comps = tuple(comps)
            if len(set(comps)) != len(comps):
                raise InputError(f"duplicate component ids in stratum {sorted(index)}")
            cells[index] = comps
        self.strata = {index: comps for index, comps in cells.items() if comps}

        if log_nef is None:
            log_nef = all(x <= 1 for x in self.a)
        elif log_nef and any(x > 1 for x in self.a):
            raise InputError("log nef requires every a_i <= 1")
        self.log_nef = bool(log_nef)

        supplied = {}
        for (src, dst), assign in (maps or {}).items():
            src, dst = frozenset(src), frozenset(dst)
            if not dst <= src:
                raise InputError(f"map target {sorted(dst)} is not a subset of {sorted(src)}")
            supplied[(src, dst)] = dict(assign)
        self._validate(supplied)

    def _in_range(self, index):
        return all(isinstance(i, int) and 1 <= i <= self.k for i in index)

    def _validate(self, supplied):
        base = self.strata.get(frozenset(), ())
        if not base:
            raise InputError("the empty stratum (M itself) must be nonempty")
        if len(base) != 1:
            raise InputError("M must be connected (exactly one component at the empty index)")
        # the faces I - {i} of every nonempty stratum, each computed once and
        # replaced by the key object strata already holds for it
        keys = {index: index for index in self.strata}
        faces = {}
        for index in self.strata:
            below = faces[index] = {}
            for i in index:
                face = keys.get(index - {i})
                if face is None:
                    raise InputError(
                        f"stratum {sorted(index)} nonempty but {sorted(index - {i})} empty")
                below[i] = face
        # settle the map of every adjacent pair below a nonempty stratum
        self._adjacent_maps = maps = {}
        for src, below in faces.items():
            src_comps = self.strata[src]
            for dst in below.values():
                dst_comps = self.strata[dst]
                assign = supplied.get((src, dst))
                if assign is None:
                    if len(dst_comps) != 1:
                        raise InputError(
                            f"missing component map {sorted(src)} -> {sorted(dst)} "
                            f"(target has {len(dst_comps)} components)")
                    assign = dict.fromkeys(src_comps, dst_comps[0])
                if set(assign) != set(src_comps):
                    raise InputError(
                        f"map {sorted(src)}->{sorted(dst)} does not cover all components")
                if not set(assign.values()) <= set(dst_comps):
                    raise InputError(f"map {sorted(src)}->{sorted(dst)} hits unknown components")
                maps[(src, dst)] = assign
        # composition consistency on index-difference-2 diamonds
        for index, comps in self.strata.items():
            below = faces[index]
            for i, j in combinations(sorted(index), 2):
                face_i, face_j = below[i], below[j]
                to_i, to_j = maps[(index, face_i)], maps[(index, face_j)]
                below_i = maps[(face_i, faces[face_i][j])]
                below_j = maps[(face_j, faces[face_j][i])]
                if any(below_i[to_i[c]] != below_j[to_j[c]] for c in comps):
                    raise InputError(
                        f"component maps do not compose consistently below {sorted(index)}")
        # every other supplied map must agree with the composition
        for (src, dst), assign in supplied.items():
            if (src, dst) in maps:
                continue
            if src not in self.strata:
                raise InputError(f"supplied map {sorted(src)}->{sorted(dst)} "
                                 "does not start at a nonempty stratum")
            if assign != self.component_map(src, dst):
                raise InputError(
                    f"supplied map {sorted(src)}->{sorted(dst)} disagrees with composition")

    # -- queries ---------------------------------------------------------------

    def components(self, index) -> tuple:
        """Component ids of D_index: () when the stratum is empty."""
        index = frozenset(index)
        if index not in self.strata and not self._in_range(index):
            raise InputError(f"stratum index {sorted(index)} out of range")
        return self.strata.get(index, ())

    def component_map(self, src, dst) -> dict:
        """Composed component map from stratum src down to dst (dst subset of src)."""
        src, dst = frozenset(src), frozenset(dst)
        if not dst <= src:
            raise InputError("component_map requires dst to be a subset of src")
        comps = self.strata.get(src) or self.components(src)  # the latter checks the range
        if not comps:
            raise InputError(f"stratum {sorted(src)} is empty")
        assign = {c: c for c in comps}
        # peel off the largest surplus index at each step (any chain agrees
        # once the diamond condition has been checked)
        for i in sorted(src - dst, reverse=True):
            step = self._adjacent_maps[(src, src - {i})]
            assign = {c: step[assign[c]] for c in assign}
            src = src - {i}
        return assign

    def check_vector(self, v) -> tuple:
        v = tuple(v)
        if len(v) != self.k:
            raise InputError(f"multiplicity vector has length {len(v)}, expected {self.k}")
        if any((not isinstance(x, int)) or x < 0 for x in v):
            raise InputError("multiplicity vectors must have nonnegative integer entries")
        return v

    @staticmethod
    def support(v) -> frozenset:
        return frozenset(i + 1 for i, x in enumerate(v) if x != 0)

    def in_basis(self, v) -> bool:
        """True iff v indexes basis elements: nonempty stratum and sum (1-a_i) v_i = 0."""
        v = self.check_vector(v)
        return self.support(v) in self.strata and sum(map(mul, self.poles, v)) == 0

    def weight(self, v) -> Fraction:
        v = self.check_vector(v)
        return sum((self.kappa[i] * v[i] for i in range(self.k)), Fraction(0))

    # -- dual complexes ----------------------------------------------------------

    def dual_complex(self) -> "complexes.SimplicialComplex":
        """Simplicial dual intersection complex: a face per nonempty stratum.

        Rejects configurations with disconnected strata; those have a more
        general cell structure that this library does not model.
        """
        for index in sorted(self.strata, key=lambda s: (len(s), sorted(s))):
            if len(self.strata[index]) > 1:
                raise UnsupportedStructureError(
                    f"stratum {sorted(index)} has {len(self.strata[index])} components; "
                    "the dual complex is only simplicial when all strata are connected")
        return complexes.SimplicialComplex.from_facets(self.strata)

    def delta_zero_subcomplex(self) -> "complexes.SimplicialComplex":
        """Faces of the dual complex all of whose vertices have a_i = 1."""
        if not self.log_nef:
            raise InputError("the order-one subcomplex is defined for log nef configurations")
        cx = self.dual_complex()
        order_one = [i for i in range(1, self.k + 1) if self.a[i - 1] == 1]
        return cx.induced(order_one)


def configuration_from_json(data) -> DivisorConfiguration:
    """Read a configuration from the documented JSON schema.

    Omitted strata are empty; omitted maps are derived where the target
    stratum is connected.  Each index list becomes a frozenset once; a list
    whose frozenset is shorter repeats an index, and only then is the error
    path written.  The checks run in a fixed order, so a document with several
    faults reports the same one every time.
    """
    validate(data, CONFIGURATION_SCHEMA)
    title = "configuration JSON"
    entries = data.get("strata", ())
    indices = []
    for idx, entry in enumerate(entries):
        index = frozenset(entry["I"])
        if len(index) != len(entry["I"]):
            require_distinct(entry["I"], title, f"strata[{idx}].I", "index")
        indices.append(index)
    pairs = []
    for idx, entry in enumerate(data.get("maps", ())):
        src, dst = frozenset(entry["from"]), frozenset(entry["to"])
        if len(src) != len(entry["from"]):
            require_distinct(entry["from"], title, f"maps[{idx}].from", "index")
        if len(dst) != len(entry["to"]):
            require_distinct(entry["to"], title, f"maps[{idx}].to", "index")
        pairs.append((src, dst))
    require_distinct(indices, title, "strata", "I")
    require_distinct(pairs, title, "maps", "from and to")
    strata = {index: tuple(entry["components"]) for index, entry in zip(indices, entries)}
    strata.setdefault(frozenset(), (0,))
    maps = {}
    for idx, (pair, entry) in enumerate(zip(pairs, data.get("maps", ()))):
        try:
            maps[pair] = {int(key): value for key, value in entry["assign"].items()}
        except ValueError:
            raise InputError(f"{title} maps[{idx}].assign has a non-integer key") from None
    return DivisorConfiguration(data["k"], [parse_rational(x) for x in data["kappa"]],
                                [parse_rational(x) for x in data["a"]], strata, maps,
                                log_nef=data.get("logNef"))


CONFIGURATION_SCHEMA = {
    "title": "configuration JSON",
    "type": "object",
    "required": ["k", "kappa", "a"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "kappa": {"type": "array", "items": RATIONAL},
        "a": {"type": "array", "items": RATIONAL},
        "strata": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["I", "components"],
                "properties": {
                    "I": {"type": "array", "items": {"type": "integer"}},
                    "components": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
        "maps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to", "assign"],
                "properties": {
                    "from": {"type": "array", "items": {"type": "integer"}},
                    "to": {"type": "array", "items": {"type": "integer"}},
                    "assign": {"type": "object", "additionalProperties": {"type": "integer"}},
                },
            },
        },
        "logNef": {"type": "boolean"},
    },
}
