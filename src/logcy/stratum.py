"""Stratified posets of normal-crossings divisor configurations.

A configuration records, for a divisor D = D_1 u ... u D_k inside an ambient
space M, which intersection strata D_I are nonempty, how many connected
components each stratum has, and how components restrict when the index set
grows.  Ample weights kappa_i and the pole orders a_i of the chosen volume
form ride along; all arithmetic is exact.
"""

from fractions import Fraction
from itertools import combinations

from .complexes import SimplicialComplex
from .errors import InputError, UnsupportedStructureError
from .rationals import RATIONAL, format_rational, parse_rational
from .schema import require_distinct, validate


class DivisorConfiguration:
    """Immutable stratum poset of a k-component normal-crossings divisor.

    strata maps frozenset index sets I to tuples of component ids (empty
    tuple = empty stratum).  Component ids are opaque small integers scoped
    per stratum; identities across strata exist only through the component
    maps.  Maps are supplied for adjacent pairs I = J \\ {j} and composed on
    demand; a missing adjacent map is derived automatically when the target
    stratum is connected.
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

        self.strata = {}
        for key, comps in strata.items():
            index = frozenset(key)
            if not all(isinstance(i, int) and 1 <= i <= k for i in index):
                raise InputError(f"stratum index {sorted(index)} out of range 1..{k}")
            comps = tuple(comps)
            if len(set(comps)) != len(comps):
                raise InputError(f"duplicate component ids in stratum {sorted(index)}")
            self.strata[index] = comps
        # omitted strata are empty
        for size in range(k + 1):
            for index in combinations(range(1, k + 1), size):
                self.strata.setdefault(frozenset(index), ())

        if log_nef is None:
            log_nef = all(x <= 1 for x in self.a)
        elif log_nef and any(x > 1 for x in self.a):
            raise InputError("log nef requires every a_i <= 1")
        self.log_nef = bool(log_nef)

        self._adjacent_maps = {}
        if maps:
            for (src, dst), assign in maps.items():
                self._register_map(frozenset(src), frozenset(dst), dict(assign))
        self._validate()

    # -- construction helpers -------------------------------------------------

    def _register_map(self, src, dst, assign):
        if not dst <= src:
            raise InputError(f"map target {sorted(dst)} is not a subset of {sorted(src)}")
        # non-adjacent maps are accepted too and verified against composition
        self._adjacent_maps[(src, dst)] = assign

    def _validate(self):
        if not self.strata[frozenset()]:
            raise InputError("the empty stratum (M itself) must be nonempty")
        if len(self.strata[frozenset()]) != 1:
            raise InputError("M must be connected (exactly one component at the empty index)")
        for index, comps in self.strata.items():
            if comps:
                for i in index:
                    if not self.strata[index - {i}]:
                        raise InputError(
                            f"stratum {sorted(index)} nonempty but {sorted(index - {i})} empty")
        # every adjacent pair below a nonempty stratum needs a (derivable) map
        for index, comps in self.strata.items():
            if not comps:
                continue
            for i in index:
                self._adjacent_map(index, index - {i})
        # composition consistency on index-difference-2 diamonds
        for index, comps in self.strata.items():
            if not comps or len(index) < 2:
                continue
            for i, j in combinations(sorted(index), 2):
                via_i = self._compose(index, index - {i}, index - {i, j})
                via_j = self._compose(index, index - {j}, index - {i, j})
                if via_i != via_j:
                    raise InputError(
                        f"component maps do not compose consistently below {sorted(index)}")
        # user-supplied non-adjacent maps must agree with compositions
        for (src, dst), assign in self._adjacent_maps.items():
            if len(src - dst) > 1 and self.strata[src]:
                if assign != self.component_map(src, dst):
                    raise InputError(
                        f"supplied map {sorted(src)}->{sorted(dst)} disagrees with composition")

    def _adjacent_map(self, src, dst):
        key = (src, dst)
        assign = self._adjacent_maps.get(key)
        src_comps, dst_comps = self.strata[src], self.strata[dst]
        if assign is None:
            if len(dst_comps) == 1:
                assign = {c: dst_comps[0] for c in src_comps}
                self._adjacent_maps[key] = assign
            else:
                raise InputError(
                    f"missing component map {sorted(src)} -> {sorted(dst)} "
                    f"(target has {len(dst_comps)} components)")
        if set(assign.keys()) != set(src_comps):
            raise InputError(f"map {sorted(src)}->{sorted(dst)} does not cover all components")
        if not set(assign.values()) <= set(dst_comps):
            raise InputError(f"map {sorted(src)}->{sorted(dst)} hits unknown components")
        return assign

    def _compose(self, src, mid, dst):
        first = self._adjacent_map(src, mid)
        if mid == dst:
            return first
        second = self._adjacent_map(mid, dst) if len(mid - dst) == 1 else self._compose_chain(mid, dst)
        return {c: second[first[c]] for c in first}

    def _compose_chain(self, src, dst):
        assign = {c: c for c in self.strata[src]}
        current = src
        # peel off the largest surplus index at each step (any chain agrees
        # once the diamond condition has been checked)
        for i in sorted(src - dst, reverse=True):
            step = self._adjacent_map(current, current - {i})
            assign = {c: step[assign[c]] for c in assign}
            current = current - {i}
        return assign

    # -- queries ---------------------------------------------------------------

    def components(self, index) -> tuple:
        index = frozenset(index)
        if index not in self.strata:
            raise InputError(f"stratum index {sorted(index)} out of range")
        return self.strata[index]

    def component_map(self, src, dst) -> dict:
        """Composed component map from stratum src down to dst (dst subset of src)."""
        src, dst = frozenset(src), frozenset(dst)
        if not dst <= src:
            raise InputError("component_map requires dst to be a subset of src")
        if not self.strata[src]:
            raise InputError(f"stratum {sorted(src)} is empty")
        return self._compose_chain(src, dst)

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
        if not self.strata[self.support(v)]:
            return False
        total = sum((1 - self.a[i]) * v[i] for i in range(self.k))
        return total == 0

    def weight(self, v) -> Fraction:
        v = self.check_vector(v)
        return sum((self.kappa[i] * v[i] for i in range(self.k)), Fraction(0))

    # -- dual complexes ----------------------------------------------------------

    def dual_complex(self) -> SimplicialComplex:
        """Simplicial dual intersection complex: a face per nonempty stratum.

        Rejects configurations with disconnected strata; those have a more
        general cell structure that this library does not model.
        """
        for index in sorted(self.strata, key=lambda s: (len(s), sorted(s))):
            if len(self.strata[index]) > 1:
                raise UnsupportedStructureError(
                    f"stratum {sorted(index)} has {len(self.strata[index])} components; "
                    "the dual complex is only simplicial when all strata are connected")
        return SimplicialComplex(index for index, comps in self.strata.items() if comps)

    def delta_zero_subcomplex(self) -> SimplicialComplex:
        """Faces of the dual complex all of whose vertices have a_i = 1."""
        if not self.log_nef:
            raise InputError("the order-one subcomplex is defined for log nef configurations")
        cx = self.dual_complex()
        order_one = [i for i in range(1, self.k + 1) if self.a[i - 1] == 1]
        return cx.induced(order_one)

    # -- JSON ---------------------------------------------------------------------

    def to_json(self) -> dict:
        strata = [
            {"I": sorted(index), "components": list(comps)}
            for index, comps in sorted(self.strata.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            if comps
        ]
        maps = []
        for index, comps in sorted(self.strata.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            if not comps:
                continue
            for i in sorted(index):
                dst = index - {i}
                assign = self._adjacent_map(index, dst)
                maps.append({
                    "from": sorted(index),
                    "to": sorted(dst),
                    "assign": {str(c): assign[c] for c in sorted(assign)},
                })
        return {
            "k": self.k,
            "kappa": [format_rational(x) for x in self.kappa],
            "a": [format_rational(x) for x in self.a],
            "strata": strata,
            "maps": maps,
            "logNef": self.log_nef,
        }


def configuration_from_json(data) -> DivisorConfiguration:
    """Read a configuration from the documented JSON schema.

    Omitted strata are empty; omitted maps are derived where the target
    stratum is connected.
    """
    validate(data, CONFIGURATION_SCHEMA)
    require_distinct([frozenset(entry["I"]) for entry in data.get("strata", [])],
                     "configuration JSON", "strata", "I")
    require_distinct([(frozenset(entry["from"]), frozenset(entry["to"]))
                      for entry in data.get("maps", [])],
                     "configuration JSON", "maps", "from and to")
    strata = {frozenset(entry["I"]): tuple(entry["components"]) for entry in data.get("strata", [])}
    strata.setdefault(frozenset(), (0,))
    maps = {}
    for idx, entry in enumerate(data.get("maps", [])):
        try:
            assign = {int(key): value for key, value in entry["assign"].items()}
        except ValueError:
            raise InputError(f"configuration JSON maps[{idx}].assign has a non-integer key") from None
        maps[(frozenset(entry["from"]), frozenset(entry["to"]))] = assign
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
