"""Abstract simplicial complexes: facets, minimal nonfaces, link, core.

A complex is stored as the full downward-closed family of faces (frozensets
of integer vertex labels).  The empty face is present in every nonempty
complex; the void complex (no faces at all) is representable and is distinct
from the complex whose only face is the empty set.
"""

from itertools import combinations

from .errors import COUNT_LIMIT, InputError
from .schema import require_distinct, validate


class SimplicialComplex:
    """Downward-closed family of faces over integer vertex labels."""

    __slots__ = ("faces", "_vertices")

    def __init__(self, faces):
        face_set = frozenset(frozenset(f) for f in faces)
        if face_set and frozenset() not in face_set:
            face_set = face_set | {frozenset()}
        self.faces = face_set
        self._vertices = tuple(sorted({v for f in face_set for v in f}))

    @classmethod
    def from_facets(cls, facets):
        """Build the complex generated by the given facets (downward closure)."""
        faces = set()
        for facet in facets:
            facet = frozenset(facet)
            for size in range(len(facet) + 1):
                for sub in combinations(sorted(facet), size):
                    faces.add(frozenset(sub))
        return cls(faces)

    @classmethod
    def void(cls):
        return cls([])

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def is_void(self) -> bool:
        return not self.faces

    def dim(self) -> int:
        """Maximum face dimension; -1 for {emptyset}, raises on the void complex."""
        if self.is_void:
            raise InputError("dimension of the void complex is undefined")
        return max(len(f) for f in self.faces) - 1

    def facets(self) -> list:
        """Faces that no single vertex extends to a face, sorted for deterministic output."""
        faces = self.faces
        maximal = [f for f in faces
                   if not any(v not in f and f | {v} in faces for v in self._vertices)]
        return sorted(maximal, key=lambda f: (len(f), sorted(f)))

    def minimal_nonfaces(self) -> list:
        """Non-faces f + {v} (f a face) whose every one-smaller subset is a face."""
        faces = self.faces
        found = {f | {v} for f in faces for v in self._vertices
                 if v not in f and f | {v} not in faces
                 and all((f - {u}) | {v} in faces for u in f)}
        return sorted(found, key=lambda f: (len(f), sorted(f)))

    def faces_of_dim(self, d: int) -> list:
        return sorted((f for f in self.faces if len(f) == d + 1),
                      key=lambda f: sorted(f))

    def link(self, face) -> "SimplicialComplex":
        """link(F) = { G - F : G a face containing F }."""
        face = frozenset(face)
        if face not in self.faces:
            raise InputError(f"link: {sorted(face)} is not a face")
        return SimplicialComplex(g - face for g in self.faces if face <= g)

    def induced(self, vertex_subset) -> "SimplicialComplex":
        keep = frozenset(vertex_subset)
        if self.is_void:
            return SimplicialComplex.void()
        return SimplicialComplex(f for f in self.faces if f <= keep)

    def core(self) -> "SimplicialComplex":
        """Induced subcomplex on the vertices whose star is a proper subcomplex,
        that is, on the vertices missing some facet (the others are cone points)."""
        if self.is_void:
            return SimplicialComplex.void()
        cone_points = frozenset.intersection(*self.facets())
        return self.induced(v for v in self._vertices if v not in cone_points)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.faces == other.faces

    def __hash__(self):
        return hash(self.faces)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex(facets={[sorted(f) for f in self.facets()]})"

    def to_json(self) -> dict:
        return {"facets": [sorted(f) for f in self.facets()]}


COMPLEX_SCHEMA = {
    "title": "complex JSON",
    "type": "object",
    "required": ["facets"],
    "properties": {
        "facets": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
    },
}


def complex_from_json(data) -> SimplicialComplex:
    """Read a complex from {"facets": [[...], ...]}.

    A facet of n vertices has 2^n faces; when the facets' counts add up to
    more than logcy.errors.COUNT_LIMIT, it raises InputError before building any.
    """
    validate(data, COMPLEX_SCHEMA)
    facets = data["facets"]
    for idx, facet in enumerate(facets):
        if len(frozenset(facet)) != len(facet):  # only then is the error path written
            require_distinct(facet, "complex JSON", f"facets[{idx}]", "vertex")
    if sum(1 << len(facet) for facet in facets) > COUNT_LIMIT:
        raise InputError(f"complex JSON facets are too large: a facet of n vertices has "
                         f"2^n faces, and more than {COUNT_LIMIT} in all are refused")
    return SimplicialComplex.from_facets(facets)
