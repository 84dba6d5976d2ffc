"""Abstract simplicial complexes: facets, minimal nonfaces, link, star, core.

A complex is stored as the full downward-closed family of faces (frozensets
of integer vertex labels).  The empty face is present in every nonempty
complex; the void complex (no faces at all) is representable and is distinct
from the complex whose only face is the empty set.
"""

from itertools import combinations

from .errors import InputError
from .schema import validate


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

    @classmethod
    def empty_face_only(cls):
        return cls([frozenset()])

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

    def has_face(self, face) -> bool:
        return frozenset(face) in self.faces

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

    def euler_characteristic(self) -> int:
        """Alternating count of nonempty faces."""
        return sum((-1) ** (len(f) - 1) for f in self.faces if f)

    def link(self, face) -> "SimplicialComplex":
        """link(F) = { G - F : G a face containing F }."""
        face = frozenset(face)
        if face not in self.faces:
            raise InputError(f"link: {sorted(face)} is not a face")
        return SimplicialComplex(g - face for g in self.faces if face <= g)

    def star(self, face) -> "SimplicialComplex":
        """Subcomplex generated by all faces containing the given face."""
        face = frozenset(face)
        if face not in self.faces:
            raise InputError(f"star: {sorted(face)} is not a face")
        top = [g for g in self.faces if face <= g]
        return SimplicialComplex.from_facets(top)

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
    """Read a complex from {"facets": [[...], ...]}."""
    validate(data, COMPLEX_SCHEMA)
    return SimplicialComplex.from_facets(data["facets"])


def sphere_boundary(d: int) -> SimplicialComplex:
    """Boundary of the simplex on d+2 vertices: a triangulated d-sphere."""
    if d < -1:
        raise InputError("sphere dimension must be >= -1")
    n = d + 2
    verts = range(1, n + 1)
    return SimplicialComplex.from_facets(combinations(verts, n - 1) if n > 1 else [[]])


def full_simplex(n_vertices: int) -> SimplicialComplex:
    if n_vertices < 0:
        raise InputError("vertex count must be nonnegative")
    if n_vertices == 0:
        return SimplicialComplex.empty_face_only()
    return SimplicialComplex.from_facets([range(1, n_vertices + 1)])


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope: a triangulated (n-1)-sphere.

    Vertices are 1..2n with antipodal pairs (2i-1, 2i); faces are the subsets
    avoiding every antipodal pair.  n = 3 is the octahedron.
    """
    if n < 1:
        raise InputError("cross polytope dimension must be >= 1")
    pairs = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
    import itertools
    facets = [frozenset(choice) for choice in itertools.product(*pairs)]
    return SimplicialComplex.from_facets(facets)
