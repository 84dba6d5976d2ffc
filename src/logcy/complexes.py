"""Abstract simplicial complexes: facets, minimal nonfaces, link, core.

A complex is its sorted vertices and its downward-closed family of faces as
int bitmasks, bit i being the i-th vertex; every vertex is in some face.
`SimplicialComplex(vertices, masks)` trusts both, so it is for masks built
from another complex's; `from_facets` is the one builder from labels.  A link
or induced subcomplex drops the vertices it no longer uses and moves the kept
bits down in order.  So two complexes that differ by an order-preserving
renaming of their vertices have equal masks.  The empty face is present in
every nonempty complex; the void complex (no faces at all) is distinct from
the complex whose only face is the empty set.
"""

from functools import reduce
from operator import and_, or_

from .errors import COUNT_LIMIT, InputError
from .schema import require_distinct, validate


def _compress(masks, keep) -> frozenset:
    """The masks, each a subset of `keep`, with the bits outside `keep` removed
    and the kept bits moved down in order: the bits above each gap of dropped
    bits shift down as a whole by its width, the highest gap first."""
    gaps = ~keep & ((1 << keep.bit_length()) - 1)  # the dropped bits below the top kept one
    while gaps:
        end = gaps.bit_length()  # the highest gap is bits start..end-1
        start = (~gaps & ((1 << end) - 1)).bit_length()
        low = (1 << start) - 1
        masks = [(g & low) | (g >> end << start) for g in masks]
        gaps &= low
    return frozenset(masks)


class SimplicialComplex:
    """Downward-closed family of faces over sortable vertex labels, kept as bitmasks."""

    __slots__ = ("vertices", "masks", "_faces")

    def __init__(self, vertices: tuple, masks: frozenset):
        """The complex of the downward-closed `masks`, bit i being vertices[i]; the
        OR of the masks is 2^len(vertices) - 1."""
        self.vertices, self.masks, self._faces = vertices, masks, None

    @classmethod
    def from_facets(cls, facets):
        """Build the complex generated by the given facets (downward closure).
        The largest are closed first, so that a given face inside one of them
        is skipped: a downward-closed family costs one step per face."""
        facets = list(map(frozenset, facets))
        vertices = tuple(sorted(frozenset().union(*facets)))
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        masks = {0} if facets else set()
        tops = {sum(map(bit.__getitem__, facet)) for facet in facets}
        for top in sorted(tops, key=int.bit_count, reverse=True):
            sub = 0 if top in masks else top  # a face already in brought its faces
            while sub:
                masks.add(sub)
                sub = (sub - 1) & top
        return cls(vertices, frozenset(masks))

    @property
    def faces(self) -> frozenset:
        """The faces as frozensets of labels, derived from the masks on first use."""
        if self._faces is None:
            self._faces = frozenset(frozenset(self._face(g)) for g in self.masks)
        return self._faces

    @property
    def is_void(self) -> bool:
        return not self.masks

    def _face(self, mask) -> tuple:
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def _mask(self, labels) -> int:
        """The mask of the vertices that are in the set `labels`."""
        return sum(1 << i for i, v in enumerate(self.vertices) if v in labels)

    def label_faces(self, masks) -> list:
        """Label frozensets of the given masks, by size and then by sorted labels."""
        return list(map(frozenset, sorted(map(self._face, masks), key=lambda f: (len(f), f))))

    def dim(self) -> int:
        """Maximum face dimension; -1 for {emptyset}, raises on the void complex."""
        if self.is_void:
            raise InputError("dimension of the void complex is undefined")
        return max(map(int.bit_count, self.masks)) - 1

    def _maximal(self) -> list:
        masks, bits = self.masks, [1 << i for i in range(len(self.vertices))]
        return [f for f in masks if not any(f | b in masks for b in bits if not f & b)]

    def facets(self) -> list:
        """Faces that no single vertex extends to a face, sorted for deterministic output."""
        return self.label_faces(self._maximal())

    def minimal_nonfaces(self) -> list:
        """Non-faces f + {v} (f a face) whose every one-smaller subset is a face."""
        masks, bits = self.masks, [1 << i for i in range(len(self.vertices))]
        return self.label_faces({f | v for f in masks for v in bits
                                 if not f & v and f | v not in masks
                                 and all((f | v) ^ u in masks for u in bits if f & u)})

    def faces_of_dim(self, d: int) -> list:
        return self.label_faces(g for g in self.masks if g.bit_count() == d + 1)

    def link(self, face) -> "SimplicialComplex":
        """link(F) = { G - F : G a face containing F }, on its own vertices, so a
        link numbers its bits afresh."""
        face, masks = frozenset(face), self.masks
        sigma = self._mask(face)
        if sigma not in masks or sigma.bit_count() != len(face):
            raise InputError(f"link: {sorted(face)} is not a face")
        link = [g ^ sigma for g in masks if g & sigma == sigma]
        keep = reduce(or_, link)
        return SimplicialComplex(self._face(keep), _compress(link, keep))

    def induced(self, vertex_subset) -> "SimplicialComplex":
        """The faces inside the given vertices, on the vertices kept."""
        keep = self._mask(frozenset(vertex_subset))
        kept = _compress([g for g in self.masks if g & keep == g], keep)
        return SimplicialComplex(self._face(keep), kept)

    def cone_mask(self) -> int:
        """The AND of the facet masks: the cone points, whose star is the whole complex."""
        return reduce(and_, self._maximal(), -1)

    def core(self) -> "SimplicialComplex":
        """Induced subcomplex on the vertices whose star is a proper subcomplex,
        that is, on the vertices missing some facet (the others are cone points)."""
        return self.induced(self._face(~self.cone_mask()))

    def __eq__(self, other):
        # vertices and masks determine the faces
        return (isinstance(other, SimplicialComplex) and self.vertices == other.vertices
                and self.masks == other.masks)

    def __hash__(self):
        return hash(self.masks)

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
