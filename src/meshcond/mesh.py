"""Simplicial meshes: representation, geometry, generators, statistics and I/O.

The generators mesh the unit interval, square or cube; a mesh built by hand
or read from a file may cover any domain its elements tile.  Meshes are
immutable after construction.  Elements are stored with positive signed
volume; all vertex coordinates are plain float64.
"""

from __future__ import annotations

import io
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "SimplicialMesh",
    "MeshStatistics",
    "MeshFormatError",
    "DegenerateElementError",
    "generate_uniform_mesh",
    "generate_chebyshev_mesh",
    "generate_skew_mesh_2d",
    "generate_skew_mesh_3d",
    "mesh_statistics",
    "write_mesh",
    "read_mesh",
]

# smallest subdivision count each generator family accepts
_MIN_SUBDIVISIONS = {"uniform": 2, "chebyshev": 3, "skew": 4}


def check_generator_args(family, n, aspect=1.0):
    """Raise ValueError unless the ``family`` generator accepts ``n`` and ``aspect``.

    ``family`` is ``uniform``, ``chebyshev`` or ``skew``; ``n`` must be at
    least 2, 3 or 4 respectively, and ``aspect`` finite and at least 1.  A
    skew mesh's squeezed layer must also be thicker than floating-point
    resolution.
    """
    least = _MIN_SUBDIVISIONS[family]
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
    if not 1.0 <= aspect < math.inf:
        raise ValueError(f"aspect must be finite and at least 1, got {aspect}")
    if family == "skew":
        _moved_layer(n, aspect)


def _moved_layer(n, aspect):
    """Index j0 of the grid line a skew mesh moves down, and its new height."""
    j0 = (n + 1) // 2
    new_pos = (j0 - 1 + 1.0 / aspect) / n  # in ((j0 - 1)/n, j0/n] unless it rounds down
    if new_pos <= (j0 - 1) / n:
        raise ValueError(f"aspect {aspect:g} squeezes the grid layer of the n = {n} "
                         "mesh below floating-point resolution")
    return j0, new_pos


def _ascii_number(cast):
    """``cast`` (``int`` or ``float``) of ASCII text without ``_`` only, as ``np.loadtxt``
    reads numbers; Python's own also read ``1_0`` and ``\u0664``.  Config and
    calibration values, field specs and command-line options are read with these."""
    def read(text):
        if not text.isascii() or "_" in text:
            raise ValueError(f"bad {cast.__name__} {text!r}: a number is ASCII, without '_'")
        return cast(text)

    read.__name__ = cast.__name__  # argparse names the type in its error
    return read


ascii_int, ascii_float = _ascii_number(int), _ascii_number(float)


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; carries the offending line."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DegenerateElementError(ValueError):
    """Raised for elements with zero or non-finite volume, or whose geometry
    does not fit in floating point."""


@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    """A conforming simplicial mesh in d = 1, 2 or 3 dimensions.

    Attributes
    ----------
    dim : int
        Spatial dimension d.
    vertices : ndarray, shape (nv, d)
        Vertex coordinates.
    elements : ndarray, shape (ne, d + 1)
        Vertex indices of each simplex, positively oriented.
    boundary : ndarray of bool, shape (nv,)
        Derived, not passed: True for the vertices of the facets that belong
        to exactly one element.  These carry the homogeneous Dirichlet
        condition; every other vertex is an unknown.

    Construction is the one validity check: it sorts each element's
    vertices and reorders them to positive orientation, raises
    DegenerateElementError for the first element with zero or non-finite
    volume, and raises ValueError for an element with a vertex index that
    is not an integer (naming the first one), for a facet shared by more
    than two elements, for a mesh without a boundary facet, for an interior
    facet whose two elements lie on the same side of it (a tangled mesh, such as
    one where a moved vertex turned an element inside out) and for a vertex
    that belongs to no element.  A hanging node (a vertex inside a facet of a
    neighboring element) leaves one-element facets inside the domain, so a
    hand-built mesh with one is analyzed as the slit domain it describes;
    :func:`read_mesh` rejects a file that flags such a node as interior.
    Meshes compare and hash by identity.
    """

    dim: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        vertices = np.ascontiguousarray(self.vertices, dtype=float)
        if vertices.ndim == 1:
            vertices = vertices[:, None]
        elements = np.asarray(self.elements)
        if vertices.shape[1] != self.dim:
            raise ValueError("vertex coordinates do not match dim")
        if elements.ndim != 2 or elements.shape[1] != self.dim + 1:
            raise ValueError("elements must have d + 1 vertices each")
        if elements.dtype.kind not in "iu":  # integer input, as generated or read, skips this
            real = elements.astype(float)
            bad = np.flatnonzero(~(np.isfinite(real) & (real == np.round(real))).all(axis=1))
            if bad.size:
                raise ValueError(f"element {bad[0]} has a vertex index that is not an "
                                 f"integer: {elements[bad[0]].tolist()}")
            # an index too large for int64 is cast to one that is still out of range
            elements = np.clip(real, -1, len(vertices))
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if elements.size and (elements.min() < 0 or elements.max() >= len(vertices)):
            raise ValueError("element vertex index out of range")
        elements, parity = _orient_positive(vertices, elements, self.dim)
        boundary = _boundary_flags(elements, parity, len(vertices))
        used = np.zeros(len(vertices), dtype=bool)
        used[elements.ravel()] = True
        missing = np.flatnonzero(~used)
        if missing.size:
            raise ValueError(f"interior vertex {missing[0]} belongs to no element")
        for arr in (vertices, elements, boundary):
            arr.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary", boundary)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def n_interior(self):
        return int(np.count_nonzero(~self.boundary))

    def interior_map(self):
        """Map vertex index -> interior unknown index, -1 for boundary.

        Raises ValueError for a mesh with no interior vertex, whose matrices
        and patch sums would be empty.
        """
        n = self.n_interior
        if n == 0:
            raise ValueError("mesh has no interior vertex")
        imap = np.full(self.n_vertices, -1, dtype=np.int64)
        imap[~self.boundary] = np.arange(n)
        return imap


@dataclass(frozen=True)
class MeshStatistics:
    n_elements: int
    n_interior: int
    k_min: float
    k_max: float
    k_bar: float
    omega_min: float
    omega_max: float
    p_max: int
    h_ratio: float


@lru_cache(maxsize=None)
def reference_simplex(dim):
    """Vertices of the regular d-simplex with unit volume, shape (d+1, d).

    Built from the Helmert embedding of the standard simplex (edge length
    sqrt(2)) and rescaled so that the volume is exactly one.
    """
    d = dim
    helmert = np.zeros((d, d + 1))
    for k in range(1, d + 1):
        helmert[k - 1, :k] = 1.0
        helmert[k - 1, k] = -float(k)
        helmert[k - 1] /= math.sqrt(k * (k + 1))
    verts = helmert.T.copy()  # (d+1, d), pairwise distance sqrt(2)
    det = np.linalg.det(verts[1:] - verts[0])
    if det < 0.0:  # keep the reference positively oriented
        verts[[d - 1, d]] = verts[[d, d - 1]]
    vol = abs(det) / math.factorial(d)
    verts *= (1.0 / vol) ** (1.0 / d)
    verts.flags.writeable = False
    return verts


@lru_cache(maxsize=None)
def reference_gradients(dim):
    """Gradients of the linear basis functions on the reference simplex.

    Returns an array of shape (d+1, d); row i is the gradient of the basis
    function attached to reference vertex i.
    """
    verts = reference_simplex(dim)
    edges = verts[1:] - verts[0]  # rows
    ginv = np.linalg.inv(edges.T)  # rows are gradients of vertices 1..d
    grads = np.empty((dim + 1, dim))
    grads[1:] = ginv
    grads[0] = -ginv.sum(axis=0)
    grads.flags.writeable = False
    return grads


@lru_cache(maxsize=None)
def reference_gradient_bound(dim):
    """Largest squared gradient norm over the reference basis functions."""
    grads = reference_gradients(dim)
    return float(np.max(np.sum(grads * grads, axis=1)))


def _signed_volumes(vertices, elements, dim):
    pts = vertices[elements]  # (ne, d+1, d)
    edges = pts[:, 1:, :] - pts[:, :1, :]
    with np.errstate(all="ignore"):  # a volume that is not finite is named by the caller
        return np.linalg.det(edges) / math.factorial(dim)


def element_volumes(mesh):
    """Volumes of all elements, shape (ne,); positive by construction."""
    return _signed_volumes(mesh.vertices, mesh.elements, mesh.dim)


def element_edge_matrices(mesh):
    """Edge matrices of all elements, shape (ne, d, d); row i is p_i - p_0."""
    pts = mesh.vertices[mesh.elements]
    return pts[:, 1:, :] - pts[:, :1, :]


def element_diameters(mesh):
    """Longest-edge lengths of all elements, shape (ne,)."""
    pts = mesh.vertices[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, k=1)
    return np.linalg.norm(pts[:, i] - pts[:, j], axis=2).max(axis=1)


def _orient_positive(vertices, elements, dim):
    """Return elements reordered so every signed volume is positive.

    Each element is stored sorted, with its last two vertices swapped where
    the sorted order has negative volume; the second return value flags
    those odd-parity elements.  Raises DegenerateElementError naming the
    first element whose volume is zero or not finite.
    """
    elements = np.sort(elements, axis=1)
    vols = _signed_volumes(vertices, elements, dim)
    bad = ~np.isfinite(vols) | (vols == 0.0)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise DegenerateElementError(f"element {k} is degenerate (volume {vols[k]})")
    flip = vols < 0.0
    if np.any(flip):
        elements[flip, -2], elements[flip, -1] = (
            elements[flip, -1].copy(),
            elements[flip, -2].copy(),
        )
    return elements, flip


def _boundary_flags(elements, parity, n_vertices):
    """Flags of the vertices of the facets that belong to exactly one element.

    Builds the facet table once: every element minus one vertex, sorted and
    packed with the orientation the element induces on it into one int64
    key; sorting the keys groups equal facets into runs, the two
    orientations of one facet next to each other.  Raises ValueError naming
    the first facet shared by more than two elements, for a mesh whose
    facets are all shared (its elements overlap), and naming the first
    facet whose two elements induce the same orientation on it (they lie
    on the same side of it, so the mesh is tangled).  ``elements`` and
    ``parity`` are as returned by :func:`_orient_positive`.
    """
    nloc = elements.shape[1]
    shape = (n_vertices,) * (nloc - 1)
    key_max = np.iinfo(np.int64).max
    if n_vertices ** (nloc - 1) * 2 > key_max:
        limit = round((key_max / 2) ** (1 / (nloc - 1)))
        while limit ** (nloc - 1) * 2 > key_max:
            limit -= 1
        raise ValueError(
            f"a {nloc - 1}D mesh can have at most {limit} vertices, got {n_vertices}")
    slots = list(itertools.combinations(range(nloc), nloc - 1))
    # rows k * nloc to k * nloc + d are the d + 1 facets of element k; slot
    # j omits sorted vertex i = d - j, and a positively oriented element
    # induces the orientation (-1)^(i + parity) on that facet
    omitted_odd = np.arange(nloc - 1, -1, -1) % 2 == 1
    sides = np.repeat(parity, nloc) ^ np.tile(omitted_odd, len(elements))
    facets = np.sort(elements, axis=1)[:, slots].reshape(-1, nloc - 1)
    keys = np.ravel_multi_index((*facets.T, sides), shape + (2,))
    grouped = np.sort(keys)
    ids = grouped >> 1
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    counts = np.diff(np.r_[start, len(grouped)])

    def describe(first):
        facet = ", ".join(str(int(v)) for v in np.unravel_index(ids[first], shape))
        owners = ", ".join(str(r // nloc) for r in np.flatnonzero(keys >> 1 == ids[first]))
        return facet, owners

    crowded = start[counts > 2]
    if crowded.size:
        facet, owners = describe(crowded[0])
        raise ValueError(f"facet ({facet}) is shared by more than two elements: {owners}")
    boundary = np.zeros(n_vertices, dtype=bool)
    for column in np.unravel_index(ids[start[counts == 1]], shape):
        boundary[column] = True
    if keys.size and not boundary.any():
        raise ValueError("mesh has no boundary facet: its elements overlap")
    # with no run longer than two left, equal neighboring keys are a facet
    # that both of its elements see with the same orientation
    tangled = np.flatnonzero(grouped[1:] == grouped[:-1])
    if tangled.size:
        facet, owners = describe(tangled[0])
        raise ValueError(
            f"facet ({facet}) has elements {owners} on the same side: the mesh is tangled")
    return boundary


def generate_uniform_mesh(dim, n):
    """Uniform mesh of the unit interval, square or cube.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Subdivisions per axis, at least 2.

    Returns
    -------
    SimplicialMesh
        d = 1: ``n`` intervals; d = 2: two triangles per grid cell (all
        diagonals parallel); d = 3: six tetrahedra per cell (Kuhn split).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    check_generator_args("uniform", n)
    coords, elems = _uniform_grid(dim, n)
    return SimplicialMesh(dim=dim, vertices=coords, elements=elems)


def _uniform_grid(dim, n):
    """Vertex coordinates and Kuhn-split elements of the grid."""
    # grid points and cell origins, first axis varying fastest
    grid = np.indices((n + 1,) * dim).reshape(dim, -1)[::-1].T
    cells = np.indices((n,) * dim).reshape(dim, -1)[::-1].T
    coords = grid / n
    strides = (n + 1) ** np.arange(dim)
    # Kuhn split: one simplex per permutation of the axis order, walking
    # from the cell origin to the opposite corner one axis step at a time
    offsets = np.array([
        np.concatenate(([0], np.cumsum(strides[list(perm)])))
        for perm in itertools.permutations(range(dim))
    ])
    elems = ((cells @ strides)[:, None, None] + offsets).reshape(-1, dim + 1)
    return coords, elems


def generate_chebyshev_mesh(n):
    """1D mesh of [0, 1] with interior vertices at Chebyshev nodes.

    The interior nodes are x_i = (1 - cos((2i - 1) pi / (2(N - 1)))) / 2 for
    i = 1..N-1; the boundary vertices 0 and 1 are added so the mesh has
    exactly ``n`` elements.
    """
    check_generator_args("chebyshev", n)
    i = np.arange(1, n)
    interior = 0.5 * (1.0 - np.cos((2 * i - 1) * np.pi / (2 * (n - 1))))
    coords = np.concatenate(([0.0], interior, [1.0]))[:, None]
    elems = np.arange(n, dtype=np.int64)[:, None] + np.arange(2)
    return SimplicialMesh(dim=1, vertices=coords, elements=elems)


def _skew_mesh(dim, n, aspect):
    """Uniform mesh whose grid layer nearest the last axis' mid-plane moves down.

    The layer of cells below the moved plane gets thickness (1/n)/aspect;
    the layer above absorbs the difference.  aspect == 1 leaves the mesh
    bit-for-bit identical to the uniform one.
    """
    check_generator_args("skew", n, aspect)
    j0, new_pos = _moved_layer(n, aspect)
    coords, elems = _uniform_grid(dim, n)
    coords[coords[:, -1] == j0 / n, -1] = new_pos
    return SimplicialMesh(dim=dim, vertices=coords, elements=elems)


def generate_skew_mesh_2d(n, aspect):
    """Uniform 2D mesh with one squeezed row of cells of height (1/n)/aspect.

    Yields 2n thin triangles whose longest-edge to inscribed-diameter ratio
    is within a factor of two of ``aspect``; all other elements keep O(1)
    shape.  ``aspect == 1`` reproduces ``generate_uniform_mesh(2, n)``
    vertex for vertex.
    """
    return _skew_mesh(2, n, aspect)


def generate_skew_mesh_3d(n, aspect):
    """Uniform 3D mesh with one squeezed slab of cells of height (1/n)/aspect.

    Yields 6 n^2 thin tetrahedra; ``aspect == 1`` reproduces
    ``generate_uniform_mesh(3, n)`` vertex for vertex.
    """
    return _skew_mesh(3, n, aspect)


def patch_sums(mesh, weights):
    """Sum of the element ``weights`` over each interior vertex patch.

    Returns shape (n_interior,).  Adds local vertex slot by slot and, within a slot, in element-index
    order, so every patch sum is reproducible bit for bit.
    """
    local = mesh.interior_map()[mesh.elements].T  # (d+1, ne), slot-major
    keep = local >= 0
    weights = np.broadcast_to(np.asarray(weights, dtype=float), local.shape)
    return np.bincount(local[keep], weights=weights[keep], minlength=mesh.n_interior)


def mesh_statistics(mesh):
    """Element and patch size statistics used by the conditioning bounds."""
    vols = element_volumes(mesh)
    omega = patch_sums(mesh, vols)
    counts = patch_sums(mesh, np.ones(mesh.n_elements))
    diam = element_diameters(mesh)
    return MeshStatistics(
        n_elements=mesh.n_elements,
        n_interior=mesh.n_interior,
        k_min=float(vols.min()),
        k_max=float(vols.max()),
        k_bar=float(vols.sum()) / mesh.n_elements,
        omega_min=float(omega.min()),
        omega_max=float(omega.max()),
        p_max=int(counts.max()),
        h_ratio=float(diam.max() / diam.min()),
    )


def write_mesh(mesh, path):
    """Write a mesh in the plain-text format read back by :func:`read_mesh`.

    Each block is formatted by one format string, ``%.17g`` for coordinates,
    so every coordinate reads back to the same float.
    """
    d = mesh.dim
    vertex_line = " ".join(["%.17g"] * d) + " %d\n"
    element_line = " ".join(["%d"] * (d + 1)) + "\n"
    vertex_fields = np.column_stack([mesh.vertices, mesh.boundary]).ravel().tolist()
    with open(path, "w") as fh:
        fh.write(f"meshcond v1 dim={d} nv={mesh.n_vertices} ne={mesh.n_elements}\n")
        fh.write((vertex_line * mesh.n_vertices) % tuple(vertex_fields))
        fh.write((element_line * mesh.n_elements) % tuple(mesh.elements.ravel().tolist()))


def read_mesh(path):
    """Read a mesh written by :func:`write_mesh`.

    The :class:`SimplicialMesh` constructor orients and checks the elements
    and derives the boundary; the file's boundary flags must equal it.

    Raises
    ------
    MeshFormatError
        On a malformed header, a vertex or element line that is not dim + 1
        numbers as ``np.loadtxt`` reads them (ASCII digits, no ``_``), a
        non-finite coordinate, a boundary flag other than ``0`` or ``1``, an
        out-of-range vertex index, non-blank text after the declared lines
        or a boundary flag that disagrees with the elements; the error names
        the first bad line and carries its number.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise MeshFormatError("missing header", line=1)
    head = lines[0].split()
    keys = sorted(token.partition("=")[0] for token in head[2:])
    if head[:2] != ["meshcond", "v1"] or keys != ["dim", "ne", "nv"]:
        raise MeshFormatError(f"malformed header {lines[0]!r}", line=1)
    fields = {}
    for token in head[2:]:
        key, _, value = token.partition("=")
        number = _rows([value], np.int64, 1)
        if number is None:
            raise MeshFormatError(f"malformed header field {token!r}", line=1)
        fields[key] = int(number[0, 0])
    dim, nv, ne = fields["dim"], fields["nv"], fields["ne"]
    if dim not in (1, 2, 3) or nv < dim + 1 or ne < 1:
        raise MeshFormatError(f"invalid header values dim={dim} nv={nv} ne={ne}", line=1)
    if len(lines) < 1 + nv + ne:
        raise MeshFormatError(
            f"expected {1 + nv + ne} lines, file has {len(lines)}", line=len(lines)
        )
    for lineno, line in enumerate(lines[1 + nv + ne:], start=2 + nv + ne):
        if line.strip():
            raise MeshFormatError(
                f"text after the {nv} vertex and {ne} element lines: {line!r}",
                line=lineno,
            )

    vertices, flags = _first_bad_line(lines[1:1 + nv], 2, _vertex_rows, _vertex_fault, dim)
    elements = _first_bad_line(lines[1 + nv:1 + nv + ne], 2 + nv, _element_rows,
                               _element_fault, dim, nv)
    mesh = SimplicialMesh(dim=dim, vertices=vertices, elements=elements)
    differ = np.flatnonzero(flags != mesh.boundary)
    if differ.size:
        k = int(differ[0])
        where = "on the boundary" if mesh.boundary[k] else "in the interior"
        raise MeshFormatError(
            f"vertex {k} has boundary flag {int(flags[k])}, but its elements put it {where}",
            line=2 + k,
        )
    return mesh


def _first_bad_line(lines, first_line, read, fault, *args):
    """``read(lines, *args)``, or MeshFormatError naming the first line it rejects.

    ``read`` rejects a block where it rejects one of its lines alone, so
    halving the range that holds the first rejected line finds it in about
    2n line parses, the whole block's included.
    """
    result = read(lines, *args)
    if result is None:
        lo, hi = 0, len(lines)  # lines[:lo] are read; the first rejected is in [lo, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if read(lines[lo:mid], *args) is None else (mid, hi)
        raise MeshFormatError(fault(lines[lo].split(), *args), line=first_line + lo)
    return result


def _rows(lines, dtype, width, **kwargs):
    """``lines`` as a table of ``width`` numbers each, or None if ``loadtxt`` rejects one."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns when it skips a blank line; a blank line is an error here
            warnings.simplefilter("error")
            # one text, not a list of lines: the list form leaves glibc's heap
            # so that the LU factorizations that follow peak 5 MB higher on a
            # 48k-tet mesh (the gap vanishes with a fixed mmap threshold)
            table = np.loadtxt(io.StringIO("\n".join(lines)), dtype=dtype,
                               comments=None, ndmin=2, **kwargs)
    except (ValueError, OverflowError, Warning):
        return None
    return table if table.shape == (len(lines), width) else None


def _vertex_rows(lines, dim):
    """Coordinates and boundary flags, or None unless every line holds dim
    finite coordinates and a flag spelled ``0`` or ``1``."""
    table = _rows(lines, float, dim + 1)
    if table is None or not np.isfinite(table[:, :dim]).all():
        return None
    flags = _rows(lines, str, 1, usecols=(dim,))[:, 0]
    if not np.isin(flags, ("0", "1")).all():
        return None
    return np.ascontiguousarray(table[:, :dim]), flags == "1"


def _element_rows(lines, dim, nv):
    """Vertex indices, or None unless every line holds dim + 1 indices below ``nv``."""
    table = _rows(lines, np.int64, dim + 1)
    return table if table is not None and 0 <= table.min() and table.max() < nv else None


def _vertex_fault(parts, dim):
    if len(parts) != dim + 1:
        return f"expected {dim + 1} fields on vertex line, got {len(parts)}"
    coords = _rows([" ".join(parts[:dim])], float, dim)
    if coords is None:
        return f"bad coordinate in {parts[:dim]}"
    if not np.isfinite(coords).all():
        return f"non-finite coordinate {coords[0].tolist()}"
    return f"boundary flag must be 0 or 1, got {parts[dim]!r}"


def _element_fault(parts, dim, nv):
    if len(parts) != dim + 1:
        return f"expected {dim + 1} vertex indices, got {len(parts)}"
    indices = _rows([" ".join(parts)], np.int64, dim + 1)
    if indices is None:
        return f"bad vertex index in {parts}"
    return f"vertex index {indices[(indices < 0) | (indices >= nv)][0]} out of range"
