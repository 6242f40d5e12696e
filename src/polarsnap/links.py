"""Inter-satellite link edge sets.

Every link a topology can use belongs to its constellation's edge universe
(``_wiring``), built once per shape as integer arrays: the N*M ring links
inside the planes, per phase class c the zigzag chain of N-1 links pairing
it with class c+1, and per phase class its N/2-1 horizontal links, two
planes apart. No link crosses the counter-rotating seam between the first
and last planes. The generators draw edge sets from it as sorted ids:

* ``fixed_topology``: the static baseline. Classes 2k and 2k+1 are paired
  once and for all; a couple's chain is active only while both rows are
  outside the polar caps.
* ``reassign_topology``: the event-driven assignment. At each polar-cap
  crossing each half-orbit's non-polar band of classes (``build_ls_state``)
  is re-paired from the most recently exited one: chains take every other
  class, and a leftover unpaired class gets its horizontal links.

An edge set is its links and nothing else: a ``TopologyEdgeSet`` is a
shape and three read-only arrays (kind code, endpoint a, endpoint b),
whether drawn from the universe, read from a topology export or built
from ``IslEdge`` objects (``TopologyEdgeSet.from_edges``). A kind code
indexes the fixed vocabulary ``KINDS``; no other kind can be built, and the
constructor stores every set's arrays at one width (``int8`` kinds,
``int16`` endpoints and universe ids), so equal sets hold equal arrays.
The universe hands out one set per distinct id array, and what depends on
the links alone is computed once per set (``TopologyEdgeSet.derived``). The link rules take the polar border as a
number and read the link limits from the ``ConstellationSpec``. The
validator, the export and the router read a set's arrays once its shape
is checked (``TopologyEdgeSet.check_shape``); ``IslEdge`` objects exist only
at the API edge.
"""
import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ConstellationSpec,
    LsState,
    SatId,
    all_positions_km,
    check_polar_border,
    horizontal_survival_latitude_deg,
    in_polar_band,
    is_uniform_row_distribution,
    max_link_angle_deg,
    orbit_period,
    row_phase_deg,
    satellite_ids,
)

INTRA_PLANE = "intra_plane"
OBLIQUE = "oblique"
HORIZONTAL = "horizontal"
# The link kinds: an edge's kind code indexes this tuple. It is sorted, so
# canonical order, by kind name and then by endpoints, is (kind, a, b) order.
KINDS = (HORIZONTAL, INTRA_PLANE, OBLIQUE)

# The stored widths of a set's arrays: a link is 7 bytes. MAX_SATELLITES
# (2,000) keeps every endpoint, and every universe id (fewer than 4NM), in
# int16; a product of them, such as a canonical (kind, a, b) key, is computed
# in int64.
KIND_DTYPE, INDEX_DTYPE = np.dtype(np.int8), np.dtype(np.int16)

TRIGGER_ENTER = "enter"
TRIGGER_EXIT = "exit"


def _narrow(values, dtype) -> np.ndarray:
    """The values as an array of ``dtype``, converted only when they are not one.

    Raises:
        ValueError: If a value is not an integer that ``dtype`` holds.
    """
    values = np.asarray(values)
    if values.dtype == dtype:
        return values
    narrow = values.astype(dtype)
    if values.size and (values.dtype.kind not in "iu" or not (narrow == values).all()):
        info = np.iinfo(dtype)
        raise ValueError(f"link array of {values.dtype} does not fit in {dtype}: "
                         f"values must be integers in [{info.min}, {info.max}]")
    return narrow


@dataclass(frozen=True)
class IslEdge:
    """Undirected link; edge sets sort its endpoints, whichever way round."""
    endpoint_a: SatId
    endpoint_b: SatId
    kind: str


_KIND_CODES = {name: code for code, name in enumerate(KINDS)}


def edge_columns(shape: tuple[int, int], names: list[str],
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge's kind code and its endpoints' ``sat_to_index`` indices,
    as ``int64`` columns in the given order, from its kind name and its row
    of an (E, 4) integer array (plane a, index a, plane b, index b), 1-based
    as in ``SatId``.

    Raises:
        ValueError: If a kind is not in ``KINDS`` or an endpoint lies
            outside the constellation.
    """
    if unknown := set(names) - set(KINDS):
        raise ValueError(f"unknown link kind {min(unknown)!r}, expected one of {KINDS}")
    n_planes, m = shape
    planes, slots = rows[:, 0::2], rows[:, 1::2]
    if ((planes < 1) | (planes > n_planes) | (slots < 1) | (slots > m)).any():
        raise ValueError(f"edge endpoint outside the {n_planes}x{m} constellation")
    code = np.fromiter(map(_KIND_CODES.__getitem__, names), np.int64, len(names))
    ends = (planes.astype(np.int64) - 1) * m + slots - 1
    return code, ends[:, 0], ends[:, 1]


def canonical_arrays(shape: tuple[int, int], names: list[str],
                     rows: np.ndarray) -> "TopologyEdgeSet":
    """The edge set of the edges ``edge_columns`` reads: each row's
    endpoints sorted, duplicates dropped; raises as ``edge_columns``."""
    code, a, b = edge_columns(shape, names, rows)
    n = shape[0] * shape[1]
    key = np.sort((code * n + np.minimum(a, b)) * n + np.maximum(a, b))
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique would load numpy.ma, 1 MB
    return TopologyEdgeSet(shape, key // (n * n), key // n % n, key % n)


@dataclass(frozen=True)
class _Wiring:
    """A shape's edge universe: edge id i is edge i of ``edges`` (canonical order)."""
    edges: "TopologyEdgeSet"
    rings: np.ndarray  # ids of the ring edges
    chains: np.ndarray  # (2M, N-1) ids, by lower phase class
    horizontals: np.ndarray  # (2M, N/2-1) ids, by phase class
    classes: np.ndarray  # (2M, N-1 + N/2-1): chains beside horizontals, by phase class
    drawn: dict = field(default_factory=weakref.WeakValueDictionary)  # live sets, by ids
    shifts: dict = field(default_factory=dict)  # rotation permutations, by k mod 2M

    def select(self, chains, horizontals) -> np.ndarray:
        """Sorted ids of the rings and the given classes' chains and horizontals."""
        return np.sort(np.concatenate([self.rings, self.chains[list(chains)].ravel(),
                                       self.horizontals[list(horizontals)].ravel()]))

    def rotated(self, ids: np.ndarray, k: int) -> np.ndarray:
        """The ids with each phase class c's chain and horizontal edges
        replaced by those of class c - k, sorted: one gather through the
        permutation of k mod 2M, built on the first rotation by it and kept
        (E ids per distinct k asked for)."""
        rows = len(self.classes)
        if (perm := self.shifts.get(k % rows)) is None:
            perm = self.shifts[k % rows] = np.arange(len(self.edges.a), dtype=INDEX_DTYPE)
            perm[self.classes] = self.classes.take(np.arange(-k, rows - k), axis=0, mode="wrap")
        moved = perm.take(ids)
        moved.sort()
        return moved

    def draw(self, ids: np.ndarray) -> "TopologyEdgeSet":
        """The edge set of the given sorted ids: one object per ids while it lives.

        Raises:
            ValueError: If an id does not fit in ``INDEX_DTYPE``.
        """
        ids = _narrow(ids, INDEX_DTYPE)
        if (topo := self.drawn.get(key := ids.tobytes())) is None:
            e = self.edges
            topo = self.drawn[key] = TopologyEdgeSet(e.shape, e.kind[ids], e.a[ids], e.b[ids], ids)
        return topo


@functools.lru_cache(maxsize=8)
def _wiring(shape: tuple[int, int]) -> _Wiring:
    """The edge universe of an N x M constellation, built once per shape.

    Phase class c has a member in every plane q (0-based) of its parity, at
    slot ((c - q) // 2) mod M. The chain of lower class c alternates between
    classes c and c+1 so that it takes one satellite from every plane; the
    horizontal edges of class c join its members in planes q and q+2.
    """
    n, m = shape
    r = 2 * m

    def member(c, q):
        return q * m + ((c - q) // 2) % m

    sat = np.arange(n * m)
    ring = (sat, sat - sat % m + (sat + 1) % m)
    c = np.arange(r)[:, None]
    q = np.arange(n - 1)[None, :]
    here = np.where(q % 2 == c % 2, c, (c + 1) % r)
    chain = (member(here, q), member(np.where(here == c, (c + 1) % r, c), q + 1))
    q = c % 2 + 2 * np.arange(n // 2 - 1)[None, :]
    horizontal = (member(c, q), member(c, q + 2))

    blocks = [(1, ring), (2, chain), (0, horizontal)]  # codes into KINDS
    kind = np.concatenate([np.full(ends[0].size, code) for code, ends in blocks])
    a, b = (np.concatenate([ends[i].ravel() for _, ends in blocks]) for i in (0, 1))
    a, b = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort((kind * n * m + a) * n * m + b)
    ids = np.empty_like(order)
    ids[order] = np.arange(len(order))
    ids = _narrow(ids, INDEX_DTYPE)
    edges = TopologyEdgeSet(shape, kind[order], a[order], b[order])
    rings, chains, horizontals = np.split(ids, [n * m, n * m + r * (n - 1)])
    classes = np.hstack([chains.reshape(r, n - 1), horizontals.reshape(r, n // 2 - 1)])
    return _Wiring(edges, rings, classes[:, :n - 1], classes[:, n - 1:], classes)


class TopologyEdgeSet:
    """A set of links of a fixed constellation shape, as read-only integer
    arrays in canonical order.

    Edge i joins satellites ``a[i] <= b[i]`` (``sat_to_index`` order) and
    has kind ``KINDS[kind[i]]``; canonical order, by kind name and then by
    the endpoints' (plane, index) pairs, is the order of (kind, a, b). The
    generators draw theirs from the edge universe (``_Wiring.draw``), which
    passes their universe ids; ``from_edges`` builds one from ``IslEdge``
    objects, either way round. Whatever integer arrays it is given, a set
    stores ``kind`` as ``KIND_DTYPE`` and ``a``, ``b`` and the ids as
    ``INDEX_DTYPE``, so sets are equal exactly when their arrays are, and
    then hash equal (hashed once), however they were built.

    Raises:
        ValueError: If a value is not an integer its array's dtype holds;
            none is wrapped.
    """

    def __init__(self, shape: tuple[int, int], kind: np.ndarray, a: np.ndarray,
                 b: np.ndarray, ids: np.ndarray | None = None):
        kind, a, b = _narrow(kind, KIND_DTYPE), _narrow(a, INDEX_DTYPE), _narrow(b, INDEX_DTYPE)
        for x in (kind, a, b):
            x.setflags(write=False)
        if ids is not None:
            ids = _narrow(ids, INDEX_DTYPE)
        self.shape, self.kind, self.a, self.b, self._ids = shape, kind, a, b, ids
        self._derived: dict = {}

    @classmethod
    def from_edges(cls, spec: ConstellationSpec, edges) -> "TopologyEdgeSet":
        """The set of the given ``IslEdge`` objects, duplicates dropped.

        Raises:
            ValueError: If a kind is not in ``KINDS`` or an endpoint lies
                outside the constellation.
        """
        edges = list(edges)
        rows = [(e.endpoint_a.plane, e.endpoint_a.index_in_plane,
                 e.endpoint_b.plane, e.endpoint_b.index_in_plane) for e in edges]
        return canonical_arrays((spec.plane_count, spec.sats_per_plane),
                                [e.kind for e in edges],
                                np.array(rows, dtype=np.int64).reshape(-1, 4))

    def rotated(self, k: int) -> "TopologyEdgeSet":
        """A drawn set with every phase class c's edges moved to class c - k:
        what the same rule draws once the rows have advanced k slots. A
        ValueError for a set not drawn from the universe."""
        if self._ids is None:
            raise ValueError("only a set drawn from the edge universe can be rotated")
        wiring = _wiring(self.shape)
        return wiring.draw(wiring.rotated(self._ids, k))

    @functools.cached_property
    def edges(self) -> frozenset[IslEdge]:
        """The edges as ``IslEdge`` objects, built on first read."""
        sats = satellite_ids(*self.shape)
        return frozenset(IslEdge(sats[a], sats[b], KINDS[k])
                         for k, a, b in zip(self.kind.tolist(), self.a.tolist(), self.b.tolist()))

    def check_shape(self, spec: ConstellationSpec) -> None:
        """Raises ValueError if the set belongs to a constellation of another
        shape than ``spec``'s: its arrays index its own shape's satellites."""
        shape = (spec.plane_count, spec.sats_per_plane)
        if self.shape != shape:
            raise ValueError(f"edge set of a {self.shape[0]}x{self.shape[1]} "
                             f"constellation used with a {shape[0]}x{shape[1]} one")

    def rotates_to(self, other: "TopologyEdgeSet", k: int) -> bool:
        """True when both sets were drawn from the universe and ``other``
        holds exactly this set's links rotated by k (``rotated``), compared
        as id arrays."""
        if self._ids is None or other._ids is None or len(self._ids) != len(other._ids):
            return False
        return bool((_wiring(self.shape).rotated(self._ids, k) == other._ids).all())

    def derived(self, spec: ConstellationSpec, build, *args):
        """``build(self, *args)``, built on the first call and kept on the set,
        so ``build`` must read nothing of the set but its arrays, and ``args``
        may change only how the value is stored, never the value; raises as
        ``check_shape``."""
        self.check_shape(spec)
        if build not in self._derived:
            self._derived[build] = build(self, *args)
        return self._derived[build]

    def of_kind(self, name: str) -> np.ndarray:
        """Boolean mask of the edges of one kind."""
        return self.kind == KINDS.index(name)

    @functools.cached_property
    def _counts(self) -> list[int]:
        return np.bincount(self.kind, minlength=len(KINDS)).tolist()

    def count(self, kind: str) -> int:
        return self._counts[KINDS.index(kind)]

    @property
    def n_inter_plane(self) -> int:
        return len(self) - self.count(INTRA_PLANE)

    def __len__(self) -> int:
        return len(self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TopologyEdgeSet):
            return NotImplemented
        return self is other or (self.shape == other.shape and all(
            map(np.array_equal, (self.kind, self.a, self.b), (other.kind, other.a, other.b))))

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.shape, self.a.tobytes(), self.b.tobytes()))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        n, m = self.shape
        return f"TopologyEdgeSet({len(self)} edges, {n}x{m})"


@dataclass(frozen=True)
class TopologyViolation:
    rule: str
    edge: IslEdge | None
    detail: str


def active_couples(spec: ConstellationSpec, polar_border_deg: float, t) -> np.ndarray:
    """Which fixed-baseline couples are active at time t.

    Phase classes 2k and 2k+1 are permanently coupled; couple k is active
    exactly while both rows sit outside the polar caps. For times of shape
    S the result is a boolean array of shape S + (M,).
    """
    outside = ~in_polar_band(row_phase_deg(spec, t), polar_border_deg)
    return outside[..., 0::2] & outside[..., 1::2]


def couple_edges(spec: ConstellationSpec, active: np.ndarray) -> TopologyEdgeSet:
    """The intra-plane rings plus the chain edges of the couples whose
    entry of the (M,) mask is set."""
    wiring = _wiring((spec.plane_count, spec.sats_per_plane))
    return wiring.draw(wiring.select(2 * np.flatnonzero(active), ()))


def fixed_topology(
    spec: ConstellationSpec, polar_border_deg: float, t: float,
) -> TopologyEdgeSet:
    """Static baseline assignment with polar shutdown.

    Each active couple (see ``active_couples``) contributes its chain
    edges. No horizontal links.
    """
    return couple_edges(spec, active_couples(spec, polar_border_deg, t))


def reassign_topology(
    spec: ConstellationSpec,
    polar_border_deg: float,
    ls_state: LsState,
    trigger: str,
) -> TopologyEdgeSet:
    """Re-pair all inter-plane links at a polar-cap crossing event.

    Per half-orbit: the non-polar band's consecutive classes are paired
    from the most recently exited one, so chains take every other class.
    With an exit trigger and a non-uniform row distribution, the band's
    last class, closest to the entry border, is skipped entirely (it would
    enter a cap before the next trigger). An unpaired leftover class
    receives horizontal links instead.

    Args:
        spec: Constellation parameters.
        polar_border_deg: Polar-cap border latitude.
        ls_state: Non-polar bands at the trigger instant (``build_ls_state``).
        trigger: ``"enter"`` or ``"exit"``.

    Returns:
        Edge set including the permanent intra-plane rings.

    Raises:
        ValueError: On an unknown trigger or an ls_state that does not
            describe this constellation.
    """
    if trigger not in (TRIGGER_ENTER, TRIGGER_EXIT):
        raise ValueError(f"unknown trigger {trigger!r}")
    if ls_state.n_rows != spec.row_count:
        raise ValueError(
            f"ls_state has {ls_state.n_rows} rows, expected {spec.row_count}")

    skip_last = trigger == TRIGGER_EXIT and not is_uniform_row_distribution(spec, polar_border_deg)
    bands = [band[:len(band) - skip_last] for band in (ls_state.ascending, ls_state.descending)]
    # A chain from every other class to the one after it; an odd leftover gets horizontals.
    wiring = _wiring((spec.plane_count, spec.sats_per_plane))
    return wiring.draw(wiring.select(np.concatenate([b[0:len(b) - 1:2] for b in bands]),
                                     np.concatenate([b[len(b) - len(b) % 2:] for b in bands])))


def _set_rules(topo: TopologyEdgeSet) -> tuple:
    """What the link rules read of a set alone: structure flags, inter-plane and
    horizontal masks (None if empty), plane spans, (satellite, degree) past 2."""
    m, a, b = topo.shape[1], topo.a, topo.b
    intra, oblique, horizontal = (topo.of_kind(k) for k in (INTRA_PLANE, OBLIQUE, HORIZONTAL))
    dplane, dslot = np.abs(a // m - b // m), np.abs(a % m - b % m)
    structure = ((intra & ((dplane != 0) | ((dslot != 1) & (dslot != m - 1))))
                 | (oblique & (dplane != 1)) | (horizontal & (dplane != 2)))
    inter = ~intra
    degree = np.bincount(np.concatenate([a[inter], b[inter]]), minlength=topo.shape[0] * m)
    for x in (structure, inter, horizontal, dplane):
        x.setflags(write=False)
    return (structure, inter, horizontal if horizontal.any() else None, dplane,
            [(s, degree[s]) for s in np.flatnonzero(degree > 2).tolist()])


@functools.lru_cache(maxsize=8)
def _spec_limits(spec: ConstellationSpec) -> tuple[np.ndarray, float, float, float, float]:
    """Each satellite's phase at t=0, the period, the visibility limit, the
    survival latitude and sin(inclination) of a spec."""
    index, m = np.arange(spec.total_satellites), spec.sats_per_plane
    phase = (index // m) * spec.phase_offset_deg + (index % m) * spec.intra_plane_spacing_deg
    phase.setflags(write=False)
    max_angle = max_link_angle_deg(spec)
    return (phase, orbit_period(spec), max_angle,
            horizontal_survival_latitude_deg(spec, max_angle),
            math.sin(math.radians(spec.inclination_deg)))


def validate_topology(
    spec: ConstellationSpec,
    polar_border_deg: float,
    topo: TopologyEdgeSet,
    t: float,
    positions: np.ndarray | None = None,
) -> list[TopologyViolation]:
    """Check an edge set against the link rules at time t.

    Reported violations: inter-plane edges with an endpoint inside a polar
    cap, edges longer than the visibility limit, satellites with more than
    two inter-plane edges, horizontal edges below the survival latitude,
    and structurally invalid edges (seam crossings, wrong plane spans).
    An empty list means the topology is valid. The visibility limit
    (``max_link_angle_deg``) and the survival latitude
    (``horizontal_survival_latitude_deg``) come from ``spec``.

    ``positions`` are those at t (``all_positions_km``), computed when
    omitted. The set's own rules (kind masks, structure, degrees) are kept
    on the set and the spec's constants cached per spec. Each call gathers
    the endpoints' x, y, z columns and per-satellite flags with 1-D takes,
    evaluates the time-dependent rules over the set's arrays (reduced
    phases and latitudes only for a set with horizontal edges), and returns
    at once when one combined check finds that no rule fired. Otherwise
    violations are built only for flagged edges and
    satellites, edge by edge in canonical order, each edge's in the order
    structure, visibility, polar (endpoint a, then b), same row, survival
    latitude (a, then b); then one per over-degree satellite, in index order.

    Raises:
        ValueError: If the border is not in (0, 90), or the set belongs
            to a constellation of another shape.
    """
    check_polar_border(polar_border_deg)
    structure, inter, horizontal, dplane, over = topo.derived(spec, _set_rules)
    phase0, period, max_angle, min_lat, sin_inc = _spec_limits(spec)
    a, b = topo.a.astype(np.intp), topo.b.astype(np.intp)  # each take then gathers directly
    if positions is None:
        positions = all_positions_km(spec, t)
    x, y, z = positions.T
    norm = np.sqrt((x * x + y * y) + z * z)
    xa, ya, za, na = (col.take(a) for col in (x, y, z, norm))
    xb, yb, zb, nb = (col.take(b) for col in (x, y, z, norm))
    # numpy sums a row of three as (x + y) + z: angles equal the row-wise dot product's
    cos = ((xa * xb + ya * yb) + za * zb) / (na * nb)
    angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    phase = phase0 + 360.0 * t / period  # argument of latitude; in_polar_band reduces it
    polar = in_polar_band(phase, polar_border_deg)
    flags = [structure, ~(angle <= max_angle + 1e-9),  # a NaN angle fails too
             inter & polar.take(a), inter & polar.take(b)]
    if horizontal is not None:
        u = phase % 360.0
        # True latitude, asin(sin i * sin u), of every satellite.
        lat = np.degrees(np.arcsin(np.clip(sin_inc * np.sin(np.radians(u)), -1.0, 1.0)))
        below = np.abs(lat) < min_lat - 1e-9
        flags += [horizontal & (np.abs(((u.take(a) - u.take(b)) + 180.0) % 360.0 - 180.0) > 1e-6),
                  horizontal & below.take(a), horizontal & below.take(b)]
    if not over and not functools.reduce(np.logical_or, flags).any():
        return []

    violations = []
    ids = satellite_ids(spec.plane_count, spec.sats_per_plane)
    for i, rule in zip(*(hit.tolist() for hit in np.nonzero(np.stack(flags, axis=1)))):
        ends = (int(a[i]), int(b[i]))
        sats = (ids[ends[0]], ids[ends[1]])
        kind = KINDS[topo.kind[i]]
        if rule == 0 and kind == INTRA_PLANE:
            name, detail = "structure", "intra-plane edge must join ring neighbours"
        elif rule == 0:
            name, detail = "structure", (f"{kind} edge spans {dplane[i]} planes "
                                         "(seam crossing or bad kind)")
        elif rule == 1:
            name, detail = "visibility", f"geocentric angle {angle[i]:.3f} exceeds {max_angle:.3f}"
        elif rule in (2, 3):
            name, detail = "polar", f"{sats[rule - 2]} is inside a polar cap"
        elif rule == 4:
            name, detail = "structure", "horizontal endpoints are not in the same row"
        else:
            name, detail = "horizontal_range", (f"{sats[rule - 5]} at latitude "
                                                f"{lat[ends[rule - 5]]:.3f} below survival "
                                                f"latitude {min_lat:.3f}")
        violations.append(TopologyViolation(name, IslEdge(*sats, kind), detail))
    return violations + [TopologyViolation("degree", None, f"{ids[s]} carries {degree} "
                                           "inter-plane edges (max 2)") for s, degree in over]
