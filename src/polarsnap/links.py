"""Inter-satellite link edge sets.

Three generators:

* ``intra_plane_edges``: the permanent ring links inside each plane.
* ``fixed_topology``: the static baseline. Adjacent phase-class rows are
  paired once and for all into M couples, each couple wired as a zigzag
  chain of N-1 single-plane-step links spanning all planes; a chain link
  is active only while both endpoints are outside the polar caps.
* ``reassign_topology``: the event-driven assignment. At each polar-cap
  crossing the non-polar rows of each hemisphere are re-paired starting
  from the most recently exited row; a leftover unpaired row receives
  links two planes apart between its own members.

No link ever connects the first and last planes (the counter-rotating
seam): chains step through planes 1..N only. The ring, chain and
horizontal edges of a constellation are built once and shared by every
edge set that uses them.

Each edge set is compiled once, on first use, into integer arrays in
canonical order (``TopologyEdgeSet.compiled``); the validator, the
topology export and the router all read those arrays.
"""
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ConstellationSpec,
    LsState,
    SatId,
    VisibilityModel,
    all_positions_km,
    class_member,
    class_phase_deg,
    class_planes,
    in_polar_band,
    index_to_sat,
    is_uniform_row_distribution,
    orbit_period,
)

INTRA_PLANE = "intra_plane"
OBLIQUE = "oblique"
HORIZONTAL = "horizontal"

TRIGGER_ENTER = "enter"
TRIGGER_EXIT = "exit"


@dataclass(frozen=True)
class IslEdge:
    """Undirected link; endpoints are kept in canonical (sorted) order."""
    endpoint_a: SatId
    endpoint_b: SatId
    kind: str


def make_edge(a: SatId, b: SatId, kind: str) -> IslEdge:
    if (b.plane, b.index_in_plane) < (a.plane, a.index_in_plane):
        a, b = b, a
    return IslEdge(a, b, kind)


@dataclass(frozen=True)
class EdgeArrays:
    """An edge set as integer arrays, edges in canonical order.

    Edge i joins satellites ``a[i]`` and ``b[i]`` (``sat_to_index`` order,
    from ``endpoint_a`` and ``endpoint_b``) and has kind ``kinds[kind[i]]``.
    ``kinds`` is sorted, so canonical order, by kind name and then by the
    endpoints' (plane, index) pairs, is the order of (kind, a, b).
    """
    shape: tuple[int, int]
    kinds: tuple[str, ...]
    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def of_kind(self, name: str) -> np.ndarray:
        """Boolean mask of the edges of one kind."""
        if name not in self.kinds:
            return np.zeros(len(self.kind), dtype=bool)
        return self.kind == self.kinds.index(name)


def _compile(edges: frozenset[IslEdge], shape: tuple[int, int]) -> EdgeArrays:
    n_planes, m = shape
    kinds = tuple(sorted({e.kind for e in edges}))
    code = {k: i for i, k in enumerate(kinds)}
    rows = [(code[e.kind], e.endpoint_a.plane, e.endpoint_a.index_in_plane,
             e.endpoint_b.plane, e.endpoint_b.index_in_plane) for e in edges]
    raw = np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                      5 * len(rows)).reshape(-1, 5)
    planes, slots = raw[:, 1::2], raw[:, 2::2]
    if ((planes < 1) | (planes > n_planes) | (slots < 1) | (slots > m)).any():
        raise ValueError(f"edge endpoint outside the {n_planes}x{m} constellation")
    ends = ((planes - 1) * m + slots - 1).astype(np.int32)
    order = np.lexsort((ends[:, 1], ends[:, 0], raw[:, 0]))
    return EdgeArrays(shape, kinds, raw[order, 0].astype(np.int32),
                      ends[order, 0], ends[order, 1])


@dataclass(frozen=True)
class TopologyEdgeSet:
    edges: frozenset[IslEdge]
    generated_at_s: float
    method: str
    # Compiled by ``compiled`` on first use; a cache, so it takes no part
    # in equality, hashing or repr.
    _arrays: EdgeArrays | None = field(default=None, init=False, compare=False,
                                       repr=False)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.edges if e.kind == kind)

    @property
    def n_inter_plane(self) -> int:
        return sum(1 for e in self.edges if e.kind != INTRA_PLANE)

    def compiled(self, spec: ConstellationSpec) -> EdgeArrays:
        """The edges as integer arrays for this constellation, built on
        first use and cached on the set.

        Raises:
            ValueError: If an endpoint lies outside the constellation.
        """
        shape = (spec.plane_count, spec.sats_per_plane)
        if self._arrays is None or self._arrays.shape != shape:
            object.__setattr__(self, "_arrays", _compile(self.edges, shape))
        return self._arrays


@dataclass(frozen=True)
class TopologyViolation:
    rule: str
    edge: IslEdge | None
    detail: str


def intra_plane_edges(spec: ConstellationSpec) -> TopologyEdgeSet:
    """The N*M permanent ring edges (time-invariant)."""
    return TopologyEdgeSet(_wiring(spec).rings, 0.0, "intra")


def chain_edges(spec: ConstellationSpec, lower_class: int) -> list[IslEdge]:
    """Zigzag chain between two adjacent phase classes.

    One edge per adjacent plane pair (p, p+1); the two classes alternate
    planes, so the chain visits one satellite in every plane without
    crossing the seam. N-1 edges.
    """
    upper_class = (lower_class + 1) % spec.row_count
    edges = []
    for p in range(1, spec.plane_count):
        c_here = lower_class if (p - 1) % 2 == lower_class % 2 else upper_class
        c_next = upper_class if c_here == lower_class else lower_class
        edges.append(make_edge(
            class_member(spec, c_here, p),
            class_member(spec, c_next, p + 1),
            OBLIQUE,
        ))
    return edges


def horizontal_edges(spec: ConstellationSpec, phase_class: int) -> list[IslEdge]:
    """Links between consecutive same-class members, two planes apart."""
    planes = class_planes(spec, phase_class)
    return [
        make_edge(
            class_member(spec, phase_class, planes[i]),
            class_member(spec, phase_class, planes[i + 1]),
            HORIZONTAL,
        )
        for i in range(len(planes) - 1)
    ]


@dataclass(frozen=True)
class _Wiring:
    """Every edge a constellation's topologies are drawn from."""
    rings: frozenset[IslEdge]
    chains: tuple[tuple[IslEdge, ...], ...]  # by lower phase class
    horizontals: tuple[tuple[IslEdge, ...], ...]  # by phase class


@functools.lru_cache(maxsize=8)
def _wiring(spec: ConstellationSpec) -> _Wiring:
    """The ring edges and each phase class's chain and horizontal edges.

    They depend only on the constellation, so they are built once per spec
    and every edge set drawn from them shares the same ``IslEdge`` objects.
    """
    rings = frozenset(
        make_edge(SatId(p, j), SatId(p, j % spec.sats_per_plane + 1), INTRA_PLANE)
        for p in range(1, spec.plane_count + 1)
        for j in range(1, spec.sats_per_plane + 1))
    classes = range(spec.row_count)
    return _Wiring(
        rings,
        tuple(tuple(chain_edges(spec, c)) for c in classes),
        tuple(tuple(horizontal_edges(spec, c)) for c in classes),
    )


def active_couples(
    spec: ConstellationSpec, polar_border_deg: float, t: float,
) -> frozenset[int]:
    """Fixed-baseline couples that are active at time t.

    Phase classes (2k, 2k+1) are permanently coupled; a couple, named by
    its lower class 2k, is active exactly while both rows sit outside the
    polar caps.
    """
    outside = [not in_polar_band(class_phase_deg(spec, c, t), polar_border_deg)
               for c in range(spec.row_count)]
    return frozenset(lo for lo in range(0, spec.row_count, 2)
                     if outside[lo] and outside[lo + 1])


def couple_edges(spec: ConstellationSpec, couples: frozenset[int]) -> frozenset[IslEdge]:
    """The intra-plane rings plus the chain edges of the given couples."""
    wiring = _wiring(spec)
    return wiring.rings.union(*(wiring.chains[lo] for lo in couples))


def fixed_topology(
    spec: ConstellationSpec, vis: VisibilityModel, t: float,
) -> TopologyEdgeSet:
    """Static baseline assignment with polar shutdown.

    Each active couple (see ``active_couples``) contributes its chain
    edges. No horizontal links.
    """
    couples = active_couples(spec, vis.polar_border_deg, t)
    return TopologyEdgeSet(couple_edges(spec, couples), t, "fixed")


def _band_rows(ls_state: LsState, ascending: bool) -> list:
    """Non-polar rows of one hemisphere, ordered from the most recently
    exited row toward the polar-entry border."""
    rows = [r for r in ls_state.rows if not r.in_polar and r.ascending == ascending]
    if ascending:
        rows.sort(key=lambda r: r.u_deg if r.u_deg < 180.0 else r.u_deg - 360.0)
    else:
        rows.sort(key=lambda r: r.u_deg)
    return rows


def reassign_topology(
    spec: ConstellationSpec,
    vis: VisibilityModel,
    ls_state: LsState,
    trigger: str,
) -> TopologyEdgeSet:
    """Re-pair all inter-plane links at a polar-cap crossing event.

    Per hemisphere: consecutive non-polar rows are paired starting at the
    most recently exited row, each pair wired as a chain. With an exit
    trigger and a non-uniform row distribution, the row closest to the
    entry border is skipped entirely (it would enter a cap before the next
    trigger). An unpaired leftover row receives horizontal links instead.

    Args:
        spec: Constellation parameters.
        vis: Visibility model carrying the polar border.
        ls_state: Row state at the trigger instant.
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

    uniform = is_uniform_row_distribution(spec, vis.polar_border_deg)
    wiring = _wiring(spec)
    edges = set(wiring.rings)
    for ascending in (True, False):
        band = _band_rows(ls_state, ascending)
        if trigger == TRIGGER_EXIT and not uniform and band:
            band = band[:-1]
        n_pairs = len(band) // 2
        for i in range(n_pairs):
            lower, upper = band[2 * i], band[2 * i + 1]
            if upper.phase_class != (lower.phase_class + 1) % spec.row_count:
                raise ValueError(
                    "inconsistent ls_state: band rows are not consecutive phase "
                    f"classes ({lower.phase_class}, {upper.phase_class})")
            edges.update(wiring.chains[lower.phase_class])
        if len(band) % 2 == 1:
            edges.update(wiring.horizontals[band[-1].phase_class])
    return TopologyEdgeSet(frozenset(edges), ls_state.time_s, "reassignment")


def validate_topology(
    spec: ConstellationSpec,
    vis: VisibilityModel,
    topo: TopologyEdgeSet,
    t: float,
) -> list[TopologyViolation]:
    """Check an edge set against the link rules at time t.

    Reported violations: inter-plane edges with an endpoint inside a polar
    cap, edges longer than the visibility limit, satellites with more than
    two inter-plane edges, horizontal edges below the survival latitude,
    and structurally invalid edges (seam crossings, wrong plane spans).
    An empty list means the topology is valid.

    Works on the set's cached integer arrays (``TopologyEdgeSet.compiled``):
    each rule is one array expression over all edges, and violations are
    built only for flagged edges and satellites. They are listed edge by
    edge in canonical order, each edge's in the order structure,
    visibility, polar (endpoint a, then b), same row, survival latitude
    (a, then b); then one per over-degree satellite in index order.

    Raises:
        ValueError: If an endpoint lies outside the constellation.
    """
    arr = topo.compiled(spec)
    m = spec.sats_per_plane
    a, b = arr.a, arr.b
    intra, oblique, horizontal = (arr.of_kind(k) for k in (INTRA_PLANE, OBLIQUE, HORIZONTAL))
    inter = ~intra

    positions = all_positions_km(spec, t)
    pa, pb = positions[a], positions[b]
    cos = (pa * pb).sum(1) / (np.sqrt((pa * pa).sum(1)) * np.sqrt((pb * pb).sum(1)))
    angle = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))

    # Phase and true latitude of every satellite, as argument_of_latitude_deg
    # and true_latitude_deg compute them.
    index = np.arange(spec.total_satellites)
    u = ((index // m) * spec.phase_offset_deg + (index % m) * spec.intra_plane_spacing_deg
         + 360.0 * t / orbit_period(spec)) % 360.0
    lat = np.degrees(np.arcsin(np.clip(
        math.sin(math.radians(spec.inclination_deg)) * np.sin(np.radians(u)), -1.0, 1.0)))
    polar = in_polar_band(u, vis.polar_border_deg)
    below = np.abs(lat) < vis.horizontal_min_latitude_deg - 1e-9

    dplane = np.abs(a // m - b // m)
    dslot = np.abs(a % m - b % m)
    flags = np.stack([
        (intra & ((dplane != 0) | ((dslot != 1) & (dslot != m - 1))))
        | (oblique & (dplane != 1)) | (horizontal & (dplane != 2))
        | ~(intra | oblique | horizontal),
        angle > vis.max_link_angle_deg + 1e-9,
        inter & polar[a],
        inter & polar[b],
        horizontal & (np.abs(((u[a] - u[b]) + 180.0) % 360.0 - 180.0) > 1e-6),
        horizontal & below[a],
        horizontal & below[b],
    ], axis=1)

    violations = []
    for i, rule in zip(*(x.tolist() for x in np.nonzero(flags))):
        ends = (int(a[i]), int(b[i]))
        sats = tuple(index_to_sat(spec, e) for e in ends)
        kind = arr.kinds[arr.kind[i]]
        edge = IslEdge(*sats, kind)
        if rule == 0:
            if kind == INTRA_PLANE:
                detail = "intra-plane edge must join ring neighbours"
            elif kind in (OBLIQUE, HORIZONTAL):
                detail = f"{kind} edge spans {dplane[i]} planes (seam crossing or bad kind)"
            else:
                detail = f"unknown kind {kind!r}"
            violations.append(TopologyViolation("structure", edge, detail))
        elif rule == 1:
            violations.append(TopologyViolation(
                "visibility", edge,
                f"geocentric angle {angle[i]:.3f} exceeds {vis.max_link_angle_deg:.3f}"))
        elif rule in (2, 3):
            violations.append(TopologyViolation(
                "polar", edge, f"{sats[rule - 2]} is inside a polar cap"))
        elif rule == 4:
            violations.append(TopologyViolation(
                "structure", edge, "horizontal endpoints are not in the same row"))
        else:
            violations.append(TopologyViolation(
                "horizontal_range", edge,
                f"{sats[rule - 5]} at latitude {lat[ends[rule - 5]]:.3f} below survival "
                f"latitude {vis.horizontal_min_latitude_deg:.3f}"))

    degree = np.bincount(np.concatenate([a[inter], b[inter]]),
                         minlength=spec.total_satellites)
    for s in np.flatnonzero(degree > 2).tolist():
        violations.append(TopologyViolation(
            "degree", None,
            f"{index_to_sat(spec, s)} carries {degree[s]} inter-plane edges (max 2)"))
    return violations
