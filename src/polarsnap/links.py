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
seam): chains step through planes 1..N only.
"""
from dataclasses import dataclass

from .geometry import (
    ConstellationSpec,
    LsState,
    SatId,
    VisibilityModel,
    all_positions_km,
    argument_of_latitude_deg,
    class_member,
    class_phase_deg,
    class_planes,
    geocentric_angle_deg,
    in_polar_band,
    is_uniform_row_distribution,
    sat_to_index,
    true_latitude_deg,
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
class TopologyEdgeSet:
    edges: frozenset[IslEdge]
    generated_at_s: float
    method: str

    def count(self, kind: str) -> int:
        return sum(1 for e in self.edges if e.kind == kind)

    @property
    def inter_plane_edges(self) -> frozenset[IslEdge]:
        return frozenset(e for e in self.edges if e.kind != INTRA_PLANE)

    @property
    def n_inter_plane(self) -> int:
        return sum(1 for e in self.edges if e.kind != INTRA_PLANE)


@dataclass(frozen=True)
class TopologyViolation:
    rule: str
    edge: IslEdge | None
    detail: str


def intra_plane_edges(spec: ConstellationSpec) -> TopologyEdgeSet:
    """The N*M permanent ring edges (time-invariant)."""
    edges = set()
    for p in range(1, spec.plane_count + 1):
        for j in range(1, spec.sats_per_plane + 1):
            nxt = j % spec.sats_per_plane + 1
            edges.add(make_edge(SatId(p, j), SatId(p, nxt), INTRA_PLANE))
    return TopologyEdgeSet(frozenset(edges), 0.0, "intra")


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
    edges = set(intra_plane_edges(spec).edges)
    for lo in couples:
        edges.update(chain_edges(spec, lo))
    return frozenset(edges)


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
    edges = set(intra_plane_edges(spec).edges)
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
            edges.update(chain_edges(spec, lower.phase_class))
        if len(band) % 2 == 1:
            edges.update(horizontal_edges(spec, band[-1].phase_class))
    return TopologyEdgeSet(frozenset(edges), ls_state.time_s, "reassignment")


def _structural_violations(spec: ConstellationSpec, edge: IslEdge) -> list[TopologyViolation]:
    a, b = edge.endpoint_a, edge.endpoint_b
    found = []
    dplane = abs(a.plane - b.plane)
    if edge.kind == INTRA_PLANE:
        dj = abs(a.index_in_plane - b.index_in_plane)
        ring_adjacent = dj == 1 or dj == spec.sats_per_plane - 1
        if dplane != 0 or not ring_adjacent:
            found.append(TopologyViolation(
                "structure", edge, "intra-plane edge must join ring neighbours"))
    elif edge.kind == OBLIQUE:
        if dplane != 1:
            found.append(TopologyViolation(
                "structure", edge,
                f"oblique edge spans {dplane} planes (seam crossing or bad kind)"))
    elif edge.kind == HORIZONTAL:
        if dplane != 2:
            found.append(TopologyViolation(
                "structure", edge,
                f"horizontal edge spans {dplane} planes (seam crossing or bad kind)"))
    else:
        found.append(TopologyViolation("structure", edge, f"unknown kind {edge.kind!r}"))
    return found


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
    """
    positions = all_positions_km(spec, t)
    violations: list[TopologyViolation] = []
    inter_degree: dict[SatId, int] = {}

    for edge in sorted(topo.edges, key=lambda e: (e.kind, (e.endpoint_a.plane,
                       e.endpoint_a.index_in_plane, e.endpoint_b.plane,
                       e.endpoint_b.index_in_plane))):
        violations.extend(_structural_violations(spec, edge))
        a, b = edge.endpoint_a, edge.endpoint_b
        pa = positions[sat_to_index(spec, a)]
        pb = positions[sat_to_index(spec, b)]

        angle = geocentric_angle_deg(pa, pb)
        if angle > vis.max_link_angle_deg + 1e-9:
            violations.append(TopologyViolation(
                "visibility", edge,
                f"geocentric angle {angle:.3f} exceeds {vis.max_link_angle_deg:.3f}"))

        if edge.kind == INTRA_PLANE:
            continue
        inter_degree[a] = inter_degree.get(a, 0) + 1
        inter_degree[b] = inter_degree.get(b, 0) + 1

        for sat in (a, b):
            u = argument_of_latitude_deg(spec, sat, t)
            if in_polar_band(u, vis.polar_border_deg):
                violations.append(TopologyViolation(
                    "polar", edge, f"{sat} is inside a polar cap"))

        if edge.kind == HORIZONTAL:
            ua = argument_of_latitude_deg(spec, a, t)
            ub = argument_of_latitude_deg(spec, b, t)
            if abs(((ua - ub) + 180.0) % 360.0 - 180.0) > 1e-6:
                violations.append(TopologyViolation(
                    "structure", edge, "horizontal endpoints are not in the same row"))
            for sat, u in ((a, ua), (b, ub)):
                lat = true_latitude_deg(spec, u)
                if abs(lat) < vis.horizontal_min_latitude_deg - 1e-9:
                    violations.append(TopologyViolation(
                        "horizontal_range", edge,
                        f"{sat} at latitude {lat:.3f} below survival latitude "
                        f"{vis.horizontal_min_latitude_deg:.3f}"))

    for sat, deg in sorted(inter_degree.items(),
                           key=lambda kv: (kv[0].plane, kv[0].index_in_plane)):
        if deg > 2:
            violations.append(TopologyViolation(
                "degree", None, f"{sat} carries {deg} inter-plane edges (max 2)"))
    return violations


def validate_topology_over(
    spec: ConstellationSpec,
    vis: VisibilityModel,
    topo: TopologyEdgeSet,
    start_s: float,
    end_s: float,
    step_s: float = 1.0,
) -> list[TopologyViolation]:
    """Validate a frozen edge set at sampled instants of [start, end).

    Returns the violations of the first offending instant (empty when the
    set stays valid over the whole interval).
    """
    t = start_s
    while t < end_s:
        violations = validate_topology(spec, vis, topo, t)
        if violations:
            return violations
        t += step_s
    return []
