"""Generalized holomorphic buildings as combinatorial objects, plus surgery.

A building is a list of components (genus, punctures, relative Chern datum,
kind flags) together with breaking pairs and nodal pairs.  Punctures are
addressed by site (component id, puncture index); a breaking pair joins a
positive puncture to a negative puncture over the same orbit with both
constraints zero, and nodal pairs join components at anonymous interior
points (only their count ever enters a formula).  Decorations and level
structure are deliberately not modeled: every invariant computed here is
independent of them.

Buildings are immutable; surgery (disjoint union, adding a node, gluing
punctures, augmenting by trivial cylinders, collapsing to the core,
extracting subbuildings) returns new values.  A component taken on its own
(breaking pairs severed, nodes dropped) is not a building here: the index
layer reads it as a `Part` of the building's analysis
(``hbcalc.index_calculus``), from the component and the rows of its ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import BuildingError, CatalogError, NoCoreError

Site = tuple[str, int]
BreakingPair = tuple[Site, Site]  # positive site first
NodalPair = tuple[str, str]

KINDS = ("nontrivial", "trivial", "constant")


@dataclass(frozen=True, order=True)
class OrbitRef:
    """A possibly multiply covered orbit: (simple orbit id, covering number)."""

    simple: str
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise CatalogError(f"covering number must be >= 1, got {self.k}")

    def __str__(self) -> str:
        return f"{self.simple}^{self.k}"


@dataclass(frozen=True)
class Puncture:
    """A puncture of a component: sign, asymptotic orbit, constraint, and the
    optional winding of the controlling eigenfunction of the curve end."""

    sign: int
    orbit: OrbitRef
    constraint: float = 0.0
    controlling_winding: int | None = None

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise BuildingError(f"puncture sign must be +1 or -1, got {self.sign}")
        if self.constraint < 0:
            raise BuildingError(f"constraint must be >= 0, got {self.constraint}")


@dataclass(frozen=True)
class Component:
    id: str
    genus: int
    punctures: tuple[Puncture, ...]
    rel_c1: int = 0
    kind: str = "nontrivial"
    wind_pi: int | None = None
    image_class: str | None = None

    def __post_init__(self):
        if not self.id:
            raise BuildingError("component id must be nonempty")
        if self.genus < 0:
            raise BuildingError(f"component {self.id!r}: genus must be >= 0")
        if self.kind not in KINDS:
            raise BuildingError(f"component {self.id!r}: unknown kind {self.kind!r}")
        if self.wind_pi is not None and self.wind_pi < 0:
            raise BuildingError(f"component {self.id!r}: wind_pi must be >= 0")
        if self.kind == "constant":
            if self.punctures:
                raise BuildingError(f"constant component {self.id!r} cannot have punctures")
        if self.kind == "trivial":
            if self.rel_c1 != 0:
                raise BuildingError(f"trivial component {self.id!r} must have rel_c1 = 0")
            simples = {p.orbit.simple for p in self.punctures}
            if len(simples) > 1:
                raise BuildingError(
                    f"trivial component {self.id!r} has punctures over distinct "
                    f"simple orbits {sorted(simples)}"
                )
            if self.punctures:
                if not any(p.sign > 0 for p in self.punctures) or not any(
                    p.sign < 0 for p in self.punctures
                ):
                    raise BuildingError(
                        f"nonconstant trivial component {self.id!r} needs at least one "
                        "positive and one negative puncture"
                    )
            else:
                raise BuildingError(
                    f"trivial component {self.id!r} has no punctures; declare it constant"
                )


def is_trivial_cylinder(component: Component) -> bool:
    """Trivial kind, genus 0, exactly one positive and one negative puncture
    over the same cover of the same simple orbit."""
    if component.kind != "trivial" or component.genus != 0:
        return False
    if len(component.punctures) != 2:
        return False
    a, b = component.punctures
    return a.sign == -b.sign and a.orbit == b.orbit


@dataclass(frozen=True)
class Building:
    components: tuple[Component, ...]
    breaking_pairs: tuple[BreakingPair, ...] = ()
    nodal_pairs: tuple[NodalPair, ...] = ()
    # lookup indexes built once per value; not part of equality or hashing
    _by_id: dict[str, Component] = field(init=False, repr=False, compare=False)
    _partner: dict[Site, Site] = field(init=False, repr=False, compare=False)
    _node_ends: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # messages cite the offending field by its path, e.g. breaking_pairs[0][1],
        # which is also its JSON path in a building file
        by_id = {}
        for i, comp in enumerate(self.components):
            if comp.id in by_id:
                raise BuildingError(f"components[{i}].id: duplicate component id {comp.id!r}")
            by_id[comp.id] = comp
        object.__setattr__(self, "_by_id", by_id)
        partner: dict[Site, Site] = {}
        for i, pair in enumerate(self.breaking_pairs):
            pos_site, neg_site = pair
            try:
                pos = self.puncture(pos_site)
            except BuildingError as exc:
                raise BuildingError(f"breaking_pairs[{i}][0]: {exc}") from None
            try:
                neg = self.puncture(neg_site)
            except BuildingError as exc:
                raise BuildingError(f"breaking_pairs[{i}][1]: {exc}") from None
            if pos.sign != 1 or neg.sign != -1:
                raise BuildingError(
                    f"breaking_pairs[{i}]: breaking pair {pair} must join a positive "
                    "puncture to a negative one"
                )
            if pos.orbit != neg.orbit:
                raise BuildingError(
                    f"breaking_pairs[{i}]: breaking pair {pair} joins distinct orbits "
                    f"{pos.orbit} and {neg.orbit}"
                )
            if pos.constraint != 0.0 or neg.constraint != 0.0:
                raise BuildingError(
                    f"breaking_pairs[{i}]: breaking pair {pair} has a nonzero constraint; "
                    "breaking punctures are unconstrained"
                )
            if pos_site in partner or neg_site in partner:
                j = 0 if pos_site in partner else 1
                raise BuildingError(
                    f"breaking_pairs[{i}][{j}]: puncture {pair[j]} appears in two "
                    "breaking pairs"
                )
            partner[pos_site] = neg_site
            partner[neg_site] = pos_site
        node_ends: dict[str, int] = {}
        for i, pair in enumerate(self.nodal_pairs):
            for j, cid in enumerate(pair):
                if cid not in by_id:
                    raise BuildingError(
                        f"nodal_pairs[{i}][{j}]: nodal pair {pair} references unknown "
                        f"component {cid!r}"
                    )
                node_ends[cid] = node_ends.get(cid, 0) + 1
        object.__setattr__(self, "_partner", partner)
        object.__setattr__(self, "_node_ends", node_ends)

    # --- lookups ---------------------------------------------------------

    def component(self, cid: str) -> Component:
        try:
            return self._by_id[cid]
        except KeyError:
            raise BuildingError(f"unknown component {cid!r}") from None

    def puncture(self, site: Site) -> Puncture:
        cid, idx = site
        if cid not in self._by_id:
            raise BuildingError(f"site {site} references unknown component {cid!r}")
        punctures = self._by_id[cid].punctures
        if not 0 <= idx < len(punctures):
            raise BuildingError(f"site {site} is out of range for component {cid!r}")
        return punctures[idx]

    def breaking_sites(self) -> set[Site]:
        return set(self._partner)

    def external_sites(self) -> list[Site]:
        """Sites of punctures not swallowed by breaking pairs, sorted."""
        out = [
            (comp.id, i)
            for comp in self.components
            for i in range(len(comp.punctures))
            if (comp.id, i) not in self._partner
        ]
        return sorted(out)

    def node_endpoints(self, cid: str) -> int:
        return self._node_ends.get(cid, 0)

    def pair_partner(self, site: Site) -> Site | None:
        return self._partner.get(site)

    def canonical(self) -> "Building":
        """Components sorted by id, pairs sorted; used for emission and equality."""
        return Building(
            components=tuple(sorted(self.components, key=lambda c: c.id)),
            breaking_pairs=tuple(sorted(self.breaking_pairs)),
            nodal_pairs=tuple(sorted(tuple(sorted(p)) for p in self.nodal_pairs)),
        )

    def same_as(self, other: "Building") -> bool:
        return self.canonical() == other.canonical()


# --- topological invariants ------------------------------------------------


def euler_char(building: Building) -> int:
    """Euler characteristic of the glued compactified surface.

    Per component 2 - 2g - (#punctures + #node endpoints); glued circles have
    Euler characteristic zero, so breaking pairs do not change the sum.
    """
    total = 0
    for comp in building.components:
        total += 2 - 2 * comp.genus - (len(comp.punctures) + building.node_endpoints(comp.id))
    return total


def component_graph(building: Building) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {c.id: set() for c in building.components}
    for pos_site, neg_site in building.breaking_pairs:
        adj[pos_site[0]].add(neg_site[0])
        adj[neg_site[0]].add(pos_site[0])
    for a, b in building.nodal_pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _reachable(adj: dict[str, set[str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_connected(building: Building) -> bool:
    """Whether the component graph is one piece; a building without
    components is not connected (it has no surface, hence no genus)."""
    if not building.components:
        return False
    adj = component_graph(building)
    return len(_reachable(adj, building.components[0].id)) == len(adj)


def trivial_breaking_pairs(building: Building) -> set[int]:
    """Indices of the trivial breaking pairs, found in one depth-first pass.

    A breaking pair is trivial if deleting its edge splits its connected piece
    and one side consists entirely of trivial cylinders.  The component graph
    is a multigraph (breaking pairs and nodal pairs are its edges), so an edge
    disconnects exactly when it is a bridge: a tree edge u-v whose subtree
    below v has no edge back above v (low[v] > disc[u]; Tarjan 1974).  Parallel
    and self-glued pairs are never bridges.  Each subtree also counts its
    components that are not trivial cylinders; a bridge is trivial when that
    count is zero below it or zero in the rest of its piece.
    """
    index = {comp.id: i for i, comp in enumerate(building.components)}
    adj: list[list[tuple[int, int]]] = [[] for _ in building.components]
    edges = [(pos[0], neg[0]) for pos, neg in building.breaking_pairs]
    edges += building.nodal_pairs
    for e, (a, b) in enumerate(edges):
        adj[index[a]].append((index[b], e))
        adj[index[b]].append((index[a], e))
    n_pairs = len(building.breaking_pairs)

    disc = [-1] * len(adj)
    low = [0] * len(adj)
    # components other than trivial cylinders in each DFS subtree
    below = [0 if is_trivial_cylinder(comp) else 1 for comp in building.components]
    bridges: list[tuple[int, int, int]] = []  # (pair index, child, root)
    clock = 0
    for root in range(len(adj)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        # frames: (vertex, edge it was entered by, next adjacency position)
        stack = [(root, -1, 0)]
        while stack:
            v, via, pos = stack[-1]
            if pos < len(adj[v]):
                stack[-1] = (v, via, pos + 1)
                w, e = adj[v][pos]
                if e == via:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, e, 0))
                elif disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                below[u] += below[v]
                if low[v] > disc[u] and via < n_pairs:
                    bridges.append((via, v, root))
    return {
        pair
        for pair, child, root in bridges
        if below[child] == 0 or below[root] == below[child]
    }


# --- surgery ----------------------------------------------------------------


def _fresh_id(building: Building, stem: str) -> str:
    taken = {c.id for c in building.components}
    n = 1
    while f"{stem}{n}" in taken:
        n += 1
    return f"{stem}{n}"


def disjoint_union(a: Building, b: Building) -> Building:
    """Concatenation; clashing component ids from `b` are renamed deterministically."""
    taken = {c.id for c in a.components}
    rename: dict[str, str] = {}
    for comp in b.components:
        new = comp.id
        n = 1
        while new in taken:
            new = f"{comp.id}~{n}"
            n += 1
        taken.add(new)
        rename[comp.id] = new

    def site(s: Site) -> Site:
        return (rename[s[0]], s[1])

    return Building(
        components=a.components
        + tuple(replace(c, id=rename[c.id]) for c in b.components),
        breaking_pairs=a.breaking_pairs
        + tuple((site(p), site(n)) for p, n in b.breaking_pairs),
        nodal_pairs=a.nodal_pairs
        + tuple((rename[x], rename[y]) for x, y in b.nodal_pairs),
    )


def add_node(building: Building, comp_a: str, comp_b: str) -> Building:
    """Append one nodal pair (comp_a may equal comp_b); chi drops by exactly 2."""
    for cid in (comp_a, comp_b):
        building.component(cid)  # raises on an unknown id
    return replace(building, nodal_pairs=building.nodal_pairs + ((comp_a, comp_b),))


def glue_punctures(building: Building, pos_site: Site, neg_site: Site) -> Building:
    """Append a breaking pair joining two external punctures.

    They must have opposite signs, identical orbits and zero constraints, and
    neither may already be glued.
    """
    pos = building.puncture(pos_site)
    neg = building.puncture(neg_site)
    if pos.sign != 1 or neg.sign != -1:
        raise BuildingError("gluing needs a positive site first and a negative site second")
    if pos.orbit != neg.orbit:
        raise BuildingError(
            f"cannot glue punctures over distinct orbits {pos.orbit} and {neg.orbit}"
        )
    if pos.constraint != 0.0 or neg.constraint != 0.0:
        raise BuildingError("cannot glue constrained punctures (constraints must be 0)")
    taken = building.breaking_sites()
    for site in (pos_site, neg_site):
        if site in taken:
            raise BuildingError(f"puncture {site} is already glued")
    return replace(building, breaking_pairs=building.breaking_pairs + ((pos_site, neg_site),))


def _trivial_cylinder_over(building: Building, orbit: OrbitRef,
                           pos_constraint: float = 0.0,
                           neg_constraint: float = 0.0) -> Component:
    return Component(
        id=_fresh_id(building, "tcyl"),
        genus=0,
        punctures=(
            Puncture(sign=1, orbit=orbit, constraint=pos_constraint),
            Puncture(sign=-1, orbit=orbit, constraint=neg_constraint),
        ),
        rel_c1=0,
        kind="trivial",
    )


def augment(building: Building, site) -> Building:
    """Insert a trivial cylinder over an external puncture or a breaking pair.

    `site` is a (component id, puncture index) pair for the puncture case, or
    an integer index into breaking_pairs.  All of chi, genus, index and c_N
    are unchanged by this operation.
    """
    if isinstance(site, int):
        if not 0 <= site < len(building.breaking_pairs):
            raise BuildingError(f"breaking pair index {site} out of range")
        pos_site, neg_site = building.breaking_pairs[site]
        orbit = building.puncture(pos_site).orbit
        cyl = _trivial_cylinder_over(building, orbit)
        cyl_pos = (cyl.id, 0)
        cyl_neg = (cyl.id, 1)
        pairs = tuple(p for i, p in enumerate(building.breaking_pairs) if i != site)
        pairs += ((pos_site, cyl_neg), (cyl_pos, neg_site))
        return replace(
            building,
            components=building.components + (cyl,),
            breaking_pairs=pairs,
        )

    target_site: Site = (site[0], site[1])
    punct = building.puncture(target_site)
    if target_site in building.breaking_sites():
        raise BuildingError(f"puncture {target_site} is not external; augment at the pair")
    cyl = _trivial_cylinder_over(
        building,
        punct.orbit,
        pos_constraint=punct.constraint if punct.sign == 1 else 0.0,
        neg_constraint=punct.constraint if punct.sign == -1 else 0.0,
    )
    # the cylinder end matching the puncture's sign becomes the new external
    # puncture (inheriting the constraint); the opposite end glues to `site`,
    # whose constraint is reset to zero as a breaking puncture
    if punct.sign == 1:
        new_pair: BreakingPair = (target_site, (cyl.id, 1))
    else:
        new_pair = ((cyl.id, 0), target_site)
    return Building(
        components=_with_constraints(building.components, {target_site: 0.0}) + (cyl,),
        breaking_pairs=building.breaking_pairs + (new_pair,),
        nodal_pairs=building.nodal_pairs,
    )


def core(building: Building) -> Building:
    """Collapse every trivial cylinder, splicing its two ends together.

    One pass: from each puncture of another component that is glued to a
    cylinder, walk the chain of cylinders through the breaking pairs.  A chain
    reaching another such puncture becomes one breaking pair, recorded from
    its positive end; a chain ending at an external puncture moves that
    puncture's constraint onto the starting site.  The result is the unique
    building the input augments; it exists iff every cylinder lies on such a
    chain and none carries a node (a lone cylinder, a chain of cylinders, a
    cycle of cylinders, or a self-glued cylinder has no core).
    """
    cylinders = {c.id for c in building.components if is_trivial_cylinder(c)}
    if not cylinders:
        return building
    reached: set[str] = set()
    pairs: list[BreakingPair] = []
    moved: dict[Site, float] = {}
    for pos_site, neg_site in building.breaking_pairs:
        for start, end in ((pos_site, neg_site), (neg_site, pos_site)):
            if start[0] in cylinders:
                continue
            while end is not None and end[0] in cylinders:
                reached.add(end[0])
                outer = (end[0], 1 - end[1])
                end = building.pair_partner(outer)
            if end is None:
                moved[start] = building.puncture(outer).constraint
            elif start == pos_site:
                pairs.append((start, end))
    if reached != cylinders or any(building.node_endpoints(cid) for cid in cylinders):
        raise NoCoreError(
            "building has no core: a connected piece consists entirely of "
            "trivial cylinders"
        )
    return Building(
        components=_with_constraints(
            (c for c in building.components if c.id not in cylinders), moved
        ),
        breaking_pairs=tuple(pairs),
        nodal_pairs=building.nodal_pairs,
    )


def subbuilding(building: Building, ids: Iterable[str]) -> tuple[Building, dict[Site, float]]:
    """Restrict to the named components.

    Breaking pairs with one endpoint outside become external punctures of the
    result; severed breaking punctures carry induced constraint 0 and
    inherited external punctures keep their stored constraints.  Returns the
    sub-building and the induced constraints keyed by external site.
    """
    keep = set(ids)
    for cid in keep:
        building.component(cid)  # raises on an unknown id
    comps = tuple(c for c in building.components if c.id in keep)
    pairs = tuple(
        (p, n)
        for p, n in building.breaking_pairs
        if p[0] in keep and n[0] in keep
    )
    nodes = tuple(
        (a, b) for a, b in building.nodal_pairs if a in keep and b in keep
    )
    sub = Building(components=comps, breaking_pairs=pairs, nodal_pairs=nodes)
    induced = {site: sub.puncture(site).constraint for site in sub.external_sites()}
    return sub, induced


def set_constraints(building: Building, values: dict[Site, float]) -> Building:
    """Return a building whose inline puncture constraints are overridden at
    the given external sites."""
    if not values:
        return building
    external = set(building.external_sites())
    for site in values:
        if site not in external:
            raise BuildingError(f"constraint keyed by non-external site {site}")
    values = {site: float(value) for site, value in values.items()}
    return replace(building, components=_with_constraints(building.components, values))


def _with_constraints(components: Iterable[Component],
                      values: dict[Site, float]) -> tuple[Component, ...]:
    """The components with the puncture constraints at the given sites replaced."""
    out = []
    for comp in components:
        sites = [(comp.id, i) for i in range(len(comp.punctures))]
        if any(site in values for site in sites):
            comp = replace(comp, punctures=tuple(
                replace(p, constraint=values[site]) if site in values else p
                for site, p in zip(sites, comp.punctures)
            ))
        out.append(comp)
    return tuple(out)


def maximal_trivial_subbuildings(building: Building) -> list[list[str]]:
    """Connected pieces of the set of trivial components (node edges ignored:
    trivial subbuildings cannot contain nodes)."""
    trivial_ids = {c.id for c in building.components if c.kind == "trivial"}
    adj: dict[str, set[str]] = {cid: set() for cid in trivial_ids}
    for pos_site, neg_site in building.breaking_pairs:
        if pos_site[0] in trivial_ids and neg_site[0] in trivial_ids:
            adj[pos_site[0]].add(neg_site[0])
            adj[neg_site[0]].add(pos_site[0])
    out = []
    remaining = set(trivial_ids)
    while remaining:
        start = min(remaining)
        piece = _reachable(adj, start)
        remaining -= piece
        out.append(sorted(piece))
    return out
