"""Shared test helpers: fixture paths, loop builders, random corpora, oracles."""

from __future__ import annotations

import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np

from hbcalc.buildings import (
    Building,
    Component,
    Puncture,
    component_graph,
    connected_component_ids,
    is_trivial_cylinder,
)
from hbcalc.errors import DegenerateThresholdError, SpectralResolutionError
from hbcalc.orbits import Catalog, OrbitRef
from hbcalc.spectral import J0, FlowLoop, monodromy, spectrum_from_loop

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

#: the five orbits the random corpus draws from
CORPUS_ORBITS = ("rot_p", "rot_m", "hyp_even", "hyp_odd", "hyp2")


# --- model loops -------------------------------------------------------------


def rotation_loop(theta: float, n: int = 33) -> FlowLoop:
    return FlowLoop.constant(theta * np.eye(2), n=n)


def hyperbolic_loop(a: float = 1.0, n: int = 33) -> FlowLoop:
    return FlowLoop.constant(np.diag([a, -a]), n=n)


def rotating_axis_loop(half_turns: int, a: float = 0.7, n: int = 33) -> FlowLoop:
    ts = np.arange(n) / n
    phase = 2 * math.pi * half_turns * ts
    s = np.zeros((n, 2, 2))
    s[:, 0, 0] = math.pi * half_turns + a * np.sin(phase)
    s[:, 0, 1] = -a * np.cos(phase)
    s[:, 1, 0] = -a * np.cos(phase)
    s[:, 1, 1] = math.pi * half_turns - a * np.sin(phase)
    return FlowLoop(s)


def analytic_rotation_table(theta: float, window: float):
    """Exact spectrum of the constant-rotation operator: 2*pi*m - theta with
    winding m and multiplicity two (the independent oracle for that model)."""
    out = []
    m = math.floor((-window + theta) / (2 * math.pi)) - 1
    while True:
        lam = 2 * math.pi * m - theta
        if lam > window:
            break
        if lam >= -window:
            out.append((lam, m, 2))
        m += 1
    return out


def random_trig_loop(rng: np.random.Generator, degree: int = 3, scale: float = 2.0,
                     n: int = 201) -> FlowLoop:
    ts = np.arange(n) / n

    def series():
        out = np.full(n, rng.uniform(-scale, scale))
        for d in range(1, degree + 1):
            out += rng.uniform(-scale, scale) * np.cos(2 * math.pi * d * ts)
            out += rng.uniform(-scale, scale) * np.sin(2 * math.pi * d * ts)
        return out

    s11, s12, s22 = series(), series(), series()
    arr = np.empty((n, 2, 2))
    arr[:, 0, 0] = s11
    arr[:, 0, 1] = s12
    arr[:, 1, 0] = s12
    arr[:, 1, 1] = s22
    return FlowLoop(arr)


def nondegenerate_trig_loop(rng: np.random.Generator, **kwargs) -> FlowLoop:
    """Random loop whose covers 1 and 2 are safely nondegenerate."""
    while True:
        loop = random_trig_loop(rng, **kwargs)
        try:
            ok = True
            for k in (1, 2):
                tr = float(np.trace(monodromy(loop, k)))
                if abs(tr - 2.0) < 1e-3:
                    ok = False
                    break
                table = spectrum_from_loop(loop.cover(k), window=1.0)
                if table.min_abs_eigenvalue() < 0.05:
                    ok = False
                    break
        except (SpectralResolutionError, DegenerateThresholdError):
            ok = False
        if ok:
            return loop


# --- sequential RK4 reference ------------------------------------------------


def reference_integrate_frames(loop: FlowLoop, cover: int, steps: int | None,
                               keep_path: bool) -> np.ndarray:
    """RK4 for Psi' = J0 S(t) Psi taken one step at a time over every period.

    Drop-in oracle for ``hbcalc.spectral._integrate_frames``: same step count,
    same half-grid samples, but no closed-form step matrices, no scan and no
    cover shortcut.
    """
    if cover < 1:
        raise ValueError(f"cover must be >= 1, got {cover}")
    strength = loop.strength()
    n_steps = steps or max(2048, 256 * int(math.ceil(strength + 1)))
    h = 1.0 / n_steps
    ts = np.arange(2 * n_steps + 1) * (h / 2)
    s_half = loop.value_at(ts % 1.0)
    a_half = np.einsum("ij,tjk->tik", J0, s_half)

    total = cover * n_steps
    path = np.empty((total + 1, 2, 2))
    psi = np.eye(2)
    path[0] = psi
    for step in range(total):
        j = 2 * (step % n_steps)
        a0, a1, a2 = a_half[j], a_half[j + 1], a_half[j + 2]
        k1 = a0 @ psi
        k2 = a1 @ (psi + 0.5 * h * k1)
        k3 = a1 @ (psi + 0.5 * h * k2)
        k4 = a2 @ (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path[step + 1] = psi
    return path if keep_path else path[-1:]


# --- per-pair trivial-breaking reference ---------------------------------------


def reference_trivial_breaking(building: Building, pair_index: int) -> bool:
    """Whether one breaking pair is trivial, decided by deleting it and searching.

    Oracle for ``hbcalc.buildings.trivial_breaking_pairs``: rebuilds the
    building without the pair, then searches the graph from both endpoints
    (no low-links, no subtree counts).  Works on disconnected buildings.
    """
    pos_site, neg_site = building.breaking_pairs[pair_index]
    trimmed = replace(
        building,
        breaking_pairs=tuple(
            p for i, p in enumerate(building.breaking_pairs) if i != pair_index
        ),
    )
    adj = component_graph(trimmed)

    def reachable(start):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    side = reachable(pos_site[0])
    if neg_site[0] in side:
        return False  # deletion does not disconnect
    other = reachable(neg_site[0])
    return any(
        all(is_trivial_cylinder(trimmed.component(cid)) for cid in piece)
        for piece in (side, other)
    )


# --- random building corpus ---------------------------------------------------


def safe_constraint(catalog: Catalog, ref: OrbitRef, rng: np.random.Generator) -> float:
    """A positive constraint with both +/- cuts far from the spectrum."""
    table = catalog.table(ref, 6.0)
    eigenvalues = table.eigenvalues()
    for _ in range(60):
        c = round(float(rng.uniform(0.2, 3.0)), 3)
        if all(abs(x - c) > 0.1 and abs(x + c) > 0.1 for x in eigenvalues):
            return c
    raise AssertionError(f"no safe constraint found for {ref}")


def random_building(rng: np.random.Generator, catalog: Catalog,
                    max_components: int = 6, max_punctures: int = 4,
                    orbit_ids=CORPUS_ORBITS) -> Building:
    """A random well-formed connected building over the fixture orbits."""
    n = int(rng.integers(1, max_components + 1))
    components = []
    for i in range(n):
        cid = f"c{i}"
        roll = rng.random()
        if roll < 0.12 and n > 1:
            components.append(
                Component(cid, int(rng.integers(0, 3)), (), kind="constant")
            )
            continue
        if roll < 0.35:
            ref = OrbitRef(str(rng.choice(orbit_ids)), int(rng.integers(1, 3)))
            components.append(
                Component(cid, 0, (Puncture(1, ref), Puncture(-1, ref)), kind="trivial")
            )
            continue
        punctures = []
        for _ in range(int(rng.integers(1, max_punctures + 1))):
            ref = OrbitRef(str(rng.choice(orbit_ids)), int(rng.integers(1, 3)))
            sign = 1 if rng.random() < 0.5 else -1
            constraint = (
                safe_constraint(catalog, ref, rng) if rng.random() < 0.25 else 0.0
            )
            punctures.append(Puncture(sign, ref, constraint=constraint))
        components.append(
            Component(
                cid,
                int(rng.integers(0, 3)),
                tuple(punctures),
                rel_c1=int(rng.integers(-2, 3)),
            )
        )

    building = Building(components=tuple(components))

    # breaking pairs among unconstrained opposite-sign punctures over one orbit
    by_orbit_pos: dict[OrbitRef, list] = {}
    by_orbit_neg: dict[OrbitRef, list] = {}
    for comp in building.components:
        for idx, p in enumerate(comp.punctures):
            if p.constraint != 0.0:
                continue
            target = by_orbit_pos if p.sign == 1 else by_orbit_neg
            target.setdefault(p.orbit, []).append((comp.id, idx))
    pairs = []
    for orbit, pos_sites in sorted(by_orbit_pos.items()):
        neg_sites = by_orbit_neg.get(orbit, [])
        if not neg_sites:
            continue
        count = int(rng.integers(0, min(len(pos_sites), len(neg_sites)) + 1))
        pos_pick = list(rng.permutation(len(pos_sites))[:count])
        neg_pick = list(rng.permutation(len(neg_sites))[:count])
        pairs.extend(
            (pos_sites[i], neg_sites[j]) for i, j in zip(pos_pick, neg_pick)
        )
    nodes = []
    building = Building(components=tuple(components), breaking_pairs=tuple(pairs))

    # connect the pieces with nodes (constant components can only attach this way)
    pieces = connected_component_ids(building)
    while len(pieces) > 1:
        nodes.append((pieces[0][0], pieces[1][0]))
        building = Building(
            components=tuple(components),
            breaking_pairs=tuple(pairs),
            nodal_pairs=tuple(nodes),
        )
        pieces = connected_component_ids(building)
    if rng.random() < 0.2:
        ids = [c.id for c in components]
        nodes.append(
            (str(rng.choice(ids)), str(rng.choice(ids)))
        )
        building = Building(
            components=tuple(components),
            breaking_pairs=tuple(pairs),
            nodal_pairs=tuple(nodes),
        )
    return building


# --- exhaustive trivial-building enumeration -----------------------------------


def iter_trivial_buildings(max_components: int = 4, max_punctures: int = 3,
                           max_genus: int = 2):
    """Connected trivial buildings with at least one external puncture of each
    sign, yielded as (chi, genus, n_external, structure).

    Components are trivial curves (genus g, p positive and q negative
    punctures, p, q >= 1); breaking pairs form a matching between positive
    and negative slots.  Pure combinatorics; the caller cross-checks a sample
    against the real Building machinery.
    """
    types = [
        (g, p, q)
        for g in range(max_genus + 1)
        for p in range(1, max_punctures + 1)
        for q in range(1, max_punctures + 1)
        if p + q <= max_punctures
    ]
    for count in range(1, max_components + 1):
        for combo in itertools.combinations_with_replacement(types, count):
            chi = sum(2 - 2 * g - (p + q) for g, p, q in combo)
            pos_slots = [i for i, (g, p, q) in enumerate(combo) for _ in range(p)]
            neg_slots = [i for i, (g, p, q) in enumerate(combo) for _ in range(q)]
            total = len(pos_slots) + len(neg_slots)
            max_m = min(len(pos_slots), len(neg_slots))
            for m in range(max(0, count - 1), max_m + 1):
                for pos_sel in itertools.combinations(range(len(pos_slots)), m):
                    for neg_sel in itertools.permutations(range(len(neg_slots)), m):
                        edges = [
                            (pos_slots[a], neg_slots[b])
                            for a, b in zip(pos_sel, neg_sel)
                        ]
                        # connectivity via union-find
                        parent = list(range(count))

                        def find(x):
                            while parent[x] != x:
                                parent[x] = parent[parent[x]]
                                x = parent[x]
                            return x

                        for a, b in edges:
                            parent[find(a)] = find(b)
                        if len({find(i) for i in range(count)}) != 1:
                            continue
                        n_ext = total - 2 * m
                        ext_pos = len(pos_slots) - m
                        ext_neg = len(neg_slots) - m
                        if ext_pos < 1 or ext_neg < 1:
                            continue
                        genus2 = 2 - n_ext - chi
                        yield chi, genus2, n_ext, (combo, edges)


def build_trivial_building(combo, edges, orbit=OrbitRef("gamma", 1)) -> Building:
    """Materialize one enumerated structure with the real data model."""
    components = []
    for i, (g, p, q) in enumerate(combo):
        punctures = tuple(Puncture(1, orbit) for _ in range(p)) + tuple(
            Puncture(-1, orbit) for _ in range(q)
        )
        components.append(Component(f"c{i}", g, punctures, kind="trivial"))
    used_pos: dict[int, int] = {}
    used_neg: dict[int, int] = {}
    pairs = []
    for a, b in edges:
        (g, p, q) = combo[a]
        pos_idx = used_pos.get(a, 0)
        used_pos[a] = pos_idx + 1
        neg_idx = combo[b][1] + used_neg.get(b, 0)
        used_neg[b] = used_neg.get(b, 0) + 1
        pairs.append(((f"c{a}", pos_idx), (f"c{b}", neg_idx)))
    return Building(components=tuple(components), breaking_pairs=tuple(pairs))
