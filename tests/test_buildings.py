import json
from dataclasses import replace

import numpy as np
import pytest

from hbcalc.buildings import (
    Building,
    Component,
    Puncture,
    add_node,
    augment,
    core,
    disjoint_union,
    euler_char,
    glue_punctures,
    is_connected,
    is_trivial_cylinder,
    maximal_trivial_subbuildings,
    subbuilding,
    trivial_breaking_pairs,
)
from hbcalc.cli import building_to_data
from hbcalc.errors import BuildingError, NoCoreError
from hbcalc.orbits import OrbitRef

from support import (
    arithmetic_genus,
    build_trivial_building,
    iter_trivial_buildings,
    random_building,
    reference_core,
    reference_trivial_breaking,
)

G = OrbitRef("gamma", 1)
G2 = OrbitRef("gamma", 2)
D = OrbitRef("delta", 1)


def tcyl(cid, orbit=G):
    return Component(cid, 0, (Puncture(1, orbit), Puncture(-1, orbit)), kind="trivial")


def plain(cid, *signed_orbits, genus=0):
    return Component(
        cid, genus, tuple(Puncture(s, o) for s, o in signed_orbits), kind="nontrivial"
    )


class TestInvariantValidation:
    def test_breaking_pair_orbit_mismatch(self):
        comps = (plain("a", (1, G)), plain("b", (-1, D)))
        with pytest.raises(BuildingError, match="distinct orbits"):
            Building(components=comps, breaking_pairs=((("a", 0), ("b", 0)),))

    def test_puncture_sign(self):
        with pytest.raises(BuildingError) as err:
            Puncture(0, G)
        assert str(err.value) == "puncture sign must be +1 or -1, got 0"

    def test_breaking_pair_sign_mismatch(self):
        comps = (plain("a", (1, G)), plain("b", (1, G)))
        with pytest.raises(BuildingError, match="positive"):
            Building(components=comps, breaking_pairs=((("a", 0), ("b", 0)),))

    def test_breaking_pair_constraint(self):
        comps = (
            plain("a", (1, G)),
            Component("b", 0, (Puncture(-1, G, constraint=1.0),)),
        )
        with pytest.raises(BuildingError, match="constraint"):
            Building(components=comps, breaking_pairs=((("a", 0), ("b", 0)),))

    def test_puncture_in_two_pairs(self):
        comps = (plain("a", (1, G)), plain("b", (-1, G), (-1, G)))
        with pytest.raises(BuildingError, match="two breaking pairs"):
            Building(
                components=comps,
                breaking_pairs=((("a", 0), ("b", 0)), (("a", 0), ("b", 1))),
            )

    def test_trivial_component_needs_both_signs(self):
        with pytest.raises(BuildingError, match="positive and one negative"):
            Component("t", 0, (Puncture(1, G), Puncture(1, G)), kind="trivial")

    def test_trivial_component_single_orbit(self):
        with pytest.raises(BuildingError, match="distinct"):
            Component("t", 0, (Puncture(1, G), Puncture(-1, D)), kind="trivial")

    def test_constant_component_without_punctures(self):
        with pytest.raises(BuildingError, match="constant"):
            Component("k", 0, (Puncture(1, G),), kind="constant")

    def test_trivial_cylinder_recognition(self):
        assert is_trivial_cylinder(tcyl("t"))
        branched = Component(
            "t", 0, (Puncture(1, G2), Puncture(-1, G), Puncture(-1, G)), kind="trivial"
        )
        assert not is_trivial_cylinder(branched)


class TestEulerCharacteristic:
    def test_trivial_cylinder(self):
        assert euler_char(Building(components=(tcyl("t"),))) == 0

    def test_sphere_with_three_node_endpoints(self):
        b = Building(
            components=(
                Component("s", 0, (), kind="constant"),
                plain("u", (1, G)),
            ),
            nodal_pairs=(("s", "u"), ("s", "u"), ("s", "u")),
        )
        # the constant sphere contributes 2 - 0 - 3 = -1
        assert euler_char(b) == -1 + (2 - 1 - 3)

    def test_two_component_chain(self):
        b = Building(
            components=(plain("a", (1, G), (-1, G)), plain("b", (1, G))),
            breaking_pairs=((("b", 0), ("a", 1)),),
        )
        assert euler_char(b) == 1


class TestArithmeticGenus:
    def test_trivial_cylinder(self):
        assert arithmetic_genus(Building(components=(tcyl("t"),))) == 0

    def test_two_component_chain(self):
        b = Building(
            components=(plain("a", (1, G), (-1, G)), plain("b", (1, G))),
            breaking_pairs=((("b", 0), ("a", 1)),),
        )
        assert arithmetic_genus(b) == 0

    def test_two_tori_glued_along_two_necks(self):
        b = Building(
            components=(
                plain("a", (1, G), (1, G), genus=1),
                plain("b", (-1, G), (-1, G), genus=1),
            ),
            breaking_pairs=((("a", 0), ("b", 0)), (("a", 1), ("b", 1))),
        )
        assert euler_char(b) == -4
        assert arithmetic_genus(b) == 3

    def test_disconnected_rejected(self):
        b = Building(components=(tcyl("a"), tcyl("b")))
        with pytest.raises(BuildingError, match="connected"):
            arithmetic_genus(b)


class TestTrivialBreaking:
    def test_cylinder_edge_is_trivial(self):
        b = Building(
            components=(tcyl("t"), plain("v", (1, G), (-1, G))),
            breaking_pairs=((("v", 0), ("t", 1)),),
        )
        assert trivial_breaking_pairs(b) == {0}

    def test_nontrivial_edge(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("w", 0), ("v", 1)),),
        )
        assert trivial_breaking_pairs(b) == set()

    def test_cycle_edges_are_nontrivial(self):
        b = Building(
            components=(
                tcyl("t"),
                plain("v", (1, G), (1, G), (-1, G), (-1, G)),
            ),
            breaking_pairs=((("v", 0), ("t", 1)), (("t", 0), ("v", 2))),
        )
        assert trivial_breaking_pairs(b) == set()


def reference_pairs(b):
    return {i for i in range(len(b.breaking_pairs)) if reference_trivial_breaking(b, i)}


def random_multigraph(rng):
    """Cylinders, other trivial curves, nontrivial and constant components over
    one orbit, with breaking pairs matched at random (self-glued and parallel
    pairs included), random nodes, and no connectivity guarantee."""
    components = []
    for i in range(int(rng.integers(1, 9))):
        roll = rng.random()
        if roll < 0.45:
            components.append(tcyl(f"t{i}"))
        elif roll < 0.55:
            components.append(Component(f"k{i}", 0, (), kind="constant"))
        elif roll < 0.65:
            components.append(
                Component(f"r{i}", 1, (Puncture(1, G), Puncture(-1, G)), kind="trivial")
            )
        else:
            n_pos, n_neg = rng.integers(0, 3, size=2)
            components.append(
                plain(f"v{i}", *([(1, G)] * int(n_pos) + [(-1, G)] * int(n_neg)))
            )
    pos = [(c.id, j) for c in components for j, p in enumerate(c.punctures) if p.sign == 1]
    neg = [(c.id, j) for c in components for j, p in enumerate(c.punctures) if p.sign == -1]
    count = int(rng.integers(0, min(len(pos), len(neg)) + 1))
    pairs = tuple(
        (pos[a], neg[b])
        for a, b in zip(rng.permutation(len(pos))[:count], rng.permutation(len(neg))[:count])
    )
    ids = [c.id for c in components]
    nodes = tuple(
        (str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(int(rng.integers(0, 3)))
    )
    return Building(components=tuple(components), breaking_pairs=pairs, nodal_pairs=nodes)


class TestTrivialBreakingPairs:
    """The one-pass bridge routine against the per-pair deletion oracle."""

    HAND_BUILT = {
        "self_glued_cylinder": (
            Building(components=(tcyl("t"),), breaking_pairs=((("t", 0), ("t", 1)),)),
            set(),
        ),
        "two_parallel_pairs": (
            Building(
                components=(plain("v", (1, G), (1, G)), plain("w", (-1, G), (-1, G))),
                breaking_pairs=((("v", 0), ("w", 0)), (("v", 1), ("w", 1))),
            ),
            set(),
        ),
        # the cylinder hangs off w, but the node joins w to v: neither side is
        # all cylinders once node edges count
        "node_only_connection": (
            Building(
                components=(plain("v", (1, G)), tcyl("t"), plain("w", (-1, G))),
                breaking_pairs=((("t", 0), ("w", 0)),),
                nodal_pairs=(("t", "v"),),
            ),
            set(),
        ),
        "cylinder_chain_on_a_curve": (
            Building(
                components=(tcyl("t1"), tcyl("t2"), plain("v", (1, G), (-1, G))),
                breaking_pairs=((("v", 0), ("t1", 1)), (("t1", 0), ("t2", 1))),
            ),
            {0, 1},
        ),
        "cycle_of_cylinders": (
            Building(
                components=(tcyl("t1"), tcyl("t2"), tcyl("t3")),
                breaking_pairs=(
                    (("t1", 0), ("t2", 1)),
                    (("t2", 0), ("t3", 1)),
                    (("t3", 0), ("t1", 1)),
                ),
            ),
            set(),
        ),
        "disconnected": (
            Building(
                components=(
                    plain("v", (1, G)), tcyl("t"),
                    plain("w1", (1, G)), plain("w2", (-1, G)),
                    tcyl("u1"), tcyl("u2"),
                ),
                breaking_pairs=(
                    (("v", 0), ("t", 1)),
                    (("w1", 0), ("w2", 0)),
                    (("u1", 0), ("u2", 1)),
                ),
            ),
            {0, 2},
        ),
    }

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        b, expected = self.HAND_BUILT[name]
        assert trivial_breaking_pairs(b) == expected
        assert reference_pairs(b) == expected

    def test_random_multigraphs(self):
        rng = np.random.default_rng(2024)
        seen = dict.fromkeys(("trivial", "nontrivial", "self", "parallel", "node", "split"), 0)
        for _ in range(3000):
            b = random_multigraph(rng)
            got = trivial_breaking_pairs(b)
            assert got == reference_pairs(b), b
            ends = [(p[0], n[0]) for p, n in b.breaking_pairs]
            seen["trivial"] += len(got)
            seen["nontrivial"] += len(ends) - len(got)
            seen["self"] += sum(a == c for a, c in ends)
            seen["parallel"] += len(ends) - len({tuple(sorted(e)) for e in ends})
            seen["node"] += bool(b.nodal_pairs)
            seen["split"] += not is_connected(b)
        assert min(seen.values()) >= 100, seen

    def test_random_buildings_and_augments(self, fixture_catalog):
        rng = np.random.default_rng(7)
        for _ in range(150):
            b = random_building(rng, fixture_catalog)
            assert trivial_breaking_pairs(b) == reference_pairs(b)
            for where in list(range(len(b.breaking_pairs))) + b.external_sites():
                a = augment(b, where)
                assert trivial_breaking_pairs(a) == reference_pairs(a)

    def test_trivial_building_structures(self):
        rng = np.random.default_rng(5)
        seen = 0
        for _chi, _genus2, _n_ext, (combo, edges) in iter_trivial_buildings(3, 3, 1):
            if rng.random() < 0.1:
                b = build_trivial_building(combo, edges)
                assert trivial_breaking_pairs(b) == reference_pairs(b)
                seen += 1
        assert seen > 50


class TestBuildingIndex:
    def test_index_is_not_part_of_the_value(self):
        b = Building(
            components=(tcyl("t"), plain("v", (1, G), (-1, G))),
            breaking_pairs=((("v", 0), ("t", 1)),),
            nodal_pairs=(("v", "v"),),
        )
        again = replace(b)
        assert again == b and hash(again) == hash(b)
        assert "_partner" not in repr(b)
        assert b.canonical() == b.canonical()
        assert b.pair_partner(("t", 1)) == ("v", 0)
        assert b.pair_partner(("t", 0)) is None
        assert b.node_endpoints("v") == 2 and b.node_endpoints("t") == 0
        assert b.component("t").id == "t"
        with pytest.raises(BuildingError, match="unknown component"):
            b.component("x")

    def test_puncture_rejects_out_of_range_sites(self):
        b = Building(components=(plain("v", (1, G), (-1, G)),))
        assert b.puncture(("v", 1)).sign == -1
        for site in (("v", -1), ("v", 2)):
            with pytest.raises(BuildingError, match="out of range"):
                b.puncture(site)
        with pytest.raises(BuildingError, match="unknown component"):
            b.puncture(("x", 0))


class TestDisjointUnion:
    def test_identity_on_empty(self):
        b = Building(components=(tcyl("t"),))
        assert disjoint_union(Building(components=()), b).same_as(b)

    def test_chi_additive_and_renaming(self):
        a = Building(components=(tcyl("t"),))
        b = Building(components=(tcyl("t"), plain("v", (1, G))))
        u = disjoint_union(a, b)
        assert euler_char(u) == euler_char(a) + euler_char(b)
        assert sorted(c.id for c in u.components) == ["t", "t~1", "v"]

    def test_union_commutes_with_add_node(self):
        a = Building(components=(plain("v", (1, G)), plain("u", (-1, G))))
        b = Building(components=(plain("w", (1, G)),))
        first = add_node(disjoint_union(a, b), "v", "u")
        second = disjoint_union(add_node(a, "v", "u"), b)
        assert first.same_as(second)


class TestAddNode:
    def test_chi_drops_by_two(self):
        b = Building(components=(plain("v", (1, G)), plain("w", (-1, G))))
        assert euler_char(add_node(b, "v", "w")) == euler_char(b) - 2

    def test_self_node_raises_genus(self):
        b = Building(components=(plain("v", (1, G)),))
        noded = add_node(b, "v", "v")
        assert arithmetic_genus(noded) == arithmetic_genus(b) + 1

    def test_node_connects(self):
        b = Building(components=(plain("v", (1, G)), plain("w", (-1, G))))
        assert not is_connected(b)
        assert is_connected(add_node(b, "v", "w"))

    def test_empty_building_is_not_connected(self):
        # no surface, so no genus: index reports none and the stable check refuses it
        assert not is_connected(Building(components=()))

    def test_unknown_component(self):
        b = Building(components=(plain("v", (1, G)),))
        with pytest.raises(BuildingError, match="unknown"):
            add_node(b, "v", "nope")


class TestGluePunctures:
    def test_glue_two_cylinders(self):
        b = Building(components=(tcyl("a"), tcyl("b")))
        glued = glue_punctures(b, ("a", 0), ("b", 1))
        assert euler_char(glued) == 0
        assert len(glued.external_sites()) == 2

    def test_constraint_must_be_zero(self):
        comps = (
            Component("a", 0, (Puncture(1, G, constraint=0.5),)),
            plain("b", (-1, G)),
        )
        b = Building(components=comps)
        with pytest.raises(BuildingError, match="constrained"):
            glue_punctures(b, ("a", 0), ("b", 0))

    def test_orbit_mismatch(self):
        b = Building(components=(plain("a", (1, G)), plain("b", (-1, D))))
        with pytest.raises(BuildingError, match="orbits"):
            glue_punctures(b, ("a", 0), ("b", 0))

    def test_sign_order(self):
        b = Building(components=(plain("a", (1, G)), plain("b", (-1, G))))
        with pytest.raises(BuildingError, match="positive"):
            glue_punctures(b, ("b", 0), ("a", 0))

    def test_already_glued(self):
        b = Building(components=(tcyl("a"), tcyl("b")))
        glued = glue_punctures(b, ("a", 0), ("b", 1))
        with pytest.raises(BuildingError, match="already"):
            glue_punctures(glued, ("a", 0), ("b", 1))


class TestAugment:
    def test_augment_cylinder_gives_chain(self):
        b = Building(components=(tcyl("t"),))
        out = augment(b, ("t", 0))
        assert len(out.components) == 2
        assert all(is_trivial_cylinder(c) for c in out.components)
        assert euler_char(out) == 0
        assert arithmetic_genus(out) == 0

    def test_augment_at_pair_counts(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("w", 0), ("v", 1)),),
        )
        out = augment(b, 0)
        assert len(out.components) == len(b.components) + 1
        assert len(out.breaking_pairs) == len(b.breaking_pairs) + 1
        assert euler_char(out) == euler_char(b)

    def test_augment_moves_constraint_to_new_end(self):
        b = Building(
            components=(
                Component("v", 0, (Puncture(1, G, constraint=1.5),), kind="nontrivial"),
            )
        )
        out = augment(b, ("v", 0))
        assert out.puncture(("v", 0)).constraint == 0.0
        cyl = next(c for c in out.components if c.id != "v")
        assert cyl.punctures[0].constraint == 1.5  # positive end inherits it
        assert out.puncture(("v", 0)) in (
            out.puncture(p) for pair in out.breaking_pairs for p in pair
        )


class TestCore:
    def test_splices_middle_cylinder(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("m"), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("m", 0), ("v", 1)), (("w", 0), ("m", 1))),
        )
        out = core(b)
        assert sorted(c.id for c in out.components) == ["v", "w"]
        assert out.breaking_pairs == ((("w", 0), ("v", 1)),)

    def test_idempotent(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("m")),
            breaking_pairs=((("m", 0), ("v", 1)),),
        )
        once = core(b)
        assert core(once).same_as(once)

    def test_all_trivial_has_no_core(self):
        b = Building(
            components=(tcyl("a"), tcyl("b")),
            breaking_pairs=((("a", 0), ("b", 1)),),
        )
        with pytest.raises(NoCoreError):
            core(b)

    def test_core_undoes_augment_at_puncture(self):
        b = Building(
            components=(
                Component(
                    "v",
                    0,
                    (
                        Puncture(1, G, constraint=2.0, controlling_winding=1),
                        Puncture(-1, G),
                    ),
                ),
            )
        )
        assert core(augment(b, ("v", 0))).same_as(b)

    def test_core_undoes_augment_at_pair(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("w", 0), ("v", 1)),),
        )
        assert core(augment(b, 0)).same_as(core(b))
        assert core(augment(b, 0)).same_as(b)

    def test_noded_cylinder_is_irreducible(self):
        # a trivial cylinder carrying a node is never produced by
        # augmentation, so nothing can collapse it away
        b = Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("m")),
            breaking_pairs=((("m", 0), ("v", 1)),),
            nodal_pairs=(("m", "v"),),
        )
        with pytest.raises(NoCoreError):
            core(b)

    def test_augment_and_core_preserve_connectivity(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("m"), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("m", 0), ("v", 1)), (("w", 0), ("m", 1))),
        )
        assert is_connected(b)
        assert is_connected(augment(b, ("v", 0)))
        assert is_connected(augment(b, 0))
        assert is_connected(core(b))


def collapse(fn, building):
    """The core of `building` under `fn`, or the NoCoreError message."""
    try:
        return fn(building)
    except NoCoreError as exc:
        return f"NoCoreError: {exc}"


def as_json(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    return json.dumps(building_to_data(outcome), sort_keys=True, indent=2) + "\n"


class TestCoreOracle:
    """The one-pass core against the iterative reference: the same canonical
    JSON or the same NoCoreError message, from at most one new Building."""

    HAND_BUILT = {
        # v <- t1 <- t2, the chain capped by t2's constrained positive end
        "constrained_chain_end": Building(
            components=(
                plain("v", (1, G), (-1, G)),
                tcyl("t1"),
                Component("t2", 0, (Puncture(1, G, constraint=1.25), Puncture(-1, G)),
                          kind="trivial"),
            ),
            breaking_pairs=((("v", 0), ("t1", 1)), (("t1", 0), ("t2", 1))),
        ),
        # w's positive end climbs two cylinders back into w itself
        "chain_back_to_its_curve": Building(
            components=(tcyl("t1"), plain("w", (1, G), (-1, G)), tcyl("t2")),
            breaking_pairs=((("w", 0), ("t1", 1)), (("t1", 0), ("t2", 1)),
                            (("t2", 0), ("w", 1))),
        ),
        "cycle_of_cylinders": Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("t1"), tcyl("t2")),
            breaking_pairs=((("t1", 0), ("t2", 1)), (("t2", 0), ("t1", 1))),
        ),
        "self_glued_cylinder": Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("t")),
            breaking_pairs=((("t", 0), ("t", 1)),),
        ),
        "standalone_chain": Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("t1"), tcyl("t2")),
            breaking_pairs=((("t1", 0), ("t2", 1)),),
        ),
        "noded_cylinder": Building(
            components=(plain("v", (1, G), (-1, G)), tcyl("m"), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("m", 0), ("v", 1)), (("w", 0), ("m", 1))),
            nodal_pairs=(("m", "m"),),
        ),
    }

    @pytest.fixture
    def built(self, monkeypatch):
        """A one-element list counting Building constructions."""
        count = [0]
        real = Building.__post_init__

        def counting(self):
            count[0] += 1
            real(self)

        monkeypatch.setattr(Building, "__post_init__", counting)
        return count

    def check(self, building, built):
        expected = as_json(collapse(reference_core, building))
        built[0] = 0
        got = collapse(core, building)
        assert built[0] <= 1, building
        assert as_json(got) == expected, building
        return got

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name, built):
        got = self.check(self.HAND_BUILT[name], built)
        if name == "constrained_chain_end":
            assert got.breaking_pairs == ()
            assert got.puncture(("v", 0)).constraint == 1.25
        elif name == "chain_back_to_its_curve":
            assert got.breaking_pairs == ((("w", 0), ("w", 1)),)
        else:
            assert isinstance(got, str) and got.startswith("NoCoreError: building has no core")

    def test_random_buildings_augments_and_nodes(self, fixture_catalog, built):
        rng = np.random.default_rng(31)
        outcomes = {"core": 0, "none": 0}
        for _ in range(120):
            b = random_building(rng, fixture_catalog)
            variants = [b]
            for where in list(range(len(b.breaking_pairs))) + b.external_sites():
                a = augment(b, where)
                sites = list(range(len(a.breaking_pairs))) + a.external_sites()
                variants.append(a)
                variants.append(augment(a, sites[int(rng.integers(len(sites)))]))
                ids = [c.id for c in a.components]
                variants.append(add_node(a, ids[-1], str(rng.choice(ids))))
            for v in variants:
                outcomes["none" if isinstance(self.check(v, built), str) else "core"] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_random_multigraphs(self, built):
        rng = np.random.default_rng(2025)
        outcomes = {"core": 0, "none": 0}
        for _ in range(1500):
            got = self.check(random_multigraph(rng), built)
            outcomes["none" if isinstance(got, str) else "core"] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_trivial_building_structures(self, built):
        rng = np.random.default_rng(17)
        seen = 0
        for _chi, _genus2, _n_ext, (combo, edges) in iter_trivial_buildings(3, 3, 1):
            if rng.random() < 0.1:
                b = build_trivial_building(combo, edges)
                self.check(b, built)
                self.check(augment(b, b.external_sites()[0]), built)
                seen += 1
        assert seen > 50


class TestSubbuilding:
    def test_full_subbuilding_is_identity(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("w", 0), ("v", 1)),),
        )
        sub, induced = subbuilding(b, ["v", "w"])
        assert sub.same_as(b)
        assert induced == {("v", 0): 0.0, ("w", 1): 0.0}

    def test_severed_pair_becomes_external_at_zero(self):
        b = Building(
            components=(plain("v", (1, G), (-1, G)), plain("w", (1, G), (-1, G))),
            breaking_pairs=((("w", 0), ("v", 1)),),
        )
        sub, induced = subbuilding(b, ["v"])
        assert sub.external_sites() == [("v", 0), ("v", 1)]
        assert induced[("v", 1)] == 0.0

    def test_maximal_trivial_extraction(self):
        b = Building(
            components=(
                plain("v", (1, G), (-1, G)),
                tcyl("t1"),
                tcyl("t2"),
                plain("w", (1, G), (-1, G)),
            ),
            breaking_pairs=(
                (("t1", 0), ("v", 1)),
                (("t2", 0), ("t1", 1)),
                (("w", 0), ("t2", 1)),
            ),
        )
        assert maximal_trivial_subbuildings(b) == [["t1", "t2"]]
        sub, induced = subbuilding(b, ["t1", "t2"])
        assert len(sub.breaking_pairs) == 1
        assert sorted(induced) == [("t1", 0), ("t2", 1)]

    def test_severed_nodes_disappear(self):
        b = Building(
            components=(plain("v", (1, G)), plain("w", (-1, G))),
            nodal_pairs=(("v", "w"),),
        )
        sub, _ = subbuilding(b, ["v"])
        assert sub.nodal_pairs == ()


class TestTrivialBuildingDichotomy:
    def test_small_exhaustive_sample_against_real_machinery(self):
        rng = np.random.default_rng(11)
        seen = 0
        for chi, genus2, n_ext, (combo, edges) in iter_trivial_buildings(3, 3, 1):
            assert chi <= 0
            assert (chi == 0) == (genus2 == 0 and n_ext == 2)
            if chi == 0 or rng.random() < 0.02:
                b = build_trivial_building(combo, edges)
                assert euler_char(b) == chi
                assert is_connected(b)
                assert len(b.external_sites()) == n_ext
                assert 2 * arithmetic_genus(b) == genus2
                seen += 1
        assert seen > 20
