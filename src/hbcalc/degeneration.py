"""Degeneration taxonomy: nice-building validation, trivial/constant
subbuilding arithmetic, stable-limit classification and enumeration.

The checkers emit coded violations (stable strings, part of the output
contract) instead of raising, so mutant configurations can be inspected and
scripted against.  Genuinely missing or self-contradictory input data still
raises.  Violations, verdicts, `Asymptotics` and `LimitType` are immutable
NamedTuples of their values; `TrivialBoundaryData` checks its fields when it
is built, and stays a frozen dataclass.  Every check reads each end under the
constraint stored on its puncture (see ``hbcalc.index_calculus``).  The
checks read one building through its `Analysis`, which also holds the sorted
nice-building violations once they are found: the stable-limit verdict
extends the nice verdict of the same building, so `validate_nice` and
`classify_stable_limit` run the nice-building checks once between them.

Violation codes
---------------
Nice-building validation:
    HAS_NODE, BAD_COMPONENT_KIND, IMAGE_CLASH, BREAKING_ORBIT_ODD,
    BREAKING_ORBIT_MULTIPLICITY, NOT_BAD_DOUBLE, DEFECT_POSITIVE,
    NON_SIMPLE_EXTREMAL, MIXED_MULTIPLICITY
Stable-limit classification (in addition to the above):
    NON_GENERIC, INDEX_OUT_OF_RANGE, CORE_COMPONENTS, SIDE_INDEX,
    EVEN_PUNCTURE_COUNT, MULTIPLE_BREAKING, IMAGE_NOT_DISTINCT
Trivial-subbuilding boundary data:
    MULTIPLICITY_RELATION, WINDING_RELATION, DICHOTOMY, PROPORTIONALITY,
    NOT_COPRIME, IDENTITY_MISMATCH
Constant-subbuilding bound:
    STABILITY, NONPOSITIVE

Enumeration
-----------
``enumerate_limits`` lists the two-level splittings of a stable index-2
curve.  It counts them first, from a table of subset sums of the ends' index
weights, and refuses more than MAX_LIMITS of them (or a table of more than
MAX_PARTIAL_SUMS entries) with an OutputBudgetError before building any; a
depth-first pass then visits only the splittings that satisfy the index
equations, so its cost grows with the output rather than with 2^(#ends).
Each limit is a top, a bottom and a breaking orbit: both sides have index 1
and c_N = 0 for every limit, so they are not stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .buildings import (
    Building,
    Component,
    Puncture,
    core,
    is_trivial_cylinder,
    trivial_breaking_pairs,
)
from .errors import BuildingError, InputError, InternalCheckError, NoCoreError, OutputBudgetError
from .index_calculus import Analysis, End, _analysis, fredholm_index
# bound here as well, where perfbench/selftest.py checks that the tracer wraps it
from .index_calculus import defect  # noqa: F401
from .orbits import Catalog, OrbitRef, is_simply_covered_eigenfunction

#: Output budget of one ``enumerate``, checked before anything of that size is
#: built: limit types listed (counted first) and entries of the subset-sum
#: table that counts them.
MAX_LIMITS = 2**16
MAX_PARTIAL_SUMS = 2**18


class Violation(NamedTuple):
    code: str
    location: str
    message: str


class NiceVerdict(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]


def _sorted_violations(violations) -> tuple[Violation, ...]:
    return tuple(sorted(violations, key=lambda v: (v.code, v.location, v.message)))


def validate_nice(catalog: Catalog, building: Building) -> NiceVerdict:
    """Check the combinatorially decidable conditions for a nicely embedded
    building; geometric claims (distinct image classes do not intersect) are
    recorded assumptions, not verified."""
    violations = _nice_violations(catalog, _analysis(catalog, building))
    return NiceVerdict(ok=not violations, violations=violations)


def _nice_violations(catalog: Catalog, record: Analysis) -> tuple[Violation, ...]:
    """The sorted nice-building violations of the analysed building: checked
    when first asked for and then held on the analysis, so that
    `validate_nice` and `classify_stable_limit` on one building run the checks
    once between them.  Nothing is held when a check raises, so a failing
    building fails again, at the same point, when it is asked again."""
    if record.nice is None:
        record.nice = _sorted_violations(_nice_checks(catalog, record))
    return record.nice


def _nice_checks(catalog: Catalog, record: Analysis) -> list[Violation]:
    """The nice-building violations of the analysed building; the defect check
    reads each nontrivial component's part of the analysis."""
    building = record.building
    violations: list[Violation] = []

    for i, pair in enumerate(building.nodal_pairs):
        violations.append(
            Violation("HAS_NODE", f"node:{i}", f"nodal pair {pair} is forbidden")
        )

    nontrivial: list[Component] = []
    for comp in building.components:
        if comp.kind == "constant":
            violations.append(
                Violation(
                    "BAD_COMPONENT_KIND",
                    f"component:{comp.id}",
                    "constant components cannot appear in a nicely embedded building",
                )
            )
        elif comp.kind == "trivial":
            if not is_trivial_cylinder(comp):
                violations.append(
                    Violation(
                        "BAD_COMPONENT_KIND",
                        f"component:{comp.id}",
                        "trivial component is not a trivial cylinder "
                        "(branched covers are forbidden)",
                    )
                )
        else:
            nontrivial.append(comp)
            if comp.wind_pi is None:
                violations.append(
                    Violation(
                        "BAD_COMPONENT_KIND",
                        f"component:{comp.id}",
                        "component is not declared nicely embedded (wind_pi missing)",
                    )
                )
            elif comp.wind_pi != 0:
                violations.append(
                    Violation(
                        "BAD_COMPONENT_KIND",
                        f"component:{comp.id}",
                        f"wind_pi = {comp.wind_pi} != 0: projection is not immersed "
                        "transverse to the flow",
                    )
                )
            report = record.part(comp.id).defect
            if report.total > 0:
                violations.append(
                    Violation(
                        "DEFECT_POSITIVE",
                        f"component:{comp.id}",
                        f"total asymptotic defect {report.total} > 0",
                    )
                )

    # equal image classes assert identical projections, hence identical
    # puncture orbit multisets
    by_class: dict[str, list[Component]] = {}
    for comp in building.components:
        if comp.image_class is not None:
            by_class.setdefault(comp.image_class, []).append(comp)
    for label, comps in sorted(by_class.items()):
        multisets = {
            c.id: sorted((p.orbit.simple, p.orbit.k) for p in c.punctures) for c in comps
        }
        reference = multisets[comps[0].id]
        for comp in comps[1:]:
            if multisets[comp.id] != reference:
                violations.append(
                    Violation(
                        "IMAGE_CLASH",
                        f"component:{comp.id}",
                        f"image class {label!r} claims identical projections but the "
                        "puncture orbit multisets differ",
                    )
                )

    trivial = trivial_breaking_pairs(building)
    for i, (pos_site, _neg_site) in enumerate(building.breaking_pairs):
        if i in trivial:
            continue
        ref = building.puncture(pos_site).orbit
        if catalog.parity(ref) != 0:
            violations.append(
                Violation(
                    "BREAKING_ORBIT_ODD",
                    f"pair:{i}",
                    f"nontrivial breaking orbit {ref} is odd",
                )
            )
        elif ref.k == 1:
            pass
        elif ref.k == 2:
            if not catalog.is_bad(ref):
                violations.append(
                    Violation(
                        "NOT_BAD_DOUBLE",
                        f"pair:{i}",
                        f"breaking orbit {ref.simple}^2 is an even double cover "
                        "that is not bad",
                    )
                )
        else:
            violations.append(
                Violation(
                    "BREAKING_ORBIT_MULTIPLICITY",
                    f"pair:{i}",
                    f"nontrivial breaking orbit has multiplicity {ref.k} > 2",
                )
            )

    # controlling eigenfunctions of embedded ends are simply covered, and
    # ends of distinct embedded components over one simple orbit with the
    # same sign share multiplicity and winding
    by_orbit: dict[tuple[str, int], list[tuple[str, int, int]]] = {}
    for comp in nontrivial:
        class_key = comp.image_class if comp.image_class is not None else f"#{comp.id}"
        for p in comp.punctures:
            w = p.controlling_winding
            if not is_simply_covered_eigenfunction(p.orbit.k, w):
                violations.append(
                    Violation(
                        "NON_SIMPLE_EXTREMAL",
                        f"component:{comp.id}",
                        f"controlling eigenfunction at {p.orbit} has "
                        f"winding {w} with gcd({p.orbit.k}, {w}) > 1",
                    )
                )
            by_orbit.setdefault((p.orbit.simple, p.sign), []).append((class_key, p.orbit.k, w))
    for (simple, sign), group in sorted(by_orbit.items()):
        classes = {g[0] for g in group}
        if len(classes) < 2:
            continue
        seen = {(g[1], g[2]) for g in group}
        if len(seen) > 1:
            violations.append(
                Violation(
                    "MIXED_MULTIPLICITY",
                    f"orbit:{simple}",
                    f"sign {'+' if sign > 0 else '-'} ends of distinct components at "
                    f"covers of {simple!r} disagree in (multiplicity, winding): "
                    f"{sorted(seen)}",
                )
            )

    return violations


# --- stable-limit classification --------------------------------------------


class StableLimitVerdict(NamedTuple):
    kind: str | None  # "SMOOTH" | "BROKEN_PAIR" | None
    violations: tuple[Violation, ...]
    index: int
    breaking_orbit: OrbitRef | None = None
    top_component: str | None = None
    bottom_component: str | None = None

    @property
    def ok(self) -> bool:
        return self.kind is not None and not self.violations


def classify_stable_limit(catalog: Catalog, building: Building) -> StableLimitVerdict:
    """Classify a degeneration limit of stable curves as SMOOTH or BROKEN_PAIR.

    Runs the nice-building checks, the genericity bound (every nontrivial
    component has induced index >= 1), the total-index gate ind in {1, 2},
    and for a two-component core the broken-pair structure conditions.  All
    violations are collected; the verdict kind is set only when everything
    passes.  The core is taken only when the index is 1 or 2; without one
    (the index is out of range or the building has no core) the kind stays
    unset.
    """
    record = _analysis(catalog, building)
    if record.genus is None:
        raise BuildingError("stable-limit classification needs a connected building")
    violations = list(_nice_violations(catalog, record))

    for comp in building.components:
        if comp.kind != "nontrivial":
            continue
        side_index = record.part(comp.id).index
        if side_index < 1:
            violations.append(
                Violation(
                    "NON_GENERIC",
                    f"component:{comp.id}",
                    f"nontrivial component has induced index {side_index} < 1; "
                    "forbidden for generic data",
                )
            )

    ind = fredholm_index(catalog, building)
    collapsed = None
    if ind not in (1, 2):
        violations.append(
            Violation(
                "INDEX_OUT_OF_RANGE",
                "building",
                f"total constrained index {ind} is not 1 or 2",
            )
        )
    else:
        try:
            collapsed = core(building)
        except NoCoreError as exc:
            violations.append(Violation("CORE_COMPONENTS", "building", str(exc)))
    ncore = 0 if collapsed is None else len(collapsed.components)

    if ncore == 2:
        if ind != 2:
            violations.append(
                Violation(
                    "CORE_COMPONENTS",
                    "building",
                    f"index-{ind} limit must be smooth but the core has 2 components",
                )
            )
        # a core with cylinders is analysed outside the catalog's slot, which
        # keeps `building`
        sides = record if collapsed is building else Analysis(catalog, collapsed)
        for comp in collapsed.components:
            side = sides.part(comp.id)
            side_ind = side.index
            if side_ind != 1:
                violations.append(
                    Violation(
                        "SIDE_INDEX",
                        f"component:{comp.id}",
                        f"broken-pair side has induced index {side_ind} != 1",
                    )
                )
            evens = [e.site for e in side.rows if e.parity == 0]
            breaking_sites_here = {
                s for pair in collapsed.breaking_pairs for s in pair if s[0] == comp.id
            }
            if len(evens) != 1 or (comp.id, evens[0][1]) not in breaking_sites_here:
                violations.append(
                    Violation(
                        "EVEN_PUNCTURE_COUNT",
                        f"component:{comp.id}",
                        f"side must have exactly one even constrained puncture, its "
                        f"breaking puncture; found even punctures at {evens}",
                    )
                )
        if len(collapsed.breaking_pairs) != 1:
            violations.append(
                Violation(
                    "MULTIPLE_BREAKING",
                    "building",
                    f"core has {len(collapsed.breaking_pairs)} breaking pairs; a broken "
                    "pair needs exactly one",
                )
            )
        labels = [c.image_class for c in collapsed.components]
        if labels[0] is not None and labels[0] == labels[1]:
            violations.append(
                Violation(
                    "IMAGE_NOT_DISTINCT",
                    "building",
                    f"both sides carry image class {labels[0]!r}; distinct projections "
                    "are required for generic data",
                )
            )
    elif ncore > 2:
        violations.append(
            Violation(
                "CORE_COMPONENTS",
                "building",
                f"core has {ncore} nontrivial components; a stable limit allows at most 2",
            )
        )

    violations_t = _sorted_violations(violations)
    kind = breaking = top_id = bottom_id = None
    if ncore == 1 and not violations_t:
        kind = "SMOOTH"
    elif ncore == 2 and not violations_t:
        kind = "BROKEN_PAIR"
        pos_site, neg_site = collapsed.breaking_pairs[0]
        breaking = collapsed.puncture(pos_site).orbit
        # the side carrying the negative breaking puncture sits above
        top_id = neg_site[0]
        bottom_id = pos_site[0]
    return StableLimitVerdict(
        kind=kind,
        violations=violations_t,
        index=ind,
        breaking_orbit=breaking,
        top_component=top_id,
        bottom_component=bottom_id,
    )


# --- trivial subbuilding boundary arithmetic ---------------------------------


@dataclass(frozen=True)
class TrivialBoundaryData:
    """Boundary data of a maximal trivial subbuilding.

    p/q: number of positive/negative punctures severed from breaking pairs;
    r/s: number of positive/negative inherited external punctures; m_c/w_c:
    common multiplicity and controlling winding seen at the severed ends;
    m_e/w_e: multiplicity and constrained extremal winding at the inherited
    ends; chi: Euler characteristic of the compactified subbuilding surface;
    alpha_minus_cover and cover_parity describe the spectrum of the breaking
    cover; the simple_* flags give the dynamical type of the underlying
    simply covered orbit.
    """

    p: int
    q: int
    r: int
    s: int
    m_c: int
    w_c: int
    m_e: int = 1
    w_e: int = 0
    chi: int = 0
    alpha_minus_cover: int = 0
    cover_parity: int = 0
    simple_even: bool = True
    simple_hyperbolic: bool = True

    def __post_init__(self):
        for name in ("p", "q", "r", "s"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        if self.p + self.r <= 0 or self.q + self.s <= 0 or self.p + self.q <= 0:
            raise InputError(
                "need p + r > 0, q + s > 0 and p + q > 0 "
                "(punctures of both signs, at least one severed)"
            )
        if self.m_c < 1 or self.m_e < 1:
            raise InputError("multiplicities must be >= 1")
        if self.cover_parity not in (0, 1):
            raise InputError("cover_parity must be 0 or 1")


class TrivialSubbuildingVerdict(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]
    branch: str  # "opposite_signs" | "coprime"
    multiplicity: int | None
    winding: int | None
    c_n: int
    identity_sum: int
    cylindrical: bool


def trivial_subbuilding_check(data: TrivialBoundaryData) -> TrivialSubbuildingVerdict:
    """Validate the linear relations a maximal trivial subbuilding must satisfy
    and evaluate the boundary identity  c_N + sum[parity + defect] = -chi.

    The toroidal homology relations force p*m_c + r*m_e = q*m_c + s*m_e and
    the same with windings; with p = q, r = s the opposite-signs dichotomy
    pins m in {1, 2} by the orbit type, otherwise coprimality of the simply
    covered controlling eigenfunctions forces m_c = m_e and w_c = w_e.  The
    identity sum vanishes exactly when the subbuilding is cylindrical.
    """
    d = data
    violations: list[Violation] = []
    have_external = d.r + d.s > 0

    if (d.p - d.q) * d.m_c + (d.r - d.s) * d.m_e != 0:
        violations.append(
            Violation(
                "MULTIPLICITY_RELATION",
                "boundary",
                f"p*m_c + r*m_e = {d.p * d.m_c + d.r * d.m_e} != "
                f"{d.q * d.m_c + d.s * d.m_e} = q*m_c + s*m_e",
            )
        )
    if (d.p - d.q) * d.w_c + (d.r - d.s) * d.w_e != 0:
        violations.append(
            Violation(
                "WINDING_RELATION",
                "boundary",
                f"p*w_c + r*w_e = {d.p * d.w_c + d.r * d.w_e} != "
                f"{d.q * d.w_c + d.s * d.w_e} = q*w_c + s*w_e",
            )
        )

    m = w = None
    if d.p == d.q and d.r == d.s:
        branch = "opposite_signs"
        checks_ok = True
        if have_external and (d.m_e != d.m_c or d.w_e != d.w_c):
            checks_ok = False
        if d.m_c not in (1, 2):
            checks_ok = False
        elif d.m_c == 1 and not d.simple_even:
            checks_ok = False
        elif d.m_c == 2 and (d.simple_even or not d.simple_hyperbolic):
            checks_ok = False
        if d.cover_parity != 0 or d.w_c != d.alpha_minus_cover:
            checks_ok = False
        if checks_ok:
            m, w = d.m_c, d.w_c
        else:
            violations.append(
                Violation(
                    "DICHOTOMY",
                    "boundary",
                    "punctures pair off by sign, so the breaking cover must be a "
                    "simply covered even orbit or a bad double with extremal windings "
                    f"(got m_c={d.m_c}, m_e={d.m_e}, w_c={d.w_c}, w_e={d.w_e}, "
                    f"alpha={d.alpha_minus_cover}, parity={d.cover_parity}, "
                    f"even={d.simple_even}, hyperbolic={d.simple_hyperbolic})",
                )
            )
    else:
        branch = "coprime"
        if d.m_c * d.w_e != d.m_e * d.w_c:
            violations.append(
                Violation(
                    "PROPORTIONALITY",
                    "boundary",
                    f"m_c*w_e = {d.m_c * d.w_e} != {d.m_e * d.w_c} = m_e*w_c",
                )
            )
        bad_gcd = []
        if math.gcd(d.m_c, d.w_c) != 1:
            bad_gcd.append(f"gcd(m_c={d.m_c}, w_c={d.w_c})")
        if have_external and math.gcd(d.m_e, d.w_e) != 1:
            bad_gcd.append(f"gcd(m_e={d.m_e}, w_e={d.w_e})")
        if bad_gcd:
            violations.append(
                Violation(
                    "NOT_COPRIME",
                    "boundary",
                    "controlling eigenfunctions must be simply covered: "
                    + ", ".join(bad_gcd),
                )
            )
        if not violations:
            if have_external and (d.m_c != d.m_e or d.w_c != d.w_e):
                raise InternalCheckError(
                    "proportional coprime pairs must coincide "
                    f"(m_c={d.m_c}, w_c={d.w_c}, m_e={d.m_e}, w_e={d.w_e})"
                )
            m, w = d.m_c, d.w_c

    a = d.alpha_minus_cover
    par = d.cover_parity
    c_n = -d.chi + (d.p - d.q) * a - d.q * par + (d.r - d.s) * d.w_e
    defects = d.p * abs(a + par - d.w_c) + d.q * abs(a - d.w_c)
    identity_sum = c_n + (d.p + d.q) * par + defects
    if identity_sum != -d.chi:
        violations.append(
            Violation(
                "IDENTITY_MISMATCH",
                "boundary",
                f"c_N + sum[parity + defect] = {identity_sum} != {-d.chi} = -chi; "
                "the windings are not on the extremal side of the spectrum",
            )
        )

    violations_t = _sorted_violations(violations)
    return TrivialSubbuildingVerdict(
        ok=not violations_t,
        violations=violations_t,
        branch=branch,
        multiplicity=m if not violations_t else None,
        winding=w if not violations_t else None,
        c_n=c_n,
        identity_sum=identity_sum,
        cylindrical=not violations_t and identity_sum == 0,
    )


class ConstantSubbuildingVerdict(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]
    value: int  # c_N + 2 * attaching nodes = -chi_closed + 2 * n_attach


def constant_subbuilding_bound(chi_closed: int, n_attach: int,
                               component_chis) -> ConstantSubbuildingVerdict:
    """Stability and positivity bound for a maximal constant subbuilding.

    chi_closed is the Euler characteristic of the closed glued subbuilding
    surface, n_attach the number of nodal points attaching it to nonconstant
    components, component_chis the punctured Euler characteristics of its
    components (each must be negative for stability).  The reported value
    -chi_closed + 2 n_attach equals c_N + 2 #attaching nodes and must be
    positive.
    """
    if n_attach < 1:
        raise InputError("a maximal constant subbuilding has at least one attaching node")
    violations: list[Violation] = []
    for i, chi in enumerate(component_chis):
        if chi >= 0:
            violations.append(
                Violation(
                    "STABILITY",
                    f"component:{i}",
                    f"constant component has punctured chi = {chi} >= 0",
                )
            )
    value = -chi_closed + 2 * n_attach
    if value <= 0:
        violations.append(
            Violation(
                "NONPOSITIVE",
                "subbuilding",
                f"c_N + 2#nodes = {value} <= 0 contradicts the constant-subbuilding bound",
            )
        )
    violations_t = _sorted_violations(violations)
    return ConstantSubbuildingVerdict(
        ok=not violations_t, violations=violations_t, value=value
    )


# --- stable-limit enumeration -------------------------------------------------


class Asymptotics(NamedTuple):
    """Ends of a stable genus-0 index-2 curve: punctures plus total rel_c1.

    The enumerator materializes candidate sides with relative Chern number
    zero, so the input total must be zero as well (choose the trivializations
    accordingly).
    """

    punctures: tuple[Puncture, ...]
    rel_c1: int = 0


class LimitType(NamedTuple):
    """One admissible two-level degeneration of a stable index-2 curve.

    Both sides have index 1 and c_N = 0 by construction (2c_N = ind - 2 + 2g
    + #even with g = 0 and the breaking end as the one even puncture), so
    neither is stored."""

    top: tuple[int, ...]  # indices into Asymptotics.punctures
    bottom: tuple[int, ...]
    breaking: OrbitRef


def _asymptotic_ends(catalog: Catalog, asymptotics: Asymptotics) -> list[End]:
    """The ends of a validated stable index-2 genus-0 curve, keyed by position."""
    if asymptotics.rel_c1 != 0:
        raise InputError(
            "enumerate expects rel_c1 = 0 (sides are materialized with zero "
            "relative Chern number)"
        )
    if not asymptotics.punctures:
        raise InputError("a stable curve has at least one puncture")
    rows = [End(catalog, i, p) for i, p in enumerate(asymptotics.punctures)]
    evens = [e.site for e in rows if e.parity == 0]
    if evens:
        raise InputError(
            f"stability needs no even constrained punctures; punctures {evens} are even "
            "(2c_N = ind - 2 + 2g + #even fails for ind=2, g=0, c_N=0)"
        )
    ind = (len(rows) - 2) + sum(e.sign * e.mu for e in rows)
    if ind != 2:
        raise InputError(f"input curve has index {ind} != 2")
    return rows


def breaking_candidates(catalog: Catalog) -> list[OrbitRef]:
    """Covers admissible as nontrivial breaking orbits: simply covered even
    orbits and bad doubles."""
    out = []
    for orbit_id in catalog.ids():
        if catalog.parity(OrbitRef(orbit_id, 1)) == 0:
            out.append(OrbitRef(orbit_id, 1))
        elif catalog.is_bad(OrbitRef(orbit_id, 2)):
            out.append(OrbitRef(orbit_id, 2))
    return out


def _completion_counts(weights: list[int], targets: dict[int, int]) -> list[dict[int, int]]:
    """``counts[i][s]``: the ways to complete a top whose ends before i sum to
    s, as pairs of a subset of the ends i.. and a breaking candidate whose
    target is s plus that subset's sum; `targets` counts the candidates per
    target, and ``counts[len(weights)] == targets``.  The table holds at most
    MAX_PARTIAL_SUMS entries in all; a larger one is refused as it grows."""
    counts = [dict(targets)]
    size = len(targets)
    for w in reversed(weights):
        last = counts[-1]
        step = dict(last)
        for s, c in last.items():
            step[s - w] = step.get(s - w, 0) + c
        size += len(step)
        if size > MAX_PARTIAL_SUMS:
            raise OutputBudgetError(
                f"counting the limit types of {len(weights)} ends needs a table past "
                f"the budget of {MAX_PARTIAL_SUMS} partial index sums"
            )
        counts.append(step)
    counts.reverse()
    return counts


def enumerate_limits(catalog: Catalog, asymptotics: Asymptotics) -> list[LimitType]:
    """All (top, bottom, breaking orbit) splittings with both side indices 1.

    Ordered partitions with empty parts allowed; the side carrying the
    negative breaking puncture is the top.  Output is sorted by (top,
    breaking orbit) and deterministic.

    With ``w_i = sign_i mu_i + 1`` the top side has index 1 exactly when its
    weights sum to the target ``2 + mu_delta``; the bottom then has index 1
    as well, since all weights sum to ``ind + 2 = 4``.  A table of completion
    counts gives the number of limits up front (refused above MAX_LIMITS),
    and a depth-first pass lists the tops in lexicographic order, trying the
    next end only while some of the ends left can still complete the top.
    So the work grows with the output, not with ``2^n``.
    """
    weights = [e.sign * e.mu + 1 for e in _asymptotic_ends(catalog, asymptotics)]
    n = len(weights)
    by_target: dict[int, list[OrbitRef]] = {}
    for delta in sorted(breaking_candidates(catalog), key=lambda d: (d.simple, d.k)):
        by_target.setdefault(2 + catalog.cz_index(delta).mu_cz, []).append(delta)
    counts = _completion_counts(weights, {t: len(ds) for t, ds in by_target.items()})
    total = counts[0].get(0, 0)
    if total > MAX_LIMITS:
        raise OutputBudgetError(
            f"{n} ends have {total} admissible limit types, above the budget of {MAX_LIMITS}"
        )

    out: list[LimitType] = []
    top: list[int] = []
    bottom_mask = [True] * n

    def emit(s: int) -> None:
        deltas = by_target.get(s)
        if deltas:
            top_t = tuple(top)
            bottom = tuple(itertools.compress(range(n), bottom_mask))
            out.extend(LimitType(top=top_t, bottom=bottom, breaking=d) for d in deltas)

    emit(0)
    s = i = 0  # the tops extending `top` (summing to s) take their next end at i..
    # while a nonempty subset of the ends i.. completes the top, try end i
    while True:
        if i < n and counts[i].get(s, 0) > counts[n].get(s, 0):
            top.append(i)
            bottom_mask[i] = False
            s += weights[i]
            emit(s)
            i += 1
        elif top:
            i = top.pop()
            bottom_mask[i] = True
            s -= weights[i]
            i += 1
        else:
            return out


def limit_to_building(catalog: Catalog, asymptotics: Asymptotics,
                      limit: LimitType) -> Building:
    """Materialize a LimitType as a two-component building with extremal
    controlling windings, ready for validate_nice / classify_stable_limit."""

    def side(name: str, indices: tuple[int, ...], breaking_sign: int) -> Component:
        punctures = [asymptotics.punctures[i] for i in indices]
        punctures.append(Puncture(sign=breaking_sign, orbit=limit.breaking))
        return Component(
            id=name,
            genus=0,
            punctures=tuple(
                replace(p, controlling_winding=End(catalog, None, p).extremal)
                for p in punctures
            ),
            rel_c1=0,
            kind="nontrivial",
            wind_pi=0,
            image_class=name,
        )

    top = side("top", limit.top, -1)
    bottom = side("bottom", limit.bottom, 1)
    pair = (("bottom", len(limit.bottom)), ("top", len(limit.top)))
    return Building(components=(top, bottom), breaking_pairs=(pair,))
