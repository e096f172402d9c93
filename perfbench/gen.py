"""Seeded input generator for the benchmark workloads.

Uses only the standard library and numpy and never imports hbcalc, so two
commits of the program receive byte-identical inputs for one seed.  Every
expected value written next to the inputs comes from the closed-form spectra
below, not from the program under test:

* constant rotation S = theta I, cover k: eigenvalues 2 pi m - k theta with
  winding m and multiplicity 2;
* rotating-axis loop with h half-turns and stretch a (constant diag(a, -a)
  is the h = 0 case up to a constant rotation), cover k: with H = k h and
  A = k a, the frame rotating by pi H t turns the operator into the constant
  hyperbolic one, so the eigenvalues are +-sqrt((2 pi nu)^2 + A^2) for
  nu in Z + H/2, nu > 0, with windings H/2 +- nu and multiplicity 2, plus
  -A and +A with winding H/2 and multiplicity 1 when H is even.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib

import numpy as np

TWO_PI = 2.0 * math.pi

#: Analytic models of the orbits of fixtures/catalog_fixture.json; checked
#: against the file's samples before any input is generated from them.
FIXTURE_MODELS = {
    "hyp2": ("axis", 2, 0.7),
    "hyp_even": ("diag", 0, 1.0),
    "hyp_odd": ("axis", 1, 0.7),
    "rot3": ("rot", 5 * math.pi / 2),
    "rot_m": ("rot", -math.pi / 2),
    "rot_p": ("rot", math.pi / 2),
}
EVEN_FIXTURE_ORBITS = ("hyp2", "hyp_even")

COVERS = (1, 2, 3, 4, 6, 8, 12, 16)
WINDOWS = (10.0, 40.0, 100.0)
BUILDING_SIZES = (25, 50, 100, 200)
ENUMERATE_WIDTHS = (10, 12, 14)
#: signed CZ indices of the ends per enumerate width: odd, summing to 4 - n
#: (index 2), with about 12% of (split, breaking orbit) pairs admissible
ENUMERATE_TEMPLATES = {
    10: (5, 5, 1, 1, 1, -1, -3, -5, -5, -5),
    12: (5, 5, 3, 1, 1, -1, -1, -1, -5, -5, -5, -5),
    14: (5, 5, 3, 1, 1, 1, -1, -1, -1, -3, -5, -5, -5, -5),
}
#: eigenvalues at a spectral cut must stay this far from the cut
CUT_MARGIN = 0.1


# --- closed-form spectra -------------------------------------------------------


def samples(model, n: int = 33) -> np.ndarray:
    """Catalog rows [s11, s12, s22] of a model on an n-point grid."""
    ts = np.arange(n) / n
    kind = model[0]
    rows = np.zeros((n, 3))
    if kind == "rot":
        rows[:, 0] = rows[:, 2] = model[1]
    elif kind == "diag":
        rows[:, 0] = model[2]
        rows[:, 2] = -model[2]
    else:
        _, h, a = model
        phase = TWO_PI * h * ts
        rows[:, 0] = math.pi * h + a * np.sin(phase)
        rows[:, 1] = -a * np.cos(phase)
        rows[:, 2] = math.pi * h - a * np.sin(phase)
    return rows


def spectrum(model, k: int, lo: float, hi: float) -> list[tuple[float, int, int]]:
    """Exact (eigenvalue, winding, multiplicity) rows with lo <= eigenvalue <= hi."""
    out = []
    if model[0] == "rot":
        shift = k * model[1]
        m = math.floor((lo + shift) / TWO_PI) - 1
        while True:
            lam = TWO_PI * m - shift
            if lam > hi:
                break
            if lam >= lo:
                out.append((lam, m, 2))
            m += 1
        return out
    big_h = k * model[1]
    big_a = k * model[2]
    top = max(abs(lo), abs(hi))
    nu = 0.0 if big_h % 2 == 0 else 0.5
    while True:
        if nu == 0.0:
            rows = [(-big_a, big_h // 2, 1), (big_a, big_h // 2, 1)]
        else:
            r = math.sqrt((TWO_PI * nu) ** 2 + big_a**2)
            rows = [(-r, round(big_h / 2 - nu), 2), (r, round(big_h / 2 + nu), 2)]
        out.extend(row for row in rows if lo <= row[0] <= hi)
        if TWO_PI * nu > top:
            break
        nu += 1.0
    return sorted(out)


def window_rows(model, k: int, window: float) -> list[tuple[float, int, int]]:
    """Complete winding classes inside [-window, window], as hbcalc tables list them."""
    rows = spectrum(model, k, -window, window)
    per: dict[int, int] = {}
    for _, w, m in rows:
        per[w] = per.get(w, 0) + m
    return [row for row in rows if per[row[1]] == 2]


def alpha_minus(model, k: int, cut: float) -> int:
    return max(w for lam, w, _ in spectrum(model, k, cut - 4 * math.pi - 40, cut) if lam < cut)


def alpha_plus(model, k: int, cut: float) -> int:
    return min(w for lam, w, _ in spectrum(model, k, cut, cut + 4 * math.pi + 40) if lam > cut)


def mu(model, k: int, cut: float = 0.0) -> int:
    am = alpha_minus(model, k, cut)
    return am + alpha_plus(model, k, cut)


def safe_cut(model, k: int, cut: float) -> bool:
    return all(abs(lam - cut) > CUT_MARGIN for lam, _, _ in spectrum(model, k, cut - 1, cut + 1))


# --- cover_spectra --------------------------------------------------------------


def _rotation_angle(rng: np.random.Generator) -> float:
    """theta in [1.2, 2] with k theta / 2 pi at least 0.05 from an integer for all covers."""
    while True:
        theta = round(float(rng.uniform(1.2, 2.0)), 6)
        if all(abs(x - round(x)) >= 0.05 for x in (k * theta / TWO_PI for k in COVERS)):
            return theta


def cover_spectra_inputs(rng: np.random.Generator) -> dict:
    """One catalog, every cover of each of its orbits, and the exact answers.

    The orbits are a constant rotation and a rotating-axis loop with two
    half-turns (even, so the catalog audit integrates its monodromy).  Their
    parameters come from narrow ranges, so op costs hardly depend on the
    seed.  Every pass reloads the catalog, so each pass repeats the same cold
    ops, in a new seeded order.
    """
    models = {
        "rot": ("rot", _rotation_angle(rng)),
        "hyp": ("axis", 2, round(float(rng.uniform(0.55, 0.65)), 6)),
    }
    catalog = {"format": 1, "orbits": [
        {"id": oid, "period": 1.0, "model": {"type": "flow", "samples": samples(m).tolist()}}
        for oid, m in models.items()]}
    expect = {
        f"{oid}:{k}": {
            "mu": mu(model, k),
            "rows": {str(int(w)): window_rows(model, k, w) for w in WINDOWS},
        }
        for oid, model in models.items() for k in COVERS
    }
    return {"windows": list(WINDOWS), "catalog": catalog, "expect": expect,
            "order": _orders(rng, sorted(expect))}


# --- building_reports -------------------------------------------------------------


def check_fixture_models(catalog_path: pathlib.Path) -> None:
    """Fail loudly if the fixture catalog no longer matches the analytic models."""
    data = json.loads(catalog_path.read_text(encoding="utf-8"))
    found = {o["id"]: o for o in data["orbits"]}
    if sorted(found) != sorted(FIXTURE_MODELS):
        raise ValueError(f"{catalog_path}: orbit ids {sorted(found)} do not match the models")
    for oid, model in FIXTURE_MODELS.items():
        rows = np.asarray(found[oid]["model"]["samples"], dtype=float)
        if rows.shape != (33, 3) or np.max(np.abs(rows - samples(model))) > 1e-12:
            raise ValueError(f"{catalog_path}: orbit {oid!r} differs from its analytic model")


def _safe_constraint(rng, model, k: int) -> float:
    for _ in range(200):
        c = round(float(rng.uniform(0.2, 3.0)), 2)
        if safe_cut(model, k, c) and safe_cut(model, k, -c):
            return c
    raise ValueError("no safe constraint found")


def _extremal(model, k: int, sign: int, c: float) -> int:
    return alpha_minus(model, k, -c) if sign == 1 else alpha_plus(model, k, c)


def _signed_mu(model, k: int, sign: int, c: float) -> int:
    return mu(model, k, -c) if sign == 1 else -mu(model, k, c)


def _subset(rng: np.random.Generator, n: int, share: float) -> set[int]:
    """A seeded subset of range(n) of size round(share * n)."""
    return {int(i) for i in rng.permutation(n)[:round(share * n)]}


def building(rng: np.random.Generator, n_nontrivial: int) -> tuple[dict, dict]:
    """A connected building and its exact chi, genus, index and c_N.

    Nontrivial components form a random tree of breaking pairs over even
    simple orbits, a quarter of them with a trivial cylinder spliced in.
    Each component has one more, external, puncture; 30% of those carry a
    safe constraint and 20% are capped by a trivial cylinder that takes the
    constraint over.  Nodes join random nontrivial components.  These counts
    are fixed, so the cost of an op depends on N and hardly on the seed.
    Controlling windings are extremal and rel_c1 makes each component's c_N
    zero, so wind_pi = 0 is consistent.
    """
    orbit_ids = sorted(FIXTURE_MODELS)
    higher_genus = _subset(rng, n_nontrivial, 0.5)
    comps = [{"id": f"n{i:03d}", "genus": int(i in higher_genus), "kind": "nontrivial",
              "punctures": []} for i in range(n_nontrivial)]
    cylinders = []
    pairs = []

    def punct(comp, sign, simple, k, c=0.0):
        comp["punctures"].append({"sign": "+" if sign == 1 else "-",
                                  "orbit": {"simple": simple, "k": k}, "constraint": c})
        return (comp["id"], len(comp["punctures"]) - 1)

    def cylinder(simple, k, pos_c=0.0, neg_c=0.0):
        cyl = {"id": f"t{len(cylinders):03d}", "genus": 0, "kind": "trivial",
               "rel_c1": 0, "punctures": []}
        cylinders.append(cyl)
        return punct(cyl, 1, simple, k, pos_c), punct(cyl, -1, simple, k, neg_c)

    spliced = _subset(rng, n_nontrivial - 1, 0.25)
    for i in range(1, n_nontrivial):
        other = int(rng.integers(0, i))
        lower, upper = (comps[i], comps[other]) if rng.random() < 0.5 else (comps[other], comps[i])
        simple = str(rng.choice(EVEN_FIXTURE_ORBITS))
        pos = punct(lower, 1, simple, 1)
        neg = punct(upper, -1, simple, 1)
        if i - 1 in spliced:
            cyl_pos, cyl_neg = cylinder(simple, 1)
            pairs += [[list(pos), list(cyl_neg)], [list(cyl_pos), list(neg)]]
        else:
            pairs.append([list(pos), list(neg)])

    constrained = _subset(rng, n_nontrivial, 0.3)
    capped = _subset(rng, n_nontrivial, 0.2)
    for i, comp in enumerate(comps):
        simple = str(rng.choice(orbit_ids))
        k = int(rng.integers(1, 3))
        sign = 1 if rng.random() < 0.5 else -1
        c = _safe_constraint(rng, FIXTURE_MODELS[simple], k) if i in constrained else 0.0
        if i in capped:
            site = punct(comp, sign, simple, k)
            if sign == 1:
                cyl_pos, cyl_neg = cylinder(simple, k, pos_c=c)
                pairs.append([list(site), list(cyl_neg)])
            else:
                cyl_pos, cyl_neg = cylinder(simple, k, neg_c=c)
                pairs.append([list(cyl_pos), list(site)])
        else:
            punct(comp, sign, simple, k, c)

    nodes = []
    for _ in range(max(1, n_nontrivial // 10)):
        a, b = rng.choice(n_nontrivial, size=2, replace=False)
        nodes.append([comps[int(a)]["id"], comps[int(b)]["id"]])

    for comp in comps:
        alpha_sum = 0
        for p in comp["punctures"]:
            model = FIXTURE_MODELS[p["orbit"]["simple"]]
            sign = 1 if p["sign"] == "+" else -1
            w = _extremal(model, p["orbit"]["k"], sign, p["constraint"])
            p["controlling_winding"] = w
            alpha_sum += w if sign == 1 else -w
        chi = 2 - 2 * comp["genus"] - len(comp["punctures"])
        comp["rel_c1"] = chi - alpha_sum
        comp["wind_pi"] = 0

    all_comps = comps + cylinders
    glued = {tuple(site) for pair in pairs for site in pair}
    node_ends: dict[str, int] = {}
    for a, b in nodes:
        node_ends[a] = node_ends.get(a, 0) + 1
        node_ends[b] = node_ends.get(b, 0) + 1
    chi = sum(2 - 2 * c["genus"] - len(c["punctures"]) - node_ends.get(c["id"], 0)
              for c in all_comps)
    c1 = sum(c["rel_c1"] for c in all_comps)
    mu_total = alpha_total = n_ext = 0
    for comp in all_comps:
        for idx, p in enumerate(comp["punctures"]):
            if (comp["id"], idx) in glued:
                continue
            n_ext += 1
            model = FIXTURE_MODELS[p["orbit"]["simple"]]
            sign = 1 if p["sign"] == "+" else -1
            k = p["orbit"]["k"]
            mu_total += _signed_mu(model, k, sign, p["constraint"])
            w = _extremal(model, k, sign, p["constraint"])
            alpha_total += w if sign == 1 else -w
    data = {"format": 1, "components": all_comps, "breaking_pairs": pairs, "nodal_pairs": nodes}
    expect = {"chi": chi, "genus": (2 - n_ext - chi) // 2, "index": -chi + 2 * c1 + mu_total,
              "c_N": c1 - chi + alpha_total, "n_pairs": len(pairs)}
    return data, expect


def _odd_end_options() -> list[tuple[str, int, int, float, int]]:
    """(simple, k, sign, constraint, signed mu) for unconstrained odd ends."""
    out = []
    for simple, model in sorted(FIXTURE_MODELS.items()):
        for k in (1, 2, 3):
            if mu(model, k) % 2 == 0:
                continue
            for sign in (1, -1):
                out.append((simple, k, sign, 0.0, _signed_mu(model, k, sign, 0.0)))
    return out


def asymptotics(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Ends of a stable index-2 genus-0 curve with no even constrained end,
    and the admissible limits counted by brute force over the models.

    The signed CZ indices follow a fixed template per width, so the number of
    limits (and the op's cost) does not depend on the seed; the seed picks
    which orbit, cover, sign and constraint realise each value, and the order.
    """
    options = _odd_end_options()
    ends = []
    for value in ENUMERATE_TEMPLATES[n]:
        fits = [o for o in options if o[4] == value]
        simple, k, sign, c, _ = fits[int(rng.integers(0, len(fits)))]
        model = FIXTURE_MODELS[simple]
        if rng.random() < 0.3:
            constrained = _safe_constraint(rng, model, k)
            if _signed_mu(model, k, sign, constrained) == value:
                c = constrained
        ends.append((simple, k, sign, c, value))
    order = rng.permutation(n)
    ends = [ends[int(i)] for i in order]
    data = {"format": 1, "rel_c1": 0, "punctures": [
        {"sign": "+" if s == 1 else "-", "orbit": {"simple": simple, "k": k}, "constraint": c}
        for simple, k, s, c, _ in ends]}
    # breaking candidates: simple even orbits and bad doubles of odd hyperbolic ones
    candidates = []
    for simple, model in sorted(FIXTURE_MODELS.items()):
        if mu(model, 1) % 2 == 0:
            candidates.append((simple, 1, mu(model, 1)))
        elif model[0] != "rot" and mu(model, 2) % 2 == 0:
            candidates.append((simple, 2, mu(model, 2)))
    signed = [e[4] for e in ends]
    limits = []
    for top_mask in itertools.product((False, True), repeat=n):
        top = [i for i in range(n) if top_mask[i]]
        bottom = [i for i in range(n) if not top_mask[i]]
        mu_top = sum(signed[i] for i in top)
        mu_bottom = sum(signed[i] for i in bottom)
        for simple, k, m in candidates:
            if len(top) - 1 + mu_top - m == 1 and len(bottom) - 1 + mu_bottom + m == 1:
                limits.append([top, bottom, simple, k])
    limits.sort(key=lambda lt: (lt[0], lt[2], lt[3]))
    return data, {"limits": limits, "candidates": len(candidates)}


def building_reports_inputs(rng: np.random.Generator) -> dict:
    items = []
    for n in BUILDING_SIZES:
        data, expect = building(rng, n)
        items.append({"name": f"building_N{n}", "kind": "building", "data": data,
                      "expect": expect, "augment_pair": int(rng.integers(0, expect["n_pairs"]))})
    for n in ENUMERATE_WIDTHS:
        data, expect = asymptotics(rng, n)
        items.append({"name": f"enumerate_n{n}", "kind": "enumerate", "data": data,
                      "expect": expect})
    return {"items": items, "order": _orders(rng, [item["name"] for item in items])}


def _orders(rng: np.random.Generator, names: list[str], passes: int = 64) -> list[list[str]]:
    """A fresh seeded order of the op names for every pass."""
    return [[names[int(i)] for i in rng.permutation(len(names))] for _ in range(passes)]


# --- cli_cold -----------------------------------------------------------------------

#: The README fixture commands: (name, argv after `python -m hbcalc.cli`).
CLI_COMMANDS = (
    ("spectrum_rot_p", ["spectrum", "--catalog", "fixtures/catalog_demo.json", "--orbit",
                        "rot_p", "--cover", "1", "--window", "10", "--json"]),
    ("spectrum_hyp2", ["spectrum", "--catalog", "fixtures/catalog_fixture.json", "--orbit",
                       "hyp2", "--cover", "3", "--window", "40", "--json"]),
    ("index_figure3", ["index", "--catalog", "fixtures/catalog_demo.json", "--building",
                       "fixtures/building_figure3.json", "--json"]),
    ("validate_oddbreak", ["validate", "--catalog", "fixtures/catalog_fixture.json",
                           "--building", "fixtures/building_fig3_oddbreak.json", "--json"]),
    ("check_figure3", ["check", "--catalog", "fixtures/catalog_demo.json", "--building",
                       "fixtures/building_figure3.json", "--theorem", "stable", "--json"]),
    ("enumerate_demo", ["enumerate", "--catalog", "fixtures/catalog_demo.json",
                        "--asymptotics", "fixtures/asymptotics_demo.json", "--json"]),
    ("surgery_core", ["surgery", "--building", "fixtures/building_figure3.json", "--op",
                      "core"]),
    ("surgery_augment", ["surgery", "--building", "fixtures/building_figure3.json", "--op",
                         "augment", "--pair", "0"]),
)


def cli_cold_inputs(rng: np.random.Generator) -> dict:
    """The fixture commands, reshuffled for every pass."""
    return {"commands": {name: argv for name, argv in CLI_COMMANDS},
            "order": _orders(rng, [name for name, _ in CLI_COMMANDS])}


def generate(workload: str, seed: int, root: pathlib.Path) -> dict:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "cli_cold":
        return cli_cold_inputs(rng)
    if workload == "cover_spectra":
        return cover_spectra_inputs(rng)
    if workload == "building_reports":
        check_fixture_models(root / "fixtures" / "catalog_fixture.json")
        return building_reports_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict, files=()) -> str:
    """sha256 over the canonical JSON of the inputs and the bytes of the files they name."""
    h = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for path in files:
        h.update(pathlib.Path(path).read_bytes())
    return h.hexdigest()
