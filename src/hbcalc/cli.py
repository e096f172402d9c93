"""Command-line front end: file formats, subcommands, deterministic reports.

Two JSON schemas, both versioned with a top-level ``"format": 1``:

Catalog file::

    {"format": 1,
     "orbits": [
       {"id": "rot_p", "period": 1.0,
        "model": {"type": "flow", "samples": [[s11, s12, s22], ...]},
        "hyperbolic": false}                       # optional, needed in table mode
       {"id": "tab", "period": 1.0,
        "model": {"type": "table",
                  "covers": {"1": [[lambda, winding, mult], ...]}},
        "hyperbolic": true} ]}

Flow samples are the symmetric coefficient loop of the asymptotic operator on
a uniform odd grid; table covers list complete winding classes (the trusted
window is the largest listed |eigenvalue|).  No solve produces a stored table,
so ``spectrum`` reports its grid as 0.

Building file::

    {"format": 1,
     "components": [
       {"id": "top", "genus": 0, "rel_c1": 0, "kind": "nontrivial",
        "wind_pi": 0, "image_class": "west",      # both optional
        "punctures": [
          {"sign": "+", "orbit": {"simple": "rot_p", "k": 1},
           "constraint": 0.0, "controlling_winding": 0}]}],   # winding optional
     "breaking_pairs": [[["bot", 0], ["top", 1]]],            # positive site first
     "nodal_pairs": [["a", "b"]]}

Asymptotics file (for ``enumerate``)::

    {"format": 1, "rel_c1": 0,
     "punctures": [{"sign": "+", "orbit": {"simple": "rot_p", "k": 1},
                    "constraint": 0.0}]}

Exit codes: 0 success or ok-verdict, 1 verdict violations, 2 input errors
(and internal errors, reported without a traceback; and a stdout that its
reader closed early or that was closed at start, reported not at all).
Non-finite numbers (NaN, Infinity) and integers past the float range are
input errors.  A file error cites the file and the JSON path of the field, as
in ``bad.json.components[2].punctures[0].constraint``; one reader (``_read``)
checks every field's presence and JSON kind.  An orbit that the catalog lacks
is cited at the ``orbit`` field of the first puncture that names it, with the
catalog file, and a controlling winding that ``validate`` or ``check`` needs
at the ``controlling_winding`` field of the first puncture that lacks it.  An
error in a flag's value names the flag, as in ``--cover: ...``, and one about
the building as a whole (it has no core, or is not connected for the stable
check; a building without components is not connected) cites the building
file.
JSON output is byte-stable for fixed inputs (sorted keys, sorted lists, and
computed eigenvalues rounded to 12 significant digits).

A command run as a process (``python -m hbcalc.cli`` or the ``hbcalc``
script, both through `run`) runs with the cyclic garbage collector off and
ends with ``os._exit`` once its output is flushed; `main()` called in process
does neither.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .buildings import (
    Building,
    Component,
    OrbitRef,
    Puncture,
    add_node,
    augment,
    core,
    disjoint_union,
    glue_punctures,
)
from .errors import BuildingError, CatalogError, HbcalcError, InputError, OutputBudgetError
from .errors import IncompleteInputError, UnknownOrbitError

# Each subcommand imports the modules it runs where it runs them: `surgery`
# needs only buildings (no numpy), `spectrum` no index or degeneration layer.
if TYPE_CHECKING:
    from .degeneration import Asymptotics
    from .index_calculus import IndexReport
    from .orbits import Catalog

FORMAT_VERSION = 1


# --- schema reader -----------------------------------------------------------

_REQUIRED = object()
#: JSON kinds by the phrase an error message names them with
_KINDS = {"an object": dict, "an array": list, "a string": str, "an integer": int,
          "a number": (int, float), "a boolean": bool}


def _path(at, key=None) -> str:
    """The JSON path of a location, or of its field or element `key`: a
    location is a path string or a (parent, key) pair, read as ``parent.key``
    for a field and ``parent[key]`` for an array element."""
    if key is not None:
        return f"{_path(at)}.{key}" if isinstance(key, str) else f"{_path(at)}[{key}]"
    return at if isinstance(at, str) else _path(*at)


def _read(obj, key, kind: str, at, default=_REQUIRED):
    """The JSON value ``obj[key]``, or `obj` itself when `key` is None, checked
    to be of `kind` ("an object", "an integer", ...); `at` is the location of
    `obj`, spelled out only in an error.  A missing field takes `default`
    (without one it is an error); a field whose default is None also takes
    null.  Numbers come back as finite floats."""
    if key is None:
        value = obj
    else:
        value = obj.get(key, default) if isinstance(key, str) else obj[key]
        if value is default:
            if value is _REQUIRED:
                raise InputError(f"{_path(at, key)}: required field missing")
            return value
    types = _KINDS[kind]
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        raise InputError(f"{_path(at, key)}: expected {kind}")
    if kind == "a number":
        try:
            value = float(value)
        except OverflowError:
            raise InputError(
                f"{_path(at, key)}: expected a finite number, got an integer past the float range"
            ) from None
        if not math.isfinite(value):
            raise InputError(f"{_path(at, key)}: expected a finite number, got {value}")
    return value


def _read_fixed(obj, at, layout: str, kinds) -> tuple:
    """The elements of the JSON array `obj` at location `at`, which must hold
    one per entry of `kinds`: each a kind for `_read`, or a reader called with
    the element and its location.  `layout` names the elements in an error."""
    if len(_read(obj, None, "an array", at)) != len(kinds):
        raise InputError(f"{_path(at)}: expected [{layout}]")
    return tuple(kind(obj[i], (at, i)) if callable(kind) else _read(obj, i, kind, at)
                 for i, kind in enumerate(kinds))


def _check_format(obj: dict, path: str) -> None:
    version = _read(obj, "format", "an integer", path)
    if version != FORMAT_VERSION:
        raise InputError(f"{path}.format: unsupported version {version}")


def _load_json(filename: str):
    def reject_constant(name):
        raise InputError(f"{filename}: non-finite number {name} is not allowed")

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):  # the reader would keep the last value silently
            seen = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise InputError(f"{filename}: duplicate key {key!r} in an object")
        return obj

    try:
        with open(filename, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=reject_constant,
                             object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {filename}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's digit limit
        raise InputError(f"{filename}: invalid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested past the reader's recursion limit
        raise InputError(f"{filename}: invalid JSON: nested too deeply") from None


_JSON_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
#: encoder pieces joined into one write: about 60 KB of indented JSON
_JSON_BATCH = 10_000


def _dump_json(payload, out=None) -> None:
    """Write `payload` as JSON with sorted keys and a two-space indent, plus a
    newline, to `out` (stdout by default), in batches as it is encoded, so a
    large answer is never held whole as text."""
    out = sys.stdout if out is None else out
    pieces = _JSON_ENCODER.iterencode(payload)
    while batch := "".join(itertools.islice(pieces, _JSON_BATCH)):
        out.write(batch)
    out.write("\n")


def _canonical_float(x: float) -> float:
    """A computed float rounded to 12 significant digits for JSON output.

    The digits are for byte stability, not a claim of accuracy: they are
    coarser than the last-digit noise of the eigensolver (about 1e-13, which
    varies with the BLAS thread count and the solution route), but the default
    grid can be off by far more (8.2e-6 on a 33-sample rough loop).
    """
    return float(f"{x:.12g}")


# --- catalog reading ----------------------------------------------------------


def catalog_from_data(data, path: str = "catalog") -> Catalog:
    from .orbits import Catalog, SimpleOrbit
    from .spectral import FlowLoop, SpectralEntry, SpectralTable

    root = _read(data, None, "an object", path)
    _check_format(root, path)
    orbits = []
    for i, entry in enumerate(_read(root, "orbits", "an array", path)):
        at = ((path, "orbits"), i)
        record = _read(entry, None, "an object", at)
        oid = _read(record, "id", "a string", at)
        period = _read(record, "period", "a number", at)
        if not period > 0:
            raise InputError(f"{_path(at, 'period')}: period must be positive, got {period}")
        model_obj = _read(record, "model", "an object", at)
        model_at = (at, "model")
        mtype = _read(model_obj, "type", "a string", model_at)
        if mtype == "flow":
            samples_at = (model_at, "samples")
            triples = [_read_fixed(row, (samples_at, j), "s11, s12, s22", ("a number",) * 3)
                       for j, row in enumerate(_read(model_obj, "samples", "an array", model_at))]
            try:
                model = FlowLoop.from_triples(triples)
            except ValueError as exc:
                raise InputError(f"{_path(samples_at)}: {exc}") from exc
        elif mtype == "table":
            model = {}
            for key, rows in _read(model_obj, "covers", "an object", model_at).items():
                cpath = f"{_path(model_at)}.covers[{key!r}]"
                try:
                    k = int(key)
                except ValueError:
                    raise InputError(f"{cpath}: cover keys must be integers") from None
                entries = sorted(
                    (SpectralEntry(*_read_fixed(row, (cpath, j), "eigenvalue, winding, multiplicity",
                                                ("a number", "an integer", "an integer")))
                     for j, row in enumerate(_read(rows, None, "an array", cpath))),
                    key=lambda e: e.eigenvalue)
                window = max((abs(e.eigenvalue) for e in entries), default=0.0)
                table = SpectralTable(entries=tuple(entries), window=window, grid=0)
                try:
                    table.validate()
                except HbcalcError as exc:
                    raise InputError(f"{cpath}: {exc}") from exc
                model[k] = table
        else:
            raise InputError(f"{_path(model_at)}.type: unknown model type {mtype!r}")
        hyperbolic = _read(record, "hyperbolic", "a boolean", at, None)
        try:
            orbits.append(SimpleOrbit(oid, period, model, hyperbolic))
        except HbcalcError as exc:
            raise InputError(f"{_path(at)}: {exc}") from exc
    try:
        return Catalog(orbits)
    except HbcalcError as exc:  # the audit of the whole catalog
        raise InputError(f"{path}: {exc}") from exc


def load_catalog(filename: str) -> Catalog:
    return catalog_from_data(_load_json(filename), path=filename)


# --- building (de)serialization -----------------------------------------------


def _puncture_from_data(data, at) -> Puncture:
    record = _read(data, None, "an object", at)
    sign = _read(record, "sign", "a string", at)
    if sign not in ("+", "-"):
        raise InputError(f"{_path(at)}.sign: expected '+' or '-'")
    orbit = _read(record, "orbit", "an object", at)
    orbit_at = (at, "orbit")
    try:
        return Puncture(
            sign=1 if sign == "+" else -1,
            orbit=OrbitRef(_read(orbit, "simple", "a string", orbit_at),
                           _read(orbit, "k", "an integer", orbit_at)),
            constraint=_read(record, "constraint", "a number", at, 0.0),
            controlling_winding=_read(record, "controlling_winding", "an integer", at, None),
        )
    except (BuildingError, CatalogError) as exc:
        raise InputError(f"{_path(at)}: {exc}") from exc


def building_from_data(data, path: str = "building") -> Building:
    root = _read(data, None, "an object", path)
    _check_format(root, path)
    components = []
    for i, entry in enumerate(_read(root, "components", "an array", path)):
        at = ((path, "components"), i)
        record = _read(entry, None, "an object", at)
        punctures = tuple(
            _puncture_from_data(p, ((at, "punctures"), j))
            for j, p in enumerate(_read(record, "punctures", "an array", at, []))
        )
        wind_pi = _read(record, "wind_pi", "an integer", at, None)
        image_class = _read(record, "image_class", "a string", at, None)
        try:
            components.append(
                Component(
                    id=_read(record, "id", "a string", at),
                    genus=_read(record, "genus", "an integer", at),
                    punctures=punctures,
                    rel_c1=_read(record, "rel_c1", "an integer", at, 0),
                    kind=_read(record, "kind", "a string", at, "nontrivial"),
                    wind_pi=wind_pi,
                    image_class=image_class,
                )
            )
        except BuildingError as exc:  # a field error already names its own path
            raise InputError(f"{_path(at)}: {exc}") from exc

    def pairs(field, layout, kinds):
        return tuple(_read_fixed(pair, ((path, field), i), layout, kinds)
                     for i, pair in enumerate(_read(root, field, "an array", path, [])))

    def site(entry, at):
        return _read_fixed(entry, at, "component id, puncture index", ("a string", "an integer"))

    breaking = pairs("breaking_pairs", "positive site, negative site", (site, site))
    nodal = pairs("nodal_pairs", "component id, component id", ("a string",) * 2)
    try:
        return Building(components=tuple(components), breaking_pairs=breaking, nodal_pairs=nodal)
    except HbcalcError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_building(filename: str) -> Building:
    return building_from_data(_load_json(filename), path=filename)


@contextlib.contextmanager
def _citing_orbits(catalog_file: str, holders):
    """Report an orbit that the catalog lacks at the orbit field of the first
    puncture naming it; `holders` yields the (location, punctures) of each
    record of the file that lists punctures, in file order."""
    try:
        yield
    except UnknownOrbitError as exc:
        at = next((((held_at, "punctures"), j) for held_at, punctures in holders
                   for j, p in enumerate(punctures) if p.orbit.simple == exc.orbit_id), None)
        if at is None:
            raise
        raise InputError(
            f"{_path(at, 'orbit')}: unknown orbit id {exc.orbit_id!r} "
            f"(not in catalog {catalog_file})"
        ) from exc


def _orbit_data(ref: OrbitRef | None) -> dict | None:
    return None if ref is None else {"simple": ref.simple, "k": ref.k}


def building_to_data(building: Building) -> dict:
    building = building.canonical()
    components = []
    for comp in building.components:
        punctures = []
        for p in comp.punctures:
            record = {
                "sign": "+" if p.sign == 1 else "-",
                "orbit": _orbit_data(p.orbit),
                "constraint": p.constraint,
            }
            if p.controlling_winding is not None:
                record["controlling_winding"] = p.controlling_winding
            punctures.append(record)
        record = {
            "id": comp.id,
            "genus": comp.genus,
            "rel_c1": comp.rel_c1,
            "kind": comp.kind,
            "punctures": punctures,
        }
        if comp.wind_pi is not None:
            record["wind_pi"] = comp.wind_pi
        if comp.image_class is not None:
            record["image_class"] = comp.image_class
        components.append(record)
    return {
        "format": FORMAT_VERSION,
        "components": components,
        "breaking_pairs": [
            [[p[0], p[1]], [n[0], n[1]]] for p, n in building.breaking_pairs
        ],
        "nodal_pairs": [[a, b] for a, b in building.nodal_pairs],
    }


def asymptotics_from_data(data, path: str = "asymptotics") -> Asymptotics:
    from .degeneration import Asymptotics

    root = _read(data, None, "an object", path)
    _check_format(root, path)
    punctures = tuple(
        _puncture_from_data(p, ((path, "punctures"), i))
        for i, p in enumerate(_read(root, "punctures", "an array", path))
    )
    return Asymptotics(punctures=punctures, rel_c1=_read(root, "rel_c1", "an integer", path, 0))


def load_asymptotics(filename: str) -> Asymptotics:
    return asymptotics_from_data(_load_json(filename), path=filename)


# --- report rendering ----------------------------------------------------------


def _site_list(sites) -> list:
    return [[s[0], s[1]] for s in sites]


def index_report_to_data(report: IndexReport) -> dict:
    return {
        "chi": report.chi,
        "genus": report.genus,
        "c1_total": report.c1_total,
        "mu_total": report.mu_total,
        "index": report.index,
        "c_N": report.c_n,
        "gamma0": _site_list(report.gamma0),
        "gamma1": _site_list(report.gamma1),
        "per_component": [
            {
                "component": r.component,
                "induced_constraints": [
                    [s[0], s[1], c] for (s, c) in r.induced_constraints
                ],
                "index": r.index,
                "c_N": r.c_n,
                "defect_total": r.defect_total,
                "wind_pi_consistent": r.wind_pi_consistent,
            }
            for r in report.per_component
        ],
    }


def _print_index_report(report: IndexReport) -> None:
    print(f"chi       = {report.chi}")
    print(f"genus     = {report.genus if report.genus is not None else 'n/a (disconnected)'}")
    print(f"c1_total  = {report.c1_total}")
    print(f"mu_total  = {report.mu_total}")
    print(f"index     = {report.index}")
    print(f"c_N       = {report.c_n}")
    print(f"gamma0    = {[f'{c}:{i}' for c, i in report.gamma0]}")
    print(f"gamma1    = {[f'{c}:{i}' for c, i in report.gamma1]}")
    for r in report.per_component:
        defect = "n/a" if r.defect_total is None else str(r.defect_total)
        flag = "ok" if r.wind_pi_consistent else "INCONSISTENT"
        print(
            f"component {r.component}: index={r.index} c_N={r.c_n} "
            f"defect={defect} wind_pi={flag}"
        )


def _violations_data(violations) -> list:
    return [
        {"code": v.code, "location": v.location, "message": v.message}
        for v in violations
    ]


def _print_violations(violations) -> None:
    for v in violations:
        print(f"violation {v.code} at {v.location}: {v.message}")


# --- subcommands -----------------------------------------------------------------


@contextlib.contextmanager
def _citing(where: str, errors=HbcalcError):
    """Report an error of the enclosed step, one of `errors`, as one in
    `where`: the flag or the input file whose value it is about."""
    try:
        yield
    except errors as exc:
        raise InputError(f"{where}: {exc}") from exc


def _cmd_spectrum(args) -> int:
    if args.grid is not None and (args.grid < 3 or args.grid % 2 == 0):
        raise InputError(f"--grid must be odd and >= 3, got {args.grid}")
    catalog = load_catalog(args.catalog)
    with _citing("--cover"):
        ref = OrbitRef(args.orbit, args.cover)
    if not (math.isfinite(args.window) and args.window > 0):
        raise InputError(f"--window: window must be finite and positive, got {args.window}")
    try:
        table = catalog.spectrum_of(ref, args.window, args.grid)
    except UnknownOrbitError as exc:
        raise InputError(f"--orbit: {exc} (not in catalog {args.catalog})") from exc
    except CatalogError as exc:  # a table-mode orbit rejects a grid before anything else
        if args.grid is not None and not catalog.orbit(ref.simple).is_flow:
            raise InputError(f"--grid: {exc}") from exc
        raise
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "orbit": _orbit_data(ref),
            "window": table.window,
            "grid": table.grid,
            "entries": [
                [_canonical_float(e.eigenvalue), e.winding, e.multiplicity]
                for e in table.entries
            ],
        }
        _dump_json(payload)
    else:
        print(f"orbit {ref}  window {table.window}  grid {table.grid}")
        print(f"{'eigenvalue':>18}  {'winding':>7}  {'mult':>4}")
        for e in table.entries:
            print(f"{e.eigenvalue:+18.9f}  {e.winding:>7d}  {e.multiplicity:>4d}")
    return 0


@contextlib.contextmanager
def _building_inputs(args):
    """The catalog and the building that `args` name, loaded; an orbit that the
    catalog lacks, or a controlling winding that a check needs and the file
    omits (the first such puncture), is cited in the building file within."""
    catalog = load_catalog(args.catalog)
    building = load_building(args.building)
    at = (args.building, "components")
    with _citing_orbits(args.catalog, (((at, i), c.punctures)
                                       for i, c in enumerate(building.components))):
        try:
            yield catalog, building
        except IncompleteInputError as exc:
            cid, j = exc.sites[0]
            i = [c.id for c in building.components].index(cid)
            raise InputError(f"{_path((((at, i), 'punctures'), j), 'controlling_winding')}: "
                             f"{exc}") from exc


def _cmd_index(args) -> int:
    from .index_calculus import index_report, verify_additivity

    with _building_inputs(args) as (catalog, building):
        report = index_report(catalog, building)
        verify_additivity(catalog, building)  # raises InternalCheckError on a mismatch
    if args.json:
        _dump_json({"format": FORMAT_VERSION, "report": index_report_to_data(report)})
    else:
        _print_index_report(report)
    return 0


def _cmd_validate(args) -> int:
    from .degeneration import validate_nice

    with _building_inputs(args) as (catalog, building):
        verdict = validate_nice(catalog, building)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "ok": verdict.ok,
            "violations": _violations_data(verdict.violations),
        }
        _dump_json(payload)
    else:
        print("nicely embedded: ok" if verdict.ok else "nicely embedded: violations found")
        _print_violations(verdict.violations)
    return 0 if verdict.ok else 1


def _parse_site(text: str, flag: str):
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise InputError(f"{flag}: expected COMPONENT:PUNCTURE_INDEX, got {text!r}")
    try:
        return (head, int(tail))
    except ValueError:
        raise InputError(f"{flag}: puncture index must be an integer in {text!r}") from None


def _cmd_surgery(args) -> int:
    building = load_building(args.building)
    if args.op == "augment":
        if (args.site is None) == (args.pair is None):
            raise InputError("augment needs exactly one of --site or --pair")
        if args.site is not None:
            flag, site = "--site", _parse_site(args.site, "--site")
        else:
            flag, site = "--pair", args.pair
        with _citing(flag):
            result = augment(building, site)
    elif args.op == "core":
        with _citing(args.building):
            result = core(building)
    elif args.op == "node":
        if args.components is None:
            raise InputError("node needs --components A,B")
        parts = args.components.split(",")
        if len(parts) != 2:
            raise InputError("--components: expected exactly two comma-separated ids")
        with _citing("--components"):
            result = add_node(building, parts[0], parts[1])
    elif args.op == "glue":
        if args.pos is None or args.neg is None:
            raise InputError("glue needs --pos and --neg sites")
        pos, neg = _parse_site(args.pos, "--pos"), _parse_site(args.neg, "--neg")
        with _citing("--pos/--neg"):
            result = glue_punctures(building, pos, neg)
    else:  # union: argparse restricts --op to these five
        if args.other is None:
            raise InputError("union needs --other FILE")
        result = disjoint_union(building, load_building(args.other))
    _dump_json(building_to_data(result))
    return 0


def _cmd_enumerate(args) -> int:
    from .degeneration import enumerate_limits

    catalog = load_catalog(args.catalog)
    asymptotics = load_asymptotics(args.asymptotics)
    with (_citing(args.asymptotics, OutputBudgetError),
          _citing_orbits(args.catalog, [(args.asymptotics, asymptotics.punctures)])):
        limits = enumerate_limits(catalog, asymptotics)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "limits": [
                {
                    "top": list(lt.top),
                    "bottom": list(lt.bottom),
                    "breaking": _orbit_data(lt.breaking),
                    "index_top": 1,
                    "index_bottom": 1,
                    "c_N_top": 0,
                    "c_N_bottom": 0,
                }
                for lt in limits
            ],
        }
        _dump_json(payload)
    else:
        print(f"{len(limits)} admissible limit type(s)")
        for lt in limits:
            print(
                f"top {list(lt.top)} / bottom {list(lt.bottom)} breaking "
                f"{lt.breaking.simple}^{lt.breaking.k} (side indices 1/1, c_N 0/0)"
            )
    return 0


def _cmd_check(args) -> int:
    from .degeneration import classify_stable_limit

    with _building_inputs(args) as (catalog, building), _citing(args.building, BuildingError):
        verdict = classify_stable_limit(catalog, building)
    if args.json:
        payload = {
            "format": FORMAT_VERSION,
            "kind": verdict.kind,
            "index": verdict.index,
            "violations": _violations_data(verdict.violations),
            "breaking_orbit": _orbit_data(verdict.breaking_orbit),
            "top_component": verdict.top_component,
            "bottom_component": verdict.bottom_component,
        }
        _dump_json(payload)
    else:
        if verdict.ok:
            print(f"verdict: {verdict.kind} (index {verdict.index})")
            if verdict.kind == "BROKEN_PAIR":
                b = verdict.breaking_orbit
                print(
                    f"breaking orbit {b.simple}^{b.k}; top {verdict.top_component}, "
                    f"bottom {verdict.bottom_component}"
                )
        else:
            print(f"verdict: rejected (index {verdict.index})")
            _print_violations(verdict.violations)
    return 0 if verdict.ok else 1


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbcalc",
        description="Spectra, indices and degeneration checks for holomorphic buildings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the subparsers in help order; each flag that several share is declared in
    # one loop, placed so that every subcommand keeps its order of arguments
    commands = {}
    for name, func, text in (
            ("spectrum", _cmd_spectrum, "windowed spectrum of an orbit cover"),
            ("index", _cmd_index, "index report of a building"),
            ("validate", _cmd_validate, "nicely-embedded checks"),
            ("surgery", _cmd_surgery, "apply a surgery operation, emit the result"),
            ("enumerate", _cmd_enumerate, "admissible limits of a stable index-2 curve"),
            ("check", _cmd_check, "run a theorem checker")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)
    reporting = [p for name, p in commands.items() if name != "surgery"]
    for p in reporting:
        p.add_argument("--catalog", required=True)
    p = commands["spectrum"]
    p.add_argument("--orbit", required=True)
    p.add_argument("--cover", type=int, default=1)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--grid", type=int, default=None)
    for name in ("index", "validate", "surgery", "check"):
        commands[name].add_argument("--building", required=True)
    p = commands["surgery"]
    p.add_argument("--op", required=True, choices=["augment", "core", "node", "glue", "union"])
    p.add_argument("--site", default=None, help="augment: COMPONENT:PUNCTURE_INDEX")
    p.add_argument("--pair", type=int, default=None, help="augment: breaking pair index")
    p.add_argument("--components", default=None, help="node: A,B")
    p.add_argument("--pos", default=None, help="glue: positive site COMPONENT:INDEX")
    p.add_argument("--neg", default=None, help="glue: negative site COMPONENT:INDEX")
    p.add_argument("--other", default=None, help="union: second building file")
    commands["enumerate"].add_argument("--asymptotics", required=True)
    commands["check"].add_argument("--theorem", required=True, choices=["stable"])
    for p in reporting:
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # its descriptor was closed at start (``>&-``): no reader
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): not a fault of ours, and
        # nothing more can be shown there, so leave without a message; stdout
        # points at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (HbcalcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "verdict with violations", so a crash must not reach it
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The process entry of ``python -m hbcalc.cli`` and the ``hbcalc`` script.

    Runs `main` with the cyclic garbage collector off (a command is short,
    and the end of the process frees what its cycles hold), flushes stdout
    and stderr, and ends the process with ``os._exit``, so the interpreter's
    teardown (collections over numpy's and hbcalc's objects) never runs.
    Nothing is lost by that: a command's only outputs are stdout and stderr,
    and it registers no atexit work.  Any other output a command gains (such
    as a ``--trace FILE``) must be closed before ``os._exit``, which closes
    nothing.  A flush whose reader has gone shows nothing and keeps the exit
    code.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help or a flag error
        code = exc.code
    except OSError:  # the message of an error met a stderr whose reader has gone
        code = 2
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed at start
        with contextlib.suppress(OSError, ValueError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
