"""Seeded mutation fuzzing of the three JSON loaders and of the flags,
through ``cli.main``.

Each loader mutant is a fixture document with one random edit: a dropped key,
a value of another JSON type, a replaced number, a truncated array or a
duplicated array element.  Each flag mutant is a ``spectrum`` or ``surgery``
command line whose flag values are drawn from small pools of valid, malformed,
non-finite, out-of-range and over-budget values.  Whatever the edit, the
command must end with a verdict or an input error: exit code 0, 1 or 2 (2 also
when argparse rejects a value), no traceback and no "internal error".
Mutated covers ``k`` stay in 1..4, in-budget flag covers at 3 or below and
windows at 40 or below, so every case runs in well under a second (oversized
requests that would be solved are the resource-budget tests' job).  A small
pool of large covers (``LARGE_COVERS``) is run against the real budget: each
must exit 2 with the budget message before anything of its size is allocated.
A pool of wide asymptotics (valid index-2 curves of ``WIDE_ENDS`` ends, whose
limits number far past ``MAX_LIMITS``, and one-edit mutants of them) runs
``enumerate``: each must exit 0 or 2 within ``WIDE_SECONDS``.  Text mutants
edit what a parsed document cannot hold: an object that gives one key twice,
or a node replaced by ``DEEP`` nested arrays or objects; each must exit 2 with
the reader's message for the file.  Gap mutants drop one interior winding class
from a cover of the table fixture; each must exit 2 with a message that names
the cover's JSON path and the missing winding.

Each loop writes its mutants to one path and removes the last one first: on
an ext4 disk, truncating and rewriting a file took about 60 ms a write, and
writing a new one a few milliseconds.
"""

import copy
import json
import time

import numpy as np
import pytest

from hbcalc import cli, spectral
from hbcalc.cli import main
from hbcalc.degeneration import MAX_LIMITS
from hbcalc.spectral import MAX_DENSE_DIM

from support import FIXTURES, loader_argv, random_stable_asymptotics, stable_end_options

MUTANTS_PER_LOADER = 100
FLAG_MUTANTS = 400

#: replacement numbers: signs, zero, fractions, huge, tiny, near the float limit
#: and an integer past it
NUMBERS = (0, 1, -1, 2, 3, 0.5, -0.5, 1e-9, 1e-308, 1e6, -1e6, 10**20, 2**53 + 1,
           1e154, 1e200, 1e308, -1e308, 1.7e308, 10**400)
#: one value of every JSON type
OTHER_TYPES = ("x", 7, 1.5, True, None, [], {})

#: per flag: values its command accepts (None omits the flag), then malformed,
#: non-finite, out-of-range and over-budget ones; a cover, window or grid past
#: the budget must be rejected before anything is allocated
FLAG_VALUES = {
    "--cover": ((None, "1", "2", "3"), ("0", "-1", "nan", "inf", "x", "1000000")),
    "--window": (("5", "10", "40"), ("0", "-1", "nan", "inf", "-inf", "x", "1e5", "1e308")),
    "--grid": ((None,), ("0", "-1", "33", "2048", "2049", "100001", "nan", "x")),
    "--site": (("cyl_top:0", "main_bot:0", "cyl:1"),
               ("cyl_top:5", "cyl_top:-1", "cyl:2", ":0", "a:b:c", "cyl_top", "",
                "ghost:0", "cyl_top:x", "cyl_top:99999999999999999999")),
    "--pair": (("0", "1", "2"), ("-1", "3", "99", "x", "")),
    "--pos": (("cyl_top:0", "cyl:0"), ("cyl_top:7", "cyl:-2", ":0", "a:b:c", "cyl_bot:1")),
    "--neg": (("cyl_bot:1", "cyl:1"), ("cyl_bot:9", "cyl:-1", ":1", "a:b:c", "cyl_top:0")),
    "--components": (("main_top,main_bot", "cyl,cyl"), ("a", "a,b,c", ",", "", "ghost,cyl")),
}
#: covers far past the dense budget (a 1000-fold cover of a 33-sample orbit
#: needs a grid of 33001), up to one past the float range
LARGE_COVERS = (1000, 10**6, 10**400)
#: text mutants per loader, and the nesting depth of the deep ones (far past
#: the reader's recursion limit)
TEXT_MUTANTS = 20
DEEP = 200_000
#: widths of the valid index-2 curves behind the wide enumerate cases, the
#: mutants drawn from each, and the seconds one case may take
WIDE_ENDS = (24, 40, 64)
WIDE_MUTANTS = 5
WIDE_SECONDS = 5.0
#: gap mutants per cover of the table fixture
GAP_MUTANTS = 4
SPECTRUM_ORBITS = (("catalog_demo.json", "rot_p"), ("catalog_fixture.json", "hyp2"),
                   ("catalog_table.json", "rot_tab"))
BUILDINGS = ("building_figure3.json", "building_cylinder.json",
             "building_fig3_oddbreak.json")
#: surgery ops with the flags each one reads
OPS = (("augment", ("--site",)), ("augment", ("--pair",)), ("glue", ("--pos", "--neg")),
       ("node", ("--components",)), ("core", ()))


def _nodes(doc, path=()):
    """(path, value) for every node of a JSON tree, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutate(rng: np.random.Generator, doc):
    """One random edit of a JSON document, in place; returns a short description."""
    nodes = list(_nodes(doc))
    candidates = {
        "drop": [(p, v) for p, v in nodes if isinstance(v, dict) and v],
        "retype": nodes[1:],
        "set": [(p, v) for p, v in nodes[1:] if _is_number(v)],
        "truncate": [(p, v) for p, v in nodes if isinstance(v, list) and v],
    }
    candidates["duplicate"] = candidates["truncate"]
    ops = [op for op, found in candidates.items() if found]
    op = ops[int(rng.integers(len(ops)))]
    # pick a kind of node first (its path with indices blanked), so the long
    # sample arrays do not crowd out the scalar fields
    kinds: dict[tuple, list] = {}
    for path, node in candidates[op]:
        kinds.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(
            (path, node))
    group = kinds[sorted(kinds)[int(rng.integers(len(kinds)))]]
    path, node = group[int(rng.integers(len(group)))]
    if op == "drop":
        key = sorted(node)[int(rng.integers(len(node)))]
        del node[key]
        return f"drop {path + (key,)}"
    if op == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(node)]
        value = copy.deepcopy(others[int(rng.integers(len(others)))])
    elif op == "set":
        value = int(rng.integers(1, 5)) if path[-1] == "k" else NUMBERS[
            int(rng.integers(len(NUMBERS)))]
    elif op == "truncate":
        del node[int(rng.integers(len(node))):]
        return f"truncate {path}"
    else:
        node.insert(int(rng.integers(len(node) + 1)),
                    copy.deepcopy(node[int(rng.integers(len(node)))]))
        return f"duplicate an element of {path}"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return f"{op} {path} to {value!r}"


def mutants(seed: int, bases: list[str]):
    """MUTANTS_PER_LOADER (base name, edit, mutated document) triples."""
    rng = np.random.default_rng(seed)
    docs = {name: json.loads((FIXTURES / name).read_text()) for name in bases}
    for i in range(MUTANTS_PER_LOADER):
        name = bases[i % len(bases)]
        doc = copy.deepcopy(docs[name])
        yield name, mutate(rng, doc), doc


def spliced(doc, path: tuple, raw: str) -> str:
    """The JSON text of `doc` with the node at `path` written as `raw`."""
    if not path:
        return raw
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@splice@"
    return json.dumps(doc).replace('"@splice@"', raw)


def text_mutants(seed: int, bases: list[str]):
    """TEXT_MUTANTS (base name, edit, text, message) per base: in turn, a key
    of a random object given again with a value of another JSON type, and a
    random node replaced by DEEP nested arrays or objects; `message` is the
    reader's error after the file name."""
    rng = np.random.default_rng(seed)
    for name in bases:
        doc = json.loads((FIXTURES / name).read_text())
        nodes = list(_nodes(doc))
        objects = [(path, node) for path, node in nodes if isinstance(node, dict) and node]
        for i in range(TEXT_MUTANTS):
            if i % 2:
                path, node = objects[int(rng.integers(len(objects)))]
                key = sorted(node)[int(rng.integers(len(node)))]
                value = OTHER_TYPES[int(rng.integers(len(OTHER_TYPES)))]
                raw = f"{json.dumps(node)[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"
                yield (name, f"key {key!r} of {path} twice", spliced(doc, path, raw),
                       f"duplicate key {key!r} in an object")
            else:
                path, _ = nodes[int(rng.integers(len(nodes)))]
                opener, closer = (("[", "]"), ('{"a": ', "}"))[int(rng.integers(2))]
                raw = opener * DEEP + "0" + closer * DEEP
                yield (name, f"{path} nested {opener!r} deep", spliced(doc, path, raw),
                       "invalid JSON: nested too deeply")


def large_cover_mutants(seed: int):
    """(base name, orbit, cover, document) for every loader fixture with ends and
    every large cover: all punctures over one seeded orbit cover move to it, so
    breaking pairs and trivial cylinders stay well formed."""
    rng = np.random.default_rng(seed)
    for name in ("building_cylinder.json", "building_figure3.json",
                 "building_fig3_oddbreak.json", "asymptotics_demo.json"):
        for cover in LARGE_COVERS:
            doc = json.loads((FIXTURES / name).read_text())
            punctures = [p for c in doc.get("components", [doc]) for p in c["punctures"]]
            refs = sorted({(p["orbit"]["simple"], p["orbit"]["k"]) for p in punctures})
            ref = refs[int(rng.integers(len(refs)))]
            for p in punctures:
                if (p["orbit"]["simple"], p["orbit"]["k"]) == ref:
                    p["orbit"]["k"] = cover
            yield name, ref, cover, doc


def winding_gap_mutants(seed: int):
    """(cover key, dropped winding, document) GAP_MUTANTS times per cover of the
    table fixture: every row of one seeded interior winding class removed."""
    rng = np.random.default_rng(seed)
    base = json.loads((FIXTURES / "catalog_table.json").read_text())
    for key in sorted(base["orbits"][0]["model"]["covers"]):
        for _ in range(GAP_MUTANTS):
            doc = copy.deepcopy(base)
            rows = doc["orbits"][0]["model"]["covers"][key]
            winds = sorted({row[1] for row in rows})
            w = winds[int(rng.integers(1, len(winds) - 1))]
            rows[:] = [row for row in rows if row[1] != w]
            yield key, w, doc


def wide_asymptotics(seed: int, catalog):
    """(width, edit, document) for a seeded valid index-2 curve of every width
    in WIDE_ENDS over `catalog`, each followed by WIDE_MUTANTS one-edit
    mutants of it."""
    rng = np.random.default_rng(seed)
    options = stable_end_options(catalog, rng)
    for n in WIDE_ENDS:
        curve = random_stable_asymptotics(rng, options, n)
        doc = {"format": 1, "rel_c1": 0, "punctures": [
            {"sign": "+" if p.sign == 1 else "-",
             "orbit": {"simple": p.orbit.simple, "k": p.orbit.k}, "constraint": p.constraint}
            for p in curve.punctures]}
        yield n, "valid", doc
        for _ in range(WIDE_MUTANTS):
            mutant = copy.deepcopy(doc)
            yield n, mutate(rng, mutant), mutant


def flag_mutants(seed: int):
    """FLAG_MUTANTS seeded ``spectrum`` and ``surgery`` command lines, each
    with at most one flag given a wrong value."""
    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    for i in range(FLAG_MUTANTS):
        if i % 2:
            catalog, orbit = pick(SPECTRUM_ORBITS)
            argv = ["spectrum", "--catalog", str(FIXTURES / catalog), "--orbit", orbit]
            flags = ("--cover", "--window", "--grid")
        else:
            op, flags = pick(OPS)
            argv = ["surgery", "--building", str(FIXTURES / pick(BUILDINGS)), "--op", op]
        wrong = pick(flags) if flags and rng.random() < 0.8 else None
        for flag in flags:
            value = pick(FLAG_VALUES[flag][flag == wrong])
            if value is not None:
                argv += [flag, value]
        yield argv


@pytest.fixture
def warm_fixture_catalogs(monkeypatch):
    """Load each unmutated fixture catalog once; mutated files load as usual."""
    real = cli.load_catalog
    cache = {}

    def load(filename):
        if not filename.startswith(str(FIXTURES)):
            return real(filename)
        if filename not in cache:
            cache[filename] = real(filename)
        return cache[filename]

    monkeypatch.setattr(cli, "load_catalog", load)


def assert_clean_exit(capsys, argv, case):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (case, code, err)
    assert "Traceback" not in out + err, (case, err)
    assert "internal error" not in err, (case, err)


class TestLoaderFuzz:
    def test_catalog_mutants(self, capsys, tmp_path):
        bases = ["catalog_demo.json", "catalog_fixture.json", "catalog_table.json"]
        path = tmp_path / "catalog.json"
        for i, (name, edit, doc) in enumerate(mutants(303, bases)):
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            if name == "catalog_table.json":
                argv = ["spectrum", "--catalog", str(path), "--orbit", "rot_tab",
                        "--window", "5"]
            elif i % 2:
                argv = ["spectrum", "--catalog", str(path), "--orbit", "rot_p",
                        "--cover", "2", "--window", "10", "--json"]
            else:
                argv = ["index", "--catalog", str(path), "--building",
                        str(FIXTURES / "building_figure3.json")]
            assert_clean_exit(capsys, argv, (name, edit))

    def test_building_mutants(self, capsys, tmp_path, warm_fixture_catalogs):
        bases = ["building_cylinder.json", "building_figure3.json",
                 "building_fig3_oddbreak.json"]
        path = tmp_path / "building.json"
        commands = (["index", "--json"], ["validate"], ["check", "--theorem", "stable"])
        for i, (name, edit, doc) in enumerate(mutants(101, bases)):
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            command, *flags = commands[i % len(commands)]
            argv = [command, "--catalog", str(FIXTURES / "catalog_fixture.json"),
                    "--building", str(path), *flags]
            assert_clean_exit(capsys, argv, (name, edit))

    def test_asymptotics_mutants(self, capsys, tmp_path, warm_fixture_catalogs):
        path = tmp_path / "asymptotics.json"
        for name, edit, doc in mutants(202, ["asymptotics_demo.json"]):
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            argv = ["enumerate", "--catalog", str(FIXTURES / "catalog_demo.json"),
                    "--asymptotics", str(path), "--json"]
            assert_clean_exit(capsys, argv, (name, edit))

    def test_large_covers_fail_the_budget_before_allocating(self, capsys, tmp_path,
                                                            warm_fixture_catalogs, monkeypatch):
        sizes = {"eigh": [0], "cover grid": [0]}
        real_eigh, real_pairs = np.linalg.eigh, spectral._bloch_eigenpairs

        def eigh(a, *args, **kwargs):
            sizes["eigh"].append(np.shape(a)[-1])  # a stack of blocks: the last axis
            return real_eigh(a, *args, **kwargs)

        def pairs(loop, k, m, size):
            sizes["cover grid"].append(k * m)
            return real_pairs(loop, k, m, size)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(spectral, "_bloch_eigenpairs", pairs)
        path = tmp_path / "input.json"
        cases = list(large_cover_mutants(505))
        assert {cover for _, _, cover, _ in cases} == set(LARGE_COVERS)
        for i, (name, ref, cover, doc) in enumerate(cases):
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            if name.startswith("asymptotics"):
                argv = ["enumerate", "--catalog", str(FIXTURES / "catalog_demo.json"),
                        "--asymptotics", str(path)]
            else:
                command = (["index"], ["check", "--theorem", "stable"])[i % 2]
                argv = [command[0], "--catalog", str(FIXTURES / "catalog_fixture.json"),
                        "--building", str(path), *command[1:]]
            code = main(argv)
            out, err = capsys.readouterr()
            case = (name, ref, cover)
            assert (code, out) == (2, ""), (case, err)
            assert "budget of 4096" in err, (case, err)
            assert "Traceback" not in err and "internal error" not in err, (case, err)
        # nothing of a large cover's size was solved or read on its cover grid
        assert max(sizes["eigh"]) <= MAX_DENSE_DIM
        assert max(sizes["cover grid"]) <= 2 * MAX_DENSE_DIM

    def test_wide_asymptotics_exit_cleanly_in_time(self, capsys, tmp_path, fixture_catalog,
                                                   warm_fixture_catalogs):
        catalog = str(FIXTURES / "catalog_fixture.json")
        path = tmp_path / "asymptotics.json"
        cases = list(wide_asymptotics(606, fixture_catalog))
        assert len(cases) == len(WIDE_ENDS) * (1 + WIDE_MUTANTS)
        for i, (n, edit, doc) in enumerate(cases):
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            argv = ["enumerate", "--catalog", catalog, "--asymptotics", str(path)]
            start = time.perf_counter()
            code = main(argv + ["--json"] * (i % 2))
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            case = (n, edit)
            assert code in (0, 2), (case, err)
            assert "Traceback" not in err and "internal error" not in err, (case, err)
            assert elapsed < WIDE_SECONDS, (case, elapsed)
            if edit == "valid":  # the valid curves meet the output budget
                assert (code, out) == (2, ""), case
                assert f"admissible limit types, above the budget of {MAX_LIMITS}" in err

    def test_duplicate_keys_and_deep_nesting(self, capsys, tmp_path, warm_fixture_catalogs):
        bases = ["catalog_demo.json", "catalog_fixture.json", "building_figure3.json",
                 "asymptotics_demo.json"]
        path = tmp_path / "input.json"
        cases = list(text_mutants(707, bases))
        assert len(cases) == TEXT_MUTANTS * len(bases)
        for name, edit, text, message in cases:
            path.unlink(missing_ok=True)
            path.write_text(text)
            code = main(loader_argv(name, str(path)))
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {path}: {message}\n"), (name, edit)

    def test_winding_gaps_name_the_cover(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        cases = list(winding_gap_mutants(808))
        assert len({w for _, w, _ in cases}) > 1
        for key, w, doc in cases:
            path.unlink(missing_ok=True)
            path.write_text(json.dumps(doc))
            code = main(loader_argv("catalog_table.json", str(path)))
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), (key, w, err)
            assert err.startswith(f"error: {path}.orbits[0].model.covers[{key!r}]: "
                                  f"no eigenvalue has winding {w} "), (key, w, err)

    def test_mutations_are_seeded_and_varied(self):
        first = [edit for _, edit, _ in mutants(7, ["building_figure3.json"])]
        again = [edit for _, edit, _ in mutants(7, ["building_figure3.json"])]
        assert first == again
        kinds = {edit.split()[0] for edit in first}
        assert kinds == {"drop", "retype", "set", "truncate", "duplicate"}


class TestFlagFuzz:
    def test_flag_mutants(self, capsys, warm_fixture_catalogs):
        for argv in flag_mutants(404):
            assert_clean_exit(capsys, argv, argv)

    def test_flag_mutants_are_seeded_and_varied(self):
        first = list(flag_mutants(404))  # the seed test_flag_mutants runs
        assert first == list(flag_mutants(404))
        words = {word for argv in first for word in argv}
        wrong = {value for _, values in FLAG_VALUES.values() for value in values}
        assert wrong | {"spectrum", "augment", "glue", "node", "core"} <= words
