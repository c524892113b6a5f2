import copy
import hashlib
import json
import os
import pathlib
import random
import runpy
import subprocess
import sys

import pytest

from horofan import cli
from horofan import cones
from horofan import document as docmod
from horofan import sampling as S

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens"
SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"
SPLIT_DIGEST = "78ae4bb0fbe72bcbc892ec1311ade3366625f3dd508671d363d8e4e334b66780"


def run_cli(capsys, *args):
    code = cli.main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def machine(capsys, command, path, *extra):
    code, out, err = run_cli(capsys, command, path, "--format", "machine", *extra)
    return code, (json.loads(out) if out else None), err


def test_classify_golden(capsys):
    code, rep, _ = machine(capsys, "classify", GOLDENS / "a3_colour_line.json")
    assert code == 0
    assert rep["verdict"] == {"q_factorial": True, "factorial": True,
                              "smooth": False, "quotient_singularities": False,
                              "toroidal": False}


def test_classify_quadric(capsys):
    code, rep, _ = machine(capsys, "classify", GOLDENS / "quadric_cone.json")
    assert code == 0
    v = rep["verdict"]
    assert v["q_factorial"] and v["quotient_singularities"]
    assert not v["factorial"] and not v["smooth"]


def test_cox_p2(capsys):
    code, rep, _ = machine(capsys, "cox", GOLDENS / "p2.json")
    assert code == 0
    assert rep["class_group"] == {"free_rank": 1, "torsion": []}
    assert rep["k_hat_rank"] == 1
    assert rep["n_hat_rank"] == 3
    assert rep["cox_fan"]["regular"] and rep["cox_fan"]["smooth"]


def test_cox_p112(capsys):
    code, rep, _ = machine(capsys, "cox", GOLDENS / "p112.json")
    assert code == 0
    assert rep["class_group"] == {"free_rank": 1, "torsion": []}
    assert rep["verdict"]["q_factorial"] and not rep["verdict"]["factorial"]


def test_machine_output_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "classify", GOLDENS / "p2.json",
                             "--format", "machine")
    code2, out2, _ = run_cli(capsys, "classify", GOLDENS / "p2.json",
                             "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2


def test_local_command(capsys):
    code, rep, _ = machine(capsys, "local", GOLDENS / "a3_colour_line.json",
                           "--cone", "1")
    assert code == 0
    assert rep["levi"]["nodes"] == ["A3.1", "A3.2", "A3.3"]
    assert rep["restricted_colours"] == ["A3.2"]
    assert rep["vivid"] is False


def test_local_bad_index(capsys):
    code, _, _ = machine(capsys, "local", GOLDENS / "a3_colour_line.json",
                         "--cone", "9")
    assert code == cli.EXIT_PRECONDITION


def test_decolour_flips_verdict(capsys):
    code, rep, _ = machine(capsys, "decolour", GOLDENS / "a3_colour_line.json",
                           "--keep", "")
    assert code == 0
    assert rep["verdict"]["quotient_singularities"] is True
    assert rep["verdict"]["toroidal"] is True
    # re-emitted document has no cone colours
    assert all(c["colours"] == [] for c in rep["document"]["cones"])


def test_split_then_cox(tmp_path, capsys):
    code, rep, _ = machine(capsys, "split", GOLDENS / "ray_with_torus_factor.json")
    assert code == 0
    assert rep["quotient_rank"] == 1
    restricted = tmp_path / "restricted.json"
    restricted.write_text(json.dumps(rep["document"]))
    code2, rep2, _ = machine(capsys, "cox", restricted)
    assert code2 == 0
    assert rep2["class_group"] == {"free_rank": 0, "torsion": []}


def _random_document(rng):
    """A seeded coloured fan with a torus factor, as a document."""
    d = S.random_diagram(rng)
    fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                n_hyperplanes=rng.randint(1, 2))
    fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
    prefixes = dict.fromkeys(node.split(".")[0] for node in d.nodes)
    components = [{"family": p[0], "rank": int(p[1:].split("_")[0])}
                  for p in prefixes]
    template = {"group": {"components": components, "torus_rank": d.torus_rank},
                "parabolic": [n for n in d.nodes if n in d.parabolic]}
    return docmod.document_for_fan(template, fan)


def test_parse_inverts_render_on_random_documents():
    # and the canonical bytes do not depend on how the parsed text was laid out
    rng = random.Random(2718)
    for _ in range(30):
        doc = _random_document(rng)
        text = cli.render_machine(doc)
        assert docmod.parse(text) == doc == json.loads(text)
        compact = json.dumps(doc, separators=(",", ":"))
        assert cli.render_machine(docmod.parse(compact)) == text


def test_split_machine_bytes_on_random_fans():
    # n_prime_basis is the one output read off the inverse column transform
    # of the Smith normal form; the digest pins it beyond the single golden
    rng = random.Random(1512)
    digest = hashlib.sha256()
    for _ in range(30):
        report = cli.run(_random_document(rng), "split")
        assert report["quotient_rank"] >= 1
        digest.update(cli.render_machine(report).encode())
    assert digest.hexdigest() == SPLIT_DIGEST


def test_split_of_a_split_document_changes_nothing():
    # a fan without a torus factor splits to itself, on the identity basis
    rng = random.Random(7)
    for _ in range(30):
        split = cli.run(_random_document(rng), "split")["document"]
        again = cli.run(docmod.parse(json.dumps(split)), "split")
        n = split["lattice_rank"]
        assert again["quotient_rank"] == 0
        assert again["n_prime_basis"] == [[int(i == j) for j in range(n)]
                                          for i in range(n)]
        assert again["document"] == split


def _shuffled(rng, doc):
    """`doc` with its cone list, each cone's rays and its colours reordered."""
    cones = [{"rays": rng.sample(c["rays"], len(c["rays"])),
              "colours": rng.sample(c["colours"], len(c["colours"]))}
             for c in doc["cones"]]
    rng.shuffle(cones)
    return {**doc, "cones": cones}


def machine_of(doc, command):
    return cli.render_machine(cli.run(doc, command))


def test_machine_bytes_do_not_depend_on_listing_order():
    # a fan is a set of cones, a cone the set of its rays, a colour set a
    # set: classify, split, and cox on the split document read none of
    # the orders; and a split document splits off nothing more
    rng = random.Random(7)
    reorderings = 0
    for _ in range(30):
        doc = _random_document(rng)
        mixed = _shuffled(rng, doc)
        reorderings += mixed["cones"] != doc["cones"]
        for command in ("classify", "split"):
            assert machine_of(mixed, command) == machine_of(doc, command)
        split = docmod.parse(json.dumps(cli.run(doc, "split")["document"]))
        assert machine_of(_shuffled(rng, split), "cox") == machine_of(split, "cox")
        assert cli.run(split, "split")["quotient_rank"] == 0
    assert reorderings > 20


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, rep, _ = machine(capsys, "classify", bad)
    assert code == cli.EXIT_PARSE
    assert rep["error"]["code"] == "ParseError"
    assert rep["error"]["line"] == 1


def test_exit_code_validation_error(tmp_path, capsys):
    overlapping = tmp_path / "overlap.json"
    overlapping.write_text(json.dumps({
        "group": {"components": [], "torus_rank": 2},
        "parabolic": [],
        "lattice_rank": 2,
        "colour_points": {},
        "cones": [{"rays": [[1, 0], [0, 1]], "colours": []},
                  {"rays": [[1, 1], [1, -1]], "colours": []}],
    }))
    code, rep, _ = machine(capsys, "classify", overlapping)
    assert code == cli.EXIT_VALIDATION
    assert rep["error"]["code"] == "OverlappingCones"


def test_exit_code_precondition(capsys):
    code, rep, _ = machine(capsys, "cox", GOLDENS / "ray_with_torus_factor.json")
    assert code == cli.EXIT_PRECONDITION
    assert rep["error"]["code"] == "HasTorusFactors"


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("path", ["no_such_file.json", GOLDENS],
                         ids=["missing", "directory"])
def test_missing_file(capsys, path, fmt):
    # an unreadable FILE fails like any other parse error: exit 2, and in
    # the machine format the JSON error object on stdout
    code, out, err = run_cli(capsys, "classify", path, "--format", fmt)
    assert code == cli.EXIT_PARSE
    if fmt == "machine":
        error = json.loads(out)["error"]
        assert error["code"] == "ParseError"
        assert error["message"].startswith("cannot read the file: [Errno")
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error[ParseError]: cannot read the file: [Errno")


def test_cli_import_does_not_load_dataclasses_inspect_or_ast():
    # a command's cold start pays for every module `import horofan.cli`
    # loads; these three and the classes built with them were about a
    # fifth of it
    new = set(runpy.run_path(str(SCRIPTS / "work_counts.py"))["cli_modules"]())
    assert "horofan.cli" in new
    assert not new & {"dataclasses", "inspect", "ast"}


def test_text_format(capsys):
    code, out, err = run_cli(capsys, "classify", GOLDENS / "p2.json")
    assert code == 0
    assert "verdict:" in out
    assert "smooth" in out


# (document, command line) of every golden whose machine output is frozen in
# bench/data/golden_out/<document>.<verb>.out, as scripts/run_goldens.py
# lists them
GOLDEN_COMMANDS = [
    (name.removesuffix(".json"), command.split(" "))
    for name, commands in runpy.run_path(
        str(SCRIPTS / "run_goldens.py"))["COMMANDS"].items()
    for command in commands]
FROZEN = pathlib.Path(__file__).parent.parent / "bench" / "data" / "golden_out"


@pytest.mark.parametrize("name,command", GOLDEN_COMMANDS,
                         ids=[f"{n}.{c[0]}" for n, c in GOLDEN_COMMANDS])
def test_golden_machine_bytes(capsys, name, command):
    verb, *extra = command
    code, out, _ = run_cli(capsys, verb, GOLDENS / f"{name}.json", *extra,
                           "--format", "machine")
    assert code == 0
    assert out.encode() == (FROZEN / f"{name}.{verb}.out").read_bytes()


def test_golden_commands_cover_frozen_outputs():
    frozen = {p.name for p in FROZEN.glob("*.out")}
    assert frozen == {f"{n}.{c[0]}.out" for n, c in GOLDEN_COMMANDS}


_RUN_GOLDENS = """
import contextlib, io, json, sys
from horofan import cli
out = {}
for name, verb, *extra in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main([verb, f"{sys.argv[2]}/{name}.json", *extra, "--format", "machine"])
    out[f"{name}.{verb}"] = buf.getvalue()
print(json.dumps(out))
"""


def test_golden_bytes_do_not_depend_on_hash_seed():
    # the iteration order of a set of strings follows PYTHONHASHSEED; the
    # machine output must not
    commands = [[name, *command] for name, command in GOLDEN_COMMANDS
                if command[0] in ("classify", "cox", "local")]
    src = str(pathlib.Path(cli.__file__).parents[1])
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _RUN_GOLDENS,
                               json.dumps(commands), str(GOLDENS)],
                              env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(commands)
    for key, text in outputs[0].items():
        assert text.encode() == (FROZEN / f"{key}.out").read_bytes(), key


def _assert_parse_error(capsys, path):
    code, rep, _ = machine(capsys, "classify", path)
    assert code == cli.EXIT_PARSE
    assert rep["error"]["code"] == "ParseError"


def test_parse_error_huge_integer(tmp_path, capsys):
    doc = tmp_path / "huge.json"
    doc.write_text('{"lattice_rank": ' + "9" * 5000 + "}")
    _assert_parse_error(capsys, doc)


def test_parse_error_not_utf8(tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes(b'{"group": "\xe9"}')
    _assert_parse_error(capsys, doc)


def test_parse_error_deep_nesting(tmp_path, capsys):
    doc = tmp_path / "nested.json"
    doc.write_text("[" * 100000)
    _assert_parse_error(capsys, doc)


def test_rank8_cyclic_cone_classifies():
    # the ROADMAP's rank-8 scale: one cyclic cone, rays (1, t, ..., t^7)
    # for t = 0..n-1; every face but the cone itself is simplicial
    for n, n_cones in ((12, 1840), (14, 3616)):
        doc = docmod.parse(json.dumps(_cyclic_doc(8, n)))
        rep = cli.run(doc, "classify")
        assert len(rep["cones"]) == n_cones
        assert sum(c["simplicial"] for c in rep["cones"]) == n_cones - 1
        assert rep["verdict"] == {"q_factorial": False, "factorial": False,
                                  "smooth": False, "quotient_singularities": False,
                                  "toroidal": True}


def _cyclic_doc(rank, n):
    # one cone with rays (1, t, ..., t^(rank-1)) for t = 0..n-1
    return {"group": {"components": [], "torus_rank": rank}, "parabolic": [],
            "lattice_rank": rank, "colour_points": {},
            "cones": [{"rays": [[t ** i for i in range(rank)] for t in range(n)],
                       "colours": []}]}


def test_cyclic_8_12_machine_bytes(tmp_path, capsys):
    # 1,840 faces and 1.5 MB; each ray recurs in hundreds of face entries,
    # which the encoder writes from one encoding per indent
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(_cyclic_doc(8, 12)))
    code, out, err = run_cli(capsys, "classify", path, "--format", "machine")
    assert code == cli.EXIT_OK, err
    assert len(out) == 1522591
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "08e7c2265afa46cfc4873b61643105a6b6e7ee208d5456f6730d32461aed31ac")


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_cox_writes_an_invariant_past_the_int_string_limit(tmp_path, capsys, fmt):
    path = tmp_path / "big.json"
    path.write_text(_big_rays_doc())
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "cox", path, "--format", fmt)
    assert code == cli.EXIT_OK, err
    assert sys.get_int_max_str_digits() == limit  # restored for the caller
    nines = "9" * 4400
    if fmt == "machine":
        assert '"torsion": [\n      ' + nines + "\n    ]" in out
    else:
        assert f"class group: Z/{nines}\n" in out
    for command in ("classify", "split"):
        assert run_cli(capsys, command, path, "--format", fmt)[0] == cli.EXIT_OK


def test_renderers_write_an_invariant_past_the_int_string_limit():
    # a library caller, such as the benchmark's worker, renders a report
    # without lifting the limit itself
    report = cli.run(docmod.parse(_big_rays_doc()), "cox")
    limit = sys.get_int_max_str_digits()
    nines = "9" * 4400
    assert '"torsion": [\n      ' + nines + "\n    ]" in cli.render_machine(report)
    assert f"class group: Z/{nines}\n" in cli.render_text(report)
    assert sys.get_int_max_str_digits() == limit


def _big_rays_doc():
    # each entry has 2,201 digits, which parse accepts; the class group is
    # Z/(10^4400 - 1), whose 4,400 digits pass Python's int-string limit
    big = 10 ** 2200
    doc = _torus_doc(2)
    doc["cones"] = [{"rays": [[big, 1], [1, big]], "colours": []}]
    return json.dumps(doc)


def _torus_doc(rank):
    return {"group": {"components": [], "torus_rank": rank}, "parabolic": [],
            "lattice_rank": rank, "colour_points": {}, "cones": []}


def _a_chain_doc(rank):
    # one colour, A<rank>.1; every other node parabolic
    return {"group": {"components": [{"family": "A", "rank": rank}], "torus_rank": 0},
            "parabolic": [f"A{rank}.{i}" for i in range(2, rank + 1)],
            "lattice_rank": 1, "colour_points": {f"A{rank}.1": [1]},
            "cones": [{"rays": [[1]], "colours": [f"A{rank}.1"]}]}


def test_local_levi_edges_in_string_order(tmp_path, capsys):
    # from rank 10 on, string order differs from numbering order:
    # "A12.10" < "A12.9"
    path = tmp_path / "a12.json"
    path.write_text(json.dumps(_a_chain_doc(12)))
    code, rep, _ = machine(capsys, "local", path, "--cone", 1)
    assert code == cli.EXIT_OK
    edges = rep["levi"]["edges"]
    assert len(edges) == 11
    assert all(a < b for a, b, _, _ in edges)
    assert ["A12.10", "A12.9", 1, None] in edges


@pytest.mark.parametrize("make,cap", [(_torus_doc, docmod.MAX_LATTICE_RANK),
                                      (_a_chain_doc, docmod.MAX_COMPONENT_RANK)],
                         ids=["lattice_rank", "component_rank"])
def test_caps_at_the_document_boundary(tmp_path, capsys, make, cap):
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_text(json.dumps(make(cap)))
    code, rep, _ = machine(capsys, "classify", at_cap)
    assert code == cli.EXIT_OK
    assert rep["verdict"]["quotient_singularities"]

    past = tmp_path / "past_cap.json"
    past.write_text(json.dumps(make(cap + 1)))
    code, rep, _ = machine(capsys, "classify", past)
    assert code == cli.EXIT_PARSE
    assert rep["error"]["code"] == "ParseError"
    assert f"exceeds the limit {cap}" in rep["error"]["message"]
    code, out, err = run_cli(capsys, "classify", past)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error[ParseError]:")


@pytest.mark.parametrize("entry", [[0], {"A3.1": 1}], ids=["list", "dict"])
def test_parse_error_parabolic_entry_not_a_string(tmp_path, capsys, entry):
    raw = json.loads((GOLDENS / "a3_colour_line.json").read_text())
    raw["parabolic"] = ["A3.1", entry]
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps(raw))
    code, rep, _ = machine(capsys, "classify", path)
    assert code == cli.EXIT_PARSE
    assert rep["error"]["code"] == "ParseError"
    assert repr(entry) in rep["error"]["message"]
    code, out, err = run_cli(capsys, "classify", path)
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err.startswith("error[ParseError]: parabolic:") and repr(entry) in err


# what a mutation may put in: scalars of every JSON type, and key names the
# schema uses
_VALUES = [0, 1, -1, 2, -3, 7, True, False, None, 1.5, "", "x", "A", "A3.2",
           [], {}, [0], [[1]], {"A3.1": 1}]
_KEYS = ["group", "components", "torus_rank", "family", "rank", "parabolic",
         "lattice_rank", "colour_points", "cones", "rays", "colours", "A3.2"]


def _mutate(rng, doc):
    """Replace, delete, add or shuffle one entry of a container in doc; a
    new value is a scalar or a copy of a subtree of doc."""
    containers, subtrees = [], []

    def walk(x):
        subtrees.append(x)
        if isinstance(x, (dict, list)):
            containers.append(x)
            for v in (x.values() if isinstance(x, dict) else x):
                walk(v)
    walk(doc)
    c = rng.choice(containers)
    value = copy.deepcopy(rng.choice(_VALUES + subtrees))
    keys = list(c) if isinstance(c, dict) else list(range(len(c)))
    op = rng.randrange(4) if keys else 2
    if op == 0:
        key = rng.choice(keys)
        if type(c[key]) is int and rng.random() < 0.5:
            value = c[key] + rng.choice((-2, -1, 1, 2))  # a nearby integer
        c[key] = value
    elif op == 1:
        del c[rng.choice(keys)]
    elif op == 2 and isinstance(c, dict):
        c[rng.choice(_KEYS)] = value
    elif op == 2:
        c.insert(rng.randint(0, len(c)), value)
    elif isinstance(c, dict):
        items = list(c.items())
        rng.shuffle(items)
        c.clear()
        c.update(items)
    else:
        rng.shuffle(c)


def test_mutated_documents_exit_with_a_documented_code(tmp_path, capsys):
    # seeded mutations of the golden documents: every command exits 0, 2, 3
    # or 4 with JSON on stdout, and never with a traceback
    rng = random.Random(53)
    goldens = [json.loads(p.read_text()) for p in sorted(GOLDENS.glob("*.json"))]
    commands = [["classify"], ["cox"], ["split"], ["decolour", "--keep", ""],
                ["local", "--cone", "0"]]
    path = tmp_path / "mutant.json"
    codes = set()
    for _ in range(300):
        doc = copy.deepcopy(rng.choice(goldens))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, doc)
        path.write_text(json.dumps(doc))
        for verb, *extra in commands:
            code, out, _ = run_cli(capsys, verb, path, *extra, "--format", "machine")
            assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
                            cli.EXIT_PRECONDITION), (doc, verb)
            json.loads(out)
            codes.add(code)
    assert codes == {0, 2, 3, 4}


def test_classify_and_cox_use_both_cone_caches():
    """`bench/run.py` emits `cones.faces.cache_hit_ratio` and
    `cones.intersect.cache_hit_ratio` only for a cached function that the
    traced pass calls; this test stays until `bench/spans.py` emits both
    keys unconditionally."""
    cones.faces.cache_clear()
    cones.intersect.cache_clear()
    doc = docmod.parse((GOLDENS / "p2.json").read_text())
    for command in ("classify", "cox"):
        cli.run(doc, command)
    for cached in (cones.faces, cones.intersect):
        info = cached.cache_info()
        assert info.hits + info.misses > 0, cached.__name__
