import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

from cyfold import cli
from cyfold.exactlin import Field
from cyfold.presets import kronecker_algebra, kronecker_root


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def kron_inputs(tmp_path):
    code = run(["--out-dir", str(tmp_path), "gen", "kronecker", "--s", "0", "--eps", "1"])
    assert code == cli.EXIT_PASS
    return (
        str(tmp_path / "kronecker_algebra.json"),
        str(tmp_path / "kronecker_bimodule.json"),
    )


def test_roundtrip_serialization(kron_inputs):
    apath, upath = kron_inputs
    with open(apath) as fh:
        adoc = json.load(fh)
    alg = cli.doc_to_algebra(adoc["quiver"], 3)
    assert alg.dim == 4
    again = cli.quiver_to_doc(alg.quiver)
    assert again == adoc["quiver"]
    with open(upath) as fh:
        udoc = json.load(fh)
    u = cli.doc_to_complex(udoc, alg)
    assert cli.complex_to_doc(u) == udoc
    ref = kronecker_root(kronecker_algebra(), 0, 1)
    assert u.cohomology_dims() == ref.cohomology_dims()


def test_gen_beilinson_d1(tmp_path):
    code = run(["--out-dir", str(tmp_path), "gen", "beilinson", "--d", "1"])
    assert code == cli.EXIT_PASS
    with open(tmp_path / "beilinson_algebra.json") as fh:
        alg = cli.doc_to_algebra(json.load(fh)["quiver"], 2)
    with open(tmp_path / "beilinson_bimodule.json") as fh:
        u = cli.doc_to_complex(json.load(fh), alg)
    assert u.cohomology_dims() == kronecker_root(kronecker_algebra(), 0, 1).cohomology_dims()


def test_check_root_pair_exit_and_report(tmp_path, kron_inputs):
    apath, upath = kron_inputs
    out = tmp_path / "run1"
    code = run([
        "--out-dir", str(out), "check-root-pair",
        "--algebra", apath, "--bimodule", upath,
        "--a", "2", "--d", "1", "--e", "0",
    ])
    assert code == cli.EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"] == {
        "add": True, "cyclically_invariant": True, "k0_spanning": True,
        "orth": True, "root": True,
    }
    # deterministic apart from timing
    out2 = tmp_path / "run2"
    run([
        "--out-dir", str(out2), "check-root-pair",
        "--algebra", apath, "--bimodule", upath,
        "--a", "2", "--d", "1", "--e", "0",
    ])
    r1 = json.loads((out / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timing_s")
    r2.pop("timing_s")
    assert r1 == r2


def test_cyclic_invariance_failure_detected(tmp_path):
    run(["--out-dir", str(tmp_path), "gen", "kronecker", "--s", "0", "--eps", "-1",
         "--prefix", "km"])
    out = tmp_path / "neg"
    code = run([
        "--out-dir", str(out), "check-root-pair",
        "--algebra", str(tmp_path / "km_algebra.json"),
        "--bimodule", str(tmp_path / "km_bimodule.json"),
        "--a", "2", "--d", "1", "--e", "0",
    ])
    assert code == cli.EXIT_FAIL
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["root"] is True
    assert report["verdicts"]["cyclically_invariant"] is False


def test_complete_cache(tmp_path, kron_inputs, monkeypatch):
    apath, upath = kron_inputs
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "c1"
    argv = [
        "--out-dir", str(out), "complete",
        "--algebra", apath, "--bimodule", upath,
        "--adams-max", "4", "--e", "0", "--csv", str(tmp_path / "h.csv"),
    ]
    assert run(argv) == cli.EXIT_PASS
    r1 = json.loads((out / "report.json").read_text())
    assert r1["hilbert_degree_zero"] == [1, 2, 3, 4, 5]
    assert r1["cache_hit"] is False
    assert run(argv) == cli.EXIT_PASS
    r2 = json.loads((out / "report.json").read_text())
    assert r2["cache_hit"] is True
    assert r2["hilbert_degree_zero"] == r1["hilbert_degree_zero"]
    # deleting the cache recomputes the same values
    shutil.rmtree(str(tmp_path / "cache"))
    assert run(argv) == cli.EXIT_PASS
    r3 = json.loads((out / "report.json").read_text())
    assert r3["cache_hit"] is False
    assert r3["hilbert_degree_zero"] == r1["hilbert_degree_zero"]


def test_cache_key_depends_on_inputs(tmp_path, monkeypatch):
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    run(["--out-dir", str(tmp_path), "gen", "kronecker", "--eps", "1", "--prefix", "p"])
    run(["--out-dir", str(tmp_path), "gen", "kronecker", "--eps", "-1", "--prefix", "m"])
    out = tmp_path / "r"
    run(["--out-dir", str(out), "complete",
         "--algebra", str(tmp_path / "p_algebra.json"),
         "--bimodule", str(tmp_path / "p_bimodule.json"),
         "--adams-max", "3", "--e", "0"])
    code = run(["--out-dir", str(out), "complete",
                "--algebra", str(tmp_path / "m_algebra.json"),
                "--bimodule", str(tmp_path / "m_bimodule.json"),
                "--adams-max", "3", "--e", "0"])
    assert code == cli.EXIT_PASS
    r = json.loads((out / "report.json").read_text())
    assert r["cache_hit"] is False  # changed eps, different hash


def test_fold_dot(tmp_path):
    dot = tmp_path / "f.dot"
    out = tmp_path / "fold"
    code = run(["--out-dir", str(out), "fold", "--type", "A", "--rank", "4",
                "--a", "2", "--window", "12", "--dot", str(dot)])
    assert code == cli.EXIT_PASS
    r = json.loads((out / "report.json").read_text())
    assert r["fundamental_domain_vertices"] == 12
    text = dot.read_text()
    assert text.startswith("digraph") and "cluster_domain" in text


@pytest.mark.parametrize("d,window,found,code", [
    (1, 3, 4, cli.EXIT_INCONCLUSIVE),
    (1, 4, 12, cli.EXIT_PASS),
    (3, 11, 28, cli.EXIT_INCONCLUSIVE),
    (3, 12, 32, cli.EXIT_PASS),
])
def test_fold_partial_domain_is_inconclusive(tmp_path, capsys, d, window, found, code):
    # the fold of A4 is tau^k with k = 3 at d = 1 and k = 8 at d = 3, so a
    # fundamental domain has 4k vertices
    assert run(["--out-dir", str(tmp_path), "fold", "--type", "A", "--rank", "4",
                "--a", "2", "--d", str(d), "--window", str(window)]) == code
    r = json.loads((tmp_path / "report.json").read_text())
    assert r["fundamental_domain_vertices"] == found
    if code == cli.EXIT_PASS:
        assert "expected_fundamental_domain_vertices" not in r
    else:
        assert r["expected_fundamental_domain_vertices"] == 4 * (3 if d == 1 else 8)
        reason = json.loads(capsys.readouterr().err)["inconclusive"]
        assert f"{found} of the {4 * (3 if d == 1 else 8)} vertices" in reason


def test_classify_roots_cli(tmp_path):
    out = tmp_path / "cls"
    assert run(["--out-dir", str(out), "classify-roots", "--type", "A",
                "--rank", "4", "--a", "2"]) == cli.EXIT_PASS
    r = json.loads((out / "report.json").read_text())
    assert r["root_exists"] is True


def test_orbit_hom_csv(tmp_path, kron_inputs):
    apath, upath = kron_inputs
    csv = tmp_path / "hom.csv"
    code = run(["--out-dir", str(tmp_path / "oh"), "orbit-hom",
                "--algebra", apath, "--bimodule", upath,
                "--e", "0", "--window", "3", "--csv", str(csv)])
    # the polynomial completion never converges: inconclusive exit
    assert code == cli.EXIT_INCONCLUSIVE
    assert csv.read_text().startswith("x,y,dim,converged,window")


def test_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["check-root-pair", "--algebra", str(bad), "--bimodule", str(bad),
                "--a", "2", "--d", "1", "--e", "0"])
    assert code == cli.EXIT_INPUT


def test_prime_field_run(tmp_path, kron_inputs):
    apath, upath = kron_inputs
    out = tmp_path / "gf"
    code = run([
        "--out-dir", str(out), "--field", "101", "complete",
        "--algebra", apath, "--bimodule", upath,
        "--adams-max", "3", "--e", "0",
    ])
    assert code == cli.EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["hilbert_degree_zero"] == [1, 2, 3, 4]


def _complete_argv(out, apath, upath):
    return ["--out-dir", str(out), "complete", "--algebra", apath,
            "--bimodule", upath, "--adams-max", "4", "--e", "0"]


@pytest.mark.parametrize("entry", [
    {"tabel": {}},
    {"table": {"0:0": 99}},
    {"table": {"0:0": 99}, "sha256": cli.content_hash({"0:0": 1})},
    [1, 2],
])
def test_bad_cache_entry_is_recomputed(tmp_path, kron_inputs, monkeypatch, entry):
    apath, upath = kron_inputs
    cache = tmp_path / "cache"
    monkeypatch.setenv("CYFOLD_CACHE", str(cache))
    out = tmp_path / "c"
    assert run(_complete_argv(out, apath, upath)) == cli.EXIT_PASS
    (path,) = cache.glob("*.json")
    path.write_text(json.dumps(entry))
    assert run(_complete_argv(out, apath, upath)) == cli.EXIT_PASS
    r = json.loads((out / "report.json").read_text())
    assert r["cache_hit"] is False
    assert r["hilbert_degree_zero"] == [1, 2, 3, 4, 5]
    # the bad entry was overwritten by a good one
    assert run(_complete_argv(out, apath, upath)) == cli.EXIT_PASS
    assert json.loads((out / "report.json").read_text())["cache_hit"] is True


@pytest.mark.parametrize("name", ["__version__", "SCHEMA_VERSION", "source"])
def test_cache_key_depends_on_versions(tmp_path, kron_inputs, monkeypatch, name):
    apath, upath = kron_inputs
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    if name == "source":  # hash a copy of the package that the test can edit
        shutil.copytree(cli.PACKAGE_DIR, tmp_path / "pkg")
        monkeypatch.setattr(cli, "PACKAGE_DIR", str(tmp_path / "pkg"))
    out = tmp_path / "v"
    assert run(_complete_argv(out, apath, upath)) == cli.EXIT_PASS
    if name == "source":
        with open(tmp_path / "pkg" / "completion.py", "a", encoding="utf-8") as fh:
            fh.write("# edited\n")
    else:
        monkeypatch.setattr(cli, name, getattr(cli, name) + getattr(cli, name))
    assert run(_complete_argv(out, apath, upath)) == cli.EXIT_PASS
    assert json.loads((out / "report.json").read_text())["cache_hit"] is False


def _kronecker_docs():
    alg = kronecker_algebra()
    return {
        "algebra": {"quiver": cli.quiver_to_doc(alg.quiver),
                    "meta": {"model": "kronecker", "s": 0, "eps": 1, "max_len": 3}},
        "bimodule": cli.complex_to_doc(kronecker_root(alg, 0, 1)),
    }


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _field_paths(v, prefix + (k,))


FUZZ_CASES = [
    (doc, path, value)
    for doc, tree in _kronecker_docs().items()
    for path in _field_paths(tree)
    for value in ("x", [1], None, 0.5)
]


def _complete_on(tmp_path, docs):
    for name, tree in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(tree))
    return run(_complete_argv(tmp_path / "out", str(tmp_path / "algebra.json"),
                              str(tmp_path / "bimodule.json")))


@pytest.mark.parametrize(
    "doc,path,value", FUZZ_CASES,
    ids=[f"{d}:{'.'.join(map(str, p))}={v!r}" for d, p, v in FUZZ_CASES])
def test_malformed_field_never_crashes(tmp_path, monkeypatch, doc, path, value):
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    docs = _kronecker_docs()
    node = docs[doc]
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    code = _complete_on(tmp_path, docs)
    assert code in {cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE, cli.EXIT_INPUT}


@pytest.mark.parametrize("mutate", [
    lambda docs: docs.update(algebra=[1, 2]),
    lambda docs: docs["algebra"]["quiver"]["arrows"][0].update(cdeg="x"),
    lambda docs: docs["algebra"]["meta"].update(max_len=0),
], ids=["list-document", "string-cdeg", "max-len-too-small"])
def test_malformed_algebra_is_input_error(tmp_path, mutate):
    docs = _kronecker_docs()
    mutate(docs)
    assert _complete_on(tmp_path, docs) == cli.EXIT_INPUT


def _halve_bimodule_coefficient(docs):
    docs["bimodule"]["diff"]["-1"][0][0][0]["coef"] = "1/2"


def _add_halving_relation(docs):
    # a third arrow z, killed by the relation z / 2 = 0
    quiver = docs["algebra"]["quiver"]
    quiver["arrows"].append({"name": "z", "from": 0, "to": 1, "cdeg": 0, "adeg": 0})
    quiver["relations"] = [[{"coef": "1/2", "path": ["z"]}]]


@pytest.mark.parametrize("mutate", [_halve_bimodule_coefficient, _add_halving_relation],
                         ids=["bimodule", "relation"])
def test_coefficient_undefined_mod_p_is_input_error(tmp_path, monkeypatch, mutate):
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    docs = _kronecker_docs()
    mutate(docs)
    for name, tree in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(tree))
    argv = _complete_argv(tmp_path / "out", str(tmp_path / "algebra.json"),
                          str(tmp_path / "bimodule.json"))
    assert run(["--field", "2"] + argv) == cli.EXIT_INPUT
    # 1/2 is a unit over Q and over GF(3)
    assert run(["--field", "3"] + argv) != cli.EXIT_INPUT
    assert run(argv) != cli.EXIT_INPUT


def test_doc_to_algebra_maps_field_and_length_errors():
    docs = _kronecker_docs()
    _add_halving_relation(docs)
    with pytest.raises(cli.ParseError, match="relations"):
        cli.doc_to_algebra(docs["algebra"]["quiver"], 3, Field(2))
    with pytest.raises(cli.ParseError, match="meta.max_len"):
        cli.doc_to_algebra(_kronecker_docs()["algebra"]["quiver"], 0)


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify_roots", boom)
    code = run(["classify-roots", "--type", "A", "--rank", "2", "--a", "2"])
    assert code == cli.EXIT_INTERNAL
    assert "RuntimeError: boom" in capsys.readouterr().err


# k[x]/(x^2) has infinite global dimension, so its bimodule resolution never
# terminates within the length bound
DUAL_NUMBERS_DOCS = {
    "algebra": {"meta": {"max_len": 2}, "quiver": {
        "vertices": [0],
        "arrows": [{"name": "x", "from": 0, "to": 0, "cdeg": 0, "adeg": 0}],
        "relations": [[{"coef": "1", "path": ["x", "x"]}]]}},
    "bimodule": {"terms": {"0": [{"left": 0, "right": 0, "adeg": 1}]}, "diff": {}},
}


@pytest.mark.parametrize("command", [
    ["check-root-pair", "--a", "2", "--d", "1", "--e", "0"],
    ["complete", "--adams-max", "3", "--e", "0"],
], ids=["check-root-pair", "complete"])
def test_infinite_global_dimension_is_inconclusive(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    for name, tree in DUAL_NUMBERS_DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(tree))
    code = run(["--out-dir", str(tmp_path / "out"), command[0],
                "--algebra", str(tmp_path / "algebra.json"),
                "--bimodule", str(tmp_path / "bimodule.json")] + command[1:])
    assert code == cli.EXIT_INCONCLUSIVE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "BoundExceeded" in json.loads(err[0])["inconclusive"]


def test_resource_limit_is_inconclusive(tmp_path, kron_inputs, monkeypatch, capsys):
    from cyfold import completion

    apath, upath = kron_inputs
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(completion, "TruncatedTensorAlgebra", functools.partial(
        completion.TruncatedTensorAlgebra, summand_limit=1))
    assert run(_complete_argv(tmp_path / "out", apath, upath)) == cli.EXIT_INCONCLUSIVE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["inconclusive"].startswith("ResourceLimit: power 1 has")


# Prints the cyfold modules loaded by `import cyfold.cli` and then by the
# command in argv, with the command's exit code and which of hashlib and
# traceback are loaded at the end.
LOADED_MODULES = """
import json, sys
import cyfold.cli
def loaded():
    return sorted(m[len("cyfold."):] for m in sys.modules if m.startswith("cyfold."))
on_import = loaded()
code = cyfold.cli.main(sys.argv[1:])
std = sorted(m for m in ("hashlib", "traceback") if m in sys.modules)
print(json.dumps([code, on_import, loaded(), std]))
"""
BARE_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in ("hashlib", "traceback") if m in sys.modules)))
"""
QUIVER_ONLY = ["cli", "cluster", "quiver"]
COMPLEX_INPUT = ["cli", "complexes", "quiver", "quiveralg", "exactlin", "_kernels"]
PAIR = ["--algebra", "@algebra", "--bimodule", "@bimodule"]
COMPLETE = ["complete"] + PAIR + ["--adams-max", "4", "--e", "0"]


# a `complete` whose set lacks `completion` is the cache hit
@pytest.mark.parametrize("argv,modules,code", [
    (["fold", "--type", "A", "--rank", "4", "--a", "2", "--window", "12"], QUIVER_ONLY, 0),
    (["classify-roots", "--type", "A", "--rank", "4", "--a", "2"], QUIVER_ONLY, 0),
    (["gen", "kronecker"], COMPLEX_INPUT + ["presets"], 0),
    (["gen", "typeA", "--n", "2", "--d", "1"], COMPLEX_INPUT + ["presets"], 0),
    (["gen", "a4mod"], COMPLEX_INPUT + ["presets"], 0),
    (["check-root-pair"] + PAIR + ["--a", "2", "--d", "1", "--e", "0"],
     COMPLEX_INPUT + ["bimodcx", "rootpair"], 0),
    (["orbit-hom"] + PAIR + ["--e", "0", "--window", "2"],
     COMPLEX_INPUT + ["bimodcx", "cluster"], cli.EXIT_INCONCLUSIVE),
    (COMPLETE, COMPLEX_INPUT + ["bimodcx", "completion"], 0),
    (COMPLETE, COMPLEX_INPUT, 0),
    (["--field", "2147483647", "classify-roots", "--type", "A", "--rank", "4", "--a", "2"],
     QUIVER_ONLY, 0),
    # a bad --field is refused before the command imports anything
    (["--field", "4", "fold", "--type", "A", "--rank", "4"], ["cli"], cli.EXIT_INPUT),
], ids=["fold", "classify-roots", "gen", "gen-typeA", "gen-a4mod", "check-root-pair",
        "orbit-hom", "complete-cold", "complete-cache-hit", "classify-roots-gfp",
        "fold-field4"])
def test_command_imports_only_what_it_runs(tmp_path, kron_inputs, monkeypatch, argv, modules,
                                           code):
    apath, upath = kron_inputs
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "out"
    command = argv[0]
    cached = command == "complete" and "completion" not in modules
    argv = ["--out-dir", str(out)] + [{"@algebra": apath, "@bimodule": upath}.get(a, a)
                                      for a in argv]
    if cached:
        assert run(argv) == cli.EXIT_PASS  # fill the cache
    env = dict(os.environ, PYTHONPATH=os.path.dirname(cli.PACKAGE_DIR))
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES] + argv,
                          capture_output=True, env=env, timeout=120, check=True)
    got, on_import, after, std = json.loads(proc.stdout.decode().splitlines()[-1])
    assert got == code
    assert on_import == ["cli"]
    assert after == sorted(modules)
    if command in ("fold", "gen"):
        # hashlib and traceback only when a bare interpreter already has them
        bare = subprocess.run([sys.executable, "-c", BARE_MODULES], capture_output=True,
                              env=env, timeout=120, check=True)
        assert set(std) <= set(json.loads(bare.stdout))
    if command == "complete":
        assert json.loads((out / "report.json").read_text())["cache_hit"] is cached


@pytest.mark.parametrize("argv", [
    ["fold", "--type", "A", "--rank", "4", "--d", "2"],
    ["fold", "--type", "A", "--rank", "4", "--a", "3"],
    ["fold", "--type", "A", "--rank", "0"],
    ["fold", "--type", "A", "--rank", "4", "--window", "0"],
    ["classify-roots", "--type", "D", "--rank", "3", "--a", "2"],
    ["classify-roots", "--type", "E", "--rank", "5", "--a", "2"],
    ["classify-roots", "--type", "E", "--rank", "9", "--a", "2"],
    ["classify-roots", "--type", "A", "--rank", "0", "--a", "2"],
    ["classify-roots", "--type", "A", "--rank", "4", "--a", "0"],
    ["classify-roots", "--type", "A", "--rank", "4", "--a", "2", "--window", "-3"],
], ids=["fold-even-d", "fold-a3", "fold-rank0", "fold-window0", "D3", "E5", "E9",
        "A0", "a0", "window-3"])
def test_fold_and_classify_reject_non_dynkin_questions(tmp_path, capsys, argv):
    assert run(["--out-dir", str(tmp_path)] + argv) == cli.EXIT_INPUT
    assert "error" in json.loads(capsys.readouterr().err)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv,location", [
    (["orbit-hom"] + PAIR + ["--e", "0", "--window", "-1"], "--window"),
    (["orbit-hom"] + PAIR + ["--e", "0", "--window", "0"], "--window"),
    (["check-root-pair"] + PAIR + ["--a", "0", "--d", "1", "--e", "0"], "--a"),
    (["--field", "4"] + COMPLETE, "--field"),
    (["--field", "1"] + COMPLETE, "--field"),
    (["--field", "-7"] + COMPLETE, "--field"),
    (["--field", "abc"] + COMPLETE, "--field"),
    (["--field", "0"] + COMPLETE, "--field"),
    (["--field", "1" + "0" * 400 + "1"] + COMPLETE, "--field"),
], ids=["orbit-window-1", "orbit-window0", "root-a0", "field4", "field1", "field-7",
        "field-abc", "field0", "field-401-digits"])
def test_pair_commands_reject_bad_arguments(tmp_path, kron_inputs, monkeypatch, capsys, argv,
                                            location):
    apath, upath = kron_inputs
    monkeypatch.setenv("CYFOLD_CACHE", str(tmp_path / "cache"))
    out = tmp_path / "out"
    capsys.readouterr()
    argv = [{"@algebra": apath, "@bimodule": upath}.get(a, a) for a in argv]
    assert run(["--out-dir", str(out)] + argv) == cli.EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"].startswith(location + ":")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["--field", "abc", "fold", "--type", "A", "--rank", "4", "--a", "2", "--window", "12"],
    ["--field", "4", "gen", "a4mod"],
    ["--field", "4", "classify-roots", "--type", "A", "--rank", "4", "--a", "2"],
    ["--field", str(2**64 + 13), "classify-roots", "--type", "A", "--rank", "4", "--a", "2"],
], ids=["fold-abc", "gen-4", "classify-roots-4", "classify-roots-above-2^64"])
def test_every_command_checks_field(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(["--out-dir", str(out)] + argv) == cli.EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"].startswith("--field:")
    assert not out.exists()


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["classify-roots", "--type", "X", "--rank", "4", "--a", "2"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["classify-roots", "--help"])
    assert exc.value.code == 0
    assert "only for the searched window" in capsys.readouterr().out
