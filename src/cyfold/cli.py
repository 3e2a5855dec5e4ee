"""Command-line front end: input schemas, report/DOT/CSV emitters, and a
content-addressed cache.

Input documents are UTF-8 JSON.  A quiver document is
  {"vertices": [...],
   "arrows": [{"name", "from", "to", "cdeg", "adeg"}, ...],
   "relations": [[{"coef": "p/q", "path": [names...]}, ...], ...]}
and a bimodule-complex document is
  {"terms": {"<cdeg>": [{"left", "right", "adeg"}, ...]},
   "diff": {"<cdeg>": [[entry, ...], ...]}}
where diff["<p>"][t][s] is the entry from source summand s at degree p to
target summand t at degree p+1, a list of
  {"coef": "p/q", "left_path": [names...], "right_path": [names...]}
with paths written in composition order (empty list = idempotent).
Exit codes: 0 all checks pass, 1 a check failed, 2 inconclusive (also when
a resolution or tensor power outgrows its bound), 3 input error, 4 internal
error (the traceback goes to stderr).

Each subcommand imports the modules it runs when it starts, so a fresh
process compiles only those (run without bytecode, it compiles each one
from source):
  fold, classify-roots   cli, cluster, quiver
  complete (cache hit)   cli, complexes, quiver, quiveralg, exactlin, _kernels
  gen                    as a cache hit, and presets
  complete (computed)    as a cache hit, and bimodcx, completion
  check-root-pair        as a cache hit, and bimodcx, rootpair
  orbit-hom              as a cache hit, and bimodcx, cluster
hashlib, tempfile, fractions and traceback are imported by the functions
that use them.  The `complete` cache key holds a hash of the package's
sources, so a cached table is never served to code that would compute it
differently.
"""

import argparse
import json
import os
import sys
import time

from . import Inconclusive, __version__, is_prime

SCHEMA_VERSION = 1
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class ParseError(Exception):
    def __init__(self, location, message):
        super().__init__(f"{location}: {message}")
        self.location = location


def _frac(text, location):
    from fractions import Fraction

    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(location, f"bad rational {text!r}: {exc}")


def quiver_to_doc(quiver, relations=()):
    return {
        "vertices": list(quiver.vertices),
        "arrows": [
            {"name": a.name, "from": a.source, "to": a.target,
             "cdeg": a.cdeg, "adeg": a.adeg}
            for a in quiver.arrows
        ],
        "relations": [
            [{"coef": str(c), "path": list(p)} for c, p in rel.terms]
            for rel in relations
        ],
    }


def _typed(value, types, location):
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ParseError(location, f"expected {names}, got {value!r}")
    return value


def doc_to_algebra(doc, max_len, field=None):
    from .exactlin import QQ
    from .quiveralg import Arrow, NotFiniteDimensional, Quiver, Relation, build_algebra

    try:
        arrows = [
            Arrow(_typed(a["name"], (str,), f"arrows[{i}].name"), a["from"], a["to"],
                  _typed(a.get("cdeg", 0), (int,), f"arrows[{i}].cdeg"),
                  _typed(a.get("adeg", 0), (int,), f"arrows[{i}].adeg"))
            for i, a in enumerate(doc["arrows"])
        ]
        vertices = [_typed(v, (int, str), f"vertices[{i}]")
                    for i, v in enumerate(doc["vertices"])]
        quiver = Quiver(vertices, arrows)
        rels = []
        for i, rel in enumerate(doc.get("relations", [])):
            terms = [
                (_frac(t["coef"], f"relations[{i}]"), tuple(t["path"])) for t in rel
            ]
            rels.append(Relation(terms))
            rels[-1].validate(quiver)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError("quiver", str(exc))
    try:
        return build_algebra(quiver, rels, max_len, QQ if field is None else field)
    except ZeroDivisionError as exc:
        raise ParseError("relations", str(exc))
    except NotFiniteDimensional as exc:
        raise ParseError("meta.max_len", str(exc))


def complex_to_doc(cx):
    from fractions import Fraction

    alg = cx.base
    terms = {}
    for p, ss in sorted(cx.terms.items()):
        terms[str(p)] = [
            {"left": s.left, "right": s.right, "adeg": s.adeg} for s in ss
        ]
    diff = {}
    for p in sorted(cx.diff):
        n_t = len(cx.summands(p + 1))
        n_s = len(cx.summands(p))
        grid = [[[] for _ in range(n_s)] for _ in range(n_t)]
        for (t, s), entry in cx.diff[p].items():
            for (a, b), c in entry.items():
                grid[t][s].append(
                    {
                        "coef": str(Fraction(c) if alg.field.char == 0 else c),
                        "left_path": list(alg.basis[a].path),
                        "right_path": list(alg.basis[b].path),
                    }
                )
        diff[str(p)] = grid
    return {"terms": terms, "diff": diff}


def _path_element(alg, path, location):
    """Element of the algebra from an arrow-name sequence."""
    f = alg.field
    if not path:
        return None  # idempotent, resolved by corner context
    elem = None
    for name in reversed(path):
        idx = None
        for b in alg.basis:
            if b.path == (name,):
                idx = b.index
                break
        if idx is None:
            raise ParseError(location, f"unknown arrow {name!r}")
        if elem is None:
            elem = {idx: f.one()}
        else:
            elem = alg.mult_elements({idx: f.one()}, elem)
    return elem


def _vertex(alg, value, location):
    for v in alg.vertices:
        if type(v) is type(value) and v == value:
            return v
    raise ParseError(location, f"unknown vertex {value!r}")


def doc_to_complex(doc, alg):
    from .complexes import ProjBimodComplex

    try:
        terms, diff = _parse_complex(doc, alg)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ParseError("complex", f"malformed document: {exc!r}")
    cx = ProjBimodComplex(alg, terms, diff)
    errors = cx.validate()
    if errors:
        raise ParseError("complex", "; ".join(errors[:3]))
    return cx


def _parse_complex(doc, alg):
    from .complexes import ProjBimodSummand

    f = alg.field
    terms = {}
    for key, ss in doc.get("terms", {}).items():
        p = int(key)
        loc = f"terms[{key}]"
        terms[p] = [
            ProjBimodSummand(_vertex(alg, s["left"], loc), _vertex(alg, s["right"], loc),
                             p, _typed(s.get("adeg", 0), (int,), loc))
            for s in ss
        ]
    diff = {}
    for key, grid in doc.get("diff", {}).items():
        p = int(key)
        dd = {}
        for t, row in enumerate(grid):
            for s, entries in enumerate(row):
                entry = {}
                for item in entries:
                    loc = f"diff[{key}][{t}][{s}]"
                    c = _frac(item["coef"], loc)
                    coeff = f(c.numerator, c.denominator)
                    src = terms[p][s]
                    tgt = terms[p + 1][t]
                    left = _path_element(alg, tuple(item.get("left_path", [])), loc)
                    if left is None:
                        if src.left != tgt.left:
                            raise ParseError(loc, "idempotent left path between different vertices")
                        left = {alg.idempotent_index(src.left): f.one()}
                    right = _path_element(alg, tuple(item.get("right_path", [])), loc)
                    if right is None:
                        if src.right != tgt.right:
                            raise ParseError(loc, "idempotent right path between different vertices")
                        right = {alg.idempotent_index(src.right): f.one()}
                    for a, ca in left.items():
                        for b, cb in right.items():
                            val = f.add(entry.get((a, b), f.zero()),
                                        f.mul(coeff, f.mul(ca, cb)))
                            if val == 0:
                                entry.pop((a, b), None)
                            else:
                                entry[(a, b)] = val
                if entry:
                    dd[(t, s)] = entry
        if dd:
            diff[p] = dd
    return terms, diff


def content_hash(payload):
    import hashlib

    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def source_digest(directory):
    """Hash of the *.py files in a directory, read as bytes, not imported:
    part of the cache key, so that an entry made by other code is missed."""
    import hashlib

    digests = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return content_hash(digests)


def cache_dir(args):
    return os.environ.get("CYFOLD_CACHE") or os.path.join(
        args.out_dir or ".", ".cyfold-cache"
    )


def cache_get(directory, key):
    """The completion table cached under key, or None when the entry is
    missing, malformed or does not match its stored hash."""
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        rows = blob["table"]
        if blob["sha256"] != content_hash(rows):
            return None
        table = {}
        for k, d in rows.items():
            p, l = k.split(":")
            if type(d) is not int:
                return None
            table[(int(p), int(l))] = d
        return table
    except (OSError, AttributeError, KeyError, TypeError, ValueError):
        return None


def cache_put(directory, key, table):
    import tempfile

    rows = {f"{p}:{l}": d for (p, l), d in table.items()}
    blob = {"table": rows, "sha256": content_hash(rows)}
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    except OSError:
        pass  # cache failures degrade to recompute


def write_report(args, report):
    report["schema_version"] = SCHEMA_VERSION
    report["tool"] = f"cyfold {__version__}"
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, str(exc))
    except ValueError as exc:
        raise ParseError(path, f"invalid JSON: {exc}")


def _field_char(text):
    """0 for "Q", p for a prime p below 2**64; checked for every command
    without importing exactlin."""
    if text == "Q":
        return 0
    try:
        char = int(text)
        if char != 0 and is_prime(char):  # Field(0) is Q, which is spelt "Q"
            return char
    except ValueError:  # not an integer, or too large to decide
        pass
    raise ParseError("--field", f"expected Q or a prime p, got {text!r}")


def _field(args):
    from .exactlin import QQ, Field

    char = _field_char(args.field)
    return Field(char) if char else QQ


def cmd_gen(args):
    from . import presets

    out = args.out_dir or "."
    os.makedirs(out, exist_ok=True)
    if args.model == "kronecker":
        alg = presets.kronecker_algebra()
        u = presets.kronecker_root(alg, args.s, args.eps)
        qdoc = quiver_to_doc(alg.quiver)
        udoc = complex_to_doc(u)
        meta = {"model": "kronecker", "s": args.s, "eps": args.eps, "max_len": 3}
    elif args.model == "typeA":
        alg = presets.a2n_algebra(args.n)
        u = presets.a2n_root(alg, args.n, args.d, args.eps)
        qdoc = quiver_to_doc(alg.quiver)
        udoc = complex_to_doc(u)
        meta = {"model": "typeA", "n": args.n, "d": args.d, "eps": args.eps, "max_len": 2}
    elif args.model == "beilinson":
        alg = presets.beilinson_algebra(args.d)
        qdoc = quiver_to_doc(alg.quiver, presets.beilinson_relations(args.d))
        meta = {"model": "beilinson", "d": args.d, "max_len": args.d + 1}
        if args.d == 1:
            udoc = complex_to_doc(
                presets.kronecker_root(alg, 0, 1, xname="x0_0", yname="x1_0"))
        else:
            udoc = None
    elif args.model == "a4mod":
        alg = presets.a4_mod_longest_algebra()
        qdoc = quiver_to_doc(alg.quiver, presets.a4_mod_longest_relations())
        udoc = None
        meta = {"model": "a4mod", "max_len": 3}
    else:
        raise ParseError("gen", f"unknown model {args.model}")
    prefix = args.prefix or args.model
    qpath = os.path.join(out, f"{prefix}_algebra.json")
    with open(qpath, "w", encoding="utf-8") as fh:
        json.dump({"quiver": qdoc, "meta": meta}, fh, indent=2, sort_keys=True)
    paths = {"algebra": qpath}
    if udoc is not None:
        upath = os.path.join(out, f"{prefix}_bimodule.json")
        with open(upath, "w", encoding="utf-8") as fh:
            json.dump(udoc, fh, indent=2, sort_keys=True)
        paths["bimodule"] = upath
    print(json.dumps({"written": paths}, indent=2, sort_keys=True))
    return EXIT_PASS


def _load_pair(args):
    adoc = _load_json(args.algebra)
    field = _field(args)
    if not isinstance(adoc, dict) or "quiver" not in adoc:
        raise ParseError(args.algebra, "expected an object with a \"quiver\" field")
    meta = adoc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(args.algebra, "\"meta\" must be an object")
    max_len = args.max_len or _typed(meta.get("max_len", 6), (int,), "meta.max_len")
    alg = doc_to_algebra(adoc["quiver"], max_len, field)
    udoc = _load_json(args.bimodule)
    u = doc_to_complex(udoc, alg)
    hashes = {"algebra": content_hash(adoc), "bimodule": content_hash(udoc)}
    return alg, u, hashes


def _vertex_arg(alg, raw):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        for v in alg.vertices:
            if str(v) == tok:
                out.append(v)
                break
        else:
            raise ParseError("--e", f"unknown vertex {tok!r}")
    return out


def cmd_check_root_pair(args):
    from .bimodcx import resolution_of_algebra
    from .rootpair import (
        RootPairSpec,
        check_strict_pair,
        is_cyclically_invariant,
        k0_spanning_check,
    )

    if args.a < 1:
        raise ParseError("--a", "the root's order a must be >= 1")
    t0 = time.monotonic()
    alg, u, hashes = _load_pair(args)
    e_vertices = _vertex_arg(alg, args.e)
    spec = RootPairSpec(
        alg, u, args.a, args.d, e_vertices, trials=args.trials, seed=args.seed
    )
    resolution = resolution_of_algebra(alg, len_bound=12)
    report = check_strict_pair(spec, resolution=resolution)
    k0 = k0_spanning_check(spec)
    cyc, _ = is_cyclically_invariant(
        alg, u, args.a, args.d, resolution=resolution,
        trials=args.trials, seed=args.seed,
    )
    payload = {
        "command": "check-root-pair",
        "inputs": hashes,
        "params": {
            "a": args.a, "d": args.d, "e": [str(v) for v in e_vertices],
            "seed": args.seed, "trials": args.trials, "field": args.field,
        },
        "verdicts": {
            **report.verdicts,
            "k0_spanning": k0,
            "cyclically_invariant": cyc,
        },
        "details": report.as_dict()["details"],
        "timing_s": round(time.monotonic() - t0, 3),
    }
    write_report(args, payload)
    if all(payload["verdicts"].values()):
        return EXIT_PASS
    if not report.verdicts.get("root", True):
        return EXIT_INCONCLUSIVE  # quasi-iso NotFound is not a disproof
    return EXIT_FAIL


def cmd_complete(args):
    t0 = time.monotonic()
    alg, u, hashes = _load_pair(args)
    e_vertices = _vertex_arg(alg, args.e)
    key = content_hash(
        {
            "op": "complete",
            "version": __version__,
            "source": source_digest(PACKAGE_DIR),
            "schema": SCHEMA_VERSION,
            "inputs": hashes,
            "field": args.field,
            "adams_max": args.adams_max,
            "e": [str(v) for v in e_vertices],
        }
    )
    cdir = cache_dir(args)
    table = cache_get(cdir, key)
    from_cache = table is not None
    if not from_cache:
        from .completion import completion

        table = completion(alg, u, e_vertices, args.adams_max).table
        cache_put(cdir, key, table)
    lines = ["cdeg,adams,dim"]
    for (p, l), d in sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        lines.append(f"{p},{l},{d}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    hilbert = [table.get((0, l), 0) for l in range(args.adams_max + 1)]
    payload = {
        "command": "complete",
        "inputs": hashes,
        "params": {
            "adams_max": args.adams_max, "e": [str(v) for v in e_vertices],
            "field": args.field,
        },
        "hilbert_degree_zero": hilbert,
        "concentrated_in_degree_zero": all(p == 0 for (p, _), d in table.items() if d),
        "cache_hit": from_cache,
        "timing_s": round(time.monotonic() - t0, 3),
    }
    write_report(args, payload)
    return EXIT_PASS


def cmd_fold(args):
    from .cluster import build_zq, dynkin_quiver, folded_a2n_auto, orbit_quiver

    t0 = time.monotonic()
    if args.type != "A":
        raise ParseError("--type", "folding is implemented for type A")
    if args.rank < 2 or args.rank % 2 != 0:
        raise ParseError("--rank", "type A folding needs an even rank >= 2")
    if args.a != 2:
        raise ParseError("--a", "only the square root (a = 2) is built")
    if args.d < 1 or args.d % 2 == 0:
        raise ParseError("--d", "the square root needs an odd d >= 1")
    n = args.rank // 2
    auto = folded_a2n_auto(n, args.d)
    shift = max(abs(s) for s in auto.shifts.values())
    if args.window < shift:
        raise ParseError("--window", f"a window below the fold's shift {shift} "
                         "leaves the fundamental domain empty")
    quiver = dynkin_quiver("A", args.rank)
    sl = build_zq(quiver, (-args.window, args.window))
    oq = orbit_quiver(sl, auto)
    found = len(oq.vertices)
    dot = oq.dot(f"fold_A{args.rank}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    payload = {
        "command": "fold",
        "params": {
            "type": args.type, "rank": args.rank, "a": args.a, "d": args.d,
            "window": args.window,
        },
        "fundamental_domain_vertices": found,
        "arrows": len(oq.arrows),
        "timing_s": round(time.monotonic() - t0, 3),
    }
    # the fold is the pure translation tau^shift, whose orbits on ZQ
    # number rank * shift; a window just above the shift sees only some
    expected = args.rank * shift
    if found < expected:
        payload["expected_fundamental_domain_vertices"] = expected
    write_report(args, payload)
    if found >= expected:
        return EXIT_PASS
    print(json.dumps({"inconclusive": f"window {args.window} gives {found} of the "
                      f"{expected} vertices of a fundamental domain"}), file=sys.stderr)
    return EXIT_INCONCLUSIVE


def cmd_classify_roots(args):
    from .cluster import classify_dynkin_roots

    t0 = time.monotonic()
    dynkin = {"A": args.rank >= 1, "D": args.rank >= 4, "E": 6 <= args.rank <= 8}
    if not dynkin[args.type]:
        raise ParseError("--rank", f"{args.type}{args.rank} is not a Dynkin type "
                         "(A n >= 1, D n >= 4, E n = 6, 7, 8)")
    if args.a < 1:
        raise ParseError("--a", "the root's order a must be >= 1")
    if args.window < 1:
        raise ParseError("--window", "the search window must be >= 1")
    exists, witness = classify_dynkin_roots(args.type, args.rank, args.a, args.window)
    payload = {
        "command": "classify-roots",
        "params": {
            "type": args.type, "rank": args.rank, "a": args.a,
            "window": args.window,
        },
        "root_exists": exists,
        "witness": None if witness is None else {
            "rho": {str(k): str(v) for k, v in witness.rho.items()},
            "shifts": {str(k): v for k, v in witness.shifts.items()},
        },
        "timing_s": round(time.monotonic() - t0, 3),
    }
    write_report(args, payload)
    return EXIT_PASS


def cmd_orbit_hom(args):
    from .bimodcx import projective_sum
    from .cluster import HomTable, orbit_hom

    if args.window < 1:
        raise ParseError("--window", "the orbit window must be >= 1")
    t0 = time.monotonic()
    alg, u, hashes = _load_pair(args)
    e_vertices = _vertex_arg(alg, args.e)
    table = HomTable(args.window)
    verdict_converged = True
    for v in e_vertices:
        for w in e_vertices:
            x = projective_sum(alg, [v])
            y = projective_sum(alg, [w])
            dim, conv = orbit_hom(alg, u, x, y, args.window)
            verdict_converged = verdict_converged and conv
            table.record((v, w), dim, conv)
    csv_text = table.csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    payload = {
        "command": "orbit-hom",
        "inputs": hashes,
        "params": {"e": [str(v) for v in e_vertices], "window": args.window,
                   "field": args.field},
        "converged": verdict_converged,
        "csv": csv_text,
        "timing_s": round(time.monotonic() - t0, 3),
    }
    write_report(args, payload)
    return EXIT_PASS if verdict_converged else EXIT_INCONCLUSIVE


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which for cyfold means
    inconclusive; a malformed command line is an input error, exit 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="cyfold",
        description="Exact checks for root pairs, completions, and folded "
        "cluster categories on quiver algebras",
    )
    parser.add_argument("--out-dir", default=None, help="report/artifact directory")
    parser.add_argument("--field", default="Q", help="Q or a prime p")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write built-in example inputs")
    g.add_argument("model", choices=["kronecker", "typeA", "beilinson", "a4mod"])
    g.add_argument("--s", type=int, default=0)
    g.add_argument("--eps", type=int, choices=[1, -1], default=1)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--prefix", default=None)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("check-root-pair", help="verify the root-pair axioms")
    c.add_argument("--algebra", required=True)
    c.add_argument("--bimodule", required=True)
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--e", required=True, help="comma-separated vertices")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=int, default=16)
    c.add_argument("--max-len", type=int, default=None)
    c.set_defaults(func=cmd_check_root_pair)

    m = sub.add_parser("complete", help="completion bidegree table")
    m.add_argument("--algebra", required=True)
    m.add_argument("--bimodule", required=True)
    m.add_argument("--adams-max", type=int, required=True)
    m.add_argument("--e", required=True)
    m.add_argument("--csv", default=None)
    m.add_argument("--max-len", type=int, default=None)
    m.set_defaults(func=cmd_complete)

    fo = sub.add_parser("fold", help="folded fundamental domain as DOT")
    fo.add_argument("--type", default="A")
    fo.add_argument("--rank", type=int, required=True)
    fo.add_argument("--a", type=int, default=2)
    fo.add_argument("--d", type=int, default=1)
    fo.add_argument("--window", type=int, default=12)
    fo.add_argument("--dot", default=None)
    fo.set_defaults(func=cmd_fold)

    cl = sub.add_parser(
        "classify-roots", help="combinatorial root search",
        description="Search for an a-th root of tau on the window "
        "[-window, window] of ZQ.  root_exists: false holds only for the "
        "searched window: A4 with a = 2 answers false at windows <= 3 and "
        "true from 4 on.")
    cl.add_argument("--type", required=True, choices=["A", "D", "E"])
    cl.add_argument("--rank", type=int, required=True)
    cl.add_argument("--a", type=int, required=True)
    cl.add_argument("--window", type=int, default=10)
    cl.set_defaults(func=cmd_classify_roots)

    oh = sub.add_parser("orbit-hom", help="orbit Hom dimension table")
    oh.add_argument("--algebra", required=True)
    oh.add_argument("--bimodule", required=True)
    oh.add_argument("--e", required=True)
    oh.add_argument("--window", type=int, default=6)
    oh.add_argument("--csv", default=None)
    oh.add_argument("--max-len", type=int, default=None)
    oh.set_defaults(func=cmd_orbit_hom)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _field_char(args.field)
        return args.func(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except Inconclusive as exc:
        print(json.dumps({"inconclusive": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
