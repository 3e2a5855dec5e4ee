"""The benchmark's workloads: inputs made from a seed, instances with oracles.

A workload is a function ``build(seed, ctx)`` that imports cyfold, builds
the inputs from the seed and returns a list of ``(name, thunk)`` instances.
One instance is one verdict (or a short chain that ends in one verdict).
Calling the thunk runs the package and compares its answer with a known
answer written down in this file -- a closed form or a value from the
paper, never a value the package computes -- and raises ``WrongVerdict``
on a mismatch.

Building the list is the workload's set-up (imports and preset
construction).  run.py times it in fresh interpreters as ``setup_s`` and
rebuilds the list, untimed, before every pass, so that each pass starts
from the same inputs.
"""

import json
import os
import random
import subprocess
import sys


class WrongVerdict(Exception):
    pass


def expect(what, got, want):
    if got != want:
        raise WrongVerdict(f"{what}: got {got!r}, want {want!r}")


def _hilbert_table(cutoff):
    """Kronecker-type completions: dimension l+1 in Adams degree l,
    concentrated in cohomological degree 0."""
    return {(0, l): l + 1 for l in range(cutoff + 1)}


# --------------------------------------------------------------- completion

def build_completion(seed, ctx):
    """Completion tables, the quasi-Veronese Gorenstein chain and the
    presentation comparison (acceptance criteria 4, 5 and 12)."""
    from cyfold import presets
    from cyfold.bimodcx import standard_hereditary_resolution
    from cyfold.completion import (
        compare_presentation,
        completion,
        completion_algebra,
        dg_path_cohomology,
        graded_gorenstein_check,
        polynomial_algebra,
        quasi_veronese,
    )

    rng = random.Random(seed)
    # the sign of the root changes the complexes but not the answers
    eps = rng.choice((1, -1))
    kron = presets.kronecker_algebra()
    kron_u = presets.kronecker_root(kron, 0, 1)
    kron_ue = presets.kronecker_root(kron, 0, eps)
    bei = presets.beilinson_algebra(1)
    bei_u = presets.kronecker_root(bei, 0, eps, xname="x0_0", yname="x1_0")
    kxy = polynomial_algebra(["x", "y"], 6)
    kxyz = polynomial_algebra(["x0", "x1", "x2"], 6)
    a2n = {}
    for n in (1, 2):
        alg = presets.a2n_algebra(n)
        a2n[n] = (
            alg,
            presets.a2n_root(alg, n, d=1, eps=eps),
            presets.a2n_completion_presentation(n, 1, eps),
            presets.a2n_completion_presentation(n, 1, 0),
        )

    def gorenstein(g, a):
        verdict, _ = graded_gorenstein_check(g, a)
        expect(f"Gorenstein parameter {a}", verdict, "yes")

    def quasi_veronese_chain():
        pa = standard_hereditary_resolution(kron)
        pi = completion_algebra(kron, kron_u, [0], 8, resolution=pa)
        expect("completion_algebra Hilbert row", pi.dims(),
               {l: l + 1 for l in range(9)})
        gorenstein(quasi_veronese(pi, 2, 3), 1)

    def kronecker_table():
        pa = standard_hereditary_resolution(kron)
        data = completion(kron, kron_ue, [0], 6, resolution=pa)
        expect("Kronecker completion", data.table, _hilbert_table(6))

    def beilinson_table():
        data = completion(bei, bei_u, [0], 6)
        expect("Beilinson completion", data.table, _hilbert_table(6))

    def presentation(n):
        alg, u, pres, perturbed = a2n[n]
        res = standard_hereditary_resolution(alg)
        data = completion(alg, u, list(range(1, n + 1)), 3, resolution=res)
        expect(f"A_{2 * n} presentation", compare_presentation(
            data.table, dg_path_cohomology(pres, 3), 3), True)
        if n == 2:
            expect("A_4 perturbation detected", compare_presentation(
                data.table, dg_path_cohomology(perturbed, 3), 3), False)

    instances = [
        ("gorenstein_kxy", lambda: gorenstein(kxy, 2)),
        ("gorenstein_kx0x1x2", lambda: gorenstein(kxyz, 3)),
        ("gorenstein_quasi_veronese", quasi_veronese_chain),
        ("completion_kronecker", kronecker_table),
        ("completion_beilinson", beilinson_table),
        ("presentation_a2", lambda: presentation(1)),
        ("presentation_a4", lambda: presentation(2)),
    ]
    rng.shuffle(instances)
    return instances


# ---------------------------------------------------------------- transport

def build_transport(seed, ctx):
    """A_2 -> End(M) transport to A_4 mod its longest path, then the
    verdicts on the transported pair (acceptance criteria 10 and 11).

    The seed drives the idempotent lifting, so End(M) comes out with a
    different vertex labelling; the e-corner is the pair of vertices that
    the match sends to vertices 1 and 2 of A_4 mod its longest path."""
    from cyfold import presets
    from cyfold.bimodcx import dual_regular_bimodule, resolve_bimodule
    from cyfold.bimodcx import resolution_of_algebra
    from cyfold.cluster import cluster_tilting_check, serre_check
    from cyfold.rootpair import RootPairSpec, check_strict_pair, k0_spanning_check
    from cyfold.transport import match_basic_algebras, transported_pair

    rng = random.Random(seed)
    lift_seed, spec_seed, serre_seed = (rng.randrange(1 << 16) for _ in range(3))
    a2 = presets.linear_an_algebra(2)
    a4mod = presets.a4_mod_longest_algebra()
    state = {}

    def transport():
        u = resolve_bimodule(dual_regular_bimodule(a2), len_bound=4)
        pair = transported_pair(a2, u, a2, u, [1], len_bound=10, seed=lift_seed)
        expect("dim End", pair["algebra"].dim, 9)
        state["E"], state["u"] = pair["algebra"], pair["u"]

    def match():
        found = match_basic_algebras(state["E"], a4mod)
        expect("End matches A_4 mod longest path", found is not None, True)
        sigma, _ = found
        corner = sorted(v for v in state["E"].vertices if sigma[v] in (1, 2))
        expect("e-corner size", len(corner), 2)
        state["e"] = corner

    def strict():
        E = state["E"]
        res = resolution_of_algebra(E, len_bound=8)
        spec = RootPairSpec(E, state["u"], 2, 2, state["e"], trials=16,
                            seed=spec_seed)
        report = check_strict_pair(spec, resolution=res)
        expect("strict pair", report.passed, True)
        expect("K0 spanning", k0_spanning_check(spec), True)

    def tilting():
        ok, _, conv = cluster_tilting_check(state["E"], state["u"], state["e"], 2, 8)
        expect("cluster tilting (ok, converged)", (ok, conv), (True, True))

    def serre():
        ok, conv, _ = serre_check(state["E"], state["u"], 2, 10, 8, seed=serre_seed)
        expect("Serre symmetry (ok, converged)", (ok, conv), (True, True))

    # a chain: each verdict needs the transported pair
    return [
        ("transported_pair", transport),
        ("match_basic_algebras", match),
        ("strict_pair", strict),
        ("cluster_tilting", tilting),
        ("serre", serre),
    ]


# ---------------------------------------------------------------- complexes

AC13_CASES = 12


def build_complexes(seed, ctx):
    """Tensor powers with minimize, cyclic invariance, peel identities,
    seeded complex invariants and the cluster combinatorics (acceptance
    criteria 2, 3, 6, 8, 9 and 13)."""
    from cyfold import presets
    from cyfold.bimodcx import (
        bimodule_dual, chain_maps, cone, direct_sum, find_quasi_iso,
        identity_map, map_from_vector, minimize, shift,
        standard_hereditary_resolution, tensor_over_A, tensor_power,
    )
    from cyfold.cluster import (
        build_zq, classify_dynkin_roots, d_quiver, folded_a2n_auto,
        linear_quiver, orbit_count, tau_auto,
    )
    from cyfold.exactlin import SplitMix64, random_vector
    from cyfold.rootpair import check_peel_identity, is_cyclically_invariant

    rng = random.Random(seed)
    qi_seed, inv_seed, case_seed = (rng.randrange(1 << 16) for _ in range(3))
    kron = presets.kronecker_algebra()
    roots = {(s, e): presets.kronecker_root(kron, s, e)
             for s in (0, 1) for e in (1, -1)}
    a2n = {}
    for n in (1, 2):
        alg = presets.a2n_algebra(n)
        a2n[n] = (alg, presets.a2n_root(alg, n, d=1, eps=1))

    def sigma_dims(l):
        # minimized U^l has total cohomology 4(l+1): the preprojective
        # dimension count of the Kronecker tensor algebra
        m = minimize(tensor_power(roots[(0, 1)], l))
        expect(f"Sigma-dim {l}", sum(m.cohomology_dims().values()), 4 * (l + 1))

    def cyclic(s, e):
        pa = standard_hereditary_resolution(kron)
        verdict, _ = is_cyclically_invariant(
            kron, roots[(s, e)], 2, 2 * s + 1, resolution=pa, trials=12,
            seed=inv_seed)
        expect(f"invariance s={s} eps={e}", verdict, e == (-1) ** s)

    def peel_kronecker(e):
        pa = standard_hereditary_resolution(kron)
        u = roots[(0, e)]
        phi = find_quasi_iso(bimodule_dual(pa), tensor_power(u, 2), -1,
                             trials=12, seed=qi_seed)
        expect("quasi-iso found", phi is not None, True)
        expect("peel identity", check_peel_identity(phi, u, 2, 1, resolution=pa), True)

    def peel_a2n(n):
        alg, u = a2n[n]
        pa = standard_hereditary_resolution(alg)
        phi = find_quasi_iso(bimodule_dual(pa), tensor_power(u, 2), -3,
                             trials=12, seed=qi_seed)
        expect("quasi-iso found", phi is not None, True)
        expect("peel identity", check_peel_identity(phi, u, 2, 3, resolution=pa), True)

    def invariants():
        pa = standard_hereditary_resolution(kron)
        expect("cone(id) acyclic", cone(identity_map(pa)).is_acyclic(), True)
        pieces = [pa, roots[(0, 1)], roots[(1, -1)], shift(pa, 1)]
        r = SplitMix64(case_seed)
        for case in range(AC13_CASES):
            a, b, c = (pieces[r.int_in(0, len(pieces) - 1)] for _ in range(3))
            x = direct_sum(a, b) if case % 3 == 0 else a
            closed, _, coords = chain_maps(x, x, 0)
            y = cone(map_from_vector(x, x, 0, coords,
                                     random_vector(closed, r.next_u64())))
            expect("d^2 = 0", y.validate(), [])
            left = tensor_over_A(tensor_over_A(y, b), c)
            right = tensor_over_A(y, tensor_over_A(b, c))
            expect("tensor associativity dims",
                   {p: len(s) for p, s in left.terms.items()},
                   {p: len(s) for p, s in right.terms.items()})
            m = minimize(y)
            expect("minimize keeps d^2 = 0", m.validate(), [])
            expect("minimize keeps cohomology", m.cohomology_dims(), y.cohomology_dims())

    def dynkin(kinds):
        ranks = {"A": range(2, 9), "D": range(4, 9), "E": (6, 7, 8)}
        for kind in kinds:
            for n in ranks[kind]:
                for a in (2, 3):
                    got, _ = classify_dynkin_roots(kind, n, a, window=10)
                    expect(f"root for {kind}{n} a={a}", got,
                           kind == "A" and a == 2 and n % 2 == 0)

    def folds():
        sl = build_zq(d_quiver(4), (-12, 12))
        expect("D4 tau^4 orbits", orbit_count(sl, tau_auto([1, 2, 3, 4], power=4)), 16)
        expect("D4 tau^2 orbits", orbit_count(sl, tau_auto([1, 2, 3, 4], power=2)), 8)
        expect("A2 folded orbits", orbit_count(
            build_zq(linear_quiver(2), (-14, 14)), folded_a2n_auto(1, 1)), 4)
        expect("A4 folded orbits", orbit_count(
            build_zq(linear_quiver(4), (-14, 14)), folded_a2n_auto(2, 1)), 12)

    instances = [
        ("sigma_power_9", lambda: sigma_dims(9)),
        ("sigma_power_10", lambda: sigma_dims(10)),
        ("peel_kronecker_plus", lambda: peel_kronecker(1)),
        ("peel_kronecker_minus", lambda: peel_kronecker(-1)),
        ("peel_a2", lambda: peel_a2n(1)),
        ("peel_a4", lambda: peel_a2n(2)),
        ("complex_invariants", invariants),
        ("dynkin_A", lambda: dynkin("A")),
        ("dynkin_DE", lambda: dynkin("DE")),
        ("orbit_folds", folds),
    ]
    instances += [(f"cyclic_s{s}_eps{'+' if e > 0 else '-'}",
                   lambda s=s, e=e: cyclic(s, e))
                  for s in (0, 1) for e in (1, -1)]
    rng.shuffle(instances)
    return instances


# ---------------------------------------------------------------------- cli

PRIME = "2147483647"


def run_cyfold(ctx, argv, env_extra):
    """One ``cyfold`` command in a fresh interpreter on the checkout's
    sources; returns (exit code, stdout, stderr).  In the traced run the
    command goes through ``ctx["child"]``, a bootstrap that wraps the
    package's entry points before calling ``cyfold.cli.main``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = ctx["src"]
    env.update(env_extra)
    if ctx.get("child"):
        ctx["child_runs"] = ctx.get("child_runs", 0) + 1
        env["PERFBENCH_TRACE_OUT"] = os.path.join(
            ctx["trace_dir"], f"{ctx['child_runs']:05d}.json")
        cmd = [sys.executable, ctx["child"]] + argv
    else:
        cmd = [sys.executable, "-m", "cyfold.cli"] + argv
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    return (proc.returncode, proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"))


def build_cli(seed, ctx):
    """The README commands, each in a fresh ``cyfold`` process, over Q and
    again over GF(2^31 - 1).  Every pass gets a fresh output directory and
    a fresh ``CYFOLD_CACHE`` inside ``ctx["scratch"]``, so ``complete``
    misses and then hits a cache that no one else touches."""
    import tempfile

    import cyfold.cli  # noqa: F401  every command pays this import

    rng = random.Random(seed)
    root_seed = rng.randrange(1 << 16)
    pass_dir = tempfile.mkdtemp(prefix="cli-", dir=ctx["scratch"])

    def command(name, field, argv, want_code, check=None):
        work = os.path.join(pass_dir, field)
        env = {"CYFOLD_CACHE": os.path.join(pass_dir, "cache")}
        argv = [a.replace("@", work + os.sep) for a in argv]

        def thunk():
            code, out, err = run_cyfold(
                ctx, ["--out-dir", work, "--field", field] + argv, env)
            expect(f"exit code (stderr {err.strip()[-300:]!r})", code, want_code)
            if check:
                check(json.loads(out))
        tag = "Q" if field == "Q" else "p"
        return (f"{name}_{tag}", thunk)

    def files_written(r):
        expect("files written",
               all(os.path.isfile(p) for p in r["written"].values()), True)

    def completed(hit):
        def check(r):
            expect("cache_hit", r["cache_hit"], hit)
            expect("Hilbert row", r["hilbert_degree_zero"], list(range(1, 10)))
            expect("concentrated in degree 0", r["concentrated_in_degree_zero"], True)
        return check

    # README's `gen beilinson --d 1` is left out: it exits 1 with a KeyError
    # traceback (cmd_gen builds the Kronecker root with arrow names x, y on
    # the Beilinson quiver, whose arrows are x0_0, x1_0).  Put it back once
    # the command works.
    pair = ["--algebra", "@kronecker_algebra.json",
            "--bimodule", "@kronecker_bimodule.json"]
    instances = []
    fields = ["Q", PRIME]
    rng.shuffle(fields)
    for field in fields:
        instances += [
            command("gen_kronecker", field,
                    ["gen", "kronecker", "--s", "0", "--eps", "1"], 0, files_written),
            command("gen_typeA", field,
                    ["gen", "typeA", "--n", "2", "--d", "1", "--eps", "1"], 0,
                    files_written),
            command("gen_a4mod", field, ["gen", "a4mod"], 0, files_written),
            command("check_root_pair", field, ["check-root-pair"] + pair + [
                "--a", "2", "--d", "1", "--e", "0", "--seed", str(root_seed)], 0,
                lambda r: expect("verdicts", r["verdicts"], {
                    "add": True, "cyclically_invariant": True,
                    "k0_spanning": True, "orth": True, "root": True})),
            command("complete_cold", field, ["complete"] + pair + [
                "--adams-max", "8", "--e", "0", "--csv", "@h.csv"], 0,
                completed(False)),
            command("complete_warm", field, ["complete"] + pair + [
                "--adams-max", "8", "--e", "0", "--csv", "@h.csv"], 0,
                completed(True)),
            command("fold", field, [
                "fold", "--type", "A", "--rank", "4", "--a", "2", "--window", "12",
                "--dot", "@fold.dot"], 0,
                lambda r: expect("domain vertices", r["fundamental_domain_vertices"], 12)),
            command("classify_roots", field, [
                "classify-roots", "--type", "A", "--rank", "4", "--a", "2"], 0,
                lambda r: expect("root exists", r["root_exists"], True)),
            # the Kronecker completion is polynomial, so the orbit sum never
            # converges: exit 2 (inconclusive) is the correct outcome
            command("orbit_hom", field, ["orbit-hom"] + pair + [
                "--e", "0", "--window", "6", "--csv", "@hom.csv"], 2,
                lambda r: expect("converged", r["converged"], False)),
        ]
    return instances


WORKLOADS = {
    "completion": build_completion,
    "transport": build_transport,
    "complexes": build_complexes,
    "cli": build_cli,
}
