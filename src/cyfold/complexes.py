"""Bounded complexes of projective bimodules and of right projectives over
a path-basis algebra: their summands, the two complex classes and the
entry arithmetic both use.

A bimodule summand (i, j) stands for Ae_i (x) e_jA.  A bimodule map out of
(i, j) into (k, l) is stored by the image of the generator e_i (x) e_j, a
list of (coeff, alpha, beta) with alpha in e_iAe_k and beta in e_lAe_j,
encoded as {(alpha_idx, beta_idx): coeff}.  A right summand j stands for
e_jA, and a map e_jA -> e_lA is an element g of e_lAe_j acting by left
multiplication, encoded as {g_idx: coeff}.  Differentials raise
cohomological degree by one and preserve the Adams degree.

Entry dicts are read-only values.  One dict may stand at several keys of
a differential and in several complexes: tensor_power keeps one dict per
distinct entry, direct_sum and cone reuse the entries of their inputs,
and a complex keeps the degree dicts of the diff it is given.  Code that
writes to an entry copies it first, as minimize does.

The constructions on these complexes (shifts, sums, cones, tensor
products, Hom complexes, chain maps, minimize, resolutions) are in
bimodcx, which re-exports every name here.  A process that only builds,
reads or writes complexes, such as `cyfold gen`, imports this module and
not bimodcx.
"""

from .exactlin import cohomology_dim


class ProjBimodSummand:
    __slots__ = ("left", "right", "cdeg", "adeg", "trace")

    def __init__(self, left, right, cdeg, adeg=0, trace=None):
        self.left = left
        self.right = right
        self.cdeg = cdeg
        self.adeg = adeg
        self.trace = trace

    def __repr__(self):
        return f"(Ae_{self.left}(x)e_{self.right}A, c{self.cdeg}, a{self.adeg})"

    def at(self, cdeg):
        return ProjBimodSummand(self.left, self.right, cdeg, self.adeg, self.trace)

    def with_right(self, right, cdeg, adeg, trace):
        return ProjBimodSummand(self.left, right, cdeg, adeg, trace)


class RightSummand:
    __slots__ = ("vertex", "cdeg", "adeg", "trace")

    def __init__(self, vertex, cdeg, adeg=0, trace=None):
        self.vertex = vertex
        self.cdeg = cdeg
        self.adeg = adeg
        self.trace = trace

    def __repr__(self):
        return f"(e_{self.vertex}A, c{self.cdeg})"

    @property
    def right(self):
        return self.vertex

    def at(self, cdeg):
        return RightSummand(self.vertex, cdeg, self.adeg, self.trace)

    def with_right(self, right, cdeg, adeg, trace):
        return RightSummand(right, cdeg, adeg, trace)


def entry_scale(entry, c, field):
    return {k: field.mul(c, v) for k, v in entry.items()}


def entry_add(dst, src, field):
    """dst += src, dropping sums that cancel; values are field elements
    (reduced residues over GF(p)), so a new key takes its value as is."""
    for k, v in src.items():
        old = dst.get(k)
        if old is None:
            if v:
                dst[k] = v
            continue
        val = field.add(old, v)
        if val == 0:
            del dst[k]
        else:
            dst[k] = val
    return dst


def compose_entries(alg, g_entry, f_entry):
    """Entry of g o f where f: S1->S2 and g: S2->S3."""
    f = alg.field
    mult = alg._mult
    out = {}
    for (a1, b1), c1 in f_entry.items():
        for (a2, b2), c2 in g_entry.items():
            aa = mult.get((a1, a2))
            if not aa:
                continue
            bb = mult.get((b2, b1))
            if not bb:
                continue
            c = c1 if c2 == 1 else c2 if c1 == 1 else f.mul(c1, c2)
            for ai, ca in aa.items():
                cc = c if ca == 1 else f.mul(c, ca)
                for bi, cb in bb.items():
                    v = cc if cb == 1 else f.mul(cc, cb)
                    k = (ai, bi)
                    old = out.get(k)
                    if old is None:
                        if v:
                            out[k] = v
                        continue
                    val = f.add(old, v)
                    if val == 0:
                        del out[k]
                    else:
                        out[k] = val
    return out


def assemble(src, tgt, image, field):
    """Sparse columns of a linear map given on coordinates: column j is
    the image of src[j] over the positions of tgt.  image(coord) yields
    (target coordinate, coefficient) pairs; repeated targets add up, and
    targets outside tgt and sums that cancel are dropped.  Every
    differential in the package is built here."""
    tpos = {c: i for i, c in enumerate(tgt)}
    zero = field.zero()
    cols = []
    for coord in src:
        col = {}
        for t, c in image(coord):
            row = tpos.get(t)
            if row is not None:
                col[row] = field.add(col.get(row, zero), c)
        cols.append({i: v for i, v in col.items() if v})
    return cols


def _by_source(dd):
    """One degree of a differential, {(t, s): entry}, as {s: [(t, entry)]}."""
    out = {}
    for (t, s), entry in dd.items():
        out.setdefault(s, []).append((t, entry))
    return out


def _by_target(dd):
    """One degree of a differential, {(t, s): entry}, as {t: [(s, entry)]}."""
    out = {}
    for (t, s), entry in dd.items():
        out.setdefault(t, []).append((s, entry))
    return out


def cohomology_table(diff_matrix, degrees, field):
    """{p: dim H^p} over the nonzero cohomology of a complex with terms in
    the sorted degrees, given its diff_matrix(p) -> (columns, src, tgt);
    each differential is built once."""
    if not degrees:
        return {}
    out = {}
    prev = diff_matrix(degrees[0] - 1)[0]
    for p in range(degrees[0], degrees[-1] + 1):
        d, src, _ = diff_matrix(p)
        if src:
            dim = cohomology_dim(len(src), d, prev, field)
            if dim:
                out[p] = dim
        prev = d
    return out


class _Complex:
    """What both kinds of complex share.  Each subclass supplies, for its
    summands S, T and entries (maps S -> T):

      _unit_class(s)      what S is as a graded projective: S and T have
                          an identity map between them exactly when
                          their classes are equal;
      _hom_basis(s, t)    the entry keys spanning the maps S -> T that the
                          Hom complex counts;
      _compose(g, f)      the entry of g o f;
      _split(key)         the key as (left part, right part), the right
                          part an element of e_{right(T)}Ae_{right(S)};
      _join(left, right)  the inverse of _split;
      _left_unit(s)       the left part of S's identity key;

    and its summands supply at(cdeg) and with_right(right, cdeg, adeg,
    trace).  validate, cohomology_dims and is_acyclic are bound on each
    subclass too: perfbench's tracer wraps a method on the class whose
    __dict__ holds it, and times each kind of complex apart.
    """

    def __init__(self, base, terms, diff):
        # the degree dicts of diff are kept, not copied: the caller hands
        # over dicts it no longer writes to
        self.base = base
        self.terms = {p: list(ss) for p, ss in terms.items() if ss}
        self.diff = {p: d for p, d in diff.items() if d}

    def degrees(self):
        return sorted(self.terms)

    def summands(self, p):
        return self.terms.get(p, [])

    def entry(self, p, t_idx, s_idx):
        return self.diff.get(p, {}).get((t_idx, s_idx), {})

    def total_summands(self):
        return sum(len(s) for s in self.terms.values())

    def _unit_key(self, s, t):
        """The identity's entry key, None unless S = T as graded
        projectives."""
        if self._unit_class(s) != self._unit_class(t):
            return None
        return self._join(self._left_unit(s), self.base.idempotent_index(s.right))

    def trace_index(self):
        """Cached map from summand traces to (degree, index)."""
        if not hasattr(self, "_trace_index"):
            self._trace_index = {
                s.trace: (p, i)
                for p, ss in self.terms.items()
                for i, s in enumerate(ss)
                if s.trace is not None
            }
        return self._trace_index

    def validate(self):
        """Typing + d*d = 0 report: list of violation strings (empty = ok).
        An entry key lies in its corner when the identities of source and
        target fix it; the test runs once per key and pair of identities."""
        f = self.base.field
        one = f.one()
        compose, unit_key = self._compose, self._unit_key
        fixed = {}  # (key, unit key of S, unit key of T) -> in the corner
        errors = []
        for p, dd in self.diff.items():
            ss = self.summands(p)
            ts = self.summands(p + 1)
            s_units = [unit_key(s, s) for s in ss]
            t_units = [unit_key(t, t) for t in ts]
            for (t_idx, s_idx), entry in dd.items():
                if s_idx >= len(ss) or t_idx >= len(ts):
                    errors.append(f"dangling entry at degree {p}: ({t_idx},{s_idx})")
                    continue
                if ss[s_idx].adeg != ts[t_idx].adeg:
                    errors.append(f"Adams degree broken at {p}:({t_idx},{s_idx})")
                us, ut = s_units[s_idx], t_units[t_idx]
                for key in entry:
                    ok = fixed.get((key, us, ut))
                    if ok is None:
                        g = {key: one}
                        ok = fixed[(key, us, ut)] = compose(
                            {ut: one}, compose(g, {us: one})) == g
                    if not ok:
                        errors.append(f"corner violated at {p}:({t_idx},{s_idx}) by {key!r}")
        for p in self.degrees():
            if p + 1 not in self.diff or p not in self.diff:
                continue
            d1 = _by_source(self.diff[p + 1])
            acc = {}
            for (m_idx, s_idx), e0 in self.diff[p].items():
                for t_idx, e1 in d1.get(m_idx, ()):
                    comp = compose(e1, e0)
                    if comp:
                        entry_add(acc.setdefault((t_idx, s_idx), {}), comp, f)
            for key, entry in acc.items():
                if entry:
                    errors.append(f"d*d != 0 from degree {p} at {key}")
        return errors

    def cohomology_dims(self):
        """{degree: dim H^p} over the nonzero cohomology."""
        return cohomology_table(self.diff_matrix, self.degrees(), self.base.field)

    def is_acyclic(self):
        return not self.cohomology_dims()


class ProjBimodComplex(_Complex):
    def __init__(self, base, terms, diff, augmentation=None):
        super().__init__(base, terms, diff)
        # augmentation: degree-0 summand index -> element of A ({basis: coeff})
        self.augmentation = augmentation

    validate = _Complex.validate
    cohomology_dims = _Complex.cohomology_dims
    is_acyclic = _Complex.is_acyclic

    def left_basis(self, i):
        return [b.index for b in self.base.basis if b.source == i]

    def right_basis(self, j):
        return [b.index for b in self.base.basis if b.target == j]

    def coords(self, p, corner_filter=None):
        """Underlying basis of degree p: (summand idx, a in Ae_i, b in e_jA).

        corner_filter restricts to coordinates with (target(a), source(b))
        in the given set; the differential preserves corners, so filtered
        complexes are direct summands.
        """
        alg = self.base
        out = []
        for s_idx, s in enumerate(self.summands(p)):
            for a in self.left_basis(s.left):
                for b in self.right_basis(s.right):
                    if corner_filter is not None and (
                        alg.basis[a].target,
                        alg.basis[b].source,
                    ) not in corner_filter:
                        continue
                    out.append((s_idx, a, b))
        return out

    def diff_matrix(self, p, corner_filter=None):
        """Sparse columns of d^p on underlying coordinates (rows: degree
        p+1): (columns, source coordinates, target coordinates)."""
        alg = self.base
        f = alg.field
        out = _by_source(self.diff.get(p, {}))

        def image(coord):
            si, a, b = coord
            for t_idx, entry in out.get(si, ()):
                for (alpha, beta), c in entry.items():
                    for a2, ca in alg.mult(a, alpha).items():
                        for b2, cb in alg.mult(beta, b).items():
                            yield (t_idx, a2, b2), f.mul(c, f.mul(ca, cb))

        src = self.coords(p, corner_filter)
        tgt = self.coords(p + 1, corner_filter)
        return assemble(src, tgt, image, f), src, tgt

    def cohomology(self):
        """Per-degree cohomology dims: {cdeg: {{(u,v): dim}, 'total': n}}.
        The corner of (u, v), coordinates with (target(a), source(b)) =
        (u, v), is a direct summand; corners are listed in str order and
        only where their dim is nonzero."""
        degs, f = self.degrees(), self.base.field
        vs = self.base.vertices
        out = {p: {} for p in degs}
        for uv in sorted(((u, v) for u in vs for v in vs), key=str) + ["total"]:
            filt = None if uv == "total" else {uv}
            for p, dim in cohomology_table(
                    lambda q: self.diff_matrix(q, filt), degs, f).items():
                out[p][uv] = dim
        for per in out.values():
            per.setdefault("total", 0)
        return out

    # entry keys are (alpha, beta); maps count only within one Adams degree
    def _unit_class(self, s):
        return s.left, s.right, s.adeg

    def _hom_basis(self, s, t):
        if s.adeg != t.adeg:
            return []
        alg = self.base
        return [(a, b) for a in alg.corner_indices(s.left, t.left)
                for b in alg.corner_indices(t.right, s.right)]

    def _compose(self, g, f):
        return compose_entries(self.base, g, f)

    def _split(self, key):
        return key

    def _join(self, left, right):
        return (left, right)

    def _left_unit(self, s):
        return self.base.idempotent_index(s.left)


class RightComplex(_Complex):
    """Bounded complex of right projectives e_jA.

    Differential entries are {basis: coeff} elements of e_{j_t}Ae_{j_s}
    acting by left multiplication.
    """

    validate = _Complex.validate
    cohomology_dims = _Complex.cohomology_dims
    is_acyclic = _Complex.is_acyclic

    def coords(self, p):
        out = []
        for s_idx, s in enumerate(self.summands(p)):
            for b in (bb.index for bb in self.base.basis if bb.target == s.vertex):
                out.append((s_idx, b))
        return out

    def diff_matrix(self, p):
        alg = self.base
        f = alg.field
        out = _by_source(self.diff.get(p, {}))

        def image(coord):
            si, b = coord
            for t_idx, elem in out.get(si, ()):
                for g, c in elem.items():
                    for b2, cb in alg.mult(g, b).items():
                        yield (t_idx, b2), f.mul(c, cb)

        src = self.coords(p)
        tgt = self.coords(p + 1)
        return assemble(src, tgt, image, f), src, tgt

    # entry keys are elements g, acting by left multiplication; no left part
    def _unit_class(self, s):
        return s.vertex, s.adeg

    def _hom_basis(self, s, t):
        return self.base.corner_indices(t.vertex, s.vertex)

    def _compose(self, g, f):
        return self.base.mult_elements(g, f)

    def _split(self, key):
        return None, key

    def _join(self, left, right):
        return right

    def _left_unit(self, s):
        return None
