"""Finite-dimensional quiver algebras via path normal forms.

Paths are tuples of arrow names in function-composition order (rightmost
arrow is applied first), so a basis element b satisfies
e_{target(b)} * b * e_{source(b)} = b and corner(i, j) is spanned by the
paths from j to i.  Relations must be length-homogeneous, making the
quotient length-graded; normal forms are computed per length by row
reduction of the relation ideal.
"""

from fractions import Fraction

from .exactlin import QQ, IncrementalSpan, Matrix, combine_sparse, rref
from .quiver import Arrow, Quiver  # noqa: F401  Arrow is re-exported


class NotFiniteDimensional(Exception):
    pass


class Relation:
    """Linear combination of parallel composable paths, all one length."""

    def __init__(self, terms):
        self.terms = [(Fraction(c), tuple(p)) for c, p in terms]
        if not self.terms:
            raise ValueError("empty relation")

    def validate(self, quiver):
        lengths = {len(p) for _, p in self.terms}
        if len(lengths) != 1:
            raise ValueError("relation terms must share one path length")
        ends = set()
        for _, p in self.terms:
            arrows = [quiver.arrow_by_name[n] for n in p]
            for hi, lo in zip(arrows, arrows[1:]):
                if hi.source != lo.target:
                    raise ValueError(f"non-composable path {p}")
            ends.add((arrows[-1].source, arrows[0].target))
        if len(ends) != 1:
            raise ValueError("relation terms must be parallel")


class BasisElement:
    __slots__ = ("index", "path", "source", "target", "cdeg", "adeg")

    def __init__(self, index, path, source, target, cdeg=0, adeg=0):
        self.index = index
        self.path = path
        self.source = source
        self.target = target
        self.cdeg = cdeg
        self.adeg = adeg

    def __repr__(self):
        label = "*".join(self.path) if self.path else f"e_{self.source}"
        return label


class PathBasisAlgebra:
    """Basis + structure constants; either from a quiver quotient or raw."""

    def __init__(self, quiver, basis, mult, idempotents, field=QQ, labels=None):
        self.quiver = quiver
        self.basis = basis
        self._mult = mult
        self.idempotents = idempotents  # vertex -> basis index
        self.field = field
        self.labels = labels
        self._corner_cache = {}
        self.vertices = list(quiver.vertices) if quiver else list(idempotents)

    @property
    def dim(self):
        return len(self.basis)

    def idempotent_index(self, v):
        return self.idempotents[v]

    def mult(self, i, j):
        """Structure constants of basis[i]*basis[j] as {index: coeff}."""
        return self._mult.get((i, j), {})

    def mult_elements(self, x, y):
        """Product of elements given as {index: coeff} dicts; products by 1
        are skipped and a new index takes its value as is."""
        out = {}
        f = self.field
        mult = self._mult
        for i, ci in x.items():
            for j, cj in y.items():
                prod = mult.get((i, j))
                if not prod:
                    continue
                c = ci if cj == 1 else cj if ci == 1 else f.mul(ci, cj)
                for k, ck in prod.items():
                    v = c if ck == 1 else f.mul(c, ck)
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

    def corner_indices(self, i, j):
        """Basis indices spanning e_i * A * e_j."""
        key = (i, j)
        if key not in self._corner_cache:
            self._corner_cache[key] = [
                b.index for b in self.basis if b.target == i and b.source == j
            ]
        return self._corner_cache[key]

    def radical_indices(self):
        idem = set(self.idempotents.values())
        return [b.index for b in self.basis if b.index not in idem]

    def check_associativity(self):
        """Exhaustive check of (xy)z = x(yz) over basis triples."""
        n = self.dim
        f = self.field
        for i in range(n):
            for j in range(n):
                ij = self._mult.get((i, j), {})
                for k in range(n):
                    left = {}
                    for m, c in ij.items():
                        for t, c2 in self._mult.get((m, k), {}).items():
                            left[t] = f.add(left.get(t, f.zero()), f.mul(c, c2))
                    right = {}
                    for m, c in self._mult.get((j, k), {}).items():
                        for t, c2 in self._mult.get((i, m), {}).items():
                            right[t] = f.add(right.get(t, f.zero()), f.mul(c, c2))
                    left = {t: c for t, c in left.items() if c != 0}
                    right = {t: c for t, c in right.items() if c != 0}
                    if left != right:
                        return False
        return True

    def check_unit(self):
        unit = list(self.idempotents.values())
        for b in self.basis:
            for through in (True, False):
                acc = {}
                for e in unit:
                    part = self._mult.get((e, b.index) if through else (b.index, e), {})
                    for t, c in part.items():
                        acc[t] = self.field.add(acc.get(t, self.field.zero()), c)
                acc = {t: c for t, c in acc.items() if c != 0}
                if acc != {b.index: self.field.one()}:
                    return False
        return True

    def radical_nilpotency(self):
        """Least N with rad^N = 0, or None if rad is not nilpotent."""
        f = self.field
        current = [{i: f.one()} for i in self.radical_indices()]
        n = 1
        while current and n <= self.dim + 1:
            nxt = []
            for x in current:
                for r in self.radical_indices():
                    prod = self.mult_elements(x, {r: f.one()})
                    if prod:
                        nxt.append(prod)
            if not nxt:
                return n
            # keep only an independent spanning set to bound growth
            span = IncrementalSpan(f)
            current = [x for x in nxt if span.add(x)]
            n += 1
        return None if current else n

    @classmethod
    def from_structure_constants(cls, vertex_list, tagged_basis, mult, field=QQ):
        """Algebra from an explicit basis with corner tags.

        tagged_basis: list of (label, source, target); the first occurrence
        of a (v, v)-tagged element per vertex v with mult making it
        idempotent is taken as e_v.  Requires dim e_v A e_v = 1 for all v
        (basic algebra with separable semisimple quotient).
        """
        basis = []
        labels = []
        for idx, (label, src, tgt) in enumerate(tagged_basis):
            basis.append(BasisElement(idx, (), src, tgt))
            labels.append(label)
        quiver = Quiver(vertex_list, [])
        idem = {}
        for v in vertex_list:
            diag = [b.index for b in basis if b.source == v and b.target == v]
            if len(diag) != 1:
                raise ValueError(f"corner at {v} must be one-dimensional, got {len(diag)}")
            e = diag[0]
            if mult.get((e, e), {}) != {e: field.one()}:
                raise ValueError(f"diagonal element at {v} is not idempotent")
            idem[v] = e
        alg = cls(quiver, basis, mult, idem, field, labels=labels)
        if not alg.check_unit():
            raise ValueError("idempotents do not sum to a unit")
        if alg.radical_nilpotency() is None:
            raise ValueError("non-idempotent span is not nilpotent")
        return alg


def _enumerate_paths(quiver, max_len):
    """Paths per length as tuples of arrow names, composition order."""
    by_len = [[((), v, v) for v in quiver.vertices]]
    current = by_len[0]
    for _ in range(max_len):
        nxt = []
        for path, src, tgt in current:
            for a in quiver.arrows:
                if a.source == tgt:
                    nxt.append(((a.name,) + path, src, a.target))
        by_len.append(nxt)
        current = nxt
    return by_len


def _path_degrees(quiver, path):
    cdeg = sum(quiver.arrow_by_name[n].cdeg for n in path)
    adeg = sum(quiver.arrow_by_name[n].adeg for n in path)
    return cdeg, adeg


def build_algebra(quiver, relations, max_len, field=QQ):
    """Quotient of the path algebra by length-homogeneous relations.

    Raises NotFiniteDimensional when normal forms persist at max_len, and
    ValueError for non-homogeneous or non-parallel relations.
    """
    for r in relations:
        r.validate(quiver)
    rels_by_len = {}
    for r in relations:
        rels_by_len.setdefault(len(r.terms[0][1]), []).append(r)

    paths = _enumerate_paths(quiver, max_len + 1)
    normal_forms = [list(paths[0])]
    reduce_maps = [{(s, p): [(field.one(), (s, p))] for p, s, _ in paths[0]}]
    basis = []
    idem = {}
    for p, src, tgt in paths[0]:
        idx = len(basis)
        basis.append(BasisElement(idx, p, src, tgt, 0, 0))
        idem[src] = idx

    for length in range(1, max_len + 2):
        plist = paths[length] if length < len(paths) else []
        if not plist:
            normal_forms.append([])
            reduce_maps.append({})
            break
        # span of u * r * w at this length
        order = sorted(range(len(plist)), key=lambda i: (plist[i][1], plist[i][0]))
        col_of = {(plist[i][1], plist[i][0]): c for c, i in enumerate(order)}
        ideal_rows = []
        for rlen, rels in rels_by_len.items():
            if rlen > length:
                continue
            for a_len in range(0, length - rlen + 1):
                b_len = length - rlen - a_len
                for u, usrc, utgt in paths[a_len]:
                    for r in rels:
                        _, p0 = r.terms[0]
                        arrows0 = [quiver.arrow_by_name[n] for n in p0]
                        rsrc, rtgt = arrows0[-1].source, arrows0[0].target
                        if usrc != rtgt:
                            continue
                        for w, wsrc, wtgt in paths[b_len]:
                            if wtgt != rsrc:
                                continue
                            row = [field.zero()] * len(plist)
                            for c, p in r.terms:
                                full = (wsrc, u + p + w)
                                row[col_of[full]] = field.add(
                                    row[col_of[full]], field(c.numerator, c.denominator)
                                )
                            if any(v != 0 for v in row):
                                ideal_rows.append(row)
        sorted_paths = [plist[i] for i in order]
        if ideal_rows:
            res = rref(Matrix.from_rows(ideal_rows, len(plist), field))
            pivots = set(res.pivots)
        else:
            res = None
            pivots = set()
        nf = [sorted_paths[c] for c in range(len(sorted_paths)) if c not in pivots]
        rmap = {}
        for c, (p, psrc, ptgt) in enumerate(sorted_paths):
            if c not in pivots:
                rmap[(psrc, p)] = [(field.one(), (psrc, p))]
        if res is not None:
            for i, pc in enumerate(res.pivots):
                combo = []
                for c in range(len(sorted_paths)):
                    if c in pivots:
                        continue
                    v = res.reduced.data[i][c]
                    if v != 0:
                        combo.append((field.neg(v), (sorted_paths[c][1], sorted_paths[c][0])))
                rmap[(sorted_paths[pc][1], sorted_paths[pc][0])] = combo
        normal_forms.append(nf)
        reduce_maps.append(rmap)
        if not nf:
            break
        if length > max_len:
            raise NotFiniteDimensional(
                f"normal forms persist at length {length} > max_len {max_len}"
            )
        for p, src, tgt in nf:
            cdeg, adeg = _path_degrees(quiver, p)
            basis.append(BasisElement(len(basis), p, src, tgt, cdeg, adeg))
    else:
        raise NotFiniteDimensional(f"normal forms persist past max_len {max_len}")

    index_of = {(b.source, b.path): b.index for b in basis}
    mult = {}
    for bi in basis:
        for bj in basis:
            if bj.target != bi.source:
                continue
            total = len(bi.path) + len(bj.path)
            if total >= len(reduce_maps):
                continue
            combo = reduce_maps[total].get((bj.source, bi.path + bj.path))
            if not combo:
                continue
            entry = {index_of[key]: c for c, key in combo}
            if entry:
                mult[(bi.index, bj.index)] = entry
    return PathBasisAlgebra(quiver, basis, mult, idem, field)


def tensor_product_algebra(a: PathBasisAlgebra, b: PathBasisAlgebra):
    """A tensor B (both in cohomological degree 0).

    Returns (algebra, pair_index) with pair_index[(i, j)] the basis index
    of basis_A[i] tensor basis_B[j]; vertices are (u, v) pairs.
    """
    f = a.field
    for x in a.basis + b.basis:
        if x.cdeg != 0:
            raise ValueError("tensor_product_algebra expects degree-0 algebras")
    pairs = [(x.index, y.index) for x in a.basis for y in b.basis]
    pos = {p: i for i, p in enumerate(pairs)}
    basis = []
    for i, (xi, yi) in enumerate(pairs):
        x, y = a.basis[xi], b.basis[yi]
        basis.append(
            BasisElement(i, (), (x.source, y.source), (x.target, y.target),
                         0, x.adeg + y.adeg)
        )
    mult = {}
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, yj) in enumerate(pairs):
            ma = a.mult(xi, xj)
            mb = b.mult(yi, yj)
            if not ma or not mb:
                continue
            entry = {}
            for xo, cx in ma.items():
                for yo, cy in mb.items():
                    entry[pos[(xo, yo)]] = f.mul(cx, cy)
            mult[(i, j)] = entry
    vertices = [(u, v) for u in a.vertices for v in b.vertices]
    idem = {
        (u, v): pos[(a.idempotent_index(u), b.idempotent_index(v))]
        for u in a.vertices
        for v in b.vertices
    }
    alg = PathBasisAlgebra(Quiver(vertices, []), basis, mult, idem, f)
    return alg, pos


class RightModule:
    """Finite-dimensional right module given by sparse action rows.

    action[k][i] = {j: coeff of m_j in m_i . basis[k]}, nonzeros only;
    vectors in and out of ``act`` are sparse too.
    """

    def __init__(self, algebra, dim, action):
        self.algebra = algebra
        self.dim = dim
        self.action = action

    def act(self, vec, k):
        return combine_sparse(vec, self.action[k], self.algebra.field)

