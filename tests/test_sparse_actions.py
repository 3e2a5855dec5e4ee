"""Sparse bimodule actions against a dense oracle: every kind of
BimoduleData producer, over Q and over GF(2^31 - 1)."""

import pytest

from cyfold.bimodcx import (
    CoordComplex,
    CoverStep,
    _direct_sum_bimodule,
    _free_bimodule,
    _pullback_module,
    dual_regular_bimodule,
    regular_bimodule,
    resolution_steps,
)
from cyfold.exactlin import QQ, Field, SplitMix64
from cyfold.presets import a4_mod_longest_algebra, kronecker_algebra
from cyfold.transport import _quotient_bimodule

FIELDS = [QQ, Field(2**31 - 1)]


def _producers(alg):
    """(name, BimoduleData) for each way the package builds one."""
    f = alg.field
    reg = regular_bimodule(alg)
    corners = [(u, v) for u in alg.vertices for v in alg.vertices]
    free = _free_bimodule(alg, alg, CoverStep(corners, []))
    # the first syzygy of A, inside the free bimodule that covers it
    x = CoordComplex(alg, alg, {0: reg}, {})
    steps, q, _ = resolution_steps(x, 4)
    sub, _ = _pullback_module(x, -1, _free_bimodule(alg, alg, steps[0]), q[0], None, f)
    rad = [{i: f.one()} for i in alg.radical_indices()]
    _, top = _quotient_bimodule(reg, rad, f)  # A / rad A
    return [
        ("regular", reg),
        ("dual_regular", dual_regular_bimodule(alg)),
        ("free", free),
        ("sub", sub),
        ("quotient", top),
        ("direct_sum", _direct_sum_bimodule(sub, reg)),
    ]


def sparse_vector(values):
    return {j: v for j, v in enumerate(values) if v}


def dense_vector(vec, n, field):
    out = [field.zero()] * n
    for j, v in vec.items():
        out[j] = v
    return out


def combine_rows(coeffs, rows, field):
    """The dense oracle: sum_k coeffs[k] * rows[k] over dense lists."""
    out = [field.zero()] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        for j, v in enumerate(row):
            if v:
                out[j] = field.add(out[j], field.mul(c, v))
    return out


def _random_vector(rng, n, field):
    """About one entry in three nonzero."""
    return [field(rng.int_in(-3, 3)) if rng.int_in(0, 2) == 0 else field.zero()
            for _ in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("preset", [kronecker_algebra, a4_mod_longest_algebra],
                         ids=["kronecker", "a4_mod_longest"])
def test_sparse_actions_match_dense_oracle(preset, field):
    alg = preset(field)
    rng = SplitMix64(11)
    for name, m in _producers(alg):
        assert m.dim > 0, name
        assert m.check_bimodule(), name
        for side, action, act in (("left", m.left_action, m.left_act),
                                  ("right", m.right_action, m.right_act)):
            assert len(action) == alg.dim
            for k, rows in enumerate(action):
                assert len(rows) == m.dim
                assert all(v for row in rows for v in row.values()), (name, side, k)
                dense = [dense_vector(row, m.dim, field) for row in rows]
                for _ in range(3):
                    vec = _random_vector(rng, m.dim, field)
                    got = act(k, sparse_vector(vec))
                    assert dense_vector(got, m.dim, field) == combine_rows(vec, dense, field), \
                        (name, side, k)
