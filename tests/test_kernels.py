import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from coarselab import (
    LpWitness,
    ce_sum,
    classify_kernel,
    cycle_space,
    embed_from_kernel,
    exp_transform,
    gaussian_from_embedding,
    kernel_decay_table,
    kernel_operator_bridge,
    lp_negtype_kernel,
    lp_profile_bounds,
    lp_sequence_embedding,
    mazur_map,
    path_space,
    power_transform,
    schur_product,
    yu_embedding,
    yu_profile_bounds,
)

SQ_LINE = np.array([[0.0, 1, 4], [1, 0, 1], [4, 1, 0]])


def window_witness(space, L, R, p=2.0):
    n = space.n
    table = np.zeros((n, n))
    for v in range(n):
        start = min(v, n - L)
        table[v, start : start + L] = 1.0
    if p == 1:
        table /= table.sum(axis=1, keepdims=True)
    else:
        table /= np.linalg.norm(table, ord=p, axis=1, keepdims=True)
    return LpWitness(p=p, table=table, point_ids=tuple(space.points), R=R)


def test_classify_examples():
    assert classify_kernel(np.eye(3)).positive_type
    assert classify_kernel(np.ones((3, 3))).positive_type
    cls = classify_kernel(SQ_LINE)
    assert cls.negative_type and not cls.positive_type
    with pytest.raises(ValueError, match="symmetric"):
        classify_kernel(np.array([[0.0, 1], [2, 0]]))


def test_embed_negative_hamming():
    ham = lp_negtype_kernel([[0, 0], [0, 1], [1, 0], [1, 1]], 1)
    emb = embed_from_kernel(ham, "negative")
    sq = emb.squared_distances()
    assert sq[0, 3] == pytest.approx(2.0, abs=1e-8)
    assert np.abs(sq - ham.matrix).max() < 1e-8


def test_embed_positive_cases():
    ones = embed_from_kernel(np.ones((4, 4)), "positive")
    assert np.abs(ones.gram() - 1.0).max() < 1e-8
    ident = embed_from_kernel(np.eye(4), "positive")
    assert np.abs(ident.gram() - np.eye(4)).max() < 1e-8
    with pytest.raises(ValueError, match="not positive type"):
        embed_from_kernel(SQ_LINE, "positive")
    with pytest.raises(ValueError, match="not negative type"):
        embed_from_kernel(np.eye(3), "negative")


def test_embed_roundtrip_random(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        base = rng.standard_normal((n, 3))
        gram = base @ base.T
        emb = embed_from_kernel(gram, "positive")
        assert np.abs(emb.gram() - gram).max() < 1e-8
        sq = cdist(base, base) ** 2
        emb2 = embed_from_kernel(sq, "negative")
        assert np.abs(emb2.squared_distances() - sq).max() < 1e-8


def test_transforms_examples():
    gauss = exp_transform(SQ_LINE, 1.0)
    assert classify_kernel(gauss.matrix).positive_type
    root = power_transform(SQ_LINE, 0.5)
    assert np.allclose(root.matrix[0], [0, 1, 2])
    assert classify_kernel(root.matrix).negative_type
    g = gaussian_from_embedding(np.array([[0.0], [1.0]]), 1.0)
    assert g.matrix[0, 1] == pytest.approx(math.exp(-1))
    assert np.allclose(np.diag(g.matrix), 1.0)
    with pytest.raises(ValueError, match="negative type"):
        exp_transform(np.eye(3) * 2, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        power_transform(SQ_LINE, 1.5)


def test_schur_random_pairs(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 3))
        prod = schur_product(a @ a.T, b @ b.T)
        assert classify_kernel(prod.matrix).positive_type
    with pytest.raises(ValueError, match="positive type"):
        schur_product(SQ_LINE, np.eye(3))


def test_power_transform_random(rng):
    for alpha in (0.25, 0.5, 0.75):
        for _ in range(10):
            pts = rng.standard_normal((int(rng.integers(3, 8)), 2))
            sq = cdist(pts, pts) ** 2
            out = power_transform(sq, alpha)
            assert classify_kernel(out.matrix).negative_type


def test_ce_sum_growth_and_type():
    sp = path_space(9)
    # schedule: stage n has (n, 2^-n) variation via gaussian kernels of
    # slowly growing width
    kernels = []
    coords = np.arange(9.0)[:, None]
    for n in (1, 2, 3):
        t = -math.log(1 - 2.0**-n / 2) / n**2
        kernels.append(gaussian_from_embedding(coords, t))
    total, report = ce_sum(kernels, sp)
    assert classify_kernel(total.matrix).negative_type
    assert report["growth_bound_holds"]
    assert report["truncation_index"] == 3
    decay = kernel_decay_table(kernels[0], sp)
    assert decay[-1][1] <= decay[0][1] + 1e-12


def test_lp_negtype_kernel_examples():
    k1 = lp_negtype_kernel([0, 1, 3], 1)
    assert np.allclose(k1.matrix, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    assert classify_kernel(k1.matrix).negative_type
    k2 = lp_negtype_kernel([0, 1, 3], 2)
    assert np.allclose(k2.matrix[0], [0, 1, 9])
    ham = lp_negtype_kernel([[0, 0], [0, 1], [1, 0], [1, 1]], 1)
    assert ham.matrix[0, 3] == 2
    with pytest.raises(ValueError, match="exponent"):
        lp_negtype_kernel([0, 1], 3)


def test_mazur_map():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(mazur_map(e1, 1, 2), e1)
    out = mazur_map([0.5, 0.5], 1, 2)
    assert np.allclose(out, [math.sqrt(0.5)] * 2)
    signed = mazur_map([-0.5, 0.5], 1, 2)
    assert signed[0] == pytest.approx(-math.sqrt(0.5))
    with pytest.raises(ValueError, match="unit vector"):
        mazur_map([1.0, 1.0], 1, 2)


def test_mazur_sphere_to_sphere(rng):
    for p, q in [(1, 2), (2, 1), (1.5, 3), (2, 2)]:
        for _ in range(20):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v, ord=p)
            out = mazur_map(v, p, q)
            assert abs(np.linalg.norm(out, ord=q) - 1.0) < 1e-12
            assert np.all(np.sign(out) == np.sign(v))
            if p == q:
                assert np.allclose(out, v)


def test_mazur_modulus_empirical(rng):
    """For p <= q the map contracts no worse than p/q linearly and expands
    no worse than a power p/q; the constant is only fitted, never asserted."""
    for p, q in [(1, 2), (1, 3), (1.5, 3)]:
        ratios = []
        for _ in range(200):
            x = np.abs(rng.standard_normal(8))
            y = np.abs(rng.standard_normal(8))
            x /= np.linalg.norm(x, ord=p)
            y /= np.linalg.norm(y, ord=p)
            d_src = np.linalg.norm(x - y, ord=p)
            d_img = np.linalg.norm(mazur_map(x, p, q) - mazur_map(y, p, q), ord=q)
            assert d_img >= (p / q) * d_src - 1e-9
            if d_src > 1e-12:
                ratios.append(d_img / d_src ** (p / q))
        fitted_c = max(ratios)
        assert math.isfinite(fitted_c) and fitted_c >= p / q


def test_yu_embedding_two_sided_bounds():
    seg = path_space(200)
    stages = [window_witness(seg, 9, 1), window_witness(seg, 65, 2)]
    emb, prof = yu_embedding(stages, seg)
    assert np.abs(emb.coords[0]).max() == 0.0  # basepoint at origin
    lower, upper = yu_profile_bounds(seg, prof.stage_radii)
    dmat = cdist(emb.coords, emb.coords)
    assert np.all(dmat >= lower - 1e-9)
    assert np.all(dmat <= upper + 1e-9)
    # a pair beyond both disjointness radii picks up 2 per stage
    assert dmat[0, 199] ** 2 == pytest.approx(4.0, abs=1e-9)
    # d(x,y) in [1,2) implies distance at most 3
    mask = (seg.dist >= 1) & (seg.dist < 2)
    assert dmat[mask].max() <= 3.0 + 1e-9


def test_yu_embedding_schedule_violation():
    seg = path_space(30)
    with pytest.raises(ValueError, match="schedule violation"):
        yu_embedding([window_witness(seg, 2, 1)], seg)


def test_lp_sequence_embedding_bounds():
    seg = path_space(200)
    stages = [window_witness(seg, 9, 1, p=1.0), window_witness(seg, 65, 2, p=1.0)]
    emb, prof = lp_sequence_embedding(stages, seg, delta=1.0)
    assert np.abs(emb.coords[0]).max() == 0.0
    lower, upper = lp_profile_bounds(seg, prof.stage_radii, 1.0, 1.0)
    dmat = cdist(emb.coords, emb.coords, metric="cityblock")
    assert np.all(dmat >= lower - 1e-9)
    assert np.all(dmat <= upper + 1e-9)


def test_operator_bridge():
    seg = path_space(6)
    rep = kernel_operator_bridge(np.eye(6), seg)
    assert rep.operator_norm == pytest.approx(1.0)
    assert rep.psd_agreement and rep.norm_within_bound
    # propagation-1 kernel on a segment is tridiagonal
    tri = np.eye(6) + 0.3 * (np.abs(np.subtract.outer(range(6), range(6))) == 1)
    rep2 = kernel_operator_bridge(tri, seg)
    assert rep2.propagation == 1.0
    assert rep2.ball_bound == 3


def test_operator_bridge_random_local_gram(rng):
    # random normalized PSD propagation-2 kernels on the 8-cycle: Grams of
    # unit functions supported in radius-1 balls
    c8 = cycle_space(8)
    for _ in range(10):
        rows = np.zeros((8, 8))
        for x in range(8):
            ball = np.nonzero(c8.dist[x] <= 1)[0]
            rows[x, ball] = rng.standard_normal(ball.size)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        gram = rows @ rows.T
        rep = kernel_operator_bridge(gram, c8)
        assert rep.propagation <= 2.0
        assert rep.ball_bound <= 5
        assert rep.operator_norm <= 5 + 1e-9
        assert rep.norm_within_bound
        assert rep.psd_agreement and rep.kernel_positive_type
