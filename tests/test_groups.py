from unittest import mock

import numpy as np
import pytest

from coarselab import groups
from coarselab import (
    FiniteGroup,
    GroupAction,
    QuotientChain,
    box_to_function,
    box_to_kernel,
    build_box,
    cayley_metric,
    classify_kernel,
    cycle_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    first_isometric_block,
    group_power,
    hypercube_kernel,
    hypercube_space,
    measure_witness,
    quotient_group,
    quotient_metric,
    validate_witness,
    warp_bruteforce,
    warp_metric,
    warped_witness,
    z2_power_group,
    ball_witness,
)


def antipodal_action(n):
    c = cycle_space(n)
    z2 = z2_power_group(1)
    perms = np.array([list(range(n)), [(i + n // 2) % n for i in range(n)]])
    return c, GroupAction(z2, c, perms)


def rotation_action(n, k, order):
    c = cycle_space(n)
    g = cyclic_group(order)
    perms = np.array([[(i + j * k) % n for i in range(n)] for j in range(order)])
    return c, GroupAction(g, c, perms)


def test_group_validation():
    # order-5 loop: Latin square with two-sided identity and inverses, not
    # associative ((1*2)*4 = 1 but 1*(2*4) = 4)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(list(range(5)), loop, [1])
    with pytest.raises(ValueError, match="symmetric"):
        FiniteGroup(list(range(4)), [[(i + j) % 4 for j in range(4)] for i in range(4)], [1])
    with pytest.raises(ValueError, match="does not generate"):
        FiniteGroup(list(range(4)), [[i ^ j for j in range(4)] for i in range(4)], [1])


def test_named_groups_are_capped_before_building():
    assert groups.MAX_NAMED_ORDER >= 1024
    with mock.patch.object(groups, "FiniteGroup", side_effect=AssertionError("built")):
        for build, n in ((cyclic_group, groups.MAX_NAMED_ORDER + 1), (z2_power_group, 80),
                         (dihedral_group, groups.MAX_NAMED_ORDER // 2 + 1)):
            with pytest.raises(ValueError, match="above the cap"):
                build(n)
    # the direct powers of the growth shadow still build
    assert [g.n for g in (z2_power_group(9), group_power(cyclic_group(3), 5), group_power(dihedral_group(3), 3))] \
        == [512, 243, 216]


def test_cayley_examples():
    z4 = cyclic_group(4)
    m = cayley_metric(z4)
    assert m.dist[0, 2] == 2
    assert np.allclose(np.diag(m.dist), 0)
    z22 = z2_power_group(2)
    m22 = cayley_metric(z22)
    assert m22.dist[0, 3] == 2  # two flips


def test_left_invariance_exhaustive():
    for group in [cyclic_group(8), z2_power_group(3), dihedral_group(4), cyclic_group(32)]:
        m = cayley_metric(group).dist
        for a in range(group.n):
            rows = group.table[a]
            assert np.allclose(m[np.ix_(rows, rows)], m)


def test_quotient_examples():
    z4 = cyclic_group(4)
    q = quotient_metric(z4, [0, 2])
    assert q.n == 2 and q.dist[0, 1] == 1
    z8 = cyclic_group(8)
    q8 = quotient_metric(z8, [0, 4])
    assert q8.dist[0, 2] == 2
    qt = quotient_metric(z4, [0])
    assert np.allclose(qt.dist, cayley_metric(z4).dist)
    with pytest.raises(ValueError, match="closed under"):
        quotient_group(z8, [0, 3])
    for members in ([0, -4], [0, 8]):
        with pytest.raises(ValueError, match="out of range"):
            quotient_group(z8, members)
    d4 = dihedral_group(4)
    rot = [i for i, e in enumerate(d4.elements) if e[1] == 0]
    refl = [i for i, e in enumerate(d4.elements) if e == (0, 0) or e == (0, 1)]
    quotient_group(d4, rot)  # rotations are normal
    with pytest.raises(ValueError, match="normal"):
        quotient_group(d4, refl)


def test_quotient_length_attained():
    z8 = cyclic_group(8)
    quot, proj = quotient_group(z8, [0, 4])
    for c in range(quot.n):
        lifts = [g for g in range(8) if proj[g] == c]
        assert min(z8.lengths[g] for g in lifts) == quot.lengths[c]


def test_box_space():
    z8 = cyclic_group(8)
    chain = QuotientChain(z8, [[0, 2, 4, 6], [0, 4]])
    box = build_box(chain)
    assert [q.n for q in box.quotients] == [2, 4]
    # cross distance exceeds the larger diameter
    d_cross = box.space.dist[0, box.block_slices[1][0]]
    assert d_cross == max(1, 2) + 1
    assert box.space.blocks == [0, 0, 1, 1, 1, 1]
    single = build_box(QuotientChain(z8, [[0, 4]]))
    assert single.space.n == 4
    with pytest.raises(ValueError, match="decreasing"):
        QuotientChain(z8, [[0, 4], [0, 2, 4, 6]])


def test_box_kernel_bridge_roundtrip():
    z32 = cyclic_group(32)
    subs = [[g for g in range(32) if g % step == 0] for step in (2, 4, 8, 16, 32)]
    box = build_box(QuotientChain(z32, subs))
    phi = np.maximum(0.0, 1.0 - z32.lengths / 3.0)  # triangular bump, radius 2
    kw = box_to_kernel(box, phi, R=1.0)
    assert kw.meta["isometric_from_block"] == 2
    assert not validate_witness(kw, box.space)
    assert classify_kernel(kw.matrix).positive_type
    # constant kernel averages to the constant function
    psi_const = box_to_function(box, np.ones((box.space.n, box.space.n)), 3)
    assert np.allclose(psi_const, 1.0)
    # identity kernel averages to the delta at the identity
    psi_delta = box_to_function(box, np.eye(box.space.n), 3)
    expected = np.zeros(box.quotients[3].n)
    expected[box.quotients[3].identity] = 1.0
    assert np.allclose(psi_delta, expected)
    # late blocks recover the bump through their lifts
    for block in (2, 3, 4):
        psi = box_to_function(box, kw, block)
        proj = box.projections[block]
        for g in z32.ball(2.0):
            assert abs(psi[proj[g]] - phi[g]) < 1e-9
    short_box = build_box(QuotientChain(z32, [[g for g in range(32) if g % 2 == 0], [g for g in range(32) if g % 4 == 0]]))
    with pytest.raises(ValueError, match="no block is isometric"):
        first_isometric_block(short_box, 100.0)


def test_hypercube_space():
    space = hypercube_space(cyclic_group(2), 3)
    i00 = space.points.index((1, (0, 0)))
    i11 = space.points.index((1, (1, 1)))
    assert space.dist[i00, i11] == 2
    b1 = space.points.index((0, 0))
    b2 = space.points.index((1, (0, 0)))
    b3 = space.points.index((2, ((0, 0), 0)))
    assert space.dist[b1, b2] == 2
    assert space.dist[b1, b3] == 5


def test_hypercube_kernel_negative_type():
    space, kern, _coords = hypercube_kernel(4)
    assert classify_kernel(kern.matrix).negative_type
    blocks = np.asarray(space.blocks)
    same = blocks[:, None] == blocks[None, :]
    assert np.allclose(kern.matrix[same], space.dist[same])


def test_warp_metric_examples():
    c8, act = antipodal_action(8)
    wm = warp_metric(c8, act)
    assert wm.dist[0, 4] == 1
    assert wm.dist[0, 3] == 2
    assert np.all(wm.dist <= c8.dist + 1e-12)
    for g in range(act.group.n):
        for x in range(8):
            gx = act.permutations[g][x]
            assert wm.dist[x, gx] <= act.group.lengths[g] + 1e-12
    triv = GroupAction(cyclic_group(1), c8, np.array([list(range(8))]))
    assert np.allclose(warp_metric(c8, triv).dist, c8.dist)


def test_warp_dijkstra_equals_bruteforce():
    cases = [antipodal_action(8), antipodal_action(12), rotation_action(12, 4, 3), rotation_action(10, 2, 5)]
    for space, act in cases:
        wm = warp_metric(space, act)
        bf = warp_bruteforce(space, act)
        assert np.allclose(wm.dist, bf, atol=1e-12)


def test_warped_witness():
    c8, act = antipodal_action(8)
    base = ball_witness(c8, 1, 1)
    nu = warped_witness(c8, act, [0.5, 0.5], base)
    warped = warp_metric(c8, act)
    check = type(base)(p=1, table=nu.table, point_ids=nu.point_ids, S=nu.S)
    assert not validate_witness(check, warped)
    assert measure_witness(check, warped, 1).norm_deviation < 1e-12
    # folner = delta_e leaves the base witness untouched
    same = warped_witness(c8, act, [1.0, 0.0], base)
    assert np.allclose(same.table, base.table)
    # trivial acting group as well
    triv = GroupAction(cyclic_group(1), c8, np.array([list(range(8))]))
    same2 = warped_witness(c8, triv, [1.0], base)
    assert np.allclose(same2.table, base.table)


def test_warp_with_weighted_generator():
    # antipodal flip costing 2: the shortcut saves less
    c8 = cycle_space(8)
    z2 = FiniteGroup([0, 1], [[0, 1], [1, 0]], [1], generator_weights={1: 2})
    act = GroupAction(z2, c8, np.array([list(range(8)), [(i + 4) % 8 for i in range(8)]]))
    wm = warp_metric(c8, act)
    assert wm.dist[0, 4] == 2
    assert wm.dist[0, 3] == 3  # flip (2) plus one step
    assert np.allclose(wm.dist, warp_bruteforce(c8, act), atol=1e-12)
    with pytest.raises(ValueError, match="at least 1"):
        FiniteGroup([0, 1], [[0, 1], [1, 0]], [1], generator_weights={1: 0.5})


def test_warped_witness_reports_variation():
    c8, act = antipodal_action(8)
    base = ball_witness(c8, 1, 1)
    nu = warped_witness(c8, act, [0.5, 0.5], base)
    warped = warp_metric(c8, act)
    from coarselab import LpWitness

    again = measure_witness(
        LpWitness(p=1, table=nu.table, point_ids=nu.point_ids, R=1), warped, 1
    ).eps_measured
    assert nu.meta["warped_variation"] == pytest.approx(again)


def test_product_group_metric_is_lp_product():
    # dual route: the word metric of a direct product equals the l^1
    # product of the factor word metrics
    from coarselab import lp_product

    a, b = cyclic_group(4), cyclic_group(3)
    prod_group = direct_product(a, b)
    direct = cayley_metric(prod_group)
    via_product = lp_product(cayley_metric(a), cayley_metric(b), 1)
    reorder = [via_product.index(p) for p in direct.points]
    assert np.allclose(direct.dist, via_product.dist[np.ix_(reorder, reorder)])


def test_action_validation():
    c4 = cycle_space(4)
    z2 = z2_power_group(1)
    with pytest.raises(ValueError, match="homomorphism"):
        GroupAction(z2, c4, np.array([list(range(4)), [1, 2, 3, 0]]))
    with pytest.raises(ValueError, match="identity"):
        GroupAction(z2, c4, np.array([[1, 0, 2, 3], [2, 3, 0, 1]]))


def test_direct_product_lengths():
    z2z3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert z2z3.n == 6
    # l^1 word length: |(1, 1)| = 1 + 1
    idx = z2z3.elements.index((1, 1))
    assert z2z3.lengths[idx] == 2
