"""The exact-LP certificate rejects a tampered primal point or dual vector."""

import re
from fractions import Fraction
from unittest import mock

import pytest

from coarselab import exactlp
from coarselab.exactlp import LPError, solve_lp

# min x0 + x1 s.t. x0 + x1 >= 1 (as -x0 - x1 <= -1), x0 <= 2, x0 - x1 == 0
LP = ([1, 1], [(0, 0, -1), (0, 1, -1), (1, 0, 1)], [-1, 2], [(0, 0, 1), (0, 1, -1)], [0])


def _tampered(edit):
    linprog = exactlp.linprog

    def solve(*args, **kwargs):
        res = linprog(*args, **kwargs)
        edit(res)
        return res

    return mock.patch.object(exactlp, "linprog", solve)


def test_untampered_certificate():
    x, value = solve_lp(*LP, exact=True)
    assert x == [Fraction(1, 2), Fraction(1, 2)] and value == 1
    _x, fvalue = solve_lp(*LP, exact=False)
    assert isinstance(fvalue, float) and fvalue == pytest.approx(1.0)


@pytest.mark.parametrize(
    "edit, check",
    [
        (lambda res: res.x.__setitem__(0, -0.5), "x >= 0"),
        (lambda res: res.x.__setitem__(0, 0.25), "A_ub x <= b_ub"),
        (lambda res: res.x.__setitem__(0, 0.75), "A_eq x == b_eq"),
        (lambda res: res.ineqlin.marginals.__setitem__(0, 1.0), "y_ub <= 0"),
        (lambda res: res.eqlin.marginals.__setitem__(0, 3.0), "c - A_ub"),
        (lambda res: res.x.__setitem__(slice(None), 1.0), "objectives differ"),
    ],
)
def test_tampered_certificate_raises(edit, check):
    with _tampered(edit), pytest.raises(LPError, match="certificate failed: .*" + re.escape(check)):
        solve_lp(*LP, exact=True)

