"""Degree caps fire where they always did on the criterion-10 surfaces.

The graded walk of ``tau`` skips products by 1 (``CartierOp.row_products``
and ``_twist_moves``), but each skipped product still runs the degree check
the product ran, so a ring with a small ``max_total_degree`` raises the
same ``ResourceCapError`` at the same grid point.  A skip without that check
lets these points run on and return an answer.

``OUTCOMES`` pins, per surface and cap d, the outcome of ``tau`` at each
grid point t = k/(p^2(p^2-1)), k = 1, 2, ...: ``.`` is an answer, which
must equal ``tau_bms`` on an uncapped ring, and a digit n is the error
``total degree n exceeds cap d``.
"""

import pytest

from cartierlab.errors import ResourceCapError
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.testmod import tau, tau_bms

from instancegen import trace_grid

OUTCOMES = {
    (2, "x^3 + y^2"): {
        3: "666444444446",
        4: "666667777776",
        5: "666667777776",
        6: ".....777777.",
    },
    (3, "x^3 + y^3"): {
        3: "66666666666666666666666466666666666666666666666666666666666666666"
           "6666666",
        4: "66666666666666666666666766666666666666666666666666666666666666666"
           "6666666",
        5: "66666666666666666666666766666666666666666666666666666666666666666"
           "6666666",
        6: "........999999997788878777778787777787877788878877777777888888887"
           "788878.",
    },
    (2, "x*y"): {3: "444444444444", 4: "............", 5: "............",
                 6: "............"},
    (3, "x^2 + y^2"): {
        3: "4" * 72,
        4: "." * 24 + "6" * 24 + "........66666666..666.6.",
        5: "." * 24 + "6" * 24 + "........66666666..666.6.",
        6: "." * 72,
    },
    (2, "x^2*y + y^3"): {
        3: "666444444446",
        4: "666667777776",
        5: "666667777776",
        6: ".....777777.",
    },
    (3, "x^2*y"): {
        3: "6" * 72,
        4: "6" * 72,
        5: "6" * 72,
        6: "........99999999........99999999999" + "7" * 36 + ".",
    },
    (2, "x"): {3: "............", 4: "............", 5: "............",
               6: "............"},
    (3, "x*y"): {
        3: "4" * 72,
        4: "." * 24 + "6" * 24 + "........66666666..666.6.",
        5: "." * 24 + "6" * 24 + "........66666666..666.6.",
        6: "." * 72,
    },
}


@pytest.mark.parametrize("p, text, cap", [
    (p, text, cap) for (p, text), by_cap in OUTCOMES.items()
    for cap in by_cap])
def test_tau_under_a_degree_cap_fails_where_it_did(p, text, cap):
    roomy = RingSpec(p, ("x", "y")).parse(text)
    outcomes = []
    for t, cm in trace_grid(p, text, EngineCaps(max_total_degree=cap)):
        try:
            basis = tau(cm).submodule.basis()
        except ResourceCapError as ex:
            degree = str(ex).removeprefix("total degree ") \
                .removesuffix(f" exceeds cap {cap}")
            assert len(degree) == 1, str(ex)
            outcomes.append(degree)
            continue
        assert [str(g.component(0)) for g in basis] == \
            tau_bms(roomy, t).serialize()
        outcomes.append(".")
    assert "".join(outcomes) == OUTCOMES[(p, text)][cap]
