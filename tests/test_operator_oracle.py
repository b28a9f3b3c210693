"""The general ``tau`` off the identity operator, against an exact oracle.

On a regular ring the operator ``Tr∘u`` corresponds to the divisor
div(u)/(p^e - 1) (Schwede, Trans. AMS 2011), so for e = 1

    tau(R, Tr∘f^m, f^t) = tau(f^(t + m/(p-1))) = tau_bms(f, t + m/(p-1)).

``tau`` is additive (Blickle-Staebler, arXiv:1605.09517), so the diagonal
operator ``Tr∘diag(1, f^m)`` on R^2 has the direct sum of
``tau_bms(f, t)`` and ``tau_bms(f, t + m/(p-1))`` as its test module.  Every
other exact ``tau`` oracle of the suite uses ``Tr`` itself.
"""

from fractions import Fraction

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    validate_structure)
from cartierlab.fpmod import PresentedModule
from cartierlab.fppoly import EngineCaps, RingSpec
from cartierlab.idealkit import Ideal
from cartierlab.testmod import tau, tau_bms

CURVES = [(2, "x^3 + y^2"), (2, "x*y"), (3, "x^2 + y^2"), (3, "x^3 + y^2")]


def _grid(p, text):
    """(ring, f, t) at t = k/(p^2 - 1), k = 0..p^2 - 1, on a ring roomy
    enough that no degree cap trips."""
    ring = RingSpec(p, ("x", "y"), caps=EngineCaps(max_total_degree=10 ** 6))
    f = ring.parse(text)
    den = p ** 2 - 1
    return [(ring, f, Fraction(k, den)) for k in range(den + 1)]


def _module(ring, f, t, matrix):
    algebra = CartierAlgebraSpec([CartierOp(1, matrix)],
                                 twist=(Ideal(ring, [f]), t))
    return validate_structure(PresentedModule.free(ring, len(matrix)),
                              algebra)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p, text", CURVES)
def test_u_trace_shifts_the_exponent_by_its_divisor(p, text, m):
    mismatches = []
    for ring, f, t in _grid(p, text):
        cm = _module(ring, f, t, [[f ** m]])
        engine = Ideal(ring, [g.component(0)
                              for g in tau(cm).submodule.basis()])
        if engine != tau_bms(f, t + Fraction(m, p - 1)):
            mismatches.append(str(t))
    assert mismatches == []


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p, text", CURVES)
def test_a_diagonal_operator_gives_the_direct_sum(p, text, m):
    mismatches = []
    for ring, f, t in _grid(p, text):
        zero = ring.zero()
        cm = _module(ring, f, t, [[ring.one(), zero], [zero, f ** m]])
        expected = cm.module.submodule(
            [[g, zero] for g in tau_bms(f, t).gens]
            + [[zero, g] for g in tau_bms(f, t + Fraction(m, p - 1)).gens])
        if tau(cm).submodule != expected:
            mismatches.append(str(t))
    assert mismatches == []
