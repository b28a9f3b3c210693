"""Twisted filtrations: jumping numbers, graded pieces, Skoda checks."""

from fractions import Fraction

import pytest

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    nilpotence, validate_structure)
from cartierlab.filtration import (gr, jumping_numbers,
                                   mixed_right_continuity, mixed_skoda_report,
                                   skoda_report)
from cartierlab.fppoly import RingSpec
from cartierlab.fpmod import PresentedModule
from cartierlab.idealkit import Ideal

from instancegen import corpus_pair


def plain_line(p):
    """F_p[y] with the plain trace, and y."""
    cm = corpus_pair(f"floor_formula_p{p}")
    return cm, cm.ring.var("y")


class TestTwistAlgebra:
    def test_zero_twist_is_untwisted(self):
        cm, y = plain_line(2)
        alg = cm.algebra.with_twist(Ideal(cm.ring, [y]), 0)
        assert not alg.is_twisted()

    def test_exponent_examples(self):
        cm, y = plain_line(2)
        alg = cm.algebra.with_twist(Ideal(cm.ring, [y]), 1)
        assert alg.twist_exponents(1) == (2,)  # ceil(1*2)
        cm5, y5 = plain_line(5)
        alg5 = cm5.algebra.with_twist(Ideal(cm5.ring, [y5]), Fraction(5, 6))
        assert alg5.twist_exponents(2) == (21,)  # ceil(125/6)

    def test_negative_rejected(self):
        cm, y = plain_line(2)
        with pytest.raises(ValueError):
            cm.algebra.with_twist(Ideal(cm.ring, [y]), Fraction(-1, 2))


class TestJumpingNumbers:
    def test_unit_line_integers(self):
        cm, y = plain_line(2)
        spec = jumping_numbers(cm, Ideal(cm.ring, [y]), 3, caps=(2, 2))
        assert spec.jump_values() == [1, 2, 3]
        assert spec.exactness == "EXACT"
        assert all(j.right_continuity_ok for j in spec.jumps)

    def test_trivial_twist_no_jumps(self):
        cm, y = plain_line(2)
        spec = jumping_numbers(cm, Ideal(cm.ring, [cm.ring.one()]), 2,
                               caps=(1, 1))
        assert spec.jump_values() == []

    def test_lower_bound_label_off_fast_path(self):
        R = RingSpec(2, ("x",))
        x = R.var("x")
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec([CartierOp(1, [[x]])]))
        spec = jumping_numbers(cm, Ideal(R, [x]), 1, caps=(1, 1))
        assert spec.exactness == "LOWER-BOUND"

    @pytest.mark.parametrize("caps", [(1, 0), (-1, 1)])
    def test_a_grid_without_denominator_is_rejected(self, caps):
        cm, y = plain_line(2)
        ideal = Ideal(cm.ring, [y])
        with pytest.raises(ValueError, match="denom-caps"):
            jumping_numbers(cm, ideal, 1, caps=caps)
        with pytest.raises(ValueError, match="denom-caps"):
            gr(cm, ideal, 1, caps=caps)

    def test_monotone_spectrum_finite(self):
        cm, y = plain_line(3)
        spec = jumping_numbers(cm, Ideal(cm.ring, [y]), 2, caps=(1, 1))
        assert len(spec.jumps) <= spec.denominator * 2
        assert spec.jump_values() == sorted(spec.jump_values())


class TestGr:
    def test_unit_jump_is_simple_nonzero(self):
        cm, y = plain_line(2)
        qcm, info = gr(cm, Ideal(cm.ring, [y]), Fraction(1))
        assert not qcm.module.is_zero_module()
        assert not nilpotence(qcm, qcm.module.full_submodule())
        core_dim = qcm.module.rank
        assert core_dim == 1

    def test_non_jump_vanishes(self):
        cm, y = plain_line(2)
        qcm, _ = gr(cm, Ideal(cm.ring, [y]), Fraction(1, 2))
        assert qcm.module.is_zero_module()

    def test_legacy_filtration_kills_first_component(self):
        # the legacy minimal-prime filtration of the diagonal direct sum is
        # zero in the first component at every exponent, so its graded piece
        # at t=1 has zero first component even though the standalone line
        # jumps there; this is exactly the functoriality failure the
        # associated-prime definition repairs
        from cartierlab.testmod import tau_prime

        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        z = R.zero()
        N = PresentedModule(R, 2, [[x, z]])
        U = CartierOp(1, [[x, z], [z, x]])
        cm = validate_structure(N, CartierAlgebraSpec([U]))
        first = N.submodule([[R.one(), z]])
        zero = N.zero_submodule()
        for t in (Fraction(0), Fraction(11, 12), Fraction(1)):
            alg = cm.algebra.with_twist(Ideal(R, [y]), t) if t else \
                cm.algebra
            cm_t = validate_structure(N, alg)
            sub = tau_prime(cm_t).submodule
            assert sub.intersect(first) == zero
        # while the standalone line does jump at 1 (its graded piece is k)
        line = PresentedModule.quotient_ring(R, Ideal(R, [x]))
        lcm = validate_structure(line, CartierAlgebraSpec(
            [CartierOp(1, [[x]])]))
        t1 = tau_prime(validate_structure(
            line, lcm.algebra.with_twist(Ideal(R, [y]), 1))).submodule
        tb = tau_prime(validate_structure(
            line, lcm.algebra.with_twist(Ideal(R, [y]),
                                         Fraction(11, 12)))).submodule
        assert tb != t1

    def test_structure_validates(self):
        cm, y = plain_line(3)
        qcm, _ = gr(cm, Ideal(cm.ring, [y]), Fraction(2))
        validate_structure(qcm.module, qcm.algebra)


class TestSkoda:
    def test_principal_equality(self):
        cm, y = plain_line(2)
        for t in (1, 2, 3):
            rep = skoda_report(cm, Ideal(cm.ring, [y]), t)
            assert rep["ok"] and rep["equality"] and rep["equality_expected"]

    def test_two_generators_inclusion_only(self):
        R = RingSpec(3, ("x", "y"))
        x, y = R.gens()
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.one()]])]))
        rep = skoda_report(cm, Ideal(R, [x, y]), 1)
        assert rep["inclusion"] and not rep["equality_expected"]
        assert rep["ok"]
        rep2 = skoda_report(cm, Ideal(R, [x, y]), 2)
        assert rep2["ok"] and rep2["equality"]

    def test_mixed_example(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.one()]])]))
        rep = mixed_skoda_report(cm, [(Ideal(R, [y]), 1), (Ideal(R, [x]), 1)],
                                 0)
        assert rep["ok"]

    def test_mixed_right_continuity(self):
        R = RingSpec(2, ("x", "y"))
        x, y = R.gens()
        M = PresentedModule.free(R, 1)
        cm = validate_structure(M, CartierAlgebraSpec(
            [CartierOp(1, [[R.one()]])]))
        eps = [(Fraction(1, 48), Fraction(1, 48))]
        results = mixed_right_continuity(
            cm, [(Ideal(R, [y]), Fraction(1, 2)),
                 (Ideal(R, [x]), Fraction(1, 2))], eps)
        assert all(results)


class TestMonotonicity:
    def test_tau_decreasing_in_t(self):
        from cartierlab.filtration import _TauSampler

        cm, y = plain_line(3)
        sampler = _TauSampler(cm, Ideal(cm.ring, [y]))
        values = [sampler.at(Fraction(k, 6)) for k in range(0, 13)]
        for a, b in zip(values, values[1:]):
            assert a.contains_sub(b)


class TestResultCacheKey:
    def test_one_cache_shared_between_characteristics(self, tmp_path):
        from cartierlab.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        spectra = {}
        for p in (2, 5):
            R = RingSpec(p, ("x", "y"))
            cm = validate_structure(
                PresentedModule.free(R, 1),
                CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
            f = R.parse("x^3 + y^2")
            spectra[p] = jumping_numbers(cm, Ideal(R, [f]), 1, caps=(2, 2),
                                         cache=cache).serialize()
        assert spectra[5]["cache_hits"] == 0
        assert [j["t"] for j in spectra[2]["jumps"]] == ["1/2", "1/1"]
        assert [j["t"] for j in spectra[5]["jumps"]] == ["4/5", "1/1"]

    def test_file_names_are_stable(self, tmp_path):
        from cartierlab.cache import ResultCache

        R = RingSpec(3, ("x", "y"))
        cm = validate_structure(
            PresentedModule.free(R, 1),
            CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
        jumping_numbers(cm, Ideal(R, [R.parse("x^3 + y^2")]), 1,
                        caps=(1, 1), cache=ResultCache(str(tmp_path)))
        # one table per sweep key; existing --cache-dir directories stay
        # valid only if this holds
        assert [p.name for p in tmp_path.iterdir()] == [
            "622e1f396d8ff7f2768e97efba545210b2f7310d213ec75639c6e1bf4550fd81"
            ".json"]

    def test_keys_round_trip_under_their_hashes(self, tmp_path):
        import os

        from cartierlab.cache import ResultCache

        cache = ResultCache(str(tmp_path))
        half, third, other = ({"op": "probe", "t": t}
                              for t in ("1/2", "1/3", "2/3"))
        assert cache.lookup(half) is None
        cache.store(half, ["a"])
        assert cache.lookup(third) is None
        cache.store(other, ["b"])
        assert cache.lookup(other) == ["b"]
        assert cache.lookup(third) is None
        assert cache.lookup(half) == ["a"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            os.path.basename(cache._path(k)) for k in (half, other))


def cusp_sweep(p=3):
    """The module F_p[x,y] with the trace, and the ideal (x^3 + y^2)."""
    R = RingSpec(p, ("x", "y"))
    cm = validate_structure(
        PresentedModule.free(R, 1),
        CartierAlgebraSpec([CartierOp(1, [[R.one()]])]))
    return cm, Ideal(R, [R.parse("x^3 + y^2")])


class CountingCache:
    """A ResultCache over ``directory`` that counts its lookups and stores."""

    def __init__(self, directory):
        from cartierlab.cache import ResultCache

        self.cache = ResultCache(str(directory))
        self.lookups = self.stores = 0
        lookup, store = self.cache.lookup, self.cache.store

        def counted_lookup(key):
            self.lookups += 1
            return lookup(key)

        def counted_store(key, value):
            self.stores += 1
            return store(key, value)

        self.cache.lookup, self.cache.store = counted_lookup, counted_store


class TestCacheTable:
    """One cache entry per sweep key, holding the table {t: generators}."""

    def test_one_lookup_and_one_store_per_sweep(self, tmp_path):
        cm, ideal = cusp_sweep()
        first = CountingCache(tmp_path)
        jumping_numbers(cm, ideal, 1, caps=(2, 2), cache=first.cache)
        assert (first.lookups, first.stores) == (1, 1)
        revisit = CountingCache(tmp_path)
        spectrum = jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                   cache=revisit.cache)
        assert (revisit.lookups, revisit.stores) == (1, 0)
        assert spectrum.cache_hits > 0
        assert len(list(tmp_path.iterdir())) == 1

    def test_revisits_count_the_grid_values_read(self, tmp_path):
        """A revisit reads every point the bisection reads: 6 on the
        coarse grid, 14 on the fine one, of which 5 the coarse sweep
        already stored."""
        from cartierlab.cache import ResultCache

        cm, ideal = cusp_sweep()
        hits = []
        for caps in ((1, 1), (1, 1), (2, 2), (2, 2)):
            spectrum = jumping_numbers(cm, ideal, 1, caps=caps,
                                       cache=ResultCache(str(tmp_path)))
            assert spectrum.jump_values() == [Fraction(2, 3), 1]
            hits.append(spectrum.cache_hits)
        # a full revisit, then a finer grid that shares coarse points
        assert hits == [0, 6, 5, 14]

    def test_a_sweep_that_raises_keeps_its_points(self, tmp_path,
                                                  monkeypatch):
        from cartierlab import filtration
        from cartierlab.cache import ResultCache
        from cartierlab.errors import ResourceCapError

        cm, ideal = cusp_sweep()
        want = jumping_numbers(cm, ideal, 1, caps=(2, 2)).serialize()
        computed = []

        def failing(f, t):
            if t == Fraction(5, 8):
                raise ResourceCapError("cap reached")
            computed.append(t)
            return tau_bms(f, t)

        tau_bms = filtration.tau_bms
        with monkeypatch.context() as patch:
            patch.setattr(filtration, "tau_bms", failing)
            with pytest.raises(ResourceCapError):
                jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                cache=ResultCache(str(tmp_path)))
        assert computed
        again = jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                cache=ResultCache(str(tmp_path)))
        # every point before the fault is read back, t = 0 included
        assert again.cache_hits == len(computed) + 1
        got = again.serialize()
        got["cache_hits"] = want["cache_hits"] = None
        assert got == want

    def test_per_point_entries_are_not_read(self, tmp_path):
        """A directory of the former layout, one entry per grid point whose
        key carries "t", gives the same spectrum and no hit."""
        from cartierlab.cache import ResultCache
        from cartierlab.filtration import _TauSampler

        cm, ideal = cusp_sweep()
        old = ResultCache(str(tmp_path))
        sampler = _TauSampler(cm, ideal)
        for k in range(7):
            t = Fraction(k, 6)
            key = {"op": "tau-at",
                   "ring": [3, ["x", "y"], "grevlex"],
                   "module": cm.serialize(), "ideal": ideal.serialize(),
                   "fast_path": True, "t": f"{t.numerator}/{t.denominator}"}
            old.store(key, sampler.at(t).serialize())
        before = sorted(p.name for p in tmp_path.iterdir())
        assert len(before) == 7
        spectrum = jumping_numbers(cm, ideal, 1, caps=(1, 1),
                                   cache=ResultCache(str(tmp_path)))
        assert spectrum.cache_hits == 0
        assert spectrum.serialize() == jumping_numbers(
            cm, ideal, 1, caps=(1, 1)).serialize()
        after = sorted(p.name for p in tmp_path.iterdir())
        assert len(after) == 8 and set(before) < set(after)

    def test_a_table_of_unreduced_generators_gives_the_same_spectrum(
            self, tmp_path):
        """Each stored basis rewritten as another generating set of the
        same submodule (reversed, scaled by a unit, one redundant member
        added) still parses; the revisit reads it and gives a
        byte-identical spectrum."""
        import json

        from cartierlab.cache import ResultCache

        cm, ideal = cusp_sweep()
        ring = cm.ring
        x = ring.var("x")
        jumping_numbers(cm, ideal, 1, caps=(2, 2),
                        cache=ResultCache(str(tmp_path)))
        clean = jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                cache=ResultCache(str(tmp_path)))
        (entry,) = tmp_path.iterdir()
        doc = json.loads(entry.read_text())
        table = doc["value"]
        for t, rows in table.items():
            gens = [[ring.parse(s) for s in row] for row in rows]
            redundant = [x * a + b for a, b in zip(gens[0], gens[-1])]
            table[t] = [[str(g.scale(2)) for g in row]
                        for row in reversed(gens + [redundant])]
            assert table[t] != rows
        entry.write_text(json.dumps(doc))
        again = jumping_numbers(cm, ideal, 1, caps=(2, 2),
                                cache=ResultCache(str(tmp_path)))
        assert again.cache_hits == clean.cache_hits > 0
        assert json.dumps(again.serialize(), sort_keys=True) \
            == json.dumps(clean.serialize(), sort_keys=True)

    def test_a_corrupted_table_is_recomputed(self, tmp_path, caplog):
        from cartierlab.cache import ResultCache

        cm, ideal = cusp_sweep()
        first = jumping_numbers(cm, ideal, 1, caps=(1, 1),
                                cache=ResultCache(str(tmp_path)))
        (table,) = tmp_path.iterdir()
        table.write_text('{"engine_version": "cartierlab-0.1.0", "ke')
        with caplog.at_level("WARNING", logger="cartierlab.cache"):
            second = jumping_numbers(cm, ideal, 1, caps=(1, 1),
                                     cache=ResultCache(str(tmp_path)))
        assert "corrupted cache entry" in caplog.text
        assert second.serialize() == first.serialize()
        third = jumping_numbers(cm, ideal, 1, caps=(1, 1),
                                cache=ResultCache(str(tmp_path)))
        assert third.cache_hits == 6
