"""Seeded random instance generator for the property suites, and the
bundled corpus pairs as test fixtures.

Instances are valid by construction: free modules accept any operator
matrix; quotients R/(f) accept premultipliers divisible by f^(p-1); direct
sums and triangular blocks combine them.  Polynomials entering relations are
drawn factor-friendly (products of linear forms and certified-irreducible
pieces) so the restricted associated-prime machinery stays decidable; draws
that still fall outside it are redrawn deterministically.
"""

from fractions import Fraction
from importlib import resources
import random

from cartierlab.cartiercore import (CartierAlgebraSpec, CartierOp,
                                    validate_structure)
from cartierlab.errors import CartierLabError
from cartierlab.fppoly import EngineCaps, Poly, RingSpec
from cartierlab.fpmod import PresentedModule
from cartierlab.idealkit import Ideal
from cartierlab.scene import parse_scene


def corpus_pair(scene, pair="P"):
    """The validated pair ``pair`` of the bundled corpus scene ``scene``
    (the file name without ``.scene``)."""
    text = resources.files("cartierlab").joinpath(
        "corpus", f"{scene}.scene").read_text(encoding="utf-8")
    return parse_scene(text, name=scene).pairs[pair]


def trace_grid(p, text, caps=EngineCaps(max_total_degree=10 ** 6)):
    """[(t, module)] for the trace ``Tr`` on F_p[x,y] twisted by f^t, with
    f parsed from ``text`` on a ring with ``caps``, at every grid point
    t = k/(p^2(p^2-1)), k = 1..p^2(p^2-1): a surface of acceptance
    criterion 10."""
    ring = RingSpec(p, ("x", "y"), caps=caps)
    f = ring.parse(text)
    den = p ** 2 * (p ** 2 - 1)
    out = []
    for k in range(1, den + 1):
        t = Fraction(k, den)
        algebra = CartierAlgebraSpec([CartierOp(1, [[ring.one()]])],
                                     twist=(Ideal(ring, [f]), t))
        out.append((t, validate_structure(PresentedModule.free(ring, 1),
                                          algebra)))
    return out


def cusp_grid():
    """Tr on F_2[x,y] twisted by (x^3 + y^2)^(k/12), k = 1..12."""
    return [cm for _t, cm in trace_grid(2, "x^3 + y^2")]


def random_poly(rng, ring, deg=3, terms=3, nonzero=False):
    out = {}
    for _ in range(rng.randint(0 if not nonzero else 1, terms)):
        m = tuple(rng.randint(0, deg) for _ in range(ring.nvars))
        if sum(m) > deg:
            m = tuple(0 for _ in m)
        out[m] = rng.randint(1, ring.p - 1)
    f = Poly(ring, out)
    if nonzero and f.is_zero():
        return ring.one()
    return f


def friendly_factor(rng, ring):
    """Nonconstant polynomial with a certifiable factorization."""
    choices = []
    for v in ring.gens():
        choices.append(v)
        choices.append(v + ring.const(rng.randint(1, ring.p - 1)))
    if ring.nvars >= 2:
        x, y = ring.gens()[:2]
        choices.append(x * y)
        choices.append(x + y)
    f = rng.choice(choices)
    if rng.random() < 0.3:
        f = f * rng.choice(choices)
    return f


def random_block(rng, ring):
    """One building block: (module, operator matrix)."""
    kind = rng.choice(["free", "quotient"])
    if kind == "free":
        M = PresentedModule.free(ring, 1)
        U = [[random_poly(rng, ring, deg=3, terms=2)]]
        return M, U
    f = friendly_factor(rng, ring)
    M = PresentedModule.quotient_ring(
        ring, __import__("cartierlab.idealkit",
                         fromlist=["Ideal"]).Ideal(ring, [f]))
    mult = f ** (ring.p - 1) * random_poly(rng, ring, deg=1, terms=2,
                                           nonzero=True)
    return M, [[mult]]


def assemble(ring, blocks):
    """Block-diagonal module and operator from rank-1 pieces."""
    total = None
    for M, _U in blocks:
        total = M if total is None else total.direct_sum(M)
    rank = total.rank
    zero = ring.zero()
    matrix = [[zero] * rank for _ in range(rank)]
    offset = 0
    for M, U in blocks:
        for i in range(M.rank):
            for j in range(M.rank):
                matrix[offset + i][offset + j] = U[i][j]
        offset += M.rank
    return total, matrix


def random_cartier_module(rng, p, nvars, max_rank=2, extra_generator=False):
    """A validated instance; redraws until the shape machinery accepts it."""
    names = ("x", "y")[:nvars]
    ring = RingSpec(p, names)
    for _attempt in range(50):
        sub = random.Random(rng.randrange(1 << 30))
        nblocks = sub.randint(1, max_rank)
        blocks = [random_block(sub, ring) for _ in range(nblocks)]
        module, matrix = assemble(ring, blocks)
        gens = [CartierOp(1, matrix)]
        if extra_generator:
            extra = [[ring.zero()] * module.rank
                     for _ in range(module.rank)]
            for i in range(module.rank):
                extra[i][i] = matrix[i][i] * friendly_factor(sub, ring) \
                    .frobenius(1)
            gens.append(CartierOp(1, extra))
        try:
            cm = validate_structure(module, CartierAlgebraSpec(gens))
            from cartierlab.cartiercore import ass_cartier

            ass_cartier(cm)  # probe decidability of the prime machinery
            return cm
        except CartierLabError:
            continue
    raise RuntimeError("instance generator exhausted its retries")


def summand_maps(cm_sum, blocks_cms):
    """Inclusion and projection maps for a block-diagonal sum."""
    from cartierlab.fpmod import ModuleMap

    ring = cm_sum.ring
    maps = []
    offset = 0
    for piece in blocks_cms:
        r = piece.module.rank
        total = cm_sum.module.rank
        inc_cols = []
        for j in range(r):
            col = [ring.zero()] * total
            col[offset + j] = ring.one()
            inc_cols.append(col)
        inc = ModuleMap(piece.module, cm_sum.module, inc_cols)
        proj_cols = []
        for j in range(total):
            col = [ring.zero()] * r
            if offset <= j < offset + r:
                col[j - offset] = ring.one()
            proj_cols.append(col)
        proj = ModuleMap(cm_sum.module, piece.module, proj_cols)
        maps.append((piece, inc, proj))
        offset += r
    return maps


def random_sum_instance(rng, p, nvars):
    """(sum module, list of (piece, inclusion, projection))."""
    names = ("x", "y")[:nvars]
    ring = RingSpec(p, names)
    for _attempt in range(50):
        sub = random.Random(rng.randrange(1 << 30))
        blocks = [random_block(sub, ring) for _ in range(2)]
        module, matrix = assemble(ring, blocks)
        try:
            cm = validate_structure(module,
                                    CartierAlgebraSpec([CartierOp(1, matrix)]))
            pieces = []
            for M, U in blocks:
                pieces.append(validate_structure(
                    M, CartierAlgebraSpec([CartierOp(1, U)])))
            from cartierlab.cartiercore import ass_cartier

            ass_cartier(cm)
            for piece in pieces:
                ass_cartier(piece)
            return cm, summand_maps(cm, pieces)
        except CartierLabError:
            continue
    raise RuntimeError("sum instance generator exhausted its retries")
