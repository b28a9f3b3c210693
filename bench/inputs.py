"""Seeded inputs for the benchmark workloads.

Everything here is plain Python on strings and numbers: the library never
sees a seed, only the polynomials and scene names generated from it.  The
same (workload, seed, unit) always yields the same inputs.

A *unit* is the work one fresh interpreter does: one oracle-grid surface,
one corpus replay, or sixteen jumping-number sweeps.

Both seeded workloads draw from the plane curves of acceptance criterion 10.
The seed picks, per curve, a presentation: variables swapped or not, each
variable and the equation scaled by a unit of F_p.  The curves stay
isomorphic, so the work per curve stays close to the same, while the
polynomials, their leading terms, the Groebner paths and every output
change.  Independent random curves of degree <= 3 were tried first: their
cost varies by a factor of 3 to 10 between draws, and the few that fit in
one run made throughput spread by 27-46% between seeds.
"""

import random

WORKLOADS = ("oracle-grid", "corpus", "bms-spectrum")
DEFAULT_SEED = 0

# The p in {2, 3} surfaces of acceptance criterion 10, interleaved by p and
# with the costliest p = 3 surfaces first, so that the timed prefix of a run
# (the first four surfaces) holds both characteristics and both cusps.
CRITERION_10 = (
    (2, "x^3 + y^2"), (3, "x^3 + y^3"), (2, "x*y"), (3, "x^2 + y^2"),
    (2, "x^2*y + y^3"), (3, "x^2*y"), (2, "x"), (3, "x*y"),
)
CURVES = tuple(dict.fromkeys(f for _p, f in CRITERION_10))

# One bms-spectrum unit: the characteristic of each sweep, None for a
# revisit, so every fourth sweep revisits an earlier curve.  The p = 3
# sweeps are the bulk, so that the median and the tail each fall among many
# sweeps of one class; one p = 5 sweep per unit keeps the highest
# characteristic in the mix without letting a few 1-2 s sweeps set the
# order statistics (with four equal classes the median sat on the edge
# between two classes and spread by 27% between runs).
BMS_SLOTS = (2, 3, 3, None, 3, 3, 3, None, 3, 5, 3, None, 3, 3, 3, None)


def _parse(text):
    """'x^2*y + y^3' -> {(2, 1): 1, (0, 3): 1} (coefficient-1 terms)."""
    terms = {}
    for term in text.split(" + "):
        exps = {"x": 0, "y": 0}
        for factor in term.split("*"):
            var, _, exp = factor.partition("^")
            exps[var] = int(exp or 1)
        terms[(exps["x"], exps["y"])] = 1
    return terms


def _term(coeff, i, j):
    factors = [v if e == 1 else f"{v}^{e}"
               for v, e in (("x", i), ("y", j)) if e]
    body = "*".join(factors)
    return body if coeff == 1 else f"{coeff}*{body}"


def presentation(rng, p, text):
    """c * f(a*x, b*y), with x and y swapped half of the time.

    The default seed passes ``rng=None`` and keeps the curve as written.
    """
    terms = _parse(text)
    if rng is not None:
        swap = rng.random() < 0.5
        a, b, c = (rng.randrange(1, p) for _ in range(3))
        terms = {((j, i) if swap else (i, j)):
                 c * pow(a, i, p) * pow(b, j, p) % p
                 for (i, j), _coeff in terms.items()}
    ordered = sorted(terms, key=lambda m: (-m[0] - m[1], -m[0]))
    return " + ".join(_term(terms[m], *m) for m in ordered)


def _rng(workload, seed, index):
    if seed == DEFAULT_SEED:
        return None
    return random.Random(f"{workload}/{seed}/{index}")


def oracle_surface(seed, index):
    """Surface ``index`` (cycling through the eight of criterion 10)."""
    surface = index % len(CRITERION_10)
    p, text = CRITERION_10[surface]
    return {"surface": surface, "p": p,
            "f": presentation(_rng("oracle-grid", seed, surface), p, text)}


def bms_sweep(seed, index):
    """Sweep ``index`` of the bms-spectrum stream.

    First visits walk through the curves in turn, in the characteristic of
    their slot.  A revisit repeats a p < 5 first visit from an earlier unit
    (from its own unit only in unit 0), as a user re-running a sweep with a
    cache directory would; reading even a p = 3 sweep back is faster than
    computing any first visit, so the median and tail come from first
    visits.
    """
    unit, slot = divmod(index, len(BMS_SLOTS))
    p = BMS_SLOTS[slot]
    if p is not None:
        text = CURVES[index % len(CURVES)]
        return {"id": str(index), "p": p,
                "f": presentation(_rng("bms-spectrum", seed, index), p, text),
                "revisit_of": None}
    pool = [i for i in range(min(len(BMS_SLOTS) * max(unit, 1), index))
            if BMS_SLOTS[i % len(BMS_SLOTS)] in (2, 3)]
    pick = random.Random(f"bms-spectrum/{seed}/{index}").choice(pool)
    return dict(bms_sweep(seed, pick), id=str(index), revisit_of=str(pick))


def unit_inputs(workload, seed, unit):
    if workload == "oracle-grid":
        return oracle_surface(seed, unit)
    if workload == "corpus":
        return {}
    if workload == "bms-spectrum":
        size = len(BMS_SLOTS)
        return {"sweeps": [bms_sweep(seed, i)
                           for i in range(size * unit, size * (unit + 1))]}
    raise ValueError(f"unknown workload {workload!r}")
