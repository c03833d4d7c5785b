"""The value-type rule: no public result stores an integral `Fraction`.

Every coefficient is an `int` when it is integral and a `Fraction`
otherwise.  The rule lives in the accumulation kernels `linalg.bump`,
`bump_all` and `bump_outer` (the last runs the arity-2 `TensorElt`
product and the rank-one rows of the central solvers), so the property
reads the stored types directly: the references elsewhere in `tests/`
accumulate through the same `bump` and would share a fault in it.

Inputs mix int and Fraction values, explicit zeros of both types and
integral Fractions such as Fraction(4, 2), over sl2, solv2 and heis3,
whose PBW tables hold `Fraction` entries.
"""

from fractions import Fraction as Fr

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pseudoalg import liealg
from pseudoalg.annihilation import (AnnihilationElement, TruncatedSeries,
                                    annihilation_bracket, vector_field_bracket)
from pseudoalg.constructions import make_wd
from pseudoalg.linalg import SparseEliminator
from pseudoalg.pbw import HElt, TensorElt, fourier, multiindices_up_to
from pseudoalg.pseudo import compose_left, compose_right
from pseudoalg.tensor import MElt, QElt

NAMES = ("sl2", "solv2", "heis3")
STRUCTURES = {name: make_wd(liealg.algebra_by_name(name))[0] for name in NAMES}
# the compositions and brackets draw several elements, so shrinking a failure
# takes long; the property reports the first failing example
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None,
                    phases=set(Phase) - {Phase.shrink, Phase.explain})
# explicit zeros of both types and integral Fractions such as Fraction(4, 2)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4))))
SIDES = st.sampled_from(("left", "right"))


def coefficients(keys, max_size=4):
    return st.dictionaries(st.sampled_from(keys), COEFFS, max_size=max_size)


@st.composite
def cases(draw):
    P = STRUCTURES[draw(st.sampled_from(NAMES))]
    alg, mod = P.alg, P.module
    mis = {d: multiindices_up_to(alg.dim, d) for d in range(5)}
    mkeys = [(I, g) for I in mis[1] for g in mod.gens]
    qkeys = [((I, J), g, L) for I in mis[1] for J in mis[1] for g in mod.gens for L in mis[1]]
    case = {
        "P": P,
        "h": [HElt(alg, draw(coefficients(mis[2]))) for _ in range(2)],
        "k": draw(COEFFS),
        "t": [TensorElt(alg, n, draw(coefficients(
            [tuple(draw(st.sampled_from(mis[2])) for _ in range(n)) for _ in range(6)])))
            for n in (1, 2, 2, 3)],
        "m": [MElt(mod, draw(coefficients(mkeys, 3))) for _ in range(3)],
        "q": QElt(mod, 2, draw(coefficients(qkeys))),
        "side": draw(SIDES),
    }
    cut = draw(st.integers(2, 4))
    case["s"] = [TruncatedSeries(alg, cut, draw(coefficients(mis[cut], 5))) for _ in range(2)]
    wkeys = [(I, g) for I in mis[cut] for g in mod.gens]
    case["w"] = [AnnihilationElement(mod, cut, draw(coefficients(wkeys, 3))) for _ in range(2)]
    cols = ["x%d" % i for i in range(5)]
    case["rows"] = [draw(coefficients(cols, 4)) for _ in range(draw(st.integers(1, 5)))]
    case["cols"] = cols
    return case


def results(case):
    """(name, stored values) of each public result on the drawn inputs."""
    P = case["P"]
    alg, mod = P.alg, P.module
    (x, y), k, side = case["h"], case["k"], case["side"]
    t1, t2a, t2b, t3 = case["t"]
    a, b, c = case["m"]
    q = case["q"]
    s, r = case["s"]
    u, v = case["w"]
    acted = s.act(x, side)  # x has degree <= 2, within every drawn cutoff
    sums = [("HElt +", x + y), ("HElt -", x - y), ("HElt *", x * y),
            ("HElt scale", x.scale(k)), ("HElt antipode", x.antipode()),
            ("HElt coproduct", x.coproduct()), ("TensorElt +", t2a + t2b),
            ("TensorElt * arity 1", t1 * t1), ("TensorElt * arity 2", t2a * t2b),
            ("TensorElt * arity 3", t3 * t3), ("TensorElt scale", t2a.scale(k)),
            ("TensorElt permuted", t3.permuted((2, 0, 1))),
            ("fourier", fourier(t2a)), ("fourier inverse", fourier(t3, (2, 0), True)),
            ("MElt +", a + b), ("MElt h_mul", a.h_mul(x)),
            ("QElt canonicalize", q.canonicalize()), ("QElt permuted", q.permuted((1, 0))),
            ("QElt map_module", q.map_module(lambda g: a if g == mod.gens[0] else b, mod)),
            ("bracket", P.bracket(a, b)),
            ("compose_left", compose_left(P.bracket(a, b), P.bracket, c, mod)),
            ("compose_right", compose_right(a, P.bracket(b, c), P.bracket, mod)),
            ("series +", s + r), ("series *", s * r), ("series scale", s.scale(k)),
            ("series act", acted), ("series truncate", acted.truncate(acted.cutoff // 2)),
            ("annihilation_bracket", annihilation_bracket(P, u, v)),
            ("vector_field_bracket", vector_field_bracket(alg, u, v))]
    for name, elt in sums:
        yield name, elt.c.values()
    yield "series pair", [s.pair(y)]
    elim = SparseEliminator()
    for row in case["rows"]:
        elim.add(row)
    yield "eliminator pivots", [w for row in elim.pivots.values() for w in row.values()]
    yield "kernel", [w for vec in elim.kernel(case["cols"]) for w in vec.values()]


def test_the_pair_of_a_half_and_a_two_is_an_int():
    alg = liealg.sl2()
    x = TruncatedSeries(alg, 1, {(1, 0, 0): Fr(1, 2)})
    got = x.pair(HElt(alg, {(1, 0, 0): 2}))
    assert got == 1 and type(got) is int


@SETTINGS
@given(cases())
def test_no_public_result_stores_an_integral_fraction(case):
    for name, values in results(case):
        bad = [w for w in values if type(w) is Fr and w.denominator == 1]
        assert not bad, (name, bad)
