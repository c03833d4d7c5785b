import random
from fractions import Fraction as Fr

import pytest

from pseudoalg import liealg
from pseudoalg.cli import build_structure
from pseudoalg.constructions import make_wd
from pseudoalg.literals import (parse_helt, parse_module_element, parse_tensor, render_helt,
                                render_module_element)
from pseudoalg.pbw import HElt, TensorElt
from pseudoalg.tensor import MElt


def test_parse_render_element_round_trip():
    alg = liealg.abelian(2)
    for text in ("d^(1,0)", "2*d^(2,1) - 1/2*d^(0,0)", "3", "-d^(0,1) + d^(1,1)"):
        e = parse_helt(alg, text)
        again = parse_helt(alg, render_helt(e))
        assert again == e


def test_parse_fraction_coefficients():
    alg = liealg.abelian(1)
    e = parse_helt(alg, "3/4*d^(2) - 5*d^(0)")
    assert e.c == {(2,): Fr(3, 4), (0,): Fr(-5)}


def test_parse_tensor_factors():
    alg = liealg.abelian(1)
    t = parse_tensor(alg, "d^(1)#d^(0) - d^(0)#d^(1)")
    want = TensorElt.pure([HElt.gen(alg, 0), HElt.one(alg)]) \
        - TensorElt.pure([HElt.one(alg), HElt.gen(alg, 0)])
    assert t == want
    with pytest.raises(ValueError):
        parse_tensor(alg, "d^(1)")


def test_parse_module_element():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    m = parse_module_element(P.module, "(d^(1,0)) @ w_d2 - (2) @ w_d1")
    assert m.c == {((1, 0), 1): Fr(1), ((0, 0), 0): Fr(-2)}
    text = render_module_element(m)
    assert parse_module_element(P.module, text) == m


def test_sign_inside_generator_brackets_does_not_split():
    """A + or - inside [...] belongs to the generator name."""
    _, P, _, _ = build_structure("cend:1", None, None)
    m = parse_module_element(P.module, "(1) @ c[0;0,0] - (d^(1)) @ c[0;0,0]")
    g = P.module.gen_by_name("c[0;0,0]")
    assert m.c == {((0,), g): 1, ((1,), g): -1}
    with pytest.raises(KeyError) as info:
        parse_module_element(P.module, "(1) @ c[-1;0,0]")
    assert info.value.args == ("no generator named 'c[-1;0,0]'",)


def test_bad_literals_rejected():
    alg = liealg.abelian(2)
    with pytest.raises(ValueError):
        parse_helt(alg, "d^(1)")       # wrong index count
    with pytest.raises(ValueError):
        parse_helt(alg, "d^(-1,0)")    # negative exponent
    with pytest.raises(ValueError):
        parse_helt(alg, "q^(1,0)")


# -- one "@"-term grammar ---------------------------------------------------------
#
# The module-element scanner that the grammar in `literals` replaced, and the
# four signed-sum printers that `_signed_sum` replaced, kept as references.

def _ref_parse_module_element(module, text):
    from pseudoalg.tensor import MElt
    alg = module.alg
    out = MElt.zero(module)
    terms = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip() and "@" in cur:
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    for term in terms:
        if "@" not in term:
            raise ValueError("module term %r lacks '@ gen'" % term)
        left, gname = term.rsplit("@", 1)
        gname = gname.strip()
        left = left.strip()
        sign = 1
        while left and left[0] in "+-":
            if left[0] == "-":
                sign = -sign
            left = left[1:].strip()
        if left.startswith("(") and left.endswith(")"):
            left = left[1:-1]
        h = parse_helt(alg, left) if left.strip() else None
        if h is None:
            raise ValueError("empty coefficient in %r" % term)
        key = module.gen_by_name(gname)
        for I, v in h.c.items():
            out._bump(I, key, sign * v)
    return out


def _ref_join(bits):
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _ref_render_helt(e):
    if not e.c:
        return "0"
    bits = []
    for I in sorted(e.c, key=lambda I: (sum(I), I)):
        v = e.c[I]
        mono = "d^(%s)" % ",".join(str(x) for x in I)
        if all(x == 0 for x in I):
            text = str(abs(v))
        elif abs(v) == 1:
            text = mono
        else:
            text = "%s*%s" % (abs(v), mono)
        bits.append(("- " if v < 0 else "+ ") + text)
    return _ref_join(bits)


def _ref_render_tensor(t):
    if not t.c:
        return "0"
    bits = []
    for key in sorted(t.c):
        v = t.c[key]
        mono = " # ".join("d^(%s)" % ",".join(str(x) for x in I) for I in key)
        text = mono if abs(v) == 1 else "%s*(%s)" % (abs(v), mono)
        bits.append(("- " if v < 0 else "+ ") + text)
    return _ref_join(bits)


def _ref_render_quotient(q):
    if not q.c:
        return "0"
    bits = []
    for (key, g, L) in sorted(q.c, key=lambda item: (item[0], str(item[1]), item[2])):
        v = q.c[(key, g, L)]
        slots = " # ".join("d^(%s)" % ",".join(str(x) for x in I) for I in key)
        mod = q.module.gen_name(g)
        if any(L):
            mod = "d^(%s) %s" % (",".join(str(x) for x in L), mod)
        coeff = "" if abs(v) == 1 else "%s*" % abs(v)
        bits.append("%s%s(%s) @ %s" % ("- " if v < 0 else "+ ", coeff, slots, mod))
    return _ref_join(bits)


def _ref_series_repr(s):
    if not s.c:
        return "O(%d)" % (s.cutoff + 1)
    bits = []
    for I in sorted(s.c, key=lambda I: (sum(I), I)):
        v = s.c[I]
        mono = "t^(%s)" % ",".join(str(x) for x in I)
        bits.append(("- " if v < 0 else "+ ") + (mono if abs(v) == 1 else "%s*%s" % (abs(v), mono)))
    return _ref_join(bits) + " + O(%d)" % (s.cutoff + 1)


CORPUS_ALGEBRAS = ("abelian2", "solv2", "heis3", "sl2")


def _rational(rng):
    return Fr(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


def _random_h(alg, rng, terms=3):
    from pseudoalg.pbw import multiindices_up_to
    mis = multiindices_up_to(alg.dim, 2)
    return HElt(alg, {rng.choice(mis): _rational(rng) for _ in range(rng.randint(1, terms))})


def _at_sum(rng, pieces, bare):
    """An "@"-sum over (HElt, rest) pieces with random signs and spacing;
    with `bare`, some coefficients go without parentheses."""
    out = ""
    for k, (h, rest) in enumerate(pieces):
        signs = ["", "-", "- ", "+"] if k == 0 else [" + ", " - ", " +", " -"]
        sign = rng.choice(signs)
        coeff = render_helt(h)
        if not (bare and rng.random() < 0.5):
            coeff = "(%s)" % coeff
        out += "%s%s%s@%s%s" % (sign, coeff, rng.choice([" ", ""]), rng.choice([" ", "  "]), rest)
    return out


def _corpus_modules():
    from pseudoalg.forms import form_module
    for name in CORPUS_ALGEBRAS:
        alg = liealg.algebra_by_name(name)
        yield make_wd(alg)[0].module
        for degree in range(alg.dim + 1):
            yield form_module(alg, degree)


def test_at_terms_match_reference_scanners():
    """The one "@"-term scanner reads every well-formed module element of a
    seeded corpus as the module-element scanner it replaced did."""
    rng = random.Random(9)
    checked = 0
    for module in _corpus_modules():
        alg = module.alg
        names = [module.gen_name(g) for g in module.gens]
        for _ in range(12):
            pieces = [(_random_h(alg, rng), rng.choice(names))
                      for _ in range(rng.randint(1, 4))]
            for bare in (False, True):
                text = _at_sum(rng, pieces, bare)
                assert parse_module_element(module, text) == \
                    _ref_parse_module_element(module, text), text
            m = MElt.zero(module)
            for h, g in pieces:
                m = m + MElt(module, {(I, module.gen_by_name(g)): v for I, v in h.c.items()})
            text = render_module_element(m)
            assert parse_module_element(module, text) == _ref_parse_module_element(module, text)
            checked += 3
    assert checked == 648  # 12 draws of 3 checks on each of the 18 corpus modules


def test_signed_sums_print_as_reference_printers():
    from pseudoalg.annihilation import TruncatedSeries
    from pseudoalg.pbw import multiindices_up_to
    from pseudoalg.tensor import QElt
    rng = random.Random(9)
    for name in CORPUS_ALGEBRAS:
        alg = liealg.algebra_by_name(name)
        mis = multiindices_up_to(alg.dim, 2)
        module = make_wd(alg)[0].module
        for terms in (0, 1, 2, 4):
            for _ in range(8):
                h = HElt(alg, {rng.choice(mis): _rational(rng) for _ in range(terms)})
                assert repr(h) == _ref_render_helt(h)
                arity = rng.randint(1, 3)
                t = TensorElt(alg, arity, {tuple(rng.choice(mis) for _ in range(arity)):
                                           _rational(rng) for _ in range(terms)})
                assert repr(t) == _ref_render_tensor(t)
                q = QElt(module, arity)
                for _ in range(terms):
                    q._bump(tuple(rng.choice(mis) for _ in range(arity)),
                            rng.choice(module.gens), rng.choice(mis), _rational(rng))
                assert repr(q) == _ref_render_quotient(q)
                s = TruncatedSeries(alg, 3, dict(h.c))
                assert repr(s) == _ref_series_repr(s)


MALFORMED_MODULE = ["(1) @", "(1) w_d1", "(1) @ w_d3", "(1) @ w_d1 + 2", "2 + (1) @ w_d1",
                    "(d^(1)) @ w_d1", "(1/0) @ w_d1", "((1) @ w_d1", "(1 @ w_d1",
                    "(1) @ w_d1 @ w_d2", "(q^(1,0)) @ w_d1", "(1) + (2) @ w_d1",
                    "(1) @ w_d1 + @ w_d2", "(1) @ -w_d1", "@ w_d1", "( ) @ w_d1"]


def test_at_terms_refuse_malformed_corpus_as_references_do():
    module = make_wd(liealg.abelian(2))[0].module
    for text in MALFORMED_MODULE:
        for fn in (parse_module_element, _ref_parse_module_element):
            with pytest.raises((ValueError, KeyError)):
                fn(module, text)


def test_at_term_rules_where_the_old_scanners_disagreed():
    """The old module-element scanner refused "0"; the one grammar reads it
    as the empty sum."""
    module = make_wd(liealg.abelian(2))[0].module
    with pytest.raises(ValueError):
        _ref_parse_module_element(module, "0")
    assert parse_module_element(module, "0") == MElt.zero(module)
    assert parse_module_element(module, render_module_element(MElt.zero(module))) == \
        MElt.zero(module)
    assert parse_module_element(module, "(1) @ w_d1") == MElt(module, {((0, 0), 0): 1})
