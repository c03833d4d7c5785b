import json
import random
from fractions import Fraction as Fr

import pytest

from pseudoalg import liealg
from pseudoalg.cli import build_structure
from pseudoalg.constructions import make_sd, make_wd
from pseudoalg.io import (lie_algebra_from_dict, lie_algebra_to_dict,
                          parse_bracket_entry, pseudo_from_dict, pseudo_to_dict,
                          render_bracket_entry)
from pseudoalg.literals import (parse_helt, parse_module_element, parse_pform,
                                parse_tensor, render_helt, render_module_element,
                                render_pform)
from pseudoalg.pbw import HElt, TensorElt
from pseudoalg.tensor import MElt
from pseudoalg.pseudo import verify_axioms


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
    t = parse_tensor(alg, "d^(1)#d^(0) - d^(0)#d^(1)", arity=2)
    want = TensorElt.pure([HElt.gen(alg, 0), HElt.one(alg)]) \
        - TensorElt.pure([HElt.one(alg), HElt.gen(alg, 0)])
    assert t == want
    with pytest.raises(ValueError):
        parse_tensor(alg, "d^(1)", arity=2)


def test_parse_module_element():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    m = parse_module_element(P.module, "(d^(1,0)) @ w_d2 - (2) @ w_d1")
    assert m.c == {((1, 0), 1): Fr(1), ((0, 0), 0): Fr(-2)}
    text = render_module_element(m)
    assert parse_module_element(P.module, text) == m


def test_bad_literals_rejected():
    alg = liealg.abelian(2)
    with pytest.raises(ValueError):
        parse_helt(alg, "d^(1)")       # wrong index count
    with pytest.raises(ValueError):
        parse_helt(alg, "d^(-1,0)")    # negative exponent
    with pytest.raises(ValueError):
        parse_helt(alg, "q^(1,0)")


def test_lie_algebra_file_round_trip(tmp_path):
    alg = liealg.sl2()
    data = lie_algebra_to_dict(alg)
    back = lie_algebra_from_dict(json.loads(json.dumps(data)))
    assert back.basis == alg.basis and back.table == alg.table


def test_lie_algebra_fractional_constants():
    data = {"name": "halved", "dim": 2, "basis": ["a", "b"],
            "brackets": [{"x": "a", "y": "b", "value": {"b": "1/2"}}]}
    alg = lie_algebra_from_dict(data)
    assert alg.bracket(0, 1) == {1: Fr(1, 2)}
    # reversed-order input folds through antisymmetry
    data["brackets"] = [{"x": "b", "y": "a", "value": {"b": "-1/2"}}]
    assert lie_algebra_from_dict(data).bracket(0, 1) == {1: Fr(1, 2)}


def test_bracket_entry_round_trip():
    alg = liealg.solvable2()
    P, _ = make_wd(alg)
    for gi in P.module.gens:
        for gj in P.module.gens:
            q = P.gen_bracket(gi, gj)
            text = render_bracket_entry(q)
            assert parse_bracket_entry(P.module, text) == q


def test_pseudo_spec_round_trip():
    # the spec names every generator, so it loads back as written
    for spec in ("wd:solv2", "wd:sl2", "cur:sl2"):
        P = build_structure(spec)[1]
        data = json.loads(json.dumps(pseudo_to_dict(P)))
        P2 = pseudo_from_dict(data)
        assert pseudo_to_dict(P2) == data, spec
        assert verify_axioms(P2).ok, spec
        name = P.module.gen_name
        assert P2.module.gens == [name(g) for g in P.module.gens], spec
        for gi in P.module.gens:
            for gj in P.module.gens:
                a = P.gen_bracket(gi, gj)
                b = P2.gen_bracket(name(gi), name(gj))
                assert {(k, name(g), L): v for (k, g, L), v in a.c.items()} == b.c, spec


def test_pseudo_spec_refuses_relations():
    # a spec has no relations field; writing one would reload as the free structure
    P = make_sd(liealg.abelian(3)).pair_structure()
    assert len(P.relations) == 1
    with pytest.raises(ValueError, match=r"with 1 module relation\(s\)"):
        pseudo_to_dict(P)


def test_quotient_dump_round_trip():
    P, _ = make_wd(liealg.solvable2())
    q = P.gen_bracket(0, 1)
    from pseudoalg.tensor import QElt
    data = json.loads(json.dumps(q.as_dict()))
    back = QElt.from_dict(P.module, data)
    assert back.c == q.c and back.canonical == q.canonical


def test_form_literal_round_trip():
    from pseudoalg.literals import parse_pform, render_pform
    alg = liealg.heisenberg3()
    w = parse_pform(alg, "(d^(1,0,0)) @ e*^(1,2) - (2) @ e*^(1,3)")
    assert w.degree == 2
    assert w.value((0, 1)).c == {(1, 0, 0): Fr(1)}
    assert w.value((2, 0)).c == {(0, 0, 0): Fr(2)}  # swapped slots flip the sign
    again = parse_pform(alg, render_pform(w))
    assert again == w


# -- one "@"-term grammar ---------------------------------------------------------
#
# The three term scanners that the grammar in `literals` replaced, and the four
# signed-sum printers that `_signed_sum` replaced, kept as references.

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


def _ref_parse_pform(alg, text, degree=None):
    from pseudoalg.forms import PForm
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
    out = None
    for term in terms:
        left, right = term.rsplit("@", 1)
        right = right.strip()
        if not right.startswith("e*^(") or not right.endswith(")"):
            raise ValueError("form term %r needs an e*^(...) tail" % term)
        inner = right[4:-1].strip()
        T = tuple(int(x) - 1 for x in inner.split(",") if x.strip()) if inner else ()
        if list(T) != sorted(set(T)):
            raise ValueError("form indices must be strictly increasing")
        left = left.strip()
        sign = 1
        while left and left[0] in "+-":
            if left[0] == "-":
                sign = -sign
            left = left[1:].strip()
        if left.startswith("(") and left.endswith(")"):
            left = left[1:-1]
        h = parse_helt(alg, left if left else "1").scale(sign)
        if degree is None:
            degree = len(T)
        if len(T) != degree:
            raise ValueError("mixed form degrees in %r" % text)
        piece = PForm(alg, degree, {T: h})
        out = piece if out is None else out + piece
    if out is None:
        raise ValueError("empty form literal")
    return out


def _ref_scan_group(text, pos):
    if pos >= len(text) or text[pos] != "(":
        raise ValueError("expected '(' at %d in %r" % (pos, text))
    depth = 0
    for q in range(pos, len(text)):
        if text[q] == "(":
            depth += 1
        elif text[q] == ")":
            depth -= 1
            if depth == 0:
                return text[pos + 1:q], q + 1
    raise ValueError("unbalanced parentheses in %r" % text)


def _ref_parse_bracket_entry(module, text):
    from pseudoalg.pbw import mi_zero
    from pseudoalg.tensor import QElt
    q = QElt(module, 2)
    zero = mi_zero(module.alg.dim)
    text = text.strip()
    if text in ("0", ""):
        return q
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        h_text, pos = _ref_scan_group(text, pos)
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n or text[pos] != "@":
            raise ValueError("expected '@' in bracket entry %r" % text)
        pos += 1
        while pos < n and text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == "(":
            m_text, pos = _ref_scan_group(text, pos)
        else:
            m_text = None
        while pos < n and text[pos].isspace():
            pos += 1
        start = pos
        while pos < n and not (text[pos] in "+-" and text[pos - 1].isspace()):
            pos += 1
        gen_name = text[start:pos].strip()
        if not gen_name:
            raise ValueError("missing generator name in %r" % text)
        h = parse_helt(module.alg, h_text)
        mcoef = parse_helt(module.alg, m_text) if m_text else HElt.one(module.alg)
        gen = module.gen_by_name(gen_name)
        for I, hv in h.c.items():
            for L, mv in mcoef.c.items():
                q._bump((I, zero), gen, L, sign * hv * mv)
    return q


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


def _form_tail(alg, degree, rng):
    T = sorted(rng.sample(range(alg.dim), degree))
    return "e*^(%s)" % ",".join(str(i + 1) for i in T)


def test_at_terms_match_reference_scanners():
    """The one "@"-term scanner reads every well-formed literal of a seeded
    corpus as the three scanners it replaced did."""
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
            text = _at_sum(rng, [(h, "(%s) %s" % (render_helt(_random_h(alg, rng)), g)
                                  if rng.random() < 0.5 else g) for h, g in pieces], False)
            assert parse_bracket_entry(module, text).c == \
                _ref_parse_bracket_entry(module, text).c, text
            m = MElt.zero(module)
            for h, g in pieces:
                m = m + MElt(module, {(I, module.gen_by_name(g)): v for I, v in h.c.items()})
            text = render_module_element(m)
            assert parse_module_element(module, text) == _ref_parse_module_element(module, text)
            checked += 4
        for degree in range(alg.dim + 1):
            for _ in range(6):
                pieces = [(_random_h(alg, rng), _form_tail(alg, degree, rng))
                          for _ in range(rng.randint(1, 3))]
                for bare in (False, True):
                    text = _at_sum(rng, pieces, bare)
                    w = parse_pform(alg, text)
                    assert w == _ref_parse_pform(alg, text), text
                    again = render_pform(w)
                    assert parse_pform(alg, again, degree) == _ref_parse_pform(alg, again, degree)
                    checked += 2
    for name in liealg.CATALOG_BUILDERS:
        P, _ = make_wd(liealg.algebra_by_name(name))
        for gi in P.module.gens:
            for gj in P.module.gens:
                text = render_bracket_entry(P.gen_bracket(gi, gj))
                assert parse_bracket_entry(P.module, text) == \
                    _ref_parse_bracket_entry(P.module, text), text
                checked += 1
    assert checked > 1000


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
MALFORMED_ENTRY = ["(1) @ (2", "(1) @ ", "(1) w_d1", "(1) @ nosuch", "(1) @ (1/0) w_d1",
                   "(1 @ w_d1", "(1) @ w_d1 (2) @ w_d2", "(1) @ (1) ", "(1) @ w_d1 + 2",
                   "(d^(1)) @ w_d1", "(1) @ -w_d1"]
MALFORMED_FORM = ["(1) @ e*^(2,1)", "(1) @ e*^(1,1)", "(1) @ e*(1)", "(1) @ e*^(a)",
                  "(1) @ e*^(1) + (1) @ e*^(1,2)", "0", "", "(1)", "(1) @ e*^(1) + 2",
                  "(d^(1)) @ e*^(1)"]


def test_at_terms_refuse_malformed_corpus_as_references_do():
    alg = liealg.abelian(2)
    module = make_wd(alg)[0].module
    for parse, ref, corpus, target in (
            (parse_module_element, _ref_parse_module_element, MALFORMED_MODULE, module),
            (parse_bracket_entry, _ref_parse_bracket_entry, MALFORMED_ENTRY, module),
            (parse_pform, _ref_parse_pform, MALFORMED_FORM, alg)):
        for text in corpus:
            for fn in (parse, ref):
                with pytest.raises((ValueError, KeyError)):
                    fn(target, text)


def test_at_term_rules_where_the_old_scanners_disagreed():
    """One rule for each input the three old scanners read differently."""
    alg = liealg.abelian(2)
    module = make_wd(alg)[0].module
    one = MElt(module, {((0, 0), 0): 1})
    # an empty coefficient is refused everywhere; the form scanner read it as 1
    assert _ref_parse_pform(alg, "@ e*^(1)") == parse_pform(alg, "(1) @ e*^(1)")
    for text in ("@ e*^(1)", "() @ e*^(1)", "- @ e*^(1)"):
        with pytest.raises(ValueError, match="empty coefficient"):
            parse_pform(alg, text)
    assert _ref_parse_bracket_entry(module, "() @ w_d1").c == {}
    assert _ref_parse_bracket_entry(module, "(1) @ () w_d1") == \
        _ref_parse_bracket_entry(module, "(1) @ w_d1")
    for text in ("() @ w_d1", "(1) @ () w_d1"):
        with pytest.raises(ValueError, match="empty coefficient"):
            parse_bracket_entry(module, text)
    # bare coefficients and repeated signs read as in module elements
    entry = parse_bracket_entry(module, "(2) @ w_d1")
    for text in ("2 @ w_d1", "- -(2) @ w_d1", "-(-2) @ w_d1"):
        assert parse_bracket_entry(module, text) == entry
    with pytest.raises(ValueError):
        _ref_parse_bracket_entry(module, "2 @ w_d1")
    with pytest.raises(ValueError):
        _ref_parse_bracket_entry(module, "- -(2) @ w_d1")
    # a sign after a term's "@"-tail starts the next term, with or without a space
    glued = "(1) @ w_d1+(2) @ w_d2"
    with pytest.raises(KeyError):
        _ref_parse_bracket_entry(module, glued)
    assert parse_bracket_entry(module, glued) == \
        parse_bracket_entry(module, "(1) @ w_d1 + (2) @ w_d2")
    # "0" is the empty sum in every "@"-sum; module elements refused it
    with pytest.raises(ValueError):
        _ref_parse_module_element(module, "0")
    assert parse_module_element(module, "0") == MElt.zero(module)
    assert parse_module_element(module, render_module_element(MElt.zero(module))) == \
        MElt.zero(module)
    assert parse_module_element(module, "(1) @ w_d1") == one
    # form indices lie in 1..dim; the form scanner took e*^(0) as index -1
    assert _ref_parse_pform(alg, "(1) @ e*^(0)").c == {(-1,): HElt.one(alg)}
    for text in ("(1) @ e*^(0)", "(1) @ e*^(3)", "(1) @ e*^(1,3)"):
        with pytest.raises(ValueError, match="1..2"):
            parse_pform(alg, text)


def test_generator_names_must_read_back():
    from pseudoalg.literals import check_gen_name
    for name in ("w_d1", "e", "0", "w*(1,2)", "w*()", "c[1,0;0,1]", "foo bar", "x^(1)"):
        check_gen_name(name)
    for name in ("", " e", "e ", "w-1", "a+b", "a@b", "(a)", "a)", "a(", "a)(b"):
        with pytest.raises(ValueError, match="cannot be read back"):
            check_gen_name(name)
    # the old file scanner read a "-" inside a name; the one grammar splits there
    data = {"algebra": "abelian1", "kind": "lie", "generators": ["w-1"],
            "brackets": [{"left": "w-1", "right": "w-1", "value": "(1) @ w-1"}]}
    with pytest.raises(ValueError, match="cannot be read back"):
        pseudo_from_dict(data)
    from pseudoalg.tensor import FreeModule
    module = FreeModule(liealg.abelian(1), ["w-1"])
    assert _ref_parse_bracket_entry(module, "(1) @ w-1").c
    with pytest.raises(KeyError):
        parse_bracket_entry(module, "(1) @ w-1")
