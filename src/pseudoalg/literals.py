"""Textual element literals.

Grammar, shared by the CLI and the file formats:

    coeff    := integer | "p/q"
    monomial := "d^(" int ("," int)* ")"
    term     := coeff ["*" monomial] | monomial
    element  := [sign] term (("+"|"-") term)*

Tensor factors are joined by "#", module terms are written "(h) @ e_k",
truncated-series monomials as "t^(i1,...,iN)" and form monomials as
"h @ e*^(i1,...,ik)".
"""

import re

from .linalg import div, sparse_sum

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?P<coeff>\d+(?:/\d+)?)?\s*
        (?:\*?\s*(?P<mono>[dt])\^\((?P<idx>[-\d\s,]*)\))?\s*""",
    re.VERBOSE)


def parse_fraction(s):
    s = s.strip()
    if "/" in s:
        p, q = (int(x) for x in s.split("/"))
        if not q:
            raise ValueError("zero denominator in %r" % s)
        return div(p, q)
    return int(s)


def _fmt_coeff(v):
    return str(v)


def render_mi(I, symbol="d"):
    return "%s^(%s)" % (symbol, ",".join(str(x) for x in I))


def render_helt(e, symbol="d"):
    if not e.c:
        return "0"
    bits = []
    for I in sorted(e.c, key=lambda I: (sum(I), I)):
        v = e.c[I]
        mono = render_mi(I, symbol)
        if all(x == 0 for x in I):
            text = _fmt_coeff(abs(v))
        elif abs(v) == 1:
            text = mono
        else:
            text = "%s*%s" % (_fmt_coeff(abs(v)), mono)
        bits.append(("- " if v < 0 else "+ ") + text)
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def render_tensor(t, symbol="d"):
    if not t.c:
        return "0"
    bits = []
    for key in sorted(t.c):
        v = t.c[key]
        mono = " # ".join(render_mi(I, symbol) for I in key)
        text = mono if abs(v) == 1 else "%s*(%s)" % (_fmt_coeff(abs(v)), mono)
        bits.append(("- " if v < 0 else "+ ") + text)
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _split_terms(text):
    """Split on top-level + and - (keeping signs), respecting parentheses."""
    terms = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip():
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    return terms


def parse_term(alg, text, symbol="d"):
    """One signed term -> (multi-index, coefficient)."""
    m = _TERM_RE.fullmatch(text)
    if not m or (m.group("coeff") is None and m.group("mono") is None):
        raise ValueError("cannot parse term %r" % text)
    sign = -1 if m.group("sign") == "-" else 1
    coeff = parse_fraction(m.group("coeff")) if m.group("coeff") else 1
    if m.group("mono"):
        if m.group("mono") != symbol:
            raise ValueError("expected %s^(...) monomials in %r" % (symbol, text))
        idx = tuple(int(x) for x in m.group("idx").split(",") if x.strip() != "")
        if len(idx) != alg.dim:
            raise ValueError("monomial %r needs %d indices" % (text, alg.dim))
        if any(x < 0 for x in idx):
            raise ValueError("negative exponent in %r" % text)
    else:
        idx = (0,) * alg.dim
    return idx, sign * coeff


def parse_helt(alg, text, symbol="d"):
    from .pbw import HElt
    text = text.strip()
    if text == "0":
        return HElt.zero(alg)
    return HElt(alg, sparse_sum(parse_term(alg, term, symbol)
                                for term in _split_terms(text)))


def parse_tensor(alg, text, arity=None, symbol="d"):
    """Sum of "#"-joined products of single terms, e.g. "d^(1)#d^(0) - d^(0)#d^(1)"."""
    from .pbw import TensorElt
    text = text.strip()
    terms = _split_terms(text)
    out = None
    for term in terms:
        factors = term.split("#")
        if arity is not None and len(factors) != arity:
            raise ValueError("expected %d tensor factors in %r" % (arity, term))
        key = []
        coeff = 1
        for pos, f in enumerate(factors):
            I, v = parse_term(alg, f if pos == 0 else f.strip(), symbol)
            key.append(I)
            coeff *= v
        t = TensorElt(alg, len(key), {tuple(key): coeff})
        out = t if out is None else out + t
    if out is None:
        raise ValueError("empty tensor literal")
    return out


def parse_module_element(module, text):
    """Sums of "(h) @ gen" with gen a generator name of the module."""
    from .tensor import MElt
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


def render_module_element(m):
    if not m.c:
        return "0"
    from .pbw import HElt
    by_gen = {}
    for (I, g), v in m.c.items():
        by_gen.setdefault(g, {})[I] = v
    bits = []
    for g in sorted(by_gen, key=lambda g: m.module.gen_name(g)):
        h = HElt(m.module.alg, by_gen[g])
        bits.append("(%s) @ %s" % (render_helt(h), m.module.gen_name(g)))
    return " + ".join(bits)


def render_quotient(q):
    if not q.c:
        return "0"
    bits = []
    for (key, g, L) in sorted(q.c, key=lambda item: (item[0], str(item[1]), item[2])):
        v = q.c[(key, g, L)]
        slots = " # ".join(render_mi(I) for I in key)
        mod = q.module.gen_name(g)
        if any(L):
            mod = "%s %s" % (render_mi(L), mod)
        sign = "- " if v < 0 else "+ "
        mag = abs(v)
        coeff = "" if mag == 1 else "%s*" % _fmt_coeff(mag)
        bits.append("%s%s(%s) @ %s" % (sign, coeff, slots, mod))
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def parse_pform(alg, text, degree=None):
    """Form literal: sums of "h @ e*^(i1,...,ik)" with 1-based increasing indices."""
    from .forms import PForm
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


def render_pform(w):
    if not w.c:
        return "0"
    return " + ".join("(%s) @ e*^(%s)" % (render_helt(h),
                                          ",".join(str(i + 1) for i in T))
                      for T, h in sorted(w.c.items()))
