"""Textual element literals: the one grammar of the CLI.

    coeff    := integer | "p/q"
    monomial := "d^(" int ("," int)* ")"
    term     := coeff ["*" monomial] | monomial
    element  := [sign] term (("+"|"-") term)*

Tensor factors are joined by "#" and truncated-series monomials are
written "t^(i1,...,iN)".  Module elements are sums of "@"-terms:

    at-term  := sign* ("(" element ")" | element) "@" gen
    at-sum   := "0" | "" | at-term (("+"|"-") at-term)*

A top-level "+" or "-" starts a new "@"-term only once the current term
holds its "@", so a coefficient may itself be a sum.  The signs before a
term scale its whole coefficient, and an empty coefficient is refused.
`gen` is a generator name of the module.  A name with "@", or with "+"
or "-" outside its brackets, or one opening with "(", would not read
back; none that the package makes does.
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


def render_mi(I, symbol="d"):
    return "%s^(%s)" % (symbol, ",".join(str(x) for x in I))


def _signed_sum(pairs):
    """Print (coefficient, body) pairs as "a - b + c", or "0" for none.

    A body stands alone under a unit coefficient and as "|v|*body" under
    any other; an empty body prints the bare |v|.
    """
    bits = []
    for v, body in pairs:
        mag = abs(v)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        bits.append(("- " if v < 0 else "+ ") + text)
    if not bits:
        return "0"
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def render_helt(e):
    return _signed_sum((e.c[I], render_mi(I) if any(I) else "")
                       for I in sorted(e.c, key=lambda I: (sum(I), I)))


def render_tensor(t):
    pairs = []
    for key in sorted(t.c):
        v = t.c[key]
        mono = " # ".join(render_mi(I) for I in key)
        pairs.append((v, mono if abs(v) == 1 else "(%s)" % mono))
    return _signed_sum(pairs)


def _split_terms(text, after=""):
    """Split on top-level + and - (keeping signs), respecting parentheses
    and the brackets of generator names such as c[-1;0,0].

    A sign starts a new term only once the current term holds `after`.
    """
    terms = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in "+-" and depth == 0 and after in cur and cur.strip():
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    return terms


def split_group(text):
    """Text opening with "(" -> (its first balanced group, the text after it)."""
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if not depth:
                return text[:pos + 1], text[pos + 1:]
    raise ValueError("unbalanced parentheses in %r" % text)


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


def parse_tensor(alg, text):
    """Sum of "#"-joined pairs of single terms, e.g. "d^(1)#d^(0) - d^(0)#d^(1)"."""
    from .pbw import TensorElt
    text = text.strip()
    terms = _split_terms(text)
    out = None
    for term in terms:
        factors = term.split("#")
        if len(factors) != 2:
            raise ValueError("expected 2 tensor factors in %r" % term)
        key = []
        coeff = 1
        for pos, f in enumerate(factors):
            I, v = parse_term(alg, f if pos == 0 else f.strip())
            key.append(I)
            coeff *= v
        t = TensorElt(alg, len(key), {tuple(key): coeff})
        out = t if out is None else out + t
    if out is None:
        raise ValueError("empty tensor literal")
    return out


def parse_module_element(module, text):
    """An "@"-sum; each term's coefficient is read before its generator name."""
    from .tensor import MElt
    out = MElt.zero(module)
    if text.strip() in ("", "0"):
        return out
    for term in _split_terms(text, "@"):
        left, at, rest = term.partition("@")
        if not at:
            raise ValueError("term %r lacks '@'" % term.strip())
        left, sign = left.strip(), 1
        while left.startswith(("+", "-")):
            if left[0] == "-":
                sign = -sign
            left = left[1:].strip()
        if left.startswith("("):
            group, tail = split_group(left)
            if not tail.strip():
                left = group[1:-1]
        if not left.strip():
            raise ValueError("empty coefficient")
        h = parse_helt(module.alg, left)
        key = module.gen_by_name(rest.strip())
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
    pairs = []
    for (key, g, L) in sorted(q.c, key=lambda item: (item[0], str(item[1]), item[2])):
        mod = q.module.gen_name(g)
        if any(L):
            mod = "%s %s" % (render_mi(L), mod)
        pairs.append((q.c[(key, g, L)],
                      "(%s) @ %s" % (" # ".join(render_mi(I) for I in key), mod)))
    return _signed_sum(pairs)
