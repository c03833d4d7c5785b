"""File formats: pseudoalgebra specs, with inline Lie algebras, and Poisson specs.

All files are UTF-8 JSON.  Rationals are strings "p/q" or plain integers.

Lie algebra:    {"name": ..., "dim": N, "basis": [names],
                 "brackets": [{"x": name, "y": name,
                               "value": {name: "p/q", ...}}]}

Pseudoalgebra:  {"algebra": <name or inline spec>, "kind": "lie"|"assoc",
                 "generators": [names],
                 "brackets": [{"left": g, "right": g, "value": <entry>}]}
where <entry> is a sum of "(h) @ gen" or "(h) @ (m) gen" terms: h is the
tensor-slot coefficient, m an optional module coefficient.  The grammar of
these terms and of generator names is the one in `literals`.
"""

import json

from .liealg import LieAlgebra, algebra_by_name
from .linalg import sparse_sum
from .literals import (check_gen_name, parse_at_terms, parse_coefficient,
                       parse_fraction, render_helt, split_group)
from .pbw import HElt, mi_zero
from .pseudo import PseudoStructure
from .tensor import FreeModule, QElt


def lie_algebra_from_dict(data):
    basis = list(data["basis"])
    if len(basis) != int(data["dim"]):
        raise ValueError("dim does not match the basis list")
    index = {b: i for i, b in enumerate(basis)}
    brackets = {}
    for row in data.get("brackets", []):
        i, j = index[row["x"]], index[row["y"]]
        comps = {index[k]: parse_fraction(str(v)) for k, v in row["value"].items()}
        if i == j:
            if any(comps.values()):
                raise ValueError("[x, x] must vanish")
            continue
        if i > j:
            i, j = j, i
            comps = {k: -v for k, v in comps.items()}
        brackets.setdefault((i, j), []).extend(comps.items())
    return LieAlgebra(data.get("name", "loaded"), basis,
                      {pair: sparse_sum(terms) for pair, terms in brackets.items()})


def lie_algebra_to_dict(alg):
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis),
        "brackets": [{"x": alg.basis[i], "y": alg.basis[j],
                      "value": {alg.basis[k]: str(c) for k, c in comps.items()}}
                     for (i, j), comps in sorted(alg.table.items())],
    }


def resolve_algebra(ref):
    """Name from the built-in catalog, or an inline spec dict."""
    if isinstance(ref, dict):
        return lie_algebra_from_dict(ref)
    return algebra_by_name(ref)


def parse_bracket_entry(module, text):
    """Sum of "(h) @ gen" / "(h) @ (m) gen" terms into a canonical entry."""
    alg = module.alg
    q = QElt(module, 2)
    zero = mi_zero(alg.dim)
    for h, rest in parse_at_terms(alg, text):
        mcoef = HElt.one(alg)
        if rest.startswith("("):
            group, rest = split_group(rest)
            mcoef = parse_coefficient(alg, group)
        gen = module.gen_by_name(rest.strip())
        for I, hv in h.c.items():
            for L, mv in mcoef.c.items():
                q._bump((I, zero), gen, L, hv * mv)
    return q


def render_bracket_entry(q):
    q = q.canonicalize()
    if not q.c:
        return "0"
    by = {}
    for (key, g, L), v in q.c.items():
        by.setdefault((key[0], g), {})[L] = v
    bits = []
    for (I, g) in sorted(by, key=lambda t: (t[0], str(t[1]))):
        h = render_helt(HElt(q.module.alg, {I: 1}))
        mpart = HElt(q.module.alg, by[(I, g)])
        bits.append("(%s) @ (%s) %s" % (h, render_helt(mpart), q.module.gen_name(g)))
    return " + ".join(bits)


def pseudo_from_dict(data):
    alg = resolve_algebra(data["algebra"])
    gens = list(data["generators"])
    mod = FreeModule(alg, gens, label=data.get("name", "loaded"))
    for g in gens:
        check_gen_name(mod.gen_name(g))
    table = {}
    for row in data.get("brackets", []):
        gi, gj = row["left"], row["right"]
        table[(gi, gj)] = parse_bracket_entry(mod, row["value"])
    return PseudoStructure(mod, data.get("kind", "lie"), table=table,
                           name=data.get("name", "loaded"))


def pseudo_to_dict(P):
    """The spec of a structure on free generators; the format has no field
    for module relations, so a structure that has some is refused."""
    if P.relations:
        raise ValueError("%s is presented with %d module relation(s), which a "
                         "pseudoalgebra spec cannot hold" % (P.name, len(P.relations)))
    name = P.module.gen_name
    rows = []
    for gi in P.module.gens:
        for gj in P.module.gens:
            q = P.gen_bracket(gi, gj)
            if q.c:
                rows.append({"left": name(gi), "right": name(gj),
                             "value": render_bracket_entry(q)})
    return {
        "algebra": lie_algebra_to_dict(P.alg),
        "kind": P.kind,
        "name": P.name,
        "generators": [name(g) for g in P.module.gens],
        "brackets": rows,
    }


def load_poisson(path):
    from .poisson import PoissonBracketSpec
    with open(path, "r", encoding="utf-8") as fh:
        return PoissonBracketSpec.from_dict(json.load(fh))


def save_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
