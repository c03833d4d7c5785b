"""Seeded job lists for the four workloads.

This module uses the standard library only.  A job is a plain tuple
`(shape, payload)`: `shape` names the kind of check and its size class
(algebra, degree, term count, cutoff, window), `payload` holds the random
content (multi-indices, generators, rational coefficients).  The program
under test only ever sees these inputs.

Jobs come in blocks.  Every block of a workload holds the same multiset of
shapes, so a run that stops on a block boundary measures exactly that mix.
The supports of the random elements (which monomials and generators occur),
the denominators of their coefficients and the order of the jobs in a
block are drawn per block index, the same for every seed; the seed draws
the numerators.  Two seeds
therefore give different lists with the same job count, the same size mix
and nearly the same amount of work, in the same order, so caches fill at
the same jobs and the figures of different seeds differ by the machine's
noise, not by a luckier draw.  The central workload has no coefficients;
its seed draws the order of the jobs in each block.
"""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache

DIMS = {"abelian1": 1, "abelian2": 2, "abelian3": 3, "abelian4": 4,
        "solv2": 2, "heis3": 3, "sl2": 3}


@lru_cache(maxsize=None)
def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in compositions(total - first, parts - 1))


@lru_cache(maxsize=None)
def monomials(dim, deg):
    """Multi-indices of length `dim` and weight at most `deg`, sorted."""
    return tuple(sorted(I for w in range(deg + 1) for I in compositions(w, dim)))


def rational(srng, rng, integral=True):
    """Small nonzero rational; with integral=False never an integer.

    The denominator comes from the support stream and the numerator from
    the seed, so the sizes of the numbers a block multiplies do not depend
    on the seed."""
    den = srng.randint(2, 7) if not integral else srng.choice((1, 1, 2, 3))
    while True:
        num = rng.randint(-9, 9)
        if num and (integral or num % den):
            return Fraction(num, den)


@lru_cache(maxsize=None)
def _pool(dim, deg, gens):
    """(multi-index, generator) pairs with weight at most `deg`."""
    return [(I, g) for I in monomials(dim, deg) for g in gens]


def distinct_terms(srng, pool, nterms, coeff):
    """`nterms` distinct keys drawn from `pool` by `srng`, each with a coefficient."""
    return tuple((key, coeff()) for key in srng.sample(pool, nterms))


def support_rng(workload, block):
    return random.Random("%s/supports/%d" % (workload, block))


# -- hopf: the pbw miss path ---------------------------------------------------

# (algebra, degree of the leading monomial, terms per element)
HOPF_SHAPES = [("sl2", 4, 3), ("sl2", 5, 2), ("solv2", 5, 3), ("solv2", 6, 3),
               ("solv2", 7, 2), ("heis3", 5, 3), ("heis3", 6, 3), ("heis3", 7, 2),
               ("abelian3", 6, 3), ("abelian3", 7, 3)]
# deep probes d^(0..,k) d^(k,..0): k = 18 and 22 straighten within the
# default recursion limit, k = 33, 35 and 37 need more than 1000 swaps deep
HOPF_PROBES = [("sl2", 18), ("solv2", 35), ("sl2", 33), ("solv2", 22), ("sl2", 37)]
HOPF_BLOCKS = 60


def hopf_element(srng, rng, alg, deg, nterms):
    dim = DIMS[alg]
    top = srng.choice(compositions(deg, dim))
    low = [I for I in monomials(dim, deg) if I != top]
    terms = ((top, rational(srng, rng, integral=False)),)
    return terms + distinct_terms(srng, low, nterms - 1,
                                  lambda: rational(srng, rng, integral=False))


def hopf_blocks(rng, nblocks):
    blocks = []
    for b in range(nblocks):
        srng = support_rng("hopf", b)
        block = [(("triple",) + shape,
                  tuple(hopf_element(srng, rng, *shape) for _ in range(3)))
                 for shape in HOPF_SHAPES]
        srng.shuffle(block)
        if b == 0:
            # every run completes the first block, so every run attempts
            # every probe
            block += [(("probe",) + probe, ()) for probe in HOPF_PROBES]
        blocks.append(block)
    return blocks


# -- identities: the tensor and pseudo layers ---------------------------------

def _gc_gens(dim, n):
    return [(J, p, q) for J in monomials(dim, 1) for p in range(n) for q in range(n)]


# base algebra and generator keys of every shared structure
STRUCTURES = {
    "cur:sl2": ("abelian1", [0, 1, 2]),
    "wd:heis3": ("heis3", [0, 1, 2]),
    "wd:sl2": ("sl2", [0, 1, 2]),
    "sd:abelian3": ("abelian3", [(a, b) for a in range(3) for b in range(3) if a < b]),
    "sd:abelian4": ("abelian4", [(a, b) for a in range(4) for b in range(4) if a < b]),
    "gc:3": ("abelian1", _gc_gens(1, 3)),
    "gc:2@sl2": ("sl2", _gc_gens(3, 2)),
    "cend:2": ("abelian1", _gc_gens(1, 2)),
    "rank1:solv2": ("solv2", ["e"]),
    "rank1:abelian2": ("abelian2", ["e"]),
    "rank1:heisenberg": ("heis3", ["e"]),
    "rank1:sl2": ("sl2", ["e"]),
    "rank1:w1": ("abelian1", ["e"]),
}
# modules acted on by a structure: (structure, module) -> generator keys
MODULES = {
    ("wd:heis3", "H"): ["h"],
    ("wd:heis3", "forms1"): [(0,), (1,), (2,)],
    ("wd:heis3", "forms2"): [(0, 1), (0, 2), (1, 2)],
    ("wd:sl2", "forms1"): [(0,), (1,), (2,)],
    ("wd:sl2", "forms2"): [(0, 1), (0, 2), (1, 2)],
}
_LIE = [s for s in STRUCTURES if s != "cend:2"]
# terms per element of the multi-term jobs, sized so no job dominates
_SKEW_TERMS = {"cur:sl2": 3, "wd:heis3": 3, "wd:sl2": 2, "sd:abelian3": 2,
               "sd:abelian4": 2, "gc:3": 3, "gc:2@sl2": 2, "rank1:solv2": 3,
               "rank1:abelian2": 3, "rank1:heisenberg": 2, "rank1:sl2": 2,
               "rank1:w1": 3}
_JACOBI_TERMS = {"cur:sl2": 3, "wd:heis3": 2, "wd:sl2": 1, "sd:abelian3": 1,
                 "sd:abelian4": 1, "gc:3": 3, "gc:2@sl2": 2, "rank1:solv2": 2,
                 "rank1:abelian2": 3, "rank1:heisenberg": 1, "rank1:sl2": 1,
                 "rank1:w1": 3}
# (check, structure, module or None, terms per element, coefficient degree);
# degree 0 with one term is a plain generator
IDENTITY_SHAPES = (
    [("skew", s, None, _SKEW_TERMS[s], 2) for s in _LIE]
    + [("jacobi", s, None, 1, 0) for s in _LIE]
    + [("jacobi", s, None, _JACOBI_TERMS[s], 2) for s in _LIE]
    + [("assoc", "cend:2", None, 1, 0), ("assoc", "cend:2", None, 3, 2)]
    + [("module", "wd:heis3", "H", 2, 2), ("module", "wd:heis3", "forms1", 2, 2),
       ("module", "wd:heis3", "forms2", 2, 2), ("module", "wd:sl2", "forms1", 1, 2),
       ("module", "wd:sl2", "forms2", 1, 2)])
IDENTITY_BLOCKS = 40


def module_element(srng, rng, dim, gens, nterms, deg):
    """Terms (multi-index, generator, coefficient) of a module element."""
    if deg == 0 and nterms == 1:
        return (((0,) * dim, srng.choice(gens), Fraction(1)),)
    pool = _pool(dim, deg, tuple(gens))
    return tuple((I, g, c) for (I, g), c in
                 distinct_terms(srng, pool, nterms, lambda: rational(srng, rng)))


def identity_job(srng, rng, shape):
    check, struct, module, nterms, deg = shape
    base, gens = STRUCTURES[struct]
    dim = DIMS[base]
    nelts = 2 if check == "skew" else 3
    elts = [module_element(srng, rng, dim, gens, nterms, deg) for _ in range(nelts)]
    if module is not None:
        elts[2] = module_element(srng, rng, dim, MODULES[(struct, module)], nterms, deg)
    return (shape, tuple(elts))


def identity_blocks(rng, nblocks):
    blocks = []
    for b in range(nblocks):
        srng = support_rng("identities", b)
        block = [identity_job(srng, rng, s) for s in IDENTITY_SHAPES]
        srng.shuffle(block)
        blocks.append(block)
    return blocks


# -- annihilate: the annihilation layer ---------------------------------------

ANNIHILATE_ALGEBRAS = ["abelian2", "abelian3", "solv2", "heis3", "sl2"]
ANNIHILATE_SHAPES = [("bracket", a, cutoff, nterms) for a in ANNIHILATE_ALGEBRAS
                     for cutoff in (4, 5, 6) for nterms in (1, 2, 3)]
ANNIHILATE_BLOCKS = 100


def annihilation_element(srng, rng, alg, nterms):
    pool = _pool(DIMS[alg], 3, tuple(range(DIMS[alg])))
    return tuple((I, g, c) for (I, g), c in
                 distinct_terms(srng, pool, nterms, lambda: rational(srng, rng)))


def annihilate_blocks(rng, nblocks):
    blocks = []
    for b in range(nblocks):
        srng = support_rng("annihilate", b)
        block = [(s, (annihilation_element(srng, rng, s[1], s[3]),
                      annihilation_element(srng, rng, s[1], s[3])))
                 for s in ANNIHILATE_SHAPES]
        srng.shuffle(block)
        blocks.append(block)
    return blocks


# -- central: the cohomology and linalg layers ---------------------------------

RANK1 = ["rank1:w1", "rank1:abelian2", "rank1:heisenberg", "rank1:solv2", "rank1:sl2"]
CENTRAL_SHAPES = (
    [("central", s, d) for s in RANK1 for d in (3, 4, 6, 8)]
    + [("central", "cur:sl2", d) for d in range(3, 7)]
    + [("central", "wd:solv2", d) for d in range(3, 6)]
    + [("central", s, d) for s in ("wd:heis3", "wd:abelian3", "sd:abelian3")
       for d in (3, 4)]
    + [("central", "sd:abelian4", 3)])
CENTRAL_BLOCKS = 20


def central_blocks(rng, nblocks):
    blocks = []
    for _ in range(nblocks):
        shapes = list(CENTRAL_SHAPES)
        rng.shuffle(shapes)
        blocks.append([(s, ()) for s in shapes])
    return blocks


# (builder, number of distinct blocks) per workload
BUILDERS = {"hopf": (hopf_blocks, HOPF_BLOCKS),
            "identities": (identity_blocks, IDENTITY_BLOCKS),
            "annihilate": (annihilate_blocks, ANNIHILATE_BLOCKS),
            "central": (central_blocks, CENTRAL_BLOCKS)}


def generate(workload, seed, nblocks=None):
    """The first `nblocks` job blocks of a workload for a seed, all of its
    distinct blocks if None or more; same seed, same bytes.  Blocks are
    drawn in order, so a shorter list is a prefix of a longer one."""
    if workload not in BUILDERS:
        raise KeyError("unknown workload %r" % workload)
    builder, total = BUILDERS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    return builder(rng, total if nblocks is None else min(nblocks, total))


def digest(blocks):
    return hashlib.sha256(repr(blocks).encode()).hexdigest()[:16]


def size_mix(blocks):
    """Sorted shape counts; equal for every seed of a workload."""
    counts = {}
    for block in blocks:
        for shape, _ in block:
            counts[shape] = counts.get(shape, 0) + 1
    return sorted(counts.items(), key=repr)
