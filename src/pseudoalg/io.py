"""File format: the Poisson spec, the one file the CLI reads and writes.

UTF-8 JSON, as `PoissonBracketSpec.as_dict` writes it; field indices are
1-based and rationals are strings "p/q" or plain integers.

    {"r": fields, "N": variables, "names": [names],
     "Q": [{"i": i, "j": j, "k": k,
            "terms": [{"lambda": [N ints], "partial": [N ints], "coeff": c}]}],
     "central": [{"i": i, "j": j, "terms": [{"lambda": [N ints], "coeff": c}]}]}
"""

import json

from .poisson import PoissonBracketSpec


def load_poisson(path):
    with open(path, "r", encoding="utf-8") as fh:
        return PoissonBracketSpec.from_dict(json.load(fh))


def save_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
