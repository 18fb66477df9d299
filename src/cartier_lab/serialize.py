"""JSON interchange for modules, sheaves, and certificates.

Polynomials travel as canonical strings (grevlex-descending terms); the
operator table is keyed by "a1 a2,j" — the space-separated exponent vector,
a comma, and the generator index (a bare ",j" over a zero-variable ring).
Round trips are bit-exact: serializing, parsing, and serializing again
yields identical bytes.
"""

import json

from .errors import ParseError, ValidationError
from .cartier import CartierModule
from .fields import Fq
from .gamma import GammaSheaf
from .poly import IdealSpec, PolyRing

__all__ = [
    "ring_to_json",
    "ring_from_json",
    "module_to_json",
    "module_from_json",
    "sheaf_to_json",
    "sheaf_from_json",
    "certificate_to_json",
    "element_to_string",
    "element_from_string",
    "fraction_to_string",
    "kappa_key_to_string",
    "kappa_key_from_string",
    "canonical_json",
    "load_document",
    "dump_document",
]


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def ring_to_json(ring):
    return {
        "p": ring.ctx.p,
        "e": ring.ctx.e,
        "vars": list(ring.vars),
    }


def _json_int(obj, key):
    """obj[key] if it is a JSON integer; a bool, float or string is not
    read as one (ValueError; KeyError when the key is missing)."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be a JSON integer, not {value!r}")
    return value


def ring_from_json(obj):
    try:
        p = _json_int(obj, "p")
        e = _json_int(obj, "e")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad ring description: {exc}") from None
    variables = _json_list(obj.get("vars", []), "'vars'")
    if not all(isinstance(v, str) for v in variables):
        raise ValidationError("'vars' must hold strings")
    return PolyRing(Fq(p, e), tuple(variables))


# ---------------------------------------------------------------------------
# table keys and elements
# ---------------------------------------------------------------------------


def kappa_key_to_string(key):
    a, j = key
    return " ".join(str(int(x)) for x in a) + "," + str(int(j))


def kappa_key_from_string(text):
    if "," not in text:
        raise ValidationError(f"bad table key {text!r} (missing comma)")
    left, _, right = text.rpartition(",")
    try:
        return (tuple(int(tok) for tok in left.split()), int(right))
    except ValueError:
        raise ValidationError(
            f"bad table key {text!r} (non-integer entry)"
        ) from None


def _vector_to_json(vec):
    return [str(f) for f in vec]


def _json_list(items, field):
    if not isinstance(items, list):
        raise ValidationError(f"{field} must be a JSON list")
    return items


def _vector_from_json(ring, items, rank, field):
    _json_list(items, field)
    if len(items) != rank:
        raise ValidationError(
            f"vector of length {len(items)}, expected {rank}"
        )
    return tuple(ring.parse(s) for s in items)


def element_to_string(vector, names):
    """Render a coordinate vector as a sum of poly*name terms."""
    parts = []
    for f, name in zip(vector, names):
        if f.is_zero():
            continue
        text = str(f)
        if text == "1":
            parts.append(name)
        elif "+" in text:
            parts.append(f"({text})*{name}")
        else:
            parts.append(f"{text}*{name}")
    return "+".join(parts) if parts else "0"


def element_from_string(ring, text, names):
    """Parse a sum of [poly*]name terms back into a coordinate vector."""
    text = text.strip()
    vec = [ring.zero for _ in names]
    if text == "0":
        return tuple(vec)
    index = {name: i for i, name in enumerate(names)}
    for chunk in _split_top_level(text):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in element string", text, 0)
        star = chunk.rfind("*")
        name = chunk[star + 1 :].strip() if star >= 0 else chunk
        if name in index:
            coeff_text = chunk[:star].strip() if star >= 0 else "1"
        else:
            # the whole trailing piece was part of the polynomial; the
            # generator must then be the final identifier after "*"
            raise ParseError(
                f"unknown generator {name!r} in element string", text, 0
            )
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        coeff = ring.parse(coeff_text)
        i = index[name]
        vec[i] = vec[i] + coeff
    return tuple(vec)


def _split_top_level(text):
    """Split on '+' outside parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", text, 0)
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parentheses", text, 0)
    parts.append("".join(cur))
    return parts


def fraction_to_string(localized, fraction, names):
    v, k = localized.normalize(fraction)
    body = element_to_string(v, names)
    if k == 0:
        return body
    g = str(localized.g)
    gpart = f"({g})" if "+" in g else g
    denom = f"{gpart}^{k}" if k > 1 else gpart
    if "+" in body:
        body = f"({body})"
    return f"{body}/{denom}"


# ---------------------------------------------------------------------------
# modules and sheaves
# ---------------------------------------------------------------------------


def _presentation_to_json(pres, rank_key, map_key, map_json):
    out = {
        "ring": ring_to_json(pres.ring),
        rank_key: pres.rank,
        "relations": [_vector_to_json(r) for r in pres.relations],
        map_key: map_json,
        "generator_names": list(pres.generator_names),
    }
    if pres.ideal is not None:
        out["ideal"] = [str(f) for f in pres.ideal.generators]
    return out


def _presentation_from_json(obj, rank_key):
    """The constructor arguments shared by module and sheaf documents."""
    ring = ring_from_json(obj.get("ring", {}))
    try:
        rank = _json_int(obj, rank_key)
    except (KeyError, TypeError, ValueError):
        raise ValidationError(f"missing or bad {rank_key!r}") from None
    rows = _json_list(obj.get("relations", []), "'relations'")
    relations = [
        _vector_from_json(ring, row, rank, f"'relations' entry {i}")
        for i, row in enumerate(rows)
    ]
    names = _json_list(obj.get("generator_names", []), "'generator_names'")
    if not all(isinstance(name, str) for name in names):
        raise ValidationError("'generator_names' must hold strings")
    ideal = None
    if "ideal" in obj:
        gens = _json_list(obj["ideal"], "'ideal'")
        ideal = IdealSpec(ring, [ring.parse(s) for s in gens])
    return {
        "ring": ring,
        "rank": rank,
        "relations": relations,
        "ideal": ideal,
        "generator_names": tuple(names) if names else None,
    }


def module_to_json(module):
    kappa = {
        kappa_key_to_string(k): _vector_to_json(v)
        for k, v in sorted(module.kappa_table.items())
    }
    return _presentation_to_json(module, "generators", "kappa", kappa)


def module_from_json(obj):
    fields = _presentation_from_json(obj, "generators")
    kappa = obj.get("kappa", {})
    if not isinstance(kappa, dict):
        raise ValidationError("'kappa' must be an object")
    table = {
        kappa_key_from_string(key): _vector_from_json(
            fields["ring"], items, fields["rank"], f"'kappa' entry {key!r}"
        )
        for key, items in kappa.items()
    }
    return CartierModule(kappa_table=table, **fields)


def sheaf_to_json(sheaf):
    gamma = [_vector_to_json(row) for row in sheaf.gamma_matrix]
    return _presentation_to_json(sheaf, "rank", "gamma", gamma)


def sheaf_from_json(obj):
    fields = _presentation_from_json(obj, "rank")
    gamma = obj.get("gamma")
    if not isinstance(gamma, list) or len(gamma) != fields["rank"]:
        raise ValidationError("'gamma' must be a rank x rank matrix")
    matrix = [
        _vector_from_json(fields["ring"], row, fields["rank"], f"'gamma' row {i}")
        for i, row in enumerate(gamma)
    ]
    return GammaSheaf(gamma_matrix=matrix, **fields)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certificate_to_json(cert):
    lat = cert.lattice
    module = cert.module
    base_names = cert.localized.base.generator_names or tuple(
        f"m{i}" for i in range(cert.localized.base.rank)
    )
    gen_rows = lat.generator_rows()
    return {
        "lattice": {
            "denominator_exponent": lat.k,
            "generators": [_vector_to_json(row) for row in gen_rows],
            "generator_display": [
                fraction_to_string(cert.localized, (row, lat.k), base_names)
                for row in gen_rows
            ],
        },
        "kappa": {
            kappa_key_to_string(k): _vector_to_json(v)
            for k, v in sorted(module.kappa_table.items())
        },
        "checks": dict(cert.checks),
        "indices": dict(cert.indices),
        "crystal_zero": cert.crystal_zero,
    }


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def canonical_json(obj):
    """Deterministic rendering used for reports and golden files."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_document(path):
    """Read a JSON document describing a module or a sheaf."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"malformed JSON in {path}: {exc}"
            ) from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top level must be an object")
    if "gamma" in obj:
        return sheaf_from_json(obj)
    return module_from_json(obj)


def dump_document(obj, path):
    if isinstance(obj, CartierModule):
        payload = module_to_json(obj)
    elif isinstance(obj, GammaSheaf):
        payload = sheaf_to_json(obj)
    else:
        payload = obj
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
