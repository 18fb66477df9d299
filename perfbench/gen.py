"""Seeded input generation for the four benchmark workloads.

Everything here is plain Python: the generator never imports cartier_lab,
so the program under test only ever sees the documents and job
descriptions produced below.  The same (workload, seed) pair always
yields byte-identical output (see ``canonical``).

Modules are generated valid by construction:

* over F_q (no variables) any operator table is valid; tables are block
  diagonal so that Hom spaces, chains and unit roots are non-trivial;
* over F_p[x] a torsion generator e_i carries the relation F e_i with
  F = (x^p + c)^k = (x + c)^(pk), and its table values are multiples of
  (x + c)^((p-1)k) supported on the torsion generators, so that
  kappa(F x^a e_i) = (x + c)^k kappa(x^a e_i) stays in the relation span.

Job lists are stratified: a fixed sequence of job classes with fixed
shapes (see ``shape_rng_for``), with the seed choosing the coefficients
and the job order.  That keeps the cost mix of every seed alike, so
run-to-run spread reflects the program, not the draw.
"""

import itertools
import json
import random

WORKLOADS = ("finite-hom", "chains", "multivar", "cli-batch")

# No workload generates the two hostile inputs recorded in workloads.json:
# p = 101 with e >= 6 stalls the modulus search for seconds, and a large
# prime with several variables makes pth_basis() exhaust memory.  Every
# document below uses p in {2, 3, 5} and e <= 3.


def rng_for(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def shape_rng_for(workload):
    """Seed-independent stream for the shapes of the inputs: block sizes
    and kinds, Groebner supports.  Each job class then costs about the same
    under every seed, while the seed still draws every coefficient."""
    return random.Random(f"perfbench:{workload}:shapes")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# coefficients and polynomials as document strings
# ---------------------------------------------------------------------------


def coeff_str(code, p, e):
    """String for the F_q element whose base-p digits are the power-basis
    coordinates (the library's ``from_int`` convention)."""
    digits = [(code // p**i) % p for i in range(e)]
    if all(d == 0 for d in digits[1:]):
        return str(digits[0])
    terms = []
    for i in range(e - 1, -1, -1):
        d = digits[i]
        if d == 0:
            continue
        if i == 0:
            terms.append(str(d))
        else:
            tp = "t" if i == 1 else f"t^{i}"
            terms.append(tp if d == 1 else f"{d}*{tp}")
    return "(" + "+".join(terms) + ")"


def poly_str(terms, names, p, e):
    """terms: {exponent tuple: coefficient code}; zero codes are dropped."""
    parts = []
    for exps in sorted(terms, key=lambda m: (-sum(m), m)):
        code = terms[exps]
        if code == 0:
            continue
        factors = [
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k
        ]
        c = coeff_str(code, p, e)
        if not factors:
            parts.append(c)
        elif c == "1":
            parts.append("*".join(factors))
        else:
            parts.append("*".join([c] + factors))
    return "+".join(parts) if parts else "0"


def random_terms(rng, nvars, q, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        while True:
            exps = tuple(rng.randrange(max_degree + 1) for _ in range(nvars))
            if sum(exps) <= max_degree:
                break
        terms[exps] = rng.randrange(1, q)
    return terms


# univariate F_p[x] helpers: dense coefficient lists, lowest degree first


def upoly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def upoly_pow(a, n, p):
    out = [1]
    for _ in range(n):
        out = upoly_mul(out, a, p)
    return out


def upoly_str(coeffs, p):
    return poly_str({(i,): c for i, c in enumerate(coeffs) if c}, ("x",), p, 1)


def ring_doc(p, e, names):
    return {"p": p, "e": e, "vars": list(names)}


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


DENSITY = 0.6  # share of nonzero cells in "random" and "nilpotent" blocks


def random_block(rng, size, q, kind):
    """A size x size matrix of coefficient codes; column j is kappa(e_j).

    The number of nonzero cells is fixed by the kind and size (Hom's cost
    follows it); the seed draws their positions and values."""
    if kind == "unit":
        return [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    block = [[0] * size for _ in range(size)]
    if kind == "random":
        cells = [(i, j) for i in range(size) for j in range(size)]
    else:  # nilpotent: strictly upper; invertible: upper, nonzero diagonal
        cells = [(i, j) for i in range(size) for j in range(size) if i < j]
        if kind == "invertible":
            for i in range(size):
                block[i][i] = rng.randrange(1, q)
    count = max(1, round(DENSITY * len(cells))) if cells else 0
    for i, j in rng.sample(cells, count):
        block[i][j] = rng.randrange(1, q)
    return block


def block_layout(shape_rng, rank, kinds=("random", "random", "nilpotent",
                                          "unit")):
    """Sizes and kinds of the diagonal blocks of a rank-``rank`` table."""
    layout = []
    left = rank
    while left:
        size = min(left, shape_rng.randrange(1, 4))
        layout.append((size, shape_rng.choice(kinds)))
        left -= size
    return layout


# sol's cost follows the rank of the unit root, which a "random" block
# would make a matter of chance; these kinds fix it by the layout
SOL_KINDS = ("invertible", "nilpotent", "unit")


def random_blocks(rng, layout, q):
    return [random_block(rng, size, q, kind) for size, kind in layout]


def finite_module_doc(p, e, blocks):
    """Block-diagonal operator table over F_q (no variables)."""
    rank = sum(len(b) for b in blocks)
    cols = []
    offset = 0
    for b in blocks:
        n = len(b)
        for j in range(n):
            col = [0] * rank
            for i in range(n):
                col[offset + i] = b[i][j]
            cols.append(col)
        offset += n
    kappa = {
        f",{j}": [coeff_str(c, p, e) for c in col] for j, col in enumerate(cols)
    }
    return {
        "ring": ring_doc(p, e, ()),
        "generators": rank,
        "relations": [],
        "kappa": kappa,
    }


def line_module_doc(rng, shape_rng, p, rank, torsion, c, k=1):
    """Module over F_p[x] whose first ``torsion`` generators are killed by
    F = (x + c)^(pk), c != 0; the rest are free.  Valid by construction.
    Which table entries are zero and how many terms the others have come
    from ``shape_rng``; exponents and coefficients from ``rng``."""
    big_f = upoly_pow([c, 0] + [0] * (p - 2) + [1], k, p)  # (x^p + c)^k
    mult = upoly_pow([c, 1], (p - 1) * k, p)  # (x + c)^((p-1)k)
    kappa = {}
    for a in range(p):
        for j in range(rank):
            vec = []
            for i in range(rank):
                if j < torsion:
                    if i < torsion:
                        h = [rng.randrange(1, p), rng.randrange(p)]
                        vec.append(upoly_str(upoly_mul(h, mult, p), p))
                    else:
                        vec.append("0")
                elif shape_rng.random() < 0.3:
                    vec.append("0")
                else:
                    nterms = shape_rng.randrange(1, 4)
                    vec.append(_element(rng, p, 1, ("x",), 2, nterms))
            kappa[f"{a},{j}"] = vec
    relations = []
    for i in range(torsion):
        row = ["0"] * rank
        row[i] = upoly_str(big_f, p)
        relations.append(row)
    return {
        "ring": ring_doc(p, 1, ("x",)),
        "generators": rank,
        "relations": relations,
        "kappa": kappa,
    }


def free_module_doc(rng, p, e, names, rank, max_degree, max_terms=3):
    q = p**e
    nvars = len(names)
    kappa = {}
    for a in itertools.product(range(p), repeat=nvars):
        key = " ".join(str(x) for x in a)
        for j in range(rank):
            kappa[f"{key},{j}"] = [
                poly_str(random_terms(rng, nvars, q, max_degree, max_terms),
                         names, p, e)
                for _ in range(rank)
            ]
    return {
        "ring": ring_doc(p, e, names),
        "generators": rank,
        "relations": [],
        "kappa": kappa,
    }


def omega_doc(p, e, names):
    nvars = len(names)
    top = tuple(p - 1 for _ in range(nvars))
    kappa = {}
    for a in itertools.product(range(p), repeat=nvars):
        key = " ".join(str(x) for x in a)
        kappa[f"{key},0"] = ["1" if a == top else "0"]
    return {
        "ring": ring_doc(p, e, names),
        "generators": 1,
        "relations": [],
        "kappa": kappa,
    }


def sheaf_doc(rng, p, rank, max_degree):
    return {
        "ring": ring_doc(p, 1, ("x",)),
        "rank": rank,
        "relations": [],
        "gamma": [
            [
                poly_str(random_terms(rng, 1, p, max_degree, 2), ("x",), p, 1)
                for _ in range(rank)
            ]
            for _ in range(rank)
        ],
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Docs:
    def __init__(self):
        self.docs = {}

    def add(self, doc):
        name = f"d{len(self.docs):03d}"
        self.docs[name] = doc
        return name


# Ranks 3-10 over F_2, F_3, F_4, F_8, F_9, weighted towards small ranks
# because Hom costs about r^4 (0.35 s at rank 8 over F_8, measured).
HOM_RANKS = {
    (2, 1): (3, 3, 4, 4, 5, 6, 7, 8, 10),
    (3, 1): (3, 3, 4, 4, 5, 6, 7, 8, 10),
    (2, 2): (3, 3, 4, 4, 5, 6, 7, 8, 10),
    (2, 3): (3, 3, 4, 4, 5, 5, 6, 7, 8),
    (3, 2): (3, 3, 4, 4, 5, 5, 6, 7, 8),
}
HOM_ROUNDS = 3
HOM_TORSION_PAIRS = 27  # torsion pairs over F_p[x], degree-capped search


def gen_finite_hom(rng, shape_rng):
    docs = _Docs()
    jobs = []
    for _ in range(HOM_ROUNDS):
        for (p, e), ranks in HOM_RANKS.items():
            for rank in ranks:
                q = p**e
                blocks = random_blocks(rng, block_layout(shape_rng, rank), q)
                # the target shares about 60% of the source's blocks, so
                # Hom is rarely zero
                other = [b for b in blocks if shape_rng.random() < 0.6]
                missing = rank - sum(len(b) for b in other)
                other += random_blocks(rng, block_layout(shape_rng, missing), q)
                shape_rng.shuffle(other)
                jobs.append({
                    "op": "hom",
                    "src": docs.add(finite_module_doc(p, e, blocks)),
                    "tgt": docs.add(finite_module_doc(p, e, other)),
                })
    for _ in range(HOM_TORSION_PAIRS):
        p = shape_rng.choice((2, 3))
        k = shape_rng.choice((1, 2)) if p == 2 else 1
        rank = shape_rng.choice((1, 2))
        c = shape_rng.randrange(1, p)
        src = line_module_doc(rng, shape_rng, p, 2, 2, c, k=k)
        tgt = line_module_doc(rng, shape_rng, p, rank, rank, c, k=k)
        jobs.append({"op": "hom", "src": docs.add(src), "tgt": docs.add(tgt)})
    return docs.docs, _interleave(jobs, rng)


CHAIN_OPS_FINITE = ("is_nilpotent", "stable_image", "max_nil", "sol",
                    "round_trip", "unit_root")
# minimal extensions form the tail; twice in the rotation so that the
# slowest tenth of the jobs lies inside that group for every seed
CHAIN_OPS_LINE = ("is_nilpotent", "ie", "stable_image", "round_trip",
                  "torsion", "ie", "localize", "unit_root")
CHAIN_FIELDS = ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2))
CHAIN_ROUNDS = 10


def _line_shape(i, r):
    """(p, rank, torsion generators) of the i-th F_p[x] module of round r;
    varied across rounds so that job costs spread out smoothly instead of
    repeating a few classes."""
    p = (2, 3)[(i + r) % 2]
    rank = 1 + (i + 2 * r) % 4
    return p, rank, (i + r) % (rank + 1)


def gen_chains(rng, shape_rng):
    """Every job gets its own module, so a seed's cost averages over all
    of them rather than hinging on a few."""
    docs = _Docs()
    jobs = []
    for r in range(CHAIN_ROUNDS):
        for i, (p, e) in enumerate(CHAIN_FIELDS * 2):
            rank = 4 + (3 * i + r) % 9  # 4..12, spread over the fields
            op = CHAIN_OPS_FINITE[(i + r) % len(CHAIN_OPS_FINITE)]
            kinds = SOL_KINDS if op == "sol" else ("random", "random",
                                                  "nilpotent", "unit")
            layout = block_layout(shape_rng, rank, kinds)
            name = docs.add(
                finite_module_doc(p, e, random_blocks(rng, layout, p**e)))
            job = {"op": op, "mod": name}
            if op == "sol":
                job["m"] = 1 + (i + r) % 4
                layout = block_layout(shape_rng, 4, SOL_KINDS)
                pair = random_blocks(rng, layout, p**e)
                job["pair"] = docs.add(finite_module_doc(p, e, pair))
            jobs.append(job)
        for i in range(10):
            p, rank, torsion = _line_shape(i, r)
            op = CHAIN_OPS_LINE[(i + 3 * r) % len(CHAIN_OPS_LINE)]
            if op == "unit_root" and torsion:
                # unit roots of torsion modules over F_p[x] take 2-105 s at
                # rank 3-4 (see workloads.json); they run on F_q modules
                op = "ie"
            c = shape_rng.randrange(1, p)
            doc = line_module_doc(rng, shape_rng, p, rank, torsion, c)
            job = {"op": op, "mod": docs.add(doc)}
            if op in ("torsion", "localize", "ie"):
                # g = x + c meets the torsion, g = x misses it
                job["g"] = shape_rng.choice(("x", f"x+{c}"))
            jobs.append(job)
    return docs.docs, _interleave(jobs, rng)


def _interleave(jobs, rng):
    """The jobs in a seed-drawn order."""
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


MULTIVAR_RINGS = ((2, 1, ("x", "y", "z")), (3, 1, ("x", "y", "z")),
                  (5, 1, ("x", "y", "z")), (2, 2, ("x", "y")))


def _mv_poly(rng, p, e, names, max_degree, max_terms=4):
    return poly_str(random_terms(rng, len(names), p**e, max_degree,
                                 max_terms), names, p, e)


def _element(rng, p, e, names, degree, nterms):
    """Exactly ``nterms`` distinct monomials of total degree <= degree."""
    terms = {}
    while len(terms) < nterms:
        exps = tuple(rng.randrange(degree + 1) for _ in names)
        if sum(exps) <= degree:
            terms[exps] = rng.randrange(1, p**e)
    return poly_str(terms, names, p, e)


def _linear_seq(rng, p, e, names, length):
    q = p**e
    seq = []
    for i in range(length):
        terms = {tuple(1 if k == i else 0 for k in range(len(names))): 1}
        for k in range(i + 1, len(names)):
            if rng.random() < 0.5:
                terms[tuple(1 if kk == k else 0
                            for kk in range(len(names)))] = rng.randrange(1, q)
        if rng.random() < 0.5:
            terms[(0,) * len(names)] = rng.randrange(1, q)
        seq.append(poly_str(terms, names, p, e))
    return seq


def _quadratic_seq(rng, p, e, names):
    """(x^2 + a*y + b, z^2 + c*x): regular (coprime leading terms), but
    outside the certifier's linear / principal cases in 3 variables."""
    q = p**e
    a, c = rng.randrange(1, q), rng.randrange(1, q)
    b = rng.randrange(q)
    f1 = {(2, 0, 0): 1, (0, 1, 0): a}
    if b:
        f1[(0, 0, 0)] = b
    f2 = {(0, 0, 2): 1, (1, 0, 0): c}
    return [poly_str(f1, names, p, e), poly_str(f2, names, p, e)]


def _principal_seq(rng, p, e, names):
    """A non-linear first element followed by a linear one; in two
    variables the certifier's principal-ideal gcd test applies."""
    q = p**e
    f1 = {(2, 0): 1, (0, 1): rng.randrange(1, q)}
    f2 = {(1, 0): 1, (0, 0): rng.randrange(1, q)}
    return [poly_str(f1, names, p, e), poly_str(f2, names, p, e)]


def _sequence(rng, p, e, names, kind):
    if kind == "linear":
        return _linear_seq(rng, p, e, names, rng.choice((1, 2)))
    if len(names) == 3:
        return _quadratic_seq(rng, p, e, names)
    return _principal_seq(rng, p, e, names)


# "kappa" applies the top-form operator to fixed-size elements; these
# jobs cost about the same in every ring and sit between the cheap
# regularity checks and the Groebner jobs, so the median job is one of
# them under every seed.  "kappa_quot" works modulo an ideal and joins
# the tail.
MULTIVAR_OPS = ("buchberger", "membership", "regular", "koszul", "kappa",
                "buchberger", "regular", "kappa", "kappa_quot")
MULTIVAR_ROUNDS = 26
# Buchberger's cost varies by orders of magnitude with the support of
# random generators (one random degree-4 ideal over F_5 took 2.45 s where
# others took milliseconds), so the supports come from the fixed shape
# stream and the seed chooses the coefficients; every ideal is kept.


def _support(shape_rng, nvars, degree, nterms):
    """A monomial of exact degree ``degree`` plus lower-degree monomials."""
    while True:
        lead = tuple(shape_rng.randrange(degree + 1) for _ in range(nvars))
        if sum(lead) == degree:
            break
    support = [lead]
    while len(support) < nterms:
        exps = tuple(shape_rng.randrange(degree) for _ in range(nvars))
        if sum(exps) < degree and exps not in support:
            support.append(exps)
    return support


def _ideal_generators(rng, shape_rng, p, e, names):
    """Three generators: degree 4 with 3 terms in two variables, degree 3
    with 4 terms in three (similar costs, so no ring dominates the tail)."""
    degree, nterms = (4, 3) if len(names) == 2 else (3, 4)
    gens = []
    for _ in range(3):
        support = _support(shape_rng, len(names), degree, nterms)
        terms = {exps: rng.randrange(1, p**e) for exps in support}
        gens.append(poly_str(terms, names, p, e))
    return gens


def gen_multivar(rng, shape_rng):
    docs = _Docs()
    jobs = []
    omegas = {}
    frees = {}
    for p, e, names in MULTIVAR_RINGS:
        key = (p, e)
        omegas[key] = docs.add(omega_doc(p, e, names))
        frees[key] = docs.add(free_module_doc(rng, p, e, names, 1, 2, 2))
    for r in range(MULTIVAR_ROUNDS):
        for i, op in enumerate(MULTIVAR_OPS):
            p, e, names = MULTIVAR_RINGS[(i + r) % len(MULTIVAR_RINGS)]
            key = (p, e)
            ring = ring_doc(p, e, names)
            if op in ("buchberger", "membership"):
                gens = _ideal_generators(rng, shape_rng, p, e, names)
                job = {"op": op, "ring": ring, "gens": gens}
                if op == "membership":
                    job["cofactors"] = [
                        [_mv_poly(rng, p, e, names, 2, 2) for _ in range(3)]
                        for _ in range(2)
                    ]
                    job["others"] = [_mv_poly(rng, p, e, names, 3)
                                     for _ in range(2)]
            elif op == "regular":
                kind = ("linear", "nonlinear")[(i + r) % 2]
                job = {"op": op, "ring": ring,
                       "seq": _sequence(rng, p, e, names, kind)}
            elif op == "koszul":
                kind = ("linear", "nonlinear")[r % 2]
                mod = omegas[key] if (i + r) % 2 else frees[key]
                job = {"op": op, "mod": mod,
                       "seq": _sequence(rng, p, e, names, kind)}
            elif op == "kappa":
                elems = [_element(rng, p, e, names, 30, 40) for _ in range(3)]
                job = {"op": "kappa", "mod": omegas[key], "elems": elems}
            else:
                elems = [_element(rng, p, e, names, 20, 20) for _ in range(3)]
                job = {"op": "kappa", "mod": frees[key], "elems": elems,
                       "quotient": _linear_seq(rng, p, e, names, 1)}
            jobs.append(job)
    return docs.docs, _interleave(jobs, rng)


CLI_OPERATIONS = (
    "validate", "kappa-apply", "nilpotency", "stable-image", "hom",
    "to-gamma", "from-gamma", "unit-root", "koszul-pullback", "seq-change",
    "gamma-z", "localize", "sol", "ie", "oracle",
)
MALFORMED_KINDS = ("bad_key", "relations_not_list", "wrong_length")
MALFORMED_EVERY = 5  # one document in five is malformed
CLI_ROUNDS = 21


def _malformed(rng, doc, kind):
    doc = json.loads(json.dumps(doc))
    if kind == "bad_key":
        key = next(iter(doc["kappa"]))
        doc["kappa"]["zz," + key.rpartition(",")[2]] = doc["kappa"].pop(key)
    elif kind == "relations_not_list":
        doc["relations"] = "abc"
    else:
        key = rng.choice(sorted(doc["kappa"]))
        doc["kappa"][key] = doc["kappa"][key] + ["1"]
    return doc


# operations that also take modules over F_q (no variables); sol needs one
CLI_FINITE_OPS = ("hom", "validate", "nilpotency", "to-gamma",
                  "stable-image", "unit-root")


def _cli_docs_for(rng, shape_rng, op, p):
    """Well-formed input documents (rank <= 2, degree <= 2) for op."""
    rank = shape_rng.choice((1, 2))
    if op == "sol" or (op in CLI_FINITE_OPS and shape_rng.random() < 0.5):
        e = shape_rng.choice((1, 2))
        docs = [
            finite_module_doc(
                p, e, random_blocks(rng, block_layout(shape_rng, rank), p**e))
            for _ in range(2 if op == "hom" else 1)
        ]
        return docs
    if op == "from-gamma":
        return [sheaf_doc(rng, p, rank, 2)]
    # unit roots of torsion modules over F_p[x] have a heavy tail (0.9 s at
    # rank 2 here, 105 s at rank 4; see workloads.json)
    torsion = 0 if op in ("koszul-pullback", "seq-change", "unit-root") \
        else shape_rng.randrange(rank + 1)
    c = shape_rng.randrange(1, p)
    docs = [line_module_doc(rng, shape_rng, p, rank, torsion, c)]
    if op == "hom":
        docs.append(line_module_doc(rng, shape_rng, p, rank,
                                    shape_rng.randrange(rank + 1), c))
    return docs


def _cli_flags(rng, shape_rng, op, p, doc):
    if op == "kappa-apply":
        names = doc.get("generator_names") or [
            f"e{i + 1}" for i in range(doc["generators"])
        ]
        if doc["generators"] == 1 and doc["ring"]["vars"] == ["x"]:
            names = ["dx"]
        vars_ = doc["ring"]["vars"]
        q = p ** doc["ring"]["e"]
        parts = []
        for name in names:
            coeff = poly_str(random_terms(rng, len(vars_), q, 2, 2), vars_,
                             p, doc["ring"]["e"])
            parts.append(f"({coeff})*{name}" if coeff != "0" else "")
        text = "+".join(x for x in parts if x) or "0"
        return ["--elem", text]
    c = shape_rng.randrange(p)
    g = "x" if c == 0 else f"x+{c}"
    if op == "koszul-pullback":
        return ["--seq", g]
    if op == "seq-change":
        k = rng.randrange(1, p)
        g2 = g if k == 1 else (f"{k}*x" if c == 0 else f"{k}*x+{(k * c) % p}")
        return ["--seq", g, "--seq2", g2]
    if op in ("gamma-z", "localize", "ie"):
        return ["--g", g]
    if op == "oracle":
        # the default truncation (degree 4) took up to 3.3 s and degree 2
        # up to 1.8 s on these documents, measured; degree 1 stays < 0.1 s
        return ["--g", g, "--truncate", "1"]
    if op == "sol":
        return ["--max-m", str(rng.randrange(1, 5))]
    return []


def gen_cli_batch(rng, shape_rng):
    docs = _Docs()
    jobs = []
    for r in range(CLI_ROUNDS):
        for i, op in enumerate(CLI_OPERATIONS):
            p = (2, 3)[(i + r) % 2]
            inputs = _cli_docs_for(rng, shape_rng, op, p)
            flags = _cli_flags(rng, shape_rng, op, p, inputs[0])
            malformed = (i + 3 * r) % MALFORMED_EVERY == 0
            if malformed:
                kind = MALFORMED_KINDS[(i + r) % len(MALFORMED_KINDS)]
                if "kappa" not in inputs[0]:
                    kind = "relations_not_list"
                inputs[0] = _malformed(rng, inputs[0], kind)
            names = [docs.add(d) for d in inputs]
            jobs.append({
                "op": op,
                "docs": names,
                "flags": flags,
                "malformed": malformed,
            })
    return docs.docs, _interleave(jobs, rng)


GENERATORS = {
    "finite-hom": gen_finite_hom,
    "chains": gen_chains,
    "multivar": gen_multivar,
    "cli-batch": gen_cli_batch,
}


def generate(workload, seed):
    """{"documents": {name: document}, "jobs": [job, ...]} for the seed."""
    docs, jobs = GENERATORS[workload](rng_for(workload, seed),
                                      shape_rng_for(workload))
    for i, job in enumerate(jobs):
        job["id"] = i
    return {"documents": docs, "jobs": jobs}
