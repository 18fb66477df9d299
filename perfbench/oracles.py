"""Independent answer checks, run after the timed region.

``check`` returns {job id: reason} for every job whose answer fails its
oracle.  The oracles per workload:

* finite-hom: for modules over F_q the Hom dimension is recomputed from
  the generated tables with this file's own F_q arithmetic and mod-p
  elimination (Phi A = B sigma^{-1}(Phi) over F_p coordinates); pairs with
  at most 9 F_p cells over F_2 / F_3 are also counted by brute force, and
  the count must equal p^dimension_fp.
* chains: Cartier -> gamma -> Cartier returns the same table;
  sol_dimension is additive over direct_sum; is_nilpotent agrees with
  is_nilpotent_semilinear on to_semilinear(M) for finite-length modules;
  every minimal-extension certificate has all checks true.
* multivar: each reduced Groebner basis over a prime field equals
  sympy's (modulus=p, grevlex), membership answers agree with sympy's
  reduction, and the top-form operator matches its closed form.
* cli-batch: every exit code is documented (0/2/3/4) and every
  well-formed document exits 0.  An exception escaping ``cli.main`` is a
  failed job, counted in fail_frac by the runner, not an oracle verdict.
"""

import itertools
import json

import numpy as np

DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# F_q arithmetic and F_p elimination, independent of cartier_lab
# ---------------------------------------------------------------------------


class SmallField:
    """F_{p^e} on integer codes (base-p digits = power-basis coordinates)
    modulo the first monic irreducible of degree e in counting order, the
    convention the documents are written in.  Only e <= 3 is needed, where
    irreducible means root-free."""

    def __init__(self, p, e):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = None
        if e > 1:
            for code in range(p**e):
                cand = [(code // p**i) % p for i in range(e)] + [1]
                if all(self._eval(cand, x) for x in range(p)):
                    self.modulus = cand
                    break
        self.mul = [[self._mul(a, b) for b in range(self.q)]
                    for a in range(self.q)]
        self.add = [[self._add(a, b) for b in range(self.q)]
                    for a in range(self.q)]
        self.neg = [self._add(0, a, sign=-1) for a in range(self.q)]
        self.root = [self._pow(a, p ** (e - 1)) for a in range(self.q)]

    def _eval(self, poly, x):
        return sum(c * x**i for i, c in enumerate(poly)) % self.p

    def _digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _code(self, digits):
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def _add(self, a, b, sign=1):
        return self._code([x + sign * y for x, y in
                           zip(self._digits(a), self._digits(b))])

    def _mul(self, a, b):
        p, e = self.p, self.e
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(e + 1):
                    prod[k - e + i] -= c * self.modulus[i]
        return self._code(prod[:e])

    def _pow(self, a, n):
        out = 1
        for _ in range(n):
            out = self._mul(out, a)
        return out

    def parse(self, text):
        """Code of a coefficient string such as '2', '(t^2+2*t+1)'."""
        text = text.strip().strip("()")
        digits = [0] * self.e
        for term in text.split("+"):
            coeff, t, power = term.partition("t")
            coeff = coeff.rstrip("*")
            k = (int(power[1:]) if power else 1) if t else 0
            digits[k] += int(coeff) if coeff else 1
        return self._code(digits)


def rank_mod_p(mat, p):
    m = np.array(mat, dtype=np.int64) % p
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r, c]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, c]), p - 2, p)) % p
        others = m[:, c].copy()
        others[rank] = 0
        m = (m - np.outer(others, m[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def _kappa_matrix(doc, field):
    """A[i][j]: coefficient of e_i in kappa(e_j), as field codes."""
    rank = doc["generators"]
    return [[field.parse(doc["kappa"][f",{j}"][i]) for j in range(rank)]
            for i in range(rank)]


def hom_dimension(src, tgt):
    """F_p-dimension of {Phi : Phi A = B sigma^{-1}(Phi)} for modules over
    F_q with kappa(v) = A sigma^{-1}(v)."""
    ring = src["ring"]
    field = SmallField(ring["p"], ring["e"])
    a, b = _kappa_matrix(src, field), _kappa_matrix(tgt, field)
    rs, rt, e, p = len(a), len(b), field.e, field.p
    mul, add, neg, root = field.mul, field.add, field.neg, field.root
    columns = []
    for i in range(rt):
        for j in range(rs):
            for k in range(e):
                c = p**k  # the unit t^k in cell (i, j)
                image = [[0] * rs for _ in range(rt)]
                for jj in range(rs):  # (E_ij c) A: row i
                    image[i][jj] = add[image[i][jj]][mul[c][a[j][jj]]]
                rc = root[c]
                for ii in range(rt):  # - B sigma^{-1}(E_ij c): column j
                    image[ii][j] = add[image[ii][j]][neg[mul[b[ii][i]][rc]]]
                columns.append([
                    (cell // p**kk) % p
                    for row in image for cell in row for kk in range(e)
                ])
    n = rt * rs * e
    return n - rank_mod_p(np.array(columns).T, p)


def brute_force_count(src, tgt):
    """Number of F_p matrices Phi with Phi A = B Phi (prime field)."""
    p = src["ring"]["p"]
    field = SmallField(p, 1)
    a = np.array(_kappa_matrix(src, field))
    b = np.array(_kappa_matrix(tgt, field))
    rs, rt = len(a), len(b)
    phis = np.array(list(itertools.product(range(p), repeat=rs * rt)),
                    dtype=np.int64).reshape(-1, rt, rs)
    lhs = np.einsum("nij,jk->nik", phis, a) % p
    rhs = np.einsum("ij,njk->nik", b, phis) % p
    return int(np.all(lhs == rhs, axis=(1, 2)).sum())


def _check_hom(job, ans, docs):
    src, tgt = docs[job["src"]], docs[job["tgt"]]
    if src["ring"]["vars"]:
        return None  # torsion pairs over F_p[x]: digest only
    expected = hom_dimension(src, tgt)
    if ans["dim"] != expected:
        return f"Hom dimension {ans['dim']}, oracle {expected}"
    if ans["partial"]:
        return "Hom over F_q reported as partial"
    p, e = src["ring"]["p"], src["ring"]["e"]
    cells = src["generators"] * tgt["generators"] * e
    if p in (2, 3) and e == 1 and cells <= 9:
        count = brute_force_count(src, tgt)
        if count != p ** ans["dim"]:
            return f"brute force counts {count} morphisms, not {p}^{ans['dim']}"
    return None


# ---------------------------------------------------------------------------
# chains (uses the library's other side of each equivalence)
# ---------------------------------------------------------------------------


def _check_chains(job, ans, docs, prep):
    import cartier_lab as cl
    from cartier_lab.cartier import to_semilinear

    op = job["op"]
    mod = prep.docs.get(job.get("mod"))
    if op == "round_trip" and not ans["table_equal"]:
        return "Cartier -> gamma -> Cartier changed the table"
    if op == "sol":
        other = prep.docs[job["pair"]]
        total, _, _ = cl.direct_sum(mod, other)
        m = job["m"]
        lhs = cl.sol_dimension(total, m)
        rhs = [x + y for x, y in zip(ans["dims"], cl.sol_dimension(other, m))]
        if lhs != rhs:
            return f"sol not additive over direct_sum: {lhs} != {rhs}"
    if op == "is_nilpotent" and _finite_length(docs[job["mod"]]):
        nil, order, _ = cl.is_nilpotent_semilinear(to_semilinear(mod)[0])
        if (nil, order if nil else None) != (ans["nilpotent"], ans["order"]):
            return (f"is_nilpotent {ans['nilpotent']}/{ans['order']} but "
                    f"semilinear view says {nil}/{order}")
    if op == "ie" and not all(ans["checks"].values()):
        return f"certificate checks failed: {ans['checks']}"
    return None


def _finite_length(doc):
    return not doc["ring"]["vars"] or len(doc["relations"]) == doc["generators"]


# ---------------------------------------------------------------------------
# multivar (sympy)
# ---------------------------------------------------------------------------


def _sympy_terms(expr, gens, p):
    import sympy

    poly = sympy.Poly(expr, *gens, modulus=p)
    return {m: int(c) % p for m, c in poly.terms() if int(c) % p}


def _sympy_basis(strings, names, p):
    import sympy

    gens = sympy.symbols(names)
    exprs = [sympy.sympify(s.replace("^", "**")) for s in strings]
    basis = sympy.groebner(exprs, *gens, modulus=p, order="grevlex")
    out = []
    for g in basis.exprs:
        terms = _sympy_terms(g, gens, p)
        lead = max(terms, key=lambda m: _grevlex(m))
        inv = pow(terms[lead], p - 2, p)
        out.append({m: (c * inv) % p for m, c in terms.items()})
    return out, basis, gens


def _grevlex(m):
    return (sum(m),) + tuple(-x for x in reversed(m))


def _terms_of(text, names, p):
    import sympy

    gens = sympy.symbols(names)
    return _sympy_terms(sympy.sympify(text.replace("^", "**")), gens, p)


def _omega_image(text, names, p):
    """Closed form of the top-form operator on a prime field: x^E maps to
    x^((E+1)/p - 1) when every exponent is p-1 mod p, else to 0."""
    out = {}
    for m, c in _terms_of(text, names, p).items():
        if all(x % p == p - 1 for x in m):
            root = tuple((x + 1) // p - 1 for x in m)
            out[root] = (out.get(root, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def _check_multivar(job, ans, docs):
    op = job["op"]
    ring = job.get("ring") or docs[job["mod"]]["ring"]
    p, e, names = ring["p"], ring["e"], ring["vars"]
    if e != 1:
        return None  # sympy's modular arithmetic covers prime fields only
    if op in ("buchberger", "membership"):
        expected, basis, gens = _sympy_basis(job["gens"], names, p)
        got = [_terms_of(s, names, p) for s in ans["basis"]]
        key = lambda t: sorted(t.items())  # noqa: E731
        if sorted(map(key, got)) != sorted(map(key, expected)):
            return "reduced Groebner basis differs from sympy's"
        if op == "membership":
            import sympy

            tests = []
            for cofactors in job["cofactors"]:
                tests.append("+".join(f"({h})*({g})" for h, g in
                                      zip(cofactors, job["gens"])))
            tests += job["others"]
            for text, flag in zip(tests, ans["members"]):
                expr = sympy.sympify(text.replace("^", "**"))
                rem = basis.reduce(expr)[1]
                if (not _sympy_terms(rem, gens, p)) != flag:
                    return f"membership of {text} disagrees with sympy"
    if op == "kappa" and "quotient" not in job:
        for text, image in zip(job["elems"], ans["images"]):
            if _terms_of(image[0], names, p) != _omega_image(text, names, p):
                return f"omega operator on {text} differs from closed form"
    return None


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def _check_cli(job, ans):
    if ans["exit"] not in DOCUMENTED_EXIT_CODES:
        return f"undocumented exit code {ans['exit']}"
    if not job["malformed"] and ans["exit"] != 0:
        return f"well-formed document exited {ans['exit']}"
    return None


def check(workload, jobs, answers, documents, prep):
    """{job id: reason} for answers that fail their oracle."""
    failures = {}
    for job in jobs:
        ans = answers[job["id"]]
        if "error" in ans:
            continue  # an exception is a failed job, not a wrong answer
        if workload == "finite-hom":
            reason = _check_hom(job, ans, documents)
        elif workload == "chains":
            reason = _check_chains(job, ans, documents, prep)
        elif workload == "multivar":
            reason = _check_multivar(job, ans, documents)
        else:
            reason = _check_cli(job, ans)
        if reason:
            failures[job["id"]] = reason
    return failures


def load_documents(names, path_of):
    docs = {}
    for name in names:
        with open(path_of(name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs
