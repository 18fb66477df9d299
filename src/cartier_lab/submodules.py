"""Submodule linear algebra over F_q and F_q[x].

Submodules of R^r are represented by generating sets of vectors (tuples of
polynomials).  Over the Euclidean domain F_q[x] -- and over F_q itself,
where division is exact -- every submodule has a unique Hermite normal
form: rows in echelon order by pivot column, monic pivots, and entries
above each pivot of strictly smaller degree.  HNF rows are the canonical
form used for equality tests, membership, and vector reduction.

Syzygies and linear solves are done by row-reducing value|tag stacks.
The torsion submodule of R^r / N is sat(N) / N, and the saturation
sat(N) is two syzygy computations: the vectors orthogonal to the
vectors orthogonal to N.

Rings with two or more variables are rejected: callers must arrange their
modules to be free in that case.

``Presentation`` is the module R^r / (relations) shared by Cartier modules
and gamma-sheaves: it owns validation of the presentation, the relation
HNF, element normal forms and the one form of a submodule -- the HNF of
its rows together with the relations (``span``), read back as the rows
that are nonzero in the module (``nonzero_rows``) -- and leaves the
structural map to its subclasses.
"""

from .errors import UnsupportedRingError, ValidationError
from .poly import Polynomial, _addmul, _axpy, _cmul

__all__ = [
    "Presentation",
    "scalar_rows",
    "zero_vector",
    "vec_add",
    "vec_scale",
    "hnf_rows",
    "hnf_extend",
    "reduce_vector",
    "in_span",
    "span_equal",
    "syzygy_generators",
    "solve_combination",
    "solve_combinations",
    "saturation",
]


def _check_ring(ring):
    if ring.nvars > 1:
        raise UnsupportedRingError(
            "submodule computations need F_q or F_q[x] (one variable at most)"
        )


def zero_vector(ring, r):
    return tuple(ring.zero for _ in range(r))


def scalar_rows(ring, r, f):
    """The vectors f e_1, ..., f e_r of R^r."""
    zero = ring.zero
    return [tuple(f if j == i else zero for j in range(r)) for i in range(r)]


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(u, f):
    return tuple(f * a for a in u)


def _leftmost(v):
    for i, a in enumerate(v):
        if not a.is_zero():
            return i
    return None


def _divmod1(a, d):
    """(q, r) with a = q d + r, deg r < deg d (exact over constants): long
    division on the exponent keys, in place on one dict of codes."""
    a._check(d)
    if not d.terms:
        raise ValidationError("division by the zero polynomial")
    ring = a.ring
    ctx = ring.ctx
    top = max(d.terms)
    if not a.terms or max(a.terms) < top:
        return ring.zero, a
    factor = ctx._neg[ctx._inv[d.terms[top]]]  # -1 / lc(d)
    quot, rem = {}, dict(a.terms)
    while rem:
        m = max(rem)
        if m < top:
            break
        c = _cmul(ctx, rem[m], factor)
        quot[m - top] = ctx._neg[c]
        _axpy(ctx, rem, d.terms, m - top, c)
    return Polynomial(ring, quot), Polynomial(ring, rem)


def _sub_multiple(u, v, q, start=0):
    """u - q v for a nonzero q, when v vanishes before coordinate
    ``start``: -q v_i is added into a copy of the terms of each u_i from
    there on."""
    ring = q.ring
    neg = ring.ctx._neg
    mq = {k: neg[c] for k, c in q.terms.items()}
    out = list(u)
    for i in range(start, len(u)):
        if v[i].terms:
            acc = dict(u[i].terms)
            _addmul(ring, acc, v[i].terms, mq)
            out[i] = Polynomial(ring, acc)
    return tuple(out)


def hnf_rows(vectors, r, ring):
    """Hermite normal form of the span of ``vectors`` inside R^r: the
    untagged echelon, with monic pivots and the entries above each pivot
    reduced."""
    pivots, _ = _tracked_echelon((), vectors, r, ring)
    result, cols = [], []
    for val, _ in pivots:
        col = _leftmost(val)
        lead = val[col].leading()[1]
        if lead != ring.ctx.one:
            val = vec_scale(val, ring.scalar(lead.inv()))
        result.append(val)
        cols.append(col)
    # back-reduce entries above pivots; rows below a pivot vanish there
    for k, col in enumerate(cols):
        d = result[k][col]
        for j in range(k):
            if not result[j][col].is_zero():
                q, _ = _divmod1(result[j][col], d)
                if not q.is_zero():
                    result[j] = _sub_multiple(result[j], result[k], q, col)
    return tuple(result)


def hnf_extend(hnf, rows, r, ring):
    """Hermite normal form of span(hnf) + span(rows), for ``hnf`` already
    in Hermite normal form.  The new rows are reduced by ``hnf``; when none
    survives, ``hnf`` is the answer, else the echelon runs on ``hnf`` plus
    the survivors (the HNF of a span is unique, so either way the result
    is the HNF of the whole)."""
    _check_ring(ring)
    survivors = []
    for v in rows:
        if len(v) != r:
            raise ValidationError("vector length does not match module rank")
        v = reduce_vector(v, hnf, ring)
        if any(not a.is_zero() for a in v):
            survivors.append(v)
    if not survivors:
        return tuple(hnf)
    return hnf_rows(list(hnf) + survivors, r, ring)


def reduce_vector(v, hnf, ring):
    """Canonical representative of v modulo the span given by HNF rows."""
    v = tuple(v)
    for row in hnf:
        col = _leftmost(row)
        if not v[col].is_zero():
            q, _ = _divmod1(v[col], row[col])
            if not q.is_zero():
                v = _sub_multiple(v, row, q, col)
    return v


def in_span(v, hnf, ring):
    return all(a.is_zero() for a in reduce_vector(v, hnf, ring))


def span_equal(hnf_a, hnf_b):
    return tuple(hnf_a) == tuple(hnf_b)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


class Presentation:
    """M = R^r / (relations) over R = F_q[x_1..x_n], optionally modulo an
    ideal, with named generators.

    Over F_q and F_q[x] elements have canonical normal forms modulo the
    relation HNF (computed once, on first use or during validation).
    Over multivariate rings only free modules are supported, possibly
    modulo an ideal, and normal forms reduce each coordinate modulo it.
    Subclasses add the structural map and name its attribute in ``_MAP``.
    """

    __slots__ = ("ring", "rank", "relations", "ideal", "generator_names",
                 "_ideal_rows", "_rel_hnf")

    def __init__(self, ring, rank, relations, ideal, generator_names):
        self.ring = ring
        self.rank = int(rank)
        self.relations = tuple(tuple(v) for v in relations)
        self.ideal = ideal
        self.generator_names = tuple(generator_names)
        self._ideal_rows = None
        self._rel_hnf = None

    # -- relations ---------------------------------------------------------

    def _ideal_multiples(self):
        """h e_i for each Groebner basis element h of the ideal and each i."""
        if self._ideal_rows is None:
            rows = []
            if self.ideal is not None:
                for h in self.ideal.groebner:
                    rows.extend(scalar_rows(self.ring, self.rank, h))
            self._ideal_rows = tuple(rows)
        return self._ideal_rows

    def effective_relations(self):
        """Relation vectors together with ideal multiples of each generator."""
        return self.relations + self._ideal_multiples()

    def twisted_relations(self, k=1):
        """Relation rows of the k-fold Frobenius pullback: entrywise
        p^k-th powers of the relation rows, plus untouched ideal rows."""
        q = self.ring.ctx.p ** k
        twisted = tuple(tuple(f**q for f in rho) for rho in self.relations)
        return twisted + self._ideal_multiples()

    def relation_hnf(self):
        if self._rel_hnf is None:
            self._rel_hnf = hnf_rows(
                self.effective_relations(), self.rank, self.ring
            )
        return self._rel_hnf

    # -- submodules --------------------------------------------------------

    def span(self, rows):
        """The submodule generated by ``rows``, as the HNF of its preimage
        in R^r: the rows together with the relations."""
        return hnf_extend(self.relation_hnf(), rows, self.rank, self.ring)

    def nonzero_rows(self, rows):
        """The rows that are nonzero in the module, in order; on a span
        they generate its submodule."""
        rel = self.relation_hnf()
        return [row for row in rows if not in_span(row, rel, self.ring)]

    # -- validation --------------------------------------------------------

    def _validate(self):
        """Shape checks of the presentation; subclasses extend this with
        the checks of their structural map."""
        ring = self.ring
        if self.rank < 0:
            raise ValidationError("rank must be nonnegative")
        if len(self.generator_names) != self.rank:
            raise ValidationError("generator_names length must match rank")
        if len(set(self.generator_names)) != self.rank:
            raise ValidationError("generator names must be distinct")
        if self.ideal is not None:
            if ring.nvars == 0:
                raise ValidationError("constant rings take no ideal quotient")
            if self.ideal.ring is not ring:
                raise ValidationError("ideal ring differs from module ring")
        if ring.nvars >= 2 and self.relations:
            raise UnsupportedRingError(
                "relations over multivariate rings are not supported; "
                "only free modules (possibly modulo an ideal) are"
            )
        for rho in self.relations:
            self._check_vector(rho, "relation")

    def _check_well_defined(self, name, images, span_rows=None):
        """Raise unless the structural map ``name`` preserves the relations.

        ``images`` yields (row, image) pairs for the rows the check needs;
        each image must lie in the span of ``span_rows`` (default: the
        relations themselves).  Over a multivariate ring, where the only
        relations are ideal rows, each image coordinate must lie in the
        ideal instead."""
        if not self.effective_relations():
            return
        ring = self.ring
        if ring.nvars <= 1:
            if span_rows is None:
                span = self.relation_hnf()
            else:
                span = hnf_rows(span_rows, self.rank, ring)
        for row, img in images:
            if ring.nvars <= 1:
                ok = in_span(img, span, ring)
            else:
                ok = all(self.ideal.contains(f) for f in img)
            if not ok:
                raise ValidationError(
                    f"{name} does not preserve the relation submodule "
                    f"(at {tuple(str(c) for c in row)})"
                )

    # -- elements ----------------------------------------------------------

    def _check_vector(self, v, what):
        v = tuple(v)
        if len(v) != self.rank:
            raise ValidationError(
                f"{what} has {len(v)} coordinates, module has rank {self.rank}"
            )
        ring = self.ring
        for f in v:
            if f.ring is not ring:
                raise ValidationError(f"{what} coordinate over wrong ring")
        return v

    def check_element(self, v):
        return self._check_vector(v, "element")

    def normal_form(self, v):
        v = self.check_element(v)
        if self.ring.nvars <= 1:
            return reduce_vector(v, self.relation_hnf(), self.ring)
        if self.ideal is not None:
            return tuple(self.ideal.normal_form(f) for f in v)
        return v

    def is_zero_element(self, v):
        return all(f.is_zero() for f in self.normal_form(v))

    def elements_equal(self, u, v):
        return self.normal_form(u) == self.normal_form(v)

    def random_element(self, rng, max_degree=3):
        return tuple(
            self.ring.random_poly(rng, max_degree=max_degree)
            for _ in range(self.rank)
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.rank == other.rank
            and self.ideal == other.ideal
            and self.relations == other.relations
            and getattr(self, self._MAP) == getattr(other, self._MAP)
        )

    def __repr__(self):
        base = f"F_{self.ring.ctx.q}[{', '.join(self.ring.vars)}]"
        if self.ideal is not None:
            base += "/I"
        return (
            f"{type(self).__name__}(rank {self.rank} over {base}, "
            f"{len(self.relations)} relations)"
        )


def _tracked_echelon(gens, rels, r, ring):
    """Echelonize rows [gens; rels] over value columns by Euclid on each
    column, tracking how each surviving row is expressed in the generators
    (unit tags for gens, zero tags for rels; with no gens the tags are
    empty and this is the loop of ``hnf_rows``).  Returns (pivot_rows,
    zero_tag_rows): pivot rows are (value, tag) pairs, one per pivot column
    in column order; zero_tag_rows collect the nonzero tags of rows whose
    value part vanished."""
    _check_ring(ring)
    k = len(gens)

    def tag_unit(i):
        return tuple(ring.one if j == i else ring.zero for j in range(k))

    work = []
    for i, g in enumerate(gens):
        work.append((tuple(g), tag_unit(i)))
    for rel in rels:
        work.append((tuple(rel), tuple(ring.zero for _ in range(k))))
    for val, _ in work:
        if len(val) != r:
            raise ValidationError("vector length does not match module rank")

    result = []
    zero_tags = []
    for col in range(r):
        active = [w for w in work if not w[0][col].is_zero()]
        rest = [w for w in work if w[0][col].is_zero()]
        if not active:
            work = rest
            continue
        while len(active) > 1:
            active.sort(key=lambda w: w[0][col].degree_in(0) if ring.nvars else 0)
            piv = active[0]
            nxt = []
            for w in active[1:]:
                q, _ = _divmod1(w[0][col], piv[0][col])
                val = _sub_multiple(w[0], piv[0], q, col)
                tag = _sub_multiple(w[1], piv[1], q)
                if val[col].is_zero():
                    if any(not a.is_zero() for a in val):
                        rest.append((val, tag))
                    elif any(not a.is_zero() for a in tag):
                        zero_tags.append(tag)
                else:
                    nxt.append((val, tag))
            active = [piv] + nxt
        result.append(active[0])
        work = rest
    for val, tag in work:
        if all(a.is_zero() for a in val) and any(not a.is_zero() for a in tag):
            zero_tags.append(tag)
    return result, zero_tags


def syzygy_generators(gens, rels, r, ring):
    """Generators of {c in R^k : sum c_i gens_i lies in the span of rels}."""
    if not gens:
        return []
    _, zero_tags = _tracked_echelon(gens, rels, r, ring)
    return list(hnf_rows(zero_tags, len(gens), ring))


def solve_combinations(gens, rels, targets, r, ring):
    """For each target, coefficients c with sum c_i gens_i = target modulo
    the span of rels, or None when no solution exists; one echelon serves
    every target."""
    if not targets:
        return []
    pivots, _ = _tracked_echelon(gens, rels, r, ring)
    # reducing (target | 0) by the rows (value | tag) leaves (0 | -c)
    rows = [val + tag for val, tag in pivots]
    pad = zero_vector(ring, len(gens))
    out = []
    for target in targets:
        reduced = reduce_vector(tuple(target) + pad, rows, ring)
        if any(not a.is_zero() for a in reduced[:r]):
            out.append(None)
        else:
            out.append([-c for c in reduced[r:]])
    return out


def solve_combination(gens, rels, target, r, ring):
    """Coefficients c with sum c_i gens_i = target modulo the span of rels,
    or None when no solution exists."""
    return solve_combinations(gens, rels, [target], r, ring)[0]


def saturation(rels, r, ring):
    """Hermite normal form of the saturation of N = span(rels) in R^r: the
    vectors v with f v in N for some nonzero f, whose classes form the
    torsion submodule of R^r / N.  Over a principal ideal domain it is
    (N^perp)^perp, where N^perp, the vectors orthogonal to every row, is
    the syzygy module of the r coordinate columns of the rows (Newman,
    Integral Matrices, 1972)."""

    def perp(rows):
        columns = [tuple(row[j] for row in rows) for j in range(r)]
        return syzygy_generators(columns, [], len(rows), ring)

    return tuple(perp(perp(rels)))
