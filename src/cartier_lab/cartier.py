"""Modules with a p^{-1}-linear structural operator.

A CartierModule is a finitely presented module M = R^r / (relations) over
R = F_q[x_1..x_n] (optionally modulo an ideal), together with an additive
operator kappa satisfying kappa(f^p m) = f kappa(m).  Such an operator is
determined by its values on x^a g_j for exponent vectors a in [0,p)^n and
generators g_j: for f = sum_a h_a^p x^a,

    kappa(f g_j) = sum_a h_a kappa(x^a g_j).

The kappa_table stores exactly these values, so evaluation is Frobenius
decomposition followed by table lookups.

Submodule-level computations (image chains, kernels, the maximal nilpotent
submodule, Hom spaces) need canonical normal forms and therefore require
the ring to be F_q or F_q[x]; multivariate rings support only free modules
and element-level evaluation.
"""

import itertools
import math

import numpy as np

from . import kernels
from .errors import (
    CapExceeded,
    InvariantViolation,
    UnsupportedRingError,
    ValidationError,
    stabilize,
)
from .fields import SemilinearMap, P_INV_LINEAR, _mat_pow
from .poly import Polynomial, PolyRing, _addmul, frobenius_decompose
from .submodules import (
    Presentation,
    saturation,
    scalar_rows,
    solve_combinations,
    span_equal,
    syzygy_generators,
    vec_add,
    vec_scale,
    zero_vector,
)

__all__ = [
    "CartierModule",
    "CartierMorphism",
    "image_chain",
    "stable_image",
    "is_nilpotent",
    "max_nilpotent_submodule",
    "kernel",
    "cokernel",
    "image",
    "direct_sum",
    "submodule_module",
    "torsion_part",
    "quotient_module",
    "hom_cartier",
    "HomResult",
    "HOM_CELL_CAP",
    "FiniteModel",
    "to_semilinear",
    "omega_module",
    "point_module",
    "jordan_block_module",
]


def _check_table_keys(table, ring, rank):
    """The keys must be exactly [0,p)^n x [0,rank); checked by shape and
    count, without listing the p^n exponent vectors."""
    p, n = ring.ctx.p, ring.nvars
    extra = sorted(
        (a, j) for a, j in table
        if not (len(a) == n and all(0 <= x < p for x in a) and 0 <= j < rank)
    )
    if extra or len(table) != p**n * rank:
        expected = (
            (a, j)
            for a in itertools.product(range(p), repeat=n)
            for j in range(rank)
        )
        missing = list(
            itertools.islice((k for k in expected if k not in table), 3)
        )
        raise ValidationError(
            f"kappa table keys mismatch (missing {missing}, "
            f"extra {extra[:3]})"
        )


def _default_names(rank, nvars):
    if rank == 1 and nvars == 1:
        return ("dx",)
    return tuple(f"e{i + 1}" for i in range(rank))


class CartierModule(Presentation):
    """Finitely presented module with a p^{-1}-linear operator table.

    Parameters
    ----------
    ring : PolyRing
    rank : number of generators of the presentation
    kappa_table : dict mapping (a, j) -> vector, where a is an exponent
        tuple in [0,p)^n, j a generator index, and the vector (length
        ``rank``) expresses kappa(x^a g_j) in the generators.
    relations : iterable of vectors spanning the relation submodule
    ideal : optional IdealSpec; the module lives over ring/ideal
    generator_names : display names; defaults to e1.. (or dx for a free
        rank-1 module over one variable)
    """

    __slots__ = ("kappa_table",)
    _MAP = "kappa_table"

    def __init__(
        self,
        ring,
        rank,
        kappa_table,
        relations=(),
        ideal=None,
        generator_names=None,
        validate=True,
    ):
        self.kappa_table = {
            (tuple(a), int(j)): tuple(v) for (a, j), v in kappa_table.items()
        }
        if generator_names is None:
            # the default names take O(rank) memory: check the table first
            if validate and int(rank) > 0:
                _check_table_keys(self.kappa_table, ring, int(rank))
            generator_names = _default_names(int(rank), ring.nvars)
        super().__init__(ring, rank, relations, ideal, generator_names)
        if validate:
            self._validate()

    def _validate(self):
        super()._validate()
        ring, rank, table = self.ring, self.rank, self.kappa_table
        _check_table_keys(table, ring, rank)
        for key, vec in table.items():
            self._check_vector(vec, f"kappa value at {key}")
        # kappa must map the relation submodule into itself; it is enough
        # to check kappa(x^a rho) for relation generators rho and all a
        def images():
            shifts = [ring.monomial(a) for a in ring.pth_basis()]
            for rho in self.effective_relations():
                for xa in shifts:
                    row = vec_scale(rho, xa)
                    yield row, self._apply_raw(row)

        self._check_well_defined("kappa", images())

    # -- kappa -------------------------------------------------------------

    def _apply_raw(self, v):
        """kappa(sum_j f_j g_j) = sum_(j, a) g_(j,a) kappa(x^a g_j), summed
        in place into one term dict per output coordinate."""
        ring = self.ring
        out = [{} for _ in range(self.rank)]
        for j, f in enumerate(v):
            if f.is_zero():
                continue
            for a, g in frobenius_decompose(f).items():
                for acc, h in zip(out, self.kappa_table[(a, j)]):
                    if h.terms:
                        _addmul(ring, acc, g.terms, h.terms)
        return tuple(Polynomial(ring, acc) for acc in out)

    def apply_kappa(self, v):
        return self.normal_form(self._apply_raw(self.check_element(v)))

    def kappa_images(self, rows):
        """{(a, j): kappa(x^a rows[j])} for each a of the p-th power basis,
        keys in table order (a slowest), as raw operator images: not
        normal-formed by the relations."""
        ring, out = self.ring, {}
        for a in ring.pth_basis():
            xa = ring.monomial(a)
            for j, row in enumerate(rows):
                out[a, j] = self._apply_raw(vec_scale(row, xa))
        return out

    def kappa_power(self, n, v):
        if n < 0:
            raise ValidationError("kappa_power needs n >= 0")
        v = self.check_element(v)
        for _ in range(n):
            v = self._apply_raw(v)
        return self.normal_form(v)

    def semilinearity_check(self, rng, trials=20, max_degree=3):
        """Spot-check kappa(f^p v) == f kappa(v) on random pairs."""
        for _ in range(trials):
            f = self.ring.random_poly(rng, max_degree=max_degree)
            v = self.random_element(rng, max_degree=max_degree)
            lhs = self.apply_kappa(vec_scale(v, f.pth_power()))
            rhs = self.normal_form(vec_scale(self._apply_raw(v), f))
            if lhs != rhs:
                return False
        return True


class CartierMorphism:
    """R-linear map between Cartier modules commuting with the operators.

    ``images[j]`` is the image of the j-th source generator, as a vector
    over the target presentation.  Validation checks that relations map to
    zero and that the commuting square holds on every table key; both
    checks extend to all elements by additivity and semilinearity; with
    ``validate=False`` (library-built maps) no check runs, shapes included.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images, validate=True):
        self.source = source
        self.target = target
        self.images = tuple(tuple(v) for v in images)
        if validate:
            self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        for v in self.images:
            tgt.check_element(v)
        if len(self.images) != src.rank:
            raise ValidationError("need one image per source generator")
        if src.ring is not tgt.ring:
            raise ValidationError("morphism endpoints over different rings")
        if (src.ideal is None) != (tgt.ideal is None) or (
            src.ideal is not None and src.ideal != tgt.ideal
        ):
            raise ValidationError("morphism endpoints over different quotients")
        for rho in src.effective_relations():
            if not tgt.is_zero_element(self._push(rho)):
                raise ValidationError(
                    "not well defined: a source relation has nonzero image"
                )
        for (a, j), rhs in tgt.kappa_images(self.images).items():
            lhs = self._push(src.kappa_table[a, j])
            if not tgt.elements_equal(lhs, rhs):
                raise ValidationError(
                    f"does not commute with kappa at shift {a}, generator {j}"
                )

    def _push(self, v):
        out = zero_vector(self.target.ring, self.target.rank)
        for j, f in enumerate(v):
            if not f.is_zero():
                out = vec_add(out, vec_scale(self.images[j], f))
        return out

    def apply(self, v):
        return self.target.normal_form(self._push(self.source.check_element(v)))

    def is_zero(self):
        return all(self.target.is_zero_element(im) for im in self.images)

    def compose(self, other):
        """self after other (other: A -> B, self: B -> C)."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition endpoints do not match")
        images = tuple(self.apply(im) for im in other.images)
        return CartierMorphism(other.source, self.target, images, validate=False)

    @staticmethod
    def identity(module):
        images = scalar_rows(module.ring, module.rank, module.ring.one)
        return CartierMorphism(module, module, images, validate=False)

    def __repr__(self):
        return f"CartierMorphism({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# module-level wrappers
# ---------------------------------------------------------------------------


def _require_pid(module, what):
    if module.ring.nvars > 1:
        raise UnsupportedRingError(
            f"{what} needs the ring to be F_q or F_q[x]"
        )


def image_chain(module, cap=None):
    """Descending chain of submodule spans M >= R kappa(M) >= ... until two
    consecutive members agree.  Members are HNF row tuples of preimages in
    R^r (each containing the relation span)."""
    _require_pid(module, "image_chain")
    ring = module.ring

    def image(chain):
        return module.span(module.kappa_images(chain[-1]).values())

    full = module.span(scalar_rows(ring, module.rank, ring.one))
    return stabilize(full, image, "image chain", cap)


def submodule_module(module, gens):
    """Present the submodule of ``module`` generated by ``gens`` as a
    CartierModule, with the inclusion morphism.  The span must be stable
    under every kappa(x^a .) -- callers use this for kernels, torsion and
    stable images, which are stable by construction.  The solve that fills
    the table certifies it, so it is not validated again: the relations
    are the syzygies c of the gens g_j, and kappa(x^a sum_j c_j g_j) lies in
    kappa(N), inside N, so the table maps syzygies to syzygies.  The table
    is solved from normal-formed images, so it depends on the module and
    the gens, not on the representatives the parent table holds."""
    _require_pid(module, "submodule presentation")
    ring = module.ring
    gens = [module.check_element(g) for g in gens]
    rels = module.effective_relations()
    sub_rels = syzygy_generators(gens, rels, module.rank, ring)
    images = module.kappa_images(gens)
    targets = [module.normal_form(w) for w in images.values()]
    solutions = solve_combinations(gens, rels, targets, module.rank, ring)
    if None in solutions:
        raise InvariantViolation(
            "submodule is not stable under the structural operator"
        )
    table = {key: tuple(c) for key, c in zip(images, solutions)}
    sub = CartierModule(
        ring,
        len(gens),
        table,
        relations=sub_rels,
        ideal=module.ideal,
        generator_names=tuple(f"s{i + 1}" for i in range(len(gens))),
        validate=False,
    )
    incl = CartierMorphism(sub, module, gens, validate=False)
    return sub, incl


def torsion_part(module):
    """The torsion submodule sat(N) / N of M = R^r / N, which the operator
    maps into itself, with its inclusion; it has finite length."""
    sat = saturation(module.effective_relations(), module.rank, module.ring)
    return submodule_module(module, module.nonzero_rows(sat))


def quotient_module(module, gens):
    """Quotient of ``module`` by the span of ``gens``, with projection."""
    gens = [module.check_element(g) for g in gens]
    quot = CartierModule(
        module.ring,
        module.rank,
        module.kappa_table,
        relations=tuple(module.relations) + tuple(tuple(g) for g in gens),
        ideal=module.ideal,
        generator_names=module.generator_names,
    )
    proj = CartierMorphism(
        module, quot, CartierMorphism.identity(module).images, validate=False
    )
    return quot, proj


def stable_image(module, cap=None):
    """The stable member of the image chain, as a submodule with induced
    operator.  Returns (submodule, inclusion, chain)."""
    chain = image_chain(module, cap=cap)
    sub, incl = submodule_module(module, module.nonzero_rows(chain[-1]))
    return sub, incl, chain


def is_nilpotent(module, cap=None):
    """(nilpotent?, order).  Order is the first k with kappa^k(M) = 0: the
    stable span is the relation span itself, as HNFs are unique."""
    chain = image_chain(module, cap=cap)
    if not span_equal(chain[-1], module.relation_hnf()):
        return False, None
    return True, len(chain) - 1


def kernel(phi):
    """Kernel of a morphism as a Cartier submodule of the source."""
    _require_pid(phi.source, "kernel")
    src, tgt = phi.source, phi.target
    gens = syzygy_generators(
        list(phi.images), tgt.effective_relations(), tgt.rank, src.ring
    )
    # rows are coefficient vectors in the source generators; drop those that
    # are already zero in the source
    return submodule_module(src, src.nonzero_rows(gens))


def cokernel(phi):
    """Cokernel: the target with the image span added to its relations."""
    tgt = phi.target
    return quotient_module(
        tgt, [im for im in phi.images if not tgt.is_zero_element(im)]
    )


def image(phi):
    """Image of a morphism as a Cartier submodule of the target, presented
    on the generator images (index-aligned with the source generators)."""
    return submodule_module(phi.target, list(phi.images))


def direct_sum(m1, m2):
    """Block direct sum; returns (sum, include_left, include_right)."""
    if m1.ring is not m2.ring or m1.ideal != m2.ideal:
        raise ValidationError("direct sum needs a common ring and quotient")
    ring = m1.ring
    r1, r2 = m1.rank, m2.rank
    rank = r1 + r2

    def left(v):
        return tuple(v) + zero_vector(ring, r2)

    def right(v):
        return zero_vector(ring, r1) + tuple(v)

    relations = [left(rho) for rho in m1.relations] + [
        right(rho) for rho in m2.relations
    ]
    table = {key: left(v) for key, v in m1.kappa_table.items()}
    table.update(
        ((a, r1 + j), right(v)) for (a, j), v in m2.kappa_table.items()
    )
    names = tuple(f"l_{n}" for n in m1.generator_names) + tuple(
        f"r_{n}" for n in m2.generator_names
    )
    total = CartierModule(
        ring, rank, table, relations=relations, ideal=m1.ideal,
        generator_names=names,
    )
    inc1 = CartierMorphism(
        m1, total, [left(v) for v in CartierMorphism.identity(m1).images],
        validate=False,
    )
    inc2 = CartierMorphism(
        m2, total, [right(v) for v in CartierMorphism.identity(m2).images],
        validate=False,
    )
    return total, inc1, inc2


# ---------------------------------------------------------------------------
# finite-length models: F_q bases and semilinear matrices
# ---------------------------------------------------------------------------


def _pivots(module):
    """{column: pivot entry} of the relation HNF."""
    pivots = {}
    for row in module.relation_hnf():
        col = next(i for i, f in enumerate(row) if not f.is_zero())
        pivots[col] = row[col]
    return pivots


def _column_lengths(module, degree_cap=None):
    """Number of basis monomials x^s g_c of the F_q-basis in each column c:
    the pivot degree over F_q[x] (1 or 0 over F_q), and degree_cap + 1
    for a free column over F_q[x]."""
    ring = module.ring
    pivots = _pivots(module)
    lengths = []
    for c in range(module.rank):
        if ring.nvars == 0:
            lengths.append(int(c not in pivots))
        elif c in pivots:
            lengths.append(pivots[c].degree_in(0))
        elif degree_cap is None:
            raise UnsupportedRingError(
                "module has positive rank; no finite F_q-basis"
            )
        else:
            lengths.append(max(degree_cap + 1, 0))
    return lengths


class FiniteModel:
    """F_q-basis view of a finite-length module over F_q or F_q[x].

    The basis consists of x^s g_c for each pivot column c of the relation
    HNF and 0 <= s < deg(pivot).  Canonical representatives (entries
    reduced below the pivots) are coordinate vectors in this basis, so
    reduction is F_q-linear and round trips exactly.  With ``degree_cap``
    a module of positive rank over F_q[x] gets the truncated model: each
    free column contributes x^s g_c for 0 <= s <= degree_cap.
    Multiplication by x is a shift on this basis except at the top of each
    column (``times_x``), so it needs one normal form per column.  Every
    F_p matrix of the model is ``kappa_fp()`` or ``mult_fp(g)`` (x is
    g = x), both read from ``_hom_blocks``, which builds them and the Hom
    blocks from that shift (``powers``) and a few normal forms, none per
    basis vector.
    """

    __slots__ = ("module", "basis", "degree_cap", "lengths", "_index", "_x")

    def __init__(self, module, degree_cap=None):
        if module.ring.nvars > 1:
            raise UnsupportedRingError("finite models need F_q or F_q[x]")
        self.lengths = _column_lengths(module, degree_cap)
        basis = [(c, s) for c, n in enumerate(self.lengths) for s in range(n)]
        self.module = module
        self.basis = tuple(basis)
        self.degree_cap = degree_cap
        self._index = {bs: i for i, bs in enumerate(basis)}
        self._x = None

    @property
    def dimension(self):
        return len(self.basis)

    def support(self, v):
        """The normal form of v as {(column, degree): coefficient code}."""
        return {
            (c, k): code
            for c, f in enumerate(self.module.normal_form(v))
            for k, code in f.terms.items()
        }

    def from_codes(self, codes):
        """The canonical representatives whose coordinate codes are the
        rows of the int64 array ``codes``, in one pass over its nonzero
        entries: the term x^s of column c takes the code at (c, s), and a
        column without terms is ``ring.zero``."""
        ring, basis = self.module.ring, self.basis
        terms = {}
        rows, idx = np.nonzero(codes)
        for i, k, c in zip(rows.tolist(), idx.tolist(),
                           codes[rows, idx].tolist()):
            col, s = basis[k]
            terms.setdefault((i, col), {})[s] = c
        out = [[ring.zero] * self.module.rank for _ in range(len(codes))]
        for (i, col), t in terms.items():
            out[i][col] = Polynomial(ring, t)
        return [tuple(vec) for vec in out]

    def _support_codes(self, supports):
        """Coordinate codes of normal forms given as ``support`` gives
        them, one row each.  A term past the truncation is dropped; any
        other term outside the model raises."""
        codes = np.zeros((len(supports), self.dimension), dtype=np.int64)
        for i, sup in enumerate(supports):
            for (c, s), code in sup.items():
                if (c, s) in self._index:
                    codes[i, self._index[c, s]] = code
                elif self.degree_cap is None or s <= self.degree_cap:
                    raise InvariantViolation(
                        "normal form left the finite basis support")
        return codes

    def fp_rows(self, vectors):
        """F_p coordinates of the vectors, one row each."""
        ctx = self.module.ring.ctx
        digits = ctx._digits[self._support_codes(
            [self.support(v) for v in vectors])]
        return digits.reshape(len(vectors), self.dimension * ctx.e)

    def from_fp(self, rows):
        """The canonical representatives with these F_p coordinate rows."""
        ctx = self.module.ring.ctx
        rows = np.asarray(rows).reshape(len(rows), self.dimension, ctx.e)
        return self.from_codes(rows @ ctx.p ** np.arange(ctx.e))

    def kappa_fp(self):
        """The F_p matrix of the operator: the p-th root of each input
        coordinate, then the F_q matrix of the operator on the basis;
        terms past a truncation are dropped."""
        zero = (0,) * self.module.ring.nvars
        return self._square(_hom_blocks(self, [], [zero])[2][0])

    def kappa_top(self):
        """K^d, the F_p matrix of kappa^d, d the dimension.  On a
        finite-length module it is zero iff the operator is nilpotent:
        each kappa-image is an F_q-subspace, and their chain drops in
        dimension until it stops."""
        return _mat_pow(self.kappa_fp(), self.dimension,
                        self.module.ring.ctx.p)

    def mult_fp(self, g):
        """The F_p matrix of multiplication by the polynomial g; terms
        past a truncation are dropped."""
        return self._square(_hom_blocks(self, [g], [])[1][0])

    def _square(self, blocks):
        """The model's F_p blocks as one square matrix."""
        n = self.dimension * self.module.ring.ctx.e
        return blocks.reshape(n, n)

    def times_x(self, digits):
        """Multiplication by x on model vectors given by their coordinate
        digits, shape (dimension, ..., e).  On the basis it is the shift
        x^s g_c -> x^(s+1) g_c, except at the last basis vector of a pivot
        column c, which goes to the normal form of x^l g_c (l the pivot
        degree): one normal form per column, computed once.  The product
        has a row per model basis vector, then one per outer key: a key
        (column, degree) past the truncation that x reaches from the
        model (none on a finite model)."""
        starts, tails, wraps, tops, outer = self._shift()
        n, *batch, e = digits.shape
        v = digits.reshape(n, math.prod(batch), e)
        out = np.zeros((n + len(outer), v.shape[1], e), dtype=np.int64)
        out[1:n] = v[:-1]
        out[starts] = 0
        out[n:n + len(tops)] = v[tops]
        if len(tails):
            heads = v[tails].transpose(1, 0, 2).reshape(v.shape[1], -1)
            wrapped = (heads @ wraps).reshape(v.shape[1], -1, e)
            out += wrapped.transpose(1, 0, 2)
            out %= self.module.ring.ctx.p
        return out.reshape(len(out), *batch, e)

    def powers(self, supports, head, step, past):
        """X^step[i] applied to the normal form supports[head[i]] (as
        ``support`` gives it) for each i, X = ``times_x``.  Returns
        (digits, outside): the digits on the model, shape (dimension,
        len(head), e), and, if ``past``, {key past the truncation: (the
        i's, their digits there)}, nonzero ones only; else {}, the terms
        past the truncation dropped.

        Each normal form is carried only as far as the largest step that
        asks for it, so the work is the size of the answer.  Terms past
        the truncation ride along sparsely, as {(column, degree): digits
        per head}: under X they move one degree up their free column and
        never come back into the model, so each step re-keys them one
        degree up and adds the rows X pushes out of the model."""
        ctx, d = self.module.ring.ctx, self.dimension
        head, step = np.asarray(head, dtype=np.int64), np.asarray(step)
        past = past and self.degree_cap is not None
        v = ctx._digits[self._support_codes(supports).T]
        if not (past or step.any()):
            return v[:, head], {}
        reach = np.full(len(supports), -1)
        np.maximum.at(reach, head, step)
        # heads by decreasing reach: the live[k] that step k needs lead
        order = np.argsort(-reach, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        live = np.cumsum(np.bincount(reach + 1)[::-1])[::-1][1:]
        by_step = np.argsort(step, kind="stable")
        bounds = np.searchsorted(step[by_step], np.arange(len(live) + 1))
        v, out = v[:, order], np.zeros((d, len(head), ctx.e), dtype=np.int64)
        # terms past the truncation: {(column, degree): digits per head}
        carry, found = {}, {}
        if past:
            for h, i in enumerate(order):
                for key, code in self._past_cap(supports[i]).items():
                    if key not in carry:
                        carry[key] = np.zeros((len(order), ctx.e), np.int64)
                    carry[key][h] = ctx._digits[code]
        for k in range(len(live)):
            if k:
                v, outer = self.times_x(v[:, : live[k]]), self._shift()[-1]
                carry = {(c, s + 1): rows[: live[k]]
                         for (c, s), rows in carry.items()}
                if past:
                    for b in np.nonzero(v[d:].any(axis=(1, 2)))[0]:
                        key = outer[b]
                        carry[key] = (carry.get(key, 0) + v[d + b]) % ctx.p
                v = v[:d]
            at = by_step[bounds[k]:bounds[k + 1]]
            heads = rank[head[at]]
            out[:, at] = v[:, heads]
            for key, rows in carry.items():
                rows = rows[heads]
                nonzero = rows.any(axis=1)
                if nonzero.any():
                    cols, digits = found.setdefault(key, ([], []))
                    cols.append(at[nonzero])
                    digits.append(rows[nonzero])
        return out, {key: (np.concatenate(cols), np.concatenate(digits))
                     for key, (cols, digits) in found.items()}

    def _past_cap(self, support):
        """The terms of a normal form past the truncation."""
        return {key: code for key, code in support.items()
                if key not in self._index}

    def _overflows(self):
        """{c: the normal form of x^l g_c, as ``support`` gives it} for
        each pivot column c with l = deg(pivot) > 0, in column order."""
        module, ring = self.module, self.module.ring
        pivots, out = _pivots(module), {}
        for c, n in enumerate(self.lengths):
            if n and c in pivots:
                unit = list(zero_vector(ring, module.rank))
                unit[c] = ring.monomial((n,))
                out[c] = self.support(tuple(unit))
        return out

    def _shift(self):
        """(starts, tails, wraps, tops, outer) for ``times_x``, computed
        once: the first basis vector of each column, the last ones of the
        pivot columns, the digits of t^i times the images of those (rows
        (tail, i), columns (row, coordinate) over the model and then
        ``outer``), the last basis vectors of the free columns, and the
        outer keys."""
        if self._x is not None:
            return self._x
        ctx, d = self.module.ring.ctx, self.dimension
        overflows = self._overflows()
        starts, tails, tops = [], [], []
        for c, n in enumerate(self.lengths):
            if n:
                starts.append(self._index[c, 0])
                (tails if c in overflows else tops).append(starts[-1] + n - 1)
        outer = {(self.basis[t][0], self.basis[t][1] + 1): None for t in tops}
        for sup in overflows.values():
            outer.update(dict.fromkeys(self._past_cap(sup)))
        outer = list(outer)
        slot = {key: i for i, key in enumerate(outer, d)}
        codes = np.zeros((len(tails), d + len(outer)), dtype=np.int64)
        codes[:, :d] = self._support_codes(list(overflows.values()))
        for i, sup in enumerate(overflows.values()):
            for key, code in self._past_cap(sup).items():
                codes[i, slot[key]] = code
        rows, cols = codes.shape
        wraps = ctx.fp_blocks(ctx._digits[codes.T])
        wraps = wraps.reshape(cols * ctx.e, rows * ctx.e).T
        self._x = (*(np.array(a, dtype=np.int64) for a in (starts, tails)),
                   wraps, np.array(tops, dtype=np.int64), outer)
        return self._x


def to_semilinear(module):
    """(SemilinearMap, FiniteModel) for a finite-length module, read from
    ``kappa_fp()``: the p-th root fixes 1, so a block's column at the
    coordinate 1 holds the digits of its F_q entry."""
    model = FiniteModel(module)
    ctx, d = module.ring.ctx, model.dimension
    digits = model.kappa_fp().reshape(d, ctx.e, d, ctx.e)[..., 0]
    codes = np.einsum("iaj,a->ij", digits, ctx.p ** np.arange(ctx.e))
    matrix = [[ctx._elems[c] for c in row] for row in codes.tolist()]
    return SemilinearMap(ctx, P_INV_LINEAR, matrix), model


def _finite_length(module):
    """Whether the module is finite-dimensional over F_q: always over F_q,
    and over F_q[x] when the relation HNF has a pivot in every column."""
    return module.ring.nvars == 0 or len(_pivots(module)) == module.rank


# ---------------------------------------------------------------------------
# maximal nilpotent submodule
# ---------------------------------------------------------------------------


def _max_nil_finite(module):
    """The maximal nilpotent Cartier submodule of a finite-length module,
    as the HNF rows of its span that lie outside the relation span, or
    None when it is the whole module.

    With d = dim_{F_q} M it is W = {m : kappa^d(x^s m) = 0, 0 <= s < d}.
    W is a submodule: x^d is an F_q-combination of the x^s on M.  It is
    kappa-stable, because kappa^d(f kappa(m)) = kappa(kappa^d(f^p m)), and
    kappa^d vanishes on it.  Every nilpotent submodule N has kappa^d N = 0,
    because its chain of kappa-images drops in F_q-dimension at each step.
    So W is one F_p nullspace, with K and X the F_p matrices of kappa and
    x: of K^d alone over F_q; over F_q[x], of the rows of every K^d X^s
    with s < d, kept as a basis of at most d e rows while s doubles."""
    model = FiniteModel(module)
    ring, d, p = module.ring, model.dimension, module.ring.ctx.p
    rows = model.kappa_top()
    if ring.nvars:
        x = model.mult_fp(ring.var(0))
        # after k doublings the rows span every K^d X^s with s < 2^k
        for _ in range((d - 1).bit_length()):
            shifted = kernels.matmul_mod_p(rows, x, p)
            rows, pivots = kernels.rref_mod_p(np.vstack([rows, shifted]), p)
            rows, x = rows[: pivots.size], kernels.matmul_mod_p(x, x, p)
    null = kernels.nullspace_mod_p(rows, p)
    if len(null) == null.shape[1]:
        return None
    return module.nonzero_rows(module.span(model.from_fp(null)))


def max_nilpotent_submodule(module, cap=None):
    """Largest kappa-stable submodule on which the operator is nilpotent.

    Exact for finite-length modules (all of dimension zero, torsion over
    F_q[x]) and whenever the whole module is nilpotent.  When the module
    has positive free rank the computation restricts to the torsion part
    and the result carries partial=True.

    Returns a dict: generators (vectors), module, inclusion, partial,
    order (nilpotency order of the submodule).
    """
    _require_pid(module, "max_nilpotent_submodule")
    finite = _finite_length(module)
    gens = _max_nil_finite(module) if finite else None
    if gens is None:
        # kappa^d vanishes on all of M, or M has positive rank
        nil, order = is_nilpotent(module, cap=cap)
        if nil:
            ident = CartierMorphism.identity(module)
            return {
                "generators": list(ident.images),
                "module": module,
                "inclusion": ident,
                "partial": False,
                "order": order,
            }
        if finite:
            raise InvariantViolation(
                "module on which kappa^d vanishes failed its nilpotency check"
            )
        # positive free rank: restrict to the torsion part, which has
        # finite length; its answer is checked once, below
        torsion, t_incl = torsion_part(module)
        inner = _max_nil_finite(torsion)
        if inner is None:
            inner = scalar_rows(module.ring, torsion.rank, module.ring.one)
        gens = [t_incl.apply(g) for g in inner]
    sub, incl = submodule_module(module, gens)
    nil, order = is_nilpotent(sub, cap=cap)
    if not nil:
        raise InvariantViolation(
            "maximal nilpotent candidate failed its nilpotency check"
        )
    return {
        "generators": gens,
        "module": sub,
        "inclusion": incl,
        "partial": not finite,
        "order": order,
    }


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------


# Largest Hom system, in F_p cells (rows x columns), assembled by
# hom_cartier: 2^24 int64 cells are 128 MiB.
HOM_CELL_CAP = 2**24


class HomResult:
    """F_p-basis of a Hom space.

    ``basis`` holds CartierMorphism objects, F_p-independent as maps and
    certified by one exact F_p product: the Hom system annihilates their
    coordinates, so no morphism is re-validated with polynomials;
    ``dimension_fp`` is their number.  ``partial`` is True when the
    target has positive rank: the generator images were then searched in
    the target's truncated model, with free-column degrees up to
    ``degree_cap`` (None when the target has finite length).
    """

    __slots__ = ("basis", "dimension_fp", "partial", "degree_cap")

    def __init__(self, basis, dimension_fp, partial, degree_cap):
        self.basis = basis
        self.dimension_fp = dimension_fp
        self.partial = partial
        self.degree_cap = degree_cap

    def __repr__(self):
        flag = ", partial" if self.partial else ""
        return f"HomResult(dim_Fp={self.dimension_fp}{flag})"


def _check_hom_size(rows, cols):
    if rows * cols > HOM_CELL_CAP:
        raise CapExceeded(
            f"Hom system of {rows} x {cols} F_p cells exceeds "
            f"{HOM_CELL_CAP} (HOM_CELL_CAP)"
        )


def _hom_blocks(model, coeffs, shifts, check=None):
    """The model's F_q maps, for Hom, ``kappa_fp`` and ``mult_fp``, as
    (keys, mult, kap): F_p blocks with axes (row, row coordinate, model
    basis vector, column coordinate), whose rows are the ``keys``.
    mult[i] is multiplication by the polynomial coeffs[i], and kap[i] is
    kappa after x^a for a = shifts[i]; only the sides asked for are
    built.  The keys are the model's basis, the terms past a truncation
    dropped; with ``check`` (Hom) they go on with the residual degrees
    past the truncation where a block has a nonzero entry, and
    ``check(rows)`` sees the row count before blocks of that many rows
    are allocated; the powers before it have the model's d rows.

    Both come from X, the multiplication by x (``FiniteModel.powers``),
    and a few normal forms, none per basis vector.  The column of
    x^s g_c under g is X^s applied to the normal form of g g_c: one
    normal form per nonconstant g and column generator g_c, while a
    constant g gives one scalar block per basis vector.  (A normal form
    is sparse in the degree of g; Horner's rule in the model would take
    deg g steps of X.)  kappa(x^(pt+b) g_c) = x^t kappa(x^b g_c), so the
    columns of kappa after x^a are X^t applied to the normal forms of the
    table values; the p-th root of each input coordinate follows, as
    kappa(x^a sum c_i u_i) = sum c_i^(1/p) kappa(x^a u_i)."""
    module = model.module
    ring, ctx = module.ring, module.ring.ctx
    p, e, d = ctx.p, ctx.e, model.dimension
    cols = [c for c, n in enumerate(model.lengths) if n]
    where = np.array([cols.index(c) for c, _ in model.basis], dtype=np.int64)
    degrees = np.array([s for _, s in model.basis], dtype=np.int64)
    # g g_c, one normal form per nonconstant coefficient and column
    units = scalar_rows(ring, module.rank, ring.one)
    heads = [
        {(c, 0): g.terms[0]} if g.is_constant()
        else model.support(vec_scale(units[c], g))
        for g in coeffs for c in cols
    ]
    tabs = [model.support(module.kappa_table[b, c])
            for b in (ring.pth_basis() if shifts else ()) for c in cols]
    # X^s g g_c and X^t kappa(x^b g_c), with x^(pt+b) = x^a x^s
    keep = check is not None
    slots = len(cols) * np.arange(len(coeffs))[:, None] + where
    mult = model.powers(heads, slots.ravel(), np.tile(degrees, len(coeffs)),
                        keep)
    shift = np.add.outer([sum(a) for a in shifts], degrees).astype(np.int64)
    kap = model.powers(tabs, (len(cols) * (shift % p) + where).ravel(),
                       (shift // p).ravel(), keep)

    past = sorted(set(mult[1]) | set(kap[1]))
    if keep:
        check(d + len(past))
    blocks = []
    for (digits, outside), count in ((mult, len(coeffs)), (kap, len(shifts))):
        full = np.zeros((d + len(past), count * d, e), dtype=np.int64)
        full[:d] = digits
        for i, key in enumerate(past, d):
            if key in outside:
                at, values = outside[key]
                full[i, at] = values
        full = full.reshape(d + len(past), count, d, e)
        blocks.append(full.transpose(1, 0, 2, 3))
    return ([*model.basis, *past], ctx.fp_blocks(blocks[0]),
            ctx.fp_blocks(blocks[1], P_INV_LINEAR))


def hom_cartier(source, target, degree_cap=None):
    """F_p-basis of morphisms source -> target commuting with the
    operators.

    The unknowns are the images of the source generators, as coordinates
    on the target's FiniteModel.  They satisfy two F_p-linear conditions:
    each source relation maps to zero, and phi(kappa(x^a g_j)) equals
    kappa(x^a phi(g_j)) at every key (a, j) of the source's kappa table.
    The keys suffice because phi kappa - kappa phi is p^{-1}-linear.  The
    blocks of the system come from the target model's one map builder
    (``_hom_blocks``, which also gives ``kappa_fp`` and ``mult_fp``): no
    polynomial is multiplied per basis vector.  One
    F_p elimination gives the nullspace in reduced echelon form, and the
    basis is certified by one exact matrix product (the system times the
    basis vanishes mod p; InvariantViolation otherwise) instead of a
    polynomial re-validation of each morphism.

    When the target has finite length (every module over F_q, torsion
    modules over F_q[x]) the answer is exact: partial=False and
    degree_cap=None, whatever the source.  When the target has positive
    rank, its free columns are truncated at degree ``degree_cap`` (default:
    twice the largest relation degree plus p) and the result is flagged
    partial; the degrees past the cap that a block reaches are residual
    rows, which must vanish.  A system above HOM_CELL_CAP cells raises
    CapExceeded before it is built.
    """
    _require_pid(source, "hom_cartier")
    if source.ring is not target.ring or source.ideal != target.ideal:
        raise ValidationError("hom endpoints need a common ring and quotient")
    ring = target.ring
    ctx = ring.ctx
    p, e = ctx.p, ctx.e
    finite = _finite_length(target)
    if finite:
        degree_cap = None
    elif degree_cap is None:
        degree_cap = 2 * max((
            f.total_degree()
            for module in (source, target)
            for rho in module.effective_relations()
            for f in rho
            if not f.is_zero()
        ), default=0) + p
    conditions = [(rho, None) for rho in source.effective_relations()]
    conditions += [(v, key) for key, v in sorted(source.kappa_table.items())]
    d, r = sum(_column_lengths(target, degree_cap)), source.rank
    _check_hom_size(len(conditions) * d * e, d * r * e)

    # which[c, j]: the slot of the coefficient of generator j in condition
    # c among the distinct nonzero coefficients, -1 for zero
    slot, which = {}, np.full((len(conditions), r), -1, dtype=np.int64)
    for c, (vec, _) in enumerate(conditions):
        for j, g in enumerate(vec):
            if not g.is_zero():
                which[c, j] = slot.setdefault(g, len(slot))
    model = FiniteModel(target, degree_cap)
    keys, mult, kap = _hom_blocks(
        model, list(slot), ring.pth_basis(),
        lambda rows: _check_hom_size(len(conditions) * rows * e, d * r * e),
    )
    rows = len(keys)
    blocks = np.concatenate([mult, np.zeros_like(kap[:1])])
    # unknown order: (target model index, source generator, F_p coordinate)
    system = np.empty((len(conditions), rows, e, d, r, e), dtype=np.int64)
    for j in range(r):
        system[:, :, :, :, j] = blocks[which[:, j]]
    shift = {a: i for i, a in enumerate(ring.pth_basis())}
    keyed = [(c, shift[key[0]], key[1])
             for c, (_, key) in enumerate(conditions) if key is not None]
    if keyed:
        at, a, j = (list(t) for t in zip(*keyed))
        system[at, :, :, :, j] -= kap[a]
    system = kernels._mod(
        system.reshape(len(conditions) * rows * e, d * r * e), p)
    # With the columns reversed, each null vector's last nonzero entry is
    # the 1 in its free column; reversed back, that 1 leads, so the
    # kernel comes out in reduced echelon form, the canonical basis.
    ker = kernels.nullspace_mod_p(system[:, ::-1], p)[::-1, ::-1]
    if kernels.matmul_mod_p(system, ker.T, p).any():
        raise InvariantViolation("Hom basis fails its F_p certificate")
    # one representative per (basis morphism, source generator)
    codes = ker.reshape(len(ker), d, r, e) @ p ** np.arange(e)
    images = model.from_codes(
        codes.transpose(0, 2, 1).reshape(len(ker) * r, d)
    )
    basis = [
        CartierMorphism(source, target, images[i * r:(i + 1) * r],
                        validate=False)
        for i in range(len(ker))
    ]
    return HomResult(basis, len(basis), not finite, degree_cap)


# ---------------------------------------------------------------------------
# standard constructors
# ---------------------------------------------------------------------------


def omega_module(ring):
    """Top differential forms with the classical trace operator: the table
    sends x^a dx to dx when every a_i equals p-1 and to zero otherwise."""
    p = ring.ctx.p
    if ring.nvars == 0:
        raise ValidationError("omega_module needs at least one variable")
    astar = tuple(p - 1 for _ in range(ring.nvars))
    table = {}
    for a in ring.pth_basis():
        table[(a, 0)] = (ring.one if a == astar else ring.zero,)
    name = "dx" if ring.nvars == 1 else "w"
    return CartierModule(ring, 1, table, generator_names=(name,))


def point_module(ctx):
    """Rank-1 module over F_q with the p-th-root operator (the point's
    dualizing structure): kappa(c e) = c^{1/p} e."""
    ring = PolyRing(ctx, ())
    table = {((), 0): (ring.one,)}
    return CartierModule(ring, 1, table, generator_names=("e",))


def jordan_block_module(ctx, size=2):
    """Nilpotent shift on F_q^size: kappa(e_1) = 0, kappa(e_k) = e_{k-1}."""
    ring = PolyRing(ctx, ())
    units = scalar_rows(ring, size, ring.one)
    table = {
        ((), j): units[j - 1] if j else zero_vector(ring, size)
        for j in range(size)
    }
    return CartierModule(ring, size, table)
