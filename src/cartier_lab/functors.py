"""Geometric functors at the module level.

Covers the g-power-torsion submodule (the degree-0 local cohomology along
the vanishing locus of g), localization at g with the extended operator,
closed pushforward, the regular-sequence pullback to a quotient ring, the
determinant relation comparing two presentations of the same quotient,
and solution-space dimensions over extension fields at a point.

Fractions are pairs (vector, k) standing for g^{-k} * vector over the
g-torsion-free quotient presentation.  The operator extends to fractions
by first raising the denominator to a p-th power:

    kappa(v / g^k) = kappa(g^j v) / g^((k+j)/p)   with j = (-k) mod p.
"""

from . import kernels
from .errors import (
    InvariantViolation,
    UnsupportedRingError,
    ValidationError,
    stabilize,
)
from .cartier import (
    CartierModule,
    FiniteModel,
    quotient_module,
    submodule_module,
    torsion_part,
)
from .fields import _fixed_dims, _mat_pow, check_extension_cap
from .gamma import GammaSheaf
from .poly import (
    IdealSpec,
    PolyRing,
    is_regular_sequence,
    solve_membership,
)
from .submodules import (
    scalar_rows,
    solve_combination,
    syzygy_generators,
    vec_add,
    vec_scale,
)

__all__ = [
    "RegularSequence",
    "torsion_gamma_Z",
    "torsion_invariant_oracle",
    "LocalizedCartier",
    "open_pullback",
    "open_pushforward",
    "closed_pushforward",
    "koszul_pullback",
    "restrict_to_subring",
    "evaluate_at_point",
    "gamma_evaluate_at_point",
    "sequence_change_factor",
    "sol_dimension",
]


class RegularSequence:
    """A validated regular sequence together with its ideal."""

    __slots__ = ("ring", "elements", "ideal")

    def __init__(self, ring, elements):
        elements = tuple(elements)
        if not elements:
            raise ValidationError("empty sequence")
        for f in elements:
            if f.ring is not ring:
                raise ValidationError("sequence element over the wrong ring")
        if not is_regular_sequence(list(elements), ring):
            raise ValidationError("the sequence is not regular")
        self.ring = ring
        self.elements = elements
        self.ideal = IdealSpec(ring, list(elements))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        inner = ", ".join(str(f) for f in self.elements)
        return f"RegularSequence({inner})"


def _sequence_elements(seq):
    if isinstance(seq, RegularSequence):
        return list(seq.elements)
    return list(seq)


# ---------------------------------------------------------------------------
# torsion along V(g)
# ---------------------------------------------------------------------------


def torsion_gamma_Z(module, g, cap=None):
    """The submodule of elements killed by a power of g, with its induced
    operator (stable because kappa(g^{pk} m) = g^k kappa(m)).

    Returns a dict: module, inclusion, generators, span (HNF rows of the
    preimage in the presentation), exponent (the stabilizing power).
    """
    ring = module.ring
    if ring.nvars > 1:
        raise UnsupportedRingError("torsion needs F_q or F_q[x]")
    if g.is_zero():
        raise ValidationError("torsion along the zero locus of 0 is everything")
    r = module.rank
    g_rows = scalar_rows(ring, r, g)

    # ker(g^(k+1)) = {v : g v in ker(g^k)}
    def killed_by_next_power(chain):
        return module.span(syzygy_generators(g_rows, chain[-1], r, ring))

    chain = stabilize(
        module.relation_hnf(), killed_by_next_power, "torsion chain", cap
    )
    span = chain[-1]
    gens = module.nonzero_rows(span)
    sub, incl = submodule_module(module, gens)
    return {
        "module": sub,
        "inclusion": incl,
        "generators": gens,
        "span": span,
        "exponent": len(chain) - 1,
    }


def torsion_invariant_oracle(module, g):
    """Independent computation of the g-power torsion, with no g-power
    chain: the torsion part T = sat(N) / N of M = R^r / N has a finite
    F_q-dimension d, so its g-power torsion is the kernel of g^d on T,
    one F_p nullspace on the finite model of T."""
    ring = module.ring
    if ring.nvars != 1:
        raise UnsupportedRingError("the saturation path needs F_q[x]")
    torsion, incl = torsion_part(module)
    model = FiniteModel(torsion)
    p, e, d = ring.ctx.p, ring.ctx.e, model.dimension
    mult = model.mult_fp(g)
    null = kernels.nullspace_mod_p(_mat_pow(mult, d, p), p)
    gens = [incl.apply(v) for v in model.from_fp(null)]
    return {
        "generators": gens,
        "span": module.span(gens),
        "dimension": len(null) // e,
    }


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


class LocalizedCartier:
    """A module with g inverted: fractions (vector, k) over the g-torsion-
    free quotient presentation, with the operator extended to fractions.

    The kernel of the localization map is exactly the g-power torsion, so
    the quotient presentation embeds in the localization and fraction
    equality is cross-multiplication."""

    __slots__ = ("base", "g", "torsion", "quotient")

    def __init__(self, base, g, cap=None):
        if base.ring.nvars != 1:
            raise UnsupportedRingError("localization needs F_q[x]")
        if g.is_zero():
            raise ValidationError("cannot invert 0")
        self.base = base
        self.g = g
        tors = torsion_gamma_Z(base, g, cap=cap)
        self.torsion = tors
        # g^k kappa(m) = kappa(g^(pk) m): the torsion is kappa-stable
        self.quotient = CartierModule(
            base.ring, base.rank, base.kappa_table,
            (*base.relations, *tors["generators"]), base.ideal,
            base.generator_names, validate=False,
        )

    @property
    def ring(self):
        return self.base.ring

    # -- fractions -------------------------------------------------------

    def embed(self, v):
        """The image of a base-module element as a fraction."""
        return (self.quotient.normal_form(v), 0)

    def _divide_once(self, v):
        """u with g u = v in the quotient, or None."""
        ring = self.ring
        r = self.quotient.rank
        coeffs = solve_combination(
            scalar_rows(ring, r, self.g),
            self.quotient.effective_relations(),
            tuple(v),
            r,
            ring,
        )
        if coeffs is None:
            return None
        return self.quotient.normal_form(tuple(coeffs))

    def normalize(self, frac):
        v, k = frac
        v = self.quotient.normal_form(v)
        while k > 0:
            if all(f.is_zero() for f in v):
                return (v, 0)
            u = self._divide_once(v)
            if u is None:
                break
            v, k = u, k - 1
        return (v, k)

    def scale_to_power(self, frac, k):
        """Rewrite the fraction with denominator exponent exactly k >= its
        current one."""
        v, k0 = frac
        if k < k0:
            raise ValidationError("cannot lower the denominator exponent")
        return (
            self.quotient.normal_form(vec_scale(v, self.g ** (k - k0))),
            k,
        )

    def fractions_equal(self, a, b):
        va, ka = a
        vb, kb = b
        k = max(ka, kb)
        wa, _ = self.scale_to_power((va, ka), k)
        wb, _ = self.scale_to_power((vb, kb), k)
        return wa == wb

    def is_zero_fraction(self, frac):
        v, _ = frac
        return all(f.is_zero() for f in self.quotient.normal_form(v))

    def add(self, a, b):
        k = max(a[1], b[1])
        wa, _ = self.scale_to_power(a, k)
        wb, _ = self.scale_to_power(b, k)
        return self.normalize((vec_add(wa, wb), k))

    def scale(self, frac, f):
        v, k = frac
        return self.normalize((vec_scale(v, f), k))

    def apply_kappa(self, frac):
        """kappa(v/g^k) = kappa(g^j v) / g^((k+j)/p), j = (-k) mod p."""
        v, k = frac
        p = self.ring.ctx.p
        j = (-k) % p
        w = self.quotient.apply_kappa(vec_scale(v, self.g**j))
        return self.normalize((w, (k + j) // p))

    def __repr__(self):
        return f"LocalizedCartier({self.base!r} inverted at {self.g})"


def open_pullback(module, g, cap=None):
    return LocalizedCartier(module, g, cap=cap)


def open_pushforward(localized):
    """The localization viewed over the base ring: the same fractions and
    operator, so the localized module itself."""
    return localized


# ---------------------------------------------------------------------------
# closed pushforward
# ---------------------------------------------------------------------------


def closed_pushforward(module, ambient_ring=None, point=None):
    """View a module over a quotient as a module over the ambient ring.

    Quotient presentations (ideal attached) are re-read with the ideal
    rows as ordinary relations.  A module over F_q (a point) needs the
    ambient line and the coordinate of the point: x then acts as the
    scalar c, and kappa(x^a m) = (c^a)^{1/p} kappa(m)."""
    if module.ideal is not None:
        return CartierModule(
            module.ring,
            module.rank,
            module.kappa_table,
            relations=module.effective_relations(),
            ideal=None,
            generator_names=module.generator_names,
        )
    if module.ring.nvars == 0:
        if ambient_ring is None or ambient_ring.nvars != 1:
            raise ValidationError(
                "pushforward from a point needs the ambient line"
            )
        ctx = module.ring.ctx
        if ambient_ring.ctx != ctx:
            raise ValidationError("ambient ring over a different field")
        if point is None:
            point = ctx.zero
        x = ambient_ring.var(0)
        c = ambient_ring.scalar(point)
        r = module.rank

        def lift_vec(vec):
            return tuple(
                ambient_ring.scalar(f.constant_value()) for f in vec
            )

        relations = [lift_vec(rho) for rho in module.relations]
        relations += scalar_rows(ambient_ring, r, x - c)
        root = ctx.frobenius_inv(point)
        table = {}
        for a in ambient_ring.pth_basis():
            factor = ambient_ring.scalar(root ** a[0])
            for j in range(r):
                base_val = lift_vec(module.kappa_table[((), j)])
                table[(a, j)] = vec_scale(base_val, factor)
        return CartierModule(
            ambient_ring,
            r,
            table,
            relations=relations,
            ideal=None,
            generator_names=module.generator_names,
        )
    raise UnsupportedRingError("unsupported quotient for pushforward")


# ---------------------------------------------------------------------------
# regular-sequence pullback
# ---------------------------------------------------------------------------


def koszul_pullback(module, seq, validate_sequence=True):
    """Pull back along the quotient by a regular sequence: M/IM with the
    twisted operator kappa_quot(m) = kappa((f_1 ... f_n)^{p-1} m)."""
    ring = module.ring
    if module.ideal is not None:
        raise UnsupportedRingError("iterated quotients are not supported")
    pre_validated = isinstance(seq, RegularSequence)
    seq = _sequence_elements(seq)
    if not seq:
        return module
    if (
        validate_sequence
        and not pre_validated
        and not is_regular_sequence(seq, ring)
    ):
        raise ValidationError("the sequence is not regular")
    ideal = IdealSpec(ring, seq)
    if ideal.is_unit_ideal():
        # quotient by the unit ideal is the zero module; present it with
        # the relation 1 in each coordinate
        if ring.nvars >= 2:
            raise UnsupportedRingError(
                "zero quotient over a multivariate ring has no free presentation"
            )
        rows = scalar_rows(ring, module.rank, ring.one)
        return quotient_module(module, rows)[0]
    p = ring.ctx.p
    twist = ring.one
    for f in seq:
        twist = twist * f
    twist = twist ** (p - 1)
    images = module.kappa_images(scalar_rows(ring, module.rank, twist))
    table = {
        key: tuple(ideal.normal_form(f) for f in val)
        for key, val in images.items()
    }
    relations = []
    for rho in module.relations:
        red = tuple(ideal.normal_form(f) for f in rho)
        if any(not f.is_zero() for f in red):
            relations.append(red)
    # kappa(f^p h) = f kappa(h) (Fedder): the twist keeps I M stable
    return CartierModule(
        ring,
        module.rank,
        table,
        relations=relations,
        ideal=ideal,
        generator_names=module.generator_names,
        validate=False,
    )


def _linear_assignments(ideal):
    """If every Gröbner basis element is x_i - c (a single variable plus a
    constant), return {var_index: c}; otherwise None."""
    ring = ideal.ring
    out = {}
    for gdx in ideal.groebner:
        var_idx = None
        const = ring.ctx.zero
        ok = True
        for mono, coeff in gdx.items():
            if sum(mono) == 0:
                const = coeff
            elif sum(mono) == 1:
                idx = next(i for i, m in enumerate(mono) if m == 1)
                if var_idx is not None or coeff != ring.ctx.one:
                    ok = False
                    break
                var_idx = idx
            else:
                ok = False
                break
        if not ok or var_idx is None or var_idx in out:
            return None
        out[var_idx] = -const
    return out


def restrict_to_subring(module):
    """Re-present a quotient by linear equations x_i = c_i over the
    polynomial ring on the remaining variables (eliminating the ideal)."""
    if module.ideal is None:
        return module
    ring = module.ring
    assign = _linear_assignments(module.ideal)
    if assign is None:
        raise UnsupportedRingError(
            "only quotients by x_i - c_i can be re-presented"
        )
    keep = [i for i in range(ring.nvars) if i not in assign]
    new_ring = PolyRing(ring.ctx, tuple(ring.vars[i] for i in keep))

    def convert(f):
        out = new_ring.zero
        for mono, coeff in f.items():
            c = coeff
            for i, eexp in enumerate(mono):
                if i in assign and eexp:
                    c = c * assign[i] ** eexp
            new_mono = tuple(mono[i] for i in keep)
            out = out + new_ring.monomial(new_mono, c)
        return out

    relations = []
    for rho in module.relations:
        red = tuple(convert(f) for f in rho)
        if any(not f.is_zero() for f in red):
            relations.append(red)
    table = {}
    for a in new_ring.pth_basis():
        full = [0] * ring.nvars
        for pos, i in enumerate(keep):
            full[i] = a[pos]
        for j in range(module.rank):
            val = module.kappa_table[(tuple(full), j)]
            table[(a, j)] = tuple(convert(f) for f in val)
    return CartierModule(
        new_ring,
        module.rank,
        table,
        relations=relations,
        ideal=None,
        generator_names=module.generator_names,
    )


def _specialize_at_point(pres, point):
    """The point ring F_q, evaluation at c of polynomials over F_q[x], and
    the nonzero evaluated relations, for a presentation over F_q[x]/(x - c)."""
    ring = pres.ring
    if ring.nvars != 1 or pres.ideal is None:
        raise ValidationError("expected a quotient of F_q[x] by a point ideal")
    assign = _linear_assignments(pres.ideal)
    if assign is None or 0 not in assign:
        raise UnsupportedRingError("point evaluation needs the ideal (x - c)")
    c = assign[0]
    if point is not None and point != c:
        raise ValidationError("point does not match the ideal")
    ctx = ring.ctx
    ring0 = PolyRing(ctx, ())

    def ev(f):
        acc = ctx.zero
        for mono, coeff in f.items():
            acc = acc + coeff * c ** mono[0]
        return ring0.scalar(acc)

    relations = []
    for rho in pres.relations:
        red = tuple(ev(f) for f in rho)
        if any(not f.is_zero() for f in red):
            relations.append(red)
    return ring0, ev, relations


def evaluate_at_point(module, point=None):
    """Specialize a module over F_q[x]/(x - c) to the point: a module over
    F_q with the a = 0 slice of the table evaluated at c."""
    ring0, ev, relations = _specialize_at_point(module, point)
    table = {
        ((), j): tuple(ev(f) for f in module.kappa_table[((0,), j)])
        for j in range(module.rank)
    }
    return CartierModule(
        ring0,
        module.rank,
        table,
        relations=relations,
        generator_names=module.generator_names,
    )


def gamma_evaluate_at_point(sheaf, point=None):
    """Specialize a gamma-sheaf over F_q[x]/(x - c) to the point."""
    ring0, ev, relations = _specialize_at_point(sheaf, point)
    matrix = tuple(tuple(ev(f) for f in row) for row in sheaf.gamma_matrix)
    return GammaSheaf(
        ring0,
        sheaf.rank,
        matrix,
        relations=relations,
        generator_names=sheaf.generator_names,
    )


# ---------------------------------------------------------------------------
# sequence change
# ---------------------------------------------------------------------------


def _det(matrix, ring):
    n = len(matrix)
    if n == 0:
        return ring.one
    if n == 1:
        return matrix[0][0]
    out = ring.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * _det(minor, ring)
        if j % 2:
            out = out - term
        else:
            out = out + term
    return out


def sequence_change_factor(seq_f, seq_g, module):
    """Compare the quotient operators along two regular sequences with the
    same ideal: with g_i = sum_j c_ij f_j and d = det(c), the tables obey
    kappa_g(d v) = d kappa_f(v).  Returns the matrix, the determinant,
    both pullbacks, and the verification flag."""
    ring = module.ring
    seq_f = _sequence_elements(seq_f)
    seq_g = _sequence_elements(seq_g)
    if len(seq_f) != len(seq_g):
        raise ValidationError("sequences of different lengths")
    ideal_f = IdealSpec(ring, seq_f)
    ideal_g = IdealSpec(ring, seq_g)
    if ideal_f != ideal_g:
        raise ValidationError("sequences generate different ideals")
    cmat = []
    for gpol in seq_g:
        coeffs = solve_membership(gpol, seq_f)
        if coeffs is None:
            raise InvariantViolation(
                "membership solve failed despite equal ideals"
            )
        cmat.append(coeffs)
    d = _det(cmat, ring)
    pull_f = koszul_pullback(module, seq_f, validate_sequence=False)
    pull_g = koszul_pullback(module, seq_g, validate_sequence=False)
    images = pull_g.kappa_images(scalar_rows(ring, module.rank, d))
    verified = all(
        pull_g.elements_equal(lhs, vec_scale(pull_f.kappa_table[key], d))
        for key, lhs in images.items()
    )
    return {
        "matrix": cmat,
        "determinant": d,
        "pullback_f": pull_f,
        "pullback_g": pull_g,
        "relation_verified": verified,
    }


# ---------------------------------------------------------------------------
# solutions at a point
# ---------------------------------------------------------------------------


def sol_dimension(module, max_m):
    """F_p-dimensions of the solution space over F_{q^m}, m = 1..max_m:
    the vectors of M (x) F_{q^m} that kappa fixes (Katz's equivalence
    reads solutions at a point as these).  They lie in the bijective
    Fitting part, since v = kappa^k(v) for every k, so nilpotent parts
    never contribute.  Each is dim ker(B^m - I) over F_q, with B = K^e
    and K the F_p matrix of kappa on the module's finite model; no
    extension field is built (Lang's theorem, in the unit-root form of
    N. Katz, LNM 350, 1973, 4.1)."""
    if module.ring.nvars != 0:
        raise ValidationError("solution dimensions need a zero-dimensional module")
    ctx = module.ring.ctx
    check_extension_cap(ctx, max_m)
    return _fixed_dims(FiniteModel(module).kappa_fp(), ctx.p, ctx.e, max_m)
