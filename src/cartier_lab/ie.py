"""Crystal-level predicates and the minimal extension across a divisor.

A module map whose kernel and cokernel are operator-nilpotent is invisible
after inverting the operator ("nil-isomorphism"); modules are treated up to
such maps throughout.  Given a module with g inverted, the minimal
extension is the smallest g-power-stable lattice whose localization gives
back the input.  Its certificate records three checks: the localization
agrees, the quotient by the k = 1 test sum is nilpotent, and the g-torsion
is nilpotent, which holds by construction: lattices lie in the
g-torsion-free quotient, so their g-torsion is zero.  The checks do not
single out the minimal extension: the first test sum T_1 of the whole
quotient can pass them without being nil-isomorphic to the certified
lattice.  Minimality rests on the construction, which stops only at
T_(k*+1) = T_(k*); ``minimality_oracle`` checks it on truncated models.

The quotient check needs no quotient module and no saturation of its
own.  With sat(Y) the sum of the kappa^i(Y), g kappa^i(y) =
kappa^i(g^(p^i) y) gives T_(k+1) = sat(g T_k), and the test sums are
computed by that recursion from T_1 = sat(g L0).  The loop stops at the
first T_(k+1) = T_k = L', and that comparison is sat(g L') = L': the
quotient of L' by its first test sum is zero, hence nilpotent.

Lattices are HNF-spanned submodules of the g-torsion-free quotient
presentation, which embeds in the localization.  Integral lattices are
all the minimal extension needs: it is reached from above, starting at the
whole quotient (the image of the module, which the operator maps into
itself), and every test sum sat(g^k L) lies inside the lattice L it
starts from.
"""

import itertools

import numpy as np

from . import kernels
from .errors import (
    CapExceeded,
    CertificateFailed,
    InvariantViolation,
    UnsupportedRingError,
    ValidationError,
    iteration_cap,
    stabilize,
)
from .cartier import (
    CartierMorphism,
    FiniteModel,
    cokernel,
    image_chain,
    is_nilpotent,
    kernel,
    max_nilpotent_submodule,
    quotient_module,
    stable_image,
    submodule_module,
)
from .fields import _mat_pow
from .functors import LocalizedCartier, torsion_gamma_Z
from .submodules import (
    hnf_extend,
    in_span,
    scalar_rows,
    solve_combination,
    solve_combinations,
    span_equal,
    syzygy_generators,
    vec_scale,
    zero_vector,
)

__all__ = [
    "nil_isomorphic",
    "supported_on_Z",
    "Lattice",
    "kappa_saturate",
    "test_module_sum",
    "IECertificate",
    "intermediate_extension",
    "LocalizedMorphism",
    "ie_functorial",
    "ie_exactness_probe",
    "minimality_oracle",
    "simple_crystal_probe",
]


# ---------------------------------------------------------------------------
# crystal predicates
# ---------------------------------------------------------------------------


def nil_isomorphic(phi):
    """True when the morphism becomes invertible once nilpotent kernels and
    cokernels are discarded."""
    ker, _ = kernel(phi)
    coker, _ = cokernel(phi)
    ker_nil, _ = is_nilpotent(ker)
    coker_nil, _ = is_nilpotent(coker)
    return ker_nil and coker_nil


def supported_on_Z(module, g, cap=None):
    """True when inverting g kills the module up to nilpotents: the stable
    image of the operator lies inside the g-power torsion."""
    limit = image_chain(module, cap=cap)[-1]
    tors = torsion_gamma_Z(module, g, cap=cap)
    return all(in_span(row, tors["span"], module.ring) for row in limit)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


class Lattice:
    """A submodule of the g-torsion-free quotient presentation, which embeds
    in the localization.

    The span is the HNF of the rows together with the presentation
    relations, so two lattices are equal iff their spans are equal.  It
    extends ``span``, an HNF that contains the relations (by default
    their own HNF)."""

    __slots__ = ("localized", "span")

    k = 0  # denominator exponent of the certificate format: always 0

    def __init__(self, localized, rows, span=None):
        self.localized = localized
        if span is None:
            span = self._rel_hnf()
        self.span = hnf_extend(span, rows, self.rank, self.ring)

    @property
    def ring(self):
        return self.localized.ring

    @property
    def rank(self):
        return self.localized.quotient.rank

    def _rel_hnf(self):
        return self.localized.quotient.relation_hnf()

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.localized is not other.localized and (
            self.localized.g != other.localized.g
            or self.localized.base != other.localized.base
        ):
            return False
        return span_equal(self.span, other.span)

    def is_zero(self):
        return span_equal(self.span, self._rel_hnf())

    def generator_rows(self):
        return self.localized.quotient.nonzero_rows(self.span)

    def contains(self, vector):
        return in_span(tuple(vector), self.span, self.ring)

    def g_multiple(self, j):
        """The lattice g^j * L."""
        if j < 0:
            raise ValidationError("g_multiple needs j >= 0")
        gj = self.localized.g ** j
        return Lattice(self.localized, [vec_scale(v, gj) for v in self.span])

    def is_kappa_stable(self):
        # raw operator images: every span of a lattice holds the relations
        quot = self.localized.quotient
        images = quot.kappa_images(self.generator_rows()).values()
        return all(self.contains(w) for w in images)

    def divides_in(self, vector, cap=None):
        """Least n with g^n * vector inside the lattice, or None."""
        cap = iteration_cap(cap)
        g = self.localized.g
        v = tuple(vector)
        for n in range(cap + 1):
            if self.contains(v):
                return n
            v = vec_scale(v, g)
        return None

    def localization_agrees(self, cap=None):
        """Does inverting g recover the whole localized module?"""
        units = scalar_rows(self.ring, self.rank, self.ring.one)
        return all(self.divides_in(e, cap=cap) is not None for e in units)

    def to_module(self):
        """The lattice as an abstract module with the restricted operator,
        presented on its generator rows by ``submodule_module``."""
        quot = self.localized.quotient
        return submodule_module(quot, self.generator_rows())[0]

    def __repr__(self):
        return f"Lattice({len(self.generator_rows())} generators)"


def _saturation_chain(lattice, cap=None):
    """L, L + kappa(L), ... up to the first operator-stable member.  A step
    extends the span of the last member by the operator images of its
    generator rows."""

    def saturate(chain):
        last = chain[-1]
        quot = last.localized.quotient
        images = quot.kappa_images(last.generator_rows()).values()
        return Lattice(last.localized, images, last.span)

    return stabilize(lattice, saturate, "saturation", cap)


def kappa_saturate(lattice, cap=None):
    """The smallest operator-stable lattice containing the input: iterate
    L <- L + kappa(L) to a fixed point."""
    return _saturation_chain(lattice, cap)[-1]


def test_module_sum(lattice, k, cap=None):
    """T_k: the operator-stable lattice generated by g^k times a stable
    lattice.  Descending in k; T_0 is the lattice itself.

    With sat(Y) = sum_i kappa^i(Y), T_(k+1) = sat(g T_k): since
    g kappa^i(y) = kappa^i(g^(p^i) y), g T_k lies in T_(k+1), and
    g^(k+1) L lies in g T_k.  T_k = L certifies that L / T_k is nilpotent,
    being zero."""
    if not lattice.is_kappa_stable():
        raise ValidationError("test sums need an operator-stable lattice")
    if k < 0:
        raise ValidationError("k must be >= 0")
    return kappa_saturate(lattice.g_multiple(k), cap=cap)


# ---------------------------------------------------------------------------
# the minimal extension
# ---------------------------------------------------------------------------


class IECertificate:
    """A stabilized lattice plus the recorded checks that make it the
    minimal extension, up to nilpotents, of its localization."""

    __slots__ = (
        "lattice",
        "module",
        "checks",
        "indices",
        "crystal_zero",
        "localized",
    )

    def __init__(self, lattice, module, checks, indices, crystal_zero, localized):
        self.lattice = lattice
        self.module = module
        self.checks = checks
        self.indices = indices
        self.crystal_zero = crystal_zero
        self.localized = localized

    def __repr__(self):
        return (
            f"IECertificate(k_star={self.indices.get('k_star')}, "
            f"checks={self.checks})"
        )


def intermediate_extension(localized, cap=None):
    """The smallest extension across the zero locus of g, certified.

    Start from the whole quotient, which is operator-stable, and
    stabilize its test sums T_k over k; verify the defining checks and
    refuse to issue a certificate when any fails.  A localization that
    is nilpotent as a crystal short-circuits to the zero lattice (its
    minimal extension is zero up to nilpotents).

    The test sums follow their recursion T_1 = sat(g L0), T_(k+1) =
    sat(g T_k) (see ``test_module_sum``) and stop at T_(k*+1) = T_(k*) =
    L'.  That last comparison is sat(g L') = L', so L'/T_1(L') is zero,
    hence nilpotent, and the loop records ``quotient_nilpotent``.  The k*
    check is the same at k* = 1 and is otherwise recomputed as
    sat(g^(k*) L') = L'; localization agreement is recomputed too, so a
    lattice that breaks either fails closed.  e* is the longest
    saturation chain the loop ran, each from g T_k.
    """
    if not isinstance(localized, LocalizedCartier):
        raise ValidationError("expected a localized module")
    ring = localized.ring
    quot = localized.quotient

    def finish(lattice, module, checks, indices, crystal_zero):
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            raise CertificateFailed(
                f"certificate checks failed: {', '.join(failed)}"
            )
        return IECertificate(
            lattice, module, checks, indices, crystal_zero, localized
        )

    def shortcut(lattice, crystal_zero):
        checks = {
            "localization_agreement": True,
            "torsion_nilpotent": True,
            "quotient_nilpotent": True,
        }
        indices = {"e_star": 0, "k_star": 0}
        return finish(
            lattice, lattice.to_module(), checks, indices, crystal_zero
        )

    base = Lattice(localized, scalar_rows(ring, quot.rank, ring.one))
    if base.is_zero():
        return shortcut(base, False)

    # crystal-zero shortcut: if the operator is nilpotent after inverting
    # g, the minimal extension is the zero lattice and the localization
    # check holds as crystals (both sides nilpotent), not as modules.
    if is_nilpotent(quot, cap)[0]:
        return shortcut(Lattice(localized, []), True)

    # e* is the longest saturation chain the loop ran; the base is the
    # whole quotient, which the operator maps into itself
    counts = []

    def saturate_g_multiple(sums):
        chain = _saturation_chain(sums[-1].g_multiple(1), cap)
        counts.append(len(chain) - 1)
        return chain[-1]

    # T_1 = sat(g L0), T_(k+1) = sat(g T_k), up to the first repeat
    sums = stabilize(
        saturate_g_multiple([base]), saturate_g_multiple, "test sums", cap
    )
    current = sums[-1]
    e_star, k_star = max(counts), len(sums)

    module = current.to_module()
    checks = {
        "localization_agreement": current.localization_agrees(cap=cap),
        # L' lies in the g-torsion-free quotient, so its g-torsion is zero
        "torsion_nilpotent": True,
        # the loop stopped at sat(g L') = L', so L' / T_1(L') is zero
        "quotient_nilpotent": True,
        "quotient_nilpotent_kstar": k_star == 1 or (
            kappa_saturate(current.g_multiple(k_star), cap=cap) == current
        ),
    }
    return finish(
        current, module, checks, {"e_star": e_star, "k_star": k_star}, False
    )


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------


class LocalizedMorphism:
    """A map between two modules with the same g inverted: images of the
    quotient-presentation generators as fractions, linear over the base
    ring and commuting with both operators."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images, validate=True):
        if source.ring is not target.ring:
            raise ValidationError("localized modules over different rings")
        if source.g != target.g:
            raise ValidationError("localized at different elements")
        images = [target.normalize(f) for f in images]
        if len(images) != source.quotient.rank:
            raise ValidationError("wrong number of generator images")
        self.source = source
        self.target = target
        self.images = images
        if validate:
            self._validate()

    def _zero_fraction(self):
        ring = self.target.ring
        return (tuple(zero_vector(ring, self.target.quotient.rank)), 0)

    def combine(self, coeffs):
        """sum_i coeffs[i] * images[i] as a fraction."""
        acc = self._zero_fraction()
        for c, img in zip(coeffs, self.images):
            if c.is_zero():
                continue
            acc = self.target.add(acc, self.target.scale(img, c))
        return acc

    def apply(self, fraction):
        v, k = fraction
        w, kw = self.combine(tuple(v))
        return self.target.normalize((w, kw + k))

    def _validate(self):
        src = self.source
        tgt = self.target
        ring = src.ring
        for rho in src.quotient.effective_relations():
            if not tgt.is_zero_fraction(self.combine(tuple(rho))):
                raise ValidationError("images do not kill a relation")
        r = src.quotient.rank
        for a in ring.pth_basis():
            xa = ring.monomial(a)
            for j, e in enumerate(scalar_rows(ring, r, xa)):
                lhs = self.apply((src.quotient.apply_kappa(e), 0))
                rhs = tgt.apply_kappa(self.target.scale(self.images[j], xa))
                if not tgt.fractions_equal(lhs, rhs):
                    raise ValidationError(
                        "images do not commute with the operators"
                    )

    @classmethod
    def identity(cls, localized):
        ring = localized.ring
        units = scalar_rows(ring, localized.quotient.rank, ring.one)
        return cls(localized, localized, [(e, 0) for e in units],
                   validate=False)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source:
            raise ValidationError("composition mismatch")
        images = [self.apply(f) for f in other.images]
        return LocalizedMorphism(other.source, self.target, images,
                                 validate=False)

    def is_zero(self):
        return all(self.target.is_zero_fraction(f) for f in self.images)


def ie_functorial(phi, cert_source=None, cert_target=None, cap=None):
    """Restrict a localized morphism to the two minimal extensions.

    The restriction must land in the target lattice; a failure indicates a
    stabilization-cap artifact and is surfaced as an error."""
    if cert_source is None:
        cert_source = intermediate_extension(phi.source, cap=cap)
    if cert_target is None:
        cert_target = intermediate_extension(phi.target, cap=cap)
    src_lat = cert_source.lattice
    tgt_lat = cert_target.lattice
    ring = phi.source.ring
    tgt_gens = tgt_lat.generator_rows()
    tgt_rels = phi.target.quotient.effective_relations()
    fractions = [phi.apply((row, 0)) for row in src_lat.generator_rows()]
    solutions = None
    if not any(kf for _, kf in fractions):
        solutions = solve_combinations(
            tgt_gens, tgt_rels, [w for w, _ in fractions], tgt_lat.rank, ring
        )
    if solutions is None or None in solutions:
        raise InvariantViolation("restricted image escaped the target lattice")
    images = [tuple(c) for c in solutions]
    return CartierMorphism(cert_source.module, cert_target.module, images)


def _integral_matrix(phi):
    """Clear denominators: columns of g^D phi(e_j) in the target quotient,
    D the largest exponent among the images."""
    g = phi.target.g
    D = max((k for _, k in phi.images), default=0)
    return [vec_scale(w, g ** (D - k)) for w, k in phi.images]


def localized_kernel_is_zero(phi):
    """Is the morphism injective after inverting g?"""
    ring = phi.source.ring
    cols = _integral_matrix(phi)
    rels_t = phi.target.quotient.effective_relations()
    rt = phi.target.quotient.rank
    gens = syzygy_generators(cols, rels_t, rt, ring) if cols else []
    return not phi.source.quotient.nonzero_rows(gens)


def localized_cokernel_is_zero(phi, cap=None):
    """Is the morphism surjective after inverting g?  That is, does the
    lattice its image spans in the target localize to everything?"""
    return Lattice(phi.target, _integral_matrix(phi)).localization_agrees(
        cap=cap
    )


def ie_exactness_probe(phi, cap=None):
    """Check that the minimal extension preserves injectivity and
    surjectivity up to nilpotents.  Returns the findings; True overall
    when every applicable assertion holds."""
    cert_s = intermediate_extension(phi.source, cap=cap)
    cert_t = intermediate_extension(phi.target, cap=cap)
    restricted = ie_functorial(phi, cert_s, cert_t, cap=cap)
    findings = {
        "injective_input": localized_kernel_is_zero(phi),
        "surjective_input": localized_cokernel_is_zero(phi, cap=cap),
    }
    ok = True
    if findings["injective_input"]:
        ker, _ = kernel(restricted)
        nil, _ = is_nilpotent(ker, cap=cap)
        findings["kernel_nilpotent"] = nil
        ok = ok and nil
    if findings["surjective_input"]:
        coker, _ = cokernel(restricted)
        nil, _ = is_nilpotent(coker, cap=cap)
        findings["cokernel_nilpotent"] = nil
        ok = ok and nil
    findings["passed"] = ok
    return findings


# ---------------------------------------------------------------------------
# desk-scale oracles
# ---------------------------------------------------------------------------


def _rref(rows, p):
    red, pivots = kernels.rref_mod_p(rows, p)
    return red[: pivots.size]


def _closure(rows, maps, p):
    """The smallest F_p row space containing ``rows`` and closed under
    every matrix of ``maps`` (acting on rows), as RREF rows: add the
    images of the span until its rank stops rising."""
    span = _rref(rows, p)
    while True:
        grown = _rref(np.vstack([span] + [span @ m % p for m in maps]), p)
        if len(grown) == len(span):
            return span
        span = grown


def _in_span(vectors, span, p):
    """Which rows of ``vectors`` lie in the row space of the RREF rows
    ``span``: those that vanish once reduced at its pivots."""
    pivots = (span != 0).argmax(axis=1)
    return ~((vectors - vectors[:, pivots] @ span) % p).any(axis=1)


def _row_maps(model):
    """The F_p matrices, acting on rows, under which a row space of the
    model is an operator-stable F_q-subspace: ``kappa_fp`` (with its
    twist), x (``x_fp``) over F_q[x] and the generator t of F_q on every
    coordinate, each transposed."""
    ring = model.module.ring
    ctx = ring.ctx
    d, n = model.dimension, model.dimension * ctx.e
    maps = [model.kappa_fp()]
    if ring.nvars:
        maps.append(model.x_fp())
    if ctx.e > 1:
        maps.append(ctx.fp_blocks(ctx._digits[ctx.gen.code * np.eye(
            d, dtype=np.int64)]).reshape(n, n))
    return [m.T for m in maps]


def minimality_oracle(cert, degree_bound=4):
    """Exhaustively confirm minimality on a truncated model.

    Truncate the lattice module to polynomial coefficients of degree at
    most degree_bound (its FiniteModel with that degree cap) and verify
    that every operator- and shift-stable subspace W whose localization
    still agrees has nilpotent quotient: V / W is nilpotent iff
    kappa^dim(V) lies in W, since W is stable.  Both survive enlarging W,
    and an agreeing W holds a witness row of every unit, so only the
    closures of one witness row per unit are checked, built unit by unit:
    a span that holds a witness row of the unit stays (it lies in every
    branch it skips), any other branches into its closure with each.
    More than 5000 model vectors is a documented limit of the library:
    it raises CapExceeded (reported as skipped) before building the model.
    """
    if cert.crystal_zero or cert.module.rank == 0:
        return True
    module = cert.module
    ring = module.ring
    ctx = ring.ctx
    if ring.nvars != 1:
        raise CapExceeded("minimality oracle skipped: needs F_q[x]")
    if module.effective_relations():
        raise CapExceeded(
            "minimality oracle skipped: lattice module is not free"
        )
    # the module is free: each column has degree_bound + 1 basis vectors;
    # q >= 2, so dim <= 12 is checked first and q**dim stays small
    dim = module.rank * (degree_bound + 1)
    if dim > 12 or ctx.q**dim > 5000:
        raise CapExceeded("minimality oracle skipped: truncation too large")
    model = FiniteModel(module, degree_cap=degree_bound)
    p = ctx.p

    # truncated vectors certifying localization agreement
    loc, lat = cert.localized, cert.lattice
    gens = lat.generator_rows()
    rels = loc.quotient.effective_relations()
    witnesses = []
    for unit in scalar_rows(ring, loc.quotient.rank, ring.one):
        n = lat.divides_in(unit)
        coords = None if n is None else solve_combination(
            gens, rels, vec_scale(unit, loc.g**n), lat.rank, ring
        )
        if coords is None:
            raise InvariantViolation("certificate lattice lost agreement")
        shifts = [vec_scale(coords, loc.g**s) for s in range(degree_bound + 1)]
        rows = model.fp_rows(shifts)
        rows = rows[rows.any(axis=1)]
        if not len(rows):
            raise CapExceeded(
                "minimality oracle skipped: agreement witness exceeds truncation"
            )
        witnesses.append(rows)

    maps = _row_maps(model)
    spans = [np.zeros((0, model.dimension * ctx.e), dtype=np.int64)]
    for rows in witnesses:
        grown = {}
        for span in spans:
            if _in_span(rows, span, p).any():
                grown.setdefault(span.tobytes(), span)
                continue
            for w in rows:
                closed = _closure(np.vstack([span, w[None]]), maps, p)
                grown.setdefault(closed.tobytes(), closed)
        spans = grown.values()

    # rows spanning kappa^dim of the whole model
    top = _mat_pow(maps[0], dim, p)
    return all(_in_span(top, span, p).all() for span in spans)


def simple_crystal_probe(module):
    """Is the crystal represented by a zero-dimensional module simple?

    Reduce to the minimal representative (stable image modulo the maximal
    nilpotent part, where the operator is bijective) and check that the
    operator-stable closure of every nonzero vector is the whole space:
    a proper nonzero stable subspace contains such a closure.  The
    closure is an F_q-subspace, so one vector per F_q-line is closed."""
    if module.ring.nvars != 0:
        raise UnsupportedRingError("simplicity probe is zero-dimensional only")
    ctx = module.ring.ctx
    if ctx.q > 4:
        raise CapExceeded("simplicity probe: q must be at most 4")
    si, _, _ = stable_image(module)
    nil = max_nilpotent_submodule(si)
    rep, _ = quotient_module(si, nil["generators"])
    model = FiniteModel(rep)
    d = model.dimension
    if d == 0:
        return False
    if d > 3:
        raise CapExceeded("simplicity probe: dimension must be at most 3")
    maps = _row_maps(model)
    lines = [
        (0,) * lead + (1,) + tail
        for lead in range(d)
        for tail in itertools.product(range(ctx.q), repeat=d - lead - 1)
    ]
    vectors = ctx._digits[np.array(lines, dtype=np.int64)].reshape(
        len(lines), 1, d * ctx.e)
    return all(len(_closure(v, maps, ctx.p)) == d * ctx.e for v in vectors)
