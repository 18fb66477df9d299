"""Crystal-level predicates and the minimal extension across a divisor.

A module map whose kernel and cokernel are operator-nilpotent is invisible
after inverting the operator ("nil-isomorphism"); modules are treated up to
such maps throughout.  Given a module with g inverted, the minimal
extension is the smallest g-power-stable lattice whose localization gives
back the input, as a crystal.  Its certificate records the checks that
the localization agrees as a crystal, that the quotients by the first and
the k*-th test sums are nilpotent, and that the g-torsion is nilpotent,
which holds by construction: lattices lie in the g-torsion-free
quotient, so their g-torsion is zero.  The checks do not
single out the minimal extension; minimality rests on the construction,
and ``minimality_oracle`` checks it from the test sums of the lattice.

With sat(Y) the sum of the kappa^i(Y), the test sums of a stable lattice
L are T_k = sat(g^k L), and g kappa^i(y) = kappa^i(g^(p^i) y) gives
T_(k+1) = sat(g T_k).  For a g-torsion-free quotient Q of positive rank
the minimal extension is one saturation: L' = sat(g S), with S the
stable image of Q, the last member of its image chain (S = 0 is crystal
zero).

A g-torsion-free quotient Q of finite length needs no chain: g is
injective on Q and Q is finite-dimensional, so g is bijective on Q and
on S, and L' = sat(g S) = S = im K^d, with K the F_p matrix of kappa and
d = dim Q.  The answer is the zero lattice if Q = 0, crystal zero if
K^d = 0, and L' = S with e* = 0 and k* = 1 otherwise: the lattice the
positive-rank construction gives, so a map from a finite-length module
into any other restricts to the two minimal extensions.

Lattices are HNF-spanned submodules of the g-torsion-free quotient
presentation, which embeds in the localization.  Integral lattices are
all the minimal extension needs: g S lies in the stable image S, which
the operator maps into itself, so sat(g S) lies inside S.
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
    stabilize,
)
from .cartier import (
    CartierMorphism,
    FiniteModel,
    _finite_length,
    cokernel,
    image_chain,
    is_nilpotent,
    kernel,
    stable_image,
    submodule_module,
)
from .functors import LocalizedCartier, _g_torsion
from .submodules import (
    _divmod1,
    hnf_extend,
    in_span,
    scalar_rows,
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
    span = _g_torsion(module, g, cap)["span"]
    return all(in_span(row, span, module.ring) for row in limit)


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
        self.span = (localized.quotient.span(rows) if span is None
                     else hnf_extend(span, rows, self.rank, self.ring))

    @property
    def ring(self):
        return self.localized.ring

    @property
    def rank(self):
        return self.localized.quotient.rank

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
        return span_equal(self.span, self.localized.quotient.relation_hnf())

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

    For a g-torsion-free quotient Q of positive rank, take S, the last
    member of Q's image chain (kappa(S) = S), and return L' = sat(g S),
    one saturation.  S = 0 short-circuits to the zero lattice: the
    localization is nilpotent as a crystal, and so its minimal extension
    is zero up to nilpotents.  The recorded checks are proved by the
    construction; the one computed check, ``localization_agreement``, is
    g S <= L' <= S, and a lattice that breaks it raises CertificateFailed.

    - L' is its own first test sum, so k* = 1 and both quotient checks
      hold: with T_k = sat(g^k S), T_2 = sat(g T_1) = T_1.  Since
      kappa(S) = S, g S = g kappa(S) = kappa(g^p S), and g^p S lies in
      g T_1, as g^(p-1) S lies in T_1 for p >= 2; so g S lies in
      kappa(g T_1), inside T_2, which is stable, and T_1 <= T_2 <= T_1.
    - L' is minimal: a stable W <= L' with W_g = L'_g holds g^N L' for
      some N, hence g^(N+1) S, hence sat(g^(N+1) S) = T_(N+1) = L'.
    - L' agrees with Q after inverting g, as a crystal: L'_g = S_g, and
      Q_g / S_g is nilpotent, since kappa^n(Q) lies in S for n the length
      of the chain.

    e* is the number of steps the saturation from g S took, and k* = 1.

    A finite-length quotient Q is decided without the image chain or the
    saturation, so the iteration cap does not apply to it.  g is
    injective on the finite S, so g S = S and L' = sat(g S) = S, read off
    as S = im K^d (``FiniteModel.kappa_top``): k* = 1, e* = 0 and every
    check holds, unless K^d = 0, which is crystal zero.
    """
    if not isinstance(localized, LocalizedCartier):
        raise ValidationError("expected a localized module")
    ring = localized.ring
    quot = localized.quotient
    if not quot.nonzero_rows(scalar_rows(ring, quot.rank, ring.one)):
        return _certificate(localized, Lattice(localized, []), False)

    if _finite_length(quot):
        # g S = S, so L' = S = im K^d: decided without a chain (see above)
        model = FiniteModel(quot)
        top = model.kappa_top()
        if not top.any():
            return _certificate(localized, Lattice(localized, []), True)
        stable = model.from_fp(_rref(top.T, ring.ctx.p))
        return _certificate(localized, Lattice(localized, stable), False, 0)

    stable = image_chain(quot, cap)[-1]
    if span_equal(stable, quot.relation_hnf()):
        return _certificate(localized, Lattice(localized, []), True)
    g_stable = [vec_scale(v, localized.g) for v in quot.nonzero_rows(stable)]
    chain = _saturation_chain(Lattice(localized, g_stable), cap)
    lattice = chain[-1]
    agrees = all(map(lattice.contains, g_stable)) and all(
        in_span(row, stable, ring) for row in lattice.generator_rows()
    )
    if not agrees:
        raise CertificateFailed(
            "certificate checks failed: localization_agreement"
        )
    return _certificate(localized, lattice, False, len(chain) - 1)


def _certificate(localized, lattice, crystal_zero, e_star=None):
    """The certificate of a lattice built by ``intermediate_extension``,
    whose checks hold by construction: the lattice lies in the g-torsion-
    free quotient, so its g-torsion is zero, and it is its own first test
    sum.  Without ``e_star`` (Q = 0, or crystal zero) nothing was
    saturated: e* = k* = 0, and no k*-th test sum is checked."""
    checks = {
        "localization_agreement": True,
        "torsion_nilpotent": True,
        "quotient_nilpotent": True,
    }
    if e_star is None:
        indices = {"e_star": 0, "k_star": 0}
    else:
        checks["quotient_nilpotent_kstar"] = True
        indices = {"e_star": e_star, "k_star": 1}
    return IECertificate(lattice, lattice.to_module(), checks, indices,
                         crystal_zero, localized)


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


def localized_cokernel_is_zero(phi):
    """Is the morphism surjective after inverting g?  That is, is the
    cokernel R^r / H g-power torsion, with H the span of the image in the
    target quotient: exactly when H has a pivot in every column and each
    pivot d divides g^deg(d), as then every prime factor of d divides g."""
    quot = phi.target.quotient
    span = quot.span(_integral_matrix(phi))
    g = phi.target.g
    # echelon rows with r pivots: row i has its pivot in column i
    return len(span) == quot.rank and all(
        _divmod1(g ** row[i].degree_in(0), row[i])[1].is_zero()
        for i, row in enumerate(span)
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
        "surjective_input": localized_cokernel_is_zero(phi),
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


def _row_maps(model):
    """The F_p matrices, acting on rows, under which a row space of the
    zero-dimensional model is an operator-stable F_q-subspace:
    ``kappa_fp()`` (with its twist) and ``mult_fp`` of the generator t of
    F_q, each transposed."""
    ring = model.module.ring
    maps = [model.kappa_fp()]
    if ring.ctx.e > 1:
        maps.append(model.mult_fp(ring.scalar(ring.ctx.gen)))
    return [m.T for m in maps]


def minimality_oracle(cert, bound=4):
    """Decide minimality up to nilpotents from the test sums of the
    certificate's lattice L.

    A stable W <= L with W_g = L_g holds g^N L for some N, hence
    T_N = sat(g^N L); so L is minimal iff L / T_N is nilpotent for every
    N.  Walk T_0 = L, T_(k+1) = sat(g T_k) for k < bound: True at the
    first T_(k+1) = T_k (then T_N = T_k for all N >= k), False at the
    first T_(k+1) with L / T_(k+1) not nilpotent, that is, not holding
    S_L, the last member of the image chain of L (T_(k+1) is stable).
    Neither within the bound raises CapExceeded (reported as skipped).
    """
    if cert.crystal_zero or cert.module.rank == 0:
        return True
    lattice, module = cert.lattice, cert.module
    stable = None
    for _ in range(bound):
        nxt = test_module_sum(lattice, 1)
        if nxt == lattice:
            return True
        if stable is None:
            # S_L, in the lattice module's coordinates, mapped into L
            incl = CartierMorphism(module, lattice.localized.quotient,
                                   lattice.generator_rows(), validate=False)
            stable = [incl.apply(c) for c in
                      module.nonzero_rows(image_chain(module)[-1])]
        if not all(map(nxt.contains, stable)):
            return False
        lattice = nxt
    raise CapExceeded(
        f"minimality oracle skipped: inconclusive within {bound} test sums"
    )


def simple_crystal_probe(module):
    """Is the crystal represented by a zero-dimensional module simple?

    Reduce to the minimal representative, the stable image, where the
    operator is bijective (so its maximal nilpotent submodule is zero),
    and check that the operator-stable closure of every nonzero vector is
    the whole space: a proper nonzero stable subspace contains such a
    closure.  The closure is an F_q-subspace, so one vector per F_q-line
    is closed."""
    if module.ring.nvars != 0:
        raise UnsupportedRingError("simplicity probe is zero-dimensional only")
    ctx = module.ring.ctx
    if ctx.q > 4:
        raise CapExceeded("simplicity probe: q must be at most 4")
    model = FiniteModel(stable_image(module)[0])
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
