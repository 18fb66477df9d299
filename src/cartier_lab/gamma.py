"""Gamma-sheaves: modules with a linear map into their Frobenius pullback.

A GammaSheaf is N = R^r / relations with an R-linear gamma: N -> F^*N.
The pullback F^*N is presented on generators 1 (x) n_i with the twist
convention 1 (x) (f n) = f^p (1 (x) n), so its relation rows are the
entrywise p-th powers of N's rows (ideal rows stay as they are).  gamma is
stored as the matrix C with gamma(n_j) = sum_i C[i][j] (1 (x) n_i).

The equivalence with Cartier modules tensors with the rank-1 dualizing
module and is realized by two closed-form table conversions:

    kappa-table -> gamma-matrix:   C[i][j] = sum_a T^(a)[i][j]^p x^(a*-a)
    gamma-matrix -> kappa-table:   T^(a)[i][j] = component of C[i][j] x^a
                                   at the top exponent a* = (p-1,..,p-1)

where T^(a)[i][j] is the i-coordinate of kappa(x^a g_j).  Both composites
are the identity on tables, which the tests pin down exactly.

Iterates of gamma compose with Frobenius twists: the k-th iterate has
matrix C^(p^{k-1}) ... C^(p) C (entrywise powers).  Kernels of the
iterates form an ascending chain, which terminates over a Noetherian
ring; the stable kernel drives nilpotency tests and unit-root extraction.
"""

from .errors import (
    CapExceeded,
    InvariantViolation,
    UnsupportedRingError,
    ValidationError,
    stabilize,
)
from .cartier import CartierModule
from .poly import IdealSpec, frobenius_component
from .submodules import (
    Presentation,
    hnf_extend,
    hnf_rows,
    in_span,
    scalar_rows,
    solve_combinations,
    span_equal,
    syzygy_generators,
)

__all__ = [
    "GammaSheaf",
    "UnitRoot",
    "structure_gamma",
    "cartier_to_gamma",
    "gamma_to_cartier",
    "gamma_kernel_chain",
    "gamma_nilpotent",
    "gamma_unit_defect",
    "gamma_pullback",
    "unit_root_stabilize",
    "TABLE_CAP",
]

# Largest operator table gamma_to_cartier builds, in entries p^n * rank (one
# per exponent vector in [0,p)^n and generator), checked before it starts.
TABLE_CAP = 2**20


class GammaSheaf(Presentation):
    """Finitely presented module with a linear structural map into its
    Frobenius pullback, stored as the matrix over the generators."""

    __slots__ = ("gamma_matrix",)
    _MAP = "gamma_matrix"

    def __init__(
        self,
        ring,
        rank,
        gamma_matrix,
        relations=(),
        ideal=None,
        generator_names=None,
        validate=True,
    ):
        self.gamma_matrix = tuple(tuple(row) for row in gamma_matrix)
        if generator_names is None:
            # the default names take O(rank) memory: check the matrix first
            rank = int(rank)
            if validate and rank > 0 and len(self.gamma_matrix) != rank:
                raise ValidationError("gamma matrix must be rank x rank")
            generator_names = tuple(f"n{i + 1}" for i in range(rank))
        super().__init__(ring, rank, relations, ideal, generator_names)
        if validate:
            self._validate()

    def _validate(self):
        super()._validate()
        if len(self.gamma_matrix) != self.rank:
            raise ValidationError("gamma matrix must be rank x rank")
        for row in self.gamma_matrix:
            self._check_vector(row, "gamma matrix row")
        # well-definedness: gamma maps relations into the twisted span
        self._check_well_defined(
            "gamma",
            ((rho, self.apply_gamma(rho)) for rho in self.effective_relations()),
            self.twisted_relations(1),
        )

    # -- gamma -------------------------------------------------------------

    def apply_gamma(self, v):
        """Coordinates of gamma(v) in the 1 (x) n_i generators of F^*N."""
        column = [[f] for f in self.check_element(v)]
        product = _matmul(self.gamma_matrix, column, self.ring)
        return tuple(f for (f,) in product)

    def iterates(self):
        """The matrices of gamma^0, gamma^1, ...: N -> F^{k*}N, where
        gamma^k = C^(p^(k-1)) gamma^(k-1) (entrywise powers of C)."""
        ring = self.ring
        gam = scalar_rows(ring, self.rank, ring.one)
        twisted = self.gamma_matrix
        while True:
            yield gam
            gam = _matmul(twisted, gam, ring)
            twisted = [[f.pth_power() for f in row] for row in twisted]


def _matmul(a, b, ring):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    out = [[ring.zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = ring.zero
            for s in range(k):
                if not a[i][s].is_zero() and not b[s][j].is_zero():
                    acc = acc + a[i][s] * b[s][j]
            out[i][j] = acc
    return out


def structure_gamma(ring):
    """The structure sheaf with its Frobenius unit: rank 1, matrix [1]."""
    return GammaSheaf(ring, 1, ((ring.one,),), generator_names=("u",))


# ---------------------------------------------------------------------------
# the equivalence
# ---------------------------------------------------------------------------


def cartier_to_gamma(module):
    """Convert an operator table to the matrix of the corresponding linear
    structural map (tensor with the inverse dualizing module).  Over the
    regular ring F_q[x_1..x_n] this is an exact equivalence, so the matrix
    is well defined because the table is, and is not validated again."""
    ring = module.ring
    if module.ideal is not None:
        raise UnsupportedRingError(
            "conversion over a quotient ring is ambiguous; re-present the "
            "module over the quotient's own coordinate ring first"
        )
    top = (ring.ctx.p - 1,) * ring.nvars
    r = module.rank
    C = [[ring.zero for _ in range(r)] for _ in range(r)]
    for (a, j), val in module.kappa_table.items():
        shift = ring.monomial(tuple(t - ai for t, ai in zip(top, a)))
        for i in range(r):
            if not val[i].is_zero():
                C[i][j] = C[i][j] + val[i].pth_power() * shift
    return GammaSheaf(
        ring,
        r,
        C,
        relations=module.relations,
        ideal=None,
        generator_names=module.generator_names,
        validate=False,
    )


def gamma_to_cartier(sheaf):
    """Convert a structural matrix back to an operator table (tensor with
    the dualizing module): the table entry at shift a is the Frobenius
    component of C[i][j] x^a at the top exponent.  A table above
    TABLE_CAP entries raises CapExceeded.  As in ``cartier_to_gamma``,
    the table is well defined because the matrix is."""
    ring = sheaf.ring
    if sheaf.ideal is not None:
        raise UnsupportedRingError(
            "conversion over a quotient ring is ambiguous; re-present the "
            "sheaf over the quotient's own coordinate ring first"
        )
    r = sheaf.rank
    size = ring.ctx.p**ring.nvars * r
    if size > TABLE_CAP:
        raise CapExceeded(
            f"operator table of p^n * rank = {size} entries exceeds "
            f"{TABLE_CAP} (TABLE_CAP)"
        )
    top = (ring.ctx.p - 1,) * ring.nvars
    table = {}
    for a in ring.pth_basis() if r else ():
        xa = ring.monomial(a)
        for j in range(r):
            vec = []
            for i in range(r):
                f = sheaf.gamma_matrix[i][j]
                if f.is_zero():
                    vec.append(ring.zero)
                else:
                    vec.append(frobenius_component(f * xa, top))
            table[(a, j)] = tuple(vec)
    names = sheaf.generator_names
    if r == 1 and ring.nvars == 1:
        names = ("dx",)
    return CartierModule(
        ring,
        r,
        table,
        relations=sheaf.relations,
        ideal=None,
        generator_names=names,
        validate=False,
    )


# ---------------------------------------------------------------------------
# iteration, nilpotency, unit roots
# ---------------------------------------------------------------------------


def gamma_kernel_chain(sheaf, cap=None):
    """Ascending kernels of the iterates gamma^k, as HNF spans in the
    generator coordinates (each containing the relation span).  Returns
    (chain, stabilized_index): chain[k] is ker(gamma^k), chain[0] the
    relation span, and chain[e] == chain[e+1] == ... for e = stabilized
    index."""
    chain, _ = _kernel_chain(sheaf, cap)
    return chain, len(chain) - 1


def _kernel_chain(sheaf, cap):
    """The kernel chain of ``gamma_kernel_chain`` with the matrices
    gamma^0, ..., gamma^(e+1) it used, e the stabilized index."""
    if sheaf.ring.nvars > 1:
        raise UnsupportedRingError(
            "kernel chains need the ring to be F_q or F_q[x]"
        )
    iterates = sheaf.iterates()
    gams = [next(iterates)]

    def kernel(chain):
        gams.append(next(iterates))
        return _iterate_kernel(sheaf, gams[-1], len(chain))

    chain = stabilize(sheaf.relation_hnf(), kernel, "gamma kernel chain", cap)
    return chain, gams


def _columns(gam):
    return [tuple(row[j] for row in gam) for j in range(len(gam))]


def _iterate_kernel(sheaf, gam, e):
    """ker(gamma^e) from its matrix ``gam``, as an HNF span containing the
    relation span."""
    ring, r = sheaf.ring, sheaf.rank
    twisted = sheaf.twisted_relations(e)
    ker = syzygy_generators(_columns(gam), twisted, r, ring)
    return hnf_extend(sheaf.relation_hnf(), ker, r, ring)


def gamma_nilpotent(sheaf, cap=None):
    """(nilpotent?, order) by the direct iterate test: gamma^k vanishes
    when every matrix column lies in the k-fold twisted relation span.
    The kernel chain rises strictly until it repeats, so the first full
    member is the last one."""
    chain, order = gamma_kernel_chain(sheaf, cap=cap)
    ring = sheaf.ring
    full = hnf_extend(
        sheaf.relation_hnf(), scalar_rows(ring, sheaf.rank, ring.one),
        sheaf.rank, ring,
    )
    if not span_equal(chain[-1], full):
        return False, None
    return True, order


def gamma_unit_defect(sheaf):
    """Kernel and cokernel of the structural map gamma: N -> F^*N, viewed
    as a morphism (N, gamma) -> (F^*N, F^*gamma); both carry the zero
    induced structure and must be nilpotent of order at most 1.

    Returns a dict with the kernel and cokernel sheaves, their nilpotency
    verdicts, and the combined nil-isomorphism flag.
    """
    ring = sheaf.ring
    if ring.nvars > 1:
        raise UnsupportedRingError("unit defect needs F_q or F_q[x]")
    r = sheaf.rank
    cols = _columns(sheaf.gamma_matrix)
    twisted = sheaf.twisted_relations(1)
    # kernel: coefficient vectors with gamma(v) in the twisted span
    ker_gens = syzygy_generators(cols, twisted, r, ring)
    rel_hnf = sheaf.relation_hnf()
    ker_gens = [g for g in ker_gens if not in_span(g, rel_hnf, ring)]
    ker_rels = syzygy_generators(
        ker_gens, sheaf.effective_relations(), r, ring
    )
    s = len(ker_gens)
    kernel = GammaSheaf(
        ring,
        s,
        tuple(tuple(ring.zero for _ in range(s)) for _ in range(s)),
        relations=ker_rels,
        ideal=sheaf.ideal,
        generator_names=tuple(f"k{i + 1}" for i in range(s)),
    )
    # cokernel: F^*N modulo the image columns; the induced map vanishes
    # because each twisted column (C e_j)^(p) is a twist of a relation
    coker = GammaSheaf(
        ring,
        r,
        tuple(tuple(ring.zero for _ in range(r)) for _ in range(r)),
        relations=tuple(twisted) + tuple(cols),
        ideal=sheaf.ideal,
        generator_names=tuple(f"c{i + 1}" for i in range(r)),
    )
    ker_nil, ker_order = gamma_nilpotent(kernel)
    coker_nil, coker_order = gamma_nilpotent(coker)
    if not (ker_nil and coker_nil):
        raise InvariantViolation(
            "unit defect of a structural map failed its nilpotency check"
        )
    return {
        "kernel": kernel,
        "cokernel": coker,
        "kernel_nilpotent": (ker_nil, ker_order),
        "cokernel_nilpotent": (coker_nil, coker_order),
        "nil_isomorphism": ker_nil and coker_nil,
    }


def gamma_pullback(sheaf, ideal_spec):
    """Restrict along the quotient by an ideal: same presentation with the
    ideal added, matrix entries in normal form."""
    ring = sheaf.ring
    if ideal_spec.ring is not ring:
        raise ValidationError("ideal over a different ring")
    if sheaf.ideal is not None:
        ideal_spec = IdealSpec(
            ring, list(sheaf.ideal.generators) + list(ideal_spec.generators)
        )
    matrix = tuple(
        tuple(ideal_spec.normal_form(f) for f in row)
        for row in sheaf.gamma_matrix
    )
    relations = tuple(
        tuple(ideal_spec.normal_form(f) for f in rho)
        for rho in sheaf.relations
    )
    relations = tuple(
        rho for rho in relations if any(not f.is_zero() for f in rho)
    )
    return GammaSheaf(
        ring,
        sheaf.rank,
        matrix,
        relations=relations,
        ideal=ideal_spec,
        generator_names=sheaf.generator_names,
    )


class UnitRoot:
    """A sheaf on which the structural map is injective, together with the
    stabilization index that produced it.  It stands in for the colimit
    along gamma, which is never materialized."""

    __slots__ = ("root", "injective_verified", "e_star", "kernel_chain")

    def __init__(self, root, injective_verified, e_star, kernel_chain):
        self.root = root
        self.injective_verified = injective_verified
        self.e_star = e_star
        self.kernel_chain = kernel_chain

    def __repr__(self):
        return (
            f"UnitRoot(rank {self.root.rank}, e_star={self.e_star}, "
            f"injective={self.injective_verified})"
        )


def unit_root_stabilize(sheaf, cap=None):
    """Kill the nilpotent defect: at the first e* where ker(gamma^e)
    stabilizes, return the image of gamma^e* with its induced map, on
    which gamma is injective.

    The induced map exists because gamma^(e+1) = F^*(gamma^e) o gamma, and
    it is injective because ker gamma^(e*+1) = ker gamma^e*.  Both are
    checked; a failure is a bug (InvariantViolation).

    Without an ideal the root is well defined by construction and is not
    validated again: column j solves F^{e*}(gamma)(g_j) = gamma^(e+1)(e_j),
    so a relation c of the root (sum_j c_j g_j = 0 in F^{e*}N) goes to a
    syzygy of the twisted generators g_j^(p), and those are the twists of
    the root's relations because Frobenius is flat on a regular ring
    (Kunz, 1969).  Over a quotient ring that fails; the root is validated."""
    ring = sheaf.ring
    if ring.nvars > 1:
        raise UnsupportedRingError("unit roots need F_q or F_q[x]")
    chain, gams = _kernel_chain(sheaf, cap)
    e, r = len(chain) - 1, sheaf.rank
    twisted_e = sheaf.twisted_relations(e)
    span_e = hnf_rows(twisted_e, r, ring)
    cols = _columns(gams[e])
    keep = [j for j, c in enumerate(cols) if not in_span(c, span_e, ring)]
    gens = [cols[j] for j in keep]
    root_rels = syzygy_generators(gens, twisted_e, r, ring)
    s = len(gens)
    twisted_next = sheaf.twisted_relations(e + 1)
    twisted_gens = [tuple(f.pth_power() for f in g) for g in gens]
    # gamma^(e+1) = C^(p^e) gamma^e: column j of gamma^(e+1) is the image
    # of column j of gamma^e under F^{e*}(gamma)
    images = [tuple(row[j] for row in gams[e + 1]) for j in keep]
    solutions = solve_combinations(twisted_gens, twisted_next, images, r, ring)
    if None in solutions:
        raise InvariantViolation(
            f"gamma^{e + 1} does not factor through the image of gamma^{e}"
        )
    # induced matrix: column j solves F^{e*}(gamma)(g_j) in the twisted gens
    matrix = [list(row) for row in zip(*solutions)]
    root = GammaSheaf(
        ring,
        s,
        matrix,
        relations=root_rels,
        ideal=sheaf.ideal,
        generator_names=tuple(f"r{i + 1}" for i in range(s)),
        validate=sheaf.ideal is not None,
    )
    if _iterate_kernel(root, root.gamma_matrix, 1) != root.relation_hnf():
        raise InvariantViolation(f"the unit root at e* = {e} is not injective")
    return UnitRoot(root, True, e, chain)
