"""Batch command-line frontend.

Reads module/sheaf documents, dispatches one operation, and prints a
deterministic JSON report to stdout (a one-line human summary goes to
stderr).  Exit codes: 0 success, 2 validation/parse error, 3 a chain or
saturation failed to stabilize within the cap, 4 internal invariant
violation (a reproduction bundle is written next to the working
directory).
"""

import argparse
import functools
import hashlib
import sys
import time

from .errors import (
    CapExceeded,
    CertificateFailed,
    InvariantViolation,
    NonStabilized,
    ValidationError,
    iteration_cap,
)
from .cartier import (
    CartierModule,
    hom_cartier,
    is_nilpotent,
    stable_image,
)
from .gamma import (
    GammaSheaf,
    cartier_to_gamma,
    gamma_nilpotent,
    gamma_to_cartier,
    unit_root_stabilize,
)
from .functors import (
    koszul_pullback,
    open_pullback,
    sequence_change_factor,
    sol_dimension,
    torsion_gamma_Z,
)
from .ie import intermediate_extension, minimality_oracle
from .serialize import (
    canonical_json,
    certificate_to_json,
    element_from_string,
    element_to_string,
    load_document,
    module_to_json,
    sheaf_to_json,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_STABILIZED = 3
EXIT_INVARIANT = 4


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _parse_poly_arg(ring, text, flag):
    try:
        return ring.parse(text)
    except Exception as exc:
        raise ValidationError(f"bad polynomial for {flag}: {exc}") from None


def _parse_seq_arg(ring, text, flag):
    return [
        _parse_poly_arg(ring, tok.strip(), flag)
        for tok in text.split(",")
        if tok.strip()
    ]


def _truncate(args, default):
    """The --truncate bound, ``default`` when the flag is absent."""
    if args.truncate is not None and args.truncate < 0:
        raise ValidationError("--truncate must be >= 0")
    return default if args.truncate is None else args.truncate


def _require_module(doc, operation):
    if not isinstance(doc, CartierModule):
        raise ValidationError(f"{operation} expects a module document")
    return doc


def _module_and_g(args, operation):
    """The module document of an operation along g, and the parsed --g."""
    module = _require_module(load_document(args.input), operation)
    if args.g is None:
        raise ValidationError(f"{operation} needs --g")
    return module, _parse_poly_arg(module.ring, args.g, "--g")


def _require_sheaf(doc, operation):
    if not isinstance(doc, GammaSheaf):
        raise ValidationError(f"{operation} expects a sheaf document")
    return doc


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def op_validate(args):
    doc = load_document(args.input)
    kind = "module" if isinstance(doc, CartierModule) else "sheaf"
    rank = doc.rank
    return {
        "valid": True,
        "kind": kind,
        "rank": rank,
        "ring": {"p": doc.ring.ctx.p, "e": doc.ring.ctx.e,
                 "vars": list(doc.ring.vars)},
    }, None, f"valid {kind} of rank {rank}"


def op_kappa_apply(args):
    module = _require_module(load_document(args.input), "kappa-apply")
    if args.elem is None:
        raise ValidationError("kappa-apply needs --elem")
    names = module.generator_names
    vec = element_from_string(module.ring, args.elem, names)
    out = module.apply_kappa(vec)
    text = element_to_string(out, names)
    return {
        "input": element_to_string(module.normal_form(vec), names),
        "output": text,
    }, None, f"kappa({args.elem}) = {text}"


def op_nilpotency(args):
    doc = load_document(args.input)
    if isinstance(doc, CartierModule):
        nil, order = is_nilpotent(doc, cap=args.max_iter)
    else:
        nil, order = gamma_nilpotent(doc, cap=args.max_iter)
    return {
        "nilpotent": nil,
        "order": order if nil else None,
    }, None, f"nilpotent={nil}" + (f" order={order}" if nil else "")


def op_stable_image(args):
    module = _require_module(load_document(args.input), "stable-image")
    sub, incl, chain = stable_image(module, cap=args.max_iter)
    names = module.generator_names
    gens = [element_to_string(row, names) for row in incl.images]
    return {
        "chain_lengths": [len(v) for v in chain],
        "generators": gens,
        "rank": sub.rank,
    }, None, f"stable image with {sub.rank} generators"


def op_hom(args):
    source = _require_module(load_document(args.input), "hom")
    target = _require_module(load_document(args.second), "hom")
    res = hom_cartier(source, target, degree_cap=_truncate(args, None))
    basis = [
        [[str(f) for f in vec] for vec in phi.images]
        for phi in res.basis
    ]
    return {
        "dimension_fp": res.dimension_fp,
        "partial": res.partial,
        "degree_cap": res.degree_cap,
        "basis": basis,
    }, None, f"Hom has F_p-dimension {res.dimension_fp}"


def op_to_gamma(args):
    module = _require_module(load_document(args.input), "to-gamma")
    sheaf = cartier_to_gamma(module)
    return sheaf_to_json(sheaf), None, f"sheaf of rank {sheaf.rank}"


def op_from_gamma(args):
    sheaf = _require_sheaf(load_document(args.input), "from-gamma")
    module = gamma_to_cartier(sheaf)
    return module_to_json(module), None, f"module of rank {module.rank}"


def op_unit_root(args):
    doc = load_document(args.input)
    if isinstance(doc, CartierModule):
        doc = cartier_to_gamma(doc)
    unit = unit_root_stabilize(doc, cap=args.max_iter)
    return {
        "root": sheaf_to_json(unit.root),
        "e_star": unit.e_star,
        "injective_verified": unit.injective_verified,
    }, {
        "kernel_chain_lengths": [len(v) for v in unit.kernel_chain],
        "stabilized_at": len(unit.kernel_chain) - 1,
    }, f"unit root of rank {unit.root.rank} at e*={unit.e_star}"


def op_koszul_pullback(args):
    module = _require_module(load_document(args.input), "koszul-pullback")
    if not args.seq:
        raise ValidationError("koszul-pullback needs --seq")
    seq = _parse_seq_arg(module.ring, args.seq, "--seq")
    pulled = koszul_pullback(module, seq)
    return module_to_json(pulled), None, (
        f"pullback along ({args.seq}) computed"
    )


def op_seq_change(args):
    module = _require_module(load_document(args.input), "seq-change")
    if not args.seq or not args.seq2:
        raise ValidationError("seq-change needs --seq and --seq2")
    seq_f = _parse_seq_arg(module.ring, args.seq, "--seq")
    seq_g = _parse_seq_arg(module.ring, args.seq2, "--seq2")
    res = sequence_change_factor(seq_f, seq_g, module)
    return {
        "matrix": [[str(f) for f in row] for row in res["matrix"]],
        "determinant": str(res["determinant"]),
        "relation_verified": res["relation_verified"],
    }, None, f"determinant {res['determinant']}"


def op_gamma_z(args):
    module, g = _module_and_g(args, "gamma-z")
    tors = torsion_gamma_Z(module, g, cap=args.max_iter)
    names = module.generator_names
    return {
        "generators": [element_to_string(v, names) for v in tors["generators"]],
        "exponent": tors["exponent"],
        "module": module_to_json(tors["module"]),
    }, None, f"torsion with {len(tors['generators'])} generators"


def op_localize(args):
    module, g = _module_and_g(args, "localize")
    loc = open_pullback(module, g, cap=args.max_iter)
    names = module.generator_names
    return {
        "torsion_generators": [
            element_to_string(v, names) for v in loc.torsion["generators"]
        ],
        "quotient": module_to_json(loc.quotient),
    }, None, (
        f"localized; kernel has {len(loc.torsion['generators'])} generators"
    )


def op_sol(args):
    module = _require_module(load_document(args.input), "sol")
    dims = sol_dimension(module, args.max_m)
    return {"dims": dims}, None, f"dims {dims}"


def op_ie(args):
    module, g = _module_and_g(args, "ie")
    loc = open_pullback(module, g, cap=args.max_iter)
    cert = intermediate_extension(loc, cap=args.max_iter)
    cj = certificate_to_json(cert)
    return cj, cj, (
        f"lattice generators {cj['lattice']['generator_display']}"
    )


def op_oracle(args):
    bound = _truncate(args, 4)
    module, g = _module_and_g(args, "oracle")
    loc = open_pullback(module, g, cap=args.max_iter)
    cert = intermediate_extension(loc, cap=args.max_iter)
    try:
        minimal = minimality_oracle(cert, bound=bound)
    except CapExceeded as exc:
        return {
            "skipped": True,
            "reason": str(exc),
        }, certificate_to_json(cert), f"oracle skipped: {exc}"
    return {
        "skipped": False,
        "minimal": minimal,
    }, certificate_to_json(cert), f"minimal={minimal}"


OPERATIONS = {
    "validate": (op_validate, 1),
    "kappa-apply": (op_kappa_apply, 1),
    "nilpotency": (op_nilpotency, 1),
    "stable-image": (op_stable_image, 1),
    "hom": (op_hom, 2),
    "to-gamma": (op_to_gamma, 1),
    "from-gamma": (op_from_gamma, 1),
    "unit-root": (op_unit_root, 1),
    "koszul-pullback": (op_koszul_pullback, 1),
    "seq-change": (op_seq_change, 1),
    "gamma-z": (op_gamma_z, 1),
    "localize": (op_localize, 1),
    "sol": (op_sol, 1),
    "ie": (op_ie, 1),
    "oracle": (op_oracle, 1),
}


@functools.cache
def build_parser():
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cartier-lab",
        description="Cartier modules, their linear duals, and minimal "
        "extensions over F_q[x].",
    )
    sub = parser.add_subparsers(dest="operation", required=True)
    for name, (_, nargs) in OPERATIONS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON document")
        if nargs == 2:
            p.add_argument("second", help="second JSON document")
        p.add_argument("--g", help="localizing element (polynomial)")
        p.add_argument("--seq", help="comma-separated regular sequence")
        p.add_argument("--seq2", help="second comma-separated sequence")
        p.add_argument("--elem", help="element string, e.g. 'x^2*dx'")
        p.add_argument("--max-iter", type=int, default=None,
                       help="stabilization cap, a positive integer "
                            "(default 256 or CARTIER_LAB_MAX_ITER)")
        p.add_argument("--max-m", type=int, default=4,
                       help="largest extension degree m for sol; F_(q^m) "
                            "may have at most 2^32 elements")
        p.add_argument("--truncate", type=int, default=None,
                       help="bound >= 0: the test sums the oracle may walk "
                            "(default 4), and the hom search cap on the "
                            "target's free columns (ignored when the target "
                            "has finite length)")
        p.add_argument("--no-timings", action="store_true",
                       help="omit timings for byte-identical reports")
    return parser


def _reproduction_bundle(argv, exc):
    bundle = {
        "argv": list(argv),
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "inputs": {},
    }
    for arg in argv:
        if arg.endswith(".json"):
            try:
                with open(arg, "r", encoding="utf-8") as fh:
                    bundle["inputs"][arg] = fh.read()
            except OSError:
                pass
    name = "cartier-lab-repro-" + hashlib.sha256(
        canonical_json(bundle).encode()
    ).hexdigest()[:12] + ".json"
    try:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(bundle))
    except OSError:  # pragma: no cover - read-only working directory
        name = None
    return name


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else EXIT_VALIDATION
    func, nargs = OPERATIONS[args.operation]
    paths = [args.input] + ([args.second] if nargs == 2 else [])
    start = time.monotonic()
    try:
        args.max_iter = iteration_cap(args.max_iter)
        digest = _digest(paths)
        result, certificates, summary = func(args)
    except NonStabilized as exc:
        report = {
            "operation": args.operation,
            "error": {"type": "non_stabilized", "message": str(exc),
                      "cap": exc.cap, "partial_length": len(exc.partial)},
        }
        sys.stdout.write(canonical_json(report))
        sys.stderr.write(f"{args.operation}: did not stabilize: {exc}\n")
        return EXIT_NON_STABILIZED
    except (InvariantViolation, CertificateFailed) as exc:
        bundle = _reproduction_bundle(argv, exc)
        report = {
            "operation": args.operation,
            "error": {"type": "invariant_violation", "message": str(exc),
                      "reproduction_bundle": bundle},
        }
        sys.stdout.write(canonical_json(report))
        sys.stderr.write(f"{args.operation}: invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except (ValidationError, OSError) as exc:
        report = {
            "operation": args.operation,
            "error": {"type": "validation", "message": str(exc)},
        }
        sys.stdout.write(canonical_json(report))
        sys.stderr.write(f"{args.operation}: {exc}\n")
        return EXIT_VALIDATION
    elapsed = time.monotonic() - start
    report = {
        "operation": args.operation,
        "inputs_digest": digest,
        "result": result,
        "certificates": certificates,
    }
    if not args.no_timings:
        report["timings"] = {"total_s": round(elapsed, 6)}
    sys.stdout.write(canonical_json(report))
    sys.stderr.write(f"{args.operation}: {summary}\n")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
