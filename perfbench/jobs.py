"""Job runners for the four workloads.

``Prepared`` is the set-up phase: it builds the fields and rings, loads
every input document through ``cartier_lab.load_document`` (which
validates it) and holds one zero-argument callable per job; calling it is
the timed part.  The callables look library functions up on their modules
at call time, so a traced run sees the wrappers that replace them.
``answer`` turns a job's raw result into canonical JSON data outside the
timed region; it may record cheap facts that the oracles check later (for
example, whether a round trip returned the same table).
"""

import contextlib
import io
import os

import cartier_lab as cl
from cartier_lab import cli

DOCS_DIR = "docs"


def doc_path(name):
    return os.path.join(DOCS_DIR, name + ".json")


def ring_of(spec):
    return cl.PolyRing(cl.Fq(spec["p"], spec["e"]), spec["vars"])


def vec_str(vec):
    return [str(f) for f in vec]


def table_str(module):
    return {
        f"{' '.join(map(str, a))},{j}": vec_str(v)
        for (a, j), v in sorted(module.kappa_table.items())
    }


class Prepared:
    """Loaded inputs of one workload and the callables that run its jobs."""

    def __init__(self, workload, jobs):
        self.workload = workload
        self.jobs = jobs
        self.docs = {}
        self.calls = {}
        names = set()
        for job in jobs:
            names.update(_doc_names(job))
        for name in sorted(names):
            self.docs[name] = _load(name, workload)
        build = BUILDERS[workload]
        for job in jobs:
            self.calls[job["id"]] = build(self, job)


def _doc_names(job):
    for key in ("src", "tgt", "mod", "pair"):
        if key in job:
            yield job[key]
    yield from job.get("docs", ())


def _load(name, workload):
    if workload != "cli-batch":
        return cl.load_document(doc_path(name))
    # cli-batch documents include deliberately malformed ones; loading
    # them here only warms the same fields and rings the CLI will use.
    try:
        return cl.load_document(doc_path(name))
    except (cl.CartierLabError, ValueError, TypeError):
        return None


# ---------------------------------------------------------------------------
# finite-hom
# ---------------------------------------------------------------------------


def _build_hom(prep, job):
    src, tgt = prep.docs[job["src"]], prep.docs[job["tgt"]]
    return lambda: cl.hom_cartier(src, tgt)


def _answer_hom(job, res, prep):
    return {
        "dim": res.dimension_fp,
        "partial": res.partial,
        "basis": [[vec_str(img) for img in phi.images] for phi in res.basis],
    }


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _build_chains(prep, job):
    op = job["op"]
    mod = prep.docs[job["mod"]]
    if op == "is_nilpotent":
        return lambda: cl.is_nilpotent(mod)
    if op == "stable_image":
        return lambda: cl.stable_image(mod)
    if op == "max_nil":
        return lambda: cl.cartier.max_nilpotent_submodule(mod)
    if op == "sol":
        return lambda: cl.sol_dimension(mod, job["m"])
    if op == "round_trip":
        def round_trip():
            sheaf = cl.cartier_to_gamma(mod)
            return sheaf, cl.gamma_to_cartier(sheaf)
        return round_trip
    if op == "unit_root":
        return lambda: cl.unit_root_stabilize(cl.cartier_to_gamma(mod))
    g = mod.ring.parse(job["g"])
    if op == "torsion":
        return lambda: cl.torsion_gamma_Z(mod, g)
    if op == "localize":
        return lambda: cl.open_pullback(mod, g)
    if op == "ie":
        return lambda: cl.intermediate_extension(cl.open_pullback(mod, g))
    raise ValueError(f"unknown chains op {op!r}")


def _answer_chains(job, res, prep):
    op = job["op"]
    if op == "is_nilpotent":
        return {"nilpotent": res[0], "order": res[1]}
    if op == "stable_image":
        sub, incl, chain = res
        return {
            "rank": sub.rank,
            "chain": [len(step) for step in chain],
            "generators": [vec_str(v) for v in incl.images],
        }
    if op == "max_nil":
        return {
            "generators": [vec_str(v) for v in res["generators"]],
            "order": res["order"],
            "partial": res["partial"],
        }
    if op == "sol":
        return {"dims": list(res)}
    if op == "round_trip":
        sheaf, back = res
        return {
            "gamma": [vec_str(row) for row in sheaf.gamma_matrix],
            "table_equal": back.kappa_table == prep.docs[job["mod"]].kappa_table,
        }
    if op == "unit_root":
        return {
            "rank": res.root.rank,
            "e_star": res.e_star,
            "injective": res.injective_verified,
            "gamma": [vec_str(row) for row in res.root.gamma_matrix],
        }
    if op == "torsion":
        return {
            "generators": [vec_str(v) for v in res["generators"]],
            "exponent": res["exponent"],
        }
    if op == "localize":
        return {
            "torsion": [vec_str(v) for v in res.torsion["generators"]],
            "relations": [vec_str(v) for v in res.quotient.relations],
        }
    return {
        "lattice": [vec_str(v) for v in res.lattice.generator_rows()],
        "k": res.lattice.k,
        "checks": dict(sorted(res.checks.items())),
        "indices": dict(sorted(res.indices.items())),
        "crystal_zero": res.crystal_zero,
    }


# ---------------------------------------------------------------------------
# multivar
# ---------------------------------------------------------------------------


def _build_multivar(prep, job):
    op = job["op"]
    if op in ("buchberger", "membership", "regular"):
        ring = ring_of(job["ring"])
    else:
        ring = prep.docs[job["mod"]].ring
    if op == "buchberger":
        gens = [ring.parse(s) for s in job["gens"]]
        return lambda: cl.poly.buchberger(gens)
    if op == "membership":
        gens = [ring.parse(s) for s in job["gens"]]
        members = []
        for cofactors in job["cofactors"]:
            f = ring.zero
            for h, g in zip(cofactors, gens):
                f = f + ring.parse(h) * g
            members.append(f)
        tests = members + [ring.parse(s) for s in job["others"]]

        def membership():
            ideal = cl.IdealSpec(ring, gens)
            return ideal, [ideal.contains(f) for f in tests]
        return membership
    if op == "regular":
        seq = [ring.parse(s) for s in job["seq"]]
        return lambda: cl.is_regular_sequence(seq, ring)
    mod = prep.docs[job["mod"]]
    if op == "koszul":
        seq = [ring.parse(s) for s in job["seq"]]
        return lambda: cl.koszul_pullback(mod, seq)
    if "quotient" in job:
        mod = cl.koszul_pullback(mod, [ring.parse(s) for s in job["quotient"]])
    elems = [(ring.parse(s),) for s in job["elems"]]
    return lambda: [mod.apply_kappa(v) for v in elems]


def _answer_multivar(job, res, prep):
    op = job["op"]
    if op == "buchberger":
        return {"basis": [str(g) for g in res]}
    if op == "membership":
        ideal, flags = res
        return {"basis": [str(g) for g in ideal.groebner], "members": flags}
    if op == "regular":
        return {"regular": res}
    if op == "koszul":
        return {
            "table": table_str(res),
            "ideal": [str(g) for g in res.ideal.groebner],
        }
    return {"images": [vec_str(v) for v in res]}


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def _build_cli(prep, job):
    argv = [job["op"]] + [doc_path(n) for n in job["docs"]]
    argv += job["flags"] + ["--no-timings"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _answer_cli(job, res, prep):
    code, report = res
    return {"exit": code, "report": report}


BUILDERS = {
    "finite-hom": _build_hom,
    "chains": _build_chains,
    "multivar": _build_multivar,
    "cli-batch": _build_cli,
}

_ANSWERS = {
    "finite-hom": _answer_hom,
    "chains": _answer_chains,
    "multivar": _answer_multivar,
    "cli-batch": _answer_cli,
}


def answer(prep, job, res):
    return _ANSWERS[prep.workload](job, res, prep)
