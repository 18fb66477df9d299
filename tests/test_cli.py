"""Tests for the batch command-line frontend.

Every operation prints one canonical-JSON report to stdout and a
one-line summary to stderr.  Exit codes: 0 success, 2 validation or
parse error, 3 a chain failed to stabilize within the cap, 4 internal
invariant violation (with a reproduction bundle written to the working
directory)."""

import glob
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cartier_lab import cli, poly
from cartier_lab.cli import main
from cartier_lab.errors import InvariantViolation

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
JORDAN2 = str(EXAMPLES / "jordan2.json")
OMEGA_LINE = str(EXAMPLES / "omega_line.json")
OMEGA_TWIST = str(EXAMPLES / "omega_twist_x.json")
POINT_OMEGA = str(EXAMPLES / "point_omega.json")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


def test_validate_module_report(capsys):
    code, rep, err = report(capsys, ["validate", OMEGA_LINE, "--no-timings"])
    assert code == 0
    assert rep["operation"] == "validate"
    assert rep["result"] == {
        "valid": True,
        "kind": "module",
        "rank": 1,
        "ring": {"p": 2, "e": 1, "vars": ["x"]},
    }
    assert "valid module of rank 1" in err


def test_report_records_input_digest(capsys):
    code, rep, _ = report(capsys, ["validate", OMEGA_LINE, "--no-timings"])
    assert code == 0
    digest = rep["inputs_digest"]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_kappa_apply_top_form(capsys):
    code, rep, err = report(
        capsys,
        ["kappa-apply", OMEGA_LINE, "--elem", "x^3*dx", "--no-timings"],
    )
    assert code == 0
    assert rep["result"] == {"input": "x^3*dx", "output": "x*dx"}
    assert "x*dx" in err


def test_nilpotency_jordan_block(capsys):
    code, rep, err = report(capsys, ["nilpotency", JORDAN2, "--no-timings"])
    assert code == 0
    assert rep["result"] == {"nilpotent": True, "order": 2}
    assert "nilpotent=True order=2" in err


def test_nilpotency_point_not_nilpotent(capsys):
    code, rep, _ = report(capsys, ["nilpotency", POINT_OMEGA, "--no-timings"])
    assert code == 0
    assert rep["result"] == {"nilpotent": False, "order": None}


def test_stable_image_chain_shrinks_to_zero(capsys):
    code, rep, _ = report(capsys, ["stable-image", JORDAN2, "--no-timings"])
    assert code == 0
    assert rep["result"]["chain_lengths"] == [2, 1, 0]
    assert rep["result"]["generators"] == []
    assert rep["result"]["rank"] == 0


def test_hom_jordan_block_to_itself(capsys):
    code, rep, _ = report(capsys, ["hom", JORDAN2, JORDAN2, "--no-timings"])
    assert code == 0
    assert rep["result"]["dimension_fp"] == 2
    assert rep["result"]["partial"] is False
    assert len(rep["result"]["basis"]) == 2


def test_to_gamma_then_from_gamma_roundtrip(capsys, tmp_path):
    code, rep, _ = report(capsys, ["to-gamma", JORDAN2, "--no-timings"])
    assert code == 0
    sheaf_doc = rep["result"]
    assert sheaf_doc["gamma"] == [["0", "1"], ["0", "0"]]
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(sheaf_doc), encoding="utf-8")

    code, rep, _ = report(capsys, ["from-gamma", str(path), "--no-timings"])
    assert code == 0
    recovered = rep["result"]
    original = json.loads(Path(JORDAN2).read_text(encoding="utf-8"))
    for key in ("generators", "relations", "ring", "kappa"):
        assert recovered[key] == original[key]


def test_unit_root_of_point_form(capsys):
    code, rep, _ = report(capsys, ["unit-root", POINT_OMEGA, "--no-timings"])
    assert code == 0
    assert rep["result"]["e_star"] == 0
    assert rep["result"]["root"]["gamma"] == [["1"]]
    assert rep["result"]["injective_verified"] is True
    assert rep["certificates"]["stabilized_at"] == 0


def test_koszul_pullback_cuts_out_origin(capsys):
    code, rep, _ = report(
        capsys,
        ["koszul-pullback", OMEGA_LINE, "--seq", "x", "--no-timings"],
    )
    assert code == 0
    assert rep["result"]["ideal"] == ["x"]
    assert rep["result"]["kappa"] == {"0,0": ["1"], "1,0": ["0"]}


def test_seq_change_identity_sequence(capsys):
    code, rep, _ = report(
        capsys,
        ["seq-change", OMEGA_LINE, "--seq", "x", "--seq2", "x", "--no-timings"],
    )
    assert code == 0
    assert rep["result"] == {
        "matrix": [["1"]],
        "determinant": "1",
        "relation_verified": True,
    }


def test_localize_torsion_free_module(capsys):
    code, rep, _ = report(
        capsys,
        ["localize", OMEGA_TWIST, "--g", "x", "--no-timings"],
    )
    assert code == 0
    assert rep["result"]["torsion_generators"] == []
    assert rep["result"]["quotient"]["generators"] == 1


def test_gamma_z_of_torsion_free_module_is_zero(capsys):
    code, rep, _ = report(
        capsys,
        ["gamma-z", OMEGA_LINE, "--g", "x", "--no-timings"],
    )
    assert code == 0
    assert rep["result"]["generators"] == []
    assert rep["result"]["module"]["generators"] == 0


def test_sol_dimensions_of_point_form(capsys):
    code, rep, _ = report(capsys, ["sol", POINT_OMEGA, "--no-timings"])
    assert code == 0
    assert rep["result"] == {"dims": [1, 1, 1, 1]}


def test_sol_respects_max_m(capsys):
    code, rep, _ = report(
        capsys, ["sol", POINT_OMEGA, "--max-m", "2", "--no-timings"]
    )
    assert code == 0
    assert rep["result"] == {"dims": [1, 1]}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_share_no_state(capsys):
    """The shared parser keeps no answer of one call for the next: an
    explicit --max-m does not become the default, and an argparse error
    does not carry over."""
    code, rep, _ = report(
        capsys, ["sol", POINT_OMEGA, "--max-m", "2", "--no-timings"]
    )
    assert (code, rep["result"]) == (0, {"dims": [1, 1]})
    code, rep, _ = report(capsys, ["sol", POINT_OMEGA, "--no-timings"])
    assert (code, rep["result"]) == (0, {"dims": [1, 1, 1, 1]})
    code, _, _ = run_cli(capsys, ["sol", POINT_OMEGA, "--max-m", "two"])
    assert code == 2
    code, rep, _ = report(capsys, ["sol", POINT_OMEGA, "--no-timings"])
    assert (code, rep["result"]) == (0, {"dims": [1, 1, 1, 1]})


@pytest.mark.parametrize("doc, dims", [(JORDAN2, [0] * 4),
                                       (POINT_OMEGA, [1] * 4)],
                         ids=["jordan2", "point"])
def test_sol_takes_no_iteration_cap(capsys, monkeypatch, doc, dims):
    """sol counts fixed vectors without a chain, so a cap of 1 from the
    flag or the environment changes nothing (jordan2's kernel chain needs
    two steps)."""
    code, rep, _ = report(capsys, ["sol", doc, "--no-timings"])
    assert (code, rep["result"]) == (0, {"dims": dims})
    code, rep, _ = report(capsys, ["sol", doc, "--max-iter", "1",
                                   "--no-timings"])
    assert (code, rep["result"]) == (0, {"dims": dims})
    monkeypatch.setenv("CARTIER_LAB_MAX_ITER", "1")
    code, rep, _ = report(capsys, ["sol", doc, "--no-timings"])
    assert (code, rep["result"]) == (0, {"dims": dims})


def test_ie_twisted_form_lattice_display(capsys):
    code, rep, err = report(
        capsys, ["ie", OMEGA_TWIST, "--g", "x", "--no-timings"]
    )
    assert code == 0
    cert = rep["result"]
    assert cert["lattice"]["generator_display"] == ["x*dx"]
    assert cert["indices"] == {"e_star": 0, "k_star": 1}
    assert all(cert["checks"].values())
    assert "x*dx" in err


def test_oracle_confirms_minimality(capsys):
    code, rep, _ = report(
        capsys, ["oracle", OMEGA_TWIST, "--g", "x", "--no-timings"]
    )
    assert code == 0
    assert rep["result"] == {"skipped": False, "minimal": True}
    assert rep["certificates"]["indices"] == {"e_star": 0, "k_star": 1}


@pytest.mark.parametrize("g", ["x", "x+1"])
def test_ie_of_top_forms_plus_a_nilpotent_generator(capsys, tmp_path, g):
    """Top forms plus a free e2 with kappa = 0 on it, over F_2[x]: as a
    crystal this is the top forms, and the minimal extension is the lattice
    of e1, one saturation step from g*e1."""
    zero = ["0", "0"]
    doc = {
        "ring": {"p": 2, "e": 1, "vars": ["x"]},
        "generators": 2,
        "relations": [],
        "kappa": {"0,0": zero, "1,0": ["1", "0"], "0,1": zero, "1,1": zero},
    }
    path = tmp_path / "omega_plus_e2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["ie", str(path), "--g", g, "--no-timings"])
    assert code == 0
    cert = rep["result"]
    assert cert["lattice"]["generators"] == [["1", "0"]]
    assert cert["lattice"]["generator_display"] == ["e1"]
    assert cert["indices"] == {"e_star": 1, "k_star": 1}
    assert all(cert["checks"].values()) and not cert["crystal_zero"]


def _omega_square(tmp_path):
    """Top forms twice over F_3[x]: at the default truncation (degree 4)
    its oracle model has 3^10 vectors, at degree 0 only 3^2."""
    doc = {
        "ring": {"p": 3, "e": 1, "vars": ["x"]},
        "generators": 2,
        "kappa": {
            f"{a},{j}": ["1" if a == 2 and i == j else "0" for i in range(2)]
            for a in range(3)
            for j in range(2)
        },
        "relations": [],
    }
    path = tmp_path / "omega_square.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "flags,result",
    [
        ([], {"skipped": False, "minimal": True}),
        (["--truncate", "0"], {"skipped": True, "reason":
         "minimality oracle skipped: inconclusive within 0 test sums"}),
        # the certified lattice is its own first test sum, so a huge
        # bound costs one saturation
        (["--truncate", "3000000"], {"skipped": False, "minimal": True}),
    ],
)
def test_oracle_truncation_defaults_to_4_only_when_absent(
    capsys, tmp_path, flags, result
):
    code, rep, _ = report(
        capsys,
        ["oracle", _omega_square(tmp_path), "--g", "x", "--no-timings"]
        + flags,
    )
    assert code == 0
    assert rep["result"] == result


@pytest.mark.parametrize("operation", ["oracle", "hom"])
def test_negative_truncation_is_validation_error(capsys, tmp_path, operation):
    path = _omega_square(tmp_path)
    inputs = [path] if operation == "oracle" else [path, path]
    code, rep, _ = report(
        capsys,
        [operation, *inputs, "--g", "x", "--truncate", "-1", "--no-timings"],
    )
    assert code == 2
    assert rep["error"] == {
        "type": "validation", "message": "--truncate must be >= 0"
    }


@pytest.mark.parametrize(
    "argv_tail",
    [
        ["--g", "x -"],
        ["--g", "x + ?"],
    ],
)
def test_bad_polynomial_is_validation_error(capsys, argv_tail):
    code, rep, _ = report(
        capsys, ["gamma-z", OMEGA_LINE, "--no-timings"] + argv_tail
    )
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert "--g" in rep["error"]["message"]


def test_malformed_json_is_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(bad), "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"


def test_non_integer_table_key_is_validation_error(capsys, tmp_path):
    doc = json.loads(Path(JORDAN2).read_text(encoding="utf-8"))
    doc["kappa"]["zz,0"] = doc["kappa"].pop(",0")
    bad = tmp_path / "bad_key.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(bad), "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert "zz,0" in rep["error"]["message"]


def test_non_integer_iteration_cap_env_is_validation_error(
    capsys, monkeypatch
):
    monkeypatch.setenv("CARTIER_LAB_MAX_ITER", "abc")
    code, rep, _ = report(capsys, ["nilpotency", JORDAN2, "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert "CARTIER_LAB_MAX_ITER" in rep["error"]["message"]


@pytest.mark.parametrize(
    "env, flags",
    [("0", []), ("-1", []), (None, ["--max-iter", "0"]),
     (None, ["--max-iter", "-1"])],
    ids=["env-0", "env-minus-1", "flag-0", "flag-minus-1"],
)
def test_non_positive_iteration_cap_is_validation_error(
    capsys, monkeypatch, env, flags
):
    if env is not None:
        monkeypatch.setenv("CARTIER_LAB_MAX_ITER", env)
    code, rep, _ = report(
        capsys, ["nilpotency", JORDAN2, "--no-timings"] + flags
    )
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert "positive integer" in rep["error"]["message"]


SHEAF_DOC = {
    "ring": {"p": 2, "e": 1, "vars": ["x"]},
    "rank": 2,
    "gamma": [["1", "0"], ["0", "x"]],
    "relations": [],
    "generator_names": ["u", "v"],
}


def _module_doc():
    return json.loads(Path(OMEGA_LINE).read_text(encoding="utf-8"))


def _sheaf_doc():
    return json.loads(json.dumps(SHEAF_DOC))


@pytest.mark.parametrize("kind", ["module", "sheaf"])
@pytest.mark.parametrize(
    "field,value",
    [("relations", "abc"), ("ideal", "x"), ("generator_names", "ab")],
)
def test_string_in_place_of_a_list_is_validation_error(
    capsys, tmp_path, kind, field, value
):
    """A string is not read one character at a time as a list."""
    doc = _module_doc() if kind == "module" else _sheaf_doc()
    doc[field] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(path), "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert f"'{field}' must be a JSON list" in rep["error"]["message"]


@pytest.mark.parametrize("kind", ["module", "sheaf"])
def test_string_in_place_of_a_vector_is_validation_error(
    capsys, tmp_path, kind
):
    if kind == "module":
        doc, field = _module_doc(), "'kappa' entry '1,0'"
        doc["kappa"]["1,0"] = "1"
    else:
        doc, field = _sheaf_doc(), "'gamma' row 1"
        doc["gamma"][1] = "0x"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(path), "--no-timings"])
    assert code == 2
    assert rep["error"]["message"] == f"{field} must be a JSON list"


@pytest.mark.parametrize("kind", ["module", "sheaf"])
@pytest.mark.parametrize("key", ["p", "e", "rank"])
@pytest.mark.parametrize("value", [2.9, 1.0, True, "2"],
                         ids=["float", "integral-float", "bool", "string"])
def test_non_integer_ring_or_rank_is_validation_error(
    capsys, tmp_path, kind, key, value
):
    """p, e and the rank key must be JSON integers: 2.9 is not read as 2,
    true as 1, or "2" as 2."""
    doc = _module_doc() if kind == "module" else _sheaf_doc()
    if key == "rank":
        key = "generators" if kind == "module" else "rank"
        doc[key] = value
    else:
        doc["ring"][key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(path), "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert repr(key) in rep["error"]["message"]


@pytest.mark.parametrize(
    "value,message",
    [("xy", "'vars' must be a JSON list"),
     ({"x": 1}, "'vars' must be a JSON list"),
     (2, "'vars' must be a JSON list"),
     (["x", 1], "'vars' must hold strings")],
    ids=["string", "dict", "number", "non-string-entry"],
)
def test_ring_vars_must_be_a_list_of_strings(capsys, tmp_path, value, message):
    """The string "xy" is not read as the two variables x and y."""
    doc = {"ring": {"p": 2, "e": 1, "vars": value}, "generators": 0,
           "kappa": {}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = report(capsys, ["validate", str(path), "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert rep["error"]["message"] == message


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(tmp_path, doc, operation):
    """Run one CLI operation on ``doc`` in a subprocess limited to 1 GiB of
    address space."""
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-m", "cartier_lab.cli", operation, str(path),
         "--no-timings"],
        capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "rank,kappa,exit_code",
    [(0, {}, 0), (1, {"0 0 0,0": ["0"]}, 2)],
)
def test_large_prime_table_is_checked_without_listing_exponents(
    tmp_path, rank, kappa, exit_code
):
    """Over F_401[a,b,c] there are 401^3 exponent vectors.  The table keys
    are checked by shape and count, so validation stays small and fast;
    run in a subprocess limited to 1 GiB of address space."""
    doc = {"ring": {"p": 401, "e": 1, "vars": ["a", "b", "c"]},
           "generators": rank, "kappa": kappa}
    proc = _run_limited(tmp_path, doc, "validate")
    assert proc.returncode == exit_code, proc.stderr
    rep = json.loads(proc.stdout)
    if exit_code == 0:
        assert rep["result"]["valid"] and rep["result"]["rank"] == 0
    else:
        assert "kappa table keys mismatch" in rep["error"]["message"]


def test_operator_table_size_is_capped_before_it_is_built(tmp_path):
    """from-gamma over F_401[x,y,z] would list 401^3 exponent vectors for a
    rank-1 table; the p^n * rank cap refuses it first, with exit 2."""
    doc = {"ring": {"p": 401, "e": 1, "vars": ["x", "y", "z"]},
           "rank": 1, "relations": [], "gamma": [["1"]]}
    proc = _run_limited(tmp_path, doc, "from-gamma")
    assert proc.returncode == 2, proc.stderr
    message = json.loads(proc.stdout)["error"]["message"]
    assert "64481201 entries exceeds 1048576 (TABLE_CAP)" in message


def test_rank_zero_conversion_never_lists_exponents(tmp_path):
    """to-gamma of the rank-0 module over F_401[a,b,c] iterates the (empty)
    table, not the 401^3 exponent vectors."""
    doc = {"ring": {"p": 401, "e": 1, "vars": ["a", "b", "c"]},
           "generators": 0, "kappa": {}}
    proc = _run_limited(tmp_path, doc, "to-gamma")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["rank"] == 0


@pytest.mark.parametrize("kind", ["module", "sheaf"])
def test_huge_rank_is_checked_before_names_are_built(tmp_path, kind):
    """A rank of 10^8 with an empty map exits 2 without building 10^8
    default generator names."""
    doc = {"ring": {"p": 2, "e": 1, "vars": []}}
    if kind == "module":
        doc.update(generators=10**8, kappa={})
        message = "kappa table keys mismatch"
    else:
        doc.update(rank=10**8, gamma=[])
        message = "'gamma' must be a rank x rank matrix"
    proc = _run_limited(tmp_path, doc, "validate")
    assert proc.returncode == 2, proc.stderr
    assert message in json.loads(proc.stdout)["error"]["message"]


# kappa of the rank-2 module over F_4 whose gamma is [[0, 1], [t, 0]]
F4_RANK2 = {"ring": {"p": 2, "e": 2, "vars": []}, "generators": 2,
            "relations": [], "kappa": {",0": ["0", "(t+1)"], ",1": ["1", "0"]}}

_TIMED_MAIN = (
    "import sys, time\n"
    "from cartier_lab.cli import main\n"
    "t0 = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(f'elapsed {time.perf_counter() - t0}\\n')\n"
    "sys.exit(code)\n"
)


def _run_timed(argv, preexec_fn=None):
    """Run ``cartier-lab argv`` in a subprocess; returns the process and
    the seconds spent in ``main``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN] + argv + ["--no-timings"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=preexec_fn,
    )
    elapsed = float(proc.stderr.rsplit("elapsed ", 1)[1])
    return proc, elapsed


def _run_sol(tmp_path, max_m):
    """``sol --max-m max_m`` on the F_4 rank-2 document in a subprocess."""
    path = tmp_path / "f4_rank2.json"
    path.write_text(json.dumps(F4_RANK2), encoding="utf-8")
    return _run_timed(["sol", str(path), "--max-m", str(max_m)])


@pytest.mark.parametrize("max_m", [17, 10**9])
def test_sol_extension_over_the_cap_exits_2_quickly(tmp_path, max_m):
    """F_(4^17) has 2^34 elements, over the 2^32 cap; the cap is checked
    before any work, and 4^(10^9) is never evaluated."""
    proc, elapsed = _run_sol(tmp_path, max_m)
    assert proc.returncode == 2, proc.stderr
    assert elapsed < 1.0
    assert "exceeds 2^32" in json.loads(proc.stdout)["error"]["message"]


def test_sol_over_f4_keeps_its_dimensions_up_to_m_12(tmp_path):
    proc, _ = _run_sol(tmp_path, 12)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == [0, 0, 2] * 4


def test_sol_over_f4_at_the_cap_edge_m_16(tmp_path):
    """4^16 = 2^32 is the largest q^m the cap admits; no F_(4^16) is
    built, so the run ends within the bound of the over-cap runs."""
    proc, elapsed = _run_sol(tmp_path, 16)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == [0, 0, 2] * 5 + [0]
    assert elapsed < 1.0


def _truncated_line(tmp_path, n):
    """F_2[x]/(x^n) with kappa(x^(2a)) = 0 and kappa(x^(2a+1)) = x^(a+n),
    that is kappa = 0: every F_2[x]-linear endomorphism commutes with it,
    so Hom from it to itself has F_2-dimension n."""
    doc = {"ring": {"p": 2, "e": 1, "vars": ["x"]}, "generators": 1,
           "relations": [[f"x^{n}"]],
           "kappa": {"0,0": ["0"], "1,0": [f"x^{n}"]}}
    path = tmp_path / f"line_{n}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_hom_of_a_300_dimensional_module_answers_under_1_gib(tmp_path):
    """The Hom system of F_2[x]/(x^300) with itself has 900 x 300 cells."""
    path = _truncated_line(tmp_path, 300)
    proc, elapsed = _run_timed(["hom", path, path], _limit_address_space)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["dimension_fp"] == 300
    assert result["partial"] is False
    assert elapsed < 2.0


def test_hom_over_the_cell_cap_exits_2_quickly(tmp_path):
    """At x^3000 the system would have 9000 x 3000 cells, over
    HOM_CELL_CAP; the cap is checked before any block is built."""
    path = _truncated_line(tmp_path, 3000)
    proc, elapsed = _run_timed(["hom", path, path], _limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0
    assert "HOM_CELL_CAP" in json.loads(proc.stdout)["error"]["message"]


def test_field_over_the_size_cap_exits_2_quickly(capsys, tmp_path):
    doc = {"ring": {"p": 101, "e": 6, "vars": []}, "generators": 0, "kappa": {}}
    path = tmp_path / "big_field.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    t0 = time.perf_counter()
    code, rep, _ = report(capsys, ["validate", str(path), "--no-timings"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds 65536" in rep["error"]["message"]


def _line_with_kappa(tmp_path, image):
    doc = {"ring": {"p": 2, "e": 1, "vars": ["x"]}, "generators": 1,
           "kappa": {"0,0": [image], "1,0": ["0"]}}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "image,message",
    [("x^4294967296", "exceeds the cap 2^32 - 1"),
     ("x^" + "9" * 5000, "unreadable integer"),
     ("x^\u00b2", "unreadable integer")],
)
def test_degree_over_the_cap_exits_2(capsys, tmp_path, image, message):
    path = _line_with_kappa(tmp_path, image)
    code, rep, err = report(capsys, ["validate", path, "--no-timings"])
    assert code == 2
    assert "Traceback" not in err
    assert message in rep["error"]["message"]


def test_degree_under_the_cap_validates_and_converts(capsys, tmp_path):
    path = _line_with_kappa(tmp_path, "x^1000000000")
    code, rep, _ = report(capsys, ["validate", path, "--no-timings"])
    assert code == 0 and rep["result"]["valid"]
    code, rep, _ = report(capsys, ["to-gamma", path, "--no-timings"])
    assert code == 0
    assert rep["result"]["gamma"] == [["x^2000000001"]]


def test_buchberger_pair_cap_exits_2(capsys, tmp_path, monkeypatch):
    """koszul-pullback of the top forms on F_3[x,y] along (x*y+1, x^2+y)
    reduces S-pairs; with the pair cap at 0 it exits 2 with no traceback."""
    kappa = {f"{a} {b},0": ["1" if (a, b) == (2, 2) else "0"]
             for a in range(3) for b in range(3)}
    doc = {"ring": {"p": 3, "e": 1, "vars": ["x", "y"]}, "generators": 1,
           "kappa": kappa}
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["koszul-pullback", str(path), "--seq", "x*y+1,x^2+y", "--no-timings"]
    code, _, _ = report(capsys, argv)
    assert code == 0
    monkeypatch.setattr(poly, "_BUCHBERGER_PAIR_CAP", 0)
    code, rep, err = report(capsys, argv)
    assert code == 2
    assert "Traceback" not in err
    assert "pair cap" in rep["error"]["message"]


def test_missing_file_is_validation_error(capsys, tmp_path):
    code, rep, _ = report(
        capsys, ["validate", str(tmp_path / "absent.json"), "--no-timings"]
    )
    assert code == 2
    assert rep["error"]["type"] == "validation"


def test_missing_required_flag_is_validation_error(capsys):
    code, rep, _ = report(capsys, ["gamma-z", OMEGA_LINE, "--no-timings"])
    assert code == 2
    assert rep["error"]["type"] == "validation"
    assert "--g" in rep["error"]["message"]


def test_unknown_operation_is_validation_error(capsys):
    code = main(["frobnicate", OMEGA_LINE])
    capsys.readouterr()
    assert code == 2


def test_tiny_iteration_cap_reports_non_stabilized(capsys):
    """Top forms over F_2[x] at g = x^2: the saturation from g*dx needs two
    steps, kappa(x^3 dx) = x dx and kappa(x dx) = dx."""
    code, rep, _ = report(
        capsys,
        ["ie", OMEGA_LINE, "--g", "x^2", "--max-iter", "1", "--no-timings"],
    )
    assert code == 3
    assert rep["error"]["type"] == "non_stabilized"
    assert rep["error"]["cap"] == 1
    assert rep["error"]["partial_length"] == 2


@pytest.mark.parametrize("operation", ["nilpotency", "unit-root"])
def test_one_cap_means_the_same_steps_in_every_chain(capsys, operation):
    """The image chain (nilpotency) and the kernel chain of gamma
    (unit-root) of jordan2 both stop after one step under a cap of 1."""
    code, rep, _ = report(
        capsys, [operation, JORDAN2, "--max-iter", "1", "--no-timings"]
    )
    assert code == 3
    assert rep["error"]["type"] == "non_stabilized"
    assert rep["error"]["cap"] == 1
    assert rep["error"]["partial_length"] == 2


def test_iteration_cap_from_the_environment_reports_the_partial_chain(
    capsys, monkeypatch
):
    """With a cap of 1 the image chain of jordan2 stops at its first two
    members, M and kappa(M); the report says how far it got."""
    monkeypatch.setenv("CARTIER_LAB_MAX_ITER", "1")
    code, rep, _ = report(capsys, ["stable-image", JORDAN2, "--no-timings"])
    assert code == 3
    assert rep["error"]["type"] == "non_stabilized"
    assert rep["error"]["cap"] == 1
    assert rep["error"]["partial_length"] == 2


def test_invariant_violation_writes_reproduction_bundle(
    capsys, tmp_path, monkeypatch
):
    def boom(args):
        raise InvariantViolation("synthetic failure for bundle test")

    monkeypatch.setitem(cli.OPERATIONS, "nilpotency", (boom, 1))
    monkeypatch.chdir(tmp_path)
    code, rep, err = report(capsys, ["nilpotency", JORDAN2, "--no-timings"])
    assert code == 4
    assert rep["error"]["type"] == "invariant_violation"
    assert "invariant violation" in err

    bundles = glob.glob(str(tmp_path / "cartier-lab-repro-*.json"))
    assert len(bundles) == 1
    assert rep["error"]["reproduction_bundle"] == Path(bundles[0]).name
    bundle = json.loads(Path(bundles[0]).read_text(encoding="utf-8"))
    assert bundle["argv"] == ["nilpotency", JORDAN2, "--no-timings"]
    assert bundle["error"]["type"] == "InvariantViolation"
    assert JORDAN2 in bundle["inputs"]


@pytest.mark.parametrize(
    "argv",
    [
        ["nilpotency", JORDAN2],
        ["ie", OMEGA_TWIST, "--g", "x"],
        ["sol", POINT_OMEGA],
        ["hom", JORDAN2, JORDAN2],
    ],
)
def test_reports_byte_identical_across_runs(capsys, argv):
    full = argv + ["--no-timings"]
    code_a, out_a, _ = run_cli(capsys, full)
    code_b, out_b, _ = run_cli(capsys, full)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.endswith("\n")


def test_timings_present_unless_suppressed(capsys):
    _, rep_with, _ = report(capsys, ["validate", OMEGA_LINE])
    _, rep_without, _ = report(capsys, ["validate", OMEGA_LINE, "--no-timings"])
    assert rep_with["timings"]["total_s"] >= 0
    assert "timings" not in rep_without


def test_module_invocation_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cartier_lab.cli", "nilpotency", JORDAN2,
         "--no-timings"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"] == {"nilpotent": True, "order": 2}
    assert "nilpotent=True" in proc.stderr


@pytest.mark.skipif(
    shutil.which("cartier-lab") is None,
    reason="console script not on PATH",
)
def test_console_script_entry_point():
    proc = subprocess.run(
        ["cartier-lab", "sol", POINT_OMEGA, "--no-timings"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == {"dims": [1, 1, 1, 1]}


def test_console_script_is_declared_for_cli_main():
    """The installed ``cartier-lab`` script runs ``cartier_lab.cli:main``;
    checked from pyproject.toml, so it needs no install."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["cartier-lab"] == "cartier_lab.cli:main"
    module_name, _, attr = scripts["cartier-lab"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main
