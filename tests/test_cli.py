import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import realspec
from realspec.cli import build_parser, main
from realspec.parsing import MAX_EXPONENT, MAX_POWER_SIZE, parse_poly, parse_ring

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_real_radical(self, capsys):
        code, out, _ = run(capsys, "real-radical", "--ring", "Q[x]", "x^2*(x^2+1)")
        assert code == 0
        assert out.strip() == "x"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--ring", "Q[x]/(x^2)")
        assert code == 0
        assert out.strip() == "real=false semireal=true"

    def test_sturm(self, capsys):
        code, out, _ = run(capsys, "sturm", "x^3-x")
        assert (code, out.strip()) == (0, "3")

    def test_factor_json(self, capsys):
        code, out, _ = run(capsys, "factor", "--json", "x^4-1")
        doc = json.loads(out)
        assert code == 0
        assert doc["unit"] == "1"
        assert [f["poly"] for f in doc["factors"]] == ["x - 1", "x + 1", "x^2 + 1"]

    def test_primes(self, capsys):
        code, out, _ = run(capsys, "primes", "--ring", "Q[x]/(x^2-x)")
        assert code == 0
        assert out.splitlines() == ["(x - 1)", "(x)"]

    def test_real_part(self, capsys):
        code, out, _ = run(capsys, "real-part", "x^2*(x^2+1)")
        assert (code, out.strip()) == (0, "x")

    def test_vset(self, capsys):
        code, out, _ = run(capsys, "vset", "union", "x-1", "x+1")
        assert (code, out.strip()) == (0, "x^2 - 1")
        code, out, _ = run(capsys, "vset", "subset", "x-1", "x^2-1")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "vset", "intersect", "x^2-1", "x*(x-1)")
        assert (code, out.strip()) == (0, "x - 1")


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "sturm", "x^^2")
        assert code == 2
        assert "column 3" in err

    def test_number_longer_than_int_reads(self, capsys):
        code, out, err = run(capsys, "sturm", "1" + "0" * 4400 + "*x+1")
        assert (code, out) == (2, "")
        assert "column 1" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [("real-part", "(2^20000+1)*x+1"), ("cert", "find", "x^2+1", "(2^8000)*x")]
    )
    def test_coefficient_too_long_to_print(self, capsys, argv):
        # the second input prints; its cofactor 2^16000 does not
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "more than 4300 digits to print" in err

    def test_nonreal_factor_is_not_a_prime(self, capsys):
        ring = "Q[x]/((x-1)*(x^2+1))"
        argv = ("section", "stalk", "--ring", ring, "--f", "1", "--patch", "1:1", "--prime")
        code, out, err = run(capsys, *argv, "x^2+1")
        assert (code, out) == (3, "")
        assert "(x^2 + 1) is not a real prime of Q[x]/(x^3 - x^2 + x - 1)" in err
        assert run(capsys, *argv, "x-1")[:2] == (0, "1 / 1 at (x - 1)\n")

    @pytest.mark.parametrize(
        "ring, f, patch, prime", [("Q[x]", "x", "0:1", "0"), ("Q[x]/(x^3-x)", "1", "x:1", "x")]
    )
    def test_no_patch_covers_the_prime(self, capsys, ring, f, patch, prime):
        # data that is no section: the one patch's denominator lies in the prime
        argv = ("section", "stalk", "--ring", ring, "--f", f, "--patch", patch, "--prime", prime)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: no patch covers the prime ({prime})\n"

    def test_nested_power_degree(self, capsys):
        code, out, err = run(capsys, "sturm", "((x)^65536)^65536")
        assert (code, out) == (2, "")
        assert "column 13" in err

    def test_power_size_budget(self, capsys):
        code, out, err = run(capsys, "sturm", "(x+1)^1024")
        assert (code, out) == (2, "")
        assert "column 7" in err

    def test_product_size_budget(self, capsys):
        # each power is within budget, their product is not
        code, out, err = run(capsys, "sturm", "(x+1)^1023*(x+1)^1023")
        assert (code, out) == (2, "")
        assert "column 11" in err and "product has size" in err

    def test_expression_size_budget(self, capsys):
        # each product is within budget, five of them in one expression are not
        code, out, err = run(capsys, "sturm", "+".join(["(x+1)^511*(x+1)^512"] * 5))
        assert (code, out) == (2, "")
        assert "column 50" in err and "expression has size" in err

    def test_precondition_violation(self, capsys):
        code, _, err = run(capsys, "subcover", "--f", "x^2-1", "x+2")
        assert code == 3

    def test_zero_input(self, capsys):
        code, _, err = run(capsys, "sturm", "0")
        assert code == 3

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "no-such-command")
        assert exc.value.code == 2

    def test_deep_nesting(self, capsys):
        code, _, err = run(capsys, "sturm", "(" * 3000 + "x" + ")" * 3000)
        assert code == 2
        assert "column 101" in err

    def test_bad_ring_flag(self, capsys):
        code, _, err = run(capsys, "classify", "--ring", "Q[x]/(2*x)")
        assert code == 3

    def test_zero_modulus_refused(self, capsys):
        code, out, err = run(capsys, "classify", "--ring", "Q[x]/(0)")
        assert (code, out) == (3, "") and err.startswith("error: ")

    def test_removed_search_flags(self, capsys):
        # the certificate search and its bounds are gone, and so are their flags
        for flag in ("--m-max=3", "--sos-degree=2", "--coeff-bound=4"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "cert", "find", flag, "x^2+1", "1")
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


# each command with arguments it accepts, and the common flags it does not read
_VALID = {
    "factor": ["factor", "x^3-x"],
    "real-part": ["real-part", "x^3-x"],
    "sturm": ["sturm", "x^3-x"],
    "cert verify": ["cert", "verify", "-"],
    "explore-question": ["explore-question", "--trials", "0"],
    "real-radical": ["real-radical", "x^2"],
    "classify": ["classify"],
    "primes": ["primes", "--ring", "Q[x]/(x^2-x)"],
    "vset": ["vset", "union", "x", "x-1"],
    "cover": ["cover", "--f", "x", "x"],
    "subcover": ["subcover", "--f", "x", "x"],
    "cert find": ["cert", "find", "x^2+1", "1"],
    "section validate": ["section", "validate", "--f", "1", "--patch", "1:1"],
    "section glue": ["section", "glue", "--f", "1", "--patch", "1:1"],
    "section eq": ["section", "eq", "--f", "1", "--patch", "1:1", "--other", "1:1"],
    "section stalk": ["section", "stalk", "--f", "x", "--patch", "x:1", "--prime", "0"],
    "sigma-eq": ["sigma-eq", "--f", "1", "--num1", "1", "--num2", "1"],
}
_NO_RING = ("factor", "real-part", "sturm", "cert verify", "explore-question")
_UNREAD_FLAGS = [(c, "--ring=Q[x]/(x^2)") for c in _NO_RING] + [
    (c, "--seed=7") for c in _VALID if c != "explore-question"
]


class TestUnreadFlags:
    @pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
    def test_refused(self, capsys, monkeypatch, command, flag):
        if command == "cert verify":
            doc = run(capsys, *_CERT_COMMANDS["real-radical"])[1]
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(capsys, *_VALID[command])[0] == 0
        with pytest.raises(SystemExit) as exc:
            run(capsys, *_VALID[command], flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParserReuse:
    RUNS = (["cert", "find", "--no-such-flag", "x^2+1", "1"], ["cert", "find", "x^2+1", "1"])

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_command_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        in_process = []
        for argv in self.RUNS:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            in_process.append((code, out.out, out.err))
        src = str(Path(realspec.__file__).resolve().parents[1])
        env = {**os.environ, "COLUMNS": "80"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = []
        for argv in self.RUNS:
            proc = subprocess.run(
                [sys.executable, "-m", "realspec.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [2, 0]


class TestSections:
    def test_glue_worked_example(self, capsys):
        code, out, _ = run(
            capsys,
            "section", "glue",
            "--ring", "Q[x]/(x^2-x)",
            "--f", "1",
            "--patch", "x:x",
            "--patch", "x-1:0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x / 1"
        assert "coeffs=[1, -1]" in lines[1]

    def test_glue_over_non_real_quotient(self, capsys, monkeypatch):
        # the cross term x*(x+2) + 2*(x-1) is nonzero on the factor x^2 + 1, so
        # equalizing inside A alone never ends; the real idempotent kills it
        argv = [
            "section", "glue", "--ring", "Q[x]/((x-1)*(x+2)*(x^2+1))",
            "--f", "1", "--patch", "x-1:x", "--patch", "x+2:-2",
        ]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "-7/45*x^3 - 8/45*x^2 - 7/45*x - 8/45 / 1"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert run(capsys, "cert", "verify", "-") == (0, "verified: true\n", "")

    def test_validate(self, capsys):
        code, out, _ = run(
            capsys,
            "section", "validate", "--f", "1",
            "--patch", "1:x", "--patch", "1:x+1",
        )
        assert code == 0
        assert "valid: false" in out
        assert "(0, 1)" in out
        code, out, err = run(capsys, "section", "validate", "--f", "1", "--patch", "x")
        assert (code, out, err) == (2, "", "error: patch must look like <g>:<a> (column 1)\n")

    def test_stalk(self, capsys):
        code, out, _ = run(
            capsys,
            "section", "stalk",
            "--ring", "Q[x]/(x^2-x)",
            "--f", "1",
            "--patch", "x:x", "--patch", "x-1:0",
            "--prime", "x-1",
        )
        assert code == 0
        assert out.startswith("x / x at (x - 1)")

    def test_stalk_out_of_domain(self, capsys):
        code, _, err = run(
            capsys,
            "section", "stalk",
            "--ring", "Q[x]/(x^2-x)",
            "--f", "x",
            "--patch", "x:1",
            "--prime", "x",
        )
        assert code == 3

    def test_section_eq(self, capsys):
        code, out, _ = run(
            capsys,
            "section", "eq", "--f", "1",
            "--patch", "1:x",
            "--other", "1:x+1",
        )
        assert (code, out.strip()) == (0, "false")

    @pytest.mark.parametrize("other", ["x:x", "0:1"])
    def test_section_eq_refuses_non_sections(self, capsys, other):
        # D(x) and D(0) do not cover D(1): neither side is compared, either way round
        error = (3, "", "error: the local data is not a section\n")
        assert run(capsys, "section", "eq", "--f", "1", "--patch", "1:1", "--other", other) == error
        assert run(capsys, "section", "eq", "--f", "1", "--patch", other, "--other", "1:1") == error
        assert run(capsys, "section", "validate", "--f", "1", "--patch", other)[:2] == (
            0, "valid: false\ncover: false\n")

    def test_sigma_eq(self, capsys):
        code, out, _ = run(
            capsys,
            "sigma-eq",
            "--ring", "Q[x]/(x^2)",
            "--f", "x",
            "--num1", "x", "--m1", "1",
            "--num2", "0", "--m2", "1",
        )
        assert (code, out.strip()) == (0, "true")
        # (x^2+1)/(1 + x^2) against 1 and against (x^2+c)/(1 + x^2 + 1^2)
        argv = ("sigma-eq", "--f", "1", "--num1", "x^2+1", "--sos1", "x")
        assert run(capsys, *argv, "--num2", "1") == (0, "true\n", "")
        assert run(capsys, *argv, "--num2", "x^2+2", "--sos2", "x,1") == (0, "true\n", "")
        assert run(capsys, *argv, "--num2", "x^2+1", "--sos2", "x,1") == (0, "false\n", "")
        code, out, err = run(capsys, *argv, "--num2", "1", "--sos2", "x,,1")  # an empty term
        assert _usage_error(code, out, err) and "(column 1)" in err


class TestCertificates:
    def test_cert_find_and_verify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cert", "find", "--json", "x^2+1", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "real-radical"
        assert doc["m"] == 1 and doc["sos"] == ["x"] and doc["cofactor"] == "1"
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "cert", "verify", str(path))
        assert (code, out.strip()) == (0, "verified: true")

    def test_cert_not_member(self, capsys):
        code, out, _ = run(capsys, "cert", "find", "x^2-1", "x")
        assert code == 0
        assert out.strip() == "member: false"

    def test_subcover_json_verifies(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "subcover", "--json", "--f", "x^2-1", "x-1", "x+1", "x"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "subcover"
        assert doc["indices"] == [0, 1]
        path = tmp_path / "sub.json"
        path.write_text(out)
        code, out, _ = run(capsys, "cert", "verify", str(path))
        assert (code, out.strip()) == (0, "verified: true")

    def test_glue_json_verifies(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "section", "glue", "--json",
            "--ring", "Q[x]/(x^2-x)",
            "--f", "1",
            "--patch", "x:x", "--patch", "x-1:0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "glue"
        path = tmp_path / "glue.json"
        path.write_text(out)
        code, out, _ = run(capsys, "cert", "verify", str(path))
        assert (code, out.strip()) == (0, "verified: true")

    @pytest.mark.parametrize(
        "ideal, element",
        [("x^4+x^2+7", "x"), ("(x^2+3)^2*(x-1)", "x-1"), ("x^6+x+9", "x+5")],
    )
    def test_known_hard_members(self, capsys, monkeypatch, ideal, element):
        # a non-square weight, a repeated non-real factor, the perturbed route
        code, out, _ = run(capsys, "cert", "find", "--json", "--", ideal, element)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert run(capsys, "cert", "verify")[:2] == (0, "verified: true\n")

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cert", "find", "--json", "x^2+1", "1")
        doc = json.loads(out)
        doc["cofactor"] = "2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "cert", "verify", str(path))
        assert (code, out.strip()) == (0, "verified: false")


def _certify_corpus(seed: int) -> list[dict]:
    """The first three batches of the benchmark's certify corpus for a seed;
    the known hard members take turns, one per batch."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    batches = workloads.certify_batches(seed)
    return [item for _ in range(3) for item in next(batches)]


_CERT_COMMANDS = {
    "real-radical": ["cert", "find", "--json", "x^2+1", "1"],
    "subcover": ["subcover", "--json", "--f", "x^2-1", "x-1", "x+1", "x"],
    "glue": [
        "section", "glue", "--json", "--ring", "Q[x]/(x^2-x)",
        "--f", "1", "--patch", "x:x", "--patch", "x-1:0",
    ],
}
_MISSING = object()


def _usage_error(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestMalformedCertificates:
    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("real-radical", "cofactor", _MISSING),
            ("real-radical", "m", "1"),
            ("real-radical", "m", True),
            ("real-radical", "sos", "x"),
            ("real-radical", "element", "x^^2"),
            ("subcover", "covers", _MISSING),
            ("subcover", "indices", [0, 7]),
            ("subcover", "coeffs", ["1", 2]),
            ("subcover", "f", "(x"),
            ("glue", "patches", [{"g": "x"}]),
            ("glue", "patches", ["x:x"]),
            ("glue", "k", 1.5),
            ("glue", "coeffs", ["1"]),
            ("glue", "numerator", "x$"),
            ("glue", "ring", "R[x]"),
        ],
    )
    def test_bad_field(self, capsys, tmp_path, kind, key, value):
        code, out, _ = run(capsys, *_CERT_COMMANDS[kind])
        assert code == 0
        doc = json.loads(out)
        if value is _MISSING:
            del doc[key]
        else:
            doc[key] = value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert _usage_error(*run(capsys, "cert", "verify", str(path)))

    @pytest.mark.parametrize(
        "text", ['{"kind":"glue"}', '{"kind":"other","ring":"Q[x]","sos":[]}', "[]", "{", ""]
    )
    def test_bad_document_on_stdin(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert _usage_error(*run(capsys, "cert", "verify"))

    def test_missing_file(self, capsys, tmp_path):
        assert _usage_error(*run(capsys, "cert", "verify", str(tmp_path / "none.json")))


def _in_budget(degree: int, bits: int, dense: bool = True) -> bool:
    """The size rule of `parsing`, from its constants: degree at most
    MAX_EXPONENT and a size at most MAX_POWER_SIZE, the size of a dense value
    (degree+1) * max(degree+1, bits) and that of a monomial its bits."""
    size = (degree + 1) * max(degree + 1, bits) if dense else bits
    return degree <= MAX_EXPONENT and size <= MAX_POWER_SIZE


def _power(doc: dict) -> tuple[int, int, bool]:
    """The degree 2m * max(deg base, 1) and the bits 2m * (bit length of the
    base's height) of the power base^(2m) a document asks cert verify to
    expand, and whether it is dense: all but a one-term base in Q[x] are."""
    ring = parse_ring(doc["ring"])
    base = ring.elem(parse_poly(doc["element"] if doc["kind"] == "real-radical" else doc["f"]))
    n = 2 * doc["k" if doc["kind"] == "glue" else "m"]
    dense = base.rep.terms != 1 or ring.is_quotient
    return n * max(base.rep.degree, 1), n * base.rep.height.bit_length(), dense


def _largest_exponent(doc: dict, key: str) -> int:
    """The largest doc[key] whose power is within the budget; doc keeps it.
    The budget is monotone in the exponent, so the search doubles, then bisects."""
    low, high = 0, 1
    while _in_budget(*_power({**doc, key: high})):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _in_budget(*_power({**doc, key: mid})) else (low, mid)
    doc[key] = low
    return low


_BASE_KEY = {"real-radical": "element", "subcover": "f", "glue": "f"}


class TestExponentBudget:
    def _verify(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "cert", "verify", str(path))

    def _refused(self, capsys, tmp_path, doc):
        assert not _in_budget(*_power(doc))
        code, out, err = self._verify(capsys, tmp_path, doc)
        return _usage_error(code, out, err) and " above " in err

    @pytest.mark.parametrize(
        "kind, key", [("real-radical", "m"), ("subcover", "m"), ("glue", "k")]
    )
    def test_document_exponent(self, capsys, tmp_path, kind, key):
        code, out, _ = run(capsys, *_CERT_COMMANDS[kind])
        doc = json.loads(out)
        # x^2 has degree 2, or 1 once reduced in Q[x]/(x^2-x); x+1 and 3 have
        # more bits than degree, and a constant counts as degree 1. In Q[x] a
        # one-term base is a shift, so x^2 and 3 reach the degree limit there
        for base, degree in (("x^2", 1 if kind == "glue" else 2), ("x+1", 1), ("3", 1)):
            doc[_BASE_KEY[kind]] = base
            m = _largest_exponent(doc, key)
            assert _power(doc)[0] == 2 * m * degree
            code, out, _ = self._verify(capsys, tmp_path, doc)
            assert code == 0 and out.startswith("verified: ")
            doc[key] = m + 1
            assert self._refused(capsys, tmp_path, doc)

    @pytest.mark.parametrize(
        "kind, key", [("real-radical", "m"), ("subcover", "m"), ("glue", "k")]
    )
    @pytest.mark.parametrize(
        "base, bits, over",
        [
            # an integer coefficient of 32 bits, and one of 33
            ("x + 2147483649", 32, "x + 4294967297"),
            # each denominator has 16 bits, their common denominator 32, and 33
            ("1/65535*x + 1/65521", 32, "1/65535*x + 1/65539"),
        ],
    )
    def test_document_coefficient_bits(self, capsys, tmp_path, kind, key, base, bits, over):
        assert (parse_poly(base).height.bit_length(), parse_poly(over).height.bit_length()) == (
            bits, bits + 1
        )
        code, out, _ = run(capsys, *_CERT_COMMANDS[kind])
        doc = json.loads(out)
        name = _BASE_KEY[kind]
        doc[name] = base
        m = _largest_exponent(doc, key)
        assert _power(doc)[1] == 2 * m * bits
        code, out, _ = self._verify(capsys, tmp_path, doc)
        assert code == 0 and out.startswith("verified: ")
        for doc[name], doc[key] in ((base, m + 1), (over, m)):
            assert self._refused(capsys, tmp_path, doc)

    def test_former_slow_document(self, capsys, tmp_path):
        """A degree-1 base with 30-bit coefficients and m = 64 took seconds to
        verify before the power was costed as dense; it is within the budget
        and verifies at once."""
        code, out, _ = run(capsys, "cert", "find", "--json", "x^2+1", "1")
        doc = json.loads(out)
        doc["element"], doc["m"] = "123456789/987654321*x-1", 64
        assert _in_budget(*_power(doc))
        code, out, err = self._verify(capsys, tmp_path, doc)
        assert code == 0 and out.startswith("verified: ")

    def test_former_runaway_document(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cert", "find", "--json", "x^2+1", "x+1")
        doc = json.loads(out)
        doc["m"] = 100000
        assert _usage_error(*self._verify(capsys, tmp_path, doc))

    def _sigma_eq_limit(self, base: str):
        """argv of sigma-eq over base at its largest exponent m, and m."""
        doc = {"kind": "subcover", "ring": "Q[x]", "f": base}
        m = _largest_exponent(doc, "m")
        argv = ["sigma-eq", "--f", base, "--num1", "x", "--num2", "x", "--m1", str(m), "--m2"]
        return [*argv, str(m)], m

    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    def test_sigma_eq_exponent(self, capsys, flag):
        argv, m = self._sigma_eq_limit("x^2+1")  # degree 4m, and bits 4m from height 2
        assert not _in_budget(4 * (m + 1), 4 * (m + 1))
        assert run(capsys, *argv)[:2] == (0, "true\n")
        code, out, err = run(capsys, *argv, flag, str(m + 1))
        assert _usage_error(code, out, err) and f"has size above {MAX_POWER_SIZE} bits" in err

    @pytest.mark.parametrize("flag", ["--m1", "--m2"])
    def test_sigma_eq_coefficient_bits(self, capsys, flag):
        argv, m = self._sigma_eq_limit("x + 2147483649")  # 32 bits at degree 1
        assert not _in_budget(2 * (m + 1), 64 * (m + 1))
        assert run(capsys, *argv)[:2] == (0, "true\n")
        code, out, err = run(capsys, *argv, flag, str(m + 1))
        assert _usage_error(code, out, err) and f"has size above {MAX_POWER_SIZE} bits" in err

    def test_quotient_lift(self, capsys):
        """A monomial lift is a cheap shift to parse, not to reduce: in a
        quotient, a lift of degree at least the modulus's is held to the
        budget as a dense value of its degree."""
        argv = ["cover", "--ring", "Q[x]/((x+2)^200)", "--f"]
        assert not _in_budget(65536, 1) and _in_budget(1023, 1)
        code, out, err = run(capsys, *argv, "x^65536", "x")
        assert _usage_error(code, out, err) and f"has size above {MAX_POWER_SIZE} bits" in err
        assert run(capsys, *argv, "x^1023", "x")[:2] == (0, "true\n")
        # in Q[x] nothing is reduced, so nothing more is costed
        assert run(capsys, "cover", "--f", "x^65536", "x")[:2] == (0, "true\n")

    @pytest.mark.parametrize("argv, want", [
        (("cert", "find", "x", "x^65536"), (2, "")),
        (("subcover", "--f", "x^65536", "x"), (2, "")),
        (("section", "glue", "--f", "x^65536", "--patch", "x:1"), (2, "")),
        (("cover", "--f", "x", "x^65536"), (0, "true\n")),
        (("section", "validate", "--f", "x", "--patch", "x^65536:1"), (0, "valid: true\n")),
    ], ids=["cert-find", "subcover", "section-glue", "cover", "section-validate"])
    def test_largest_admitted_prime_power(self, capsys, argv, want):
        """x^65536 against its prime x, in well under a second each: the
        witness reads x's multiplicity in x^65536 only up to the ideal's, and
        the real radical test takes one gcd and a Yun decomposition of its
        cofactor, not one gcd per copy of x. A certificate for x^65536 has
        f = x^65536 and m = 1, and f^2 is past the budget, so the three
        certificate commands refuse it as cert verify refuses its document."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == want
        if code:
            assert err == "error: (x^65536)^(2) has degree above 65536\n"

    def test_monomial_power_is_a_shift(self, capsys, monkeypatch):
        """In Q[x] a one-term f^(2m) is costed as a shift, as the parser costs
        x^1024: x^512 answers where a dense cost refused it, and its document
        verifies. A quotient reduces the power, and a non-real factor of the
        ideal makes the witness's cofactor dense, so both stay dense."""
        code, out, _ = run(capsys, "cert", "find", "--json", "x", "x^512")
        assert code == 0 and json.loads(out)["m"] == 1
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert run(capsys, "cert", "verify")[:2] == (0, "verified: true\n")
        want = "member: true\ncertificate: m=1 sos=[] cofactor=x^1021\n"
        assert run(capsys, "cert", "find", "x", "x^511")[:2] == (0, want)
        for argv in (("--ring", "Q[x]/(x^1100)", "x"), ("x*(x^2+1)",)):
            assert run(capsys, "cert", "find", *argv, "x^511")[0] == 0
            code, out, err = run(capsys, "cert", "find", *argv, "x^512")
            assert _usage_error(code, out, err)
            assert err == f"error: (x^512)^(2) has size above {MAX_POWER_SIZE} bits\n"

    _DENSE = " + ".join(f"x^{i}" for i in range(1024))  # a long literal, costed by its bits
    _SHIFTED = {  # f^(2m) is x^32768 (x^65534 for subcover) times a dense degree-1023 value
        "subcover": ["subcover", "--f", "x^32767", "(x-1)*(x^2+1)^511", "x+1"],
        "cert-verify-glue": ["cert", "verify"],
        "sigma-eq": ["sigma-eq", "--f", "x^16384", "--num1", _DENSE, "--num2", _DENSE,
                     "--m1", "1", "--m2", "1"],
    }

    @pytest.mark.parametrize("name", list(_SHIFTED))
    def test_monomial_power_times_dense_is_fast(self, capsys, monkeypatch, name):
        """A power admitted as a shift stays a shift in every later product:
        `*` skips the zeros of both operands, so each command takes a few
        thousand multiplications where walking the power's zeros took about
        1e8 (seconds). The glue document, read from stdin, has f = x^16384,
        k = 1, one patch a/1 with a dense a, and its closing identity holds."""
        doc = {"kind": "glue", "ring": "Q[x]", "f": "x^16384", "k": 1, "sos": [],
               "coeffs": ["x^32768"], "patches": [{"a": self._DENSE, "g": "1"}],
               "numerator": " + ".join(f"x^{i + 32768}" for i in range(1024))}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        start = time.perf_counter()
        code, out, err = run(capsys, *self._SHIFTED[name])
        assert time.perf_counter() - start < 1.0
        if name == "subcover":  # cofactor x^65534 times a Bezout coefficient of degree 1022
            assert _usage_error(code, out, err)
            assert err == "error: certificate coefficient has degree above 65536\n"
        else:
            assert (code, out) == (0, "verified: true\n" if name == "cert-verify-glue" else "true\n")

    @pytest.mark.parametrize("argv, want", [
        (("cert", "find", "x^64", "x*(x+1)^200"),
         f"(a degree-201 polynomial)^(64) has size above {MAX_POWER_SIZE} bits"),
        (("subcover", "--f", "x*(x+1)^200", "x^64"),
         f"(a degree-201 polynomial)^(64) has size above {MAX_POWER_SIZE} bits"),
        (("cert", "find", "x^74", "(10^4299)*x"),
         f"(a degree-1 polynomial)^(74) has size above {MAX_POWER_SIZE} bits"),
        (("cert", "find", "x", "(2^64-1)*x^32769"),
         "(18446744073709551615*x^32769)^(2) has degree above 65536"),
    ], ids=["dense", "dense-subcover", "long-coefficient", "word-coefficient"])
    def test_refused_power_names_its_base_briefly(self, capsys, argv, want):
        """A refused power is one line under 200 bytes: a monomial with a
        word-size coefficient is named as printed, any other base by its
        degree, never by its expansion."""
        code, out, err = run(capsys, *argv)
        assert _usage_error(code, out, err) and err == f"error: {want}\n"
        assert len(err.encode()) < 200

    def test_certify_corpus_within_budget(self, capsys, monkeypatch):
        """Every document of the benchmark's certify corpus stays under the
        budget and verifies; every item exits 0, glue over non-real quotients
        included."""
        documents = 0
        for seed in (0, 1):
            for item in _certify_corpus(seed):
                code, out, _ = run(capsys, *item["argv"])
                doc = json.loads(out)
                assert code == 0
                if doc.get("member") is False:
                    continue
                documents += 1
                assert _in_budget(*_power(doc))
                monkeypatch.setattr("sys.stdin", io.StringIO(out))
                assert run(capsys, "cert", "verify")[:2] == (0, "verified: true\n")
        assert documents > 60


# sha256 over every (argv, exit code, stdout, stderr) of the certify corpus
# for seeds 0-2: each command with and without --json, then `cert verify` of
# each document it emitted; pinned so that refactors of the certificate
# layer cannot change a byte of output
CERTIFY_CORPUS_SHA256 = "488d6b8929d2acda5d08eafac570d2ff368119adce7fd7eadf56ff91059beac8"
RUNS = 396


class TestPinnedOutput:
    def test_certify_corpus_is_pinned(self, capsys, monkeypatch):
        digest, runs = hashlib.sha256(), 0

        def record(argv):
            nonlocal runs
            code, out, err = run(capsys, *argv)
            digest.update((json.dumps([argv, code, out, err]) + "\n").encode())
            runs += 1
            return code, out

        for seed in (0, 1, 2):
            for item in _certify_corpus(seed):
                code, out = record(item["argv"])
                record([a for a in item["argv"] if a != "--json"])
                if code == 0 and "member" not in json.loads(out):
                    monkeypatch.setattr("sys.stdin", io.StringIO(out))
                    record(["cert", "verify", "-"])
        assert runs == RUNS
        assert digest.hexdigest() == CERTIFY_CORPUS_SHA256

    @pytest.mark.parametrize(
        "kind, key, zero, minus_one",
        [
            # 1^0 + x^2 = 1 * (x^2+1): m = 0 is a valid witness; None: exit 3
            ("real-radical", "m", "verified: true", None),
            ("subcover", "m", "verified: false", None),
            ("glue", "k", "verified: true", None),  # f = 1, so 1^(2k) = 1 for every k
        ],
    )
    def test_exponent_zero_and_negative(self, capsys, tmp_path, kind, key, zero, minus_one):
        code, out, _ = run(capsys, *_CERT_COMMANDS[kind])
        doc = json.loads(out)
        for value, expected in ((0, zero), (-1, minus_one)):
            doc[key] = value
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "cert", "verify", str(path))
            if expected is None:
                assert (code, out) == (3, "") and err.startswith("error: ")
            else:
                assert (code, out, err) == (0, expected + "\n", "")

    def test_zero_ideal_in_quotient_prints_modulus(self, capsys):
        argv = ["cert", "find", "--json", "--ring", "Q[x]/(x^2*(x^2+1))", "0", "x"]
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        # the zero ideal's generator is the modulus, which is 0 as a ring element
        assert code == 0 and doc == {
            "kind": "real-radical", "ring": "Q[x]/(x^4 + x^2)", "ideal": "x^4 + x^2",
            "element": "x", "m": 1, "sos": ["x^2"], "cofactor": "1",
        }


class TestExplore:
    def test_deterministic(self, capsys):
        args = ["explore-question", "--rings", "4", "--trials", "2", "--seed", "9"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_empty_report(self, capsys):
        code, out, _ = run(capsys, "explore-question", "--trials", "0")
        assert code == 0
        assert "totals: glued=0" in out

    @pytest.mark.parametrize(
        "flags",
        [["--deg-max", "1"], ["--deg-min", "9", "--deg-max", "12"], ["--rings", "-5"],
         ["--trials", "-1"]],
    )
    def test_bad_arguments(self, capsys, flags):
        assert _usage_error(*run(capsys, "explore-question", *flags))

    def test_never_claims_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "explore-question", "--rings", "6", "--trials", "3", "--seed", "3"
        )
        assert code == 0
        assert "counterexample" not in out.lower()


# ---------------------------------------------------------------------------
# fuzzing main: every argv ends in 0, 2 or 3 and no exception escapes

_FACTORS = ["x", "x-1", "x+2", "2*x-1", "x^2+1", "x^2-2", "x^2+x+1", "3", "1/2", "0"]
_valid_texts = st.one_of(
    st.lists(
        st.tuples(st.sampled_from(_FACTORS), st.integers(1, 3)), min_size=1, max_size=3
    ).map(lambda fs: "*".join(f"({f})^{e}" for f, e in fs)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(
        lambda cs: "+".join(f"({c})*x^{i}" for i, c in enumerate(cs))
    ),
)
_poly_texts = st.one_of(_valid_texts, _valid_texts, st.text(alphabet="x0129^*+-()/ ", max_size=10))
_rings = st.one_of(
    st.just("Q[x]"), _poly_texts.map(lambda p: f"Q[x]/({p})"), st.sampled_from(["Q[x]/(0)", "R[x]"])
)
_patches = st.lists(
    st.tuples(_poly_texts, _poly_texts).map(":".join) | st.sampled_from(["x", "0:1", "1:0", "1:x"]),
    min_size=1, max_size=3,
)
_exponents = st.integers(-2, 4).map(lambda m: [str(m)])
_sos = st.lists(_poly_texts, max_size=2).map(lambda terms: [",".join(terms)])


def _cat(*parts):
    """The concatenation of the argv pieces that the strategies parts draw."""
    return st.tuples(*parts).map(lambda t: [a for part in t for a in part])


def _flags(flag: str, values: st.SearchStrategy):
    return values.map(lambda vs: [a for v in vs for a in (flag, v)])


def _command(*names: str):
    """One of the commands named, split into argv words."""
    return st.sampled_from(names).map(str.split)


_ring = st.tuples(_rings, st.booleans()).map(lambda t: ["--ring", t[0]] + ["--json"] * t[1])
_one = _poly_texts.map(lambda p: [p])
_gens = st.lists(_poly_texts, min_size=1, max_size=3)
_f = _poly_texts.map(lambda p: ["--f", p])
_section = _cat(_ring, _f, _flags("--patch", _patches))
_fraction = [
    _cat(_flags(f"--num{i}", _one), _flags(f"--m{i}", _exponents), _flags(f"--sos{i}", _sos))
    for i in (1, 2)
]
_argv = st.one_of(
    _cat(_command("factor", "real-part", "sturm"), _one),
    _cat(_command("real-radical"), _ring, _one),
    _cat(_command("classify", "primes"), _ring),
    _cat(_command("vset union", "vset intersect", "vset subset"), _ring, _gens),
    _cat(_command("cover", "subcover"), _ring, _f, _gens),
    _cat(_command("cert find"), _ring, _one, _one),
    _cat(_command("section validate", "section glue"), _section),
    _cat(_command("section eq"), _section, _flags("--other", _patches)),
    _cat(_command("section stalk"), _section, _flags("--prime", _one)),
    _cat(_command("sigma-eq"), _ring, _f, *_fraction),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 5)).map(
        lambda t: ["explore-question", "--rings", str(t[0]), "--trials", str(t[1]),
                   "--deg-max", str(t[2]), "--seed", "1"]
    ),
)


def _main(argv: list, stdin: str = "") -> tuple[int, str, str]:
    """main(argv) with stdin given and its output captured; argparse's
    SystemExit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _documents() -> tuple[str, ...]:
    return tuple(_main(argv)[1] for argv in _CERT_COMMANDS.values())


@st.composite
def _cert_verify(draw):
    """cert verify of a document of some kind, with up to two fields replaced or deleted."""
    doc = json.loads(draw(st.sampled_from(_documents())))
    values = st.one_of(
        _poly_texts, st.integers(-2, 400), st.lists(_poly_texts, max_size=3),
        st.lists(st.integers(-1, 3), max_size=3), st.just(_MISSING),
    )
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        value = draw(values)
        if value is _MISSING:
            doc.pop(key, None)
        else:
            doc[key] = value
    return ["cert", "verify"], json.dumps(doc)


class TestFuzz:
    @given(st.one_of(_argv.map(lambda argv: (argv, "")), _cert_verify()))
    @example((["cover", "--ring", "Q[x]/((x+2)^200)", "--f", "x^65536", "x"], ""))
    @example((["section", "stalk", "--f", "x", "--patch", "0:1", "--prime", "0"], ""))
    @example((["section", "glue", "--f", "1", "--patch", "0:1"], ""))
    @example((["section", "glue", "--f", "1", "--patch", "1:1", "--patch", "x"], ""))
    @example((["sigma-eq", "--f", "x", "--num1", "1", "--sos1", "x,,1", "--num2", "1"], ""))
    @settings(max_examples=200, deadline=None)
    def test_main_ends_in_an_exit_code(self, case):
        argv, stdin = case
        code, out, err = _main(argv, stdin)
        assert code in (0, 2, 3), (argv, stdin, err)
        assert "Traceback" not in err
        if code == 3:
            assert out == "" and err.startswith("error: ")


# ---------------------------------------------------------------------------
# round trip: what a command prints, cert verify accepts

_valid_rings = st.one_of(st.just("Q[x]"), _valid_texts.map(lambda p: f"Q[x]/({p})"))
_valid_one = _valid_texts.map(lambda p: [p])
_valid_f = _valid_texts.map(lambda p: ["--f", p])
_valid_ring = _valid_rings.map(lambda r: ["--ring", r])
_valid_gens = st.lists(_valid_texts, min_size=1, max_size=3)
_valid_patches = st.lists(
    st.tuples(_valid_texts, _valid_texts).map(":".join), min_size=1, max_size=3
)
_producers = st.one_of(
    _cat(_command("cert find"), _valid_ring, _valid_one, _valid_one),
    _cat(_command("subcover"), _valid_ring, _valid_f, _valid_gens),
    _cat(_command("section glue"), _valid_ring, _valid_f, _flags("--patch", _valid_patches)),
)


class TestRoundTrip:
    """cert find, subcover and section glue refuse a certificate that cert
    verify would refuse, so every document they print verifies."""

    @given(_producers)
    @example(["cert", "find", "x", "x^65536"])  # f^2 = x^131072 is past the budget
    # a Q[x] product past what the verifier parses: the numerator x^65537, a
    # coefficient of degree 65554 (twice), an equalized patch x^80000
    @example(["section", "glue", "--f", "x", "--patch", "1:x^65535"])
    @example(["section", "glue", "--f", "x^10", "--patch", "x^65535:0", "--patch", "x-1:0"])
    @example(["subcover", "--f", "x^10", "x^65535", "x-1"])
    @example(["section", "glue", "--f", "1", "--patch", "x^40000:x^40000", "--patch", "0:1",
              "--patch", "1:1"])
    @settings(max_examples=100, deadline=None)
    def test_printed_documents_verify(self, argv):
        code, out, err = _main([*argv, "--json"])
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
        assert code != 2 or _usage_error(code, out, err), (argv, out, err)
        if code or json.loads(out).get("member") is False:
            return
        assert _main(["cert", "verify"], out) == (0, "verified: true\n", ""), argv

    @pytest.mark.parametrize("argv", [
        ["cert", "find", "x^64", "x*(x+1)^200"],
        ["subcover", "--f", "x*(x+1)^200", "x^64"],
        ["section", "glue", "--f", "x*(x+1)^200", "--patch", "x^64:1"],
    ], ids=["cert-find", "subcover", "section-glue"])
    def test_dense_power_refused_before_expanding(self, argv):
        """Each would expand (x*(x+1)^200)^64, which ran for minutes; each
        exits 2 in a fresh process within 10 s, with no document."""
        src = str(Path(realspec.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "realspec.cli", *argv, "--json"],
            capture_output=True, text=True, env=env, check=False, timeout=10,
        )
        assert _usage_error(proc.returncode, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr and len(proc.stderr.encode()) < 200
