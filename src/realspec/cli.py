"""Command line interface.

Every operation of the library is reachable as a subcommand; structured
output is available through --json. A command takes only the flags it
reads: --ring where it works in a ring, --seed on explore-question alone.
Certificate-producing commands emit JSON documents that `cert verify`
re-checks from the document alone. The three document kinds (real-radical,
subcover, glue) keep their own keys, but each is read into the one
`rings.Certificate` identity sum(coeffs[i] * gens[i]) = f^(2m) + sum of
squares and checked by the one `rings.verify_certificate` (a glue document
also by its closing identity).

Outside input is held to the one budget, `polynomials.check_size`: in the
parser, in `rings.checked_power` for f^(2m) (a document's, sigma-eq's, and
every certificate's, so none is printed that `cert verify` refuses), and in
`_elem`, which reads every ring element, before a quotient reduces a lift.

Exit codes: 0 success, 2 parse or usage error, 3 precondition violation
(an answer with a coefficient too long to print among them).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .errors import DomainError, InputError, NotASectionError, ParseError
from .explore import ExploreConfig, explore_question
from .parsing import parse_poly, parse_ring
from .polynomials import check_size, count_real_roots, factor, real_part
from .rings import (
    Certificate,
    Ring,
    RingElem,
    SigmaDenominator,
    SumOfSquares,
    checked_power,
    find_certificate,
    real_radical,
    verify_certificate,
)
from .sheaves import (
    LocalFraction,
    Section,
    SigmaFraction,
    glue,
    section_eq,
    section_validate,
    sigma_eq,
    stalk_at,
    verify_glue,
)
from .spectrum import (
    RealPrime,
    closed_intersect,
    closed_subset,
    closed_union,
    cover_check,
    enumerate_primes,
    finite_subcover,
    v_of,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

def _elem(ring: Ring, text: str) -> RingElem:
    """The element of ring that text denotes. In a quotient, a lift of degree
    at least the modulus's is costed as dense before it is reduced: a
    monomial parses as a cheap shift, but reducing it is not cheap."""
    lift = parse_poly(text)
    if ring.is_quotient and lift.degree >= ring.modulus.degree:
        check_size(lift.degree, lift.height.bit_length(), "element before reduction")
    return ring.elem(lift)


def _parse_patch(ring: Ring, text: str) -> LocalFraction:
    if ":" not in text:
        raise ParseError("patch must look like <g>:<a>", 1)
    g_text, a_text = text.split(":", 1)
    return LocalFraction(_elem(ring, a_text), _elem(ring, g_text))


def _parse_sos(ring: Ring, text: Optional[str]) -> SumOfSquares:
    if not text:
        return SumOfSquares()
    return SumOfSquares(tuple(_elem(ring, t) for t in text.split(",")))


# ---------------------------------------------------------------------------
# JSON certificate documents: each kind keeps its own keys


def _strs(elems) -> list[str]:
    return [str(e) for e in elems]


def _cert_doc(kind: str, ring: Ring, cert: Certificate, exponent: str, **fields) -> dict:
    """The keys every kind shares; `fields` holds the kind's own."""
    sos = _strs(cert.sos.terms)
    return {"kind": kind, "ring": str(ring), exponent: cert.m, "sos": sos, **fields}


def _cert_line(cert: Certificate, exponent: str) -> str:
    coeffs, sos = ", ".join(_strs(cert.coeffs)), ", ".join(_strs(cert.sos.terms))
    return f"certificate: coeffs=[{coeffs}] {exponent}={cert.m} sos=[{sos}]"


def _doc_value(doc, key: str, kind: type, item: Optional[type] = None):
    """doc[key], checked to have JSON type kind (a list of item, if given)."""
    value = doc.get(key) if type(doc) is dict else None
    if type(value) is not kind or (item and any(type(v) is not item for v in value)):
        raise InputError(f"certificate document lacks {key!r}, or it has the wrong type")
    return value


def _doc_elem(ring: Ring, doc: dict, key: str):
    return _elem(ring, _doc_value(doc, key, str))


def _doc_elems(ring: Ring, doc: dict, key: str) -> tuple:
    return tuple(_elem(ring, t) for t in _doc_value(doc, key, list, str))


def _verify_cert_doc(doc) -> bool:
    """Read a document of any kind into one Certificate and verify it; a glue
    document's fraction must also pass the closing identity (verify_glue)."""
    kind = _doc_value(doc, "kind", str)
    ring = parse_ring(_doc_value(doc, "ring", str))
    sos = SumOfSquares(_doc_elems(ring, doc, "sos"))
    if kind == "real-radical":
        f = _doc_elem(ring, doc, "element")
        m = checked_power(f, _doc_value(doc, "m", int))
        coeffs = (_doc_elem(ring, doc, "cofactor"),)
        gens = (ring.elem(ring.ideal(parse_poly(_doc_value(doc, "ideal", str))).gen),)
    elif kind == "subcover":
        covers = _doc_elems(ring, doc, "covers")
        indices = _doc_value(doc, "indices", list, int)
        coeffs = _doc_elems(ring, doc, "coeffs")
        if len(coeffs) != len(indices) or not all(0 <= i < len(covers) for i in indices):
            raise InputError("subcover certificate needs one coefficient per index into covers")
        gens = tuple(covers[i] for i in indices)
        f = _doc_elem(ring, doc, "f")
        m = checked_power(f, _doc_value(doc, "m", int))
    elif kind == "glue":
        f = _doc_elem(ring, doc, "f")
        patches = tuple(
            LocalFraction(_doc_elem(ring, p, "a"), _doc_elem(ring, p, "g"))
            for p in _doc_value(doc, "patches", list, dict)
        )
        coeffs = _doc_elems(ring, doc, "coeffs")
        if len(coeffs) != len(patches):
            raise InputError("glue certificate needs one coefficient per patch")
        m = checked_power(f, _doc_value(doc, "k", int))
        frac = SigmaFraction(_doc_elem(ring, doc, "numerator"), SigmaDenominator(f, m, sos))
        section = Section(ring, f, patches)
        gens = tuple(section.denominators())
    else:
        raise InputError(f"unknown certificate kind {kind!r}")
    cert = Certificate(f, m, sos, gens, coeffs)
    return verify_glue(section, frac, cert) if kind == "glue" else verify_certificate(cert)


# ---------------------------------------------------------------------------
# handlers: (json_payload, text_lines)


def _cmd_factor(args):
    fac = factor(parse_poly(args.poly))
    lines = [f"unit {fac.unit}"]
    lines += [f"({p}) ^ {mult}" for p, mult in fac.factors]
    payload = {
        "unit": str(fac.unit),
        "factors": [{"poly": str(p), "mult": mult} for p, mult in fac.factors],
    }
    return payload, lines


def _cmd_real_part(args):
    rp = real_part(parse_poly(args.poly))
    return {"real_part": str(rp)}, [str(rp)]


def _cmd_real_radical(args):
    ring = parse_ring(args.ring)
    rad = real_radical(ring.ideal(parse_poly(args.poly)))
    return {"generator": str(rad.gen)}, [str(rad.gen)]


def _cmd_sturm(args):
    n = count_real_roots(parse_poly(args.poly))
    return {"real_roots": n}, [str(n)]


def _cmd_classify(args):
    ring = parse_ring(args.ring)
    is_real, is_semireal = ring.is_real, ring.is_semireal
    text = f"real={str(is_real).lower()} semireal={str(is_semireal).lower()}"
    return {"real": is_real, "semireal": is_semireal}, [text]


def _cmd_primes(args):
    ring = parse_ring(args.ring)
    primes = enumerate_primes(ring)
    return {"primes": [str(p.gen) for p in primes]}, [str(p) for p in primes] or ["(none)"]


def _cmd_vset(args):
    ring = parse_ring(args.ring)
    sets = [v_of(ring.ideal(parse_poly(g))) for g in args.gens]
    if args.op == "union":
        if len(sets) < 2:
            raise DomainError("union takes at least two generators")
        acc = sets[0]
        for v in sets[1:]:
            acc = closed_union(acc, v)
        return {"gen": str(acc.gen)}, [str(acc.gen)]
    if args.op == "intersect":
        acc = closed_intersect(sets)
        return {"gen": str(acc.gen)}, [str(acc.gen)]
    if len(sets) != 2:
        raise DomainError("subset takes exactly two generators")
    result = closed_subset(sets[0], sets[1])
    return {"subset": result}, [str(result).lower()]


def _cmd_cover(args):
    ring = parse_ring(args.ring)
    f = _elem(ring, args.f)
    fs = [_elem(ring, g) for g in args.gens]
    result = cover_check(f, fs)
    return {"covered": result}, [str(result).lower()]


def _cmd_subcover(args):
    ring = parse_ring(args.ring)
    f = _elem(ring, args.f)
    fs = [_elem(ring, g) for g in args.gens]
    outcome = finite_subcover(f, fs)
    cert, indices = outcome.certificate, list(outcome.indices)
    payload = _cert_doc(
        "subcover", ring, cert, "m",
        f=str(f), covers=_strs(fs), indices=indices, coeffs=_strs(cert.coeffs),
    )
    return payload, [f"indices {indices}", _cert_line(cert, "m")]


def _cmd_cert_find(args):
    ring = parse_ring(args.ring)
    ideal = ring.ideal(parse_poly(args.ideal))
    a = _elem(ring, args.element)
    outcome = find_certificate(ideal, a)
    if not outcome.found:
        return {"kind": "real-radical", "member": False}, ["member: false"]
    cert = outcome.certificate
    sos, cofactor = _strs(cert.sos.terms), str(cert.coeffs[0])
    # "ideal" prints the ideal's generator: as a ring element, the zero
    # ideal's generator (the modulus) would print as 0
    payload = _cert_doc(
        "real-radical", ring, cert, "m", ideal=str(ideal.gen), element=str(a), cofactor=cofactor
    )
    lines = ["member: true", f"certificate: m={cert.m} sos=[{', '.join(sos)}] cofactor={cofactor}"]
    return payload, lines


def _cmd_cert_verify(args):
    try:
        if args.file and args.file != "-":
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, ValueError) as exc:  # unreadable file, or not JSON
        raise InputError(f"cannot read certificate document: {exc}") from exc
    ok = _verify_cert_doc(doc)
    return {"verified": ok}, [f"verified: {str(ok).lower()}"]


def _section_from_args(args, ring: Ring) -> Section:
    f = _elem(ring, args.f)
    patches = tuple(_parse_patch(ring, p) for p in args.patch)
    return Section(ring, f, patches)


def _cmd_section_validate(args):
    ring = parse_ring(args.ring)
    report = section_validate(_section_from_args(args, ring))
    payload = {
        "valid": report.ok,
        "cover": report.cover_ok,
        "bad_pairs": [list(p) for p in report.bad_pairs],
    }
    lines = [f"valid: {str(report.ok).lower()}"]
    if not report.cover_ok:
        lines.append("cover: false")
    for i, j in report.bad_pairs:
        lines.append(f"incompatible pair ({i}, {j})")
    return payload, lines


def _cmd_section_glue(args):
    ring = parse_ring(args.ring)
    section = _section_from_args(args, ring)
    outcome = glue(section)
    eq, frac, cert = outcome.equalized, outcome.fraction, outcome.certificate
    payload = _cert_doc(
        "glue", ring, cert, "k",
        f=str(eq.f), coeffs=_strs(cert.coeffs), numerator=str(frac.numerator),
        patches=[{"g": str(p.denominator), "a": str(p.numerator)} for p in eq.patches],
    )
    return payload, [str(frac), _cert_line(cert, "k")]


def _cmd_section_eq(args):
    ring = parse_ring(args.ring)
    s1 = _section_from_args(args, ring)
    s2 = Section(ring, s1.f, tuple(_parse_patch(ring, p) for p in args.other))
    if not (section_validate(s1).ok and section_validate(s2).ok):
        raise NotASectionError("the local data is not a section")
    result = section_eq(s1, s2)
    return {"equal": result}, [str(result).lower()]


def _cmd_section_stalk(args):
    ring = parse_ring(args.ring)
    section = _section_from_args(args, ring)
    gen = parse_poly(args.prime)
    prime = RealPrime(ring, gen if gen.is_zero() else gen.monic())
    germ = stalk_at(section, prime)
    payload = {
        "numerator": str(germ.numerator),
        "denominator": str(germ.denominator),
        "prime": str(prime),
    }
    return payload, [str(germ)]


def _cmd_sigma_eq(args):
    ring = parse_ring(args.ring)
    f = _elem(ring, args.f)
    u = SigmaFraction(
        _elem(ring, args.num1),
        SigmaDenominator(f, checked_power(f, args.m1), _parse_sos(ring, args.sos1)),
    )
    v = SigmaFraction(
        _elem(ring, args.num2),
        SigmaDenominator(f, checked_power(f, args.m2), _parse_sos(ring, args.sos2)),
    )
    result = sigma_eq(u, v)
    return {"equal": result}, [str(result).lower()]


def _cmd_explore(args):
    config = ExploreConfig(
        rings=args.rings,
        trials=args.trials,
        deg_min=args.deg_min,
        deg_max=args.deg_max,
        seed=args.seed,
    )
    report = explore_question(config)
    if args.json:
        return report.to_dict(), []
    return None, report.to_text().splitlines()


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realspec",
        description="exact real Zariski spectrum computations over Q[x] and its quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, ring: bool = True, within=sub, **kwargs):
        """A command with --json, and with --ring if it reads a ring; no
        abbreviations, so --ring is never read as explore-question's --rings."""
        p = within.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if ring:
            p.add_argument("--ring", default="Q[x]", help='ring, "Q[x]" or "Q[x]/(<poly>)"')
        p.set_defaults(handler=handler)
        return p

    p = add("factor", _cmd_factor, ring=False, help="factor a polynomial over Q")
    p.add_argument("poly")

    p = add("real-part", _cmd_real_part, ring=False, help="real part of a polynomial")
    p.add_argument("poly")

    p = add("real-radical", _cmd_real_radical, help="real radical of a principal ideal")
    p.add_argument("poly")

    p = add("sturm", _cmd_sturm, ring=False, help="count distinct real roots")
    p.add_argument("poly")

    add("classify", _cmd_classify, help="reality and semi-reality of the ring")

    add("primes", _cmd_primes, help="real primes of a quotient ring")

    p = add("vset", _cmd_vset, help="closed set algebra")
    p.add_argument("op", choices=["union", "intersect", "subset"])
    p.add_argument("gens", nargs="+")

    p = add("cover", _cmd_cover, help="does the family cover D(f)?")
    p.add_argument("--f", required=True)
    p.add_argument("gens", nargs="+")

    p = add("subcover", _cmd_subcover, help="finite subcover with certificate")
    p.add_argument("--f", required=True)
    p.add_argument("gens", nargs="+")

    p = sub.add_parser("cert", help="real radical certificates")
    cert_sub = p.add_subparsers(dest="cert_command", required=True)
    p = add("find", _cmd_cert_find, within=cert_sub)
    p.add_argument("ideal")
    p.add_argument("element")
    p = add("verify", _cmd_cert_verify, ring=False, within=cert_sub)
    p.add_argument("file", nargs="?", default="-")

    p = sub.add_parser("section", help="operations on sections")
    sec_sub = p.add_subparsers(dest="section_command", required=True)
    for name, handler in [
        ("validate", _cmd_section_validate),
        ("glue", _cmd_section_glue),
        ("eq", _cmd_section_eq),
        ("stalk", _cmd_section_stalk),
    ]:
        p = add(name, handler, within=sec_sub)
        p.add_argument("--f", required=True)
        p.add_argument("--patch", action="append", required=True)
        if name == "eq":
            p.add_argument("--other", action="append", required=True)
        if name == "stalk":
            p.add_argument("--prime", required=True)

    p = add("sigma-eq", _cmd_sigma_eq, help="equality in the localization")
    p.add_argument("--f", required=True)
    p.add_argument("--num1", required=True)
    p.add_argument("--m1", type=int, default=0)
    p.add_argument("--sos1", default="")
    p.add_argument("--num2", required=True)
    p.add_argument("--m2", type=int, default=0)
    p.add_argument("--sos2", default="")

    p = add(
        "explore-question", _cmd_explore, ring=False, help="sampling harness over semi-real rings"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for sampling")
    p.add_argument("--rings", type=int, default=50)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--deg-min", type=int, default=2, dest="deg_min")
    p.add_argument("--deg-max", type=int, default=8, dest="deg_max")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
