"""Seeded inputs for the three workloads and the checks on their answers.

Nothing here imports realspec: the generators build inputs from plain
strings and integer coefficient lists, and the checks compare the
program's answers with sympy computations or with answers known from how
each input was built.

Each workload is a stream of *batches*. A batch has a fixed composition
(which call, which factor shape, which ring kind); the seed only fills in
coefficients, factor choices and elements. Runs end on batch boundaries,
so every run measures the same mix of cheap and expensive items and the
figures of different seeds stay comparable.
"""

from __future__ import annotations

import itertools
import random

import sympy

# ---------------------------------------------------------------------------
# shared helpers

# The certify generators build every polynomial from these factors; expected
# answers follow from the linear ones having a real root and the others
# being irreducible with none, which `check_factor_pool` re-derives with sympy.
LINEAR = ("x", "x - 1", "x + 1", "x - 2", "x + 2", "x - 3", "x + 3")
NONREAL = ("x^2 + 1", "x^2 + 2", "x^2 + 3", "x^2 + x + 1", "x^4 + 1")

# Members of a real radical whose certificate search exhausts its bounds at
# the seed commit; the certify workload keeps one in every batch so that the
# defect stays visible in `unresolved_frac`.
KNOWN_HARD_MEMBERS = (
    ("x^4 + x^2 + 7", "x"),
    ("(x^2 + 3)^2*(x - 1)", "x - 1"),
    ("x^6 + x + 9", "x + 5"),
)


def product_text(factors: dict[str, int], unit: str = "1") -> str:
    """Parseable text of unit * prod(f^e); "1" for the empty product."""
    parts = [f"({f})" if e == 1 else f"({f})^{e}" for f, e in factors.items() if e]
    if unit != "1" or not parts:
        parts.insert(0, unit)
    return "*".join(parts)


def _small_poly(rng: random.Random, max_deg: int = 2) -> str:
    """Parseable text of a nonzero polynomial with small integer coefficients."""
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, max_deg) + 1)]
    if not any(coeffs):
        coeffs[0] = 1
    return " + ".join(f"{c}*x^{i}" for i, c in enumerate(coeffs) if c).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# explore: one item is one ring of an explore-question campaign


def explore_batches(seed: int):
    rng = random.Random(f"explore-{seed}")
    while True:
        yield [{"kind": "explore", "seed": rng.randrange(1 << 30)}]


# ---------------------------------------------------------------------------
# certify: CLI certificate commands, each document verified as its own item

# Each slot fixes the structure of one item of a batch: the ring kind, how
# many real-rooted linear factors appear and with which multiplicities, the
# non-real factor, and whether the element is a member. The seed picks the
# linear factors, signs and small numerators. Fixing the structure keeps the
# cost of a batch nearly the same from seed to seed: the certificate search
# costs grow steeply with the degree of the ideal generator. Slightly more
# than half the items (verifications, fast paths, non-members) cost little
# beyond argument parsing, so the median sits inside that cluster instead of
# in the gap between it and the searches.
_CERTIFY_SLOTS = (
    ("find", "base", (1, 1), None, True),  # real-rooted fast path
    ("find", "base", (1,), "x^2 + 1", True),
    ("find", "quotient", (1,), "x^2 + x + 1", True),
    ("find", "quotient", (2,), "x^2 + 2", True),
    ("find", "base", (1,), "x^4 + 1", True),
    ("find", "quotient", (1, 1), "x^2 + 1", False),
    ("find", "base", (2,), None, True),
    ("find", "quotient", (1, 1), None, False),
    ("find", "base", (1,), "x^2 + 2", False),
    ("find", "base", (1, 1), "x^4 + 1", False),
    ("find-hard",),
    ("subcover", "base", 2, "x^2 + 1", 3),
    ("subcover", "quotient", 1, "x^2 + 3", 2),
    ("glue-piecewise", (2, 1, 1), "x^2 + 1"),
    ("glue-psi",),
    ("glue-restrict", 2, "x^2 + x + 1"),
)
_SIGNS = ("1", "-1")


def certify_batches(seed: int):
    rng = random.Random(f"certify-{seed}")
    make = {"find": _find_item, "subcover": _subcover_item, "glue-piecewise": _piecewise_item,
            "glue-psi": _psi_item, "glue-restrict": _restrict_item}
    for index in itertools.count():
        # the known hard members take turns, one per batch
        yield [_hard_find_item(rng, index) if command == "find-hard" else make[command](rng, *args)
               for command, *args in _CERTIFY_SLOTS]


def _ring_text(modulus: dict[str, int] | None) -> str:
    return "Q[x]" if modulus is None else f"Q[x]/({product_text(modulus)})"


def _find_item(rng: random.Random, ring_kind: str, mults, nonreal, member: bool) -> dict:
    linear = rng.sample(LINEAR, len(mults) + 1)
    gen = dict(zip(linear, mults))
    if nonreal is not None:
        gen[nonreal] = 1
    # the modulus is a multiple of the generator, which is therefore canonical
    modulus = {**gen, linear[-1]: 1} if ring_kind == "quotient" else None
    a = {f: 1 for f in linear[:len(mults) - (not member)]}
    ring = _ring_text(modulus)
    ideal = product_text(gen)
    element = product_text(a, rng.choice(_SIGNS))
    return {
        "kind": "find",
        "argv": ["cert", "find", "--json", f"--ring={ring}", "--", ideal, element],
        "ring": ring, "ideal": ideal, "element": element, "member": member,
    }


def _hard_find_item(rng: random.Random, index: int) -> dict:
    ideal, element = KNOWN_HARD_MEMBERS[index % len(KNOWN_HARD_MEMBERS)]
    element = f"{rng.choice(_SIGNS)}*({element})"
    return {
        "kind": "find",
        "argv": ["cert", "find", "--json", "--ring=Q[x]", "--", ideal, element],
        "ring": "Q[x]", "ideal": ideal, "element": element, "member": True,
    }


def _cover(rng: random.Random, ring_kind: str, n_f: int, nonreal, size: int):
    """f and a family covering D(f): every g_i is G*e_i with distinct linear
    e_i outside f, so the gcd of the family is G, whose real factors divide f.
    A quotient adds one more linear factor outside f, so f stays nonzero."""
    linear = rng.sample(LINEAR, n_f + size + 1)
    f_real, extras, outside = linear[:n_f], linear[n_f:-1], linear[-1]
    common = {f_real[0]: 1} if n_f > 1 else {}
    if nonreal is not None:
        common[nonreal] = 1
    fam = [product_text({**common, e: 1}, rng.choice(_SIGNS)) for e in extras]
    modulus = {**common, outside: 1} if ring_kind == "quotient" else None
    return product_text({g: 1 for g in f_real}, rng.choice(_SIGNS)), fam, _ring_text(modulus)


def _subcover_item(rng: random.Random, ring_kind: str, n_f: int, nonreal, size: int) -> dict:
    f, fam, ring = _cover(rng, ring_kind, n_f, nonreal, size)
    return {
        "kind": "subcover",
        "argv": ["subcover", "--json", f"--ring={ring}", f"--f={f}", "--", *fam],
        "ring": ring, "f": f, "covers": fam,
    }


def _glue(ring: str, f: str, patches: list[str]) -> dict:
    argv = ["section", "glue", "--json", f"--ring={ring}", f"--f={f}"]
    argv += [f"--patch={p}" for p in patches]
    return {"kind": "glue", "argv": argv, "ring": ring, "f": f, "patches": patches}


def _piecewise_item(rng: random.Random, mults, nonreal: str) -> dict:
    """f = 1 over a semi-real, non-real quotient; the real primes fall in two
    groups and each patch denominator vanishes on the other group."""
    primes = rng.sample(LINEAR, len(mults))
    ring = _ring_text({**dict(zip(primes, mults)), nonreal: 1})
    groups = (primes[::2], primes[1::2])
    return _glue(ring, "1", [f"{product_text({p: 1 for p in other})}:{_small_poly(rng)}"
                             for other in (groups[1], groups[0])])


def _psi_item(rng: random.Random) -> dict:
    """The image of a fraction a / (f^2 + t^2) of the localization at f."""
    f = product_text({rng.choice(LINEAR): 1}, rng.choice(_SIGNS))
    return _glue("Q[x]", f, [f"({f})^2 + ({_small_poly(rng, 1)})^2:{_small_poly(rng)}"])


def _restrict_item(rng: random.Random, n_f: int, nonreal: str) -> dict:
    """One global fraction a restricted to a two-member cover of D(f)."""
    f, fam, ring = _cover(rng, "quotient", n_f, nonreal, 2)
    a = _small_poly(rng)
    return _glue(ring, f, [f"{g}:({a})*{g}" for g in fam])


# ---------------------------------------------------------------------------
# decide: library decision calls on large, distinct inputs

# (call, ring kind, shape); a shape lists (degree, multiplicity) of dense
# random factors. Every call meets every size class once per batch.
_SHAPES = (
    ((3, 1), (4, 2)),
    ((3, 1), (4, 1), (5, 2)),
    ((1, 3), (2, 2), (3, 3), (4, 2), (5, 1)),
    ((3, 3), (4, 2), (5, 1), (6, 2)),
    ((3, 2), (5, 2), (6, 1), (8, 1)),
    ((5, 2), (6, 1), (7, 1), (8, 1)),
    ((2, 3), (4, 2), (6, 1), (8, 1), (9, 1)),
)
_DECIDE_CALLS = (
    ("count_real_roots", "base"),
    ("real_part", "base"),
    ("real_radical_member", "base"),
    ("real_radical_member", "quotient"),
    ("cover_check", "quotient"),
    ("v_of", "quotient"),
)


def decide_batches(seed: int):
    rng = random.Random(f"decide-{seed}")
    while True:
        yield [_decide_item(rng, call, ring_kind, shape)
               for shape in _SHAPES for call, ring_kind in _DECIDE_CALLS]


def _dense(rng: random.Random, degree: int, monic: bool) -> list[int]:
    lead = 1 if monic else rng.choice([c for c in range(-20, 21) if c])
    return [rng.randint(-20, 20) for _ in range(degree)] + [lead]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prod(polys) -> list[int]:
    out = [1]
    for p in polys:
        out = _mul(out, p)
    return out


def _shaped(rng: random.Random, shape, monic: bool = False):
    """Distinct dense factors with the shape's multiplicities, and their product."""
    factors = [_dense(rng, d, monic) for d, _e in shape]
    return factors, _prod(f for f, (_d, e) in zip(factors, shape) for _ in range(e))


def _decide_item(rng: random.Random, call: str, ring_kind: str, shape) -> dict:
    item = {"kind": "decide", "call": call}
    if call in ("count_real_roots", "real_part"):
        item["p"] = _shaped(rng, shape)[1]
        return item
    if ring_kind == "quotient":
        factors, item["modulus"] = _shaped(rng, shape, monic=True)
    else:
        factors, whole = _shaped(rng, shape)
    keep = [f for f in factors if rng.random() < 0.5] or factors[:1]
    if call == "real_radical_member":
        item["gen"] = whole if ring_kind == "base" else _prod(keep + [_dense(rng, 3, False)])
        item["a"] = _prod([f for f in factors if rng.random() < 0.7] + [_dense(rng, 2, False)])
    elif call == "cover_check":
        common = _prod(keep)
        item["fs"] = [_mul(common, _dense(rng, rng.randint(2, 3), False)) for _ in range(3)]
        # f leaves out one factor of the modulus, so it is nonzero in the ring
        some = [f for f in factors if rng.random() < 0.7]
        if len(some) == len(factors):
            some.pop(rng.randrange(len(some)))
        item["f"] = _prod(some + [_dense(rng, 2, False)])
    else:  # v_of
        item["gen"] = _prod(keep + [_dense(rng, 3, False)])
    return item


# ---------------------------------------------------------------------------
# checks (run in the benchmark's own process, never in the worker)

BATCHES = {"explore": explore_batches, "certify": certify_batches, "decide": decide_batches}


_X = sympy.Symbol("x")


def sym_poly(text: str) -> sympy.Poly:
    return sympy.Poly(sympy.sympify(text.replace("^", "**")), _X, domain="QQ")


def _from_coeffs(coeffs) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)] or [0], _X, domain="QQ")


def _real_part(p: sympy.Poly) -> sympy.Poly:
    """Monic product of the distinct irreducible factors with a real root."""
    if p.is_zero:
        return p
    out = p.one
    for q, _e in p.factor_list()[1]:
        if q.count_roots():
            out *= q.monic()
    return out


def _canonical(gen, modulus):
    """Canonical ideal generator: monic gen in Q[x], monic gcd(gen, m) in Q[x]/(m)."""
    if modulus is None:
        return gen if gen.is_zero else gen.monic()
    return modulus if gen.is_zero else gen.gcd(modulus).monic()


def _in_real_radical(gen, modulus, a) -> bool:
    """a in the real radical of (gen); the radical generator divides the
    modulus, so reducing a modulo it changes nothing."""
    rad = _real_part(_canonical(gen, modulus))
    return a.is_zero if rad.is_zero else a.rem(rad).is_zero


def _same_elem(p, q, modulus) -> bool:
    diff = p - q
    return diff.is_zero if modulus is None else diff.rem(modulus).is_zero


def _modulus_of(ring: str):
    return None if ring == "Q[x]" else sym_poly(ring[len("Q[x]/("):-1])


def check_factor_pool() -> list[str]:
    """Problems with the facts the certify generators rely on (empty if none)."""
    problems = [f"{t} has no real root" for t in LINEAR if sym_poly(t).count_roots() != 1]
    named = {a for _command, *args in _CERTIFY_SLOTS for a in args if isinstance(a, str)}
    problems += [f"slot factor {t} is not in NONREAL"
                 for t in sorted(named - {"base", "quotient"} - set(NONREAL))]
    for text in NONREAL:
        p = sym_poly(text)
        if not p.is_irreducible or p.LC() != 1 or p.count_roots() or p.degree() < 2:
            problems.append(f"{text} is not a monic irreducible without real roots")
    for ideal, element in KNOWN_HARD_MEMBERS:
        if not _in_real_radical(sym_poly(ideal), None, sym_poly(element)):
            problems.append(f"{element} is not in the real radical of ({ideal})")
    return problems


def check_decide(item: dict, out) -> bool:
    call = item["call"]
    if call == "count_real_roots":
        return out == _from_coeffs(item["p"]).count_roots()
    if call == "real_part":
        return _from_coeffs(out) == _real_part(_from_coeffs(item["p"]))
    modulus = _from_coeffs(item["modulus"]) if "modulus" in item else None
    if call == "real_radical_member":
        a = _from_coeffs(item["a"])
        return out == _in_real_radical(_from_coeffs(item["gen"]), modulus, a)
    if call == "cover_check":
        fs = [_from_coeffs(g) for g in item["fs"]]
        gen = fs[0]
        for g in fs[1:]:
            gen = gen.gcd(g)
        return out == _in_real_radical(gen, modulus, _from_coeffs(item["f"]))
    # v_of: real part of the canonical generator; 0 when it is every real prime
    expect = _real_part(_canonical(_from_coeffs(item["gen"]), modulus))
    if modulus is not None and expect.degree() > 0 and expect == _real_part(modulus):
        expect = expect * 0
    return _from_coeffs(out) == expect


def check_certify(item: dict, result: dict) -> tuple[str, str]:
    """Outcome of one CLI item: ("ok" | "unresolved" | "wrong", reason)."""
    code, payload = result["code"], result.get("payload")
    modulus = _modulus_of(item["ring"])
    kind = item["kind"]
    if kind == "verify":
        ok = code == 0 and payload == {"verified": True}
        return ("ok", "") if ok else ("wrong", f"verify said {payload} (exit {code})")
    if code not in (0, 4) or not isinstance(payload, dict):
        return "wrong", f"exit {code}"
    if kind == "find":
        found = code == 0 and "m" in payload
        member = True if code == 4 or found else payload.get("member")
        if member is not item["member"]:
            return "wrong", f"member={member}, expected {item['member']}"
        if found:
            gen = _canonical(sym_poly(item["ideal"]), modulus)
            if not (_same_elem(sym_poly(payload["element"]), sym_poly(item["element"]), modulus)
                    and _canonical(sym_poly(payload["ideal"]), modulus) == gen):
                return "wrong", "certificate is about another element or ideal"
        return ("unresolved", "member-no-certificate") if code == 4 else ("ok", "")
    f = sym_poly(item["f"])
    if kind == "subcover":
        indices = payload.get("indices", [])
        if any(not 0 <= i < len(item["covers"]) for i in indices):
            return "wrong", f"bad subcover indices {indices}"
        gen = f * 0  # the empty family generates the zero ideal
        for i in indices:
            gen = gen.gcd(sym_poly(item["covers"][i]))
        if not _in_real_radical(gen, modulus, f):
            return "wrong", f"indices {indices} do not cover D(f)"
        if code == 4:
            return "unresolved", "subcover no-certificate"
        doc_covers = [sym_poly(c) for c in payload["covers"]]
        same = _same_elem(sym_poly(payload["f"]), f, modulus) and len(doc_covers) == len(
            item["covers"]) and all(_same_elem(d, sym_poly(c), modulus)
                                    for d, c in zip(doc_covers, item["covers"]))
        return ("ok", "") if same else ("wrong", "certificate is about another cover")
    # glue: a valid section is glued, or provably blocked, or unresolved
    if code == 4:
        status = payload.get("status")
        if status == "blocked":
            return "ok", ""
        if status == "certificate-exhausted":
            return "unresolved", "glue certificate-exhausted"
        return "wrong", f"glue status {status}"
    if not _same_elem(sym_poly(payload["f"]), f, modulus):
        return "wrong", "glue document is about another f"
    return "ok", ""
