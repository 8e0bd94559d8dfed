"""One pass over one corpus of a workload, in a fresh interpreter.

run.py starts this script with the checkout's `src/` on PYTHONPATH. It
prints "ready" as soon as realspec is imported and a first ring is built
(run.py times that as set-up, from the moment it starts the process), then
reads one job as a JSON line on stdin, runs whole batches of the workload
until the item-time budget is spent (or a fixed number of batches), and
prints one JSON line with every item's time and answer. Checks that need
the library itself (re-gluing explore trials, `section_eq(psi(fraction),
section)`) run after the timed loop, with tracing removed, so they neither
warm the caches mid-run nor show up in the spans.
"""

from __future__ import annotations

import io
import json
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import realspec
from realspec import cli, explore, parsing, polynomials, sheaves

import tracer as tracing
import workloads

CACHES = {
    "factor": polynomials._factor_cached,
    "count_real_roots": polynomials._count_real_roots_cached,
    "real_part": polynomials._real_part_cached,
}
clock = time.perf_counter


def _error(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def _cli(argv: list[str], stdin_text: str | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    rec: dict = {}
    t0 = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rec["code"] = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rec["code"] = exc.code
    except Exception as exc:  # a traceback is a wrong answer, not a crash of the run
        rec["error"] = _error(exc)
    finally:
        rec["t"] = clock() - t0
        sys.stdin = saved
    rec["stdout"] = out.getvalue()
    try:
        rec["payload"] = json.loads(rec["stdout"])
    except ValueError:
        rec["payload"] = None
    return rec


def _run_certify(item: dict) -> list[dict]:
    rec = _cli(item["argv"])
    recs = [rec]
    payload = rec["payload"]
    has_doc = rec.get("code") == 0 and isinstance(payload, dict) and (
        item["kind"] != "find" or "m" in payload)
    if has_doc:
        verify = _cli(["cert", "verify", "--json", "-"], rec["stdout"])
        verify["verify"] = True
        recs.append(verify)
    for r in recs:
        del r["stdout"]
    return recs


def _timed(call) -> dict:
    rec: dict = {}
    t0 = clock()
    try:
        rec["out"] = call()
    except Exception as exc:  # a traceback is a wrong answer, not a crash of the run
        rec["error"] = _error(exc)
    rec["t"] = clock() - t0
    return rec


def _coeffs(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def _decide_call(item: dict):
    """Build the inputs (untimed) and return the timed call."""
    poly = {k: realspec.Poly(v) for k, v in item.items() if k in ("p", "gen", "a", "f")}
    ring = (realspec.Ring.quotient(realspec.Poly(item["modulus"])) if "modulus" in item
            else realspec.Ring.rationals())
    call = item["call"]
    if call == "count_real_roots":
        return lambda: realspec.count_real_roots(poly["p"])
    if call == "real_part":
        return lambda: _coeffs(realspec.real_part(poly["p"]))
    if call == "real_radical_member":
        return lambda: realspec.real_radical_member(ring.ideal(poly["gen"]), ring.elem(poly["a"]))
    if call == "cover_check":
        fs = [realspec.Poly(g) for g in item["fs"]]
        return lambda: realspec.cover_check(ring.elem(poly["f"]), [ring.elem(g) for g in fs])
    return lambda: _coeffs(realspec.v_of(ring.ideal(poly["gen"])).gen)


def _run_decide(item: dict) -> list[dict]:
    return [_timed(_decide_call(item))]


def _explore_config(seed: int):
    """One ring of a campaign at the CLI's defaults (degrees 2..8, 4 trials)."""
    return explore.ExploreConfig(rings=1, seed=seed)


def _run_explore(item: dict) -> list[dict]:
    config = _explore_config(item["seed"])

    def call():
        ring = explore.explore_question(config).rings[0]
        return {"ring": ring.ring, "tallies": ring.tallies}

    return [_timed(call)]


RUNNERS = {"explore": _run_explore, "certify": _run_certify, "decide": _run_decide}


def _replay_explore(seed: int, out: dict) -> str | None:
    """Glue the campaign's sections again and re-check every glued fraction.

    explore_question draws the ring and then one section per trial from
    random.Random(seed), so the same draws give back its sections.
    """
    config = _explore_config(seed)
    rng = random.Random(seed)
    ring = explore.sample_semireal_nonreal_ring(rng, config.deg_min, config.deg_max)
    if str(ring) != out["ring"]:
        return f"ring {out['ring']} does not replay"
    tallies = {"glued": 0, "certificate-exhausted": 0, "blocked": 0}
    for _ in range(config.trials):
        section = explore.sample_section(rng, ring)
        outcome = sheaves.glue(section)
        tallies[outcome.status.value] += 1
        if outcome.glued and not sheaves.section_eq(sheaves.psi(outcome.fraction), section):
            return "glued fraction disagrees with its section"
    if tallies != out["tallies"]:
        return f"tallies {out['tallies']} do not replay as {tallies}"
    return None


def _recheck_glue(item: dict, payload: dict) -> str | None:
    """section_eq(psi(fraction), section) for a glue document and its input."""
    ring = parsing.parse_ring(item["ring"])
    elem = lambda text: ring.elem(parsing.parse_poly(text))  # noqa: E731
    patches = []
    for patch in item["patches"]:
        g, a = patch.split(":", 1)
        patches.append(sheaves.LocalFraction(elem(a), elem(g)))
    section = sheaves.Section(ring, elem(item["f"]), tuple(patches))
    sos = realspec.SumOfSquares(tuple(elem(t) for t in payload["sos"]))
    den = realspec.SigmaDenominator(elem(payload["f"]), int(payload["k"]), sos)
    fraction = sheaves.SigmaFraction(elem(payload["numerator"]), den)
    if not sheaves.section_eq(sheaves.psi(fraction), section):
        return "glued fraction disagrees with its section"
    return None


def _post_check(workload: str, item: dict, rec: dict) -> str | None:
    if "error" in rec or rec.get("verify"):
        return None
    if workload == "explore":
        return _replay_explore(item["seed"], rec["out"])
    if workload == "certify" and item["kind"] == "glue" and rec.get("code") == 0:
        return _recheck_glue(item, rec["payload"])
    return None


def main() -> None:
    realspec.Ring.quotient(realspec.Poly([1, 0, 1]))
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    workload = job["workload"]
    run_item = RUNNERS[workload]
    batches = workloads.BATCHES[workload](job["seed"])
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()

    records, items = [], []
    spent, n_batches = 0.0, 0
    max_batches, budget = job["max_batches"], job["budget_s"]
    while (n_batches < max_batches) if max_batches else (spent < budget):
        for item in next(batches):
            for rec in run_item(item):
                rec["index"] = len(items)
                spent += rec["t"]
                records.append(rec)
            items.append(item)
        n_batches += 1

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache = {name: list(fn.cache_info()[:2]) for name, fn in CACHES.items()}
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.snapshot()

    for rec in records if job["check"] else ():
        try:
            problem = _post_check(workload, items[rec["index"]], rec)
        except Exception as exc:
            problem = _error(exc)
        if problem:
            rec["error"] = problem

    result = {
        "records": records, "batches": n_batches, "rss_kb": rss_kb, "cache": cache,
        "trace": trace, "realspec": str(Path(realspec.__file__).resolve()),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
