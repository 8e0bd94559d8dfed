"""Benchmark of realspec: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload explore|certify|decide --seed N \\
        --seconds S --trace 0|1 [--smoke]

One closed-loop client, no threads: every worker process (bench/worker.py)
runs one item at a time, and only one worker runs at a time. Each worker
is a fresh interpreter, so the caches in `realspec.polynomials` and sympy's
caches start cold. Workers receive only inputs generated from `--seed`
(bench/workloads.py).

`--trace 0` makes PASSES passes over one corpus, each in a fresh worker.
The first pass runs whole batches until its share of `--seconds` of item
time is spent; the other passes run the same batches again. An item's time
is the least over the passes: a shared host can run at half speed for
seconds at a time, and the least of five fresh-process timings of one item
is much steadier than any one of them. `--trace 1` runs a fixed number of
batches twice, once plain and once with the spans of bench/tracer.py, so
that the per-layer counts repeat exactly for a seed; it prints the
per-layer metrics and `trace.overhead_frac`, the traced item time over the
plain one, minus one.

Every answer of the first pass is checked (bench/workloads.py, and in the
worker the checks that need the library); an exception in any pass counts
as a wrong answer. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a copy with the software
stamp goes to bench/results/. `--smoke` runs a tiny corpus per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PASSES = 5  # fresh workers over the run's corpus; an item's time is its least over them
TRACE_BATCHES = {"explore": 300, "certify": 8, "decide": 2}
DEADLINE_S = 170.0

SPAN_NAMES = tuple(span[-1] for span in tracer.SPANS + tracer.METHOD_SPANS)
SELF_ONLY = ("cli.main", "explore.explore_question", "explore.sample_section")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


class Worker:
    """A worker process; `setup_s` is the time from start to its "ready" line."""

    def __init__(self, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        # fixed hashing, so sympy's set orders and code paths repeat across passes
        env["PYTHONHASHSEED"] = "0"
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            self._fail("did not start")

    def _fail(self, what: str):
        self.proc.kill()
        _out, err = self.proc.communicate()
        raise BenchError(f"worker {what}: {err.strip()[-2000:]}")

    def run(self, job: dict) -> dict:
        try:
            out, err = self.proc.communicate(
                json.dumps(job) + "\n", timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._fail("passed the deadline")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        where = Path(result["realspec"])
        if ROOT / "src" not in where.parents:
            raise BenchError(f"worker imported realspec from {where}, not from this checkout")
        return result


def _describe(workload: str, item: dict) -> str:
    if workload == "certify":
        return "realspec " + " ".join(a if " " not in a else repr(a) for a in item["argv"])
    if workload == "explore":
        return f"explore_question(rings=1, trials=4, seed={item['seed']})"
    degree = max(len(v) - 1 for k, v in item.items() if k in ("p", "gen", "modulus"))
    return f"{item['call']} at degree {degree}"


def _items(workload: str, seed: int, n_batches: int) -> list[dict]:
    batches = workloads.BATCHES[workload](seed)
    return [item for _ in range(n_batches) for item in next(batches)]


def _check(workload: str, seed: int, result: dict) -> list[tuple[str, str, str]]:
    """(outcome, item description, reason) for every record of one worker."""
    items = _items(workload, seed, result["batches"])
    verdicts = []
    for rec in result["records"]:
        item = items[rec["index"]]
        item = {**item, "kind": "verify"} if rec.get("verify") else item
        what = _describe(workload, item)
        if "error" in rec:
            verdicts.append(("wrong", what, rec["error"]))
        elif workload == "certify":
            outcome, reason = workloads.check_certify(item, rec)
            verdicts.append((outcome, what, reason))
        elif workload == "decide":
            ok = workloads.check_decide(item, rec["out"])
            verdicts.append(("ok" if ok else "wrong", what, "" if ok else f"answered {rec['out']}"))
        else:
            exhausted = rec["out"]["tallies"].get("certificate-exhausted", 0)
            verdicts.append(("unresolved" if exhausted else "ok", what,
                             f"{exhausted} trial(s) certificate-exhausted" if exhausted else ""))
    return verdicts


def _end_to_end(setups: list[float], times: list[float], rss_mb: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }


def _per_layer(plain: dict, traced: dict, verdicts) -> dict:
    trace = traced["trace"]
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    metrics = {}
    for name in SPAN_NAMES:
        if name not in SELF_ONLY:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["polynomials.divmod.coeff_bits_max"] = (trace["coeff_bits_max"], "bits")
    for name, (hits, misses) in traced["cache"].items():
        metrics[f"polynomials.cache_hit_ratio.{name}"] = (_ratio(hits, hits + misses), "ratio")
    found = counts.get("find_certificate.found", 0)
    exhausted = counts.get("find_certificate.member-no-certificate", 0)
    metrics["rings.find_certificate.found_ratio"] = (_ratio(found, found + exhausted), "ratio")
    metrics["sheaves.glue.glued_ratio"] = (
        _ratio(counts.get("glue.glued", 0), calls.get("sheaves.glue", 0)), "ratio")
    plain_t = sum(rec["t"] for rec in plain["records"])
    traced_t = sum(rec["t"] for rec in traced["records"])
    metrics["trace.overhead_frac"] = (traced_t / plain_t - 1, "ratio")
    n = len(verdicts)
    metrics["unresolved_frac"] = (sum(v[0] == "unresolved" for v in verdicts) / n, "ratio")
    metrics["error_frac"] = (sum(v[0] == "wrong" for v in verdicts) / n, "ratio")
    return metrics


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamp() -> dict:
    import sympy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(), "sympy": sympy.__version__, "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "src_lines": src_lines, "machine": platform.machine(),
    }


def _job(workload: str, seed: int, **kw) -> dict:
    return {"workload": workload, "seed": seed, "trace": False,
            "check": True, "budget_s": 0, "max_batches": None, **kw}


def _traced_run(workload: str, seed: int, batches: int, deadline: float) -> dict:
    pair, verdicts = [], []
    for traced in (False, True):
        pair.append(Worker(deadline).run(_job(workload, seed, trace=traced,
                                              max_batches=batches)))
        verdicts += _check(workload, seed, pair[-1])
    return {"verdicts": verdicts, "metrics": _per_layer(*pair, verdicts)}


def _timed_run(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    setups, runs = [], []
    for p in range(1 if smoke else PASSES):
        worker = Worker(deadline)
        setups.append(worker.setup_s)
        if p == 0:
            job = _job(workload, seed, budget_s=seconds / PASSES, max_batches=1 if smoke else None)
        else:
            job = _job(workload, seed, check=False, max_batches=runs[0]["batches"])
        runs.append(worker.run(job))
    first, *later = runs
    verdicts = _check(workload, seed, first)
    items = _items(workload, seed, first["batches"])
    verdicts += [("wrong", _describe(workload, items[rec["index"]]), rec["error"])
                 for other in later for rec in other["records"] if "error" in rec]
    records = [r["records"] for r in runs]
    if len({len(r) for r in records}) != 1:
        raise BenchError("passes over the same batches ran different items")
    times = [min(recs[i]["t"] for recs in records) for i in range(len(first["records"]))]
    rss_mb = [r["rss_kb"] / 1024 for r in runs]
    return {"verdicts": verdicts, "metrics": _end_to_end(setups, times, rss_mb)}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    problems = workloads.check_factor_pool()
    if problems:
        raise BenchError("; ".join(problems))
    if trace:
        return _traced_run(workload, seed, 1 if smoke else TRACE_BATCHES[workload], deadline)
    return _timed_run(workload, seed, seconds, smoke, deadline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "realspec" / "__init__.py").is_file():
        print(f"error: no realspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    verdicts = out["verdicts"]
    wrong = [v for v in verdicts if v[0] == "wrong"]
    unresolved = [v for v in verdicts if v[0] == "unresolved"]
    stamp = _stamp()
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(verdicts)} items, "
          f"{len(unresolved)} unresolved, {len(wrong)} wrong")
    for label, group in (("unresolved", unresolved), ("wrong", wrong)):
        for _outcome, what, reason in group[:20]:
            print(f"{label}: {what} -- {reason}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": len(verdicts),
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results_dir / name).write_text(json.dumps({
        **result, "stamp": stamp, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "unresolved": [v[1:] for v in unresolved],
        "wrong": [v[1:] for v in wrong],
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
