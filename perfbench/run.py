"""Benchmark of constdeg: build and re-verify certificates for a fixed job
matrix and report what each stage costs.

    python3 perfbench/run.py --workload q-search --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the src/ directory next
to this one, in this process, with no extra threads.  A run repeats
passes over the workload's jobs until --seconds are used.  A stage time
is the sum over jobs of each job's median over the passes, scaled to a
fixed reference speed (see REFERENCE_S).  Before every job the package's
lru_caches are cleared, so each job pays what a fresh `constdeg
construct` run pays.

--trace 0 times the library calls a user makes (construct or
compose_for_n, then certificate_json, parse_certificate and verify) and
prints the end-to-end metrics.  --trace 1 first times one such pass
untraced, then installs wrappers on the package's module bindings (see
tracer.py), runs every job through cli.run, prints the per-layer
metrics, and writes the spans to perfbench/out/.  Every job's
certificate passes the correctness gate in gate.py or counts as failed.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
from tracer import MODULES, NOT_WRAPPED, Tracer
from workloads import WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median

# End-to-end times are reported at a fixed reference speed.  On a shared
# 2-vCPU Xeon VM (2.1 GHz, CPython 3.11) the speed of any Python code
# was seen to swing by up to 1.8x within seconds, as other tenants loaded
# the host, and raw medians of the same code drifted by a third between
# runs.  So the small kernel below is timed before and after every job,
# and the job's wall time is multiplied by REFERENCE_S over the kernel's
# time around it.  REFERENCE_S is the kernel's best-of-three time on
# that VM in its fast phases, where scaled times equal wall times.
REFERENCE_S = 0.0055

END_TO_END = (
    ("setup_s", "s"),
    ("construct_s", "s"),
    ("verify_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

TIMED_FUNCTIONS = (
    "arith.is_prime",
    "arith.power_residue_level",
    "arith.ell_root",
    "quadfield.ideal_pow",
    "quadfield.ideal_mul",
    "quadfield.principal_generator",
    "quadfield.class_dlog",
    "quadfield.reduce_mod",
    "classfield.in_S",
    "classfield.search_prime",
    "classfield.local_degree",
    "classfield.frobenius_order_in_ray_piece",
    "classfield.enumerate_field_primes",
)

# the functions whose self time inside searches makes up ideal_share
IDEAL_SHARE = frozenset(
    ["arith.is_prime", *(n for n in TIMED_FUNCTIONS if n.startswith("quadfield."))]
)

PER_LAYER = (
    *((f"{name}.{kind}", unit)
      for name in TIMED_FUNCTIONS
      for kind, unit in (("calls", "count"), ("s", "s"))),
    ("classfield.in_S.pass_ratio", "ratio"),
    ("classfield.search_prime.self_s", "s"),
    ("classfield.search_prime.entries", "count"),
    ("classfield.search_prime.us_per_entry", "us"),
    ("classfield.search_prime.exhausted", "count"),
    ("classfield.search_prime.share", "ratio"),
    ("classfield.search_prime.ideal_share", "ratio"),
    ("classfield.build_context.s", "s"),
    ("quadfield.class_group_l_part.s", "s"),
    ("classfield.targets_cached", "count"),
    ("constructor.pieces", "count"),
    ("constructor.max_conductor_norm", "norm"),
    ("constructor.cert_bytes", "bytes"),
    ("constructor.certificate_json.s", "s"),
    ("constructor.exhausted_frac", "ratio"),
    ("verifier.parse_certificate.s", "s"),
    ("verifier.rebuild.s", "s"),
    ("verifier.recompute.s", "s"),
    ("cli.run.s", "s"),
    ("cli.overhead_s", "s"),
    *((f"{layer}.self_s", "s") for layer in MODULES),
    ("trace.construct_s", "s"),
    ("trace.untraced_construct_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class PackageMissing(Exception):
    """The checkout has no constdeg sources next to the benchmark."""


@dataclass
class Outcome:
    job: object
    status: str  # "ok", "exhausted" or "failed"
    construct_s: float = 0.0
    verify_s: float = 0.0
    sha256: str = ""
    doc_bytes: int = 0
    counts: dict = field(default_factory=dict)
    targets_cached: int = 0
    reason: str = ""
    scale: float = 1.0  # REFERENCE_S over the reference time around the job


class Bench:
    """The imported package and the caches it keeps between calls."""

    def __init__(self):
        if not (SRC / "constdeg" / "__init__.py").is_file():
            raise PackageMissing(f"no constdeg package under {SRC}")
        sys.path.insert(0, str(SRC))
        import constdeg
        import constdeg.cli

        if Path(constdeg.__file__).resolve().parent != (SRC / "constdeg").resolve():
            raise PackageMissing(f"constdeg was imported from {constdeg.__file__}")
        self.cd = constdeg
        self.caches = []
        for name in MODULES:
            for value in vars(getattr(constdeg, name)).values():
                if hasattr(value, "cache_clear") and value not in self.caches:
                    self.caches.append(value)

    def reset(self):
        """Empty the package's caches and collect garbage, so that every
        job starts from the same state."""
        for cached in self.caches:
            cached.cache_clear()
        gc.collect()

    def cli(self, argv):
        """cli.run(argv) with its output captured: (exit code, stderr)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cd.cli.run(argv)
        return code, err.getvalue()


def prime_powers(n: int) -> list:
    out, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


# ------------------------------------------------------ reference speed


def _reference_kernel():
    # modular powers and many small dicts and lists, as in the searches
    # and the certificate tables
    rows, x = [], 1
    for i in range(1, 12000):
        x = pow(x + i, 3, 1000003)
        rows.append({"prime": [x, None], "degree": i & 7})
        if len(rows) == 2000:
            rows = [row for row in rows if row["degree"] == 0]
    return x


def reference_s() -> float:
    """Best of three timings of the reference kernel."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _reference_kernel()
        best = min(best, perf_counter() - t0)
    return best


def scaled(step):
    """Runs step() between two reference timings; returns its result and
    the factor that scales its wall time to the reference speed."""
    before = reference_s()
    result = step()
    return result, 2 * REFERENCE_S / (before + reference_s())


# ------------------------------------------------------------ one job


def _exhausted(job, construct_s):
    if job.may_exhaust:
        return Outcome(job, "exhausted", construct_s)
    return Outcome(job, "failed", construct_s, reason="search exhausted")


def _finish(job, text, construct_s, verify_s, error=None):
    # the gate runs outside the timed regions
    doc = json.loads(text)
    problems = ([error] if error else []) + gate.check(job, doc)
    return Outcome(
        job,
        "failed" if problems else "ok",
        construct_s,
        verify_s,
        gate.sha256(text),
        len(text.encode("utf-8")),
        gate.work_counts(doc),
        reason="; ".join(problems),
    )


def run_job(bench, job, tamper=False) -> Outcome:
    """One job through the library calls, timed by stage."""
    cd = bench.cd
    bench.reset()
    base = cd.RATIONAL if job.disc is None else cd.quadratic_field(job.disc)
    config = cd.Config(cap=job.cap)
    powers = prime_powers(job.n)
    t0 = perf_counter()
    try:
        if len(powers) == 1:
            ((ell, r),) = powers
            cert = cd.constructor.construct(base, ell, r, job.bound, config)
        else:
            cert = cd.constructor.compose_for_n(base, job.n, job.bound, config)
    except cd.arith.SearchExhausted:
        return _exhausted(job, perf_counter() - t0)
    except Exception:
        return Outcome(job, "failed", perf_counter() - t0, reason=traceback.format_exc())
    t1 = perf_counter()
    text = cd.constructor.certificate_json(cert)
    t2 = perf_counter()
    if tamper:
        text = gate.tampered(text)
    error = None
    t3 = perf_counter()
    try:
        cd.verifier.verify(cd.verifier.parse_certificate(text))
    except (cd.MalformedCertificate, cd.MismatchFound) as exc:
        error = f"verify: {type(exc).__name__}: {exc}"
    except Exception:
        error = "verify raised " + traceback.format_exc()
    t4 = perf_counter()
    return _finish(job, text, t1 - t0, (t2 - t1) + (t4 - t3), error)


def run_job_cli(bench, job, tracer, path) -> Outcome:
    """One job as `constdeg construct` then `constdeg verify`; the stage
    times are read from the tracer's spans."""
    bench.reset()
    code, err = bench.cli(
        ["construct", "--field", job.field, "--n", str(job.n), "--bound", str(job.bound),
         "--cap", str(job.cap), "--out", str(path)]
    )
    targets = tracer.take_targets_cached()
    if code == 3:
        outcome = _exhausted(job, 0.0)
    elif code != 0:
        outcome = Outcome(job, "failed", reason=f"construct exit {code}: {err.strip()}")
    else:
        text = path.read_text(encoding="utf-8")
        code, err = bench.cli(["verify", str(path)])
        path.unlink()
        error = None if code == 0 else f"verify exit {code}: {err.strip()}"
        outcome = _finish(job, text, 0.0, 0.0, error)
    outcome.targets_cached = targets
    return outcome


# ------------------------------------------------------------- passes


def measure(run_pass, seconds) -> list:
    """Calls run_pass() until the next pass would overrun seconds, at
    least once; returns the list of passes."""
    passes, longest, start = [], 0.0, perf_counter()
    while True:
        p0 = perf_counter()
        passes.append(run_pass())
        longest = max(longest, perf_counter() - p0)
        if perf_counter() - start + longest > seconds:
            return passes


def library_pass(bench, jobs, tamper=False):
    def one_pass():
        outcomes = []
        for job in jobs:
            outcome, scale = scaled(lambda: run_job(bench, job, tamper))
            outcome.scale = scale
            outcomes.append(outcome)
        return outcomes

    return one_pass


def tally(passes) -> dict:
    outcomes = [o for p in passes for o in p]
    attempted = len(outcomes)
    failed = sum(o.status == "failed" for o in outcomes)
    exhausted = sum(o.status == "exhausted" for o in outcomes)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "exhausted_frac": exhausted / attempted,
    }


def determinism_problems(passes) -> list:
    """Jobs whose outcome or certificate hash differs between passes."""
    seen, problems = {}, []
    for p in passes:
        for o in p:
            key = (o.status, o.sha256)
            if seen.setdefault(o.job.label, key) != key:
                problems.append(f"{o.job.label}: output differs between passes")
    return problems


def measure_setup() -> float:
    """Median time, at the reference speed, of a fresh interpreter
    importing constdeg."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn():
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import constdeg"], env=env, check=True)
        return perf_counter() - t0

    times = []
    for _ in range(SETUP_RUNS):
        wall, scale = scaled(spawn)
        times.append(wall * scale)
    return statistics.median(times)


def end_to_end(passes, setup_s, scale=True) -> dict:
    """The end-to-end metrics.  Each stage time is the sum over jobs of
    the job's median over passes; scale=False gives unscaled wall times."""
    by_job = {}
    for p in passes:
        for o in p:
            f = o.scale if scale else 1.0
            by_job.setdefault(o.job.label, []).append((o.construct_s * f, o.verify_s * f))

    def stage(pick):
        return sum(statistics.median(pick(c, v) for c, v in times) for times in by_job.values())

    return {
        "setup_s": setup_s,
        "construct_s": stage(lambda c, v: c),
        "verify_s": stage(lambda c, v: v),
        "total_s": stage(lambda c, v: c + v),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ------------------------------------------------------------ tracing


def traced_metrics(tracer, spans, outcomes, untraced) -> dict:
    """Per-layer metrics of one traced pass; times are wall times.
    untraced is the untraced pass's construct time, as wall time and at
    the reference speed; the tracing overhead compares the two passes at
    the reference speed, so that a change in host speed between them
    does not count as overhead."""
    runs = {s[0] for s in spans if s[2] == "cli.run"}
    inside_cli, construct_by_job = {}, {}
    for s in spans:
        if s[6] in runs:
            inside_cli[s[2]] = inside_cli.get(s[2], 0.0) + s[5] - s[4]
            if s[2] in ("constructor.construct", "constructor.compose_for_n"):
                construct_by_job[s[1]] = construct_by_job.get(s[1], 0.0) + s[5] - s[4]
    construct_s = sum(construct_by_job.values())
    scaled_construct_s = sum(t * outcomes[i].scale for (_, i), t in construct_by_job.items())
    library_s = construct_s + sum(
        inside_cli.get(name, 0.0)
        for name in (
            "constructor.certificate_json",
            "verifier.parse_certificate",
            "verifier.verify",
        )
    )
    total = tracer.total
    m = {}
    for name in TIMED_FUNCTIONS:
        m[f"{name}.calls"] = total(name, 0)
        m[f"{name}.s"] = total(name)
    search_s = m["classfield.search_prime.s"]
    entries = tracer.entries
    in_search = tracer.in_search
    ok = [o for o in outcomes if o.status == "ok"]
    m.update(
        {
            "classfield.in_S.pass_ratio": total("classfield.in_S", 1)
            / max(1, m["classfield.in_S.calls"]),
            "classfield.search_prime.self_s": total("classfield.search_prime", 3),
            "classfield.search_prime.entries": entries,
            "classfield.search_prime.us_per_entry": search_s * 1e6 / entries if entries else 0.0,
            "classfield.search_prime.exhausted": tracer.exhausted,
            "classfield.search_prime.share": search_s / construct_s if construct_s else 0.0,
            "classfield.search_prime.ideal_share": (
                sum(s for n, s in in_search.items() if n in IDEAL_SHARE) / search_s
                if search_s
                else 0.0
            ),
            "classfield.build_context.s": total("classfield.build_context"),
            "quadfield.class_group_l_part.s": total("quadfield.class_group_l_part"),
            "classfield.targets_cached": sum(o.targets_cached for o in outcomes),
            "constructor.pieces": sum(o.counts["pieces"] for o in ok),
            "constructor.max_conductor_norm": max(
                (o.counts["max_conductor_norm"] for o in ok), default=0
            ),
            "constructor.cert_bytes": sum(o.doc_bytes for o in ok),
            "constructor.certificate_json.s": total("constructor.certificate_json"),
            "constructor.exhausted_frac": tally([outcomes])["exhausted_frac"],
            "verifier.parse_certificate.s": total("verifier.parse_certificate"),
            "verifier.rebuild.s": total("classfield.build_context", site="verifier")
            + total("classfield.make_ray_piece", site="verifier"),
            "verifier.recompute.s": total("classfield.frobenius_order_in_L0", site="verifier")
            + total("classfield.frobenius_order_in_ray_piece", site="verifier"),
            "cli.run.s": total("cli.run"),
            "cli.overhead_s": total("cli.run") - library_s,
        }
    )
    for layer in MODULES:
        m[f"{layer}.self_s"] = tracer.layer_self(layer)
    m["trace.construct_s"] = construct_s
    m["trace.untraced_construct_s"] = untraced[0]
    m["trace.overhead_frac"] = scaled_construct_s / untraced[1] - 1
    return m


def measure_traced(bench, jobs, seconds):
    """One untraced pass, then traced passes through the CLI until
    seconds are used.  Returns (all passes, per-pass metrics, tracer)."""
    start = perf_counter()
    untraced = measure(library_pass(bench, jobs), 0)
    untraced_construct = (
        sum(o.construct_s for o in untraced[0]),
        sum(o.construct_s * o.scale for o in untraced[0]),
    )
    tracer = Tracer(bench.cd)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cert-{os.getpid()}.json"
    per_pass = []

    def traced_pass():
        tracer.reset()
        mark = len(tracer.spans)
        outcomes = []
        for i, job in enumerate(jobs):
            tracer.job = (len(per_pass), i)
            outcome, outcome_scale = scaled(lambda: run_job_cli(bench, job, tracer, path))
            outcome.scale = outcome_scale
            outcomes.append(outcome)
        per_pass.append(
            traced_metrics(tracer, tracer.spans[mark:], outcomes, untraced_construct)
        )
        return outcomes

    tracer.install()
    try:
        passes = measure(traced_pass, seconds - (perf_counter() - start))
    finally:
        tracer.uninstall()
        path.unlink(missing_ok=True)
    return untraced + passes, per_pass, tracer


def write_trace(workload, seed, passes, per_pass, tracer) -> Path:
    """Spans, folded totals and job outputs of a traced run, as JSON."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["id", "job", "name", "site", "start", "end", "parent"],
        "spans": tracer.spans,
        "last_pass_totals": [
            {"name": n, "site": s, "calls": c, "true": t, "s": sec, "self_s": own}
            for (n, s), (c, t, sec, own) in sorted(tracer.stats.items())
        ],
        "not_wrapped": NOT_WRAPPED,
        "per_pass_metrics": per_pass,
        "jobs": [
            {"label": o.job.label, "status": o.status, "sha256": o.sha256,
             "bytes": o.doc_bytes, "reason": o.reason}
            for o in passes[-1]
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------- main


def _print_jobs(passes):
    for o in passes[0]:
        line = (f"job {o.job.label}: {o.status} "
                f"construct {o.construct_s:.3f} s verify {o.verify_s:.3f} s")
        if o.sha256:
            c = o.counts
            line += (f" pieces {c['pieces']} entries {c['entries']} bytes {o.doc_bytes}"
                     f" sha256 {o.sha256[:16]}")
        print(line)
        if o.reason:
            print(f"  reason: {o.reason.strip()}", file=sys.stderr)


def _print_metrics(values, units):
    for name, unit in units:
        print(f"metric {name} {values[name]:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="sets the job order; 0 keeps the listed order")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench = Bench()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(job.label for job in jobs))
    if args.trace:
        passes, per_pass, tracer = measure_traced(bench, jobs, args.seconds)
        units = PER_LAYER
        metrics = {name: statistics.median_low(m[name] for m in per_pass) for name, _ in units}
        path = write_trace(args.workload, args.seed, passes, per_pass, tracer)
        print(f"# trace written to {path}")
        print("# not wrapped: " + ", ".join(NOT_WRAPPED))
    else:
        setup_s = measure_setup()
        passes = measure(library_pass(bench, jobs), args.seconds)
        units = END_TO_END
        metrics = end_to_end(passes, setup_s)
        wall = end_to_end(passes, setup_s, scale=False)
        scales = [o.scale for p in passes for o in p]
        print(f"# wall construct_s {wall['construct_s']:.6g} s, verify_s {wall['verify_s']:.6g} s; "
              f"speed scale median {statistics.median(scales):.4g}, "
              f"range {min(scales):.4g} to {max(scales):.4g}")
    counts = tally(passes)
    problems = determinism_problems(passes)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    _print_jobs(passes)
    print(f"# passes {len(passes)}, jobs attempted {counts['attempted']}")
    _print_metrics(
        {**counts, **metrics}, [("fail_frac", "ratio"), ("exhausted_frac", "ratio"), *units]
    )
    result = {
        "correct": counts["failed"] == 0 and not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
