"""The lietrip benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload ladder-q --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
A run generates the workload's inputs from the seed, makes a fixed number
of passes over the workload's job list (``--seconds`` divided by the
workload's nominal pass time), checks every answer, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics in reference seconds, ``--trace 1`` the
per-layer metrics from separate traced passes (see README.md here).

A job fails if it raises, overruns its time budget (it is then stopped),
exits with another code than promised, or gives an answer that differs
from the reference.  ``correct`` is false when any answer was wrong; a job
that crashed or timed out gave no answer and is counted in ``failed`` only.

``--capture`` rewrites references.json from the current library (one pass
of every workload); do that only on a commit whose answers are trusted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import jobs
import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("ladder-q", "ladder-fp", "dense-basis", "cli")
JOB_BUDGET_S = 60.0       # in-process job
CLI_BUDGET_S = 30.0       # one lietrip subprocess
RUN_LIMIT_S = 150.0       # no job starts past this point of the run
SETUP_PROBES = 7
CAL_REF_MS = 5.0          # calibration time that defines a reference second
# Seconds one pass takes on the 2-vCPU machine this was tuned on, at its
# slower speed.  A run makes --seconds // PASS_S passes: a fixed count, so
# the pooled latency percentiles always see the same mix of jobs.
PASS_S = {"ladder-q": 4.5, "ladder-fp": 6.0, "dense-basis": 6.0, "cli": 6.0}
CLI_PROBES = 3


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def digest(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def calibration_ms() -> float:
    """Median of three timings of a fixed kernel of the library's kind of
    work (Fraction elimination, modular integer arithmetic), written without
    lietrip so a change to the library cannot move it.  See "Reference
    seconds" in README.md."""
    return statistics.median(_kernel_ms() for _ in range(3))


def _kernel_ms() -> float:
    t0 = time.perf_counter()
    n = 9
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 5
    return (time.perf_counter() - t0) * 1000.0


def tail(values: list):
    """(value, percentile) at the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0
    k = n - 11  # index of the sample with exactly 10 samples above it
    return sorted(values)[k], 100.0 * (k + 1) / n


# ---------------------------------------------------------------------------
# set-up

def setup_probes(workload: str, seed: int) -> tuple[list, list, list]:
    """Wall times of fresh processes that import lietrip and generate the
    workload's raw inputs, the reference-second factor measured around each,
    and the import time each one reports."""
    walls, factors, imports = [], [], []
    probe = os.path.join(HERE, "setup_probe.py")
    before = calibration_ms()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, probe, workload, str(seed)], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - t0)
        after = calibration_ms()
        factors.append(2 * CAL_REF_MS / (before + after))
        before = after
        imports.append(float(out.stdout.split()[-1]))
    return walls, factors, imports


def write_cli_payloads(directory: str) -> None:
    import clijobs
    os.makedirs(directory, exist_ok=True)
    for name, payload in clijobs.payloads().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))


# ---------------------------------------------------------------------------
# running jobs

class Runner:
    def __init__(self, wl, references: dict, deadline: float, cli_dir: str):
        self.wl = wl
        self.refs = references.get(wl.name, {})
        self.deadline = deadline
        self.cli_dir = cli_dir
        self.first_digest: dict = {}
        self.failures: dict = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.recorder = None
        self.cli_spans: list = []
        self.cli_main_s: dict = {}
        self.budget = CLI_BUDGET_S if wl.cli else JOB_BUDGET_S

    def fail(self, job, why: str, wrong: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not wrong
        self.failures.setdefault((job.id, why), 0)
        self.failures[(job.id, why)] += 1

    def check_text(self, job, text) -> str | None:
        d = digest(text)
        if job.seeded:
            want = self.first_digest.setdefault(job.id, d)
        else:
            want = self.refs.get(job.id)
            if want is None:
                return "no reference digest"
        return None if d == want else "output digest differs from the reference"

    def run_job(self, job, state: dict, tag: str) -> tuple[float, bool]:
        """Run one job and account for it: (seconds it took, whether it passed)."""
        self.attempted += 1
        failed_before = self.failed
        budget = min(self.budget, self.deadline - time.perf_counter())
        if budget <= 0:
            self.fail(job, "not started: the run is out of time", False)
            return 0.0, False
        if self.recorder is not None:
            self.recorder.job = tag
        t0 = time.perf_counter()
        if self.wl.cli:
            self.run_cli(job, budget, tag)
        else:
            self.run_in_process(job, state, budget)
        return time.perf_counter() - t0, self.failed == failed_before

    def run_in_process(self, job, state: dict, budget: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            text, facts = job.run(state)
        except JobTimeout:
            self.fail(job, f"timed out after {budget:.0f} s", False)
            return
        except Exception as exc:  # any library error is a failed job, not a crash of the run
            self.fail(job, f"raised {type(exc).__name__}: {exc}", False)
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.out_bytes += len(text)
        why = self.check_text(job, text) or jobs.check_facts(job, facts)
        if why:
            self.fail(job, why, True)

    def run_cli(self, job, budget: float, tag: str) -> None:
        if self.recorder is not None:
            spans_file = os.path.join(self.cli_dir, "spans.jsonl")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_file] + job.argv
        else:
            argv = [sys.executable, "-m", "lietrip.cli"] + job.argv
        try:
            proc = subprocess.run(argv, cwd=self.cli_dir, env=child_env(), capture_output=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            self.fail(job, f"timed out after {budget:.0f} s", False)
            return
        self.out_bytes += len(proc.stdout)
        if self.recorder is not None:
            self.collect_child_spans(spans_file, tag)
        stderr = proc.stderr.decode("utf-8", "replace")
        if "Traceback (most recent call last)" in stderr:
            last = stderr.strip().splitlines()[-1]
            self.fail(job, f"crashed with exit {proc.returncode}: {last}", False)
        elif proc.returncode != job.code:
            self.fail(job, f"exit {proc.returncode}, expected {job.code}", True)
        elif job.code == 2:
            lines = stderr.strip().splitlines()
            if proc.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                self.fail(job, "invalid input must give one 'error:' line and no report", True)
        else:
            why = self.check_text(job, proc.stdout)
            if why:
                self.fail(job, why, True)

    def collect_child_spans(self, path: str, tag: str) -> None:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh]
        os.remove(path)
        base = len(self.cli_spans)
        for rec in lines:
            if "header" in rec:
                self.cli_main_s[tag] = rec["header"]["main_s"]
                continue
            rec["job"] = tag
            if rec["parent"] is not None:
                rec["parent"] += base
            self.cli_spans.append(rec)

    def run_pass(self, index: int, chains: list) -> dict:
        """One pass over the job list: per-job latencies, and their sums of
        wall and CPU time (the harness's own checks are not counted).

        Each chain starts from an empty state and a collected heap, so the
        order the seed picks does not change what a job costs.
        """
        self.out_bytes = 0
        latencies, cpus, factors, failed, cals = {}, {}, {}, set(), []
        before = calibration_ms()
        for chain in chains:
            state: dict = {}
            for job in chain:
                gc.collect()
                cpu0 = cpu_seconds()
                latencies[job.id], ok = self.run_job(job, state, f"{index}:{job.id}")
                cpus[job.id] = cpu_seconds() - cpu0
                if not ok:
                    failed.add(job.id)
            after = calibration_ms()
            for job in chain:
                factors[job.id] = 2 * CAL_REF_MS / (before + after)
            cals.append(before)
            before = after
        return {"index": index, "wall": sum(latencies.values()), "cpu": sum(cpus.values()),
                "latencies": latencies, "cpus": cpus, "factors": factors, "failed": failed,
                "bytes": self.out_bytes, "calibration_ms": statistics.median(cals)}


def cpu_seconds() -> float:
    """CPU time of this process and of its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_passes(runner, chains, count: int, start_index: int) -> list:
    """``count`` passes, or fewer if the next one might not end in time."""
    passes = []
    while len(passes) < count:
        start = time.perf_counter()
        passes.append(runner.run_pass(start_index + len(passes), chains))
        if time.perf_counter() + (time.perf_counter() - start) > runner.deadline:
            break
    return passes


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes: list, setup: tuple, frontier: str, budget: float) -> tuple:
    """Times in reference seconds (raw time x the factor measured next to
    it), each job's median over the passes; wall_s and cpu_s sum them.

    The latency percentiles pool one sample per job and pass, each taken as
    its job's median latency (a failed attempt counts as the whole budget,
    since it misses any latency limit), so the speed swings between passes
    cannot decide which job a percentile lands on.  ``info`` carries the
    same figures in raw seconds."""
    ids = list(passes[0]["latencies"])

    def per_job(key, scaled, failed_as=None):
        def value(p, j):
            if failed_as is not None and j in p["failed"]:
                return failed_as
            return p[key][j] * (p["factors"][j] if scaled else 1.0)
        return {j: statistics.median(value(p, j) for p in passes) for j in ids}

    setup_walls, setup_factors = setup
    out = {}
    for scaled in (True, False):
        lat, cpu = per_job("latencies", scaled), per_job("cpus", scaled)
        pooled = [v for v in per_job("latencies", scaled, budget).values()
                  for _ in passes]
        tail_value, tail_pct = tail(pooled)
        out[scaled] = {
            "setup_s": (statistics.median(w * (f if scaled else 1.0)
                                          for w, f in zip(setup_walls, setup_factors)), "s"),
            "wall_s": (sum(lat.values()), "s"),
            "cpu_s": (sum(cpu.values()), "s"),
            "job_p50_s": (statistics.median(pooled), "s"),
            "job_tail_s": (tail_value, "s"),
            "largest_job_s": (lat[frontier], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    info = {"passes": len(passes), "jobs": len(pooled), "job_tail_percentile": tail_pct,
            "calibration_ms": [round(p["calibration_ms"], 3) for p in passes],
            "raw": {k: v for k, (v, _) in out[False].items()}}
    return out[True], info


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def per_layer(runner, baseline: dict, traced: list, spans: list, imports: list,
              cli_lat: dict) -> dict:
    by_pass: dict = {}
    for s in spans:
        by_pass.setdefault(int(s["job"].split(":", 1)[0]), []).append(s)
    selfs = sp.self_times(spans)
    aggregates = [sp.aggregate(spans, selfs, lambda s, i=p["index"]: s["job"].startswith(f"{i}:"))
                  for p in traced]
    counts = [{n: (a["calls"], a["cells"], a["nnz"], a["d2_cells"], len(a["keys"]))
               for n, a in agg.items()} for agg in aggregates]
    if any(c != counts[0] for c in counts[1:]):
        print("warning: span counts differ between traced passes", file=sys.stderr)
    first = aggregates[0]

    def time_of(names) -> float:
        return statistics.median(sum(agg[n]["self_s"] for n in names if n in agg)
                                 for agg in aggregates)

    def count(name, key="calls") -> int:
        return first[name][key] if name in first else 0

    def useful(name) -> float:
        calls = count(name)
        return len(first[name]["keys"]) / calls if calls else 0.0

    names = {n for agg in aggregates for n in agg}
    m = {}
    for layer in sp.LAYERS:
        m[f"{layer}.self_s"] = (time_of([n for n in names if n.startswith(layer + ".")]), "s")
    rref_cells = count("exactlin.rref", "cells")
    m.update({
        "exactlin.rref.calls": (count("exactlin.rref"), "count"),
        "exactlin.rref.self_s": (time_of(["exactlin.rref"]), "s"),
        "exactlin.rref.cells": (rref_cells, "count"),
        "exactlin.rref.nnz_ratio": (count("exactlin.rref", "nnz") / rref_cells if rref_cells else 0.0,
                                    "ratio"),
        "exactlin.kernel_basis.calls": (count("exactlin.kernel_basis"), "count"),
        "exactlin.kernel_basis.self_s": (time_of(["exactlin.kernel_basis"]), "s"),
        "exactlin.subspace_span.calls": (count("exactlin.subspace_span"), "count"),
        "exactlin.subspace_span.self_s": (time_of(["exactlin.subspace_span"]), "s"),
        "exactlin.matmul.calls": (count("exactlin.matmul"), "count"),
        "exactlin.matmul.self_s": (time_of(["exactlin.matmul"]), "s"),
        "exactlin.solve.self_s": (time_of(["exactlin.solve", "exactlin.solve_with_certificate"]),
                                  "s"),
    })
    for short, span in (("check_axioms", "lts.check_axioms"),
                        ("derivation_algebra", "lts.derivation_algebra")):
        m[f"lts.{short}.calls"] = (count(span), "count")
        m[f"lts.{short}.self_s"] = (time_of([span]), "s")
        m[f"lts.{short}.useful_ratio"] = (useful(span), "ratio")
    for short in ("inner_derivation_algebra", "lts_of_lie", "odd_part_lts"):
        m[f"lts.{short}.self_s"] = (time_of([f"lts.{short}"]), "s")
    m["grlie.check_graded.calls"] = (count("grlie.check_graded"), "count")
    m["grlie.check_graded.self_s"] = (time_of(["grlie.check_graded"]), "s")
    m["grlie.check_graded.useful_ratio"] = (useful("grlie.check_graded"), "ratio")
    m["grlie.center.self_s"] = (time_of(["grlie.center"]), "s")
    m["grlie.generated_by_odd.self_s"] = (time_of(["grlie.generated_by_odd"]), "s")
    for short in ("standard_imbedding", "wedge_module", "module_quotient", "pair_algebra",
                  "universal_imbedding", "extend_hom", "u0ext"):
        m[f"embed.{short}.self_s"] = (time_of([f"embed.{short}"]), "s")
    m["embed.universal_imbedding.calls"] = (count("embed.universal_imbedding"), "count")
    m["cohom.coboundary.calls"] = (count("cohom.coboundary"), "count")
    m["cohom.coboundary.self_s"] = (time_of(["cohom.coboundary"]), "s")
    m["cohom.h2.self_s"] = (time_of(["cohom.h2"]), "s")
    m["cohom.h2.d2_cells"] = (count("cohom.h2", "d2_cells"), "count")
    for short in ("split", "envelope_criterion"):
        m[f"cohom.{short}.self_s"] = (time_of([f"cohom.{short}"]), "s")
    m["serialize.save.self_s"] = (time_of(["serialize.save"]), "s")
    m["serialize.load.self_s"] = (time_of(["serialize.load"]), "s")
    m["serialize.bytes"] = (traced[0]["bytes"], "bytes")
    m["cli.import_s"] = (statistics.median(imports), "s")
    m["cli.thm_a.p50_s"] = (statistics.median(cli_lat["thm_a"]), "s")
    m["cli.reject.p50_s"] = (statistics.median(cli_lat["reject"]), "s")

    cover, cover_thm = [], []
    for p in traced:
        roots = sp.root_time_by_job(by_pass.get(p["index"], []))
        jobs_wall = {f"{p['index']}:{j}": lat for j, lat in p["latencies"].items()}
        if runner.wl.cli:  # spans live in the child: compare with its time in main()
            jobs_wall = {k: runner.cli_main_s.get(k, v) for k, v in jobs_wall.items()}
        cover.append(sum(roots.values()) / sum(jobs_wall.values()))
        thm = [k for k in jobs_wall if "sl2lts" in k and "thm-a" in k]
        cover_thm.append(sum(roots.get(k, 0.0) for k in thm) / sum(jobs_wall[k] for k in thm))
    m["trace.coverage"] = (statistics.median(cover), "ratio")
    m["trace.coverage_thm_a_sl2lts"] = (statistics.median(cover_thm), "ratio")
    traced_wall = statistics.median(p["wall"] for p in traced)
    m["trace.overhead"] = ((traced_wall - baseline["wall"]) / baseline["wall"], "ratio")
    return m


def cli_latencies(passes: list, jobs_list: list) -> dict:
    kinds = {j.id: j.kind for j in jobs_list}
    out = {"thm_a": [], "reject": []}
    for p in passes:
        for jid, lat in p["latencies"].items():
            if kinds.get(jid) in out:
                out[kinds[jid]].append(lat)
    return out


def cli_probe(main: Runner, references: dict) -> dict:
    """CLI latencies for workloads that run in-process: a few thm-a and
    rejected-input commands, each run CLI_PROBES times.  Their outcomes are
    checked and counted with the main runner's."""
    import clijobs
    probe_ids = ("thm-a heis", "thm-a ab2", "thm-a malformed.json", "check-graded badshape.json")
    chosen = [j for j in clijobs.jobs() if j.id in probe_ids]
    wl = jobs.Workload("cli", [chosen], cli=True)
    directory = os.path.join(OUT, "cli")
    write_cli_payloads(directory)
    runner = Runner(wl, references, main.deadline, directory)
    passes = [runner.run_pass(i, [chosen]) for i in range(CLI_PROBES)]
    main.attempted += runner.attempted
    main.failed += runner.failed
    main.correct = main.correct and runner.correct
    for key, n in runner.failures.items():
        main.failures[key] = main.failures.get(key, 0) + n
    return cli_latencies(passes, chosen)


# ---------------------------------------------------------------------------

def load_library():
    if not os.path.isfile(os.path.join(SRC, "lietrip", "__init__.py")):
        sys.exit(f"error: no lietrip sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import lietrip
    if os.path.dirname(os.path.dirname(os.path.abspath(lietrip.__file__))) != SRC:
        sys.exit(f"error: imported lietrip from {lietrip.__file__}, not from {SRC}")
    return lietrip


def run(args) -> dict:
    started = time.perf_counter()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    lt = load_library()
    # One CPU for the run and its children, so the calibration and the jobs
    # (CLI subprocesses included) see the same core.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    info["cpu"] = cpu
    with open(args.references, encoding="utf-8") as fh:
        references = json.load(fh)
    setup_walls, setup_factors, imports = setup_probes(args.workload, args.seed)

    wl = jobs.build_workload(lt, args.workload, args.seed)
    cli_dir = os.path.join(OUT, "cli")
    if wl.cli:
        write_cli_payloads(cli_dir)
    deadline = started + RUN_LIMIT_S
    runner = Runner(wl, references, deadline, cli_dir)
    signal.signal(signal.SIGALRM, _alarm)
    count = max(1, int(args.seconds // PASS_S[args.workload]))

    if not args.trace:
        passes = run_passes(runner, wl.chains, count, 0)
        frontier = next(j.id for j in wl.jobs() if j.frontier)
        metrics, extra = end_to_end(passes, (setup_walls, setup_factors), frontier,
                                    runner.budget)
        info.update(extra)
    else:
        baseline = runner.run_pass(0, wl.chains)
        recorder = sp.Recorder()
        recorder.install(lt)
        runner.recorder = recorder
        traced = run_passes(runner, wl.chains, max(count - 1, 1), 1)
        runner.recorder = None
        cli_lat = (cli_latencies([baseline], wl.jobs()) if wl.cli
                   else cli_probe(runner, references))
        spans = runner.cli_spans if wl.cli else recorder.spans
        metrics = per_layer(runner, baseline, traced, spans, imports, cli_lat)
        os.makedirs(OUT, exist_ok=True)
        sp.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"), spans, info)
        info["passes"] = 1 + len(traced)

    for (jid, why), n in sorted(runner.failures.items()):
        print(f"failed x{n}: {jid}: {why}", file=sys.stderr)
    print(json.dumps({"info": info}))
    return {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def capture(args) -> None:
    """Write references.json: one pass of each workload, seed-free jobs only."""
    lt = load_library()
    refs = {}
    cli_dir = os.path.join(OUT, "cli")
    write_cli_payloads(cli_dir)
    signal.signal(signal.SIGALRM, _alarm)
    for name in WORKLOADS:
        wl = jobs.build_workload(lt, name, 0)
        runner = Runner(wl, {}, time.perf_counter() + 3600, cli_dir)
        got = refs.setdefault(name, {})
        runner.check_text = lambda job, text, got=got: got.__setitem__(job.id, digest(text))
        runner.run_pass(0, wl.chains)
        for job in wl.jobs():
            if job.seeded:
                got.pop(job.id, None)
        for (jid, why), _ in sorted(runner.failures.items()):
            print(f"{name}: {jid}: {why}", file=sys.stderr)
        print(f"{name}: {len(got)} reference digests", file=sys.stderr)
    with open(args.references, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", default=REFERENCES,
                    help="reference digests (default: references.json here)")
    ap.add_argument("--capture", action="store_true",
                    help="rewrite the reference digests from the current library")
    args = ap.parse_args(argv)
    if args.capture:
        capture(args)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own); its
    info and result lines, prefixed with its name."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--references", args.references],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.strip().splitlines()[-2:] or ["(no result)"]:
            print(f"{name}: {line}")
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
