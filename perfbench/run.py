"""Outside-in benchmark of the nullcontrol CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a fixed list of
CLI configs (``workloads.py``); the seed draws only parameters that leave
the amount of work unchanged.  Jobs run as a closed loop, one at a time,
each in a fresh process (``job.py``), the way the ``nullcontrol`` command
is used.  The list is run in passes; after the first full pass, a job
starts only if it is expected to end within ``--seconds``.  A pass
figure is the sum over the list of each job's median over its runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self time, mpmath primitive counts and calls of the
spans ``tracing.py`` puts around the program's entry points, and the
tracing overhead.  Every job's outputs are checked (``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(configs sent, per-job figures, output digests, provenance) is written
to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

from checks import check_job, load_diagnostics_schema, output_digests
from tracing import ENTRY_POINTS, MP_KINDS, ROOT as ROOT_SPAN
from workloads import WORKLOADS, make_jobs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
# every run must end within 180 s: jobs still running at this many
# seconds after the first job started are killed and count as failed
JOBS_DEADLINE_S = 160

LAYER_SPANS = tuple(dict.fromkeys(span for _, _, span in ENTRY_POINTS)) + (ROOT_SPAN,)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- environment -------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _calibrate() -> float:
    """Seconds for a fixed pure-Python + mpmath loop (median of 3): shows
    host slowdowns in the record; never used to rescale a metric."""
    import mpmath

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with mpmath.workdps(60):
            x, acc = mpmath.mpf(1) / 3, mpmath.mpf(0)
            for i in range(2000):
                acc += mpmath.exp(-x * i / 1000) * x
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _provenance() -> dict:
    import mpmath.libmp

    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "versions": versions,
        "mp_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "host": {"calib_s": _calibrate(), "machine": platform.machine()},
    }


# -- jobs --------------------------------------------------------------------

def _spawn(argv: list, log: Path, timeout: float):
    """Run ``job.py argv`` to completion; returns (exit code, spawn clock)."""
    with open(log, "w") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "job.py"), *argv],
                                cwd=ROOT, env=_child_env(), stdout=fh, stderr=fh)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
    return rc, t_spawn


def _run_job(index: int, cfg: dict, work: Path, traced: bool, schema: dict,
             timeout: float) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    config, out, result = work / "config.json", work / "out", work / "result.json"
    config.write_text(json.dumps(cfg))
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    argv = [str(config), str(out), str(result)] + (["--trace"] if traced else [])
    rc, t_spawn = _spawn(argv, work / "job.log", timeout)
    rec = {"job": index, "command": cfg["command"], "traced": traced, "rc": rc}
    if result.exists():
        res = json.loads(result.read_text())
        program = Path(res.pop("program")).resolve()
        if ROOT / "src" not in program.parents:
            raise BenchError(f"job imported nullcontrol from {program}, not from this checkout")
        if res["mp_backend"] != "python":
            raise BenchError(f"mpmath backend is {res['mp_backend']!r}, not 'python'")
        rec.update(setup_s=res.pop("ready_monotonic") - t_spawn, **res)
    rec["errors"] = check_job(cfg, out, rc if result.exists() else "no result", schema)
    if out.is_dir():
        rec["outputs"] = output_digests(out)
        rec["out_bytes"] = sum(f["bytes"] for f in rec["outputs"].values())
        shutil.rmtree(out)
    return rec


def _schedule(n_jobs: int, trace: bool):
    """Endless (job index, traced) order: untraced passes over the job
    list or, for the traced run, an untraced pass then a traced one."""
    while True:
        if trace:
            yield from ((i, False) for i in range(n_jobs))
        yield from ((i, trace) for i in range(n_jobs))


def _run_jobs(jobs: list, work: Path, seconds: float, trace: bool, schema: dict) -> list:
    """Run jobs one at a time in schedule order.  After the first full
    pass (both passes when traced), start a job only if it is expected,
    from its last duration, to end within ``seconds``; stop when not even
    the shortest job is."""
    minimum = len(jobs) * (2 if trace else 1)
    recs: list = []
    last: dict = {}
    start = time.monotonic()
    for index, traced in _schedule(len(jobs), trace):
        if len(recs) >= minimum:
            left = seconds - (time.monotonic() - start)
            if min(last.values()) > left:
                break
            if last[index, traced] > left:
                continue
        t0 = time.monotonic()
        timeout = max(1.0, start + JOBS_DEADLINE_S - t0)
        recs.append(_run_job(index, jobs[index], work / f"job{index}", traced, schema, timeout))
        last[index, traced] = time.monotonic() - t0
    return recs


# -- metrics -----------------------------------------------------------------

MAX_LAYER_KEYS = ("biortho_time.dps_max", "biortho_time.cond_log10_max",
                  "biortho_time.residual_max", "spectral.head_dps")


def tail_percentile(values: list):
    """(label, value) of the highest of p90/p99/p99.9 with at least ten
    samples beyond it, or None when the run has too few samples."""
    n = len(values)
    for p, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if n * (1.0 - p) >= 10:
            return label, sorted(values)[min(n - 1, int(p * n))]
    return None


def _job_medians(recs: list, n_jobs: int, traced: bool, key: str) -> list:
    """Per job of the list, the median of ``key`` over its runs that
    produced a result; a job with no such run is left out."""
    out = []
    for j in range(n_jobs):
        vals = [r[key] for r in recs if r["job"] == j and r["traced"] == traced and key in r]
        if vals:
            out.append(statistics.median(vals))
    return out


def _job_layers(rec: dict) -> dict:
    """Per-layer figures of one traced job run."""
    t = rec["trace"]
    m = {"cli.out_bytes": rec.get("out_bytes", 0), "mp.ops": t["mp_ops_total"]}
    for span in LAYER_SPANS:
        m[f"{span}.self_s"] = t["self_s"].get(span, 0.0)
        m[f"{span}.mp_ops"] = t["mp_ops"].get(span, 0)
        m[f"{span}.calls"] = t["calls"].get(span, 0)
    for kind in MP_KINDS:
        m[f"mp.ops.{kind}"] = t["mp_ops_by_kind"][kind]
    m["biortho_time.dps_max"] = t["dps_max"]
    m["biortho_time.cond_log10_max"] = t["cond_log10_max"]
    m["biortho_time.residual_max"] = t["residual_max"]
    m["spectral.head_dps"] = t["head_dps"]
    return m


def _select(declared: list, values: dict) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json declares metrics this run cannot produce: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def _summarise(args, spec: dict, n_jobs: int, recs: list) -> tuple[dict, list]:
    """(metrics of the final line, human-readable summary lines).

    A pass-level figure is the sum over the job list of each job's median
    over its runs in this run, so every job run counts."""
    plain = [r for r in recs if not r["traced"]]
    traced = [r for r in recs if r["traced"]]
    failed = sum(1 for r in recs if r["errors"])
    if not any("main_s" in r for r in plain) or (traced and not any("trace" in r for r in traced)):
        raise BenchError("no job produced a result; see the job logs")
    wall_s = sum(_job_medians(recs, n_jobs, False, "main_s"))
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"{n_jobs} jobs per pass  {len(plain)} untraced + {len(traced)} traced job runs "
             f"({len(plain) / n_jobs:.2f} + {len(traced) / n_jobs:.2f} passes)"]
    if not args.trace:
        setups = [r["setup_s"] for r in plain if "setup_s" in r]
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in plain) / 1024.0,
        }
        tail = tail_percentile(setups)
        tail_txt = f"{tail[0]} {tail[1]:.4g} s" if tail else "no tail percentile (needs >= 100)"
        lines += [
            f"  wall_s       {wall_s:12.6g} s      one pass: sum over {n_jobs} jobs of the "
            f"median of each job's runs; {len(plain)} job runs",
            f"  setup_s      {values['setup_s']:12.6g} s      median of {len(setups)} set-ups; "
            + tail_txt,
            f"  peak_rss_mb  {values['peak_rss_mb']:12.6g} MB     largest of {len(plain)} jobs",
        ]
        metrics = _select(spec["end_to_end"], values)
    else:
        per_job = [[_job_layers(r) for r in traced if r["job"] == j and "trace" in r]
                   for j in range(n_jobs)]
        per_job = [runs for runs in per_job if runs]
        values = {}
        for key in per_job[0][0]:
            meds = [statistics.median(m[key] for m in runs) for runs in per_job]
            values[key] = max(meds) if key in MAX_LAYER_KEYS else sum(meds)
        values["trace.overhead_s"] = (
            sum(_job_medians(recs, n_jobs, True, "main_s")) - wall_s)
        metrics = _select(spec["per_layer"], values)
        for name, m in metrics.items():
            lines.append(f"  {name:<40} {m['value']:>16.10g} {m['unit']}")
        repeat = all(m[k] == runs[0][k] for runs in per_job for m in runs for k in m
                     if k.endswith((".mp_ops", ".calls")) or k.startswith("mp.ops"))
        lines.append(f"  op and call counts identical across runs of each job: {repeat}")
    lines.append(f"  fail_frac    {failed / len(recs):12.6g} ratio  "
                 f"{failed} of {len(recs)} job runs failed")
    return metrics, lines


# -- main ----------------------------------------------------------------------

def _measure(args, spec: dict, work: Path) -> dict:
    schema = load_diagnostics_schema(ROOT)
    jobs = make_jobs(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "configs": jobs,
              "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
              "provenance": _provenance()}
    recs = _run_jobs(jobs, work, args.seconds, bool(args.trace), schema)
    metrics, lines = _summarise(args, spec, len(jobs), recs)
    failed = sum(1 for r in recs if r["errors"])
    result = {"correct": failed == 0, "attempted": len(recs), "failed": failed,
              "metrics": metrics}
    record.update(job_runs=recs, summary=lines, result=result)
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    for r in recs:
        for err in r["errors"]:
            print(f"  FAILED job {r['job']} ({r['command']}): {err}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the cost model is mpmath's pure-Python backend, here and in every job
    os.environ["MPMATH_NOGMPY"] = "1"
    try:
        if not (ROOT / "src" / "nullcontrol" / "cli.py").is_file():
            raise BenchError(f"no nullcontrol source under {ROOT / 'src'}; "
                             "run from the root of a source checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        work = ROOT / ".bench_work" / str(os.getpid())
        work.mkdir(parents=True)
        try:
            result = _measure(args, spec, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
