"""Benchmark for losmimo: seeded CLI workloads, checked outputs, layer spans.

Usage, from the root of a checkout::

    python3 bench/run.py --workload optimize_small --seed 0 --seconds 30 --trace 0

One process runs the workload in a closed loop with one client: each job is
one ``losmimo.cli.main(argv)`` call on inputs that ``workloads.py`` wrote
from the seed, and the next job starts when the previous one returns.  A
pass is the workload's whole job list.  The run first times ``setup_s``
(a fresh interpreter importing ``losmimo`` and parsing the workload's
configs, median of several), then runs one untimed warm-up pass at tiny
size in which the first job of each kind runs twice and must write
byte-identical output both times, then timed passes, each on fresh
inputs, until ``--seconds`` have passed.  Every
output is checked by ``check.py``; for the default seed the first two
passes are also compared with the reference outputs in ``reference/``.

``--trace 0`` reports the end-to-end metrics: medians over the timed passes
of the pass time (``pass_s``) and of each subcommand's share of it, plus
``setup_s`` and the peak RSS of this process.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans of
``layers.py`` (medians over the traced passes) and the tracing overhead.

Times are reference seconds: the CPU time (user plus system) of the thread
that runs a job, times a speed factor from a fixed calibration kernel timed
just before and just after the job (``kernel_s``), so they read as CPU
seconds on a core where the kernel takes ``REFERENCE_KERNEL_S``.  BLAS runs
on one thread.  On a shared 2-vCPU cloud VM the same job's CPU time swung by
up to 1.6x with what other tenants ran; over six 30-second runs of
``export`` the pass CPU time spread by 15% (interquartile range over
median) and the reference time by 3%.  The raw CPU and wall-clock pass
times and the median speed factor are printed on the environment line.

The last line of standard output is the result object; the line before it
records the environment.  ``python3 bench/make_reference.py`` rewrites the
reference outputs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0
# CPU seconds the calibration kernel of kernel_s() takes on the
# reference core: an uncontended core of a 2-vCPU x86-64 cloud VM
REFERENCE_KERNEL_S = 0.003
REFERENCE_PASSES = 2  # the warm-up pass and the first timed pass
SETUP_REPEATS = 5
OPTIMIZE_KINDS = ("optimize_angles", "optimize_rotation", "optimize_aosa")

_SETUP_CODE = (
    "import sys, losmimo\n"
    "from losmimo.config import load_scene_config\n"
    "if not losmimo.__file__.startswith(sys.argv[1]): sys.exit(3)\n"
    "for path in sys.argv[2:]: load_scene_config(path)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def import_package():
    if not (SRC / "losmimo" / "__init__.py").is_file():
        raise BenchError(f"no losmimo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import losmimo
    import losmimo.cli

    if not str(Path(losmimo.__file__).resolve()).startswith(str(SRC)):
        raise BenchError(f"imported losmimo from {losmimo.__file__}, not {SRC}")
    return losmimo


# -- environment ---------------------------------------------------------------

def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int, workload: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload,
    }


# -- running jobs ----------------------------------------------------------------

class Pass:
    """Timings, counts and check results of one pass."""

    def __init__(self, index, jobs):
        self.index = index
        self.jobs = jobs
        self.cpu = {}  # job ident -> CPU seconds of cli.main
        self.speed = {}  # job ident -> speed factor measured just before the job
        self.wall_seconds = 0.0
        self.rows = {}  # job ident -> data rows written
        self.bytes_out = 0
        self.failures = []  # (job ident, message)
        self.fingerprints = {}

    def seconds(self, job):
        """Reference seconds of one job: its CPU time times the speed factor."""
        return self.cpu[job.ident] * self.speed[job.ident]

    @property
    def pass_s(self):
        return sum(self.seconds(j) for j in self.jobs)

    @property
    def cpu_s(self):
        return sum(self.cpu.values())

    def kind_s(self, kind):
        return sum(self.seconds(j) for j in self.jobs if j.kind == kind)


def kernel_s() -> float:
    """CPU seconds a fixed calibration kernel takes now.

    The kernel is interpreter, float-formatting, JSON and numpy work of the
    kinds the package does, but none of the package's code, so a change to
    the package cannot move it, while a slower CPU moment slows both alike.
    """
    t0 = time.thread_time()
    xs = [i * 1.2345678901 for i in range(3000)]
    json.dumps(xs)
    ",".join(format(x, ".17g") for x in xs[:1000])
    np.exp(1j * np.arange(3000.0)).sum()
    {str(i): i for i in range(1000)}
    return time.thread_time() - t0


def speed_factor(before: float, after: float) -> float:
    """Reference seconds per CPU second, from the kernel times around a run."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


def job_id(pass_index, number):
    return 1000 * pass_index + number


def _read_outputs(job):
    blobs = []
    for path in job.outputs:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return blobs


def run_pass(index, jobs, main, rerun=(), reference=None, tracer=None) -> Pass:
    """Run every job once, and the jobs named in ``rerun`` a second time.

    Only ``main`` is timed.  A rerun must write byte-identical output.
    """
    result = Pass(index, jobs)
    clock = time.thread_time
    for number, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = job_id(index, number)
        gc.collect()  # every job starts from the same collector state, as a fresh CLI process does
        before = kernel_s()
        t0, w0 = clock(), time.perf_counter()
        code = main(job.argv)
        result.cpu[job.ident] = clock() - t0
        result.wall_seconds += time.perf_counter() - w0
        gc.collect()  # so the kernel does not pay for collecting the job's garbage
        result.speed[job.ident] = speed_factor(before, kernel_s())
        try:
            if code != 0:
                raise check.CheckError(f"exit code {code}")
            if job.ident in rerun:
                first = _read_outputs(job)
                code = main(job.argv)
                if code != 0 or _read_outputs(job) != first:
                    raise check.CheckError("a second run wrote different output")
            rows, fingerprint = check.check_job(job)
            if reference is not None:
                want = reference.get(job.ident)
                if want is None or not check.fingerprints_match(fingerprint, want):
                    raise check.CheckError("output differs from the reference output")
        except check.CheckError as exc:
            result.failures.append((job.ident, str(exc)))
        else:
            result.rows[job.ident] = rows
            result.fingerprints[job.ident] = fingerprint
            result.bytes_out += sum(os.path.getsize(p) for p in job.outputs)
    return result


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(configs, repeats=SETUP_REPEATS) -> float:
    """Median reference seconds of a fresh interpreter importing losmimo and
    parsing configs (its CPU time times the speed factor measured before it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # the interpreter runs on the CPU the kernel is timed on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(repeats):
            before = kernel_s()
            t0 = _children_cpu_s()
            proc = subprocess.run(
                [sys.executable, "-s", "-c", _SETUP_CODE, str(SRC), *configs],
                env=env, cwd=str(ROOT), capture_output=True, timeout=120,
            )
            cpu = _children_cpu_s() - t0
            if proc.returncode != 0:
                raise BenchError(
                    f"set-up run failed ({proc.returncode}): {proc.stderr.decode()[-500:]}")
            times.append(cpu * speed_factor(before, kernel_s()))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def load_reference(workload):
    path = BENCH / "reference" / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["passes"]


# -- metrics ----------------------------------------------------------------------

def end_to_end(passes, setup_s) -> dict:
    metrics = {"pass_s": statistics.median(p.pass_s for p in passes)}
    for kind in workloads.KINDS:
        metrics[f"{kind}_s"] = statistics.median(p.kind_s(kind) for p in passes)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics of each traced pass, then the median over passes."""
    name, _, job, dur, self_t = tracer.spans()
    speed = {job_id(p.index, n): p.speed[j.ident] for p in traced for n, j in enumerate(p.jobs)}
    factor = np.array([speed.get(j, 1.0) for j in job.tolist()])
    dur, self_t = dur * factor, self_t * factor
    names = tracer.span_names
    span_layer = np.array([layers.LAYERS.index(layers.layer_of(n)) for n in names])[name]

    def ids(span_name):
        return names.index(span_name) if span_name in names else -1

    svd_by_span = {e[0]: e for e in tracer.svd_events}
    channel_by_span = {e[0]: e for e in tracer.channel_events}
    per_pass = []
    for p in traced:
        in_pass = np.isin(job, [job_id(p.index, n) for n in range(len(p.jobs))])
        opt_jobs = [job_id(p.index, n) for n, j in enumerate(p.jobs) if j.kind in OPTIMIZE_KINDS]

        def count(span_name, mask=in_pass):
            return int(np.count_nonzero(mask & (name == ids(span_name))))

        def total(span_name):
            return float(dur[in_pass & (name == ids(span_name))].sum())

        m = {}
        for layer in ("config", "geometry", "channel", "capacity", "optimize", "search",
                      "serialize", "cli"):
            m[f"{layer}.self_s"] = float(self_t[in_pass & (span_layer == layers.LAYERS.index(layer))].sum())
        m["geometry.scene_builds"] = count("geometry.LinkScene")
        m["geometry.pose_builds"] = count("geometry.RigidPose")
        m["search.golden_calls"] = count("search.golden_max")
        m["capacity.waterfilling_calls"] = count("capacity.waterfilling")
        m["capacity.waterfilling_s"] = total("capacity.waterfilling")
        m["capacity.bound_calls"] = count("capacity.capacity_upper_bound")
        m["capacity.bound_s"] = total("capacity.capacity_upper_bound")
        svd_spans = np.flatnonzero(in_pass & (name == ids(layers.SVD_SPAN)))
        events = [svd_by_span[i] for i in svd_spans.tolist()]
        m["capacity.svd_calls"] = len(events)
        m["capacity.svd_s"] = total(layers.SVD_SPAN)
        m["capacity.svd_reuse_ratio"] = (len({e[3] for e in events}) / len(events)) if events else 0.0
        m["capacity.svd_flops_computed"] = sum(layers.svd_flops(e[1], e[2]) for e in events)
        ch_spans = np.flatnonzero(in_pass & (name == ids("channel.channel_matrix")))
        m["channel.calls"] = int(ch_spans.size)
        m["channel.bytes_computed"] = sum(16 * channel_by_span[i][1] * channel_by_span[i][2]
                                          for i in ch_spans.tolist())
        opt_rows = sum(p.rows.get(j.ident, 0) for j in p.jobs if j.kind in OPTIMIZE_KINDS)
        opt_evals = count("channel.channel_matrix", in_pass & np.isin(job, opt_jobs))
        m["optimize.channel_evals_per_row"] = opt_evals / opt_rows if opt_rows else 0.0
        m["serialize.bytes_out"] = p.bytes_out
        m["serialize.rows_out"] = sum(p.rows.values())
        per_pass.append(m)
    # median_low: the value of an actual pass, so counts stay whole
    out = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
    out["trace.overhead_frac"] = (statistics.median(p.pass_s for p in traced)
                                  / statistics.median(p.pass_s for p in untraced) - 1.0)
    return out


# -- main -------------------------------------------------------------------------

def run(workload, seed, seconds, trace, workdir, tiny=False, reference_check=True):
    """Run one workload; returns the result object and the passes."""
    losmimo = import_package()
    main = losmimo.cli.main
    reference = None
    if reference_check and seed == REFERENCE_SEED and not tiny:
        reference = load_reference(workload)

    def jobs_of(index, small=tiny):
        directory = os.path.join(workdir, f"pass{index}")
        os.makedirs(directory)
        return workloads.generate(workload, seed, index, directory, tiny=small)

    def ref(index):
        if reference is None or index >= REFERENCE_PASSES:
            return None
        return reference.get(str(index), {})

    # the warm-up pass runs every job kind at tiny size: it loads every code
    # path, and its inputs are never timed
    warm_jobs = jobs_of(0, small=True)
    first_of_kind = {}
    for job in warm_jobs:
        first_of_kind.setdefault(job.kind, job.ident)
    rerun = set(first_of_kind.values())
    warm = run_pass(0, warm_jobs, main, rerun=rerun, reference=ref(0))
    shutil.rmtree(os.path.join(workdir, "pass0"), ignore_errors=True)
    done = [warm]
    n_attempted = len(warm_jobs) + len(rerun)

    upcoming = jobs_of(1)
    setup_s = None
    if not trace:
        setup_s = measure_setup([j.config for j in upcoming if j.config],
                                repeats=1 if tiny else SETUP_REPEATS)

    tracer = layers.Tracer() if trace else None
    traced_main = tracer.wrap(main, "cli.main") if trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        jobs = upcoming if index == 1 else jobs_of(index)
        if tracer is not None and index % 2 == 0:
            tracer.install(losmimo)
            try:
                p = run_pass(index, jobs, traced_main, reference=ref(index), tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append(p)
        else:
            p = run_pass(index, jobs, main, reference=ref(index))
            untraced.append(p)
        done.append(p)
        n_attempted += len(jobs)
        shutil.rmtree(os.path.join(workdir, f"pass{index}"), ignore_errors=True)
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    failures = [f for p in done for f in p.failures]
    for ident, message in failures[:20]:
        print(f"check failed: {ident}: {message}", file=sys.stderr)
    if trace:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_s)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    result = {
        "correct": not failures,
        "attempted": n_attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, done


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".bench_work"
    try:
        scratch.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    except OSError as exc:
        print(f"bench: cannot create a work directory: {exc}", file=sys.stderr)
        return 2
    try:
        result, passes = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    env = environment(args.seed, args.workload)
    timed = passes[1:]
    env["pass_cpu_s"] = statistics.median(p.cpu_s for p in timed)
    env["pass_wall_s"] = statistics.median(p.wall_seconds for p in timed)
    env["speed_factor"] = statistics.median(f for p in timed for f in p.speed.values())
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
