"""Benchmark of the mmregret command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. A workload is a fixed list of ``mmregret``
invocations (see ``workloads.py``). One pass runs them one after another, as
one client in a closed loop. Another pass starts only if, at the average pass
time so far, it would end within ``--seconds``.
Every output is checked, and a self-test confirms that the checks flag
corrupted copies of the outputs.

``--trace 0`` runs each invocation as a child process and reports the
end-to-end metrics. ``--trace 1`` runs the same invocations in this process,
alternating passes with and without spans on the package's layers, and
reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Facts, detail metrics and spans also go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
# set before numpy loads, here and in every child
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)

from workloads import BUILDERS, NAMES, collect, problems, self_test  # noqa: E402

CHILD_LIMIT_S = 150
SETUP_SAMPLES = 5
SETUP_CODE = "import mmregret.cli; mmregret.cli.build_parser()"

END_TO_END_UNITS = {"wall_s": "s", "states_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.overhead_s": "s", "states.grid_s": "s",
    "states.grid_bytes_per_state": "B", "engine.scan_s": "s", "engine.scan_self_s": "s",
    "mathutil.pmf_calls": "count", "engine.choice_table_calls": "count",
    "sampling.substream_calls": "count", "mathutil.pmf_us_per_call": "us",
    "rules.choice_table_s": "s", "engine.contraction_s": "s", "engine.csv_rows_per_s": "1/s",
    "sampling.substream_s": "s", "sampling.draws_per_s": "1/s", "trace.overhead_pct": "%",
}


def spawn(argv: list[str], log: Path) -> tuple[float, int, int, str, str]:
    """Run a child to completion: wall seconds, peak RSS in KiB of the child
    and of the processes it waited for, exit code, stdout, stderr."""
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(os.environ, PYTHONPATH=str(SRC)))
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, usage.ru_maxrss, proc.returncode, out.read(), err.read()


def fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends within the run."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


class Tally:
    """Operations attempted and failed, and the self-test's verdict."""

    def __init__(self, wl):
        self.wl, self.attempted, self.failed, self.missed = wl, 0, 0, None

    def add(self, outputs) -> None:
        found = problems(self.wl, outputs)
        self.attempted += len(found)
        self.failed += sum(bool(p) for p in found.values())
        for name, found_here in found.items():
            for problem in found_here:
                print(f"check failed: {self.wl.name}/{name}: {problem}", file=sys.stderr)
        if self.missed is None and not any(found.values()):
            self.missed = self_test(self.wl, outputs)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.missed == []


# ---------------------------------------------------------------------------
# untraced: every invocation is a child process

def run_untraced(wl, seconds: float, work: Path) -> tuple[Tally, dict, dict]:
    tally = Tally(wl)
    setup = []
    for k in range(SETUP_SAMPLES):
        wall, _, rc, _, err = spawn([sys.executable, "-c", SETUP_CODE], work / f"setup{k}")
        if rc != 0:
            raise SystemExit(f"set-up failed: {err.strip()}")
        setup.append(wall)

    passes = []
    start = time.perf_counter()
    while not passes or fits(start, len(passes), seconds):
        walls, rss, outputs = {}, 0, {}
        for inv in wl.invocations:
            wall, kib, rc, out, err = spawn([sys.executable, "-m", "mmregret.cli", *inv.argv],
                                            work / inv.name)
            walls[inv.name], rss = wall, max(rss, kib)
            outputs[inv.name] = collect(inv, rc, out, err)
        tally.add(outputs)
        passes.append((walls, rss, outputs))

    # On a shared host the CPU speed shifts every few seconds, so a median of a few
    # passes lands on one level; the mean over the whole run averages over them.
    states = sum(inv.states for inv in wl.invocations)
    pass_walls = [sum(w.values()) for w, _, _ in passes]
    metrics = {
        "wall_s": sum(pass_walls) / len(passes),
        "states_per_s": states * len(passes) / sum(pass_walls),
        "peak_rss_mb": median(rss / 1024 for _, rss, _ in passes),
        "setup_s": median(setup),
    }
    detail = {f"wall_s.{inv.name}": median(w[inv.name] for w, _, _ in passes)
              for inv in wl.invocations}
    mc = [inv for inv in wl.invocations if inv.draws]
    if mc:
        detail["mc_draws_per_s"] = median(
            sum(inv.draws for inv in mc) / sum(w[inv.name] for inv in mc) for w, _, _ in passes)
    # time to a stated accuracy: workers-1 time scaled to an argmax stderr of 1e-4
    to_se = [w["mc_w1"] * (o["mc_w1"].report.argmax_stderr / 1e-4) ** 2
             for w, _, o in passes if "mc_w1" in o and o["mc_w1"].report is not None]
    if to_se:
        detail["mc_s_to_se_1e-4"] = median(to_se)
    detail["failed_frac"] = tally.failed / tally.attempted
    detail["samples"] = {"passes": len(passes), "setup_s": len(setup)}
    detail["pass_walls"] = pass_walls
    detail["setup_walls"] = setup
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# traced: the same invocations in this process

def import_package():
    import mmregret.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def in_process_pass(wl, cli, tracer, index: int) -> tuple[float, dict]:
    total, outputs = 0.0, {}
    for inv in wl.invocations:
        if tracer is not None:
            tracer.run = f"{inv.name}.{index}"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(inv.argv))
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            rc = 1
            err.write(f"{exc!r}\n")
        total += time.perf_counter() - start
        outputs[inv.name] = collect(inv, rc, out.getvalue(), err.getvalue())
    return total, outputs


def run_traced(wl, seconds: float, seed: int, work: Path) -> tuple[Tally, dict, dict, list]:
    from tracing import Tracer, grid_bytes_per_state, layer_metrics, probes
    cli = import_package()
    tally, tracer = Tally(wl), Tracer()
    untraced, traced, per_pass, per_pass_detail = [], [], [], []
    tally.add(in_process_pass(wl, cli, None, -1)[1])  # warm-up, not timed
    start = time.perf_counter()
    k = 0
    while k == 0 or fits(start, k, seconds):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            first = len(tracer.spans)
            if on:
                tracer.install("mmregret")
            try:
                wall, outputs = in_process_pass(wl, cli, tracer if on else None, k)
            finally:
                tracer.uninstall()
            tally.add(outputs)
            if on:
                traced.append(wall)
                m, d = layer_metrics(tracer.spans[first:], wl.invocations)
                per_pass.append(m)
                per_pass_detail.append((d, outputs))
            else:
                untraced.append(wall)
        k += 1

    metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["states.grid_bytes_per_state"] = grid_bytes_per_state(tracer.grid_calls)
    probe_metrics, detail = probes("mmregret", seed, work)
    metrics.update(probe_metrics)
    metrics["trace.overhead_pct"] = (median(traced) / median(untraced) - 1.0) * 100.0
    for name in per_pass_detail[0][0]:
        detail[name] = median(d[name] for d, _ in per_pass_detail)
    detail.update(derived_detail(wl, detail, metrics, per_pass_detail))
    detail["samples"] = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                         "probe_repeats": 5}
    detail["trace.untraced_pass_s"] = median(untraced)
    detail["trace.traced_pass_s"] = median(traced)
    return tally, {n: metrics[n] for n in PER_LAYER_UNITS}, detail, tracer.spans


def derived_detail(wl, d: dict, m: dict, per_pass_detail) -> dict:
    """Workload-specific per-layer numbers; the base of every ratio is named."""
    invs = {inv.name: inv for inv in wl.invocations}
    out = {}
    csv_invs = [inv for inv in wl.invocations if inv.csv is not None]
    if csv_invs and d["engine.csv_s"] > 0:
        rows = sum(inv.states for inv in csv_invs)
        out["engine.csv_bytes"] = median(
            sum(o[i.name].report.size for i in csv_invs if o[i.name].report)
            for _, o in per_pass_detail)
        out["engine.csv_rows_per_s"] = rows / d["engine.csv_s"]
    if "exact_es" in invs:
        out["engine.assembly_s"] = (d["engine.scan_s.exact_es"] - d["engine.exact_es_math_s"]
                                    - m["engine.contraction_s"])
        out["engine.assembly_s.base"] = ("scan_s.exact_es - (pmf + choice_table spans in it)"
                                         " - contraction probe")
    if "mc_w1" in invs:
        out["engine.mc_us_per_draw"] = d["engine.scan_s.mc_w1"] / invs["mc_w1"].draws * 1e6
        out["engine.pool_speedup"] = d["engine.scan_s.mc_w1"] / d["engine.scan_s.mc_w2"]
        out["engine.pool_speedup.base"] = "scan_s.mc_w1 / scan_s.mc_w2 (1 vs 2 workers)"
    beta = [n for n in invs if n.startswith("mse_mc_beta")]
    if beta:
        out["engine.beta_us_per_rep"] = (sum(d[f"engine.scan_s.{n}"] for n in beta)
                                         / sum(invs[n].draws for n in beta) * 1e6)
        mc = [n for n in invs if invs[n].draws]
        out["engine.mc_us_per_draw"] = (sum(d[f"engine.scan_s.{n}"] for n in mc)
                                        / sum(invs[n].draws for n in mc) * 1e6)
    return out


# ---------------------------------------------------------------------------

def run_facts(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=env)
        commit = res.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmregret").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "load": "closed loop, 1 client"}


def run_one(args) -> dict:
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = BUILDERS[args.workload](work, args.seed)
        if args.trace:
            tally, metrics, detail, spans = run_traced(wl, args.seconds, args.seed, work)
            units = PER_LAYER_UNITS
        else:
            tally, metrics, detail = run_untraced(wl, args.seconds, work)
            spans, units = [], END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = run_facts(args)
    detail["self_test_missed"] = tally.missed
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    record = {"facts": facts, "result": result, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (OUT / f"{name}-spans.json").write_text(json.dumps(
            {"fields": ["run", "id", "parent", "name", "start", "end"],
             "spans": [[s.run, s.id, s.parent, s.name, s.start, s.end] for s in spans]}))

    print("facts " + json.dumps(facts))
    for n in units:
        print(f"{args.workload} {n} = {metrics[n]:.6g} {units[n]}")
    print("detail " + json.dumps(detail))
    if tally.missed:
        print(f"self-test: checks missed {tally.missed}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "mmregret" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'mmregret'}", file=sys.stderr)
        return 2
    # traced runs import the package; untraced checks use one of its formulas
    sys.path.insert(0, str(SRC))
    for name in NAMES if args.workload == "all" else (args.workload,):
        result = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
