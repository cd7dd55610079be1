"""Benchmark of the gammashell CLI verification pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload shelling-p3n5 --seed 0 --seconds 40 --trace 0

Each workload is one `python -m gammashell.cli ...` command.  A run repeats
rounds until the next round would not fit in --seconds (at least one round
is made); a round times a fixed calibration loop, spawns one set-up child and
then the workload as a fresh child process, one process at a time (closed
loop, one client).  Every workload report is checked against the SHA-256
stored in perfbench/reference.json, and repeats within a run must be
byte-identical.

--trace 0 prints the end-to-end metrics: wall_min_s (fastest spawn-to-exit
time of a verified workload child), setup_s (median time of the set-up
children, fresh interpreters that import gammashell.cli and parse the
workload's argv without running it) and peak_rss_mb (median ru_maxrss of the
workload children).

--trace 1 makes the same rounds, stopping two rounds' time earlier, then
runs the workload once more inside a traced child (perfbench/traced.py), so
the whole run stays within --seconds, and prints the per-layer metrics
computed from its spans.  The traced invocation counts as failed when its
report is not the reference or when a metric predicted to read zero on the
workload does not.

The last line of stdout is the result object; the line before it is the
detail record (median and quartiles of the wall times, sample counts, the
calibration time beside each round, metadata), also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = HERE / "out"
TRACED = HERE / "traced.py"

CALIBRATION_LOOP = 400_000
SETUP_CODE = (
    "import sys; from gammashell.cli import build_parser; "
    "build_parser().parse_args(sys.argv[1:])"
)


@dataclass(frozen=True)
class Workload:
    """One CLI command; '{seed}' in argv is replaced by the run's seed."""

    name: str
    argv: tuple[str, ...]
    why: str
    split: dict[str, str]
    zero: tuple[str, ...] = field(default=())

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    @property
    def key(self) -> str:
        """Reference key: the argv template, so a seeded key fits every seed."""
        return " ".join(self.argv)

    def command(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


# Per-layer metrics predicted to read zero on each workload: a name ending in
# "." covers every metric under it, any other name only itself.
_NO_HOMOLOGY = ("homology.", "complexes.")
_NO_SERIES = ("series.", "genfun.", "identities.")
_NO_CRITERION = (
    "facets.facet_certificate.",
    "facets.twist_sets.",
    "shelling.homology_facets_by_criterion.",
    "shelling.homology_facet_by_criterion.",
)
_NO_PAIRWISE = ("shelling.verify_shelling.", "shelling.pairs",
                "shelling.fallbacks", "shelling.constructed_ratio")
_NO_PEEL = ("shelling.homology_facets_direct.", "shelling.homology_facets")


def workloads(shell_n: int = 5, betti_n: int = 5, n_max: int = 7) -> dict[str, Workload]:
    """The benchmark workloads; the smoke test builds the same shapes smaller.

    Sizes keep one invocation at a few seconds at most, so a run holds a dozen
    or more of them: the host's speed drifts by up to 2x over minutes, and
    only the fastest of many invocations repeats from run to run.  Splits are
    shares of a traced run's time at these sizes; interpreter start-up is
    ~0.1 s.
    """
    items = [
        Workload(
            f"shelling-p3n{shell_n}",
            ("shelling", "--p", "3", "--n", str(shell_n)),
            "central claim: pairwise shelling check of every facet pair in "
            "canonical order, constructive witnesses, one thread",
            {"shelling.verify_shelling": "~80%", "interpreter start-up": "~15%"},
            _NO_HOMOLOGY + _NO_SERIES + _NO_CRITERION + _NO_PEEL,
        ),
        Workload(
            f"betti-p3n{betti_n}",
            ("betti", "--p", "3", "--n", str(betti_n), "--method", "both",
             "--shuffle-check", "--seed", "{seed}"),
            "Betti numbers two ways: exact sparse ranks (canonical twice, "
            "seed-shuffled once) against the shelling peel route",
            {"homology": "~60% (10 boundary_matrix, 15 sparse_rank)",
             "shelling.homology_facets_direct": "~20%",
             "interpreter start-up": "~20%"},
            _NO_SERIES + _NO_CRITERION + _NO_PAIRWISE,
        ),
        Workload(
            f"alignment-n{n_max}",
            ("genfun", "--check-alignment", "--n-max", str(n_max)),
            "series-diagonal identity chain: facet criterion for n <= n_max "
            "plus series_XY built two ways; no homology, no pairwise check",
            {"facets.facet_certificate + facets.twist_sets via "
             "shelling.homology_facets_by_criterion": "~60%",
             "facets.enumerate_facets": "~10%",
             "series + genfun": "~30%",
             "interpreter start-up": "~4%"},
            _NO_HOMOLOGY + _NO_PAIRWISE + _NO_PEEL,
        ),
    ]
    return {w.name: w for w in items}


WORKLOADS = workloads()

END_TO_END_UNITS = {"wall_min_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "complexes.enumerate_faces.calls": "count",
    "complexes.enumerate_faces.self_s": "s",
    "facets.enumerate_facets.calls": "count",
    "facets.enumerate_facets.self_s": "s",
    "facets.facets_listed": "count",
    "facets.facet_certificate.calls": "count",
    "facets.facet_certificate.self_s": "s",
    "facets.twist_sets.calls": "count",
    "facets.twist_sets.self_s": "s",
    "shelling.verify_shelling.self_s": "s",
    "shelling.pairs": "count",
    "shelling.fallbacks": "count",
    "shelling.constructed_ratio": "ratio",
    "shelling.homology_facets_direct.self_s": "s",
    "shelling.homology_facets": "count",
    "shelling.homology_facets_by_criterion.self_s": "s",
    "shelling.homology_facet_by_criterion.calls": "count",
    "homology.boundary_matrix.calls": "count",
    "homology.boundary_matrix.self_s": "s",
    "homology.boundary_nnz": "count",
    "homology.sparse_rank.calls": "count",
    "homology.sparse_rank.self_s": "s",
    "homology.matrix_rank.self_s": "s",
    "homology.shuffled_rank.self_s": "s",
    "homology.rank_total": "count",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.invert_unit.calls": "count",
    "series.invert_unit.self_s": "s",
    "series.terms_out": "count",
    "genfun.series_XY.self_s": "s",
    "genfun.series_P.self_s": "s",
    "genfun.alternating_homology_count.self_s": "s",
    "genfun.alignment_check.self_s": "s",
    "identities.dixon.self_s": "s",
    "process.cpu_s": "s",
    "process.trace_overhead_s": "s",
}


# -- report checks --------------------------------------------------------------


def report_digest(stdout: bytes, workload: Workload, seed: int) -> str:
    """SHA-256 of a report; a seeded report is hashed without results.seed.

    Raises ValueError if the report is not JSON, did not pass, or carries a
    seed other than the one given.
    """
    report = json.loads(stdout)
    if report.get("pass") is not True:
        raise ValueError("report does not pass")
    if workload.seeded:
        if report["results"].pop("seed", None) != seed:
            raise ValueError("report seed differs from the run's seed")
        # the CLI renders with these settings, so unseeded bytes are unchanged
        stdout = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(stdout).hexdigest()


def check_report(code: int, stdout: bytes, workload: Workload, seed: int,
                 reference: dict[str, str], first: bytes | None) -> str | None:
    """Why an invocation failed, or None when its report verified."""
    if code != 0:
        return f"exit code {code}"
    if first is not None and stdout != first:
        return "report differs from the first report of this run"
    try:
        digest = report_digest(stdout, workload, seed)
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad report: {exc}"
    if digest != reference.get(workload.key):
        return "report does not match the stored reference"
    return None


# -- child processes -------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# A child's ru_maxrss starts at the resident size of the process it was forked
# from, so children are spawned from this bare interpreter (-S, builtin
# modules only), which stays smaller than any Python child's own peak.
LAUNCHER_CODE = """
import os, sys, time
for line in sys.stdin:
    out, *cmd = line.rstrip("\\n").split("\\0")
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, fd, 1),
    ])
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.close(fd)
    print(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
          os.waitstatus_to_exitcode(status), flush=True)
"""


class Launcher:
    """Runs children one at a time; reports wall time, rusage and stdout."""

    def __init__(self, env: dict[str, str], cwd: Path):
        OUT_DIR.mkdir(exist_ok=True)
        self.stdout_path = OUT_DIR / f"stdout-{os.getpid()}"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER_CODE], env=env, cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, cmd: list[str]) -> dict:
        if any("\n" in a or "\0" in a for a in cmd):
            raise ValueError("arguments must not contain newlines or NULs")
        self.proc.stdin.write("\0".join([str(self.stdout_path), *cmd]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        wall, cpu, maxrss_kb, code = line.split()
        return {
            "wall_s": float(wall),
            "cpu_s": float(cpu),
            "peak_rss_mb": int(maxrss_kb) / 1024,
            "code": int(code),
            "stdout": self.stdout_path.read_bytes(),
        }

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.stdout_path.unlink(missing_ok=True)


def calibrate() -> float:
    """Time of a fixed pure-Python loop, recorded to show host drift."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def timed_runs(workload: Workload, seed: int, seconds: float, launcher: Launcher,
               reference: dict[str, str], reserve_rounds: int) -> list[dict]:
    """Closed loop of rounds, each a calibration loop, a set-up child and a
    workload child; stops before the next round, plus `reserve_rounds` more
    rounds' time, would pass `seconds`.

    Set-up samples are spread over the whole run, like the workload samples,
    so both see the same host drift.
    """
    cmd = [sys.executable, "-m", "gammashell.cli", *workload.command(seed)]
    setup_cmd = [sys.executable, "-c", SETUP_CODE, *workload.command(seed)]
    runs: list[dict] = []
    first = None
    start = time.perf_counter()
    while True:
        cal = calibrate()
        setup = launcher.spawn(setup_cmd)
        if setup["code"] != 0:
            raise RuntimeError(f"set-up child exited with {setup['code']}")
        got = launcher.spawn(cmd)
        got["failure"] = check_report(got["code"], got["stdout"], workload, seed,
                                      reference, first)
        got["calibration_s"] = cal
        got["setup_s"] = setup["wall_s"]
        if first is None and got["code"] == 0:
            first = got["stdout"]
        runs.append(got)
        elapsed = time.perf_counter() - start
        round_s = statistics.median(r["wall_s"] + r["setup_s"] for r in runs)
        if elapsed + round_s * (1 + reserve_rounds) > seconds:
            return runs


# -- trace analysis --------------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Calls, self time and summed counts per span name.

    A span is [name, start, end, parent index or -1, count]; its self time is
    its duration minus the durations of its direct children, which nest
    inside it because the traced run is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for (name, start, end, _, count), inner in zip(spans, child_time):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "count": None})
        t["calls"] += 1
        t["self_s"] += (end - start) - inner
        if count is not None:
            if isinstance(count, list):
                t["count"] = [a + b for a, b in zip(t["count"] or [0] * len(count), count)]
            else:
                t["count"] = (t["count"] or 0) + count
    return totals


def layer_metrics(totals: dict[str, dict], stdout_bytes: int, cpu_s: float,
                  trace_overhead_s: float) -> dict[str, float]:
    """The per-layer metrics from span totals; absent spans read zero."""

    def get(name: str, what: str, default=0):
        t = totals.get(name)
        return default if t is None or t[what] is None else t[what]

    pairs, fallbacks, constructed = get("shelling.verify_shelling", "count", [0, 0, 0])
    values: dict[str, float] = {
        "cli.stdout_bytes": stdout_bytes,
        "facets.facets_listed": get("facets.enumerate_facets", "count"),
        "shelling.pairs": pairs,
        "shelling.fallbacks": fallbacks,
        "shelling.constructed_ratio": constructed / pairs if pairs else 0.0,
        "shelling.homology_facets": get("shelling.homology_facets_direct", "count"),
        "homology.boundary_nnz": get("homology.boundary_matrix", "count"),
        "homology.rank_total": get("homology.sparse_rank", "count"),
        "series.terms_out": get("series.mul", "count") + get("series.invert_unit", "count"),
        "identities.dixon.self_s": sum(
            get(f"identities.{f}", "self_s")
            for f in ("dixon_lhs", "dixon_rhs", "power_sum_lhs")
        ),
        "process.cpu_s": cpu_s,
        "process.trace_overhead_s": trace_overhead_s,
    }
    for metric in PER_LAYER_UNITS:
        if metric not in values:
            span, what = metric.rsplit(".", 1)
            values[metric] = get(span, what)
    return values


def zero_prediction_misses(workload: Workload, values: dict[str, float]) -> list[str]:
    """Per-layer metrics predicted to read zero that did not."""
    return [
        m for m, v in values.items()
        if v and any(m == z or (z.endswith(".") and m.startswith(z))
                     for z in workload.zero)
    ]


def traced_run(workload: Workload, seed: int, launcher: Launcher, spans_path: Path) -> dict:
    got = launcher.spawn(
        [sys.executable, str(TRACED), str(spans_path), *workload.command(seed)])
    with open(spans_path, encoding="utf-8") as fh:
        got["spans"] = json.load(fh)
    return got


# -- metadata ----------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# -- entry point -------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
        reference: dict[str, str]) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, detail record)."""
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    with Launcher(child_env(root), root) as launcher:
        # a traced child takes under twice an untraced one's wall time, so
        # two rounds' time keeps the traced run inside `seconds` too
        runs = timed_runs(workload, seed, seconds, launcher, reference,
                          2 if trace else 0)
        got = traced_run(workload, seed, launcher, spans_path) if trace else None
    failures = [r["failure"] for r in runs if r["failure"]]
    verified = [r for r in runs if not r["failure"]] or runs
    walls = [r["wall_s"] for r in verified]
    wall = statistics.median(walls)
    detail: dict = {
        "workload": workload.name,
        "command": [sys.executable, "-m", "gammashell.cli", *workload.command(seed)],
        "why": workload.why,
        "predicted_split": workload.split,
        "predicted_zero": list(workload.zero),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "wall_s": {"min": min(walls), "median": wall, "quartiles": quartiles(walls),
                   "samples": len(walls)},
        "failed_ratio": len(failures) / len(runs),
        "failures": failures,
        "rounds": [
            {"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"],
             "setup_s": r["setup_s"], "calibration_s": r["calibration_s"],
             "verified": not r["failure"]}
            for r in runs
        ],
    }
    attempted, failed = len(runs), len(failures)
    if not trace:
        metrics = {
            "wall_min_s": min(walls),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END_UNITS
    else:
        failure = check_report(got["code"], got["stdout"], workload, seed, reference,
                               None if failures else runs[0]["stdout"])
        attempted += 1
        failed += failure is not None
        overhead = got["wall_s"] - wall
        metrics = layer_metrics(
            span_totals(got["spans"]), len(got["stdout"]),
            statistics.median(r["cpu_s"] for r in verified), overhead,
        )
        misses = zero_prediction_misses(workload, metrics)
        failed += bool(misses)
        detail["traced"] = {"wall_s": got["wall_s"], "failure": failure,
                            "spans": len(got["spans"]), "spans_file": str(spans_path),
                            "zero_prediction_misses": misses}
        units = PER_LAYER_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gammashell" / "cli.py").is_file():
        print("error: run from a gammashell checkout (src/gammashell is missing)",
              file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/gammashell"],
                           cwd=root, stdout=subprocess.DEVNULL)
    if build.returncode != 0:
        print("error: src/gammashell does not compile", file=sys.stderr)
        return 2
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        reference = json.load(fh)

    workload = WORKLOADS[args.workload]
    result, detail = run(workload, args.seed, args.seconds, bool(args.trace), root,
                         reference)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=2)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
