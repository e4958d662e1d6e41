"""liedual benchmark: one workload per call, or all four with --workload all.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from its src/
as it is.  A run first times ``import liedual`` in fresh interpreters
(setup), then repeats whole rounds of the workload until the next round
would pass --seconds.  A round is one fresh interpreter running the
workload's operations (bench/worker.py), followed by the workload's single
CLI calls, each its own ``python -m liedual`` process.  Every output is
checked; see bench/README.md for what each workload runs and checks.

--trace 0 prints the end-to-end metrics, --trace 1 the per-module metrics
of a traced run (its rounds alternate untraced and traced, and the
difference of their wall times is trace.overhead_s).  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CALL_TIMEOUT_S = 120  # a run's last round starts by --seconds, so it ends within 180 s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import liedual; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Spawns the processes of one run and collects their usage."""

    def __init__(self, source: Path, size: str) -> None:
        self.source = source
        self.size = size
        pythonpath = [str(source / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), PYTHONHASHSEED="0")

    def spawn(self, argv: list[str]) -> tuple[int, str, float, float]:
        """Run a child to completion: exit code, stdout, wall s, CPU s."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=self.source,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"timed out after {CALL_TIMEOUT_S}s: {argv}") from None
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if err.strip():
            sys.stderr.write(err)
        return proc.returncode, out, wall, cpu

    def import_time(self) -> float:
        code, out, _, _ = self.spawn([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise BenchError("import liedual failed")
        return float(out.strip())

    def worker(self, args: list[str]) -> tuple[dict, float, float]:
        code, out, wall, cpu = self.spawn([sys.executable, str(HERE / "worker.py"), *args])
        if code != 0:
            raise BenchError(f"worker exited {code}: {args}")
        return json.loads(out.strip().splitlines()[-1]), wall, cpu

    def round(self, workload: str, seed: int, traced: bool, spans_dir: Path | None) -> dict:
        """One round: the worker's operations, then the single CLI calls."""
        common = ["--source", str(self.source)] + (["--trace"] if traced else [])

        def spans(tag: str) -> list[str]:
            if not traced or spans_dir is None:
                return []
            return ["--spans", str(spans_dir / f"{workload}-{tag}.json")]

        ops, _, _ = self.worker(
            ["ops", *common, *spans("ops"), "--workload", workload, "--seed", str(seed), "--size", self.size]
        )
        wrong, errors = list(ops["wrong"]), list(ops["errors"])
        failed = ops["failed"]
        cpu = ops["cpu_s"]
        output_bytes = ops["cli_bytes"]
        summaries = [ops["trace"]] if traced else []
        call_walls, call_cpus = [], []
        for i, call in enumerate(workloads.cli_calls(workload, self.size, seed)):
            if traced:
                result, wall, call_cpu = self.worker(["cli", *common, *spans(f"cli{i}"), "--", *call.argv])
                code, text = result["exit"], result["stdout"]
                summaries.append(result["trace"])
            else:
                code, text, wall, call_cpu = self.spawn([sys.executable, "-m", "liedual", *call.argv])
            call_walls.append(wall)
            call_cpus.append(call_cpu)
            cpu += call_cpu
            output_bytes += len(text.encode("utf-8"))
            if code != 0:
                failed += 1
                errors.append(f"liedual {' '.join(call.argv)} exited {code}")
                continue
            try:
                message = call.check(text)
            except (ValueError, KeyError, TypeError) as exc:
                message = f"liedual {' '.join(call.argv)}: unreadable output ({exc!r})"
            if message:
                wrong.append(message)
        return {
            "attempted": ops["attempted"] + len(call_walls),
            "failed": failed,
            "errors": errors,
            "wrong": wrong,
            "wall_s": ops["ops_s"] + sum(call_walls),
            "cpu_s": cpu,
            "peak_rss_mb": ops["maxrss_kb"] / 1024,
            "op_s": ops["op_s"],
            "op_cpu_s": ops["op_cpu_s"],
            "startup_cpu_s": ops["startup_cpu_s"],
            "call_walls": call_walls,
            "call_cpus": call_cpus,
            "output_bytes": output_bytes,
            "trace": tracing.merge(summaries) if traced else None,
        }


def sum_of_medians(rounds: list[dict], key: str) -> float:
    """Each operation's median over the rounds, summed over the operation list."""
    return sum(median(column) for column in zip(*(r[key] for r in rounds)))


def end_to_end(setup: list[float], rounds: list[dict]) -> dict[str, tuple[float, str]]:
    # Per-operation medians: the operations of one round run seconds apart,
    # so this takes each one's middle value across the whole run instead of
    # the middle round alone.
    wall = sum_of_medians(rounds, "op_s") + sum_of_medians(rounds, "call_walls")
    cpu = (
        median(r["startup_cpu_s"] for r in rounds)
        + sum_of_medians(rounds, "op_cpu_s")
        + sum_of_medians(rounds, "call_cpus")
    )
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds), "MB"),
        "cli_call_p50_s": (median(w for r in rounds for w in r["call_walls"]), "s"),
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(r: dict) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced round."""
    t = r["trace"]
    calls, incl, counters, caches = t["calls"], t["inclusive"], t["counters"], t["caches"]
    out: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (t["self_s"][layer], "s")
    for name in ("dominant_conjugate", "weyl_orbit", "make_weight"):
        out[f"lattice.{name}.calls"] = (calls.get(f"lattice.{name}", 0), "count")
    out["charalg.diagram.misses"] = (caches["charalg.diagram"][1], "count")
    out["charalg.diagram_weights"] = (counters.get("charalg.diagram_weights", 0), "count")
    out["charalg.diagram.hit_ratio"] = (_ratio(*caches["charalg.diagram"]), "ratio")
    out["charalg.dimension.hit_ratio"] = (_ratio(*caches["charalg.dimension"]), "ratio")
    out["branching.restrict.s"] = (incl.get("branching.restrict_generic", 0.0), "s")
    out["branching.restrict.calls"] = (calls.get("branching.restrict_generic", 0), "count")
    out["branching.restrict.terms"] = (counters.get("branching.restrict.terms", 0), "count")
    out["branching.closed.s"] = (
        sum(v for k, v in incl.items() if k.startswith("branching.branch_")),
        "s",
    )
    for rule_id in reference.SHIPPED_RULE_RANGES:
        out[f"branching.verify_rule.{rule_id}.s"] = (incl.get(f"branching.verify_rule.{rule_id}", 0.0), "s")
    out["minrep.dualpair_graded.s"] = (incl.get("minrep.dualpair_graded", 0.0), "s")
    out["minrep.ktype_multiplicity.calls"] = (calls.get("minrep.ktype_multiplicity", 0), "count")
    minrep_caches = [v for k, v in caches.items() if k.startswith("minrep.")]
    out["minrep.cache.hit_ratio"] = (
        _ratio(sum(h for h, _ in minrep_caches), sum(m for _, m in minrep_caches)),
        "ratio",
    )
    out["theta.infchar.calls"] = (
        calls.get("theta.infchar_lift", 0) + calls.get("theta.infchar_symmetric_form", 0),
        "count",
    )
    out["cli.output_bytes"] = (r["output_bytes"], "bytes")
    out["trace.wall_s"] = (r["wall_s"], "s")
    out["trace.outside_s"] = (r["wall_s"] - t["top_level_s"], "s")
    out["trace.spans"] = (t["spans"], "count")
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    per_round = [layer_metrics(r) for r in traced]
    out = {
        name: (median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    overhead = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole rounds until the next one would pass ``seconds``.

    Setup is probed before the first round and again after every untraced
    one, so its median covers the whole run, as the rounds' medians do.
    """
    probes = workloads.SIZES[runner.size]["setup_probes"]
    runner.import_time()  # compiles bytecode once, as a user's first run does
    setup = [runner.import_time() for _ in range(probes)]
    spans_dir = None
    if trace:
        spans_dir = runner.source / ".bench_out" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    took = {False: [], True: []}
    start = time.perf_counter()
    while True:
        kind = trace and len(plain) > len(traced)
        began = time.perf_counter()
        (traced if kind else plain).append(runner.round(workload, seed, kind, spans_dir))
        if not trace:
            setup.extend(runner.import_time() for _ in range(probes))
        took[kind].append(time.perf_counter() - began)
        next_kind = trace and len(plain) > len(traced)
        estimate = mean(took[next_kind] or took[kind])
        if trace and not traced:
            continue
        if time.perf_counter() - start + estimate > seconds:
            break
    everything = plain + traced
    return {
        "workload": workload,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "errors": [e for r in everything for e in r["errors"]],
        "wrong": [w for r in everything for w in r["wrong"]],
        "metrics": per_layer(plain, traced) if trace else end_to_end(setup, plain),
        "spans_dir": str(spans_dir) if spans_dir else None,
        "samples": {
            "setup_s": setup,
            "round wall_s": [r["wall_s"] for r in plain],
            "round cpu_s": [r["cpu_s"] for r in plain],
            "cli call s": [w for r in plain for w in r["call_walls"]],
        },
    }


def report(result: dict) -> None:
    print(
        f"{result['workload']}: {result['rounds']} rounds"
        + (f" + {result['traced_rounds']} traced" if result["traced_rounds"] else "")
        + f", {result['attempted']} operations attempted, {result['failed']} failed"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, values in result["samples"].items():
        print(f"  samples of {name}: {' '.join(f'{v:.4g}' for v in values)}")
    if result["spans_dir"]:
        print(f"  spans written to {result['spans_dir']}")
    for message in (result["errors"] + result["wrong"])[:10]:
        print(f"  ! {message}", file=sys.stderr)


def check_source(source: Path) -> None:
    for needed in ("src/liedual/__init__.py", "fixtures/split_table.tsv", "fixtures/quasisplit_table.tsv"):
        if not (source / needed).is_file():
            raise BenchError(f"{source} has no {needed}: run from the root of a liedual checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="liedual benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)  # run_seconds of BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument(
        "--source", type=Path, default=HERE.parent, help="checkout whose src/liedual is measured"
    )
    args = parser.parse_args(argv)
    source = args.source.resolve()
    try:
        check_source(source)
        reference.self_check()
        runner = Runner(source, args.size)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(runner, w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    multi = len(results) > 1
    metrics = {}
    for result in results:
        report(result)
        for name, (value, unit) in result["metrics"].items():
            key = f"{result['workload']}.{name}" if multi else name
            metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": not any(r["wrong"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
