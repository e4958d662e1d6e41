"""One round of one workload, in a fresh interpreter.

    python bench/worker.py ops --source DIR --workload NAME --seed N [--size S] [--trace] [--spans FILE]
    python bench/worker.py cli --source DIR [--trace] [--spans FILE] -- ARGV...

``ops`` imports liedual from DIR/src, runs the workload's operations in
order, timing them as one block, then checks every output.  ``cli`` runs
one ``liedual`` command line in-process under the tracer; untraced CLI
calls are spawned as ``python -m liedual`` by ``run.py`` instead.

Prints one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

MODULES = tracing.LAYERS


def load_liedual(source: Path) -> SimpleNamespace:
    src = (source / "src").resolve()
    sys.path.insert(0, str(src))
    ld = SimpleNamespace(**{m: importlib.import_module(f"liedual.{m}") for m in MODULES})
    origin = Path(ld.cli.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"liedual was imported from {origin}, not from {src}")

    def run_cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ld.cli.main(argv)
        text = out.getvalue()
        ld.cli_bytes += len(text.encode("utf-8"))
        return code, text

    ld.run_cli = run_cli
    ld.cli_bytes = 0
    return ld


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def install_tracer(ld) -> tracing.Tracer:
    tracer = tracing.Tracer()
    tracer.install({m: getattr(ld, m) for m in MODULES})
    return tracer


def run_ops(args) -> dict:
    ld = load_liedual(args.source)
    tracer = install_tracer(ld) if args.trace else None
    ops = workloads.build_ops(args.workload, args.size, args.seed, ld, args.source)
    outputs: list = []
    errors: list[str] = []
    if tracer:
        tracer.start()
    op_s: list[float] = []
    op_cpu_s: list[float] = []
    startup_cpu_s = own_cpu_s()
    clock, cpu_clock = time.perf_counter, time.process_time
    start = clock()
    for op in ops:
        began, began_cpu = clock(), cpu_clock()
        try:
            outputs.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
        op_s.append(clock() - began)
        op_cpu_s.append(cpu_clock() - began_cpu)
    ops_s = clock() - start
    if tracer:
        tracer.stop()
    cpu_s = own_cpu_s()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(errors)
    wrong: list[str] = []
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        try:
            message = op.check(out)
        except Exception:
            message = f"{op.name}: check raised\n{traceback.format_exc()}"
        if message:
            wrong.append(message)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "wrong": wrong[:5],
        "ops_s": ops_s,
        "op_s": op_s,
        "op_cpu_s": op_cpu_s,
        "startup_cpu_s": startup_cpu_s,
        "cpu_s": cpu_s,
        "maxrss_kb": maxrss_kb,
        "cli_bytes": ld.cli_bytes,
        "trace": None,
    }
    if tracer:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def run_cli_call(args) -> dict:
    ld = load_liedual(args.source)
    tracer = install_tracer(ld) if args.trace else None
    if tracer:
        tracer.start()
    code, text = ld.run_cli(list(args.argv))
    if tracer:
        tracer.stop()
    result = {"exit": code, "stdout": text, "trace": None}
    if tracer:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_ops = sub.add_parser("ops")
    p_ops.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p_ops.add_argument("--seed", type=int, required=True)
    p_ops.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    for p in (p_ops, p_cli):
        p.add_argument("--source", type=Path, required=True)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    result = run_ops(args) if args.mode == "ops" else run_cli_call(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
