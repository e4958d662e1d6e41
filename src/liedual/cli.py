"""Command-line surface: dimensions, branchings, verification sweeps, series.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 negative multiplicity (wrong embedding), 4 budget exceeded, and 141
when the reader of standard output closes it early (``| head``), the code
of a process killed by SIGPIPE.

Each command imports only what it runs.  At the top this module imports
``lattice`` and ``charalg`` alone; the oracle's two errors are defined in
``lattice``.  ``branch`` imports ``branching``, the oracle, whose catalog
it reads first, and ``rules``, the closed forms, only for a rule id.
``verify`` imports ``rules``, and its ``rules`` sweep the oracle too;
``minrep`` imports ``rules`` and ``minrep``; ``theta`` is imported by the
verify suites that read it, and the process pool only for ``verify
--jobs`` above 1.  So ``dim`` loads ``lattice`` and ``charalg`` alone,
``branch <embedding>`` adds ``branching``, and ``minrep`` adds ``rules``
and ``minrep``.

``parse_weight`` reads a weight argument, its coordinates and rule
parameters read by ``lattice.qv``; a flat weight is cut by factor in
``lattice.read_flat_weight``, and ``charalg.dimension`` checks dominance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import TYPE_CHECKING

from .charalg import FormalCharacter, weight_dimension
from .lattice import (
    BudgetExceededError,
    GroupSpec,
    InvalidWeightError,
    NegativeMultiplicityError,
    Weight,
    format_terms,
    format_weight,
    group,
    make_weight,
    qv,
    read_flat_weight,
)

if TYPE_CHECKING:
    from .rules import Check, Rule

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141

#: The highest ``verify --max-level``.  The rule grids grow as the square of
#: the level (15,757 checks at 100) and are built before any budget is read,
#: so a level far beyond it would exhaust memory before the first check.
MAX_VERIFY_LEVEL = 100

#: The highest ``verify --max-n``: the infchar suite has (N+1)(N+2)/2 checks.
MAX_VERIFY_N = 100

#: The highest ``minrep --max-level``.  Without ``--charge`` a hermJ-mixedE
#: level walks the closed-form terms of all 2n+1 charges: a cold call to 30
#: takes 0.07 s and 16 MB; the walk alone 0.02 s at 30 and 0.5 s at 60.
MAX_MINREP_LEVEL = 30

#: The highest ``branch <rule>`` parameter, read before the closed form is
#: built: ``su6_omega3`` holds about N^4/40 terms, and a cold call at 40 takes
#: 0.6 s and 50 MB (2 CPUs, Python 3.11.7); every other rule under 0.2 s.
MAX_RULE_PARAM = 40


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in low..high (no upper bound if None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"{value} is not {bound}")
        return value

    return parse


def parse_group(text: str) -> GroupSpec:
    labels = [t.strip() for t in text.split("x")]
    if not any(labels):
        raise InvalidWeightError("empty group")
    if not all(labels):
        raise InvalidWeightError(f"empty factor in group {text!r}")
    return group(*labels)


def _read_block(text: str) -> tuple[Q, ...]:
    """Comma-separated rationals, bare or inside one pair of parentheses."""
    body = text.strip()
    inner = body[1:-1] if body[:1] + body[-1:] == "()" else body
    if "(" in inner or ")" in inner:
        raise InvalidWeightError(f"unbalanced parentheses in {body!r}")
    return qv(*inner.split(","))


def parse_weight(gs: GroupSpec, text: str) -> Weight:
    """Read one x-separated block per factor of ``gs``, e.g. "(1,0)x(2)", or
    a single block of all the coordinates, cut by ``read_flat_weight``."""
    blocks = text.split("x")
    if len(blocks) == len(gs.factors):
        return make_weight(gs, map(_read_block, blocks))
    if len(blocks) == 1:
        return read_flat_weight(gs, _read_block(text))
    raise InvalidWeightError(
        f"expected {len(gs.factors)} x-separated blocks or one flat list, got {len(blocks)}"
    )


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    if fmt == "tsv":
        for row in payload.get("result", []):
            print("\t".join(str(x) for x in row))
        for check in payload.get("checks", []):
            print(
                "\t".join(
                    str(check[k]) for k in ("name", "status", "expected", "actual")
                )
            )
        if "summary" in payload:
            print(payload["summary"])
        return
    # pretty
    for check in payload.get("checks", []):
        print(f"{check['status']:4}  {check['name']}")
        if check["status"] != "PASS":
            print(f"      expected {check['expected']}")
            print(f"      actual   {check['actual']}")
    if "summary" in payload:
        print(payload["summary"])


def cmd_dim(args: argparse.Namespace) -> int:
    gs = parse_group(args.group)
    w = parse_weight(gs, args.weight)
    value = weight_dimension(gs, w)
    if args.format == "pretty":
        print(value)
    else:
        _emit(
            {
                "command": "dim",
                "inputs": {"group": args.group, "weight": args.weight},
                "result": [[format_weight(w), 1, value]],
                "checks": [],
            },
            args.format,
        )
    return EXIT_OK


def _rule_params(rule: Rule, texts: list[str], charge: int | None) -> list:
    """Parse and validate ``liedual branch`` rule parameters."""
    if len(texts) != len(rule.params):
        raise InvalidWeightError(
            f"{rule.rule_id} takes parameters {' '.join(rule.params)}, got {len(texts)}"
        )
    if charge is not None and rule.block is None:
        raise InvalidWeightError(f"{rule.rule_id} takes no --charge")
    kind = "half-integer" if rule.half_integral else "integer"
    values = []
    for name, text in zip(rule.params, texts):
        value, = qv(text)
        if value < 0 or value.denominator > (2 if rule.half_integral else 1):
            raise InvalidWeightError(f"{name}={text} is not a non-negative {kind}")
        if value > MAX_RULE_PARAM:
            raise InvalidWeightError(f"{name}={text} is above {MAX_RULE_PARAM}")
        values.append(value if rule.half_integral else int(value))
    return values


def _charge_block(char: FormalCharacter, charge: int) -> FormalCharacter:
    """The terms of ``char`` at ``charge``: the keys whose first doubled
    charge is ``2 * charge``."""
    at = char.group.width
    return FormalCharacter.from_int_keys(
        char.group, {k: m for k, m in zip(char.keys, char.mults) if k[at] == 2 * charge}
    )


def cmd_branch(args: argparse.Namespace) -> int:
    from . import branching

    checks: list[Check] = []
    params: list = []
    if args.target in branching.CATALOG:
        e = branching.embedding(args.target)
        if len(args.params) != 1:
            raise InvalidWeightError("embeddings take one weight argument")
        if args.charge is not None:
            raise InvalidWeightError("embeddings take no --charge")
        if args.generic:
            raise InvalidWeightError("embeddings take no --generic: the oracle already runs")
        hw = parse_weight(e.big, args.params[0])
        char = branching.restrict_generic(e, hw, args.budget).decomposition
    else:
        from .rules import RULES, Check

        rule = RULES.get(args.target)
        if rule is None:
            raise InvalidWeightError(f"unknown rule or embedding {args.target!r}")
        if args.budget is not None and not args.generic:
            raise InvalidWeightError("a rule reads --budget only with --generic")
        params = _rule_params(rule, args.params, args.charge)
        charge = args.charge or 0
        char = rule.closed(*params) if rule.block is None else rule.block(*params, charge)
        if charge < 0:  # only a charged rule takes --charge
            checks.append(
                Check(
                    "negative charge block",
                    "NOTE",
                    "charge negation of the positive block",
                    "duality convention",
                )
            )
        if args.generic:
            e = branching.embedding(rule.embedding)
            generic = branching.restrict_generic(
                e, rule.source(*params), args.budget
            ).decomposition
            if rule.block is not None:
                generic = _charge_block(generic, charge)
            status = "MATCH" if generic == char else "MISMATCH"
            expected, actual = format_terms(char.terms), format_terms(generic.terms)
            checks.append(Check("closed form vs generic", status, expected, actual))
    payload = {
        "command": "branch",
        "inputs": {
            "target": args.target,
            "params": [str(p) for p in (params or args.params)],
            "charge": args.charge,
        },
        "result": [[format_weight(w), m, weight_dimension(char.group, w)] for w, m in char.terms],
        "checks": [c._asdict() for c in checks],
    }
    if args.format == "pretty":
        for row in payload["result"]:
            print(f"{row[1]} * {row[0]}   dim {row[2]}")
        for check in checks:
            print(check.status)
    else:
        _emit(payload, args.format)
    if any(c.status == "MISMATCH" for c in checks):
        return EXIT_FAIL
    return EXIT_OK


def _run_rule_sweep(task: tuple[str, int | None, int]) -> tuple[Check, ...]:
    from . import rules

    return rules.verify_rule(*task).checks


def _suite_rules(args) -> list[Check]:
    from .rules import RULE_IDS

    tasks = [(rule_id, args.max_level, args.budget) for rule_id in RULE_IDS]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            blocks = list(pool.map(_run_rule_sweep, tasks))
    else:
        blocks = [_run_rule_sweep(t) for t in tasks]
    return [check for block in blocks for check in block]


def _suite_infchar(args) -> list[Check]:
    import random

    from . import theta
    from .rules import Check

    checks = list(theta.lemma_infchar_consistency(args.max_n).checks)
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        a = Q(rng.randint(-40, 40), rng.choice((1, 2, 4)))
        b = Q(rng.randint(-40, 40), rng.choice((1, 2, 4)))
        nu = theta.torus_character(a, b, -a - b)
        if theta.infchar_lift(nu) != theta.infchar_symmetric_form(nu):
            mismatches += 1
    checks.append(
        Check(
            "lift vs symmetric form on 1000 seeded triples",
            "PASS" if mismatches == 0 else "FAIL",
            "0 mismatches",
            f"{mismatches} mismatches",
        )
    )
    return checks


def _suite_quasisplit(args) -> tuple[Check, ...]:
    from . import theta

    return theta.compare_ps_vs_stabilized().checks


def _suite_tables(args) -> tuple[Check, ...]:
    from . import theta

    directory = Path(args.fixtures) if args.fixtures else None
    return theta.verify_tables(directory).checks


_SUITES = {
    "rules": _suite_rules,
    "infchar": _suite_infchar,
    "quasisplit-mult": _suite_quasisplit,
    "tables": _suite_tables,
}

_VERDICT_EXIT = {"PASS": EXIT_OK, "FAIL": EXIT_FAIL, "BUDGET": EXIT_BUDGET}


def cmd_verify(args: argparse.Namespace) -> int:
    from .rules import Report

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = Report(args.suite, tuple(c for name in names for c in _SUITES[name](args)))
    payload = {
        "command": "verify",
        "inputs": {"suite": args.suite},
        "result": [],
        "checks": [c._asdict() for c in report.checks],
        "summary": report.summary,
    }
    _emit(payload, args.format)
    return _VERDICT_EXIT[report.verdict]


def cmd_minrep(args: argparse.Namespace) -> int:
    from . import minrep

    case = args.case
    if case not in minrep.TYPE_GROUPS:
        raise InvalidWeightError(f"unsupported case {case!r} for series output")
    ktype = parse_weight(minrep.TYPE_GROUPS[case], args.type)
    series = minrep.multiplicity_series(case, ktype, args.max_level, args.charge)
    tag = None
    try:
        tag = minrep.sign_first_appearance(case, ktype).side
    except minrep.NotCoveredError:
        pass
    payload = {
        "command": "minrep",
        "inputs": {
            "case": case,
            "type": args.type,
            "charge": args.charge,
            "max_level": args.max_level,
        },
        "result": [[n, v] for n, v in enumerate(series.values)],
        "checks": [],
        "first_level": series.first_level,
        "stabilized_value": series.stabilized_value,
        "stabilized_kind": series.stabilized_kind,
        "tag": tag,
    }
    if args.format == "pretty":
        for n, v in enumerate(series.values):
            print(f"{n}\t{v}")
        print(f"first_level\t{series.first_level}")
        if series.stabilized_kind is None:
            print(f"stabilized\tnot reached by level {args.max_level}")
        else:
            print(f"stabilized\t{series.stabilized_value} ({series.stabilized_kind})")
        if tag:
            print(f"tag\t{tag}")
    else:
        _emit(payload, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liedual",
        description=(
            "Exact branching rules, graded compact-type models, and "
            "verification sweeps for the Spin(8)-type dual pairs."
        ),
        epilog=(
            "exit codes: 0 ok, 1 verification failure, 2 input error, "
            "3 negative multiplicity, 4 budget exceeded, 141 output closed early."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser("dim", help="dimension of an irreducible")
    p_dim.add_argument("group", help="type label or x-joined product, e.g. C4")
    p_dim.add_argument("weight", help="comma-separated coordinates, e.g. 1,1,1,1")
    p_dim.add_argument("--format", choices=("pretty", "json", "tsv"), default="pretty")
    p_dim.set_defaults(func=cmd_dim)

    p_branch = sub.add_parser("branch", help="closed-form rule or generic restriction")
    p_branch.add_argument("target", help="rule id or embedding name")
    p_branch.add_argument("params", nargs="*", help="rule parameters or a weight")
    p_branch.add_argument("--charge", type=int, default=None)
    p_branch.add_argument("--generic", action="store_true", help="replay the oracle")
    p_branch.add_argument("--budget", type=_int_in(1), default=None)
    p_branch.add_argument("--format", choices=("pretty", "json", "tsv"), default="pretty")
    p_branch.set_defaults(func=cmd_branch)

    p_verify = sub.add_parser("verify", help="verification sweeps")
    p_verify.add_argument("suite", choices=(*_SUITES, "all"))
    p_verify.add_argument("--max-level", type=_int_in(0, MAX_VERIFY_LEVEL), default=None)
    p_verify.add_argument("--max-n", type=_int_in(0, MAX_VERIFY_N), default=10)
    p_verify.add_argument("--fixtures", default=None)
    p_verify.add_argument("--budget", type=_int_in(1), default=None)
    p_verify.add_argument("--jobs", type=_int_in(1, os.cpu_count() or 1), default=1)
    p_verify.add_argument("--format", choices=("pretty", "json", "tsv"), default="pretty")
    p_verify.set_defaults(func=cmd_verify)

    p_minrep = sub.add_parser("minrep", help="graded multiplicity series")
    p_minrep.add_argument("case", help="splitJ-splitE, splitJ-mixedE or hermJ-mixedE")
    p_minrep.add_argument("--type", required=True, help='e.g. "0,0,0,0" or "(2,0)x0"')
    p_minrep.add_argument("--charge", type=int, default=None)
    p_minrep.add_argument("--max-level", type=_int_in(0, MAX_MINREP_LEVEL), default=12)
    p_minrep.add_argument("--format", choices=("pretty", "json", "tsv"), default="pretty")
    p_minrep.set_defaults(func=cmd_minrep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe for SIGPIPE: point stdout at devnull, so that the
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except NegativeMultiplicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KeyError, ValueError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
