"""The four workloads: the operations each one runs and how each is checked.

An operation is one call into liedual whose output is checked afterwards
against ``reference`` (arithmetic apart from the program) or against a
property the method must have.  ``build_ops`` needs the liedual modules and
runs in the worker process; ``cli_calls`` describes the single CLI calls,
which are checked from their printed output only.

Every list below depends on the size and, where a random draw is made, on
the seed alone, so a seed names a fixed set of inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("certify", "oracle-ladder", "graded-series", "weights-tensors")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # checks the call's standard output


# Inputs per size.  "full" is what the benchmark measures; "smoke" exercises
# the same code paths and checks in seconds, for the benchmark's own test.
SIZES = {
    "full": {
        "ladder": {
            "sp2xsp2_in_sp4": 4,
            "su2x4_in_sp4": 3,
            "spin8u1_in_spin10": 4,
            "sp2su2u1_in_su6": 4,
            "sp3_in_su6": 4,
        },
        "graded_truncation": {
            "splitJ-splitE": 12,
            "splitJ-mixedE": 14,
            "hermJ-mixedE": 14,
            "e62-spin8": 24,
        },
        "split_family": 12,  # a+b+c of the criterion 3/7 triples
        "split_horizon": 10,
        "quasisplit_family": (12, 4),  # criterion 5/7 types and charges
        "sign_first_level": 8,
        "ps_compare": (16, 6),
        "infchar_triples": 2000,
        "freudenthal_grid": {
            "A1": 16, "A5": 3, "B2": 6, "C2": 7, "C3": 4, "C4": 3, "D4": 2, "D5": 1,
        },
        "tensor_grid": {
            "A1": 10, "A5": 1, "B2": 2, "C2": 3, "C3": 1, "C4": 1, "D4": 1, "D5": 1,
        },
        "conjugation_grid": {
            "A1": 4, "A5": 1, "B2": 2, "C2": 2, "C3": 1, "C4": 1, "D4": 1, "D5": 1,
        },
        "random_conjugations": 200,
        "verify_all": (),
        "setup_probes": 4,  # before the first round and after each round
    },
    "smoke": {
        "ladder": {
            "sp2xsp2_in_sp4": 1,
            "su2x4_in_sp4": 1,
            "spin8u1_in_spin10": 1,
            "sp2su2u1_in_su6": 1,
            "sp3_in_su6": 1,
        },
        "graded_truncation": {
            "splitJ-splitE": 3,
            "splitJ-mixedE": 3,
            "hermJ-mixedE": 3,
            "e62-spin8": 3,
        },
        "split_family": 4,
        "split_horizon": 4,
        "quasisplit_family": (3, 1),
        "sign_first_level": 2,
        "ps_compare": (3, 1),
        "infchar_triples": 10,
        "freudenthal_grid": {
            "A1": 2, "A5": 1, "B2": 1, "C2": 1, "C3": 1, "C4": 1, "D4": 1, "D5": 1,
        },
        "tensor_grid": {
            "A1": 2, "A5": 1, "B2": 1, "C2": 1, "C3": 1, "C4": 0, "D4": 0, "D5": 0,
        },
        "conjugation_grid": {
            "A1": 1, "A5": 1, "B2": 1, "C2": 1, "C3": 1, "C4": 1, "D4": 1, "D5": 1,
        },
        "random_conjugations": 5,
        "verify_all": ("--max-level", "1", "--max-n", "2"),
        "setup_probes": 1,
    },
}

VERIFY_ALL_ARGV = ("verify", "all", "--format", "json", "--jobs", "1")


def verify_all_argv(size: str) -> list[str]:
    """``verify all`` at the shipped ranges; smoke narrows two of them."""
    return [*VERIFY_ALL_ARGV, *SIZES[size]["verify_all"]]


# --------------------------------------------------------------------------
# Helpers shared by the checks.


def terms_of(char) -> dict[ref.Key, int]:
    return {(w.parts, w.charges): m for w, m in char.terms}


def parse_cli_weight(text: str) -> ref.Key:
    """Inverse of liedual's ``format_weight``: "(1,0)x(2)@-1" -> key."""
    body, _, charges = text.partition("@")
    parts = tuple(
        ref.parse_fraction_list(block.strip("()")) for block in body.split(")x(")
    )
    return parts, ref.parse_fraction_list(charges)


def _first_error(errors) -> str | None:
    for e in errors:
        if e:
            return e
    return None


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def dominant_grid(label: str, top: int) -> list[tuple[Fraction, ...]]:
    """Dominant weights of ``label`` with first coordinate at most ``top``.

    Built from the dominance inequalities in the program's coordinates:
    A non-increasing with last entry 0, B/C non-increasing and
    non-negative, D non-increasing with l_{r-1} >= |l_r|; B and D also take
    all-half-odd-integer (spin) weights.
    """
    if label == "A1":
        return [(Fraction(n),) for n in range(top + 1)]
    series, rank = label[0], int(label[1:])
    length = rank + 1 if series == "A" else rank
    offsets = [Fraction(0)] if series in "AC" else [Fraction(0), Fraction(1, 2)]
    out = []
    for off in offsets:
        values = [off + k for k in range(top, -1, -1) if off + k <= top]
        for combo in itertools.combinations_with_replacement(values, length):
            if series == "A" and combo[-1] != 0:
                continue
            out.append(combo)
            if series == "D" and combo[-1] != 0:
                out.append(combo[:-1] + (-combo[-1],))
    return out


def random_lattice_vector(rng: random.Random, label: str) -> tuple[Fraction, ...]:
    """A weight-lattice vector of ``label`` in any Weyl chamber."""
    series, rank = label[0], int(label[1:])
    if label == "A1":
        return (Fraction(rng.randint(-9, 9)),)
    if series == "A":
        return tuple(Fraction(rng.randint(-5, 5)) for _ in range(rank + 1))
    spin = series in "BD" and rng.random() < 0.5
    return tuple(
        Fraction(2 * rng.randint(-5, 4) + 1, 2) if spin else Fraction(rng.randint(-5, 5))
        for _ in range(rank)
    )


# --------------------------------------------------------------------------
# certify


def count_table_rows(root: Path) -> dict[str, int]:
    """Distinct row ids of each lowest-type fixture, read by the benchmark."""
    out = {}
    for name in ("split", "quasisplit"):
        rows = set()
        text = (root / "fixtures" / f"{name}_table.tsv").read_text(encoding="utf-8")
        for line in text.splitlines():
            if line.strip():
                rows.add(int(line.split("\t")[0]))
        out[name] = len(rows)
    return out


def check_table_dims(root: Path) -> str | None:
    """Every fixture row's printed dimension is the reference Weyl product."""
    groups = {"split": ("A1", "A1", "A1", "A1"), "quasisplit": ("C2", "A1")}
    for name, labels in groups.items():
        text = (root / "fixtures" / f"{name}_table.tsv").read_text(encoding="utf-8")
        for line in text.splitlines():
            if not line.strip():
                continue
            _, coords, dim = line.split("\t")
            values = ref.parse_fraction_list(coords)
            parts, pos = [], 0
            for label in labels:
                width = 2 if label == "C2" else 1
                parts.append(values[pos : pos + width])
                pos += width
            if ref.group_dim(labels, parts) != int(dim):
                return f"fixture {name} row {line!r}: dim is not the Weyl product"
    return None


def _suite_of(name: str, rule_ids) -> str | None:
    if name.split(" ", 1)[0] in rule_ids:
        return "rules"
    if name.startswith("infchar ") or name.startswith("lift vs symmetric form"):
        return "infchar"
    if name.startswith("type ("):
        return "quasisplit-mult"
    if name.startswith("split row ") or name.startswith("quasisplit row "):
        return "tables"
    return None


def check_verify_all(output, root: Path, argv: list[str]) -> str | None:
    code, text = output
    if code != 0:
        return f"verify all exited {code}"
    text = text.rstrip("\n")
    payload = json.loads(text)
    if json.dumps(payload, sort_keys=True, separators=(",", ":")) != text:
        return "verify all JSON does not re-serialize byte-identically"
    options = dict(zip(argv[::2], argv[1::2]))
    max_level = options.get("--max-level")
    expected = ref.verify_all_counts(
        count_table_rows(root),
        None if max_level is None else int(max_level),
        int(options.get("--max-n", ref.SHIPPED_INFCHAR_MAX_N)),
    )
    counts = dict.fromkeys(expected, 0)
    for row in payload["checks"]:
        suite = _suite_of(row["name"], ref.SHIPPED_RULE_RANGES)
        if suite is None:
            return f"check {row['name']!r} belongs to no suite"
        if row["status"] != "PASS":
            return f"check {row['name']!r} is {row['status']}"
        counts[suite] += 1
    if counts != expected:
        return f"checks per suite {counts} != enumerated {expected}"
    total = sum(expected.values())
    if payload["summary"] != f"PASS {total}/{total}":
        return f"summary {payload['summary']!r}"
    return check_table_dims(root)


def _check_dim_call(label: str, coords: tuple) -> Callable[[str], str | None]:
    expected = ref.weyl_dim(label, coords)

    def check(out: str) -> str | None:
        return _expect(out.strip() == str(expected), f"dim {label} {coords}: {out.strip()} != {expected}")

    return check


def _check_branch_call(embedding: str, n: int, match: bool) -> Callable[[str], str | None]:
    """Rows carry the reference dims, sum to the source dim, equal the closed form."""
    labels = ref.SMALL_GROUPS[embedding]
    expected = ref.expected_restriction(embedding, n)
    total = ref.source_dim(embedding, n)

    def check(out: str) -> str | None:
        payload = json.loads(out)
        got = {}
        for weight, mult, dim in payload["result"]:
            key = parse_cli_weight(weight)
            if dim != ref.group_dim(labels, key[0]):
                return f"branch {embedding} n={n}: row {weight} dim {dim}"
            got[key] = mult
        if sum(m * ref.group_dim(labels, k[0]) for k, m in got.items()) != total:
            return f"branch {embedding} n={n}: dimensions do not sum to {total}"
        if got != expected:
            return f"branch {embedding} n={n}: terms differ from the closed form"
        if match and [c["status"] for c in payload["checks"]] != ["MATCH"]:
            return f"branch {embedding} n={n}: closed form vs generic is not MATCH"
        return None

    return check


def _check_minrep_call(values_at, first_level: int, tag: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        payload = json.loads(out)
        values = [v for _, v in payload["result"]]
        want = [values_at(n) for n in range(len(values))]
        return _first_error(
            [
                _expect(values == want, f"minrep series {values} != {want}"),
                _expect(payload["first_level"] == first_level, f"first level {payload['first_level']}"),
                _expect(payload["tag"] == tag, f"tag {payload['tag']} != {tag}"),
            ]
        )

    return check


def _hermJ_total(x: int, y: int, z: int, n: int) -> int:
    """Graded count summed over charges once level n has stabilized."""
    return sum(
        ref.quasisplit_stabilized(x, y, z, m)
        for m in range(-n, n + 1)
        if n >= ref.quasisplit_onset(x, y, z, m)
    )


MINREP_CALLS = (
    CliCall(
        ("minrep", "splitJ-splitE", "--type", "0,0,0,0", "--format", "json"),
        _check_minrep_call(lambda n: ref.split_multiplicity(0, 0, 0, n), 0, "rho1"),
    ),
    # Criterion 6: V_(2,0) x V_0 first appears at level 2 with sign -1, once.
    CliCall(
        ("minrep", "splitJ-mixedE", "--type", "(2,0)x0", "--charge", "0", "--format", "json"),
        _check_minrep_call(lambda n: 1 if n >= 2 else 0, 2, "epsilon"),
    ),
    # Criterion 6: V_(0,0) x V_4 first appears at level 1 with side epsilon.
    CliCall(
        ("minrep", "hermJ-mixedE", "--type", "(0,0)x4", "--format", "json"),
        _check_minrep_call(lambda n: _hermJ_total(0, 0, 4, n), 1, "epsilon"),
    ),
)


def _certify_cli() -> list[CliCall]:
    return [
        CliCall(("dim", "C4", "1,1,1,1"), _check_dim_call("C4", (1, 1, 1, 1))),
        CliCall(("dim", "D5", "1/2,1/2,1/2,1/2,1/2"), _check_dim_call("D5", ("1/2",) * 5)),
        CliCall(
            ("branch", "sp4_to_sp2sp2", "2", "--generic", "--format", "json"),
            _check_branch_call("sp2xsp2_in_sp4", 2, match=True),
        ),
        CliCall(
            ("branch", "sp3_in_su6", "1,1,1,0,0,0", "--format", "json"),
            _check_branch_call("sp3_in_su6", 1, match=False),
        ),
        *MINREP_CALLS,
    ]


# --------------------------------------------------------------------------
# oracle-ladder


def _ladder_ops(ld, size: str) -> list[Op]:
    ops = []
    ladder = [(e, n) for e, top in SIZES[size]["ladder"].items() for n in range(top + 1)]
    for e, n in ladder:
        _, source = ref.SOURCES[e]

        def run(e=e, n=n, source=source):
            emb = ld.branching.embedding(e)
            return ld.branching.restrict_generic(emb, ld.lattice.make_weight(emb.big, source(n)))

        def check(result, e=e, n=n):
            got = terms_of(result.decomposition)
            total = ref.character_dim(ref.SMALL_GROUPS[e], got)
            return _first_error(
                [
                    _expect(total == ref.source_dim(e, n), f"{e} n={n}: dims sum to {total}"),
                    _expect(got == ref.expected_restriction(e, n), f"{e} n={n}: not the closed form"),
                ]
            )

        ops.append(Op(f"restrict_generic {e} n={n}", run, check))
    return ops


def _ladder_cli() -> list[CliCall]:
    calls = []
    for e, (_, source) in ref.SOURCES.items():
        weight = ",".join(str(c) for c in source(1)[0])
        calls.append(
            CliCall(("branch", e, weight, "--format", "json"), _check_branch_call(e, 1, match=False))
        )
    return calls


# --------------------------------------------------------------------------
# graded-series


def _graded_ops(ld, size: str, rng: random.Random) -> list[Op]:
    cfg = SIZES[size]
    minrep, theta, lattice = ld.minrep, ld.theta, ld.lattice
    ops = []
    split_top = cfg["split_family"]

    for case, top in cfg["graded_truncation"].items():

        def check(graded, case=case, top=top):
            labels = ref.GRADED_GROUPS[case]
            for n in range(top + 1):
                terms = terms_of(graded.levels[n])
                if ref.character_dim(labels, terms) != ref.minrep_level_dim(case, n):
                    return f"{case} level {n}: total dimension is not the source level's"
                if case == "splitJ-splitE":
                    for a, b, c in ref.even_triples(min(split_top, 2 * top)):
                        key = (((a,), (b,), (c,), (0,)), ())
                        if terms.get(key, 0) != ref.split_multiplicity(a, b, c, n):
                            return f"splitJ-splitE level {n} type {(a, b, c, 0)}"
            return None

        ops.append(Op(f"dualpair_graded {case} {top}", lambda c=case, t=top: minrep.dualpair_graded(c, t), check))

    # Criteria 3 and 7, split family: series of (a,b,c,0) up to the horizon.
    horizon = cfg["split_horizon"]
    for a, b, c in ref.even_triples(split_top):
        def run(a=a, b=b, c=c):
            g4 = lattice.group("A1", "A1", "A1", "A1")
            series = minrep.multiplicity_series("splitJ-splitE", lattice.make_weight(g4, ((a,), (b,), (c,), (0,))), horizon)
            if not ref.triangle(a, b, c):
                return series, None
            onset = (a + b + c) // 2
            return series, minrep.verify_series(series, expected_onset=onset, expected_bound=1)

        def check(out, a=a, b=b, c=c):
            series, verdict = out
            want = tuple(ref.split_multiplicity(a, b, c, n) for n in range(horizon + 1))
            if series.values != want:
                return f"split series {(a, b, c)} {series.values} != {want}"
            if verdict is not None and not (verdict.accepted and verdict.bound == 1):
                return f"verify_series rejected split {(a, b, c)}: {verdict.reason}"
            return None

        ops.append(Op(f"split series {(a, b, c)}", run, check))

    # Criteria 5 and 7, quasi-split family: stabilized value and onset.
    max_sum, max_charge = cfg["quasisplit_family"]
    for x, y, z in ref.quasisplit_types(max_sum):
        for m in range(max_charge + 1):
            stab = ref.quasisplit_stabilized(x, y, z, m)
            onset = ref.quasisplit_onset(x, y, z, m)

            def run(x=x, y=y, z=z, m=m, stab=stab, onset=onset):
                gp = lattice.group("C2", "A1")
                w = lattice.make_weight(gp, ((x, y), (z,)))
                series = minrep.multiplicity_series("hermJ-mixedE", w, max(onset + 2, 2), m)
                return minrep.verify_series(series, expected_onset=onset, expected_bound=stab)

            def check(verdict, x=x, y=y, z=z, m=m, stab=stab):
                return _expect(
                    verdict.accepted and verdict.bound == stab,
                    f"verify_series rejected quasi-split {(x, y, z, m)}: {verdict.reason}",
                )

            ops.append(Op(f"quasi-split series {(x, y, z, m)}", run, check))

    # Criterion 6 at every covered witness up to the first-level cap.
    first = cfg["sign_first_level"]
    witnesses = [
        ("splitJ-splitE", (a, b, c), ((a,), (b,), (c,), (0,)), ("A1",) * 4)
        for a, b, c in ref.even_triples(2 * first)
        if ref.triangle(a, b, c)
    ]
    witnesses += [("splitJ-mixedE", (k,), ((2 * k, 0), (0,)), ("C2", "A1")) for k in range(first // 2 + 1)]
    witnesses += [("hermJ-mixedE", (k,), ((0, 0), (2 * k,)), ("C2", "A1")) for k in range(1, first + 2)]
    for case, params, parts, labels in witnesses:
        def run(case=case, parts=parts, labels=labels):
            return minrep.sign_first_appearance(case, lattice.make_weight(lattice.group(*labels), parts))

        def check(res, case=case, params=params):
            want = ref.sign_expectation(case, params)
            got = (res.witness_level, res.side)
            return _expect(got == want, f"sign {case} {params}: {got} != {want}")

        ops.append(Op(f"sign {case} {params}", run, check))

    max_sum, max_charge = cfg["ps_compare"]
    expected_checks = sum(1 for _ in ref.quasisplit_types(max_sum)) * (max_charge + 1)
    ops.append(
        Op(
            f"compare_ps_vs_stabilized {max_sum} {max_charge}",
            lambda: theta.compare_ps_vs_stabilized(max_sum, max_charge),
            lambda report: _expect(
                report.ok and len(report.checks) == expected_checks,
                f"compare_ps_vs_stabilized: {report.summary}, expected {expected_checks} checks",
            ),
        )
    )

    # Criterion 4: both infinitesimal-character forms on seeded triples.
    for _ in range(cfg["infchar_triples"]):
        a = Fraction(rng.randint(-60, 60), rng.choice((1, 2, 4)))
        b = Fraction(rng.randint(-60, 60), rng.choice((1, 2, 4)))

        def run(a=a, b=b):
            nu = theta.torus_character(a, b, -a - b)
            return theta.infchar_lift(nu), theta.infchar_symmetric_form(nu)

        ops.append(
            Op(f"infchar {(a, b)}", run, lambda pair, a=a, b=b: _expect(pair[0] == pair[1], f"infchar forms differ at {(a, b)}"))
        )
    return ops


# --------------------------------------------------------------------------
# weights-tensors


def _weights_ops(ld, size: str, rng: random.Random) -> list[Op]:
    cfg = SIZES[size]
    lattice, charalg = ld.lattice, ld.charalg
    ops = []
    for label, top in cfg["freudenthal_grid"].items():
        for hw in dominant_grid(label, top):

            def run(label=label, hw=hw):
                rs = lattice.build_root_system(label)
                return charalg.weight_multiplicities(rs, hw).total(), charalg.freudenthal_total(rs, hw)

            def check(totals, label=label, hw=hw):
                want = ref.weyl_dim(label, hw)
                return _expect(totals == (want, want), f"Freudenthal {label} {hw}: {totals} != {want}")

            ops.append(Op(f"freudenthal {label} {hw}", run, check))

    for label, top in cfg["tensor_grid"].items():
        for hw1, hw2 in itertools.combinations_with_replacement(dominant_grid(label, top), 2):

            def run(label=label, hw1=hw1, hw2=hw2):
                return charalg.tensor_decompose(lattice.build_root_system(label), hw1, hw2)

            def check(char, label=label, hw1=hw1, hw2=hw2):
                total = sum(m * ref.weyl_dim(label, w.parts[0]) for w, m in char.terms)
                want = ref.weyl_dim(label, hw1) * ref.weyl_dim(label, hw2)
                return _first_error(
                    [
                        _expect(all(m > 0 for _, m in char.terms), f"tensor {label} {hw1} {hw2}: non-positive term"),
                        _expect(total == want, f"tensor {label} {hw1} {hw2}: dims {total} != {want}"),
                    ]
                )

            ops.append(Op(f"tensor {label} {hw1} {hw2}", run, check))

    def conjugation(label, vectors):
        rs = lattice.build_root_system(label)
        return [
            (v, lattice.dominant_conjugate(rs, v), lattice.dominant_conjugate_by_reflections(rs, v))
            for v in vectors
        ]

    def check_conjugation(rows):
        for v, closed, walk in rows:
            if closed != walk:
                return f"dominant conjugate of {v}: closed form {closed} != reflections {walk}"
        return None

    for label, top in cfg["conjugation_grid"].items():
        for hw in dominant_grid(label, top):

            def run(label=label, hw=hw):
                diagram = charalg.weight_multiplicities(lattice.build_root_system(label), hw).support
                return conjugation(label, list(diagram))

            ops.append(Op(f"conjugation {label} diagram {hw}", run, check_conjugation))
        vectors = [random_lattice_vector(rng, label) for _ in range(cfg["random_conjugations"])]
        ops.append(Op(f"conjugation {label} random", lambda l=label, v=vectors: conjugation(l, v), check_conjugation))
    return ops


def _weights_cli(size: str, rng: random.Random) -> list[CliCall]:
    calls = []
    for label, top in SIZES[size]["tensor_grid"].items():
        hw = rng.choice(dominant_grid(label, max(top, 1)))
        text = ",".join(str(c) for c in hw)
        calls.append(CliCall(("dim", label, text), _check_dim_call(label, hw)))
    return calls


# --------------------------------------------------------------------------
# Entry points.


def build_ops(workload: str, size: str, seed: int, ld, root: Path) -> list[Op]:
    """Operations of one round; ``ld`` holds the liedual modules by name."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        argv = verify_all_argv(size)
        return [Op("verify all", lambda: ld.run_cli(argv), lambda out: check_verify_all(out, root, argv[2:]))]
    if workload == "oracle-ladder":
        return _ladder_ops(ld, size)
    if workload == "graded-series":
        return _graded_ops(ld, size, rng)
    if workload == "weights-tensors":
        return _weights_ops(ld, size, rng)
    raise KeyError(workload)


def cli_calls(workload: str, size: str, seed: int) -> list[CliCall]:
    """The single CLI calls of one round, each run in a fresh interpreter."""
    rng = random.Random(f"{workload}:cli:{seed}")
    if workload == "certify":
        return _certify_cli()
    if workload == "oracle-ladder":
        return _ladder_cli()
    if workload == "graded-series":
        return list(MINREP_CALLS)
    if workload == "weights-tensors":
        return _weights_cli(size, rng)
    raise KeyError(workload)
