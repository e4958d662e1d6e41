"""The record contract: every record type of the package is immutable,
compares and hashes by its fields, pickles to an equal object, and keeps
its field names, order, defaults and repr."""

import inspect
import pickle
from fractions import Fraction as Q

import pytest

from liedual import branching, charalg, minrep, rules, theta
from liedual.lattice import GroupSpec, RootSystem, Weight, build_root_system, group, make_weight


def _c2a1u1_weight():
    return make_weight(group("C2", "A1", circles=1), ((1, 0), (1,)), (Q(1, 2),))


def _ktype():
    return make_weight(minrep.TYPE_GROUPS["splitJ-splitE"], ((2,), (2,), (2,), (0,)))


def _series():
    return minrep.multiplicity_series("splitJ-splitE", _ktype(), 4)


# One sample per record type, as its producer in the package builds it.
SAMPLES = {
    RootSystem: lambda: build_root_system("C2"),
    GroupSpec: lambda: group("C2", "A1", circles=1),
    Weight: _c2a1u1_weight,
    charalg.WeightFunction: lambda: charalg.weight_multiplicities(
        build_root_system("A1"), (Q(2),)
    ),
    charalg.FormalCharacter: lambda: rules.branch_sp2_to_su2su2(2, 1),
    charalg.InfChar: lambda: charalg.infinitesimal_character(
        build_root_system("D4"), (Q(1), Q(0), Q(0), Q(0))
    ),
    branching.EmbeddingMap: lambda: branching.CATALOG["sp2su2u1_in_su6"],
    branching.BranchResult: lambda: branching.restrict_generic(
        branching.CATALOG["su2su2_in_sp2"], make_weight(group("C2"), ((1, 1),))
    ),
    rules.SignedCharacter: lambda: rules.branch_su6_omega3_to_sp3(2),
    rules.Check: lambda: rules.Check("name", "PASS", "1", "1"),
    rules.Report: lambda: rules.verify_rule("sp2_to_su2su2", 1),
    rules.Rule: lambda: rules.Rule(
        "sp4_to_sp2sp2",
        embedding="sp2xsp2_in_sp4",
        params=("n",),
        source=rules.sp4_omega4_weight,
        closed=rules.branch_sp4_to_sp2sp2,
        grid=rules._levels,
        default_level=4,
    ),
    minrep.GradedCharacter: lambda: minrep.dualpair_graded("splitJ-splitE", 2),
    minrep.MultiplicitySeries: _series,
    minrep.SeriesCheck: lambda: minrep.verify_series(_series()),
    minrep.SignAssignment: lambda: minrep.sign_first_appearance("splitJ-splitE", _ktype()),
    theta.TorusCharacterData: lambda: theta.torus_character(1, -1, 0, "R3-C"),
}

# Each type's constructor parameters with their defaults, as they were
# when the records were frozen dataclasses.
_REQUIRED = inspect.Parameter.empty
SIGNATURES = {
    RootSystem: [
        ("label", _REQUIRED), ("series", _REQUIRED), ("rank", _REQUIRED),
        ("ambient_dim", _REQUIRED), ("simple_roots", _REQUIRED),
        ("positive_roots", _REQUIRED), ("weyl_vector", _REQUIRED),
    ],
    GroupSpec: [("factors", _REQUIRED), ("circles", 0)],
    Weight: [("parts", _REQUIRED), ("charges", ())],
    charalg.WeightFunction: [("rs", _REQUIRED), ("support", _REQUIRED)],
    charalg.FormalCharacter: [("group", _REQUIRED), ("terms", _REQUIRED)],
    charalg.InfChar: [("label", _REQUIRED), ("rep", _REQUIRED)],
    branching.EmbeddingMap: [
        ("name", _REQUIRED), ("big", _REQUIRED), ("small", _REQUIRED),
        ("factor_rows", _REQUIRED), ("charge_rows", _REQUIRED),
    ],
    branching.BranchResult: [
        ("source", _REQUIRED), ("embedding_name", _REQUIRED), ("decomposition", _REQUIRED),
        ("source_weights", _REQUIRED), ("nodes", _REQUIRED), ("leaves", _REQUIRED),
        ("folded_terms", _REQUIRED), ("subtractions", _REQUIRED),
    ],
    rules.SignedCharacter: [("character", _REQUIRED), ("signs", _REQUIRED)],
    rules.Check: [
        ("name", _REQUIRED), ("status", _REQUIRED), ("expected", _REQUIRED), ("actual", _REQUIRED),
    ],
    rules.Report: [("title", _REQUIRED), ("checks", _REQUIRED)],
    rules.Rule: [
        ("rule_id", _REQUIRED), ("embedding", _REQUIRED), ("params", _REQUIRED),
        ("source", _REQUIRED), ("closed", _REQUIRED), ("grid", _REQUIRED),
        ("default_level", _REQUIRED), ("charged", False), ("half_integral", False),
    ],
    minrep.GradedCharacter: [("case", _REQUIRED), ("group", _REQUIRED), ("levels", _REQUIRED)],
    minrep.MultiplicitySeries: [
        ("case", _REQUIRED), ("ktype", _REQUIRED), ("charge", _REQUIRED), ("values", _REQUIRED),
        ("stabilized_value", None), ("stabilized_kind", None),
    ],
    minrep.SeriesCheck: [
        ("accepted", _REQUIRED), ("kind", _REQUIRED), ("bound", _REQUIRED),
        ("onset", _REQUIRED), ("reason", _REQUIRED),
    ],
    minrep.SignAssignment: [("witness_level", _REQUIRED), ("sign", _REQUIRED)],
    theta.TorusCharacterData: [("nu", _REQUIRED), ("case", None)],
}

# A field that holds a dict: its record is compared but not hashed.
UNHASHABLE = {charalg.WeightFunction, rules.SignedCharacter, minrep.GradedCharacter}

TYPES = list(SAMPLES)


def _fields(record_type):
    return [name for name, _ in SIGNATURES[record_type]]


def test_every_record_type_is_covered():
    assert len(TYPES) == 17 and set(SIGNATURES) == set(TYPES)


@pytest.mark.parametrize("record_type", TYPES, ids=lambda t: t.__name__)
def test_fields_order_and_defaults(record_type):
    params = inspect.signature(record_type).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[record_type]


@pytest.mark.parametrize("record_type", TYPES, ids=lambda t: t.__name__)
def test_setting_or_deleting_an_attribute_raises(record_type):
    record = SAMPLES[record_type]()
    assert type(record) is record_type
    for name in _fields(record_type):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record_type", TYPES, ids=lambda t: t.__name__)
def test_equal_fields_make_equal_records(record_type):
    a = SAMPLES[record_type]()
    b = record_type(**{name: getattr(a, name) for name in _fields(record_type)})
    assert a is not b and a == b and not a != b
    if record_type not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record_type", TYPES, ids=lambda t: t.__name__)
def test_pickle_round_trips(record_type):
    record = SAMPLES[record_type]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is record_type and copy == record
    assert repr(copy) == repr(record)


def test_weight_multiplicities_record_pickles():
    # Its support was once a read-only proxy, which pickle refuses.
    record = charalg.weight_multiplicities(build_root_system("C2"), (Q(1), Q(1)))
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy.support == {
        (Q(1), Q(1)): 1, (Q(1), Q(-1)): 1, (Q(-1), Q(1)): 1, (Q(-1), Q(-1)): 1, (Q(0), Q(0)): 1
    }


def test_derived_values_are_rebuilt_by_pickle():
    gs = pickle.loads(pickle.dumps(group("C2", "A1", circles=1)))
    assert (gs.slices, gs.width) == ((slice(0, 2), slice(2, 3)), 3)
    e = pickle.loads(pickle.dumps(branching.CATALOG["sp2su2u1_in_su6"]))
    assert e.charge_denominator == 3
    assert e._apply((2, 2, 2, 0, 0, 0)) == (2, 0, 0, 2)


def test_reprs_keep_the_dataclass_format():
    assert repr(build_root_system("C2")) == "RootSystem(C2)"
    assert repr(group("C2", "A1", circles=1)) == "GroupSpec(C2xA1+U1)"
    assert repr(_c2a1u1_weight()) == (
        "Weight(parts=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1),)), "
        "charges=(Fraction(1, 2),))"
    )
    assert repr(rules.branch_sp2_to_su2su2(0, 0)) == (
        "FormalCharacter(group=GroupSpec(A1xA1), "
        "terms=((Weight(parts=((Fraction(0, 1),), (Fraction(0, 1),)), charges=()), 1),))"
    )
    assert repr(branching.CATALOG["su2su2_in_sp2"]) == (
        "EmbeddingMap(name='su2su2_in_sp2', big=GroupSpec(C2), small=GroupSpec(A1xA1), "
        "factor_rows=(((Fraction(1, 1), Fraction(0, 1)),), ((Fraction(0, 1), Fraction(1, 1)),)), "
        "charge_rows=())"
    )
    assert repr(theta.torus_character(1, -1, 0)) == (
        "TorusCharacterData(nu=(Fraction(1, 1), Fraction(-1, 1), Fraction(0, 1)), case=None)"
    )
