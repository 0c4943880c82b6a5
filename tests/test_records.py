"""The records of ``qmlib``: immutable named tuples with pinned behaviour.

Every record class is a ``collections.namedtuple`` subclass.  Each one is
pinned here on one construction: equal constructions compare equal with
equal hashes (``FamilySpace`` and ``FamilySeq`` compare by identity, as
each space owns its caches), the ``repr`` is the ``Name(field=value, ...)``
text the package has always printed, a field cannot be assigned, and a
``pickle`` round trip gives an equal record.  The constructor checks
raise the same exceptions with the same messages.
"""

import pickle
import sys

import pytest

import qmlib
from qmlib.derived import DerivedFunctions, StepFn
from qmlib.extreal import INF, ONE, ZERO, ExtReal
from qmlib.family import (CandidateRejection, Claim, FamilyClasses, FamilyCompleteness,
                          FamilySeq, FamilySpace)
from qmlib.formal_balls import FormalBall, KwAuditReport, KwLimitResult, RadiusSeq
from qmlib.gallery import Fact, Fixture, GalleryReport
from qmlib.nets import EpSeq, NetClasses, SeqLimits
from qmlib.order import DirectedSequenceReport, EdCompletenessReport, SupremumResult
from qmlib.space import (BallsAndHoles, FiniteSpace, ProvenDistance, SpaceError, Validation,
                         minplus_closure, space_from_rows)
from qmlib.theorems import AuditEntry, AuditReport, DirectedConstruction, audit
from qmlib.topology import CompletenessReport, ConvergenceReport, HoleCharacterizationReport


def _space():
    return space_from_rows(["a", "b"], [["0", "1/2"], ["inf", "0"]])


def _proven():
    return minplus_closure(_space().matrix, _space().labels)


def _step():
    return StepFn(ZERO, (ONE, INF), (ExtReal(1, 2), ZERO))


def _family():
    return FamilySpace("truncated-difference", 4, {"values": "natural"})


def _claim():
    return Claim(True, ("c",))


def _rejection():
    return CandidateRejection("a", "b", "upper_hole", "0", "1")


def _fact():
    return Fact("id", "desc", "x", str)


def _entry():
    return AuditEntry("s", {"h": True}, True, True, {})


# record name -> (construction, repr of that construction)
RECORDS = {
    "Validation": (lambda: Validation(True, True, False, False),
                   "Validation(is_distance=True, is_hemimetric=True, is_symmetric=False, "
                   "is_metric=False, violations=())"),
    "FiniteSpace": (_space, "FiniteSpace(2 points)"),
    "ProvenDistance": (_proven, "ProvenDistance(2 points)"),
    "BallsAndHoles": (lambda: BallsAndHoles(frozenset({"a"}), frozenset(), frozenset({"b"}),
                                            frozenset()),
                      "BallsAndHoles(upper_ball=frozenset({'a'}), lower_ball=frozenset(), "
                      "upper_hole=frozenset({'b'}), lower_hole=frozenset())"),
    "StepFn": (_step, "StepFn(at_zero=ExtReal(0), cuts=(ExtReal(1), ExtReal(inf)), "
                      "values=(ExtReal(1/2), ExtReal(0)))"),
    "DerivedFunctions": (lambda: DerivedFunctions(_step(), _step()),
                         "DerivedFunctions(d_up=StepFn(at_zero=ExtReal(0), cuts=(ExtReal(1), "
                         "ExtReal(inf)), values=(ExtReal(1/2), ExtReal(0))), d_low=StepFn("
                         "at_zero=ExtReal(0), cuts=(ExtReal(1), ExtReal(inf)), values=("
                         "ExtReal(1/2), ExtReal(0))))"),
    "SupremumResult": (lambda: SupremumResult(frozenset({"a"}), frozenset({"a"}),
                                              (frozenset({"a"}),)),
                       "SupremumResult(d_sups=frozenset({'a'}), leq_sups=frozenset({'a'}), "
                       "classes=(frozenset({'a'}),))"),
    "EdCompletenessReport": (lambda: EdCompletenessReport(True),
                             "EdCompletenessReport(complete=True, failing_Y=None, "
                             "subsets_checked=0)"),
    "DirectedSequenceReport": (lambda: DirectedSequenceReport(True, False, (), None),
                               "DirectedSequenceReport(Y_leq_seq=True, seq_in_Y=False, "
                               "biconditional_violations=(), tail_order_equiv=None)"),
    "EpSeq": (lambda: EpSeq((0,), (1, 2)), "EpSeq(pre=(0,), cycle=(1, 2))"),
    "NetClasses": (lambda: NetClasses(True, False, False),
                   "NetClasses(reflexive=True, pre_cauchy=False, cauchy=False)"),
    "SeqLimits": (lambda: SeqLimits(ZERO, None),
                  "SeqLimits(forward=ExtReal(0), backward=None)"),
    "FamilySpace": (_family, "FamilySpace(rule='truncated-difference', cutoff=4, "
                             "params={'values': 'natural'})"),
    "FamilySeq": (lambda: FamilySeq(_family(), "identity"),
                  "FamilySeq(space=FamilySpace(rule='truncated-difference', cutoff=4, "
                  "params={'values': 'natural'}), kind='identity', point=None)"),
    "Claim": (_claim, "Claim(value=True, certificates=('c',), note='')"),
    "FamilyClasses": (lambda: FamilyClasses(_claim(), Claim(False), Claim(None, (), "n")),
                      "FamilyClasses(reflexive=Claim(value=True, certificates=('c',), "
                      "note=''), pre_cauchy=Claim(value=False, certificates=(), note=''), "
                      "cauchy=Claim(value=None, certificates=(), note='n'))"),
    "CandidateRejection": (_rejection,
                           "CandidateRejection(candidate='a', center='b', "
                           "topology='upper_hole', limit='0', required='1')"),
    "FamilyCompleteness": (lambda: FamilyCompleteness(False, "identity", (_rejection(),),
                                                      ("c",)),
                           "FamilyCompleteness(complete=False, seq_kind='identity', "
                           "rejections=(CandidateRejection(candidate='a', center='b', "
                           "topology='upper_hole', limit='0', required='1'),), "
                           "certificates=('c',))"),
    "FormalBall": (lambda: FormalBall(0, ExtReal(1, 2)),
                   "FormalBall(point=0, radius=ExtReal(1/2))"),
    "RadiusSeq": (lambda: RadiusSeq("harmonic", ZERO, ONE),
                  "RadiusSeq(kind='harmonic', value=ExtReal(0), scale=ExtReal(1), cycle=())"),
    "KwLimitResult": (lambda: KwLimitResult({"point": "a", "radius": "0"}, True),
                      "KwLimitResult(limit={'point': 'a', 'radius': '0'}, verified=True, "
                      "undecidable=False, note='')"),
    "KwAuditReport": (lambda: KwAuditReport(True, 1, 1, None, True),
                      "KwAuditReport(base_complete=True, classes=1, classes_verified=1, "
                      "chain_d_low_leq_identity=None, equivalence_confirmed=True)"),
    "Fact": (_fact, "Fact(fact_id='id', description='desc', expected='x', "
                    "actual_fn=<class 'str'>)"),
    "Fixture": (lambda: Fixture("f", 4, _space(), {"s": EpSeq((), (0,))}, (_fact(),)),
                "Fixture(name='f', cutoff=4, space=FiniteSpace(2 points), "
                "sequences={'s': EpSeq(pre=(), cycle=(0,))}, facts=(Fact(fact_id='id', "
                "description='desc', expected='x', actual_fn=<class 'str'>),))"),
    "GalleryReport": (lambda: GalleryReport("f", 4, ({"id": "x", "pass": True},)),
                      "GalleryReport(name='f', cutoff=4, entries=({'id': 'x', 'pass': True},))"),
    "AuditEntry": (_entry, "AuditEntry(statement='s', hypotheses={'h': True}, "
                           "hypotheses_met=True, conclusion_verified=True, witness={})"),
    "AuditReport": (lambda: AuditReport((_entry(),)),
                    "AuditReport(entries=(AuditEntry(statement='s', hypotheses={'h': True}, "
                    "hypotheses_met=True, conclusion_verified=True, witness={}),))"),
    "DirectedConstruction": (lambda: DirectedConstruction(("a",), True, True, False, (ONE,)),
                             "DirectedConstruction(Y=('a',), directed=True, "
                             "forward_match=True, backward_match=False, radii=(ExtReal(1),))"),
    "ConvergenceReport": (lambda: ConvergenceReport("a", True, True, False, True, False, True,
                                                    {"upper_hole": ("b", ONE, ZERO)}),
                          "ConvergenceReport(point='a', upper_ball=True, lower_ball=True, "
                          "upper_hole=False, lower_hole=True, double_hole=False, d_limit=True, "
                          "witnesses={'upper_hole': ('b', ExtReal(1), ExtReal(0))})"),
    "HoleCharacterizationReport": (lambda: HoleCharacterizationReport(2),
                                   "HoleCharacterizationReport(checked_points=2, "
                                   "violations=())"),
    "CompletenessReport": (lambda: CompletenessReport(True, None, 1),
                           "CompletenessReport(complete=True, witness=None, "
                           "cliques_checked=1)"),
}
IDENTITY_EQUAL = {"FamilySpace", "FamilySeq"}
# records holding a dict are unhashable, as their dict is
UNHASHABLE = {"KwLimitResult", "Fixture", "GalleryReport", "AuditEntry", "AuditReport",
              "ConvergenceReport"}


def test_every_record_class_is_pinned():
    found = {name for mod in list(sys.modules.values())
             if getattr(mod, "__name__", "").startswith("qmlib.")
             for name, obj in vars(mod).items()
             if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
             and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaviour_is_pinned(name):
    make, text = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert isinstance(a, tuple) and type(a)._fields
    assert repr(a) == text
    if name in IDENTITY_EQUAL:
        assert a == a and a != b and not a != a
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and not a != b
        if name not in UNHASHABLE:
            assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, type(a)._fields[0], None)
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is type(a)
    if name in IDENTITY_EQUAL:
        assert repr(back) == text
    else:
        assert back == a


def test_slots_only_where_no_cache_is_kept():
    for name, (make, _) in RECORDS.items():
        has_dict = hasattr(make(), "__dict__")
        assert has_dict == (name in {"FiniteSpace", "ProvenDistance", "FamilySpace"}), name


def test_finite_space_pickles_with_its_caches():
    space = _space()
    space.validation, space.zero_up, space.scaled   # fill the three caches
    back = pickle.loads(pickle.dumps(space))
    assert back == space and hash(back) == hash(space)
    for key in ("validation", "zero_up", "scaled"):
        assert back.__dict__[key] == space.__dict__[key]
    assert back.validation.is_distance


def test_proven_distance_pickles_with_its_type_and_caches():
    space = _proven()
    back = pickle.loads(pickle.dumps(space))
    assert type(back) is ProvenDistance and vars(back) == {}
    space.validation, space.scaled   # fill two caches
    back = pickle.loads(pickle.dumps(space))
    assert type(back) is ProvenDistance and back == space
    assert vars(back) == vars(space)
    assert back.validation.is_distance


def test_a_replaced_matrix_loses_the_proof():
    # the 3-point non-distance of test_nonvalidated_space_rejected, put in
    # the place of its own closure's matrix
    bad = space_from_rows(["a", "b", "c"],
                          [["0", "5", "1"], ["1", "0", "inf"], ["inf", "1", "0"]])
    proven = minplus_closure(bad.matrix, bad.labels)
    for space in (proven._replace(matrix=bad.matrix), ProvenDistance._make(bad)):
        assert type(space) is FiniteSpace and space == bad
        assert not space.validation.is_distance
        with pytest.raises(qmlib.PreconditionError):
            audit(space)
    with pytest.raises(SpaceError, match="matrix shape does not match label count"):
        FiniteSpace._make((("a", "b"), ((ZERO, ONE),)))


def test_record_default_dicts_are_fresh():
    assert FamilySpace("truncated-difference", 4).params == {}
    assert FamilySpace("truncated-difference", 4).params is not \
        FamilySpace("truncated-difference", 4).params


@pytest.mark.parametrize("make, error, message", [
    (lambda: FiniteSpace(("a", "a"), ((ZERO, ONE), (ONE, ZERO))), SpaceError,
     "duplicate point labels"),
    (lambda: FiniteSpace(("a", "b"), ((ZERO, ONE),)), SpaceError,
     "matrix shape does not match label count"),
    (lambda: FiniteSpace(("a", "b"), ((ZERO, ONE), (ONE,))), SpaceError,
     "matrix shape does not match label count"),
    (lambda: StepFn(ZERO, (ONE, INF), (ZERO,)), ValueError,
     "cuts and values must align and be nonempty"),
    (lambda: StepFn(ZERO, (), ()), ValueError, "cuts and values must align and be nonempty"),
    (lambda: StepFn(ZERO, (ONE,), (ZERO,)), ValueError, "last cut must be inf"),
    (lambda: StepFn(ZERO, (ONE, ONE, INF), (ZERO, ZERO, ZERO)), ValueError,
     "cuts must be strictly ascending"),
    (lambda: EpSeq((0,), ()), SpaceError, "cycle must be nonempty"),
    (lambda: FormalBall(0, INF), SpaceError,
     "formal-ball radius ExtReal(inf) is not a finite ExtReal"),
    (lambda: FormalBall(0, 1), SpaceError, "formal-ball radius 1 is not a finite ExtReal"),
    (lambda: RadiusSeq("constant", INF), SpaceError,
     "constant radius field ExtReal(inf) is not a finite ExtReal"),
    (lambda: RadiusSeq("periodic", ZERO, ONE, (ONE, INF)), SpaceError,
     "periodic radius field ExtReal(inf) is not a finite ExtReal"),
    (lambda: RadiusSeq("linear"), SpaceError, "unknown radius kind 'linear'"),
    (lambda: RadiusSeq("periodic"), SpaceError, "periodic radii need a cycle"),
    (lambda: RadiusSeq("harmonic", ONE, ZERO), SpaceError,
     "harmonic radii need a positive scale"),
    (lambda: FamilySpace("nope", 8), SpaceError, "unknown family rule 'nope'"),
    (lambda: FamilySpace("truncated-difference", 3), SpaceError,
     "cutoff must be at least 4"),
    (lambda: FamilySpace("truncated-difference", 8, None), SpaceError,
     "'params' must be a JSON object"),
    (lambda: FamilySpace("truncated-difference", 300), qmlib.PreconditionError,
     "cutoff 300 exceeds the ceiling 256"),
    (lambda: FamilySpace("truncated-difference", 6, {"extras": {"1/2": "2"}}), SpaceError,
     "extra point '1/2' has the label of indexed point 1"),
    (lambda: FamilySeq(_family(), "reverse"), SpaceError, "unknown sequence kind 'reverse'"),
    (lambda: FamilySeq(_family(), "constant"), SpaceError, "constant sequences need a point"),
], ids=["duplicate-labels", "short-matrix", "ragged-matrix", "steps-misaligned", "steps-empty",
        "steps-last-cut-finite", "steps-not-ascending", "empty-cycle", "infinite-radius",
        "int-radius", "infinite-radius-field", "infinite-radius-cycle", "unknown-radius-kind",
        "periodic-without-cycle", "harmonic-zero-scale", "unknown-rule", "cutoff-below-4",
        "params-none", "cutoff-above-the-ceiling", "extra-takes-a-label", "unknown-seq-kind",
        "constant-without-point"])
def test_constructor_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
