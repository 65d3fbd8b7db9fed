"""The report records and their strict JSON codec: records are frozen
values with the constructor, equality, hash and repr of their fields, and
every report class reads back exactly what it writes, and anything else
raises ValueError naming the key."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minertia.bounds import (
    Assumptions,
    BoundEntry,
    BoundReport,
    K2GapRecord,
    PencilData,
    SurfaceIdentities,
    SurfaceRecord,
    best_bound,
    catalog,
    k2_less_than_8chi,
    surface_identities,
)
from minertia.degree import DegreeRecord, parity_record
from minertia.exactnum import GaussianRational
from minertia.hermitian_core import HermitianMatrix, Inertia
from minertia.search import (
    GrowReport,
    GrowStep,
    SearchConfig,
    SearchReport,
    SubspaceBasis,
    Witness,
    random_subspace,
    run_search,
)
from minertia.strata import ConeClassification, ConeLabel, classify_cone

_SEARCH = run_search(random_subspace(3, 3, 1), SearchConfig(seed=1, samples=20))
_BASIS = random_subspace(2, 2, 1)
_SAMPLES = SearchConfig(seed=0).samples  # the default budget
_STEPS = (GrowStep(0, 3, True, 2), GrowStep(1, 8, False, 8))
_REPORT = best_bound(Assumptions(q=5, pencil=PencilData(b=2, fiber_component_counts=(3, 2))))

# one valid document per class that reads JSON
VALID = {
    GaussianRational: GaussianRational(Fraction(-5, 3), 2).to_json(),
    HermitianMatrix: HermitianMatrix([[1, (1, 2)], [(1, -2), Fraction(-1, 3)]]).to_json(),
    Inertia: Inertia(1, 2, 0).to_json(),
    ConeClassification: classify_cone(HermitianMatrix.diagonal([2, 1, 1, 1, 0])).to_json(),
    DegreeRecord: parity_record(5).to_json(),
    PencilData: {"b": 2, "fiber_component_counts": [3, 2]},
    Assumptions: Assumptions(q=5, p_g=3, pencil=PencilData(b=1, fiber_component_counts=(2,))).to_json(),
    BoundEntry: _REPORT.bounds[0].to_json(),
    BoundReport: _REPORT.to_json(),
    SurfaceRecord: catalog()[0].to_json(),
    SubspaceBasis: _BASIS.to_json(),
    Witness: _SEARCH.witness.to_json(),
    SearchReport: _SEARCH.to_json(),
    GrowStep: _STEPS[0].to_json(),
    GrowReport: GrowReport(2, 3, 2, 1, _BASIS, _STEPS).to_json(),
}

RECORDS = [
    Inertia, ConeClassification, DegreeRecord, PencilData, Assumptions, BoundEntry,
    BoundReport, SurfaceRecord, Witness, SearchReport, GrowStep, GrowReport,
]


def _with(cls, **changes):
    return {**VALID[cls], **changes}


_ENTRY = BoundEntry("general_type", 13, True, "3q - 2, unconditional for general type")
_WITNESS = Witness(
    (Fraction(1), Fraction(-1, 2)), HermitianMatrix.diagonal([1, Fraction(-1, 2)]), Inertia(1, 1, 0)
)
_GROW = GrowReport(2, 3, 1, 1, random_subspace(2, 1, 1), _STEPS[:1])

# one instance of every record, with the repr a frozen dataclass gave it
REPRS = [
    (Inertia(1, 4, 0), "Inertia(n_plus=1, n_minus=4, n_zero=0)"),
    (ConeClassification(ConeLabel.C1, Fraction(3, 7)),
     "ConeClassification(label=<ConeLabel.C1: 'C1'>, apex_shift=Fraction(3, 7))"),
    (ConeClassification(ConeLabel.NOT_IN_C2, None),
     "ConeClassification(label=<ConeLabel.NOT_IN_C2: 'NotInC2'>, apex_shift=None)"),
    (parity_record(5), "DegreeRecord(q=5, degree=175, v2=0, is_odd=True, q_is_2k_plus_1=True, k=2)"),
    (parity_record(6),
     "DegreeRecord(q=6, degree=1764, v2=2, is_odd=False, q_is_2k_plus_1=False, k=None)"),
    (PencilData(2, (3, 2)), "PencilData(b=2, fiber_component_counts=(3, 2))"),
    (Assumptions(q=5, p_g=3, pencil=PencilData(b=1)),
     "Assumptions(q=5, p_g=3, no_irregular_pencils_genus_ge2=False, "
     "pencil=PencilData(b=1, fiber_component_counts=()), minimal_surface=False)"),
    (_ENTRY, "BoundEntry(name='general_type', value=13, applicable=True, "
     "note='3q - 2, unconditional for general type')"),
    (BoundReport(5, Assumptions(q=5), (_ENTRY,), 13, ("general_type",)),
     "BoundReport(q=5, assumptions=Assumptions(q=5, p_g=None, no_irregular_pencils_genus_ge2=False, "
     "pencil=None, minimal_surface=False), bounds=(BoundEntry(name='general_type', value=13, "
     "applicable=True, note='3q - 2, unconditional for general type'),), best=13, "
     "best_names=('general_type',))"),
    (surface_identities(5, 10, 25), "SurfaceIdentities(chi=6, c2=27, K2=45)"),
    (k2_less_than_8chi(9), "K2GapRecord(q=9, chi=7, K2_upper=55, eight_chi=56, strict=True)"),
    (catalog()[0],
     "SurfaceRecord(name='symmetric square of a genus-3 curve', q=3, p_g=3, h11=10, "
     "no_irregular_pencils=True, note='smallest known h11 for q=3; the sharp lower bound 9 "
     "is unrealized')"),
    (SearchConfig(seed=1), f"SearchConfig(seed=1, samples={_SAMPLES}, workers=1)"),
    (_WITNESS, "Witness(coefficients=(Fraction(1, 1), Fraction(-1, 2)), "
     "element=HermitianMatrix(q=2), inertia=Inertia(n_plus=1, n_minus=1, n_zero=0))"),
    (SearchReport(5, 9, 1, None, 128, {2: 120, 3: 8}, 1, "numpy", 0),
     "SearchReport(q=5, dim=9, seed=1, witness=None, samples_used=128, "
     "histogram={2: 120, 3: 8}, workers=1, backend='numpy', escalations=0)"),
    (_STEPS[0], "GrowStep(target_slot=0, attempts=3, accepted=True, rejected_with_witness=2)"),
    (_GROW, f"GrowReport(q=2, target_dim=3, achieved_dim=1, seed=1, basis={_GROW.basis!r}, "
     "steps=(GrowStep(target_slot=0, attempts=3, accepted=True, rejected_with_witness=2),))"),
]


class TestRecords:
    @pytest.mark.parametrize("rec,text", REPRS, ids=[type(rec).__name__ for rec, _ in REPRS])
    def test_repr_is_the_dataclass_text(self, rec, text):
        assert repr(rec) == text

    def test_every_record_class_has_a_repr_case(self):
        classes = {type(rec) for rec, _ in REPRS}
        assert set(RECORDS) | {SurfaceIdentities, K2GapRecord, SearchConfig} == classes

    def test_positional_keyword_and_default_arguments(self):
        assert Assumptions(q=5) == Assumptions(5, None, False, None, False)
        assert PencilData(2) == PencilData(b=2, fiber_component_counts=())
        assert SearchConfig(3, workers=2) == SearchConfig(workers=2, seed=3, samples=_SAMPLES)
        assert Inertia(n_zero=0, n_plus=1, n_minus=4) == Inertia(1, 4, 0)
        assert Inertia(1, n_zero=0, n_minus=4) == Inertia(1, 4, 0)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Inertia(1, 2), "missing required arguments: 'n_zero'"),
            (lambda: SearchConfig(), "missing required arguments: 'seed'"),
            (lambda: GrowStep(accepted=True), "'target_slot', 'attempts', 'rejected_with_witness'"),
            (lambda: Inertia(1, 2, n_zeros=0), "unexpected keyword argument 'n_zeros'"),
            (lambda: Inertia(1, 2, 3, n_plus=1), "multiple values for argument 'n_plus'"),
            (lambda: Inertia(1, 2, 3, 4), "takes 3 arguments but 4 were given"),
        ],
    )
    def test_missing_or_unknown_argument_raises_type_error(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    def test_post_init_still_validates(self):
        with pytest.raises(ValueError, match="negative count"):
            Inertia(1, n_minus=-2, n_zero=0)
        with pytest.raises(ValueError, match="base genus"):
            PencilData(b=0)
        with pytest.raises(ValueError, match="samples"):
            SearchConfig(1, 0)
        with pytest.raises(ValueError, match="must be a tuple"):
            PencilData(2, [3, 2])

    @pytest.mark.parametrize("rec", [rec for rec, _ in REPRS], ids=lambda r: type(r).__name__)
    def test_frozen_against_set_and_delete(self, rec):
        name = next(iter(vars(rec)))  # the first field
        before = repr(rec)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError, match="cannot assign"):
            rec.not_a_field = 0
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
        assert repr(rec) == before

    def test_equality_and_hash_within_a_class(self):
        a, b = Inertia(1, 2, 3), Inertia(n_plus=1, n_minus=2, n_zero=3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Inertia(1, 2, 4) and not a == Inertia(2, 1, 3)
        assert a.negated() == Inertia(2, 1, 3)
        assert PencilData(2, (3,)) == PencilData(b=2, fiber_component_counts=(3,))
        assert hash(PencilData(2, (3,))) == hash(PencilData(b=2, fiber_component_counts=(3,)))
        assert PencilData(2, (3,)) != PencilData(2, (3, 1))

    def test_no_equality_across_classes(self):
        # the same field values in another record class, or a tuple
        a, other = Inertia(6, 27, 45), surface_identities(5, 10, 25)
        assert (other.chi, other.c2, other.K2) == (6, 27, 45)
        assert a != other and not a == other and other != a
        assert a != (6, 27, 45) and Inertia(1, 2, 0) != {"n_plus": 1, "n_minus": 2, "n_zero": 0}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda c: c.__name__)
    def test_reads_back_to_the_same_document(self, cls):
        doc = json.loads(json.dumps(VALID[cls]))
        assert cls.from_json(doc).to_json() == doc

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_methods_sit_on_the_class_itself(self, cls):
        # perfbench's tracer patches cls.__dict__[attr]
        assert callable(cls.__dict__["to_json"])
        assert isinstance(cls.__dict__["from_json"], classmethod)

    def test_absent_optional_keys_take_field_defaults(self):
        assert Assumptions.from_json({"q": 5}) == Assumptions(q=5)
        assert PencilData.from_json({"b": 2}) == PencilData(b=2)

    def test_unknown_keys_are_ignored(self):
        assert Inertia.from_json({**VALID[Inertia], "extra": [1]}) == Inertia(1, 2, 0)


class TestRejectsCoercion:
    @pytest.mark.parametrize("bad", [1.5, "1", True])
    def test_inertia_counts(self, bad):
        with pytest.raises(ValueError, match="'n_plus'"):
            Inertia.from_json({"n_plus": bad, "n_minus": 1, "n_zero": 1})

    def test_grow_report_certified_string(self):
        with pytest.raises(ValueError, match="'certified'"):
            GrowReport.from_json(_with(GrowReport, certified="no"))

    def test_grow_step_accepted_integer(self):
        with pytest.raises(ValueError, match="'accepted'"):
            GrowStep.from_json(_with(GrowStep, accepted=1))

    def test_search_report_list_histogram(self):
        with pytest.raises(ValueError, match="'histogram'"):
            SearchReport.from_json(_with(SearchReport, histogram=[[1, 20]]))

    @pytest.mark.parametrize("key", ["-0", "00", "01", "+1", " 1", "1.0", "1e0", "", "-"])
    def test_search_report_histogram_key_other_than_one_integer_spelling(self, key):
        # "-0" read as 0 would let {"0": 1, "-0": 7} come back as {0: 7}
        message = f"'histogram' keys must be decimal integers, got {key!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SearchReport.from_json(_with(SearchReport, histogram={"0": 1, key: 7}))

    def test_search_report_histogram_keys_read_back(self):
        # keys up to floor(q / 2) = 10 at q = 21, one of them two digits long
        doc = _with(SearchReport, q=21, witness=None, histogram={"0": 2, "7": 1, "10": 3})
        assert SearchReport.from_json(doc).histogram == {0: 2, 7: 1, 10: 3}

    @pytest.mark.parametrize("key,bad", [("q", 5.7), ("is_odd", "false")])
    def test_degree_record(self, key, bad):
        with pytest.raises(ValueError, match=f"'{key}'"):
            DegreeRecord.from_json(_with(DegreeRecord, **{key: bad}))

    @pytest.mark.parametrize(
        "key,bad", [("q", "5"), ("no_irregular_pencils_genus_ge2", "false"), ("minimal_surface", "no")]
    )
    def test_assumptions(self, key, bad):
        with pytest.raises(ValueError, match=f"'{key}'"):
            Assumptions.from_json(_with(Assumptions, **{key: bad}))

    def test_surface_record_name(self):
        with pytest.raises(ValueError, match="'name'"):
            SurfaceRecord.from_json(_with(SurfaceRecord, name=3))

    def test_assumptions_from_null(self):
        with pytest.raises(ValueError, match="Assumptions"):
            Assumptions.from_json(None)

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match="'n_zero'"):
            Inertia.from_json({"n_plus": 1, "n_minus": 1})


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["1", "-2/3", "0", "1/0", "C1", "numpy"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(["q", "re", "im", "1"]), children, max_size=4),
    max_leaves=12,
)


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict) and doc:
        return [p for k, v in doc.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(doc, list) and doc:
        return [p for k, v in enumerate(doc) for p in _leaf_paths(v, path + (k,))]
    return [path]


def _replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replaced(doc[head], rest, value)}
    return [_replaced(v, rest, value) if k == head else v for k, v in enumerate(doc)]


def _reads_or_raises_value_error(cls, doc):
    try:
        cls.from_json(doc)
    except ValueError:
        pass


class TestAnyJsonReadsOrRaisesValueError:
    @settings(max_examples=400, deadline=None)
    @given(cls=st.sampled_from(list(VALID)), value=_JSON)
    def test_arbitrary_document(self, cls, value):
        _reads_or_raises_value_error(cls, value)

    @settings(max_examples=600, deadline=None)
    @given(cls=st.sampled_from(list(VALID)), data=st.data(), value=_JSON)
    def test_one_leaf_mutation(self, cls, data, value):
        path = data.draw(st.sampled_from(_leaf_paths(VALID[cls])))
        _reads_or_raises_value_error(cls, _replaced(VALID[cls], path, value))


class TestRejectsInconsistentValues:
    """The readers vet values as well as types; at the parent all of these read.
    Inertia and GrowReport vet in their constructors, a Witness on load only."""

    def test_negative_inertia_count(self):
        with pytest.raises(ValueError, match="negative count"):
            Inertia.from_json({"n_plus": -4, "n_minus": 1, "n_zero": 0})
        with pytest.raises(ValueError, match="negative count"):
            Inertia(-1, 0, 0)

    def test_grow_report_constructor_vets_too(self):
        with pytest.raises(ValueError, match="'achieved_dim' 1"):
            GrowReport(2, 3, 1, 1, _BASIS, ())
        # 'certified' and 'warning' are derived: no argument sets them
        with pytest.raises(TypeError, match="unexpected keyword argument 'certified'"):
            GrowReport(2, 3, 2, 1, _BASIS, (), certified=True)

    def test_grow_report_dimension_must_be_the_basis_dimension(self):
        with pytest.raises(ValueError, match="'achieved_dim' 7"):
            GrowReport.from_json(_with(GrowReport, achieved_dim=7, basis=[]))

    def test_grow_report_is_never_certified(self):
        with pytest.raises(ValueError, match="'certified' is True, not False"):
            GrowReport.from_json(_with(GrowReport, certified=True))

    def test_witness_inertia_must_be_its_elements(self):
        wrong = Inertia(0, 3, 0).to_json()
        with pytest.raises(ValueError, match="Witness JSON is inconsistent"):
            Witness.from_json(_with(Witness, inertia=wrong))
        report = _with(SearchReport, witness=_with(Witness, inertia=wrong))
        with pytest.raises(ValueError, match="Witness JSON is inconsistent"):
            SearchReport.from_json(report)

    def test_witness_element_must_have_minimal_inertia_at_most_1(self):
        element = HermitianMatrix.diagonal([1, 1, -1, -1])
        doc = _with(Witness, element=element.to_json(), inertia=Inertia(2, 2, 0).to_json())
        with pytest.raises(ValueError, match="m <= 1"):
            Witness.from_json(doc)


    # each edit of a q = 3, dim 3 report with a witness; every one read back at the parent
    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"q": -2}, r"q = -2 and dim = 3 need q >= 1"),
            ({"q": 0, "witness": None}, r"q = 0 and dim = 3 need q >= 1"),
            ({"dim": 10, "witness": None}, r"q = 3 and dim = 10 need .* 0 <= dim <= q\^2"),
            ({"dim": -1, "witness": None}, r"q = 3 and dim = -1 need .* 0 <= dim <= q\^2"),
            ({"q": 4}, r"its witness needs a 4 x 4 element and 3 coefficients"),
            ({"dim": 7}, r"its witness needs a 3 x 3 element and 7 coefficients"),
            ({"workers": 0}, r"'workers' and 'samples_used' must be >= 1"),
            ({"samples_used": -5}, r"'workers' and 'samples_used' must be >= 1"),
            ({"samples_used": 0}, r"'workers' and 'samples_used' must be >= 1"),
            ({"escalations": -1}, r"'workers' .* >= 1 and 'escalations' >= 0"),
            ({"histogram": {"0": 4, "5": 1}}, r"'histogram' needs keys in \[0, 1\]"),
            ({"histogram": {"-1": 1}}, r"'histogram' needs keys in \[0, 1\]"),
            ({"histogram": {"0": 0}}, r"'histogram' needs .* counts >= 1"),
            ({"histogram": {"1": -3}}, r"'histogram' needs .* counts >= 1"),
        ],
    )
    def test_search_report_must_agree_with_itself(self, changes, message):
        assert VALID[SearchReport]["q"] == 3 and VALID[SearchReport]["dim"] == 3
        with pytest.raises(ValueError, match=f"^SearchReport JSON is inconsistent: {message}"):
            SearchReport.from_json(_with(SearchReport, **changes))


_WARNED = GrowReport(5, 9, 1, 1, random_subspace(5, 1, 1), _STEPS[:1])


class TestDerivedKeysAreCheckedOnRead:
    """A derived key must be present and hold what the fields derive, in
    JSON type and in value."""

    _INERTIA = {"n_plus": 1, "n_minus": 2, "n_zero": 0, "m": 1, "rank": 3}

    @pytest.mark.parametrize("key", ["m", "rank"])
    def test_missing_derived_key_is_named(self, key):
        doc = {k: v for k, v in self._INERTIA.items() if k != key}
        with pytest.raises(ValueError, match=f"Inertia JSON lacks the key '{key}'"):
            Inertia.from_json(doc)

    @pytest.mark.parametrize(
        "key,bad", [("m", 7), ("m", True), ("m", 1.0), ("m", None), ("rank", "x"), ("rank", "3")]
    )
    def test_wrong_derived_value_is_named(self, key, bad):
        assert Inertia.from_json(self._INERTIA) == Inertia(1, 2, 0)
        with pytest.raises(ValueError, match=f"Inertia '{key}' is {bad!r}, not "):
            Inertia.from_json({**self._INERTIA, key: bad})

    def test_the_first_wrong_derived_key_is_named(self):
        with pytest.raises(ValueError, match="Inertia 'm' is 7, not 1"):
            Inertia.from_json({"n_plus": 1, "n_minus": 2, "n_zero": 0, "m": 7, "rank": "x"})

    def test_inside_a_search_reports_witness(self):
        inertia = {**VALID[Witness]["inertia"]}
        inertia["rank"] += 1
        with pytest.raises(ValueError, match="Inertia 'rank' is"):
            SearchReport.from_json(_with(SearchReport, witness=_with(Witness, inertia=inertia)))

    def test_grow_report_warning_is_the_one_its_q_and_target_give(self):
        doc = _WARNED.to_json()
        assert doc["warning"].startswith("target 9 exceeds the dimension limit 8 for q=5")
        assert GrowReport.from_json(doc).to_json() == doc
        for bad in (None, doc["warning"] + ".", "a warning"):
            with pytest.raises(ValueError, match="GrowReport 'warning' is"):
                GrowReport.from_json({**doc, "warning": bad})
        with pytest.raises(ValueError, match="GrowReport 'warning' is 'a warning', not None"):
            GrowReport.from_json(_with(GrowReport, warning="a warning"))

    @pytest.mark.parametrize("key", ["certified", "warning"])
    def test_grow_report_missing_derived_key_is_named(self, key):
        doc = {k: v for k, v in _WARNED.to_json().items() if k != key}
        with pytest.raises(ValueError, match=f"GrowReport JSON lacks the key '{key}'"):
            GrowReport.from_json(doc)
