import pytest

from minertia.bounds import (
    Assumptions,
    PencilData,
    best_bound,
    bmy_bound,
    catalog,
    catalog_best_bound,
    epsilon_bound,
    general_bound,
    k2_less_than_8chi,
    odd_q_bound,
    pencil_bound,
    power_of_two_q_bound,
    surface_identities,
)
from minertia.errors import HypothesisNotMetError


class TestIndividualBounds:
    def test_bmy(self):
        assert bmy_bound(4, 3) == 8
        assert bmy_bound(0, 0) == 1
        # equality case of the product-of-curves family at q=6
        assert bmy_bound(2 * (6 - 2), 6) == 15

    def test_general(self):
        assert general_bound(4) == 10
        assert general_bound(1) == 1
        assert general_bound(5) == 13

    def test_odd_q(self):
        assert odd_q_bound(7, True) == 20
        assert odd_q_bound(6, True) is None
        assert odd_q_bound(7, False) is None

    def test_pencil(self):
        assert pencil_bound(4, PencilData(b=2)) == 10
        assert pencil_bound(5, PencilData(b=2, fiber_component_counts=(3, 2))) == 17
        assert pencil_bound(3, PencilData(b=3, fiber_component_counts=(2, 2))) == 4

    def test_pencil_range_check(self):
        with pytest.raises(ValueError):
            pencil_bound(3, PencilData(b=4))
        with pytest.raises(ValueError):
            PencilData(b=0)
        with pytest.raises(ValueError):
            PencilData(b=1, fiber_component_counts=(0,))

    @pytest.mark.parametrize(
        "kwargs", [{"b": 2.5}, {"b": True}, {"b": 2, "fiber_component_counts": (2.7,)}]
    )
    def test_pencil_rejects_non_integers(self, kwargs):
        # these used to become b=2.5 in the bound (14.5) or a count of 2
        with pytest.raises(ValueError, match="must be an integer"):
            best_bound(Assumptions(q=5, pencil=PencilData(**kwargs)))

    def test_power_of_two_q(self):
        assert power_of_two_q_bound(5, True) == 17
        assert power_of_two_q_bound(3, True) == 9
        assert power_of_two_q_bound(9, True) == 33
        assert power_of_two_q_bound(6, True) is None
        assert power_of_two_q_bound(5, False) is None

    def test_epsilon(self):
        assert epsilon_bound(6, True) == 17  # k=2, eps=1
        assert epsilon_bound(7, True) == 17  # k=2, eps=2
        assert epsilon_bound(5, True) is None  # exactly 2^2 + 1
        assert epsilon_bound(4, True) == 9  # k=1, eps=1
        assert epsilon_bound(6, False) is None

    def test_epsilon_agrees_with_power_form_at_zero_offset(self):
        # 4q - 3 - 4*eps evaluated at eps = 0 must equal the 4q - 3 bound
        for k in range(1, 8):
            q = (1 << k) + 1
            assert 4 * q - 3 - 4 * 0 == power_of_two_q_bound(q, True)

    def test_epsilon_maximal_offset(self):
        # q = 2^(k+1), eps = 2^k - 1 maximal: value is 4q - 3 - 4(2^k - 1)
        for k in range(2, 8):
            q = 1 << (k + 1)
            eps = (1 << k) - 1
            assert epsilon_bound(q, True) == 4 * q - 3 - 4 * eps


class TestBestBound:
    def test_regression_values(self):
        expected = {3: 9, 4: 10, 5: 17, 6: 17, 7: 20}
        for q, want in expected.items():
            rep = best_bound(Assumptions(q=q, no_irregular_pencils_genus_ge2=True))
            assert rep.best == want, q

    def test_winning_names(self):
        rep = best_bound(Assumptions(q=5, no_irregular_pencils_genus_ge2=True))
        assert rep.best_names == ("power_of_two_q",)
        rep = best_bound(Assumptions(q=7, no_irregular_pencils_genus_ge2=True))
        assert rep.best_names == ("odd_q",)
        rep = best_bound(Assumptions(q=4, no_irregular_pencils_genus_ge2=True))
        assert rep.best_names == ("general_type",)

    def test_general_entry_always_present(self):
        for q in range(1, 12):
            rep = best_bound(Assumptions(q=q))
            by_name = {e.name: e for e in rep.bounds}
            assert by_name["general_type"].applicable

    def test_monotone_in_assumptions(self):
        for q in range(3, 25):
            base = best_bound(Assumptions(q=q)).best
            with_pencils_excluded = best_bound(
                Assumptions(q=q, no_irregular_pencils_genus_ge2=True)
            ).best
            assert with_pencils_excluded >= base
            with_pg = best_bound(
                Assumptions(q=q, p_g=2 * q, no_irregular_pencils_genus_ge2=True)
            ).best
            assert with_pg >= with_pencils_excluded

    def test_pencil_contribution(self):
        rep = best_bound(
            Assumptions(q=5, pencil=PencilData(b=2, fiber_component_counts=(3, 2)))
        )
        by_name = {e.name: e for e in rep.bounds}
        assert by_name["pencil"].value == 17
        assert rep.best == 17

    def test_inconsistent_assumptions_rejected(self):
        with pytest.raises(ValueError):
            Assumptions(
                q=5,
                no_irregular_pencils_genus_ge2=True,
                pencil=PencilData(b=2),
            )

    def test_genus_one_pencil_is_consistent(self):
        a = Assumptions(
            q=5, no_irregular_pencils_genus_ge2=True, pencil=PencilData(b=1)
        )
        rep = best_bound(a)
        by_name = {e.name: e for e in rep.bounds}
        assert by_name["pencil"].value == 2 * (5 - 1) + 2

    @pytest.mark.parametrize(
        "kwargs", [{"q": 5.0}, {"q": True}, {"q": "5"}, {"q": 5, "p_g": 1.5}, {"q": 5, "p_g": True}]
    )
    def test_assumptions_reject_non_integers(self, kwargs):
        # q=5.0 used to raise AttributeError in power_of_two_q_bound, q=True
        # gave best 1, p_g=1.5 was accepted and q="5" raised TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            best_bound(Assumptions(no_irregular_pencils_genus_ge2=True, **kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"no_irregular_pencils_genus_ge2": "no"},
            {"no_irregular_pencils_genus_ge2": 1},
            {"no_irregular_pencils_genus_ge2": None},
            {"minimal_surface": "yes"},
            {"minimal_surface": 0},
        ],
    )
    def test_assumptions_reject_non_boolean_flags(self, kwargs):
        # the string "no" was truthy: best 17 at q = 5 instead of 13
        with pytest.raises(ValueError, match="must be a boolean"):
            best_bound(Assumptions(q=5, **kwargs))

    @pytest.mark.parametrize("pencil", [{"b": 2}, 2, (2, (3,))])
    def test_assumptions_reject_a_pencil_that_is_not_pencil_data(self, pencil):
        # a dict used to raise AttributeError in pencil_bound
        with pytest.raises(ValueError, match="pencil must be None or a PencilData"):
            best_bound(Assumptions(q=5, pencil=pencil))

    @pytest.mark.parametrize("q,b", [(5, 7), (1, 2), (3, 4)])
    def test_assumptions_reject_a_base_genus_above_q(self, q, b):
        # such a document used to load, and only best_bound raised
        message = rf"^base genus must lie in \[1, q\]={q}, got {b}$"
        with pytest.raises(ValueError, match=message):
            Assumptions.from_json({"q": q, "pencil": {"b": b}})
        with pytest.raises(ValueError, match=message):
            Assumptions(q=q, pencil=PencilData(b=b))

    def test_base_genus_q_is_in_range(self):
        rep = best_bound(Assumptions.from_json({"q": 5, "pencil": {"b": 5}}))
        assert {e.name: e.value for e in rep.bounds}["pencil"] == 2

    def test_entries_in_table_order_with_the_pencil_only_when_given(self):
        names = ["bmy", "general_type", "odd_q", "power_of_two_q", "epsilon_offset"]
        rep = best_bound(Assumptions(q=5, no_irregular_pencils_genus_ge2=True))
        assert [e.name for e in rep.bounds] == names
        assert rep.bounds[3].note.endswith(" (case known previously)")
        rep = best_bound(Assumptions(q=9, p_g=3, pencil=PencilData(b=2)))
        assert [e.name for e in rep.bounds] == names + ["pencil"]
        assert not any("known previously" in e.note for e in rep.bounds)

    def test_json_shape(self):
        doc = best_bound(Assumptions(q=5, no_irregular_pencils_genus_ge2=True)).to_json()
        assert doc["q"] == 5
        assert doc["best"] == 17
        assert {b["name"] for b in doc["bounds"]} >= {
            "bmy",
            "general_type",
            "odd_q",
            "power_of_two_q",
            "epsilon_offset",
        }

    def test_json_round_trip(self):
        from minertia.bounds import BoundReport

        rep = best_bound(
            Assumptions(
                q=6,
                p_g=8,
                pencil=PencilData(b=2, fiber_component_counts=(3,)),
            )
        )
        doc = rep.to_json()
        assert BoundReport.from_json(doc).to_json() == doc


class TestSurfaceIdentities:
    def test_product_of_curves_case(self):
        # q=6 family member: p_g = 8, h11 = 18, c2 = 12 = 4*chi
        rec = surface_identities(6, 8, 18)
        assert rec.chi == 3
        assert rec.c2 == 12
        assert rec.c2 == 4 * rec.chi

    def test_degenerate_plug_in(self):
        rec = surface_identities(0, 0, 1)
        assert (rec.chi, rec.c2, rec.K2) == (1, 3, 9)

    def test_direct_formulas(self):
        rec = surface_identities(9, 15, 33)
        assert (rec.chi, rec.c2, rec.K2) == (7, 29, 55)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            surface_identities(-1, 0, 0)


class TestK2Gap:
    def test_q9(self):
        rec = k2_less_than_8chi(9)
        assert rec.chi == 7
        assert rec.K2_upper == 55
        assert rec.eight_chi == 56
        assert rec.strict

    def test_q17(self):
        rec = k2_less_than_8chi(17)
        assert rec.K2_upper == 119
        assert rec.eight_chi == 120
        assert rec.strict

    def test_chain_up_to_k20(self):
        for k in range(3, 21):
            rec = k2_less_than_8chi((1 << k) + 1)
            assert rec.strict
            assert rec.K2_upper + 1 == rec.eight_chi

    @pytest.mark.parametrize("q", [5, 6, 8, 10])
    def test_hypothesis_gate(self, q):
        with pytest.raises(HypothesisNotMetError):
            k2_less_than_8chi(q)


class TestCatalog:
    def test_known_values(self):
        by_name = {r.name: r for r in catalog()}
        assert by_name["Schoen surface"].h11 == 12
        assert by_name["Fano surface of lines on a smooth cubic threefold"].h11 == 25
        assert by_name["symmetric square of a genus-3 curve"].h11 == 10

    def test_every_record_beats_its_bound(self):
        for rec in catalog():
            assert rec.h11 >= catalog_best_bound(rec), rec.name

    def test_product_family_members(self):
        fam = [r for r in catalog() if not r.no_irregular_pencils]
        assert fam, "family entries expected"
        for r in fam:
            assert r.p_g == 2 * (r.q - 2)
            assert r.h11 == 4 * r.q - 6

    def test_record_json_round_trip(self):
        from minertia.bounds import SurfaceRecord

        for rec in catalog():
            assert SurfaceRecord.from_json(rec.to_json()) == rec
