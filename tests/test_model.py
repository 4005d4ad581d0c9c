import pytest
from hypothesis import given
from hypothesis import strategies as st

from simkg import (
    Axiom,
    CardinalityError,
    CycleError,
    EmptyLabelError,
    Entity,
    Iri,
    RcRelation,
    Role,
    SimulationKind,
    VariantLink,
    build_simulation,
    camel_case,
    make_entity,
    mint_iri,
)
from simkg.model import KB, SIM


class TestMintIri:
    @pytest.mark.parametrize(
        "label, local",
        [
            ("white rose", "whiteRose"),
            ("Greek mythology", "greekMythology"),
            ("bloodstone placed in a glass of water during a drought",
             "bloodstonePlacedInAGlassOfWaterDuringADrought"),
            ("Christ's power to draw souls", "christsPowerToDrawSouls"),
            ("black and white", "blackAndWhite"),
            ("dictionary of symbols 1", "dictionaryOfSymbols1"),
            ("National_symbols_of_Liechtenstein", "nationalSymbolsOfLiechtenstein"),
            ("night-bird", "nightBird"),
            ("DBpedia", "dbpedia"),
        ],
    )
    def test_camel_case_rule(self, label, local):
        assert mint_iri(label) == Iri(KB + local)

    def test_empty_label_rejected(self):
        with pytest.raises(EmptyLabelError):
            mint_iri("   ")

    def test_label_without_alphanumerics_rejected(self):
        with pytest.raises(EmptyLabelError):
            mint_iri("!!! ---")

    @given(st.text(min_size=1))
    def test_minting_is_deterministic(self, label):
        try:
            first = mint_iri(label)
        except EmptyLabelError:
            with pytest.raises(EmptyLabelError):
                mint_iri(label)
            return
        assert mint_iri(label) == first
        assert first.startswith(KB)
        assert all(ch.isalnum() for ch in first.local_name)

    @given(st.text())
    def test_camel_case_never_raises(self, label):
        camel_case(label)


class TestIri:
    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Iri("https://example.org/a b")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Iri("")

    def test_an_iri_is_returned_as_it_is(self):
        iri = Iri("https://example.org/a")
        assert Iri(iri) is iri
        assert Iri(Iri(iri)) is iri

    def test_any_other_string_is_checked(self):
        class Text(str):
            pass

        for value in ("https://example.org/a", Text("https://example.org/a")):
            iri = Iri(value)
            assert type(iri) is Iri and iri == value and iri is not value
        for bad in ("https://example.org/a b", Text("https://example.org/a b"), Text("")):
            with pytest.raises(ValueError):
                Iri(bad)

    def test_local_name_of_schema_iri(self):
        assert SimulationKind.HEALING.schema_iri == Iri(SIM + "HealingSimulation")
        assert SimulationKind.GENERIC.schema_iri == Iri(SIM + "Simulation")


def test_schema_iris_are_exhaustive():
    kinds = {k.schema_iri for k in SimulationKind}
    assert len(kinds) == 10
    rels = {r.schema_iri for r in RcRelation}
    assert rels == {
        Iri(SIM + "hasRealityCounterpart"),
        Iri(SIM + "preventedRealityCounterpart"),
        Iri(SIM + "healedRealityCounterpart"),
        Iri(SIM + "restoredRealityCounterpart"),
        Iri(SIM + "easedRealityCounterpart"),
        Iri(SIM + "elicitedRealityCounterpart"),
    }


class TestVocabularyPinned:
    """The ontology terms as the exporter writes them, pinned literally."""

    def test_every_schema_iri(self):
        assert {r.name: r.schema_iri for r in Role} == {
            "SIMULACRUM": SIM + "Simulacrum",
            "REALITY_COUNTERPART": SIM + "RealityCounterpart",
            "CONTEXT": SIM + "Context",
            "SOURCE": SIM + "Source",
        }
        assert {r.name: r.schema_iri for r in RcRelation} == {
            "HAS": SIM + "hasRealityCounterpart",
            "PREVENTED": SIM + "preventedRealityCounterpart",
            "HEALED": SIM + "healedRealityCounterpart",
            "RESTORED": SIM + "restoredRealityCounterpart",
            "EASED": SIM + "easedRealityCounterpart",
            "ELICITED": SIM + "elicitedRealityCounterpart",
        }
        assert {k.name: k.schema_iri for k in SimulationKind} == {
            "GENERIC": SIM + "Simulation",
            "ASSOCIATION": SIM + "AssociationSimulation",
            "CORRESPONDENCE": SIM + "CorrespondenceSimulation",
            "MANIFESTATION": SIM + "ManifestationSimulation",
            "RELATEDNESS": SIM + "RelatednessSimulation",
            "ATTRIBUTE": SIM + "AttributeSimulation",
            "ALLUSION": SIM + "AllusionSimulation",
            "PROTECTION": SIM + "ProtectionSimulation",
            "EMBLEMATIC": SIM + "EmblematicSimulation",
            "HEALING": SIM + "HealingSimulation",
        }
        for enum in (Role, RcRelation, SimulationKind):
            assert all(type(m.schema_iri) is Iri for m in enum)

    @pytest.mark.parametrize("enum", [Role, RcRelation, SimulationKind])
    def test_identity_hash(self, enum):
        member = next(iter(enum))
        assert type(member).__hash__ is object.__hash__
        assert hash(member) == object.__hash__(member)

    def test_predicate_order(self):
        from simkg.graph import _PREDICATE_RANK

        rdf, rdfs = "http://www.w3.org/1999/02/22-rdf-syntax-ns#", "http://www.w3.org/2000/01/rdf-schema#"
        owl, prov = "http://www.w3.org/2002/07/owl#", "http://www.w3.org/ns/prov#"
        assert _PREDICATE_RANK == {
            rdf + "type": 0,
            rdfs + "label": 1,
            SIM + "hasSimulacrum": 2,
            SIM + "hasRealityCounterpart": 3,
            SIM + "preventedRealityCounterpart": 4,
            SIM + "healedRealityCounterpart": 5,
            SIM + "restoredRealityCounterpart": 6,
            SIM + "easedRealityCounterpart": 7,
            SIM + "elicitedRealityCounterpart": 8,
            SIM + "hasContext": 9,
            prov + "wasDerivedFrom": 10,
            SIM + "hasVariant": 11,
            owl + "sameAs": 12,
        }
        assert list(_PREDICATE_RANK) == sorted(_PREDICATE_RANK, key=_PREDICATE_RANK.get)

    def test_local_name_strips_each_namespace(self):
        from simkg.model import OWL, PROV, RDF, RDFS

        for ns in (KB, SIM, PROV, OWL, RDF, RDFS):
            assert Iri(ns + "a/b#c").local_name == "a/b#c"
        assert Iri("https://example.org/x/y#z").local_name == "z"
        assert Iri("https://example.org/x/y").local_name == "y"


class TestBuildSimulation:
    def setup_method(self):
        self.source = make_entity("olderr")
        self.ctx = make_entity("egyptian")

    def test_bee_resurrection(self):
        sim = build_simulation(
            SimulationKind.GENERIC,
            make_entity("bee"),
            [(RcRelation.HAS, make_entity("resurrection"))],
            [self.ctx],
            [self.source],
        )
        assert sim.id == Iri(KB + "bee-resurrection")
        assert sim.simulacrum is make_entity("bee")
        assert sim.kind is SimulationKind.GENERIC

    def test_two_rc_id_join_order(self):
        sim = build_simulation(
            SimulationKind.GENERIC,
            make_entity("agate"),
            [(RcRelation.HAS, make_entity("charm")), (RcRelation.ELICITED, make_entity("healthy blood"))],
            [make_entity("arabian")],
            [self.source],
        )
        assert sim.id == Iri(KB + "agate-charm-healthyBlood")

    def test_healing_needs_exactly_one_healed(self):
        with pytest.raises(CardinalityError) as err:
            build_simulation(
                SimulationKind.HEALING,
                make_entity("x"),
                [(RcRelation.HEALED, make_entity("a")), (RcRelation.HEALED, make_entity("b"))],
                [make_entity("c")],
                [self.source],
            )
        assert err.value.axiom is Axiom.HEALING_CARDINALITY

    def test_protection_needs_exactly_one_prevented(self):
        with pytest.raises(CardinalityError) as err:
            build_simulation(
                SimulationKind.PROTECTION,
                make_entity("x"),
                [(RcRelation.HAS, make_entity("a"))],
                [make_entity("c")],
                [self.source],
            )
        assert err.value.axiom is Axiom.PROTECTION_CARDINALITY

    def test_healing_allows_extra_has_rcs(self):
        sim = build_simulation(
            SimulationKind.HEALING,
            make_entity("x"),
            [(RcRelation.HEALED, make_entity("a")), (RcRelation.HAS, make_entity("b"))],
            [make_entity("c")],
            [self.source],
        )
        assert len(sim.reality_counterparts) == 2

    @pytest.mark.parametrize(
        "rcs, contexts, sources, axiom",
        [
            ([], ["c"], ["s"], Axiom.MISSING_REALITY_COUNTERPART),
            (["r"], [], ["s"], Axiom.MISSING_CONTEXT),
            (["r"], ["c"], [], Axiom.MISSING_SOURCE),
        ],
    )
    def test_empty_member_lists_rejected(self, rcs, contexts, sources, axiom):
        with pytest.raises(CardinalityError) as err:
            build_simulation(
                SimulationKind.GENERIC,
                make_entity("x"),
                [(RcRelation.HAS, make_entity(r)) for r in rcs],
                [make_entity(c) for c in contexts],
                [make_entity(s) for s in sources],
            )
        assert err.value.axiom is axiom

    def test_duplicates_deduplicated_by_iri(self):
        sim = build_simulation(
            SimulationKind.GENERIC,
            make_entity("owl"),
            [(RcRelation.HAS, make_entity("death")), (RcRelation.HAS, make_entity("death"))],
            [make_entity("hindu"), make_entity("Hindu")],
            [self.source, self.source],
        )
        assert sim.id == Iri(KB + "owl-death")
        assert len(sim.reality_counterparts) == 1
        assert len(sim.contexts) == 1
        assert len(sim.sources) == 1

    def test_members_are_the_given_entities(self):
        # roles come from the slots a graph stores them in, so nothing is stamped on a member
        resurrection = make_entity("resurrection")
        sim = build_simulation(
            SimulationKind.GENERIC, make_entity("bee"), [(RcRelation.HAS, resurrection)], [self.ctx], [self.source]
        )
        assert sim.reality_counterparts[0][1] is resurrection
        assert sim.contexts[0] is self.ctx
        assert sim.sources[0] is self.source


def test_variant_link_rejects_self_loop():
    e = make_entity("x")
    with pytest.raises(CycleError):
        VariantLink(base=e, variant=make_entity("x"))


class TestSharedEntities:
    def test_equal_arguments_return_one_value(self):
        a = make_entity("white rose")
        assert make_entity("white rose") is a
        assert make_entity("white rose", links=["http://example.org/a"]) is not a

    def test_roles_are_accepted_and_ignored(self):
        a = make_entity("white rose")
        assert make_entity("white rose", Role.SOURCE) is a
        assert make_entity("white rose", Role.SIMULACRUM, Role.CONTEXT) is a
        assert Entity._fields == ("id", "label", "external_links")

    @pytest.mark.parametrize("label", ["", "   ", "!!!"])
    def test_blank_label_raises_on_every_call(self, label):
        for _ in range(3):
            with pytest.raises(EmptyLabelError):
                make_entity(label)

    def test_links_as_list_tuple_or_generator(self):
        links = ["http://example.org/b", Iri("http://example.org/a")]
        from_list = make_entity("olive", links=links)
        from_tuple = make_entity("olive", links=tuple(reversed(links)))
        from_generator = make_entity("olive", links=(l for l in links))
        assert from_list == from_tuple == from_generator
        assert from_tuple is from_list and from_generator is from_list
        assert from_list.external_links == {Iri("http://example.org/a"), Iri("http://example.org/b")}
        assert all(type(l) is Iri for l in from_list.external_links)

    def test_bad_link_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                make_entity("olive", links=["not an iri"])
