"""The contract every public value record keeps: immutable, picklable,
hashed by value, and printed as ``Name(field=value, ...)``."""

import pickle

import pytest

from simkg import (
    Axiom,
    Clause,
    ColorDistribution,
    CorpusStats,
    CycleError,
    DictEntry,
    Entity,
    EvalReport,
    Iri,
    Literal,
    RcRelation,
    Simulation,
    SimulationKind,
    SourceStats,
    SymbolPredicate,
    SymbolTriple,
    SynsetRecord,
    VariantLink,
    Violation,
    convert_dbpedia,
    convert_document,
    convert_synsets,
    make_entity,
    parse_dictionary,
)
from simkg.analysis import MeaningRow, MetricRow
from simkg.model import Conversion

A = Entity(Iri("http://e.org/a"), "a")
B = Entity(Iri("http://e.org/b"), "b", frozenset({Iri("http://e.org/x")}))
A_REPR = "Entity(id='http://e.org/a', label='a', external_links=frozenset())"
B_REPR = "Entity(id='http://e.org/b', label='b', external_links=frozenset({'http://e.org/x'}))"
CLAUSE = Clause(("Christian",), "related to", ("moon",), 3)
CLAUSE_REPR = "Clause(context_labels=('Christian',), relation_phrase='related to', meaning_terms=('moon',), line=3)"
STATS_REPR = "label='{}', n_simulacra=1, n_rcs=2, n_contexts=3, n_simulations=4, n_triples=5"
ROW_REPR = f"MeaningRow(meaning={B_REPR}, counts=(('white', 2),))"

# (record, its repr), covering each field default at least once
RECORDS = [
    (A, A_REPR),
    (
        Simulation(Iri("http://e.org/s"), SimulationKind.HEALING, (A,), ((RcRelation.HEALED, B),), (A,), (B,)),
        f"Simulation(id='http://e.org/s', kind=<SimulationKind.HEALING: 'Healing'>, simulacra=({A_REPR},), "
        f"reality_counterparts=((<RcRelation.HEALED: 'healedRealityCounterpart'>, {B_REPR}),), "
        f"contexts=({A_REPR},), sources=({B_REPR},))",
    ),
    (Literal("rose"), "Literal(text='rose', lang=None)"),
    (VariantLink(A, B), f"VariantLink(base={A_REPR}, variant={B_REPR})"),
    (
        CorpusStats((SourceStats("olderr", 1, 2, 3, 4, 5),), SourceStats("Total", 1, 2, 3, 4, 5)),
        f"CorpusStats(rows=(SourceStats({STATS_REPR.format('olderr')}),), total=SourceStats({STATS_REPR.format('Total')}))",
    ),
    (
        Violation(Axiom.MISSING_SOURCE, A.id, "no source"),
        "Violation(axiom=<Axiom.MISSING_SOURCE: 'MissingSource'>, subject='http://e.org/a', detail='no source')",
    ),
    (
        DictEntry("hook", (CLAUSE,), (("hook and eye", (CLAUSE,), 5),), 1),
        f"DictEntry(lemma='hook', clauses=({CLAUSE_REPR},), variant_blocks=(('hook and eye', ({CLAUSE_REPR},), 5),), line=1)",
    ),
    (
        SymbolTriple(A.id, SymbolPredicate.DBP_SYMBOL, "peace"),
        "SymbolTriple(subject='http://e.org/a', predicate=<SymbolPredicate.DBP_SYMBOL: 'dbp_symbol'>, object='peace', "
        "subject_types=())",
    ),
    (
        SynsetRecord(Iri("http://e.org/olive"), "olive", "an emblem of peace"),
        "SynsetRecord(synset_iri='http://e.org/olive', label='olive', gloss='an emblem of peace', is_symbol_hyponym=False)",
    ),
    (
        ColorDistribution(A, ("white", "red"), (MeaningRow(B, (("white", 2),)),)),
        f"ColorDistribution(target={A_REPR}, colors=('white', 'red'), rows=({ROW_REPR},))",
    ),
    (
        EvalReport((MetricRow("Simulation", 1, 2, 3),), MetricRow("Average", 1, 2, 3)),
        "EvalReport(rows=(MetricRow(category='Simulation', tp=1, fp=2, fn=3),), "
        "average=MetricRow(category='Average', tp=1, fp=2, fn=3))",
    ),
]


@pytest.mark.parametrize(("record", "text"), RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_contract(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert repr(record) == text


def test_reflexive_variant_link_raises_however_it_is_made():
    with pytest.raises(CycleError):
        VariantLink(A, A._replace(label="A"))
    with pytest.raises(CycleError):
        VariantLink(A, B)._replace(variant=A)
    reflexive = pickle.dumps(tuple.__new__(VariantLink, (A, A)))  # only a bypass of the constructor makes one
    with pytest.raises(CycleError):
        pickle.loads(reflexive)


@pytest.mark.parametrize(
    "convert",
    [
        lambda: parse_dictionary(""),
        lambda: convert_document("", make_entity("olderr"))[1],
        lambda: convert_dbpedia([], make_entity("DBpedia")),
        lambda: convert_synsets([], make_entity("Wordnet")),
    ],
    ids=["ParsedDictionary", "convert_document", "convert_dbpedia", "convert_synsets"],
)
def test_each_conversion_fills_lists_of_its_own(convert):
    one, two = convert(), convert()
    assert type(one)._field_defaults == {}  # a default list would be shared by every instance
    assert one == two and all(a is not b for a, b in zip(one, two))
    one[0].append("x")
    assert pickle.loads(pickle.dumps(one)) == one
    with pytest.raises(AttributeError):
        setattr(one, one._fields[0], [])


def test_the_three_converters_return_one_record():
    source = make_entity("olderr")
    results = [convert_document("", source)[1], convert_dbpedia([], source), convert_synsets([], source)]
    assert {type(conv) for conv in results} == {Conversion}
    assert Conversion._fields == ("simulations", "variants", "skipped", "warnings")


def test_each_converter_lists_the_input_it_skips():
    source = make_entity("olderr")
    parsed, conv = convert_document("!!!\n  love\nrose\n  love\n", source)
    assert conv.skipped == [parsed.entries[0]] and [s.id.local_name for s in conv.simulations] == ["rose-love"]
    dbr = "http://dbpedia.org/resource/"
    station = SymbolTriple(Iri(dbr + "Atocha"), SymbolPredicate.DBP_SYMBOL, "bear", (Iri(dbr + "RailwayStation"),))
    unmintable = SymbolTriple(Iri(dbr + "Nowhere"), SymbolPredicate.DBP_SYMBOL, "!!!")
    empty_category = SymbolTriple(Iri(dbr + "Eagle"), SymbolPredicate.DCT_SUBJECT, Iri(dbr + "Category:Symbols_of"))
    kept = SymbolTriple(Iri(dbr + "Truce"), SymbolPredicate.DBP_SYMBOL, "white flag")
    conv = convert_dbpedia([station, unmintable, empty_category, kept], source)
    assert conv.skipped == [station, unmintable, empty_category] and len(conv.simulations) == 1
    assert len(conv.warnings) == 3
    wordnet = convert_synsets([SynsetRecord(Iri("http://e.org/x"), "dove", "symbol of !!!, love")], source)
    assert wordnet.skipped == [] and len(wordnet.simulations) == 1
    assert wordnet.warnings == ["http://e.org/x: skipped meaning term '!!!' (label '!!!' has no alphanumeric characters)"]
