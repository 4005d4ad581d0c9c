import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from graphgen import random_graph
from simkg import (
    Entity,
    Graph,
    GraphViolationsError,
    Iri,
    Literal,
    RcRelation,
    Role,
    SimulationKind,
    TurtleSyntaxError,
    build_simulation,
    export_turtle,
    import_turtle,
    make_entity,
    save_graph,
)
from simkg.model import KB
from simkg.graph import RDF_TYPE
from simkg.serialize import (
    _PREDICATE_RANK,
    PREFIXES,
    RDFS_LABEL,
    SIM_HAS_CONTEXT,
    SIM_HAS_SIMULACRUM,
    SIM_HAS_VARIANT,
    _render_literal,
    _TOKEN_RE,
    compact_iri,
    graph_triples,
    write_atomic,
)


def test_empty_graph_exports_prefix_header_only():
    text = export_turtle(Graph())
    lines = [l for l in text.splitlines() if l.strip()]
    assert all(l.startswith("@prefix") for l in lines)
    assert [l.split()[1] for l in lines] == ["rdf:", "rdfs:", "owl:", "prov:", "sim:", "kb:"]


def test_bee_resurrection_block(toy_graph):
    text = export_turtle(toy_graph)
    assert (
        "kb:bee-resurrection a sim:Simulation ;\n"
        "    sim:hasSimulacrum kb:bee ;\n"
        "    sim:hasRealityCounterpart kb:resurrection ;\n"
        "    sim:hasContext kb:egyptian ;" in text
    )


def test_specialized_rc_predicate_emitted(toy_graph):
    assert "sim:elicitedRealityCounterpart kb:healthyBlood" in export_turtle(toy_graph)


def test_variant_and_labels_emitted(toy_graph):
    text = export_turtle(toy_graph)
    assert "sim:hasVariant kb:nightBird" in text
    assert 'rdfs:label "night bird"' in text


def test_export_requires_clean_graph():
    g = Graph()
    g.upsert_entity(make_entity("lonely", Role.SIMULACRUM))
    with pytest.raises(GraphViolationsError):
        export_turtle(g)
    assert export_turtle(g, force=True)  # force serializes as-is


def test_refused_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "g.ttl"
    path.write_text("old contents\n", encoding="utf-8")
    g = Graph()
    g.upsert_entity(make_entity("lonely", Role.SIMULACRUM))
    with pytest.raises(GraphViolationsError):
        save_graph(g, path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.ttl"]


def test_failed_replace_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    (target / "inner").write_text("x", encoding="utf-8")
    with pytest.raises(OSError):
        write_atomic(target, "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert sorted(p.name for p in target.iterdir()) == ["inner"]


def test_round_trip_identity(toy_graph):
    text = export_turtle(toy_graph)
    assert import_turtle(text) == toy_graph


def test_export_is_byte_deterministic(toy_graph):
    assert export_turtle(toy_graph) == export_turtle(toy_graph)


def test_round_trip_of_random_graphs():
    for seed in range(50):
        g = random_graph(random.Random(seed), max_sims=12)
        text = export_turtle(g)
        back = import_turtle(text)
        assert back == g, f"seed {seed}"
        assert export_turtle(back) == text, f"seed {seed}"


def test_emitted_triple_count_equals_stats_total():
    for seed in (3, 17, 29):
        g = random_graph(random.Random(seed), max_sims=15)
        from simkg.serialize import graph_triples

        emitted = len(set(graph_triples(g)))
        assert emitted == g.stats().total.n_triples, f"seed {seed}"


def _reference_export(g: Graph) -> str:
    """The group-and-sort exporter: every statement of ``graph_triples``
    grouped by subject and predicate, then everything sorted."""
    by_subject: dict = {}
    for s, p, o in graph_triples(g):
        by_subject.setdefault(s, {}).setdefault(p, set()).add(o)

    def object_key(o):
        return (1, o.text, o.lang or "") if isinstance(o, Literal) else (0, str(o), "")

    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES]
    for subject in sorted(by_subject):
        out.append("")
        block = []
        for p in sorted(by_subject[subject], key=lambda p: (_PREDICATE_RANK.get(p, 13), p)):
            objects = sorted(by_subject[subject][p], key=object_key)
            rendered = ", ".join(_render_literal(o) if isinstance(o, Literal) else compact_iri(o) for o in objects)
            block.append(f"{'a' if p == RDF_TYPE else compact_iri(p)} {rendered}")
        first, *rest = block
        if rest:
            out.append(f"{compact_iri(subject)} {first} ;")
            out.extend(f"    {part} ;" for part in rest[:-1])
            out.append(f"    {rest[-1]} .")
        else:
            out.append(f"{compact_iri(subject)} {first} .")
    return "\n".join(out) + "\n"


def _add_odd_statements(g: Graph, rng: random.Random) -> None:
    """Statements a foreign file can bring that ``random_graph`` never makes."""
    ex = "http://example.org/"
    sim = g.simulations[rng.choice(sorted(g.simulations))]
    entity = g.entities[rng.choice(sorted(g.entities))]
    other_kind = rng.choice([k for k in SimulationKind if k is not sim.kind])
    # simulation IRIs that are also entities: one with extra triples, one without
    g.upsert_entity(Entity(sim.id, "also an entity", frozenset(rng.sample([Role.CONTEXT, Role.SOURCE], rng.randint(0, 2)))))
    plain = rng.choice(sorted(g.simulations))
    if plain != sim.id:
        g.upsert_entity(Entity(plain, "also an entity", frozenset({Role.CONTEXT, Role.SIMULACRUM, Role.SOURCE})))
    g.extra_triples.update(
        {
            (sim.id, RDF_TYPE, Literal("x")),
            (entity.id, RDF_TYPE, Literal("y", "en")),
            (sim.id, RDF_TYPE, other_kind.schema_iri),
            (sim.id, SIM_HAS_SIMULACRUM, sim.simulacra[0].id),  # duplicates a stored triple
            (entity.id, RDFS_LABEL, Literal(entity.label)),  # duplicates a stored triple
            (entity.id, RDFS_LABEL, Literal("another label", "en")),
            (sim.id, SIM_HAS_CONTEXT, Literal("a literal member")),
            (sim.id, SIM_HAS_VARIANT, entity.id),
            (sim.id, Iri(ex + "p"), Literal("z")),
            (sim.id, Iri(ex + "a"), Iri(ex + "o")),
            (entity.id, Iri(ex + "q"), Iri(ex + "o")),
            (entity.id, Iri(ex + "q"), Literal("w")),
            (Iri(ex + "bare"), Iri(ex + "p"), Literal("only extra triples")),
        }
    )


def test_export_matches_the_group_and_sort_reference():
    for seed in range(60):
        rng = random.Random(seed)
        g = random_graph(rng, max_sims=12)
        assert export_turtle(g) == _reference_export(g), f"seed {seed}"
        _add_odd_statements(g, rng)
        assert export_turtle(g, force=True) == _reference_export(g), f"seed {seed}, odd statements"


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    g = random_graph(random.Random(seed), max_sims=8)
    assert import_turtle(export_turtle(g)) == g


_IRI_CHARS = st.one_of(st.sampled_from('<>"{}|^`\\ \t:/#.%'), st.characters())


@settings(max_examples=200)
@given(st.text(_IRI_CHARS, max_size=20))
def test_round_trip_of_any_accepted_iri(text):
    # every string Iri accepts survives export and re-import, as a subject and as an object
    try:
        iri = Iri(text)
    except ValueError:
        return
    g = Graph()
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            Entity(iri, "odd", external_links=frozenset({iri})),
            [(RcRelation.HAS, make_entity("peace"))],
            [make_entity("hindu")],
            [make_entity("olderr", Role.SOURCE)],
        )
    )
    assert import_turtle(export_turtle(g)) == g


def test_empty_iri_is_a_syntax_error():
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle("<> <http://example.org/p> <http://example.org/o> .\n")
    assert str(err.value) == "line 1, col 1: empty IRI; relative IRIs are not supported"


def test_escape_beyond_unicode_is_a_syntax_error():
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle('<http://example.org/s> <http://example.org/p> "\\UFFFFFFFF" .\n')
    assert str(err.value) == "line 1, col 47: bad unicode escape \\UFFFFFFFF"


def test_import_specialized_rc_fixture():
    g = import_turtle(
        """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:agate-evilSpirits a sim:ProtectionSimulation ;
    sim:hasSimulacrum kb:agate ;
    sim:preventedRealityCounterpart kb:evilSpirits ;
    sim:hasContext kb:arabian ;
    prov:wasDerivedFrom kb:olderr .
"""
    )
    sim = g.simulations[Iri(KB + "agate-evilSpirits")]
    assert sim.kind is SimulationKind.PROTECTION
    assert [(rel, e.id.local_name) for rel, e in sim.reality_counterparts] == [
        (RcRelation.PREVENTED, "evilSpirits")
    ]


def test_unmatched_quote_reports_line():
    doc = '@prefix kb: <https://w3id.org/simulation/data/> .\nkb:a kb:p "oops .\n'
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle(doc)
    assert err.value.line == 2


def test_undeclared_prefix_rejected():
    with pytest.raises(TurtleSyntaxError):
        import_turtle("kb:a kb:b kb:c .")


def test_blank_node_rejected():
    with pytest.raises(TurtleSyntaxError):
        import_turtle("@prefix kb: <https://w3id.org/simulation/data/> .\nkb:a kb:p [ kb:q kb:r ] .")


def test_label_escaping_round_trips():
    g = Graph()
    gnarly = 'he said "hi"\\\n\ttwice'
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            make_entity(gnarly + " owl"),
            [(RcRelation.HAS, make_entity("death"))],
            [make_entity("hindu")],
            [make_entity("olderr", Role.SOURCE)],
        )
    )
    back = import_turtle(export_turtle(g))
    assert back == g
    labels = {e.label for e in back.entities.values()}
    assert gnarly + " owl" in labels


def test_language_tagged_literals_parse():
    g = import_turtle(
        """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:owl rdfs:label "owl"@en .
"""
    )
    assert g.entities[Iri(KB + "owl")].label == "owl"


def test_unknown_predicates_preserved_and_reemitted():
    doc = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix kb: <https://w3id.org/simulation/data/> .
@prefix ex: <http://example.org/> .

kb:owl rdfs:label "owl" ;
    ex:wingspan "large" .
"""
    g = import_turtle(doc)
    assert (Iri(KB + "owl"), Iri("http://example.org/wingspan"), Literal("large")) in g.extra_triples
    text = export_turtle(g, force=True)
    assert '<http://example.org/wingspan> "large"' in text
    assert import_turtle(text) == g


def test_unknown_class_defaults_to_generic(caplog):
    doc = """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .
@prefix ex: <http://example.org/> .

kb:owl-death a ex:Mystery ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:olderr .
"""
    with caplog.at_level("WARNING", logger="simkg.serialize"):
        g = import_turtle(doc)
    assert g.simulations[Iri(KB + "owl-death")].kind is SimulationKind.GENERIC
    assert any("unknown class" in m for m in caplog.messages)


def test_context_recognized_from_position_alone():
    # a dump that never types its contexts still imports them as contexts
    g = import_turtle(
        """\
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix kb: <https://w3id.org/simulation/data/> .

kb:owl-death a sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:olderr .
"""
    )
    assert Role.CONTEXT in g.entities[Iri(KB + "hindu")].roles
    assert g.entities[Iri(KB + "hindu")].label == "hindu"


@given(st.text(max_size=200))
@settings(max_examples=60)
def test_importer_never_hangs_or_crashes_unexpectedly(doc):
    try:
        import_turtle(doc)
    except TurtleSyntaxError:
        pass


_FUZZ_TOKENS = _TOKEN_RE.findall((FIXTURES / "golden" / "hook.ttl").read_text(encoding="utf-8"))[:-1]  # no end token
_TOKEN_INDEX = st.integers(0, len(_FUZZ_TOKENS) - 1)
_EDITS = st.tuples(st.sampled_from(("delete", "duplicate", "swap")), _TOKEN_INDEX, _TOKEN_INDEX)


def test_fuzz_tokens_are_the_tokens_of_hook_ttl():
    # hook.ttl has 207 tokens; the digest pins them, so a tokenizer change cannot shift them unnoticed
    digest = hashlib.sha256("\n".join(_FUZZ_TOKENS).encode("utf-8")).hexdigest()
    assert (len(_FUZZ_TOKENS), digest) == (207, "9bb75fc99e35900649f7f82a9bedbe02d4cebeb2c29f1f8038b210ca100188f9")
    assert _FUZZ_TOKENS[:4] == ["@prefix", "rdf:", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#>", "."]


@given(st.lists(_EDITS, min_size=1, max_size=4))
@settings(max_examples=100)
def test_importer_on_edited_token_sequences(edits):
    # deletes, duplicates or swaps tokens of an exported graph (the golden hook.ttl),
    # so documents get past the first token
    tokens = list(_FUZZ_TOKENS)
    for op, i, j in edits:
        i, j = i % len(tokens), j % len(tokens)
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    try:
        assert isinstance(import_turtle(" ".join(tokens)), Graph)
    except TurtleSyntaxError:
        pass


_KB_PREFIX = "@prefix kb: <https://w3id.org/simulation/data/> .\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        (_KB_PREFIX + "kb:a kb:b kb:c ! .\n", "line 2, col 16: unexpected character '!'"),
        (_KB_PREFIX + 'kb:a kb:p "oops .\n', "line 2, col 11: unexpected character '\"'"),
        ("kb:a kb:b kb:c .", "line 1, col 1: undeclared prefix 'kb'"),
        ("@prefix kb <https://w3id.org/simulation/data/> .\n", "line 1, col 9: unexpected character 'k'"),
        ("@prefix kb: kb:x .\n", "line 1, col 13: expected a namespace IRI"),
        ("@prefix kb:a", "line 1, col 9: expected a prefix name ending in ':'"),
        ("@prefix kb: kb:x", "line 1, col 13: expected a namespace IRI"),
        ("@prefix : <https://w3id.org/simulation/data/> .\n", "line 1, col 9: unexpected character ':'"),
        ("@prefix kb: <https://w3id.org/simulation/data/>\nkb:a kb:b kb:c .\n", "line 2, col 1: expected '.' after @prefix"),
        ("@prefix kb:", "line 1, col 1: unexpected end of document, expected a namespace IRI"),
        (_KB_PREFIX + "kb:a kb:b .\n", "line 2, col 11: expected an IRI, got '.'"),
        (_KB_PREFIX + "kb:a kb:b kb:c ;", "line 2, col 1: unexpected end of document, expected a predicate"),
        (_KB_PREFIX + "kb:a kb:b kb:c ,\n", "line 3, col 1: unexpected end of document, expected an object"),
        (_KB_PREFIX + "kb:a kb:b kb:c", "line 2, col 1: unexpected end of document, expected ',', ';' or '.'"),
        (_KB_PREFIX + "kb:a kb:p [ kb:q kb:r ] .", "line 2, col 11: unexpected character '['"),
        (_KB_PREFIX + 'kb:a kb:p "x\\u12G4" .\n', "line 2, col 11: bad unicode escape \\u12G4"),
        (_KB_PREFIX + 'kb:a kb:p "x\\q" .\n', "line 2, col 11: unknown escape \\q"),
        (_KB_PREFIX + "kb:a kb:p kb:c kb:d .\n", "line 2, col 16: expected punctuation, got 'kb:d'"),
        (_KB_PREFIX + '"x" kb:p kb:c .\n', "line 2, col 1: expected an IRI, got '\"x\"'"),
        # edges of reading a token's kind from its first character
        (_KB_PREFIX + 'kb:a kb:b "x" @prefix', "line 2, col 15: expected punctuation, got '@prefix'"),
        (_KB_PREFIX + 'kb:a kb:b "x"@prefix .\n', "line 2, col 14: expected punctuation, got '@prefix'"),
        (_KB_PREFIX + 'kb:a kb:b "x" @prefixx .\n', "line 2, col 22: unexpected character 'x'"),
        (_KB_PREFIX + "a kb:b kb:c .\n", "line 2, col 1: expected an IRI, got 'a'"),
        (_KB_PREFIX + "kb:a kb:b a .\n", "line 2, col 11: expected an IRI, got 'a'"),
        (_KB_PREFIX + 'kb:a kb:b "x"@en- .\n', "line 2, col 17: unexpected character '-'"),
        (_KB_PREFIX + 'kb:a kb:b "x', "line 2, col 11: unexpected character '\"'"),
        (_KB_PREFIX + "kb:a kb:b kb:c !", "line 2, col 16: unexpected character '!'"),
    ],
)
def test_syntax_error_messages(doc, message):
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle(doc)
    assert str(err.value) == message
    line, col = message[len("line "):].split(":")[0].split(", col ")
    assert (err.value.line, err.value.col) == (int(line), int(col))


def test_redeclared_prefix_applies_to_later_names():
    # W3C Turtle: a later @prefix for the same name rebinds it from there on
    doc = "@prefix p: <http://a.org/> . p:x p:y p:z . @prefix p: <http://b.org/> . p:x p:y p:z ."
    g = import_turtle(doc)
    assert g.extra_triples == {
        (Iri("http://a.org/x"), Iri("http://a.org/y"), Iri("http://a.org/z")),
        (Iri("http://b.org/x"), Iri("http://b.org/y"), Iri("http://b.org/z")),
    }


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            '@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n<http://e.org/a> a "x" ; rdfs:label "a" .\n',
            '<http://e.org/a> a "x" ;',
        ),
        (
            _KB_PREFIX + "@prefix sim: <https://w3id.org/simulation/ontology/> .\n"
            "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
            'kb:olive-peace a sim:Simulation, "x" ; sim:hasSimulacrum kb:olive ;\n'
            "    sim:hasRealityCounterpart kb:peace ; sim:hasContext kb:greek ; prov:wasDerivedFrom kb:src .\n",
            'kb:olive-peace a sim:Simulation, "x" ;',
        ),
        (
            _KB_PREFIX + "@prefix sim: <https://w3id.org/simulation/ontology/> .\n"
            "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
            'kb:olive-peace a "x" ; sim:hasSimulacrum kb:olive ;\n'
            "    sim:hasRealityCounterpart kb:peace ; sim:hasContext kb:greek ; prov:wasDerivedFrom kb:src .\n",
            'kb:olive-peace a sim:Simulation, "x" ;',
        ),
    ],
    ids=["entity", "simulation", "simulation-without-class"],
)
def test_literal_type_kept_as_extra_triple(doc, line):
    g = import_turtle(doc)
    text = export_turtle(g)
    assert line in text.splitlines()
    assert import_turtle(text) == g


def test_tokenizer_error_wins_over_an_earlier_parse_error():
    doc = _KB_PREFIX + "kb:a kb:b .\nkb:c kb:d kb:e ! .\n"
    with pytest.raises(TurtleSyntaxError) as err:
        import_turtle(doc)
    assert str(err.value) == "line 3, col 16: unexpected character '!'"
