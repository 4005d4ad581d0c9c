import hashlib
import os
import random
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from graphgen import add_repeated_statements, add_stated_roles, random_graph
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
from simkg.graph import (
    _PREDICATE_RANK,
    OWL_SAME_AS,
    PROV_WAS_DERIVED_FROM,
    RDF_TYPE,
    RDFS_LABEL,
    SIM_HAS_CONTEXT,
    SIM_HAS_SIMULACRUM,
    SIM_HAS_VARIANT,
)
from simkg.serialize import (
    PREFIXES,
    _parse_statements,
    _render_literal,
    _render_term,
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
    g.state_role(g.upsert_entity(make_entity("lonely")).id, Role.SIMULACRUM)
    with pytest.raises(GraphViolationsError):
        export_turtle(g)
    assert export_turtle(g, force=True)  # force serializes as-is


def test_refused_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "g.ttl"
    path.write_text("old contents\n", encoding="utf-8")
    g = Graph()
    g.state_role(g.upsert_entity(make_entity("lonely")).id, Role.SIMULACRUM)
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


@pytest.mark.parametrize("make_dir", [False, True], ids=["missing-directory", "target-is-a-directory"])
def test_failed_write_names_the_target(tmp_path, make_dir):
    # the temporary file's name is random, so an error naming it would differ from run to run
    target = tmp_path / "taken" if make_dir else tmp_path / "nodir" / "out.ttl"
    if make_dir:
        target.mkdir()
    with pytest.raises(OSError) as caught:
        write_atomic(target, "text\n")
    assert caught.value.filename == str(target) and caught.value.filename2 is None
    assert str(caught.value).endswith(f": {str(target)!r}")
    assert [p.name for p in tmp_path.rglob("*")] == (["taken"] if make_dir else [])


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
def test_replaced_file_keeps_its_mode(tmp_path, mode):
    target = tmp_path / "out.ttl"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(mode)
    write_atomic(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_new_file_takes_the_umask_mode(tmp_path):
    mask = os.umask(0o027)
    try:
        write_atomic(tmp_path / "out.ttl", "new\n")
    finally:
        os.umask(mask)
    assert stat.S_IMODE((tmp_path / "out.ttl").stat().st_mode) == 0o640


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


def _reference_triples(g: Graph) -> list:
    """Brute-force enumeration of a graph's statements, straight from the
    stores and the extra triples; a statement two of them hold is listed
    twice."""
    triples = []
    for sim in g.simulations.values():
        triples.append((sim.id, RDF_TYPE, sim.kind.schema_iri))
        triples.extend((sim.id, SIM_HAS_SIMULACRUM, a) for a in sim.simulacra)
        triples.extend((sim.id, rel.schema_iri, rc) for rel, rc in sim.reality_counterparts)
        triples.extend((sim.id, SIM_HAS_CONTEXT, c) for c in sim.contexts)
        triples.extend((sim.id, PROV_WAS_DERIVED_FROM, src) for src in sim.sources)
    for entity in g.entities.values():
        triples.append((entity.id, RDFS_LABEL, Literal(entity.label)))
        for role in g.roles_of(entity.id):
            triples.append((entity.id, RDF_TYPE, role.schema_iri))
        for link in entity.external_links:
            triples.append((entity.id, OWL_SAME_AS, link))
    for base, variant in g.variant_edges:
        triples.append((base, SIM_HAS_VARIANT, variant))
    triples.extend(g.extra_triples)
    return triples


def test_emitted_triple_count_equals_stats_total():
    for seed in (3, 17, 29):
        rng = random.Random(seed)
        g = random_graph(rng, max_sims=15)
        for case in ("plain", "repeated statements", "odd statements"):
            if case == "repeated statements":
                add_repeated_statements(g, rng)
            elif case == "odd statements":
                _add_odd_statements(g, rng)
            expected = set(_reference_triples(g))
            assert g.stats().total.n_triples == len(expected), f"seed {seed}, {case}"
            triples = graph_triples(g)
            assert (len(triples), set(triples)) == (len(expected), expected), f"seed {seed}, {case}"


def _reference_export(g: Graph) -> str:
    """The group-and-sort exporter: every statement of ``_reference_triples``
    grouped by subject and predicate, then everything sorted."""
    by_subject: dict = {}
    for s, p, o in _reference_triples(g):
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
    g.upsert_entity(Entity(sim.id, "also an entity"))
    for role in rng.sample([Role.CONTEXT, Role.SOURCE], rng.randint(0, 2)):
        g.state_role(sim.id, role)
    plain = rng.choice(sorted(g.simulations))
    if plain != sim.id:
        g.upsert_entity(Entity(plain, "also an entity"))
        for role in (Role.CONTEXT, Role.SIMULACRUM, Role.SOURCE):
            g.state_role(plain, role)
    g.extra_triples.update(
        {
            (sim.id, RDF_TYPE, Literal("x")),
            (entity.id, RDF_TYPE, Literal("y", "en")),
            (sim.id, RDF_TYPE, other_kind.schema_iri),
            (sim.id, SIM_HAS_SIMULACRUM, g.entities[sim.simulacra[0]].id),  # duplicates a stored triple
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
        add_repeated_statements(g, rng)
        assert export_turtle(g, force=True) == _reference_export(g), f"seed {seed}, repeated statements"
        _add_odd_statements(g, rng)
        assert export_turtle(g, force=True) == _reference_export(g), f"seed {seed}, odd statements"


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    g = random_graph(random.Random(seed), max_sims=8)
    assert import_turtle(export_turtle(g)) == g


def _scrambled_document(g: Graph, rng: random.Random) -> str:
    """``g``'s export, restated in a foreign order: each object list shuffled
    with some objects repeated, predicates reordered, and every subject split
    over two blocks (one predicate's objects may go to both), the blocks
    shuffled."""
    term = _render_term
    blocks = []
    for subject, preds in _parse_statements(export_turtle(g, force=True)).items():
        halves: tuple[dict, dict] = ({}, {})
        for p, objects in preds.items():
            objects = objects + rng.sample(objects, rng.randint(0, len(objects)))
            rng.shuffle(objects)
            cut = rng.randint(0, len(objects)) if rng.random() < 0.3 else rng.choice((0, len(objects)))
            for half, part in zip(halves, (objects[:cut], objects[cut:])):
                if part:
                    half[p] = part
        for half in halves:
            items = list(half.items())
            rng.shuffle(items)
            if items:
                blocks.append(f"{term(subject)} " + " ;\n    ".join(f"{term(p)} {', '.join(map(term, objects))}" for p, objects in items) + " .")
    rng.shuffle(blocks)
    return "".join(f"@prefix {name}: <{ns}> .\n" for name, ns in PREFIXES) + "\n".join(blocks) + "\n"


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_import_is_independent_of_statement_order(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_sims=8)
    add_stated_roles(g, rng)
    text = export_turtle(g, force=True)
    for _ in range(3):
        back = import_turtle(_scrambled_document(g, rng))
        assert back == g
        assert back.simulations == g.simulations  # the same member tuples, in the same order
        assert export_turtle(back, force=True) == text


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
            [make_entity("olderr")],
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


def test_every_echar_escape_is_decoded():
    # ECHAR of W3C RDF 1.1 Turtle: \t \b \n \r \f \" \' \\
    g = import_turtle(
        "@prefix kb: <https://w3id.org/simulation/data/> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        'kb:a rdfs:label "t\\tb\\bn\\nr\\rf\\fq\\"a\\\'s\\\\" .\n'
    )
    assert g.entities[Iri(KB + "a")].label == "t\tb\bn\nr\rf\fq\"a\'s\\"


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
    assert [(rel, g.entities[e].id.local_name) for rel, e in sim.reality_counterparts] == [
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
            [make_entity("olderr")],
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
    assert g.extra_triples == {(Iri(KB + "owl"), RDFS_LABEL, Literal("owl", "en"))}


def test_labels_an_entity_cannot_hold_are_kept():
    doc = (
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix sim: <https://w3id.org/simulation/ontology/> .\n"
        "@prefix kb: <https://w3id.org/simulation/data/> .\n"
        'kb:x a sim:Context ; rdfs:label "b", "a", "Rose"@en .\n'
    )
    g = import_turtle(doc)
    x = Iri(KB + "x")
    assert g.entities[x].label == "Rose"  # the smallest text
    assert g.extra_triples == {(x, RDFS_LABEL, Literal(t, lang)) for t, lang in (("b", None), ("a", None), ("Rose", "en"))}
    text = export_turtle(g, force=True)
    assert 'kb:x a sim:Context ;\n    rdfs:label "Rose", "Rose"@en, "a", "b" .' in text
    assert import_turtle(text) == g
    assert g.stats().total.n_triples == len(graph_triples(g)) == 5


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


def test_unknown_class_defaults_to_generic(capsys):
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
    g = import_turtle(doc)
    assert g.simulations[Iri(KB + "owl-death")].kind is SimulationKind.GENERIC
    assert capsys.readouterr().err == (
        "unknown class http://example.org/Mystery on https://w3id.org/simulation/data/owl-death, "
        "defaulting to the generic simulation\n"
    )


@pytest.mark.parametrize("name", ["eagle", "hook", "penelope"])
def test_golden_files_state_no_role(name):
    # every role type in a golden file is implied by a membership
    g = import_turtle((FIXTURES / "golden" / f"{name}.ttl").read_text(encoding="utf-8"))
    assert g._stated_roles == {}
    assert all(g.roles_of(iri) for iri in g.entities)


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
    assert g.roles_of(Iri(KB + "hindu")) == {Role.CONTEXT}
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
        (_KB_PREFIX + 'kb:a kb:p "x\\uD800" .\n', "line 2, col 11: bad unicode escape \\uD800"),
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


def test_semicolon_directly_before_the_full_stop():
    # Turtle lets a ';' end a predicate list with no predicate after it
    head = _KB_PREFIX + "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    dangling = import_turtle(head + 'kb:x rdfs:label "x" ; .\nkb:y rdfs:label "y" .\n')
    assert dangling == import_turtle(head + 'kb:x rdfs:label "x" .\nkb:y rdfs:label "y" .\n')
    assert dangling.entities[Iri(KB + "x")].label == "x"


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            '@prefix rdfs:<http://www.w3.org/2000/01/rdf-schema#> .\n<http://e.org/a> a "x" ; rdfs:label "a" .\n',
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


_LENIENT_DOC = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix sim: <https://w3id.org/simulation/ontology/> .
@prefix kb: <https://w3id.org/simulation/data/> .
@prefix ex: <http://example.org/> .

kb:olive-peace a sim:Simulation, sim:HealingSimulation, "y" ;
    sim:hasSimulacrum kb:olive ;
    sim:healedRealityCounterpart kb:war ;
    sim:hasRealityCounterpart kb:peace ;
    sim:hasContext kb:greek, "roman" ;
    prov:wasDerivedFrom kb:src .
kb:owl-death a ex:Mystery ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:src .
kb:x-y a "z" ;
    sim:hasSimulacrum kb:x .
kb:e a "x" ;
    rdfs:label "e" .
kb:rose a sim:Simulacrum, ex:Flower ;
    rdfs:label kb:roseLabel, "rose", "Rose"@en ;
    sim:hasVariant kb:whiteRose, "pink rose" ;
    owl:sameAs <http://dbpedia.org/resource/Rose>, "rose" ;
    ex:colour "red" .
"""

_LENIENT_EXPORT = "".join(f"@prefix {name}: <{ns}> .\n" for name, ns in PREFIXES) + """
kb:death a sim:RealityCounterpart ;
    rdfs:label "death" .

kb:e a "x" ;
    rdfs:label "e" .

kb:greek a sim:Context ;
    rdfs:label "greek" .

kb:hindu a sim:Context ;
    rdfs:label "hindu" .

kb:olive a sim:Simulacrum ;
    rdfs:label "olive" .

kb:olive-peace a sim:HealingSimulation, sim:Simulation, "y" ;
    sim:hasSimulacrum kb:olive ;
    sim:hasRealityCounterpart kb:peace ;
    sim:healedRealityCounterpart kb:war ;
    sim:hasContext kb:greek, "roman" ;
    prov:wasDerivedFrom kb:src .

kb:owl a sim:Simulacrum ;
    rdfs:label "owl" .

kb:owl-death a <http://example.org/Mystery>, sim:Simulation ;
    sim:hasSimulacrum kb:owl ;
    sim:hasRealityCounterpart kb:death ;
    sim:hasContext kb:hindu ;
    prov:wasDerivedFrom kb:src .

kb:peace a sim:RealityCounterpart ;
    rdfs:label "peace" .

kb:rose a <http://example.org/Flower>, sim:Simulacrum ;
    rdfs:label kb:roseLabel, "Rose", "Rose"@en, "rose" ;
    sim:hasVariant kb:whiteRose, "pink rose" ;
    owl:sameAs <http://dbpedia.org/resource/Rose>, "rose" ;
    <http://example.org/colour> "red" .

kb:src a sim:Source ;
    rdfs:label "src" .

kb:war a sim:RealityCounterpart ;
    rdfs:label "war" .

kb:whiteRose rdfs:label "whiteRose" .

kb:x a sim:Simulacrum ;
    rdfs:label "x" .

kb:x-y a sim:Simulation, "z" ;
    sim:hasSimulacrum kb:x .
"""


def test_every_lenient_import_branch(capsys):
    # a literal member, literal types on an entity and on simulations, an
    # unknown class, two kinds, a role class beside an unknown type, a
    # literal sameAs and variant, IRI and tagged labels, an unknown predicate
    g = import_turtle(_LENIENT_DOC)
    assert capsys.readouterr().err.splitlines() == [
        "ignoring literal object 'roman' of https://w3id.org/simulation/ontology/hasContext "
        "on https://w3id.org/simulation/data/olive-peace",
        "unknown class http://example.org/Mystery on https://w3id.org/simulation/data/owl-death, "
        "defaulting to the generic simulation",
        "ignoring literal object 'rose' of http://www.w3.org/2002/07/owl#sameAs on https://w3id.org/simulation/data/rose",
        "ignoring literal object 'pink rose' of https://w3id.org/simulation/ontology/hasVariant "
        "on https://w3id.org/simulation/data/rose",
        'unknown class "z" on https://w3id.org/simulation/data/x-y, defaulting to the generic simulation',
    ]
    text = export_turtle(g, force=True)
    assert text == _LENIENT_EXPORT
    assert import_turtle(text) == g
