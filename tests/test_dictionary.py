import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from simkg import (
    Graph,
    Iri,
    RcRelation,
    SimulationKind,
    check_axioms,
    convert_document,
    convert_entry,
    export_turtle,
    make_entity,
    parse_dictionary,
)
import simkg.dictionary
from simkg.dictionary import PHRASE_TABLE
from simkg.model import KB, ParseError

HOOK = (FIXTURES / "hook.dict").read_text(encoding="utf-8")
BIRDS = (FIXTURES / "birds.dict").read_text(encoding="utf-8")


@pytest.fixture
def source():
    return make_entity("olderr")


class TestParse:
    def test_hook_entry_shape(self):
        parsed = parse_dictionary("hook\n  attraction; deceitfulness\n  [Christian] Christ's power to draw souls\n  related to: crescent moon\n")
        assert parsed.errors == []
        assert len(parsed.entries) == 1
        entry = parsed.entries[0]
        assert entry.lemma == "hook"
        assert len(entry.clauses) == 3
        assert entry.clauses[0].meaning_terms == ("attraction", "deceitfulness")
        assert entry.clauses[1].context_labels == ("Christian",)
        assert entry.clauses[2].relation_phrase == "related to"
        assert entry.clauses[2].meaning_terms == ("crescent moon",)

    def test_empty_document(self):
        parsed = parse_dictionary("")
        assert parsed.entries == [] and parsed.errors == []

    def test_variant_block(self):
        parsed = parse_dictionary("bird\n  freedom\n  ~ night bird:\n    death\n")
        entry = parsed.entries[0]
        assert entry.variant_blocks == (("night bird", entry.variant_blocks[0][1], 3),)
        label, clauses, _ = entry.variant_blocks[0]
        assert label == "night bird"
        assert clauses[0].meaning_terms == ("death",)

    def test_clause_after_variant_at_same_indent_belongs_to_entry(self):
        parsed = parse_dictionary("bird\n  ~ night bird:\n    death\n  freedom\n")
        entry = parsed.entries[0]
        assert [c.meaning_terms for c in entry.clauses] == [("freedom",)]
        assert entry.variant_blocks[0][1][0].meaning_terms == ("death",)

    def test_line_numbers_recorded(self):
        parsed = parse_dictionary("\nhook\n  attraction\n")
        assert parsed.entries[0].line == 2
        assert parsed.entries[0].clauses[0].line == 3

    @pytest.mark.parametrize(
        "doc, reason_part, line",
        [
            ("  orphan clause\nhook\n  fine\n", "before any lemma", 1),
            ("hook\n  [Christian meaning\n", "unclosed context bracket", 2),
            ("hook\n  related to:\n", "no meaning terms", 2),
            ("hook\n  ~ :\n", "variant block", 2),
            ("hook\n  : oops\n", "empty relation phrase", 2),
        ],
    )
    def test_errors_collected_with_line_numbers(self, doc, reason_part, line):
        parsed = parse_dictionary(doc)
        assert len(parsed.errors) == 1
        assert reason_part in parsed.errors[0].reason
        assert parsed.errors[0].line == line
        assert type(parsed.errors[0]) is ParseError is simkg.dictionary.ParseError

    def test_recovery_continues_at_next_lemma(self):
        doc = "  stray\nhook\n  attraction\nrose\n  love\n"
        parsed = parse_dictionary(doc)
        assert [e.lemma for e in parsed.entries] == ["hook", "rose"]
        assert len(parsed.errors) == 1

    def test_recovery_is_per_line(self):
        # a bad clause costs only its own line; the entry keeps the clauses after it
        parsed = parse_dictionary("hook\n  [unclosed\n  attraction\n")
        assert [(e.lemma, [c.meaning_terms for c in e.clauses]) for e in parsed.entries] == [
            ("hook", [("attraction",)])
        ]
        assert [str(e) for e in parsed.errors] == ["line 2: unclosed context bracket"]

    @staticmethod
    def _terms_by_owner(text):
        parsed = parse_dictionary(text)
        (entry,) = parsed.entries
        owners = {entry.lemma: entry.clauses, **{label: clauses for label, clauses, _ in entry.variant_blocks}}
        return {owner: [c.meaning_terms for c in clauses] for owner, clauses in owners.items()}, [
            str(e) for e in parsed.errors
        ]

    def test_malformed_variant_header_closes_the_open_block(self):
        owners, errors = self._terms_by_owner("rose\n  ~ white rose:\n    purity\n  ~ bad\n    love\n")
        assert owners == {"rose": [("love",)], "white rose": [("purity",)]}
        assert errors == ["line 4: variant block must look like '~ <label>:'"]

    def test_bad_clause_at_block_indent_leaves_the_block_open(self):
        owners, errors = self._terms_by_owner("rose\n  ~ white rose:\n    purity\n  [unclosed x\n    love\n")
        assert owners == {"rose": [], "white rose": [("purity",), ("love",)]}
        assert errors == ["line 4: unclosed context bracket"]

    def test_bad_clause_inside_a_block_does_not_carry_the_next_line_into_it(self):
        owners, errors = self._terms_by_owner("rose\n  ~ white rose:\n    purity\n    [unclosed x\n  love\n")
        assert owners == {"rose": [("love",)], "white rose": [("purity",)]}
        assert errors == ["line 4: unclosed context bracket"]

    @given(st.text(max_size=300))
    @settings(max_examples=60)
    def test_parser_never_raises(self, doc):
        parse_dictionary(doc)


class TestConvert:
    def test_hook_conversion(self, source):
        parsed = parse_dictionary(HOOK)
        out = convert_entry(parsed.entries[0], source)
        assert out.warnings == []
        by_id = {s.id.local_name: s for s in out.simulations}
        assert set(by_id) == {
            "hook-attraction",
            "hook-deceitfulness",
            "hook-christsPowerToDrawSouls",
            "hook-crescentMoon",
            "hook-seaGods",
            "hookAndEye-connection",
        }
        assert by_id["hook-christsPowerToDrawSouls"].contexts[0].id.local_name == "christian"
        assert by_id["hook-crescentMoon"].kind is SimulationKind.RELATEDNESS
        assert by_id["hook-seaGods"].kind is SimulationKind.ATTRIBUTE
        assert by_id["hook-attraction"].contexts[0].id.local_name == "generalOrUnknown"
        assert len(out.variants) == 1
        assert out.variants[0].base.label == "hook"
        assert out.variants[0].variant.label == "hook and eye"

    def test_phrase_table_protection(self, source):
        parsed = parse_dictionary("agate\n  protection from: evil spirits\n")
        out = convert_entry(parsed.entries[0], source)
        sim = out.simulations[0]
        assert sim.kind is SimulationKind.PROTECTION
        assert sim.reality_counterparts == ((RcRelation.PREVENTED, sim.reality_counterparts[0][1]),)
        assert sim.reality_counterparts[0][1].id.local_name == "evilSpirits"

    def test_phrase_table_healing_and_charm(self, source):
        parsed = parse_dictionary("agate\n  cure for: fevers\n  charm for: healthy blood\n")
        out = convert_entry(parsed.entries[0], source)
        kinds = {s.id.local_name: (s.kind, s.reality_counterparts[0][0]) for s in out.simulations}
        assert kinds["agate-fevers"] == (SimulationKind.HEALING, RcRelation.HEALED)
        assert kinds["agate-healthyBlood"] == (SimulationKind.GENERIC, RcRelation.ELICITED)

    def test_olive_example(self, source):
        src = make_entity("dictionary of symbols 1")
        parsed = parse_dictionary("olive\n  fertility\n")
        out = convert_entry(parsed.entries[0], src)
        sim = out.simulations[0]
        assert sim.id == Iri(KB + "olive-fertility")
        assert sim.sources[0].id.local_name == "dictionaryOfSymbols1"

    def test_unknown_phrase_demoted_with_warning(self, source):
        parsed = parse_dictionary("hook\n  reminiscent of: barbs\n")
        out = convert_entry(parsed.entries[0], source)
        assert len(out.warnings) == 1
        assert "unknown relation phrase" in out.warnings[0]
        assert out.simulations[0].kind is SimulationKind.GENERIC
        assert out.simulations[0].reality_counterparts[0][0] is RcRelation.HAS

    def test_custom_phrase_table(self, source):
        table = dict(PHRASE_TABLE)
        table["reminiscent of"] = (SimulationKind.ALLUSION, RcRelation.HAS)
        parsed = parse_dictionary("hook\n  reminiscent of: barbs\n")
        out = convert_entry(parsed.entries[0], source, phrase_table=table)
        assert out.warnings == []
        assert out.simulations[0].kind is SimulationKind.ALLUSION

    def test_reflexive_variant_block_is_skipped(self, source):
        # "Hook" mints the lemma's own IRI, so the link would be a self-loop.
        parsed = parse_dictionary("hook\n  attraction\n  ~ Hook:\n    lure\n")
        out = convert_entry(parsed.entries[0], source)
        assert out.warnings == ["line 3: unusable variant label 'Hook', block skipped"]
        assert out.variants == []
        assert [s.id.local_name for s in out.simulations] == ["hook-attraction"]

    def test_unmintable_lemma_skips_the_entry(self, source):
        _, conv = convert_document("...\n  peace\n  ~ dove:\n    love\nrose\n  love\n", source)
        assert conv.warnings == ["line 1: unusable lemma '...', entry skipped"]
        assert [s.id.local_name for s in conv.simulations] == ["rose-love"]
        assert conv.variants == []

    def test_unmintable_context_skips_the_clause(self, source):
        _, conv = convert_document("rose\n  [<] peace\n  [Greek, <] beauty\n  love\n", source)
        reason = "(label '<' has no alphanumeric characters)"
        assert conv.warnings == [
            f"line 2: unusable context, clause skipped {reason}",
            f"line 3: unusable context, clause skipped {reason}",
        ]
        assert [s.id.local_name for s in conv.simulations] == ["rose-love"]

    def test_skipped_clause_gets_one_warning(self, source):
        # the clause is skipped before its unknown relation phrase is looked at
        _, conv = convert_document("rose\n  [<] reminiscent of: peace\n", source)
        assert conv.warnings == ["line 2: unusable context, clause skipped (label '<' has no alphanumeric characters)"]

    def test_unusable_variant_warning_names_the_block_line(self, source):
        _, conv = convert_document("\nhook\n  attraction\n  ~ night bird:\n    death\n  ~ Hook:\n    lure\n", source)
        assert conv.warnings == ["line 6: unusable variant label 'Hook', block skipped"]
        _, conv = convert_document("hook\n  attraction\n  ~ Hook:\n    lure\n", source)
        assert conv.warnings == ["line 3: unusable variant label 'Hook', block skipped"]

    def test_every_simulation_passes_axioms(self, source):
        g = Graph()
        _, conv = convert_document(BIRDS, source)
        for sim in conv.simulations:
            g.insert_simulation(sim)
        for link in conv.variants:
            g.add_variant(link.base, link.variant)
        assert check_axioms(g) == []

    def test_simulation_count_by_brute_force(self, source):
        parsed = parse_dictionary(BIRDS)
        _, conv = convert_document(BIRDS, source)
        # independent recount: meaning terms per clause, variant blocks included
        expected = sum(
            len(clause.meaning_terms)
            for entry in parsed.entries
            for clause in entry.clauses + tuple(c for _, cs, _ in entry.variant_blocks for c in cs)
        )
        assert len(conv.simulations) == expected

    def test_conversion_is_deterministic(self, source):
        def converted_bytes():
            g = Graph()
            _, conv = convert_document(BIRDS, source)
            for sim in conv.simulations:
                g.insert_simulation(sim)
            for link in conv.variants:
                g.add_variant(link.base, link.variant)
            return export_turtle(g)

        assert converted_bytes() == converted_bytes()


def _generated_dictionary(seed: int, n_entries: int = 300) -> str:
    """A seeded dictionary that repeats a small vocabulary many times."""
    rng = random.Random(seed)
    words = ["rose", "olive", "dove", "oak", "lily", "moon", "sun", "snake", "eagle", "lamb", "fire", "water"]
    contexts = ["Christian", "Greek", "Egyptian", "Hindu", "Celtic"]
    phrases = ["", "", "related to: ", "emblem of: ", "associated with: ", "unknown phrase: "]
    lines = []
    for _ in range(n_entries):
        lemma = " ".join(rng.sample(words, rng.randint(1, 2)))
        lines.append(lemma)
        for _ in range(rng.randint(1, 4)):
            bracket = f"[{', '.join(rng.sample(contexts, rng.randint(1, 2)))}] " if rng.random() < 0.5 else ""
            lines.append(f"  {bracket}{rng.choice(phrases)}{'; '.join(rng.sample(words, rng.randint(1, 3)))}")
        if rng.random() < 0.3:
            lines.append(f"  ~ {lemma} {rng.choice(words)}:")
            lines.append(f"    {rng.choice(words)}; {rng.choice(contexts)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [HOOK, BIRDS, _generated_dictionary(7)],
    ids=["hook", "birds", "generated-seed-7"],
)
def test_equal_members_are_one_object(text, source):
    _, conv = convert_document(text, source)
    first: dict = {}
    members = [e for sim in conv.simulations for e in sim.members()]
    members += [e for link in conv.variants for e in (link.base, link.variant)]
    for e in members:
        key = (e.id, e.label, e.external_links)
        assert first.setdefault(key, e) is e
    assert len(first) < len(members)  # the same labels do recur
