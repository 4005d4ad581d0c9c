import pytest

from conftest import FIXTURES
from simkg import (
    EmptyLabelError,
    Iri,
    NoTriggerError,
    SimulationKind,
    SynsetRecord,
    convert_synset,
    convert_synsets,
    make_entity,
    select_synsets,
)
from simkg.wordnet import read_synset_file


@pytest.fixture
def source():
    return make_entity("Wordnet")


PENELOPE = SynsetRecord(
    synset_iri=Iri("http://wordnet-rdf.princeton.edu/id/09616318-n"),
    label="Penelope",
    gloss="(Greek mythology) the wife of Odysseus and a symbol of devotion and fidelity; "
    "she refused to remarry during the long absence of her husband",
)
DOLLAR = SynsetRecord(
    synset_iri=Iri("http://wordnet-rdf.princeton.edu/id/06834465-n"),
    label="dollar sign",
    gloss="a symbol of commercialism or greed",
)
LION = SynsetRecord(
    synset_iri=Iri("http://wordnet-rdf.princeton.edu/id/02129165-n"),
    label="lion",
    gloss="a large wild animal of the cat family with yellowish-brown fur",
)


class TestSelect:
    def test_trigger_glosses_kept(self):
        assert select_synsets([DOLLAR]) == [DOLLAR]

    def test_literal_senses_dropped(self):
        assert select_synsets([LION]) == []

    def test_hyponym_flag_kept_without_trigger(self):
        flagged = SynsetRecord(Iri("http://example.org/s"), "token", "a small metal disc", True)
        assert select_synsets([flagged]) == [flagged]

    def test_empty(self):
        assert select_synsets([]) == []

    def test_word_boundary_on_trigger(self):
        tricky = SynsetRecord(Iri("http://example.org/s"), "office", "a symbol office supplies")
        assert select_synsets([tricky]) == []


class TestConvert:
    def test_penelope_two_simulations(self, source):
        sims = convert_synset(PENELOPE, source)
        assert {s.id.local_name for s in sims} == {"penelope-devotion", "penelope-fidelity"}
        for sim in sims:
            assert sim.contexts[0].id.local_name == "greekMythology"
            assert sim.simulacrum.external_links == {PENELOPE.synset_iri}
            assert sim.kind is SimulationKind.GENERIC

    def test_dollar_sign_or_split(self, source):
        sims = convert_synset(DOLLAR, source)
        assert {s.id.local_name for s in sims} == {"dollarSign-commercialism", "dollarSign-greed"}
        assert all(s.contexts[0].id.local_name == "generalOrUnknown" for s in sims)

    def test_no_trigger_raises(self, source):
        with pytest.raises(NoTriggerError):
            convert_synset(LION, source)

    def test_boundary_stops_at_relative_clause(self, source):
        record = SynsetRecord(
            Iri("http://example.org/kingfisher"),
            "kingfisher",
            "a symbol of calm and serenity who appears in Greek legend",
        )
        sims = convert_synset(record, source)
        assert {s.id.local_name for s in sims} == {"kingfisher-calm", "kingfisher-serenity"}

    def test_figurative_marker_becomes_context(self, source):
        record = SynsetRecord(
            Iri("http://example.org/albatross2"),
            "albatross",
            "(figurative) a symbol of burden",
        )
        sims = convert_synset(record, source)
        assert sims[0].contexts[0].id.local_name == "figurative"

    def test_every_simulacrum_links_to_its_synset(self, source):
        for record in (PENELOPE, DOLLAR):
            for sim in convert_synset(record, source):
                assert sim.simulacrum.external_links == {record.synset_iri}

    def test_output_count_matches_string_scan(self, source):
        # independent oracle: count enumerated terms by scanning the tail text
        import re

        records = [PENELOPE, DOLLAR]
        expected = 0
        for r in records:
            gloss = re.sub(r"^\([^)]*\)\s*", "", r.gloss)
            tail = re.split(r"symbol of|emblem of|symbolizes", gloss, maxsplit=1)[1]
            tail = re.split(r";|\.", tail)[0]
            expected += len([t for t in re.split(r",|\band\b|\bor\b", tail) if t.strip()])
        produced = sum(len(convert_synset(r, source)) for r in records)
        assert produced == expected


class TestBatch:
    def test_fixture_file_batch(self, source):
        records = read_synset_file(FIXTURES / "penelope.tsv")
        assert len(records) == 5
        out = convert_synsets(records, source)
        ids = {s.id.local_name for s in out.simulations}
        assert ids == {
            "penelope-devotion",
            "penelope-fidelity",
            "dollarSign-commercialism",
            "dollarSign-greed",
            "whiteHeron-purity",
            "whiteHeron-longevity",
        }
        # albatross: selected via the hyponym flag but has no trigger phrase
        assert [r.label for r in out.skipped] == ["albatross"]
        assert any("figurative" in w for w in out.warnings)
        assert any("no trigger" in w for w in out.warnings)

    @pytest.mark.parametrize(
        "label, gloss, bad",
        [("...", "a symbol of peace", "..."), ("dove", "(<) a symbol of peace", "<"), ("", "a symbol of peace", None)],
        ids=["label", "leading-context", "empty-label"],
    )
    def test_unmintable_label_skips_the_record(self, source, label, gloss, bad):
        record = SynsetRecord(Iri("http://example.org/synset/x"), label, gloss)
        out = convert_synsets([record, PENELOPE], source)
        reason = f"label {bad!r} has no alphanumeric characters" if bad else "label is empty or whitespace-only"
        assert out.warnings == [f"http://example.org/synset/x: unusable label, record skipped ({reason})"]
        assert out.skipped == [record]
        assert {s.id.local_name for s in out.simulations} == {"penelope-devotion", "penelope-fidelity"}
        with pytest.raises(EmptyLabelError):
            convert_synset(record, source)

    def test_quote_in_gloss_keeps_later_records(self, source, tmp_path):
        # a gloss that starts with '"' is text, not the start of a quoted field
        tsv = tmp_path / "quote.tsv"
        tsv.write_text(
            'http://example.org/olive\tolive\t"olive branch, symbol of peace\t0\n'
            "http://example.org/dove\tdove\ta symbol of peace\t0\n"
            'http://example.org/lily\tlily\ta symbol of purity "and" innocence\t0\n',
            encoding="utf-8",
        )
        records = read_synset_file(tsv)
        assert [(r.label, r.gloss) for r in records] == [
            ("olive", '"olive branch, symbol of peace'),
            ("dove", "a symbol of peace"),
            ("lily", 'a symbol of purity "and" innocence'),
        ]
        ids = {s.id.local_name for s in convert_synsets(records, source).simulations}
        assert ids == {"olive-peace", "dove-peace", "lily-purityAndInnocence"}
