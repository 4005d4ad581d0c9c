"""Round trip of whatever the converters accept.

Generated dictionary text, synset rows and N-Triples lines go through the
ingest path the CLI runs (read, convert, insert).  Conversion must not
raise, the forced export must re-import to an equal graph, and exporting
that graph again must give the same bytes.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from simkg import Graph, export_turtle, import_turtle, make_entity
from simkg.cli import _insert_all
from simkg.dbpedia import convert_dbpedia, read_triples_file
from simkg.dictionary import PHRASE_TABLE, convert_document
from simkg.wordnet import convert_synsets, read_synset_file

# Label material: plain and multi-word labels, non-ASCII, digits, single
# letters and words that mint to nothing once articles and punctuation go.
WORDS = ["olive", "white rose", "Ünïcode", "x", "a", "the", "42", "α β", "o'brien", "night-bird", "...", "Zeus"]
PUNCTUATION = list(";,:.()[]-'\"~/#<>\\{}|^`&_ ")

DICT_PIECES = st.sampled_from(
    WORDS + PUNCTUATION + [f"{phrase}:" for phrase in PHRASE_TABLE]
    + ["[Greek] ", "[", "] ", "~ ", "~ night-bird:", "~ olive:", "; "]
)
DICT_LINE = st.one_of(
    st.tuples(st.sampled_from(["", "  ", "    ", "      ", "\t"]), st.lists(DICT_PIECES, max_size=6)).map(
        lambda parts: parts[0] + "".join(parts[1])
    ),
    # well-formed lines, so that entries, variant blocks and kinds occur often
    st.sampled_from(["olive", "night-bird", "white rose", "  death; the fertility", "  [Greek] cure for: x",
                     "  ~ night-bird:", "  ~ olive:", "    protection against: Zeus", "    [a, Ünïcode] 42"]),
)
DICT_TEXT = st.lists(DICT_LINE, max_size=12).map("\n".join)

GLOSS_PIECES = st.sampled_from(
    WORDS + ["symbol of", "emblem of", "symbolizes", "(Greek)", "(figurative)", "(", ")", "(<)", "and", "or",
             "who", "which", ";", ".", ",", " "]
)
SYNSET_ROW = st.tuples(
    st.integers(0, 20).map(lambda n: f"http://wordnet-rdf.princeton.edu/id/{n:08d}-n"),
    st.lists(st.sampled_from(WORDS + PUNCTUATION), max_size=3).map("".join),
    st.one_of(
        st.lists(GLOSS_PIECES, max_size=8).map(" ".join),
        st.sampled_from(["(Greek) a symbol of olive and x", "an emblem of white rose, the Zeus; who",
                         "(figurative) symbolizes α β or ...", "( ) a symbol of o'brien"]),
    ),
    st.sampled_from(["0", "1", "true", ""]),
).map("\t".join)

RESOURCES = ["dbr:Eagle", "dbr:Zeus", "dbr:Olive_(tree)", "dbr:Évora", "<http://dbpedia.org/resource/A.B>", "dbr:X"]
NT_OBJECTS = RESOURCES + [
    "dbc:National_symbols_of_Liechtenstein", "dbc:Symbols_of_peace", "dbc:Symbol", "dbc:Birds", "dbo:Deity",
    "dbo:RailwayStation", "dbo:PublicCompany", '"olive branch"', '"x"@en', '"a\\"b"', '"..."', '""',
    '"ü"^^<http://www.w3.org/2001/XMLSchema#string>',
]
NT_LINE = st.tuples(
    st.sampled_from(RESOURCES),
    st.sampled_from(["dbp:symbol", "dct:subject", "rdf:type", "dbo:other"]),
    st.sampled_from(NT_OBJECTS),
    st.sampled_from([" .", ".", " . # note"]),
).map(lambda t: f"{t[0]} {t[1]} {t[2]}{t[3]}")


@settings(max_examples=150, deadline=None)
@given(DICT_TEXT, st.lists(SYNSET_ROW, max_size=6), st.lists(NT_LINE, max_size=8))
def test_converted_input_round_trips(dict_text, synset_rows, nt_lines):
    g = Graph()
    with tempfile.TemporaryDirectory() as tmp:
        tsv, nt = Path(tmp) / "synsets.tsv", Path(tmp) / "symbols.nt"
        tsv.write_text("\n".join(synset_rows) + "\n", encoding="utf-8")
        nt.write_text("\n".join(nt_lines) + "\n", encoding="utf-8")
        records, triples = read_synset_file(tsv), read_triples_file(nt)
    _, conv = convert_document(dict_text, make_entity("dictionary"))
    _insert_all(g, conv, "dictionary")
    _insert_all(g, convert_dbpedia(triples, make_entity("DBpedia")), "warning")
    _insert_all(g, convert_synsets(records, make_entity("Wordnet")), "synsets.tsv")

    text = export_turtle(g, force=True)
    back = import_turtle(text)
    assert back == g
    assert export_turtle(back, force=True) == text
