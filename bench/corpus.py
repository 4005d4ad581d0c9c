"""Seeded generator of source files shaped like the paper's corpus.

``generate(seed)`` returns a :class:`Corpus`: the text of the three
source files the program receives (a plain-text dictionary, a DBpedia-style
triple file and a synset TSV) and a :class:`Model` of what those files
mean.  The model is built from the generator's own choices, never from the
program's output, so the oracle in ``oracle.py`` can answer from it
independently.  The same seed always gives byte-identical files.

The corpus is ``SCALE`` (one tenth) of the paper's size.  At full size
(``SCALE = 1``) it comes close to the paper's totals, about 40.7k
simulations and 491k triples against 41,416 and 498,525, but each CLI
command then takes 10-20 s on two cores, too long for a benchmark run.

The generator keeps away from one known defect on purpose: a meaning
always carries the same relation phrase, so no lemma ever mints one
simulation IRI with two kinds (that aborts a whole dictionary ingest
today).  ``PROBE_DICT`` is the separate probe that keeps the defect
visible.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field

KB = "https://w3id.org/simulation/data/"
SIM = "https://w3id.org/simulation/ontology/"
WN = "http://wordnet-rdf.princeton.edu/id/"

GENERAL_CONTEXT = "General or Unknown"
DICT_SOURCE = "corpus"  # ingest-dict labels the source with the file stem
DBPEDIA_SOURCE = "DBpedia"
WORDNET_SOURCE = "Wordnet"

HAS = "hasRealityCounterpart"

SCALE = 0.1
# The paper's source has a cross-entry variant chain of about 1,500 links.
# The variant-cycle checks (in validate and in Graph.add_variant) are
# quadratic in chain depth, while the rest of the work is linear in corpus
# size; a depth of 1,500 * sqrt(SCALE) keeps their share of the time what
# it is at full size.
CHAIN_DEPTH = round(1500 * SCALE ** 0.5)

# The relation phrases of the dictionary format, with the simulation kind
# and reality-counterpart relation each selects (the program's default
# phrase table, restated so the oracle does not read it from the program).
PHRASES: dict[str, tuple[str, str]] = {
    "related to": ("Relatedness", HAS),
    "attribute of": ("Attribute", HAS),
    "associated with": ("Association", HAS),
    "corresponds to": ("Correspondence", HAS),
    "manifestation of": ("Manifestation", HAS),
    "allusion to": ("Allusion", HAS),
    "emblem of": ("Emblematic", HAS),
    "protection from": ("Protection", "preventedRealityCounterpart"),
    "protection against": ("Protection", "preventedRealityCounterpart"),
    "cure for": ("Healing", "healedRealityCounterpart"),
    "heals": ("Healing", "healedRealityCounterpart"),
    "charm for": ("Generic", "elicitedRealityCounterpart"),
    "restores": ("Generic", "restoredRealityCounterpart"),
    "eases": ("Generic", "easedRealityCounterpart"),
}

# 36 DBpedia classes used as subject types; the last two are the types
# the converter drops.
DBPEDIA_TYPES = (
    "Place", "PopulatedPlace", "Country", "City", "Town", "Village", "Region",
    "Island", "Mountain", "River", "Lake", "Organisation", "SportsTeam",
    "SoccerClub", "University", "School", "PoliticalParty", "Company",
    "Band", "Person", "Monarch", "Saint", "Deity", "Religion", "Ethnicity",
    "Language", "MilitaryUnit", "Festival", "Building", "Castle", "Church",
    "Monument", "Park", "Ship", "RailwayStation", "PublicCompany",
)
EXCLUDED_TYPES = ("RailwayStation", "PublicCompany")
TRIGGERS = ("symbol of", "emblem of", "symbolizes")
COLORS = ("white", "red", "green", "black", "gold", "golden", "blue", "purple")

# The known defect: the same meaning under two kinds within one lemma.
PROBE_DICT = "hook\n  attraction\n  related to: attraction\n"

# Consonant-vowel words can never spell a word the synset gloss parser
# treats specially ("and", "or", "a", "the", "who", "which", a trigger).
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def mint(label: str) -> str:
    """camelCase local name of a generated label (letters and spaces only)."""
    words = label.split()
    return words[0].lower() + "".join(w[0].upper() + w[1:] for w in words[1:])


def kb(label: str) -> str:
    return KB + mint(label)


@dataclass
class EntityRec:
    label: str
    roles: set[str] = field(default_factory=set)
    links: set[str] = field(default_factory=set)


@dataclass
class SimRec:
    kind: str
    simulacrum: str
    rcs: set[tuple[str, str]] = field(default_factory=set)
    contexts: set[str] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)


@dataclass
class Model:
    """What the merged corpus graph must hold, keyed by IRI."""

    entities: dict[str, EntityRec] = field(default_factory=dict)
    sims: dict[str, SimRec] = field(default_factory=dict)
    variants: set[tuple[str, str]] = field(default_factory=set)

    def entity(self, label: str, role: str = "", link: str = "") -> str:
        iri = kb(label)
        rec = self.entities.get(iri)
        if rec is None:
            rec = self.entities[iri] = EntityRec(label)
        elif label < rec.label:
            rec.label = label
        if role:
            rec.roles.add(role)
        if link:
            rec.links.add(link)
        return iri

    def add_sim(self, kind, simulacrum, rcs, contexts, source, link="") -> str:
        """Insert one simulation from labels; merges like the store does."""
        s = self.entity(simulacrum, "Simulacrum", link)
        rc_iris = [(rel, self.entity(label, "RealityCounterpart")) for rel, label in rcs]
        sim_id = KB + "-".join([mint(simulacrum)] + list(dict.fromkeys(mint(l) for _, l in rcs)))
        rec = self.sims.get(sim_id)
        if rec is None:
            rec = self.sims[sim_id] = SimRec(kind, s)
        elif rec.kind != kind:
            raise AssertionError(f"generator minted {sim_id} with two kinds")
        rec.rcs.update(rc_iris)
        rec.contexts.update(self.entity(c, "Context") for c in contexts)
        rec.sources.add(self.entity(source, "Source"))
        return sim_id

    def add_variant(self, base: str, variant: str) -> None:
        self.variants.add((self.entity(base), self.entity(variant)))

    def n_triples(self) -> int:
        """Statements the exporter emits for this model."""
        n = sum(2 + len(s.rcs) + len(s.contexts) + len(s.sources) for s in self.sims.values())
        n += sum(1 + len(e.roles) + len(e.links) for e in self.entities.values())
        return n + len(self.variants)


@dataclass
class SourceCounts:
    """The numbers each ingest command prints in its stderr summary."""

    dict_entries: int = 0
    dict_sims: int = 0
    dict_variants: int = 0
    dbpedia_triples: int = 0
    dbpedia_symbol_rows: int = 0
    dbpedia_sims: int = 0
    wordnet_records: int = 0
    wordnet_selected: int = 0
    wordnet_sims: int = 0
    wordnet_skipped: int = 0


@dataclass
class Corpus:
    seed: int
    dict_text: str
    nt_text: str
    tsv_text: str
    model: Model
    counts: SourceCounts
    chain_depth: int


class _Vocab:
    """Distinct pseudo-words; no two labels mint to the same IRI."""

    def __init__(self, rng: random.Random, reserved=()):
        self.rng = rng
        self.used = {mint(r) for r in reserved}

    def word(self, lo=2, hi=3) -> str:
        n = self.rng.randint(lo, hi)
        return "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(n))

    def label(self, n_words=1, capitalize=False, prefix="") -> str:
        while True:
            words = [prefix] if prefix else []
            words += [self.word() for _ in range(n_words)]
            if capitalize:
                words = [w.capitalize() for w in words]
            text = " ".join(words)
            if mint(text) not in self.used:
                self.used.add(mint(text))
                return text


class Zipf:
    def __init__(self, items, s=1.0):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (i + 1) ** s for i in range(len(items))))

    def pick(self, rng: random.Random):
        return self.items[bisect.bisect(self.cum, rng.random() * self.cum[-1])]

    def sample(self, rng: random.Random, k: int) -> list:
        out: dict = {}
        while len(out) < min(k, len(self.items)):
            out.setdefault(self.pick(rng), None)
        return list(out)


def generate(seed: int) -> Corpus:
    rng = random.Random(seed)
    model = Model()
    counts = SourceCounts()
    vocab = _Vocab(rng, reserved=[GENERAL_CONTEXT, DICT_SOURCE, DBPEDIA_SOURCE, WORDNET_SOURCE, "figurative", *DBPEDIA_TYPES])

    n_lemmas = max(60, round(8900 * SCALE))
    lemmas = []
    for _ in range(n_lemmas):
        roll = rng.random()
        if roll < 0.08:
            lemmas.append(vocab.label(1, prefix=rng.choice(COLORS)))
        else:
            lemmas.append(vocab.label(1 if roll < 0.7 else 2))
    n_meanings = max(40, round(6200 * SCALE))
    meanings = [vocab.label(1 if rng.random() < 0.8 else 2) for _ in range(n_meanings)]
    # a share of meanings are themselves symbols, so meaning chains exist
    meanings += rng.sample(lemmas, n_lemmas // 20)
    rng.shuffle(meanings)
    contexts = [vocab.label(1, capitalize=True) for _ in range(303)]

    # Kind by meaning: one phrase per meaning, so no lemma mixes kinds.
    # Phrases follow the meaning's popularity rank (7 in 25, cycling through
    # the table), so every seed gives each kind the same share of the work.
    phrase_names = list(PHRASES)
    phrase_of = {m: (phrase_names[(i // 25 + i) % len(phrase_names)] if i % 25 < 7 else None)
                 for i, m in enumerate(meanings)}
    plain = [m for m in meanings if phrase_of[m] is None]

    dict_text = _dictionary(rng, vocab, model, counts, lemmas, meanings, contexts, phrase_of)
    chain_depth = _longest_chain(model.variants)
    nt_text = _dbpedia(rng, vocab, model, counts, lemmas)
    tsv_text = _wordnet(rng, vocab, model, counts, lemmas, plain)
    return Corpus(seed, dict_text, nt_text, tsv_text, model, counts, chain_depth)


def _dictionary(rng, vocab, model, counts, lemmas, meanings, contexts, phrase_of) -> str:
    meaning_z = Zipf(meanings, 0.8)
    context_z = Zipf(contexts, 0.9)
    # one deep cross-entry variant chain, plus short ones
    depth = CHAIN_DEPTH
    order = rng.sample(range(len(lemmas)), len(lemmas))
    chain_next: dict[int, int] = {}
    for a, b in zip(order[:depth], order[1:depth + 1]):
        chain_next[a] = b
    pos = depth + 1
    while pos + 4 < len(order) * 0.6:
        n = rng.randint(2, 4)
        for a, b in zip(order[pos:pos + n], order[pos + 1:pos + n + 1]):
            chain_next[a] = b
        pos += n + 1

    def clause_lines(simulacrum, terms, indent) -> list[str]:
        groups: dict = {}
        for t in terms:
            groups.setdefault(phrase_of[t], []).append(t)
        lines = []
        for phrase, group in groups.items():
            while group:
                take = group[: rng.randint(1, 3)]
                group = group[len(take):]
                ctx = context_z.sample(rng, rng.choice((0, 1, 2, 3, 4, 6, 8, 10, 12, 15, 20)))
                head = f"[{', '.join(ctx)}] " if ctx else ""
                if phrase:
                    head += f"{phrase}: "
                lines.append(" " * indent + head + "; ".join(take))
                kind, rel = PHRASES[phrase] if phrase else ("Generic", HAS)
                for t in take:
                    model.add_sim(kind, simulacrum, [(rel, t)], ctx or [GENERAL_CONTEXT], DICT_SOURCE)
                    counts.dict_sims += 1
        return lines

    entries = []
    for i, lemma in enumerate(lemmas):
        lines = [lemma]
        own = meaning_z.sample(rng, rng.choice((1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6)))
        lines += clause_lines(lemma, own, 2)
        blocks = []
        if i in chain_next:
            blocks.append(lemmas[chain_next[i]])
        if rng.random() < 0.12:
            blocks.append(vocab.label(1, prefix=lemma.split()[0]))
        for variant in blocks:
            lines.append(f"  ~ {variant}:")
            lines += clause_lines(variant, meaning_z.sample(rng, rng.randint(1, 2)), 4)
            model.add_variant(lemma, variant)
            counts.dict_variants += 1
        entries.append((lemma, "\n".join(lines)))
        counts.dict_entries += 1
    entries.sort()  # a dictionary is alphabetical, the chain is not
    return "\n\n".join(text for _, text in entries) + "\n"


def _longest_chain(edges: set[tuple[str, str]]) -> int:
    children: dict[str, list[str]] = {}
    has_parent = set()
    for a, b in edges:
        children.setdefault(a, []).append(b)
        has_parent.add(b)
    best = 0
    for root in children:
        if root in has_parent:
            continue
        stack = [(root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in children.get(node, ()))
    return best


def _dbpedia(rng, vocab, model, counts, lemmas) -> str:
    n_places = max(20, round(1500 * SCALE))
    places = [vocab.label(1 if rng.random() < 0.7 else 2, capitalize=True) for _ in range(n_places)]
    symbol_z = Zipf(lemmas, 0.6)
    general_types = [t for t in DBPEDIA_TYPES if t not in EXCLUDED_TYPES]
    lines = []
    place_types: dict[str, list[str]] = {}
    for place in places:
        types = rng.sample(general_types, rng.randint(1, 5))
        if rng.random() < 0.09:
            types.append(rng.choice(EXCLUDED_TYPES))
        place_types[place] = sorted(types)
        for t in types:
            lines.append(f"dbr:{_res(place)} rdf:type dbo:{t} .")

    n_rows = max(30, round(3700 * SCALE))
    rows: dict[tuple[str, str], str] = {}  # (place, symbol label) -> rendered object
    while len(rows) < n_rows:
        place = rng.choice(places)
        roll = rng.random()
        if roll < 0.6:
            symbol = symbol_z.pick(rng)
            obj = f"dbr:{_res(symbol)}"
            label = symbol[0].upper() + symbol[1:]
        elif roll < 0.9:
            label = vocab.label(1, capitalize=True)
            obj = f"dbr:{_res(label)}"
        else:
            label = symbol_z.pick(rng)
            obj = f'"{label}"'
        rows.setdefault((place, label), obj)
    for (place, label), obj in rows.items():
        lines.append(f"dbr:{_res(place)} dbp:symbol {obj} .")
        counts.dbpedia_triples += 1
        counts.dbpedia_symbol_rows += 1
        types = place_types[place]
        if any(t in EXCLUDED_TYPES for t in types):
            continue
        model.add_sim("Generic", label, [(HAS, place)], types, DBPEDIA_SOURCE)
        counts.dbpedia_sims += 1

    n_cat = max(6, round(420 * SCALE))
    seen = set()
    while len(seen) < n_cat:
        symbol = symbol_z.pick(rng)
        place = rng.choice(places)
        if (symbol, place) in seen:
            continue
        seen.add((symbol, place))
        cat = rng.choice(("National_symbols_of_", "Symbols_of_"))
        subject = symbol[0].upper() + symbol[1:]
        lines.append(f"dbr:{_res(subject)} dct:subject dbc:{cat}{_res(place)} .")
        counts.dbpedia_triples += 1
        model.add_sim("Generic", subject, [(HAS, place)], [GENERAL_CONTEXT], DBPEDIA_SOURCE)
        counts.dbpedia_sims += 1
        if rng.random() < 0.5:  # a category without "symbol" in it is ignored
            lines.append(f"dbr:{_res(subject)} dct:subject dbc:History_of_{_res(place)} .")
    rng.shuffle(lines)
    return "# symbol-bearing triples, DBpedia style\n" + "\n".join(lines) + "\n"


def _res(label: str) -> str:
    return label.replace(" ", "_")


def _wordnet(rng, vocab, model, counts, lemmas, plain) -> str:
    n_records = max(200, round(20000 * SCALE))
    n_trigger = max(8, round(100 * SCALE))
    n_flagged = max(2, round(6 * SCALE))
    plain_z = Zipf(plain, 0.8)
    kinds = ["trigger"] * n_trigger + ["flagged"] * n_flagged
    kinds += ["plain"] * (n_records - len(kinds))
    rng.shuffle(kinds)
    lines = []
    for i, kind in enumerate(kinds):
        iri = f"{WN}{10_000_000 + 37 * i:08d}-n"
        filler = " ".join(vocab.word() for _ in range(rng.randint(3, 9)))
        label = rng.choice(lemmas) if rng.random() < 0.3 else vocab.word()
        flag = "0"
        if kind == "trigger":
            context = None
            gloss = ""
            if rng.random() < 0.1:
                context = "figurative"
                gloss = "(figurative) "
            roll = rng.random()
            terms = [] if roll < 0.35 else plain_z.sample(rng, 1 if roll < 0.8 else 2)
            written = [("the " + t if rng.random() < 0.2 else t) for t in terms]
            tail = " and ".join([", ".join(written[:-1]), written[-1]]) if len(written) > 1 else "".join(written)
            gloss += f"{filler} {rng.choice(TRIGGERS)} {tail}; {vocab.word()} {vocab.word()}"
            counts.wordnet_selected += 1
            for t in terms:
                model.add_sim("Generic", label, [(HAS, t)], [context or GENERAL_CONTEXT], WORDNET_SOURCE, link=iri)
                counts.wordnet_sims += 1
        else:
            gloss = filler
            if kind == "flagged":
                flag = "1"
                counts.wordnet_selected += 1
                counts.wordnet_skipped += 1
        lines.append(f"{iri}\t{label}\t{gloss}\t{flag}")
        counts.wordnet_records += 1
    return "\n".join(lines) + "\n"
