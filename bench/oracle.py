"""Expected answers, computed from the generator's model only.

The oracle indexes :class:`corpus.Model` and answers every competency
question, the symbolic-meaning path query, the colour distribution and
the graph totals the way the paper defines them.  It never calls the
program.  Writes made during a session are applied with :meth:`add`, so
later answers stay exact.  Rows are sorted tuples of IRI strings, the
shape ``[row.values() for row in run_cq(...)]`` has.
"""

from __future__ import annotations

import re
from collections import defaultdict

from corpus import KB, SIM, Model, SimRec

COLORS = ("white", "red", "green", "black", "gold", "blue", "purple")
COLOR_ALIASES = {"golden": "gold"}
_WORDS = re.compile(r"[^\W_]+")

PREVENTED = "preventedRealityCounterpart"
HEALED = "healedRealityCounterpart"

# Bindings each bound competency question takes, and the role its
# binding is drawn from.
BOUND_CQS = {
    "Q1.1": ("simulacrum", "simulacrum"),
    "Q1.2": ("context", "context"),
    "Q1.3": ("entity", "rc"),
    "Q1.4": ("rc", "rc"),
    "Q2.1": ("simulacrum", "simulacrum"),
    "Q2.3": ("simulation", "simulation"),
    "Q3.1": ("entity", "simulacrum"),
    "Q3.2": ("simulacrum", "simulacrum"),
    "Q3.4": ("rc", "rc"),
}
SCAN_CQS = ("Q1.5", "Q2.2", "Q2.4", "Q3.3", "Q3.5")


class Oracle:
    def __init__(self, model: Model):
        self.model = model
        self.by_simulacrum: dict[str, set[str]] = defaultdict(set)
        self.by_rc: dict[str, set[str]] = defaultdict(set)
        self.by_context: dict[str, set[str]] = defaultdict(set)
        self.children: dict[str, set[str]] = defaultdict(set)
        for sim_id, rec in model.sims.items():
            self._index(sim_id, rec)
        for base, variant in model.variants:
            self.children[base].add(variant)

    def _index(self, sim_id: str, rec: SimRec) -> None:
        self.by_simulacrum[rec.simulacrum].add(sim_id)
        for _, rc in rec.rcs:
            self.by_rc[rc].add(sim_id)
        for c in rec.contexts:
            self.by_context[c].add(sim_id)

    def add(self, sim_id: str, kind: str, simulacrum: str, rcs, contexts, sources) -> None:
        """Apply one write made through the program (IRIs of existing entities)."""
        rec = self.model.sims.get(sim_id)
        if rec is None:
            rec = self.model.sims[sim_id] = SimRec(kind, simulacrum)
        rec.rcs.update(rcs)
        rec.contexts.update(contexts)
        rec.sources.update(sources)
        self._index(sim_id, rec)

    # -- role pools the benchmark draws bindings from -----------------------

    def ranked(self, role: str) -> list[str]:
        """IRIs of one role, heaviest first.  Reads skew towards the head
        of this list, so every seed puts its hot keys on entities of the
        same weight.  A simulacrum's weight also counts its variant
        closure, which the variant-following reads walk: chain members
        otherwise land at the head by chance, at a different depth in
        each seed, and the read cost moves with the seed."""
        if role == "simulation":
            sims = self.model.sims
            return sorted(sims, key=lambda s: (-len(sims[s].rcs) - len(sims[s].contexts), s))
        index = {"simulacrum": self.by_simulacrum, "rc": self.by_rc, "context": self.by_context}[role]
        if role == "simulacrum":
            weight = {iri: len(index[iri]) + len(self.closure(iri)) for iri in index}
            return sorted(index, key=lambda iri: (-weight[iri], iri))
        return sorted(index, key=lambda iri: (-len(index[iri]), iri))

    # -- answers ------------------------------------------------------------

    def meanings_of(self, iri: str) -> set[str]:
        return {rc for s in self.by_simulacrum.get(iri, ()) for _, rc in self.model.sims[s].rcs}

    def closure(self, iri: str) -> set[str]:
        found, stack = set(), [iri]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                if child not in found and child != iri:
                    found.add(child)
                    stack.append(child)
        return found

    def symbolic_meanings(self, iri: str, include_variants=False, repeat=False) -> set[str]:
        frontier = {iri} | (self.closure(iri) if include_variants else set())
        found: set[str] = set()
        while frontier:
            reached = set().union(*(self.meanings_of(i) for i in frontier))
            frontier = reached - found
            found |= frontier
            if not repeat:
                break
        return found

    def _same_simulacrum(self, simulacrum: str) -> list[tuple]:
        sims = [(s, self.model.sims[s]) for s in self.by_simulacrum.get(simulacrum, ())]
        sims = [(s, r) for s, r in sims if r.sources]
        if len(sims) < 2 or len({src for _, r in sims for src in r.sources}) < 2:
            return []
        return [(s, rc, src) for s, r in sims for _, rc in r.rcs for src in r.sources]

    def cq(self, cq: str, value: str = "") -> list[tuple]:
        sims = self.model.sims
        if cq == "Q1.1":
            rows = [(rc,) for rc in self.meanings_of(value)]
        elif cq == "Q1.2":
            rows = [(s,) for s in self.by_context.get(value, ())]
        elif cq == "Q1.3":
            rows = [(s,) for s in self.by_simulacrum.get(value, set()) | self.by_rc.get(value, set())]
        elif cq == "Q1.4":
            rows = [(sims[s].simulacrum, c) for s in self.by_rc.get(value, ()) for c in sims[s].contexts]
        elif cq == "Q2.1":
            rows = self._same_simulacrum(value)
        elif cq == "Q2.3":
            rows = [(src,) for src in sims[value].sources]
        elif cq == "Q3.1":
            rows = [(v,) for v in self.closure(value)]
        elif cq == "Q3.2":
            rows = [(m,) for m in self.symbolic_meanings(value, include_variants=True)]
        elif cq == "Q3.4":
            rows = [
                (s, rc, SIM + rel)
                for s in self.by_rc.get(value, ())
                if len({rc for _, rc in sims[s].rcs}) >= 2
                for rel, rc in sims[s].rcs
            ]
        elif cq in ("Q1.5", "Q2.4"):
            rows = []  # every simulation has one simulacrum and a source
        elif cq == "Q2.2":
            rows = [row for a in self.by_simulacrum for row in self._same_simulacrum(a)]
        elif cq == "Q3.3":
            rows = [(s, rc) for s, r in sims.items() if r.kind == "Protection" for rel, rc in r.rcs if rel == PREVENTED]
        elif cq == "Q3.5":
            rows = [
                (s, r.simulacrum, c, rc)
                for s, r in sims.items() if r.kind == "Healing"
                for c in r.contexts for rel, rc in r.rcs if rel == HEALED
            ]
        else:
            raise ValueError(cq)
        return sorted(set(rows))

    def color_distribution(self, target: str) -> list[tuple[str, tuple]]:
        """(meaning, ((colour, simulacra), ...)) rows, colours with hits only."""
        rows = []
        for meaning in sorted(self.symbolic_meanings(target)):
            sharers = {self.model.sims[s].simulacrum for s in self.by_rc.get(meaning, ())} - {target}
            counts = dict.fromkeys(COLORS, 0)
            for iri in sharers:
                words = {COLOR_ALIASES.get(w, w) for w in _WORDS.findall(self.model.entities[iri].label.lower())}
                for color in words & counts.keys():
                    counts[color] += 1
            rows.append((meaning, tuple((c, n) for c, n in counts.items() if n)))
        return rows

    def compact(self, iri: str) -> str:
        return "kb:" + iri[len(KB):] if iri.startswith(KB) else f"<{iri}>"
