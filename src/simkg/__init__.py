"""Knowledge-graph toolkit for cultural symbolism.

Builds, validates, queries and serializes a graph of "simulations":
typed links between a symbolic element, the meanings it stands for, the
cultural contexts the link is valid in, and the sources that back it.

The public names below load their submodule on first use (PEP 562), so
``import simkg`` loads no submodule, and a command loads only the modules
it runs.
"""

from importlib import import_module

_PUBLIC_NAMES = {
    "analysis": (
        "ColorDistribution", "EvalCategory", "EvalReport", "GoldFormatError", "color_distribution",
        "eval_conversion", "parse_gold",
    ),
    "dbpedia": (
        "MalformedResponseError", "NetworkError", "SymbolPredicate", "SymbolTriple", "convert_dbpedia",
        "fetch_symbol_data", "read_triples_file",
    ),
    "dictionary": ("Clause", "DictEntry", "convert_document", "convert_entry", "parse_dictionary"),
    "graph": ("CorpusStats", "Graph", "SourceStats", "UnknownEntityError"),
    "model": (
        "KB", "OWL", "PROV", "RDF", "RDFS", "SIM", "Axiom", "CardinalityError", "CycleError", "EmptyLabelError",
        "Entity", "Iri", "Literal", "ParseError", "RcRelation", "Role", "Simulation", "SimulationKind",
        "VariantLink", "build_simulation", "camel_case", "general_context", "make_entity", "mint_iri",
    ),
    "query": ("CqId", "MissingBindingError", "ResultRow", "run_cq", "symbolic_meanings"),
    "serialize": (
        "GraphViolationsError", "TurtleSyntaxError", "compact_iri", "export_turtle", "import_turtle",
        "load_graph", "save_graph",
    ),
    "validate": ("Violation", "check_axioms"),
    "wordnet": ("NoTriggerError", "SynsetRecord", "convert_synset", "convert_synsets", "select_synsets"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC_NAMES.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
