"""Knowledge-graph toolkit for cultural symbolism.

Builds, validates, queries and serializes a graph of "simulations":
typed links between a symbolic element, the meanings it stands for, the
cultural contexts the link is valid in, and the sources that back it.
"""

from .analysis import (
    ColorDistribution,
    EvalCategory,
    EvalReport,
    GoldFormatError,
    color_distribution,
    eval_conversion,
    parse_gold,
)
from .dbpedia import (
    MalformedResponseError,
    NetworkError,
    SymbolPredicate,
    SymbolTriple,
    convert_dbpedia,
    fetch_symbol_data,
    read_triples_file,
)
from .dictionary import (
    Clause,
    DictEntry,
    ParseError,
    convert_document,
    convert_entry,
    parse_dictionary,
)
from .graph import CorpusStats, Graph, SourceStats, UnknownEntityError
from .model import (
    KB,
    OWL,
    PROV,
    RDF,
    RDFS,
    SIM,
    Axiom,
    CardinalityError,
    CycleError,
    EmptyLabelError,
    Entity,
    Iri,
    Literal,
    RcRelation,
    Role,
    Simulation,
    SimulationKind,
    VariantLink,
    build_simulation,
    camel_case,
    general_context,
    make_entity,
    mint_iri,
)
from .query import CqId, MissingBindingError, ResultRow, run_cq, symbolic_meanings
from .serialize import (
    GraphViolationsError,
    TurtleSyntaxError,
    compact_iri,
    export_turtle,
    import_turtle,
    load_graph,
    save_graph,
)
from .validate import Violation, check_axioms
from .wordnet import NoTriggerError, SynsetRecord, convert_synset, convert_synsets, select_synsets

__version__ = "0.1.0"
