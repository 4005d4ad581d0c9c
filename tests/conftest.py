import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for graphgen

from simkg import (
    Graph,
    RcRelation,
    Role,
    SimulationKind,
    build_simulation,
    make_entity,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def caller_state(request):
    """The cyclic collector on or off, as a caller may have it; the state
    from before the test is put back after it."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def kb(local: str) -> str:
    return "https://w3id.org/simulation/data/" + local


@pytest.fixture
def toy_graph() -> Graph:
    """The small development dataset: olive with two sources, bee, owl,
    a variant chain, one protection, one healing and one two-rc simulation."""
    g = Graph()
    src1 = make_entity("dictionary of symbols 1")
    src2 = make_entity("dictionary of symbols 2")
    olive = make_entity("olive")
    general = make_entity("General or Unknown")

    g.insert_simulation(
        build_simulation(SimulationKind.GENERIC, olive, [(RcRelation.HAS, make_entity("fertility"))], [general], [src1])
    )
    g.insert_simulation(
        build_simulation(SimulationKind.GENERIC, olive, [(RcRelation.HAS, make_entity("immortality"))], [general], [src2])
    )
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            make_entity("bee"),
            [(RcRelation.HAS, make_entity("resurrection"))],
            [make_entity("egyptian")],
            [src1],
        )
    )
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            make_entity("owl"),
            [(RcRelation.HAS, make_entity("death"))],
            [make_entity("hindu"), make_entity("japanese"), make_entity("mayan")],
            [src1],
        )
    )
    night_bird = make_entity("night bird")
    g.insert_simulation(
        build_simulation(SimulationKind.GENERIC, night_bird, [(RcRelation.HAS, make_entity("death"))], [general], [src1])
    )
    bird = make_entity("bird")
    g.add_variant(bird, night_bird)
    g.state_role(bird.id, Role.SIMULACRUM)
    g.insert_simulation(
        build_simulation(
            SimulationKind.PROTECTION,
            make_entity("agate"),
            [(RcRelation.PREVENTED, make_entity("evil spirits"))],
            [make_entity("arabian")],
            [src1],
        )
    )
    g.insert_simulation(
        build_simulation(
            SimulationKind.GENERIC,
            make_entity("agate"),
            [(RcRelation.HAS, make_entity("charm")), (RcRelation.ELICITED, make_entity("healthy blood"))],
            [make_entity("arabian")],
            [src1],
        )
    )
    g.insert_simulation(
        build_simulation(
            SimulationKind.HEALING,
            make_entity("amethyst"),
            [(RcRelation.HEALED, make_entity("drunkenness"))],
            [make_entity("greek")],
            [src1],
        )
    )
    return g
