"""rydock: pharmacophore docking on emulated neutral-atom hardware.

Pipeline: contacts between two pharmacophore models become vertices of a
binding graph, geometrically consistent pairs become edges, and the best
pose is the maximum-weight clique, equivalently the maximum-weight
independent set of the complement. That complement embeds as an atom
register whose blockade disk graph reproduces it, a detuning sweep steers
the register toward high-weight independent configurations, and a
variational loop (or a trained regression model) picks the pulse
parameters.

Conventions used throughout:
  * hbar = 1; frequencies in rad/us, durations in ns, distances in um.
  * detuning enters the Hamiltonian as -delta * sum_i w_i n_i, so positive
    delta favours occupation and sweeps run from negative to positive.
  * bitstrings read left to right in register order: character k is atom k,
    "1" means Rydberg.
"""

from .docking import (
    Contact,
    InteractionTable,
    Molecule,
    PharmacophorePoint,
    build_binding_graph,
    default_table,
    enumerate_contacts,
    load_molecule,
)
from .errors import InfeasibilityError, InputError, NumericalError
from .graphs import (
    VertexSubset,
    WeightedGraph,
    brute_force_mwis,
    complement,
    load_graph,
    max_weight_clique,
    save_graph,
)
from .histogram import Histogram, load_histogram, save_histogram
from .optimize import (
    ScoreBreakdown,
    VqaaResult,
    normalized_score,
    qaa_sweep,
    score,
    success_probability,
    vqaa,
)
from .pulses import PulseSequence, complex_sequence, simple_sequence
from .register import (
    DeviceParams,
    Embedding,
    Register,
    blockade_radius,
    embedding_from_positions,
    insert_quantum_link,
    interaction,
    layout,
    load_register,
    save_register,
    strip_ancillas,
)
from .simulator import StateVector, evolve, exact_distribution, measure

__version__ = "0.1.0"

__all__ = [
    "Contact", "InteractionTable", "Molecule", "PharmacophorePoint",
    "build_binding_graph", "default_table", "enumerate_contacts",
    "load_molecule",
    "InfeasibilityError", "InputError", "NumericalError",
    "VertexSubset", "WeightedGraph", "brute_force_mwis", "complement",
    "load_graph", "max_weight_clique", "save_graph",
    "Histogram", "load_histogram", "save_histogram",
    "ScoreBreakdown", "VqaaResult", "normalized_score", "qaa_sweep",
    "score", "success_probability", "vqaa",
    "PulseSequence", "complex_sequence", "simple_sequence",
    "DeviceParams", "Embedding", "Register", "blockade_radius",
    "embedding_from_positions", "insert_quantum_link", "interaction",
    "layout", "load_register", "save_register", "strip_ancillas",
    "StateVector", "evolve", "exact_distribution", "measure",
    "__version__",
]
