"""Knowledge-graph embedding training with equivariance-based
regularization, filtered ranking evaluation, and a nuclear-norm lab."""

from .data import (
    CategoryMap,
    KeyedCSR,
    TripleStore,
    Vocab,
    add_reciprocals,
    build_filter_index,
    generate_synthetic,
    load_categories,
    load_dataset,
    pair_key,
    save_categories,
    save_triples,
)
from .models import (
    ModelKind,
    ModelParams,
    init_params,
    project_constraints,
)
from .nuclear import (
    CheckReport,
    FactorInstance,
    check_instance,
    make_instance,
)
from .ranking import RankingReport, evaluate
from .regularizers import (
    EpsilonState,
    PairSet,
    RegularizerSpec,
    penalty_dura,
    penalty_er,
    penalty_er_second_order,
    penalty_fro,
    penalty_n3,
    sample_path_pairs,
    select_pairs,
)
from .training import (
    TrainConfig,
    TrainHistory,
    batch_objective,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
