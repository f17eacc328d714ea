"""repro — a NumPy reproduction of PyTorch-BigGraph (Lerer et al., 2019).

A large-scale multi-relation graph embedding system: partitioned
training with on-disk swapping, simulated distributed execution (lock
server / partition server / parameter server), batched negative
sampling, and the RESCAL / TransE / DistMult / ComplEx model family —
plus DeepWalk and MILE baselines, ranking and classification
evaluation, and synthetic dataset generators matching the paper's
workloads.

Quickstart::

    import numpy as np
    from repro import ConfigSchema, EntitySchema, RelationSchema
    from repro import EmbeddingModel, Trainer
    from repro.graph import EdgeList, EntityStorage

    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=1)},
        relations=[RelationSchema(name="link", lhs="node", rhs="node")],
        dimension=32, num_epochs=5,
    )
    entities = EntityStorage({"node": 1000})
    edges = EdgeList(src, np.zeros_like(src), dst)
    model = EmbeddingModel(config, entities)
    Trainer(config, model, entities).train(edges)
    vectors = model.global_embeddings("node")
"""

from repro.config import (
    ConfigSchema,
    EntitySchema,
    RelationSchema,
    single_entity_config,
)
from repro.core.checkpointing import load_model, save_model
from repro.core.model import EmbeddingModel
from repro.core.reciprocal import add_reciprocal_edges, add_reciprocal_relations
from repro.core.trainer import Trainer, TrainingStats
from repro.distributed.cluster import DistributedTrainer
from repro.eval.ranking import LinkPredictionEvaluator

__version__ = "1.0.0"

__all__ = [
    "ConfigSchema",
    "EntitySchema",
    "RelationSchema",
    "single_entity_config",
    "EmbeddingModel",
    "Trainer",
    "TrainingStats",
    "DistributedTrainer",
    "LinkPredictionEvaluator",
    "save_model",
    "load_model",
    "add_reciprocal_relations",
    "add_reciprocal_edges",
    "__version__",
]
