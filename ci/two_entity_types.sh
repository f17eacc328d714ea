#!/usr/bin/env bash
# CI step: Two entity types in process mode (one partitioned, one not)
# Run from the repository root: bash ci/two_entity_types.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.cli import save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

users, items, m = 200, 40, 1500
rng = np.random.default_rng(0)
follows = rng.integers(0, users, m)
buyers = rng.integers(0, users, m)
config = ConfigSchema(
    entities={"user": EntitySchema(num_partitions=4),
              "item": EntitySchema()},
    relations=[
        RelationSchema(name="follows", lhs="user", rhs="user"),
        RelationSchema(name="buys", lhs="user", rhs="item"),
    ],
    dimension=16, num_epochs=2, batch_size=200, chunk_size=50,
    num_batch_negs=10, num_uniform_negs=10, lr=0.1,
    num_machines=2,
)
open("tconfig.json", "w").write(config.to_json())
save_edges("ttrain.npz", EdgeList(
    np.concatenate([follows, buyers]),
    np.repeat([0, 1], m),
    np.concatenate([(follows + rng.integers(1, 3, m)) % users,
                    buyers % items]),
))
EOF
PYTHONPATH=src python -m repro.cli train --config tconfig.json \
  --edges ttrain.npz --mode process --checkpoint tckpt | tee ttrain.log
grep -q "^epoch 1: loss " ttrain.log
PYTHONPATH=src python -m repro.cli eval --checkpoint tckpt \
  --edges ttrain.npz --candidates 20
