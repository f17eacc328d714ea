#!/usr/bin/env bash
# CI step: Two partitioned types, one direction, pipelined, in process mode
# Run from the repository root: bash ci/one_direction_pipelined.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.cli import save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

users, items, m = 200, 120, 1500
rng = np.random.default_rng(0)
config = ConfigSchema(
    entities={"user": EntitySchema(num_partitions=4),
              "item": EntitySchema(num_partitions=4)},
    relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
    dimension=16, num_epochs=2, batch_size=200, chunk_size=50,
    num_batch_negs=10, num_uniform_negs=10, lr=0.1,
    num_machines=2,
)
open("uconfig.json", "w").write(config.to_json())
save_edges("utrain.npz", EdgeList(
    rng.integers(0, users, m), np.zeros(m, dtype=np.int64),
    rng.integers(0, items, m),
))
EOF
PYTHONPATH=src python -m repro.cli train --config uconfig.json \
  --edges utrain.npz --mode process --pipeline | tee utrain.log
grep -q "^epoch 1: loss " utrain.log
