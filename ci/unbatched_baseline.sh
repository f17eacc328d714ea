#!/usr/bin/env bash
# CI step: Figure 4's unbatched baseline, partitioned and pipelined
# Run from the repository root: bash ci/unbatched_baseline.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.cli import save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

n, m = 200, 1500
rng = np.random.default_rng(0)
src = rng.integers(0, n, m)
config = ConfigSchema(
    entities={"node": EntitySchema(num_partitions=4)},
    relations=[RelationSchema(
        name="next", lhs="node", rhs="node",
        operator="translation",
    )],
    dimension=16, num_epochs=2, batch_size=200, chunk_size=1,
    num_batch_negs=0, num_uniform_negs=10, lr=0.1,
)
open("fconfig.json", "w").write(config.to_json())
save_edges("ftrain.npz", EdgeList(
    src, np.zeros(m, dtype=np.int64),
    (src + rng.integers(1, 3, m)) % n,
))
EOF
PYTHONPATH=src python -m repro.cli train --config fconfig.json \
  --edges ftrain.npz --checkpoint fckpt --pipeline | tee ftrain.log
grep -q "^epoch 1: loss " ftrain.log
