#!/usr/bin/env bash
# CI step: Cluster CLI in process mode, checkpointed every epoch
# Run from the repository root: bash ci/cluster_cli.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.cli import save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

n = 120
rng = np.random.default_rng(0)
src = np.concatenate([np.arange(n), rng.integers(0, n, 1000)])
dst = np.concatenate(
    [(np.arange(n) + 1) % n,
     (src[n:] + rng.integers(1, 3, 1000)) % n]
)
config = ConfigSchema(
    entities={"node": EntitySchema(num_partitions=4)},
    relations=[RelationSchema(
        name="next", lhs="node", rhs="node",
        operator="translation",
    )],
    dimension=16, num_epochs=2, batch_size=200, chunk_size=50,
    num_batch_negs=10, num_uniform_negs=10, lr=0.1,
    num_machines=2, stratum_passes=2, eval_fraction=0.1,
)
open("dconfig.json", "w").write(config.to_json())
save_edges("dtrain.npz", EdgeList(
    src, np.zeros(len(src), dtype=np.int64), dst
))
EOF
PYTHONPATH=src python -m repro.cli train --config dconfig.json \
  --edges dtrain.npz --mode process --checkpoint dckpt | tee dtrain.log
grep -q "^epoch 1: loss " dtrain.log
grep -q "^epoch 1: loss .* eval MRR .* held out)$" dtrain.log
PYTHONPATH=src python -m repro.cli eval --checkpoint dckpt \
  --edges dtrain.npz --candidates 50
# A damaged checkpoint is refused (exit 2, "error:" naming the
# file): a copy with its config.json truncated.
rm -rf damaged-dckpt
cp -r dckpt damaged-dckpt
truncate -s 40 damaged-dckpt/config.json
rc=0
PYTHONPATH=src python -m repro.cli eval --checkpoint damaged-dckpt \
  --edges dtrain.npz --candidates 50 2> damaged-dckpt.err || rc=$?
cat damaged-dckpt.err
test "$rc" -eq 2
grep -q "^error: .*damaged-dckpt/config.json" damaged-dckpt.err
# The grant schedule's reserve -> prefetch hook across processes.
PYTHONPATH=src python -m repro.cli train --config dconfig.json \
  --edges dtrain.npz --mode process --pipeline -v | tee dtrain-pipe.log
grep -q "^epoch 1: loss " dtrain-pipe.log
grep -q "reservation accuracy" dtrain-pipe.log
# The configured bucket order reaches the lock server: each epoch's
# visit list crosses the manager to the machines' grants.
PYTHONPATH=src python - <<'EOF'
import json
config = json.load(open("dconfig.json"))
config["bucket_order"] = "chained"
open("dconfig.json", "w").write(json.dumps(config))
EOF
PYTHONPATH=src python -m repro.cli train --config dconfig.json \
  --edges dtrain.npz --mode process | tee dtrain-chained.log
grep -q "^epoch 1: loss " dtrain-chained.log
