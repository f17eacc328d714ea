#!/usr/bin/env bash
# CI step: Train a tiny 4-partition model and publish an mmap snapshot
# Run from the repository root (ci/trace_analyzer.sh and the serve steps
# read what it leaves): bash ci/train_and_publish.sh
set -e
PYTHONPATH=src python - <<'EOF'
import contextlib
import io
import re

import numpy as np
from repro.cli import main, save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

n = 120
rng = np.random.default_rng(0)
src = np.concatenate([np.arange(n), rng.integers(0, n, 600)])
dst = np.concatenate(
    [(np.arange(n) + 1) % n,
     (src[n:] + rng.integers(1, 3, 600)) % n]
)
config = ConfigSchema(
    entities={"node": EntitySchema(num_partitions=4)},
    relations=[RelationSchema(
        name="next", lhs="node", rhs="node",
        operator="translation",
    )],
    dimension=16, num_epochs=3, batch_size=200, chunk_size=50,
    num_batch_negs=10, num_uniform_negs=10, lr=0.1,
    pipeline=True,  # from the file: no flag overrides it
)
open("config.json", "w").write(config.to_json())
save_edges("train.npz", EdgeList(
    src, np.zeros(len(src), dtype=np.int64), dst
))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["train", "--config", "config.json",
                 "--edges", "train.npz", "--checkpoint", "ckpt",
                 "--trace", "TRACE_train.json", "--verbose"]) == 0
print(out.getvalue())
# The run-level stats path end to end: integer hits/total.
hits, total = map(int, re.search(
    r"^pipeline: \d+% prefetch hit rate \((\d+)/(\d+)\)",
    out.getvalue(), re.M,
).groups())
assert 0 < hits <= total, (hits, total)
EOF
PYTHONPATH=src python -m repro.cli eval --checkpoint ckpt \
  --edges train.npz --candidates 50
PYTHONPATH=src python -m repro.cli export --checkpoint ckpt \
  --entity-type node --output snapshots --format mmap
