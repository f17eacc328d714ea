#!/usr/bin/env bash
# CI step: Serve the same snapshot approximately (IVF, 2 of 8 lists)
# Run from the repository root, after ci/train_and_publish.sh: bash ci/serve_approx.sh
set -e
PYTHONPATH=src python -m repro.cli serve --snapshots snapshots \
  --queries queries.npy --k 5 --index ivfpq \
  --num-lists 8 --nprobe 2 --output approx.npz
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.serving import MmapShardedTable
table = MmapShardedTable.open("snapshots")
n = table.num_items
table.close()
with np.load("exact.npz") as e, np.load("approx.npz") as a:
    truth, found = e["indices"], a["indices"]
assert found.shape == truth.shape, found.shape
assert ((found >= 0) & (found < n)).all(), found
recall = np.mean([
    len(np.intersect1d(f, t)) / len(t)
    for f, t in zip(found, truth)
])
print(f"recall@5 = {recall:.3f}")
assert recall >= 0.6, recall
EOF
