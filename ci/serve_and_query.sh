#!/usr/bin/env bash
# CI step: Serve and query the snapshot (exact == full-probe IVF)
# Run from the repository root, after ci/train_and_publish.sh: bash ci/serve_and_query.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.serving import MmapShardedTable
table = MmapShardedTable.open("snapshots")
np.save("queries.npy", np.asarray(table.as_array()[:20]))
table.close()
EOF
PYTHONPATH=src python -m repro.cli serve --snapshots snapshots \
  --queries queries.npy --k 5 --index exact --output exact.npz
PYTHONPATH=src python -m repro.cli serve --snapshots snapshots \
  --queries queries.npy --k 5 --index ivfpq \
  --num-lists 8 --nprobe 8 --output ivf.npz
PYTHONPATH=src python -m repro.cli serve --snapshots snapshots \
  --queries queries.npy --k 5 --index exact --slow-batch 0.000001
PYTHONPATH=src python -m repro.cli metrics --snapshots snapshots \
  | grep -q "serve_batch_seconds"
PYTHONPATH=src python -m repro.cli query --snapshots snapshots \
  --ids 0,5 --k 3
PYTHONPATH=src python - <<'EOF'
import numpy as np
with np.load("exact.npz") as e, np.load("ivf.npz") as a:
    np.testing.assert_array_equal(e["indices"], a["indices"])
    np.testing.assert_array_equal(e["scores"], a["scores"])
EOF
