#!/usr/bin/env bash
# CI step: one lane and two lanes train the same bits through the CLI.
# Trains a config whose buckets hold many batches twice: under
# `taskset -c 0` (one usable CPU, so one lane) and unrestricted (two
# lanes on a host with two or more CPUs), then compares the two
# checkpoints' partition and shared-parameter files byte for byte.
# Run from the repository root: bash ci/lanes_bit_identical.sh
set -e
PYTHONPATH=src python - <<'EOF'
import numpy as np
from repro.cli import save_edges
from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.graph.edgelist import EdgeList

n, m = 400, 6000
rng = np.random.default_rng(0)
src = rng.integers(0, n, m)
config = ConfigSchema(
    entities={"node": EntitySchema(num_partitions=2)},
    relations=[RelationSchema(
        name="next", lhs="node", rhs="node", operator="translation",
    )],
    dimension=16, num_epochs=2, batch_size=100, chunk_size=25,
    num_batch_negs=10, num_uniform_negs=10, lr=0.1,
)
open("lconfig.json", "w").write(config.to_json())
save_edges("ltrain.npz", EdgeList(
    src, np.zeros(m, dtype=np.int64), (src + rng.integers(1, 4, m)) % n,
))
EOF
rm -rf lckpt-one lckpt-host
PYTHONPATH=src taskset -c 0 python -m repro.cli train --config lconfig.json \
  --edges ltrain.npz --checkpoint lckpt-one | tee ltrain-one.log
PYTHONPATH=src python -m repro.cli train --config lconfig.json \
  --edges ltrain.npz --checkpoint lckpt-host | tee ltrain-host.log
echo "lanes on one CPU: $(PYTHONPATH=src taskset -c 0 python -c \
  'from repro.core.trainer import host_lanes; print(host_lanes())'),"\
  "unrestricted: $(PYTHONPATH=src python -c \
  'from repro.core.trainer import host_lanes; print(host_lanes())')"
for f in shared.bin embeddings/node/part-00000.bin embeddings/node/part-00001.bin; do
  cmp "lckpt-one/$f" "lckpt-host/$f"
done
echo "one lane and the host's lanes wrote identical checkpoints"
