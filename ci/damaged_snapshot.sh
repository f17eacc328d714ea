#!/usr/bin/env bash
# CI step: A damaged snapshot is refused (exit 2, "error:" naming the file)
# Run from the repository root, after ci/train_and_publish.sh: bash ci/damaged_snapshot.sh
set -e
rm -rf damaged-snapshots
cp -r snapshots damaged-snapshots
python - <<'EOF'
from pathlib import Path
shard = sorted(Path("damaged-snapshots").glob("v-*/shard-*.bin"))[0]
data = bytearray(shard.read_bytes())
data[len(data) // 2] ^= 0x10
shard.write_bytes(bytes(data))
EOF
rc=0
PYTHONPATH=src python -m repro.cli serve \
  --snapshots damaged-snapshots --queries queries.npy --k 5 \
  2> damaged.err || rc=$?
cat damaged.err
test "$rc" -eq 2
grep -q "^error: .*shard-0" damaged.err
# An id past the table and a retired flag are refused too.
n=$(PYTHONPATH=src python -c "from repro.serving import MmapShardedTable as T; t = T.open('snapshots'); print(t.num_items); t.close()")
rc=0
PYTHONPATH=src python -m repro.cli query --snapshots snapshots \
  --ids "$n" --k 3 2> badid.err || rc=$?
cat badid.err
test "$rc" -eq 2
grep -q "^error: " badid.err
rc=0
PYTHONPATH=src python -m repro.cli serve --snapshots snapshots \
  --queries queries.npy --pq-subvectors 4 2> pq.err || rc=$?
cat pq.err
test "$rc" -eq 2
