"""Tests for the analytic memory model."""

import numpy as np
import pytest

from repro.config import ConfigSchema, EntitySchema, RelationSchema
from repro.core.operators import OPERATORS
from repro.graph.entity_storage import EntityStorage
from repro.graph.partitioning import partition_entities
from repro.stats.memory import MemoryModel, measure_peak_tracemalloc


def _setup(nparts=1, num_nodes=1000, dimension=64, num_machines=1,
           operator="translation"):
    config = ConfigSchema(
        entities={"node": EntitySchema(num_partitions=nparts)},
        relations=[
            RelationSchema(
                name="r", lhs="node", rhs="node", operator=operator
            )
        ],
        dimension=dimension,
        num_machines=num_machines,
    )
    entities = EntityStorage({"node": num_nodes})
    entities.set_partitioning(
        "node",
        partition_entities(num_nodes, nparts, np.random.default_rng(0)),
    )
    return MemoryModel(config, entities)


class TestMemoryModel:
    def test_total_model_bytes(self):
        mm = _setup(dimension=100, num_nodes=1000)
        # 1000 rows * (100 floats + 1 adagrad float) * 4 bytes + rel params
        expected_rows = 1000 * (100 * 4 + 4)
        assert mm.total_model_bytes() == expected_rows + mm.shared_param_bytes()

    def test_shared_params_by_operator(self):
        d = 64
        assert _setup(operator="identity").shared_param_bytes() == 0
        assert _setup(operator="translation").shared_param_bytes() == 2 * d * 4
        assert _setup(operator="linear").shared_param_bytes() == 2 * d * d * 4

    def test_partitioning_divides_peak(self):
        """Peak memory ~ 2/P of the model, the paper's headline."""
        full = _setup(nparts=1).single_machine_peak_bytes()
        p8 = _setup(nparts=8).single_machine_peak_bytes()
        ratio = p8 / full
        assert 2 / 8 * 0.9 < ratio < 2 / 8 * 1.2

    def test_single_partition_peak_is_total(self):
        mm = _setup(nparts=1)
        assert mm.single_machine_peak_bytes() == mm.total_model_bytes()

    def test_two_machine_memory_exceeds_partitioned_single(self):
        """Paper Table 3: 2-machine memory > P-partition single-machine
        memory, because the model moves from disk into cluster RAM."""
        single = _setup(nparts=4).single_machine_peak_bytes()
        dist = _setup(nparts=4, num_machines=2)
        assert dist.distributed_peak_bytes_per_machine() > single

    def test_distributed_memory_decreases_with_machines(self):
        p16 = 16
        peaks = [
            _setup(nparts=p16, num_machines=m).distributed_peak_bytes_per_machine()
            for m in (2, 4, 8)
        ]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_partition_bytes_sum_to_rows(self):
        mm = _setup(nparts=4, num_nodes=1001)
        total = sum(mm.partition_bytes("node", p) for p in range(4))
        assert total == 1001 * mm.embedding_row_bytes()

    def test_matches_actual_model_allocation(self):
        """Analytic model vs real EmbeddingModel.resident_nbytes()."""
        from repro.core.model import EmbeddingModel

        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(
                    name="r", lhs="node", rhs="node", operator="translation"
                )
            ],
            dimension=32,
        )
        entities = EntityStorage({"node": 500})
        model = EmbeddingModel(config, entities)
        model.init_all_partitions(np.random.default_rng(0))
        mm = MemoryModel(config, entities)
        assert model.resident_nbytes() == mm.total_model_bytes()


class TestTracemalloc:
    def test_measures_allocation(self):
        def alloc():
            return np.zeros(1_000_000, dtype=np.float64)

        result, peak = measure_peak_tracemalloc(alloc)
        assert result.nbytes == 8_000_000
        assert peak >= 8_000_000

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            measure_peak_tracemalloc(lambda: (_ for _ in ()).throw(RuntimeError))


class TestSharedParamsMatchTheModel:
    """The analytic shared bytes are the operators' own parameter
    shapes: a real model's shared parameters and their optimizer
    state hold exactly that many bytes."""

    @pytest.mark.parametrize("d", [8, 10])
    @pytest.mark.parametrize("operators", [
        *[[op] for op in OPERATORS], sorted(OPERATORS),
    ], ids=lambda ops: "+".join(ops) if len(ops) < 6 else "all")
    def test_shared_param_bytes_is_the_model_nbytes(self, d, operators):
        from repro.core.model import EmbeddingModel

        config = ConfigSchema(
            entities={"node": EntitySchema()},
            relations=[
                RelationSchema(name=f"r{i}", lhs="node", rhs="node", operator=op)
                for i, op in enumerate(operators)
            ],
            dimension=d,
        )
        entities = EntityStorage({"node": 10})
        model = EmbeddingModel(config, entities)
        shared = {**model.get_shared_params(), **model.get_shared_state()}
        assert len(shared) == 2 * len(operators)
        assert MemoryModel(config, entities).shared_param_bytes() == sum(
            a.nbytes for a in shared.values()
        )
