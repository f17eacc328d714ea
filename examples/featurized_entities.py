#!/usr/bin/env python
"""Featurized entities: items as bags of tag features.

PBG supports entity types represented as bags of features (paper
Sections 1, 4.2): the entity's embedding is the mean of its feature
embeddings, and only the (small) feature table is trained — it is a
shared parameter, synchronised via the parameter server in distributed
mode. Useful when items carry metadata (tags, categories, words) and
new items must be embeddable without retraining.

This example builds a user → item purchase graph where items are bags
of tags, trains the feature table, and shows cold-start: a brand-new
item composed of known tags gets a sensible embedding for free.

Run:  python examples/featurized_entities.py
"""

import numpy as np

from repro import ConfigSchema, EntitySchema, RelationSchema
from repro.core.model import EmbeddingModel
from repro.core.tables import FeaturizedEmbeddingTable
from repro.core.trainer import Trainer
from repro.datasets import user_item_graph
from repro.graph.entity_storage import EntityStorage


def main() -> None:
    num_users, num_items, num_tags = 3000, 120, 24
    rng = np.random.default_rng(0)

    # Items belong to categories; tags correlate with categories so the
    # bag-of-tags representation carries the signal.
    edges, user_cat, item_cat = user_item_graph(
        num_users, num_items, 30_000, num_categories=8, seed=0
    )
    item_tags = [
        [int(item_cat[i]) * 3 + int(t) for t in rng.choice(3, 2, replace=False)]
        for i in range(num_items)
    ]
    print(
        f"{num_users} users, {num_items} items as bags of 2 of "
        f"{num_tags} tags, {len(edges)} purchases"
    )

    config = ConfigSchema(
        entities={
            "user": EntitySchema(),
            "item": EntitySchema(featurized=True),
        },
        relations=[RelationSchema(name="buys", lhs="user", rhs="item")],
        dimension=32,
        num_epochs=8,
        lr=0.1,
    )
    entities = EntityStorage({"user": num_users, "item": num_items})
    model = EmbeddingModel(config, entities)
    item_table = FeaturizedEmbeddingTable.create(
        item_tags, num_tags, config.dimension, rng
    )
    model.set_table("item", 0, item_table)

    stats = Trainer(config, model, entities).train(edges)
    print(f"trained in {stats.total_time:.1f}s; feature table is "
          f"{item_table.feature_weights.nbytes / 1024:.1f} KiB "
          f"({num_tags} tags x {config.dimension} dims)")

    # Cold start: a new item with tags of category 3.
    new_item_tags = np.asarray([9, 10])  # category 3's tags
    new_emb = item_table.feature_weights[new_item_tags].mean(axis=0)

    # Which existing users score it highest? They should be category-3
    # shoppers.
    users = model.get_table("user", 0).weights
    scores = users @ new_emb
    top_users = np.argsort(-scores)[:200]
    match = (user_cat[top_users] == 3).mean()
    base = (user_cat == 3).mean()
    print(
        f"cold-start item (category-3 tags): of its top-200 users, "
        f"{match:.0%} are category-3 shoppers (base rate {base:.0%})"
    )


if __name__ == "__main__":
    main()
