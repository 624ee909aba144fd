"""Disease topic labels mined from typed entity sequences.

The miner is a single left-to-right scan over the tagged report: every
position i where an ANATOMY entity is immediately followed by a non-ANATOMY
entity emits the pair (entity[i], entity[i+1]). Flattened pair members,
deduplicated in first-seen order, become the record's dynamic topic tags;
when the scan finds nothing, caller-supplied base labels stand in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attention import embed_tokens
from .autograd import SparseRows, Tensor, canonical_matmul
from .text import Entity, EntityType


class LabelSource(Enum):
    DYNAMIC = "dynamic"
    BASE_FALLBACK = "base-fallback"


@dataclass
class DiseaseTopicLabels:
    """Built by ``extract_topic_labels`` only: the tags are nonempty and unique."""

    tags: list[str]
    source: LabelSource


def anatomy_pairs(entities: Sequence[Entity]) -> list[tuple[Entity, Entity]]:
    """All adjacent (ANATOMY, non-ANATOMY) pairs, in scan order, duplicates kept."""
    pairs = []
    for i in range(len(entities) - 1):
        if (
            entities[i].type is EntityType.ANATOMY
            and entities[i + 1].type is not EntityType.ANATOMY
        ):
            pairs.append((entities[i], entities[i + 1]))
    return pairs


def extract_topic_labels(
    entities: Sequence[Entity], base_labels: Sequence[str]
) -> DiseaseTopicLabels:
    """Dynamic tags from the pair scan, or the base labels when none emerge."""
    if not base_labels:
        raise ValueError("base_labels must be nonempty")
    flat = []
    for anat, obs in anatomy_pairs(entities):
        flat.append(anat.text)
        flat.append(obs.text)
    tags = list(dict.fromkeys(flat))
    if tags:
        return DiseaseTopicLabels(tags, LabelSource.DYNAMIC)
    return DiseaseTopicLabels(list(dict.fromkeys(base_labels)), LabelSource.BASE_FALLBACK)


def pool_tag_embeddings(tag_token_ids: Sequence[Sequence[int]], table: Tensor) -> Tensor:
    """One row per tag: mean of the tag's embedded (token + position) rows.

    Every tag's tokens are embedded at once, positions restarting at 0 for
    each tag, and pooled by one constant sparse product. ``extract_topic_labels``
    and the loaders guarantee at least one tag, each with a token.
    """
    lengths = [len(ids) for ids in tag_token_ids]
    rows = embed_tokens([i for ids in tag_token_ids for i in ids], table, spans=lengths)
    tag = np.repeat(np.arange(len(lengths)), lengths)
    pool = SparseRows(tag, np.arange(len(tag)), 1.0 / np.asarray(lengths)[tag], (len(lengths), len(tag)))
    return canonical_matmul(pool, rows)
