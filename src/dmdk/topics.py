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

from .attention import EmbeddingTable, embed_tokens
from .autograd import Tensor, concat_rows, mean_rows
from .text import Entity, EntitySequence, EntityType


class LabelSource(Enum):
    DYNAMIC = "dynamic"
    BASE_FALLBACK = "base-fallback"


@dataclass
class DiseaseTopicLabels:
    tags: list[str]
    source: LabelSource

    def __post_init__(self):
        if not self.tags:
            raise ValueError("topic labels are never empty; fallback must apply first")
        if len(set(self.tags)) != len(self.tags):
            raise ValueError("topic labels must be unique")


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


def pool_tag_embeddings(tag_token_ids: Sequence[Sequence[int]], table: EmbeddingTable) -> Tensor:
    """One row per tag: mean of the tag's embedded (token + position) rows."""
    if not tag_token_ids:
        raise ValueError("cannot embed an empty tag list")
    rows = []
    for ids in tag_token_ids:
        if not ids:
            raise ValueError("cannot embed an empty tag")
        rows.append(mean_rows(embed_tokens(ids, table)))
    return concat_rows(rows)
