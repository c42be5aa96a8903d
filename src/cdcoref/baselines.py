"""Deterministic reference baselines."""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .corpus import Mention, Partition, SchemaError


def singleton_baseline(mentions: Sequence[Mention]) -> Partition:
    """Every mention in its own cluster."""
    return Partition([m.mention_id] for m in mentions)


def head_lemma_baseline(mentions: Sequence[Mention]) -> Partition:
    """One cluster per case-folded head lemma."""
    groups: dict[str, set[str]] = defaultdict(set)
    for m in mentions:
        if m.head_lemma is None:
            raise SchemaError(f"mention {m.mention_id!r} has no head lemma")
        groups[m.head_lemma.casefold()].add(m.mention_id)
    return Partition(groups.values())

