"""Shared-accumulator sketch actor — the reference's
ConcurrentCardinalityEstimator re-expressed for Ray.

The reference wraps one estimator in a ReaderWriterLockSlim so many threads
can feed it (/root/reference/CardinalityEstimation/
ConcurrentCardinalityEstimator.cs:354-542, 816-913). In Ray, the
share-nothing partial-sketch pattern makes that unnecessary for throughput
(each map task owns a private sketch; SURVEY.md §2.5) — but a shared live
accumulator is still useful for PROGRESS: a long scan can push partials to
one named actor and readers can poll a running estimate mid-job. The actor's
single-threaded mailbox plays the role of the lock; merge commutativity
makes concurrent pushes safe in any order.
"""

from __future__ import annotations

import numpy as np

from ..sketches.base import Sketch, sketch_from_bytes


class SharedSketch:
    """Actor body: ``ray.remote(SharedSketch).remote(kind, params)`` or use
    :func:`create_shared_sketch`."""

    def __init__(self, kind: str, params: dict | None = None):
        self.kind = kind
        self.params = dict(params or {})
        self.sketch: Sketch = Sketch.REGISTRY[kind](**self.params)

    def add_values(self, values: np.ndarray) -> int:
        self.sketch.add_values(values)
        return len(values)

    def merge_blob(self, blob: bytes) -> None:
        self.sketch.merge(sketch_from_bytes(
            self.kind, blob, getattr(self.sketch, "hash_name", None)))

    def estimate(self):
        est = getattr(self.sketch, "estimate", None)
        return est() if est is not None else None

    def count_additions(self) -> int | None:
        return getattr(self.sketch, "count_additions", None)

    def to_bytes(self) -> bytes:
        return self.sketch.to_bytes()

    def reset(self) -> None:
        self.sketch = Sketch.REGISTRY[self.kind](**self.params)


def create_shared_sketch(kind: str, params: dict | None = None, *,
                         name: str | None = None):
    """Create the shared accumulator actor (optionally named for discovery
    from any task via ``ray.get_actor(name)``)."""
    import ray

    cls = ray.remote(SharedSketch)
    if name:
        return cls.options(name=name).remote(kind, params)
    return cls.remote(kind, params)
