"""Pure numpy sketch cores (no Ray dependency).

HyperLogLog reimplements the reference's estimator semantics from scratch
(see hll.py); count-min, Bloom, t-digest and KLL come from the published
papers (the reference lists them only as future roadmap, ROADMAP.md:169-172).
"""

from .base import Sketch, sketch_from_bytes
from .bloom import BloomFilter
from .countmin import CountMinSketch
from .hll import HyperLogLog
from .kll import KLLSketch
from .priority_sample import PrioritySample, WeightedDLTSample
from .tdigest import TDigest
from .theta import ThetaSketch
from . import constants, hashing, bias

__all__ = [
    "Sketch",
    "sketch_from_bytes",
    "HyperLogLog",
    "CountMinSketch",
    "BloomFilter",
    "TDigest",
    "KLLSketch",
    "PrioritySample",
    "ThetaSketch",
    "WeightedDLTSample",
    "constants",
    "hashing",
    "bias",
]
