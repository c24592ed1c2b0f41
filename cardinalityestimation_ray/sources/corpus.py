"""Tokens-corpus sources.

The engine's primary input is a Parquet table of pre-tokenized training
sequences with schema (BASELINE.json.input_hint):

    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Two ways to obtain it here:

1. ``read_tokens(sf_dir)`` — derive the corpus from the driver-provided
   ``documents`` table (sf testdata) with a deterministic, vectorized
   whitespace tokenizer (token id = 31-bit hash of the token string). This is
   the path used by queries()/entry().
2. ``synthesize_corpus_batch`` / ``write_synthetic_corpus`` — the FIXTURES.md
   F1 generator: fully deterministic (counter-based splitmix64 RNG keyed by
   fnv1a64(doc_id), so any partition regenerates independently of block
   layout), Zipf-ish token ids over a configurable vocab, lognormal doc
   lengths, skewed source mix. Used by accuracy tests and large-scale
   benches; no external data.

Nothing here calls ray.init(); the caller owns the session.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import split_tokens
from ..sketches import hashing

TOKENS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

_WS = r"\s+"
_TOKEN_ID_MASK = np.uint64(0x7FFFFFFF)  # 31-bit non-negative int32 ids


def tokenize_documents_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id,text,source) -> tokens-corpus shape, vectorized.

    Whitespace tokenization (runs of \\s+, empties dropped), token id =
    low 31 bits of the default 64-bit hash of the token's UTF-8 bytes. The
    same logical rule is expressible in DuckDB for oracle checks
    (regexp_split_to_array + list_filter), keeping per-row token parity
    testable.
    """
    doc_id = pc.binary_join_element_wise(
        pa.scalar("doc-"), pc.cast(batch["doc_id"], pa.string()), pa.scalar("")
    )
    # ascii_split_whitespace splits on [\t\n\v\f\r ]; RE2's \s (the DuckDB
    # oracle's regexp_split_to_array '\s+') is the same MINUS vertical tab
    # \x0b. Identical token streams on any text without \x0b (true of the
    # corpus; parity pinned in tests) at ~6x the RE2 kernel's speed.
    flat, offsets = split_tokens(pc.ascii_split_whitespace(batch["text"]))
    # dictionary-collapse before hashing: natural-language tokens are
    # Zipf-repetitive (~12x here), so hash only the UNIQUE tokens (Arrow's
    # C++ hash table does the dedup) and gather — bit-identical to hashing
    # every slot, measured 85 -> 25 ms per 612k-token block. The collapse
    # stays LOCAL to tokenization; generic string sketch paths keep direct
    # hashing (their inputs, e.g. doc ids, are mostly unique).
    codes = pc.dictionary_encode(flat)
    uh = hashing.hash_arrow_binary(codes.dictionary, hashing.DEFAULT_HASH)
    h = uh[codes.indices.to_numpy(zero_copy_only=False)]
    ids = (h & _TOKEN_ID_MASK).astype(np.int32)
    tokens = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                      pa.array(ids, type=pa.int32()))
    n_tok = pa.array((offsets[1:] - offsets[:-1]).astype(np.int32))
    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": n_tok,
            "source": batch["source"],
        }
    )


def read_tokens(sf_dir: str, parallelism: int | None = None):
    """Tokens-corpus Dataset derived from ``{sf_dir}/documents.parquet``.

    Columns are pruned at the read; tokenization runs as a stateless
    vectorized map_batches stage.
    """
    import ray.data

    kwargs = {}
    if parallelism is not None:
        kwargs["override_num_blocks"] = parallelism
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"], **kwargs
    )
    return ds.map_batches(tokenize_documents_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# synthetic corpus (FIXTURES.md F1)


@dataclasses.dataclass(frozen=True)
class CorpusConfig:
    seed: int = 42
    vocab_size: int = 100_000
    zipf_s: float = 1.1
    median_tokens: int = 256
    sigma_log: float = 0.6
    min_tokens: int = 1
    max_tokens: int = 8192
    # skewed source mix: web 70%, books 15%, 8 long-tail sources share 15%
    sources: tuple = ("web", "books", "wiki", "code", "news", "forums",
                      "papers", "law", "patents", "subtitles")
    source_weights: tuple = (0.70, 0.15, 0.03, 0.03, 0.02, 0.02, 0.02,
                             0.01, 0.01, 0.01)


_U64 = np.uint64


def _doc_seeds(ids: np.ndarray, seed: int) -> np.ndarray:
    """Per-doc seed = fnv1a64(utf8("doc-%012d" % i)) ^ seed, vectorized.

    Keying on the canonical doc_id string (not the row position) makes every
    partition regenerable independently of block layout (FIXTURES.md F1).
    """
    if len(ids) and int(ids.max()) >= 10**12:
        # the doc-id string format is doc-%012d; beyond 10^12 the digit
        # decomposition below would silently collide with id mod 10^12
        # (round-3 review fix: raise instead of generating duplicate docs)
        raise ValueError("synthetic corpus doc ids must be < 10^12")
    nums = ids.astype(np.uint64)
    h = np.full(len(nums), _U64(14695981039346656037))
    prime = _U64(1099511628211)
    for ch in b"doc-":
        h = (h ^ _U64(ch)) * prime
    digits = np.zeros((12, len(nums)), dtype=np.uint64)
    rem = nums.copy()
    for d in range(11, -1, -1):
        digits[d] = rem % _U64(10)
        rem //= _U64(10)
    for d in range(12):
        h = (h ^ (digits[d] + _U64(ord("0")))) * prime
    return h ^ _U64(seed)


def _uniform01(x: np.ndarray) -> np.ndarray:
    return (hashing.splitmix64(x) >> _U64(11)).astype(np.float64) * (2.0**-53)


def synthesize_corpus_batch(ids: np.ndarray,
                            cfg: CorpusConfig = CorpusConfig()) -> pa.Table:
    """Deterministically generate the corpus rows for the given doc indices."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    n = len(ids)
    seeds = _doc_seeds(ids, cfg.seed)

    # doc length: clamped lognormal via Box-Muller on two counter uniforms
    u1 = np.clip(_uniform01(seeds + _U64(1)), 1e-12, 1.0)
    u2 = _uniform01(seeds + _U64(2))
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    n_tok = np.clip(
        np.exp(np.log(cfg.median_tokens) + cfg.sigma_log * z),
        cfg.min_tokens, cfg.max_tokens,
    ).astype(np.int64)

    # source assignment from the skewed categorical
    cum = np.cumsum(cfg.source_weights)
    u_src = _uniform01(seeds + _U64(3))
    src_idx = np.searchsorted(cum, u_src, side="right").clip(0, len(cfg.sources) - 1)
    source = pa.DictionaryArray.from_arrays(
        pa.array(src_idx.astype(np.int32)), pa.array(list(cfg.sources))
    ).cast(pa.string())

    # token ids: counter-based — token j of doc i mixes (doc_seed, j); Zipf-ish
    # rank via the bounded power-law inverse CDF
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    total = int(offsets[-1])
    token_pos = (np.arange(total, dtype=np.uint64)
                 - np.repeat(offsets[:-1].astype(np.uint64), n_tok))
    counters = np.repeat(seeds + _U64(5), n_tok) + token_pos
    u = np.clip(_uniform01(counters), 1e-12, 1 - 1e-12)
    one_minus_s = 1.0 - cfg.zipf_s
    vmax = float(cfg.vocab_size)
    if one_minus_s == 0.0:
        # s == 1: the bounded power-law inverse CDF degenerates to the
        # log-uniform limit exp(u * ln(V)) (round-3 review fix: the general
        # form divides by 1-s and raised ZeroDivisionError)
        ranks = np.exp(u * np.log(vmax))
    else:
        ranks = ((1.0 - u) + u * vmax**one_minus_s) ** (1.0 / one_minus_s)
    token_ids = np.minimum(ranks, vmax).astype(np.int32) - 1

    doc_id = pa.array([f"doc-{i:012d}" for i in ids], type=pa.string())
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pa.array(token_ids, type=pa.int32()),
    )
    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": pa.array(n_tok.astype(np.int32)),
            "source": source,
        }
    )


def synthesize_text_corpus_batch(ids: np.ndarray,
                                 cfg: CorpusConfig = CorpusConfig()) -> pa.Table:
    """Deterministic raw-text twin of the tokens corpus: word j of doc i is
    ``w<token_id>`` for the same token stream, whitespace-joined. Feeding it
    through ``tokenize_documents_batch`` reproduces a corpus with identical
    per-doc token counts — used for compute-dense (string-side) benchmarks."""
    toks = synthesize_corpus_batch(ids, cfg)
    tokens = toks["tokens"]
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = pc.cast(pc.list_flatten(tokens), pa.string())
    words = pc.binary_join_element_wise(pa.scalar("w"), flat, pa.scalar(""))
    word_lists = pa.ListArray.from_arrays(tokens.offsets, words)
    text = pc.binary_join(word_lists, pa.scalar(" "))
    return pa.table({
        "doc_id": toks["doc_id"],
        "text": text,
        "source": toks["source"],
    })


def synthetic_text_corpus_dataset(n_docs: int, cfg: CorpusConfig = CorpusConfig(),
                                  docs_per_block: int = 20_000):
    import ray.data

    ds = ray.data.range(n_docs, override_num_blocks=max(1, n_docs // docs_per_block))

    def gen(batch: pa.Table) -> pa.Table:
        return synthesize_text_corpus_batch(batch["id"].to_numpy(), cfg)

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=docs_per_block)


def write_synthetic_text_corpus(path: str, n_docs: int,
                                cfg: CorpusConfig = CorpusConfig(),
                                docs_per_block: int = 20_000) -> None:
    synthetic_text_corpus_dataset(n_docs, cfg, docs_per_block).write_parquet(path)


def synthetic_corpus_dataset(n_docs: int, cfg: CorpusConfig = CorpusConfig(),
                             docs_per_block: int = 20_000):
    """Lazy Ray Dataset over the synthetic corpus (generated inside tasks, so
    the corpus never materializes on the driver)."""
    import ray.data

    ds = ray.data.range(n_docs, override_num_blocks=max(1, n_docs // docs_per_block))

    def gen(batch: pa.Table) -> pa.Table:
        return synthesize_corpus_batch(batch["id"].to_numpy(), cfg)

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=docs_per_block)


def write_synthetic_corpus(path: str, n_docs: int,
                           cfg: CorpusConfig = CorpusConfig(),
                           docs_per_block: int = 20_000) -> None:
    """Materialize the synthetic corpus as partitioned Parquet under ``path``."""
    synthetic_corpus_dataset(n_docs, cfg, docs_per_block).write_parquet(path)
