"""Vectorized text-analysis functions (language ID, quality scoring, token
counting, fingerprinting) — the per-record scalar-function family a training
-data pipeline needs, all Arrow/numpy kernels (no per-row Python).

Both Arrow and DuckDB use RE2, so the regex-based counters are
oracle-checkable with the same pattern strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches import hashing

# BPE-ish word/number/punctuation pieces (RE2-compatible; same string works
# in DuckDB regexp_extract_all for the oracle)
BPE_ISH_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"
PUNCT_PATTERN = r"[^\w\s]"
DIGIT_PATTERN = r"[0-9]"
UPPER_PATTERN = r"[A-Z]"
WORD_PATTERN = r"[A-Za-z]+"

# tiny per-language stopword lists for the n-gram/stopword language heuristic
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that",
           "was", "for", "on", "are", "with", "as", "this", "at", "be"},
    "es": {"el", "la", "de", "que", "y", "a", "en", "un", "ser", "se", "no",
           "por", "con", "para", "los", "las", "una", "su"},
    "de": {"der", "die", "und", "in", "den", "von", "zu", "das", "mit",
           "sich", "des", "auf", "ist", "im", "dem", "nicht", "ein"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "du", "une",
           "que", "est", "pour", "qui", "dans", "par", "sur", "pas"},
}
# zh detection is script-based (CJK codepoints), not stopword-based
_CJK_PATTERN = r"[\x{4E00}-\x{9FFF}]"


def _as_array(col) -> pa.Array:
    """One Arrow array for a column; a one-chunk column is not copied."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def _list_offsets(arr: pa.Array) -> np.ndarray:
    """Row offsets into ``pc.list_flatten(arr)``: row i's values are
    ``flat[offsets[i]:offsets[i + 1]]``. A null list holds no values (the
    flatten skips it), and a sliced array starts at offset 0."""
    lengths = pc.fill_null(pc.list_value_length(arr), 0)
    offsets = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(lengths.to_numpy(zero_copy_only=False), out=offsets[1:])
    return offsets


def _filter_flat(flat: pa.Array, offsets: np.ndarray, keep: pa.Array
                ) -> tuple[pa.Array, np.ndarray]:
    """Drop the flat values where ``keep`` is false; the row offsets
    follow."""
    kept = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(keep.to_numpy(zero_copy_only=False), out=kept[1:])
    return flat.filter(keep), kept[offsets]


def row_ids(offsets: np.ndarray) -> np.ndarray:
    """The row index of every flat value (the inverse of row offsets)."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _flatten_list_column(col):
    """(values, row offsets) of a column — the ONE owner of the null
    contract for the partial-sketch stage and every other consumer of a
    token-list column. Row i's values are
    ``values[offsets[i]:offsets[i + 1]]``.

    A list column flattens to its elements; a scalar column reads as a
    column of one-element lists. Null lists and null scalars hold no
    values. Null ELEMENTS are dropped and the offsets follow (SQL
    semantics — and critically, a single null would otherwise flip a
    numeric flat array to float64 on to_numpy, making every token in the
    batch hash via the 8-byte image instead of the 4-byte one and silently
    inflating distinct counts). String and binary values stay Arrow, for
    the zero-copy hash path; every other type comes back as numpy.
    """
    col = _as_array(col)
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        flat = _as_array(pc.list_flatten(col))
        offsets = _list_offsets(col)
    else:
        flat = col
        offsets = np.arange(len(col) + 1)
    if flat.null_count:
        flat, offsets = _filter_flat(flat, offsets, pc.is_valid(flat))
    t = flat.type
    if pa.types.is_string(t) or pa.types.is_large_string(t) or \
            pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return flat, offsets
    return flat.to_numpy(zero_copy_only=False), offsets


def vector_matrix(col, name: str = "embedding") -> np.ndarray:
    """(n, d) matrix of a vector column (list, large_list or
    fixed_size_list), in the column's value dtype: the zero-copy
    flatten-and-reshape path, no per-row Python objects. Null and ragged
    rows raise ValueError naming ``name``; an empty variable-width column
    gives (0, 0)."""
    col = _as_array(col)
    t = col.type
    if not (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t)):
        return np.stack(col.to_numpy(zero_copy_only=False))
    if col.null_count:
        raise ValueError(f"null {name} row")
    flat = col.flatten().to_numpy(zero_copy_only=False)
    if pa.types.is_fixed_size_list(t):
        return flat.reshape(-1, t.list_size)
    lens = np.diff(col.offsets.to_numpy(zero_copy_only=False))
    if len(lens) == 0:
        return flat.reshape(0, 0)
    if not np.all(lens == lens[0]):
        raise ValueError(f"ragged {name} column: lengths "
                         f"{np.unique(lens).tolist()[:5]}")
    return flat.reshape(-1, int(lens[0]))


def split_tokens(toks) -> tuple[pa.Array, np.ndarray]:
    """(flat tokens, row offsets) of a whitespace-split text column. Empty
    strings (from leading or trailing whitespace) are not tokens."""
    toks = _as_array(toks)
    flat = _as_array(pc.list_flatten(toks))
    return _filter_flat(flat, _list_offsets(toks),
                       pc.not_equal(flat, pa.scalar("")))


def flat_tokens(text, *, lowered: bool = False
                ) -> tuple[pa.Array, np.ndarray]:
    """(flat token strings, parent row indices) for a text column — THE
    whitespace-split / non-empty-filter token contract shared with the SQL
    ``_TOK`` oracle expression (``list_filter(regexp_split_to_array(text,
    '\\s+'), x -> x <> '')``). Null rows tokenize as empty. Every operator
    that must agree with the oracle tokenization routes through here
    (review rule: one copy of the contract)."""
    text = _as_array(text)
    if text.null_count:
        text = pc.fill_null(text, "")
    flat, offsets = split_tokens(pc.split_pattern_regex(text, r"\s+"))
    if lowered:
        flat = _as_array(pc.utf8_lower(flat))
    return flat, row_ids(offsets)


def doc_bigram_codes(flat: pa.Array, parents: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, pa.Array]:
    """Dictionary-encoded tokens and within-document bigrams:
    (codes, a_codes, b_codes, doc_idx, dictionary) where (a, b) are
    adjacent tokens of the same parent row. ONE dictionary encode serves
    both the unigram and bigram views. Shared by the repetition signals
    and the PMI/bigram aggregates."""
    dict_arr = flat.dictionary_encode()
    codes = np.asarray(dict_arr.indices, dtype=np.int64)
    same_doc = parents[1:] == parents[:-1] if len(parents) else \
        np.zeros(0, dtype=bool)
    return (codes, codes[:-1][same_doc], codes[1:][same_doc],
            parents[:-1][same_doc], dict_arr.dictionary)


def token_count_whitespace(text: pa.Array) -> pa.Array:
    """Number of whitespace-delimited tokens per string (empties dropped)."""
    _, parents = flat_tokens(text)
    counts = np.zeros(len(text), dtype=np.int64)
    np.add.at(counts, parents, 1)
    return pa.array(counts)


def token_count_bpe_ish(text: pa.Array) -> pa.Array:
    """Count of BPE-ish pieces (letter runs, digit runs, punctuation marks)."""
    return pc.count_substring_regex(_as_array(text), BPE_ISH_PATTERN)


def distinct_tokens_per_row(batch: pa.Table,
                            token_column: str = "tokens") -> pa.Table:
    """Append per-row vocabulary stats over a list<int32> column:
    n_distinct_tokens and type_token_ratio (distinct/total; 1.0 for empty).

    Vectorized: one lexsort over (row, token) then a segment diff — no
    per-row Python."""
    # null ELEMENTS are not tokens (the flatten drops them) — one null
    # would flip the flat array to float64 where NaN != NaN makes every
    # null count as a NEW distinct token (round-3 review fix)
    values, offsets = _flatten_list_column(batch[token_column])
    rows = row_ids(offsets)
    n = len(batch)
    distinct = np.zeros(n, dtype=np.int64)
    if len(values):
        order = np.lexsort((values, rows))
        r = rows[order]
        v = values[order]
        new_group = np.r_[True, (r[1:] != r[:-1]) | (v[1:] != v[:-1])]
        np.add.at(distinct, r[new_group], 1)
    # denominator = the NULL-FILTERED token count: list_value_length counts
    # null elements the numerator excludes, deflating the ratio (round-4
    # session-9 review fix — [1, 2, 2, None] is 2/3, not 2/4)
    totals = np.diff(offsets)
    ttr = np.divide(distinct, totals, out=np.ones(n, dtype=np.float64),
                    where=totals > 0)
    out = batch.append_column("n_distinct_tokens", pa.array(distinct))
    return out.append_column("type_token_ratio", pa.array(ttr))


def quality_features(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Append vectorized quality-signal columns to a documents batch.

    Features: n_chars, n_tokens (whitespace), n_pieces (BPE-ish), punct_ratio,
    digit_ratio, upper_ratio, avg_token_len, stopword_ratio (en),
    quality_score (composite in [0, 1], heuristically weighted).
    """
    text = _as_array(batch[text_column])
    # null text rows compute as empty strings (round-3 review fix: a null
    # row's utf8_length came back NaN and .astype(int64) produced INT64_MIN
    # garbage features); deterministic zeros beat poisoned aggregates
    if text.null_count:
        text = pc.fill_null(text, "")
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    safe_chars = np.maximum(n_chars, 1.0)
    n_pieces = token_count_bpe_ish(text).to_numpy(zero_copy_only=False)
    n_punct = pc.count_substring_regex(text, PUNCT_PATTERN).to_numpy(zero_copy_only=False)
    n_digit = pc.count_substring_regex(text, DIGIT_PATTERN).to_numpy(zero_copy_only=False)
    n_upper = pc.count_substring_regex(text, UPPER_PATTERN).to_numpy(zero_copy_only=False)

    # ONE whitespace split serves both n_tokens and the stopword ratio
    # (round-3 review fix: the split — the stage's dominant cost — ran
    # twice per batch, once inside token_count_whitespace and once here)
    flat, parents = flat_tokens(text)
    n_tokens = np.zeros(len(batch), dtype=np.int64)
    np.add.at(n_tokens, parents, 1)
    safe_tokens = np.maximum(n_tokens, 1)
    # EXACT mean token length (round-4 session-9 review fix: the old
    # n_chars-minus-separators approximation inflated with every run of
    # extra/leading/trailing whitespace — '  a   b  ' scored 4.0, true 1.0
    # — and distorted word_score/quality_score); same cost, one add.at
    # over the already-computed flat tokens
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_tok_len = np.zeros(len(batch), dtype=np.float64)
    np.add.at(sum_tok_len, parents, tok_lens)
    avg_token_len = sum_tok_len / safe_tokens
    lowered = pc.utf8_lower(flat)
    h = hashing.hash_arrow_binary(_as_array(lowered), "fnv1a_mix")
    stop_hashes = np.asarray(
        sorted(hashing.fnv1a64_mix(w.encode()) for w in STOPWORDS["en"]),
        dtype=np.uint64)
    is_stop = stop_hashes[
        np.clip(np.searchsorted(stop_hashes, h), 0, len(stop_hashes) - 1)] == h
    n_stop = np.zeros(len(batch), dtype=np.int64)
    np.add.at(n_stop, parents[is_stop], 1)
    stopword_ratio = n_stop / safe_tokens

    punct_ratio = n_punct / safe_chars
    digit_ratio = n_digit / safe_chars
    upper_ratio = n_upper / safe_chars

    # composite score: rewards mid-length docs with words, few digits/punct
    len_score = np.clip(n_tokens / 64.0, 0, 1) * np.clip(2.0 - n_tokens / 4096.0, 0, 1)
    clean_score = np.clip(1.0 - 3.0 * punct_ratio - 3.0 * digit_ratio, 0, 1)
    word_score = np.clip(avg_token_len / 4.0, 0, 1) * np.clip(2.0 - avg_token_len / 8.0, 0, 1)
    quality = np.clip(0.4 * len_score + 0.35 * clean_score + 0.25 * word_score, 0, 1)

    out = batch
    for name, arr in [
        ("n_chars", n_chars.astype(np.int64)),
        ("n_tokens", n_tokens.astype(np.int64)),
        ("n_pieces", n_pieces.astype(np.int64)),
        ("punct_ratio", punct_ratio),
        ("digit_ratio", digit_ratio),
        ("upper_ratio", upper_ratio),
        ("avg_token_len", avg_token_len),
        ("stopword_ratio", stopword_ratio),
        ("quality_score", quality),
    ]:
        out = out.append_column(name, pa.array(arr))
    return out


def language_id(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Append a deterministic language guess (en/es/de/fr/zh/unknown).

    Heuristic: CJK codepoint presence -> zh; else the language whose
    stopword list matches the most lowercase tokens (>= 2 hits required,
    ties broken by fixed language order) -> that language; else unknown.
    """
    text = _as_array(batch[text_column])
    n = len(text)
    # lowered=True lowercases per token AFTER the split — equivalent to
    # lowering before it (no Unicode case mapping crosses whitespace)
    flat, parents = flat_tokens(text, lowered=True)
    h = hashing.hash_arrow_binary(flat, "fnv1a_mix")

    langs = ["en", "es", "de", "fr"]
    scores = np.zeros((len(langs), n), dtype=np.int64)
    for i, lang in enumerate(langs):
        sh = np.asarray(sorted(hashing.fnv1a64_mix(w.encode())
                               for w in STOPWORDS[lang]), dtype=np.uint64)
        hit = sh[np.clip(np.searchsorted(sh, h), 0, len(sh) - 1)] == h
        np.add.at(scores[i], parents[hit], 1)

    n_cjk = pc.count_substring_regex(text, _CJK_PATTERN).to_numpy(zero_copy_only=False)
    best = np.argmax(scores, axis=0)  # first max wins -> fixed tie order
    best_score = scores[best, np.arange(n)]
    guess = np.where(
        n_cjk > 0, "zh",
        np.where(best_score >= 2, np.asarray(langs, dtype=object)[best], "unknown"),
    )
    return batch.append_column("lang_guess", pa.array(guess.astype(str)))


# ---------------------------------------------------------------------------
# fingerprinting


def char_ngram_hashes(text: pa.Array, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Rolling-hash values of all char n-grams per string.

    Returns (hashes, parent_row_indices); vectorized polynomial rolling hash
    over the flat UTF-8 buffer with per-string masking.
    """
    arr = _as_array(text)
    if pa.types.is_string(arr.type):
        off_dtype = np.int32
    elif pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        raise TypeError(f"expected string array, got {arr.type}")
    offsets = np.frombuffer(arr.buffers()[1], dtype=off_dtype,
                            count=len(arr) + arr.offset + 1)[arr.offset:]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lengths = (offsets[1:] - offsets[:-1]).astype(np.int64)
    n_grams = np.maximum(lengths - n + 1, 0)
    total = int(n_grams.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    parents = np.repeat(np.arange(len(arr)), n_grams)
    gram_starts = (np.arange(total)
                   - np.repeat(np.cumsum(n_grams) - n_grams, n_grams)
                   + np.repeat(starts, n_grams))
    # hash EVERY position of the flat buffer with contiguous slices (8
    # sequential passes, no gathers), then select the in-string positions
    # with ONE gather — ~6x faster than per-gram gathers; positions whose
    # window crosses a string boundary are simply never selected
    base = np.uint64(1099511628211)
    m = len(data) - n + 1
    h_all = np.zeros(m, dtype=np.uint64)
    tmp = np.empty(m, dtype=np.uint64)
    for j in range(n):
        np.multiply(h_all, base, out=h_all)
        tmp[:] = data[j:j + m]
        np.add(h_all, tmp, out=h_all)
    return hashing.splitmix64(h_all[gram_starts]), parents


def document_fingerprint(batch: pa.Table, text_column: str = "text",
                         ngram: int = 8) -> pa.Table:
    """Append a 64-bit content fingerprint: min rolling-hash over char
    n-grams (a 1-permutation MinHash — robust to small edits, unlike a full
    content hash)."""
    text = _as_array(batch[text_column])
    h, parents = char_ngram_hashes(text, n=ngram)
    fp = np.full(len(text), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(fp, parents, h)
    # short strings (< ngram chars) fall back to a whole-string hash —
    # hash only the short SUBSET (one short row in a 10k-row batch of long
    # docs must not pay a full-column hash pass; round-4 session-9 review)
    short = fp == np.iinfo(np.uint64).max
    if short.any():
        idx = np.flatnonzero(short)
        fp[idx] = hashing.hash_arrow_binary(
            text.take(pa.array(idx)), "fnv1a_mix")
    return batch.append_column("fingerprint", pa.array(fp.astype(np.int64)))


def content_hash(batch: pa.Table, text_column: str = "text",
                 out_column: str = "content_hash") -> pa.Table:
    """Append the exact 64-bit content hash (for exact dedup)."""
    h = hashing.hash_arrow_binary(_as_array(batch[text_column]), "fnv1a_mix")
    return batch.append_column(out_column, pa.array(h.astype(np.int64)))


# ---------------------------------------------------------------------------
# text cleaning / redaction — the scrub step of a training-data pipeline.
# RE2-compatible patterns so DuckDB's regexp_replace(..., 'g') is an exact
# oracle for every transform.

URL_PATTERN = r"https?://[^\s]+"
EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
MULTISPACE_PATTERN = r"[ \t]+"


def clean_text(batch: pa.Table, text_column: str = "text", *,
               out_column: str = "clean_text",
               redact_urls: bool = True,
               redact_emails: bool = True,
               normalize_whitespace: bool = True) -> pa.Table:
    """Append a cleaned/redacted copy of ``text_column``.

    URL/email redaction to fixed placeholder tokens plus horizontal-
    whitespace normalization and trim — all Arrow RE2 kernels, zero Python
    per row. Order matters and is pinned: emails redact before URLs would
    eat them? No — URLs first (an email never contains '://'; a URL may
    contain '@', and redacting emails first would split such URLs), then
    emails, then whitespace.
    """
    t = _as_array(batch[text_column])
    if redact_urls:
        t = pc.replace_substring_regex(t, pattern=URL_PATTERN,
                                       replacement="<URL>")
    if redact_emails:
        t = pc.replace_substring_regex(t, pattern=EMAIL_PATTERN,
                                       replacement="<EMAIL>")
    if normalize_whitespace:
        t = pc.replace_substring_regex(t, pattern=MULTISPACE_PATTERN,
                                       replacement=" ")
        t = pc.utf8_trim(t, characters=" \t")
    return batch.append_column(out_column, t)


def chunk_passages(batch: pa.Table, *, window: int, stride: int,
                   text_column: str = "text",
                   id_column: str = "doc_id") -> pa.Table:
    """Row-expanding passage chunker (RAG / retrieval prep): split each
    document's token stream into overlapping ``window``-token passages at
    ``stride`` offsets and emit one ROW PER PASSAGE — the flat_map shape.

    Tokenization is the corpus whitespace rule (ascii split, empties
    dropped), and a passage's text is its tokens re-joined with single
    spaces — exactly DuckDB's ``array_to_string(t[i:j], ' ')``, so the
    operator is fully SQL-oracle-checkable. A document shorter than
    ``window`` yields one passage (its whole token stream); otherwise
    passages start at 0, stride, 2*stride, ..., stopping once a window
    reaches the document's end — passage count = 1 + ceil((n − window) /
    stride), so the FINAL passage is partial only when (n − window) is not
    a stride multiple (no fully-redundant suffix windows are emitted).
    ``stride > window`` gives gapped sampling: non-adjacent windows, one
    per stride offset inside the document.

    Vectorized: one split per batch, passage boundaries by arithmetic over
    the list offsets, and one ``pa.ListArray`` take + binary-join for the
    passage texts — no per-passage Python.
    """
    if window <= 0 or stride <= 0:
        raise ValueError(f"window and stride must be positive, got "
                         f"{window}/{stride}")
    flat, parents = flat_tokens(batch[text_column])
    n_rows = len(batch)
    counts = np.bincount(parents, minlength=n_rows).astype(np.int64)
    doc_starts = np.r_[0, counts.cumsum()[:-1]]

    # passages per doc: 1 + ceil(max(n - window, 0) / stride), capped at
    # one passage per stride offset INSIDE the doc (the cap is what keeps
    # stride > window from emitting starts past the end — review fix: the
    # uncapped count produced negative lengths there); n==0 still yields
    # one empty passage so every doc stays represented
    extra = np.maximum(counts - window, 0)
    n_pass = np.minimum(1 + (extra + stride - 1) // stride,
                        1 + np.maximum(counts - 1, 0) // stride)
    pass_doc = np.repeat(np.arange(n_rows, dtype=np.int64), n_pass)
    pass_idx = (np.arange(len(pass_doc), dtype=np.int64)
                - np.repeat(np.r_[0, n_pass.cumsum()[:-1]], n_pass))
    starts = pass_idx * stride
    lens = np.minimum(window, counts[pass_doc] - starts)
    abs_start = doc_starts[pass_doc] + starts

    # one gather builds every passage's token list
    offsets = np.zeros(len(pass_doc) + 1, dtype=np.int64)
    offsets[1:] = lens.cumsum()
    total = int(offsets[-1])
    # segment-arange: position p in passage i maps to
    # abs_start[i] + (p - offsets[i]) — one vectorized expression, no
    # per-passage Python loop (round-4 review fix)
    gidx = (np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], lens)
            + np.repeat(abs_start, lens))
    passage_tokens = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int64()),
        flat.take(pa.array(gidx)))
    passage_text = pc.binary_join(passage_tokens, pa.scalar(" "))
    ids = batch[id_column]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return pa.table({
        id_column: ids.take(pa.array(pass_doc)),
        "passage_id": pa.array(pass_idx),
        "n_tokens": pa.array(lens),
        "passage": passage_text,
    })
