"""Independent slow-path oracles the tests compare the library against.

Everything here is deliberately written the dumb way: plain Python loops
or brute-force sums over every pair, no shared code with the package, and
mpmath's arbitrary precision where float stabilization tricks would
otherwise be needed. If a fast vectorized routine and its oracle
disagree, the oracle wins until proven wrong.
"""

from __future__ import annotations

import math
import struct
import sys

import mpmath
import numpy as np

mpmath.mp.dps = 60


def mp_softmax(logits, smoothing=0.0, kept=None):
    """exp(x_i) / (smoothing + sum over kept of exp(x_j)), no shift tricks.

    Arbitrary precision makes overflow impossible, so this is the raw
    formula the stabilized implementation must agree with.
    """
    kept = list(range(len(logits))) if kept is None else sorted(kept)
    denom = mpmath.mpf(smoothing) + mpmath.fsum(mpmath.e ** mpmath.mpf(logits[j]) for j in kept)
    return [float(mpmath.e ** mpmath.mpf(x) / denom) for x in logits]


def tag_positions(tags):
    """(text positions, visual positions) of a sequence of 0/1 tags, by one
    loop over it."""
    text, visual = [], []
    for position, tag in enumerate(tags):
        if int(tag) == 0:
            text.append(position)
        else:
            visual.append(position)
    return text, visual


def topk_indices(scores, k):
    """Indices of the k largest scores, smaller index winning ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[: min(k, len(scores))])


def round_half_up(x):
    return math.floor(x + 0.5)


def split_pool(budget, recent, ratio, candidate_count):
    """(k_intra, k_inter) from the budget allocation rule."""
    pool = max(budget - recent, 0)
    k_inter = round_half_up(ratio * pool)
    k_intra = pool - k_inter
    return min(k_intra, candidate_count), min(k_inter, candidate_count)


def cross_self_sums(weights, query_tags, key_tags):
    """(intra, inter) column sums by elementwise loop."""
    rows = len(weights)
    cols = len(weights[0]) if rows else 0
    intra = [0.0] * cols
    inter = [0.0] * cols
    for i in range(rows):
        for j in range(cols):
            if query_tags[i] == key_tags[j]:
                intra[j] += weights[i][j]
            else:
                inter[j] += weights[i][j]
    return intra, inter


def biased(scores, obs_window, recency_bias):
    out = list(scores)
    start = max(len(out) - obs_window, 0)
    for j in range(start, len(out)):
        out[j] = out[j] * recency_bias
    return out


def select_retained(
    intra,
    inter,
    budget,
    recent,
    ratio,
    obs_window,
    recency_bias=1.0,
    widen=False,
):
    """Candidate indices surviving the two-ranking intersection.

    A nominal k of zero on either side leaves that side unconstrained
    (its mask is the whole candidate set). With widen on, both k values
    grow in lock-step, preserving the ratio, until the intersection
    reaches the pool or both sides are maximal.
    """
    cand = len(intra)
    intra_b = biased(intra, obs_window, recency_bias)
    inter_b = biased(inter, obs_window, recency_bias)
    pool = max(budget - recent, 0)

    def masks_for(total):
        k_inter = round_half_up(ratio * total)
        k_intra = total - k_inter
        eff_intra = cand if k_intra == 0 else min(k_intra, cand)
        eff_inter = cand if k_inter == 0 else min(k_inter, cand)
        return eff_intra, eff_inter

    eff_intra, eff_inter = masks_for(pool)
    chosen = sorted(
        set(topk_indices(intra_b, eff_intra)) & set(topk_indices(inter_b, eff_inter))
    )
    if widen:
        total = pool
        target = min(pool, cand)
        while len(chosen) < target and (eff_intra < cand or eff_inter < cand):
            total += 1
            step_intra, step_inter = masks_for(total)
            eff_intra = max(eff_intra, step_intra)
            eff_inter = max(eff_inter, step_inter)
            chosen = sorted(
                set(topk_indices(intra_b, eff_intra)) & set(topk_indices(inter_b, eff_inter))
            )
    return chosen


def smoothed_softmax_plain(row, smoothing):
    """exp(x)/(n + sum exp(x)) straight from the definition, no shift.

    Only safe for moderate logits; oracle inputs stay in that range.
    """
    exps = [math.exp(x) for x in row]
    denom = smoothing + sum(exps)
    return [e / denom for e in exps]


def shifted_exp_mixed(logits, smoothing):
    """(expd, denom) of the smoothed softmax by the scorer's earlier
    arithmetic, the bitwise reference for scoring._shifted_exp: float32 or
    float64 logits minus a float64 row shift in one mixed-dtype pass, then
    exp, and the row sum plus exp(ln smoothing - shift), ln 0 being -inf."""
    log_smoothing = np.log(smoothing) if smoothing > 0.0 else -np.inf
    shift = np.maximum(logits.max(axis=-1).astype(np.float64), log_smoothing)
    expd = logits - shift[..., None]
    np.exp(expd, out=expd)
    return expd, np.exp(log_smoothing - shift) + expd.sum(axis=-1)


def _head_average_over(blocks, retained, smoothing):
    """Head-averaged smoothed-softmax weights over retained columns."""
    heads = len(blocks)
    rows = len(blocks[0])
    avg = None
    for head in range(heads):
        weights = [
            smoothed_softmax_plain([blocks[head][r][c] for c in retained], smoothing)
            for r in range(rows)
        ]
        if avg is None:
            avg = weights
        else:
            avg = [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(avg, weights)
            ]
    return [[v / heads for v in row] for row in avg]


def csp_retained_global(
    blocks_by_step,
    full_tags,
    budget,
    recent,
    ratio,
    obs_window,
    recency_bias=1.0,
    widen=False,
    smoothing=0.0,
):
    """Drive the cross-self policy over recorded logit blocks, pure Python.

    blocks_by_step: list of (new_count, blocks) where blocks is
    (heads, rows, cols) for the single layer under test, columns indexed
    by global token id over the full run (cols = tokens alive at that
    step). Returns retained global ids after each step.
    """
    first_new, first_blocks = blocks_by_step[0]
    retained = list(range(len(first_blocks[0][0]) - first_new))
    history = []
    for new_count, blocks in blocks_by_step:
        cols = len(blocks[0][0])
        retained.extend(range(cols - new_count, cols))
        if len(retained) >= budget:
            rows = len(blocks[0])
            avg = _head_average_over(blocks, retained, smoothing)
            obs_rows = min(obs_window, rows)
            trimmed = [row[: len(retained) - recent] for row in avg[rows - obs_rows :]]
            qtags = [full_tags[g] for g in range(cols - obs_rows, cols)]
            ktags = [full_tags[g] for g in retained[: len(retained) - recent]]
            intra, inter = cross_self_sums(trimmed, qtags, ktags)
            chosen = select_retained(
                intra, inter, budget, recent, ratio, obs_window, recency_bias, widen
            )
            retained = [retained[c] for c in chosen] + retained[len(retained) - recent :]
        history.append(list(retained))
    return history


def global_topk_retained_global(
    blocks_by_step, budget, recent, obs_window, pool_width=1
):
    """Same driver for the plain column-sum top-k baseline (single layer)."""
    first_new, first_blocks = blocks_by_step[0]
    retained = list(range(len(first_blocks[0][0]) - first_new))
    history = []
    for new_count, blocks in blocks_by_step:
        cols = len(blocks[0][0])
        retained.extend(range(cols - new_count, cols))
        if len(retained) >= budget:
            rows = len(blocks[0])
            avg = _head_average_over(blocks, retained, 0.0)
            obs_rows = min(obs_window, rows)
            trimmed = [row[: len(retained) - recent] for row in avg[rows - obs_rows :]]
            sums = [sum(row[j] for row in trimmed) for j in range(len(trimmed[0]))]
            pooled = max_pool_same(sums, pool_width)
            chosen = topk_indices(pooled, max(budget - recent, 0))
            retained = [retained[c] for c in chosen] + retained[len(retained) - recent :]
        history.append(list(retained))
    return history


def accum_retained_global(blocks_by_step, budget, recent, obs_window):
    """Same driver for the accumulated-score baseline (single layer).

    Every step adds each retained token's column sum over the obs rows to
    its running total, a token entering at 0 on the step it arrives, below
    budget as well. At or over budget the top pool totals among the
    candidates survive, then the recent window, and the evicted tokens'
    totals are dropped with them.
    """
    first_new, first_blocks = blocks_by_step[0]
    retained = list(range(len(first_blocks[0][0]) - first_new))
    running = {}
    history = []
    for new_count, blocks in blocks_by_step:
        cols = len(blocks[0][0])
        retained.extend(range(cols - new_count, cols))
        rows = len(blocks[0])
        avg = _head_average_over(blocks, retained, 0.0)
        obs_rows = min(obs_window, rows)
        for j, token in enumerate(retained):
            column = sum(row[j] for row in avg[rows - obs_rows :])
            running[token] = running.get(token, 0.0) + column
        if len(retained) >= budget:
            cand = len(retained) - recent
            totals = [running[token] for token in retained[:cand]]
            chosen = topk_indices(totals, max(budget - recent, 0))
            retained = [retained[c] for c in chosen] + retained[cand:]
            running = {token: running[token] for token in retained}
        history.append(list(retained))
    return history


def max_pool_same(values, width):
    """1-D max pool, 'same' length, window centered with left bias."""
    if width <= 1:
        return list(values)
    n = len(values)
    left = (width - 1) // 2
    out = []
    for center in range(n):
        lo = max(center - left, 0)
        hi = min(center - left + width, n)
        out.append(max(values[lo:hi]))
    return out


def kde_probe(samples, bandwidth, points):
    """Gaussian kernel density via direct summation at probe points."""
    n = len(samples)
    norm = 1.0 / (n * bandwidth * math.sqrt(2.0 * math.pi))
    out = []
    for x in points:
        total = 0.0
        for s in samples:
            z = (x - s) / bandwidth
            total += math.exp(-0.5 * z * z)
        out.append(norm * total)
    return out


def kde_dense(samples, bandwidth, grid_points=512):
    """(grid, density) by summing every sample over every grid point.

    The grid is [min - 4h, max + 4h] at grid_points points, like the
    library's, so the two curves can be compared point for point.
    """
    samples = np.asarray(samples, dtype=np.float64)
    h = float(bandwidth)
    grid = np.linspace(samples.min() - 4 * h, samples.max() + 4 * h, grid_points)
    norm = 1.0 / (samples.size * h * np.sqrt(2.0 * np.pi))
    density = np.zeros(grid_points)
    for start in range(0, samples.size, 8192):
        chunk = samples[start : start + 8192]
        z = (grid[:, None] - chunk[None, :]) / h
        density += np.exp(-0.5 * z * z).sum(axis=1)
    return grid, density * norm


def format_cell(value):
    """One CSV cell the way kvprune's reports render it: ints as is,
    floats at 9 significant digits."""
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def density_csv_text(curves):
    """The analyze `_kde.csv` text, built and formatted one cell at a time.

    curves: one (intra, inter) pair per layer, each with .grid and .density.
    """
    lines = ["layer,pairing,weight,density"]
    for layer, (intra, inter) in enumerate(curves):
        for kind, curve in (("intra", intra), ("inter", inter)):
            for x, y in zip(curve.grid, curve.density):
                cells = [layer, kind, float(x), float(y)]
                lines.append(",".join(format_cell(cell) for cell in cells))
    return "\n".join(lines) + "\n"


def polyline_points(series, left, right, top, bottom):
    """Each series' SVG polyline `points` text, one scalar point at a time.

    The axes span every series' values padded by 4 % (or, when all values
    are equal, by 0.5 each way, or 4 % of the value where 0.5 rounds away),
    cut off at the largest float; a value maps linearly onto the plot box,
    y upward, and each coordinate prints with 2 decimals. An axis whose
    span exceeds the largest float maps every value halved.
    """
    largest = sys.float_info.max

    def padded(values):
        lo, hi = min(values), max(values)
        if hi == lo:
            pad = 0.5 if lo - 0.5 < hi + 0.5 else 0.04 * abs(lo)
        elif hi - lo < math.inf:
            pad = 0.04 * (hi - lo)
        else:
            pad = 0.04 * hi - 0.04 * lo
        return max(lo - pad, -largest), min(hi + pad, largest)

    def frac(value, lo, hi):
        if hi - lo < math.inf:
            return (value - lo) / (hi - lo)
        return (value / 2 - lo / 2) / (hi / 2 - lo / 2)

    x_lo, x_hi = padded([float(x) for _, xs, _ in series for x in xs])
    y_lo, y_hi = padded([float(y) for _, _, ys in series for y in ys])
    out = []
    for _, xs, ys in series:
        points = []
        for x, y in zip(xs, ys):
            px = left + frac(float(x), x_lo, x_hi) * (right - left)
            py = bottom - frac(float(y), y_lo, y_hi) * (bottom - top)
            points.append("%.2f,%.2f" % (px, py))
        out.append(" ".join(points))
    return out


def bar_geometry(values, left, right, top, bottom):
    """Each bar's SVG rect (x, y, width, height) text, and the y-axis tick
    labels, one scalar at a time.

    The y axis spans 0 and every value; an empty span is widened by 1
    upward, or by 4 % of the value where 1 rounds away. The bars share the
    plot width in equal slots, each 70 % of its slot wide and centred in
    it, and run from 0 to their value. Coordinates print with 2 decimals,
    ticks (five, splitting the axis in four) with 4 significant digits.
    """
    lo, hi = min(0.0, min(values)), max(values)
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else lo + 0.04 * abs(lo)

    def y(value):
        return bottom - (value - lo) / (hi - lo) * (bottom - top)

    slot = (right - left) / len(values)
    rects = []
    for index, value in enumerate(values):
        x0 = left + index * slot + (slot - 0.7 * slot) / 2
        rects.append(tuple("%.2f" % number for number in (
            x0, min(y(value), y(0.0)), 0.7 * slot, abs(y(value) - y(0.0)))))
    return rects, ["%.4g" % (lo + index * (hi - lo) / 4) for index in range(5)]


def js_from_samples(p_samples, q_samples, bins):
    """Histogram JS divergence by explicit probability-mass bookkeeping,
    with 0 * log 0 taken as 0."""
    lo = min(min(p_samples), min(q_samples))
    hi = max(max(p_samples), max(q_samples))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    width = (hi - lo) / bins

    def hist(samples):
        counts = [0.0] * bins
        for s in samples:
            index = int((s - lo) / width)
            if index == bins:  # right edge belongs to the last bin
                index -= 1
            counts[index] += 1.0
        total = sum(counts)
        return [c / total for c in counts]

    p = hist(p_samples)
    q = hist(q_samples)
    m = [(a + b) / 2.0 for a, b in zip(p, q)]
    kl_p = sum(a * math.log(a / c) for a, c in zip(p, m) if a > 0)
    kl_q = sum(b * math.log(b / c) for b, c in zip(q, m) if b > 0)
    return 0.5 * kl_p + 0.5 * kl_q


def modality_weight_pools(trace, obs_window=None, recent=0):
    """Per layer, (intra, inter) float64 arrays of a trace's attention
    weights by a plain loop, in the order diagnostics.modality_weight_samples
    documents: step, then head, then window row, then key.

    Each (layer, head) block is weighed on its own by the checked
    scoring.softmax_rows over every key, the recent ones included; then
    each entry of the last min(obs_window, rows) rows and the first
    length - recent keys goes to intra when tag[query] == tag[key] and to
    inter otherwise.
    """
    from kvprune.scoring import softmax_rows

    tags = [int(tag) for tag in trace.prefill_tags]
    intra = [[] for _ in range(trace.layers)]
    inter = [[] for _ in range(trace.layers)]
    for step in trace.steps:
        tags += [int(tag) for tag in step.new_tags]
        length = len(tags)
        rows = step.blocks.shape[2]
        window = rows if obs_window is None else min(obs_window, rows)
        for layer in range(trace.layers):
            for head in range(trace.heads):
                weights = softmax_rows(step.blocks[layer, head].astype(np.float64))
                for row in range(rows - window, rows):
                    query = length - rows + row
                    for key in range(length - recent):
                        pools = intra if tags[query] == tags[key] else inter
                        pools[layer].append(weights[row, key])
    return [
        (np.array(intra[layer], dtype=np.float64), np.array(inter[layer], dtype=np.float64))
        for layer in range(trace.layers)
    ]


def query_selector(window_tags, heads):
    """The (2, heads * window) 0/1 float64 text/visual query selector,
    stacked and then tiled across the heads."""
    text = np.asarray(window_tags) == 0
    return np.tile(np.stack([text, ~text]).astype(np.float64), heads)


def decoder_projections(spec):
    """A SyntheticDecoder's (keys, values, queries) arrays, one draw and
    one matmul per matrix: per layer a K and a V projection, then one Q
    projection per head."""
    d = spec.head_dim
    emb_rng = np.random.default_rng([spec.seed, 1])
    proj_rng = np.random.default_rng([spec.seed, 2])
    embeddings = emb_rng.standard_normal((spec.final_len, d))
    scale = 1.0 / np.sqrt(d)
    keys = np.empty((spec.layers, spec.final_len, d))
    values = np.empty((spec.layers, spec.final_len, d))
    queries = np.empty((spec.layers, spec.heads, spec.final_len, d))
    for layer in range(spec.layers):
        w_k = proj_rng.standard_normal((d, d)) * scale
        w_v = proj_rng.standard_normal((d, d)) * scale
        keys[layer] = embeddings @ w_k.T
        values[layer] = embeddings @ w_v.T
        for head in range(spec.heads):
            w_q = proj_rng.standard_normal((d, d)) * scale
            queries[layer, head] = embeddings @ w_q.T
    return keys, values, queries


def per_head_logit_block(spec, full_tags, layer, query_ids, key_ids):
    """SyntheticDecoder.logit_block before its float32 cast, from
    decoder_projections, one matmul per head."""
    keys, _, queries = decoder_projections(spec)
    q_tags = full_tags[query_ids]
    k_tags = full_tags[key_ids]
    cross = (q_tags[:, None] != k_tags[None, :]).astype(np.float64)
    out = np.empty((spec.heads, len(query_ids), len(key_ids)))
    scale = np.sqrt(float(spec.head_dim))
    for head in range(spec.heads):
        dots = queries[layer, head][query_ids] @ keys[layer][key_ids].T / scale
        out[head] = spec.spread * dots - spec.shift * cross
    return out


def per_step_logit_blocks(decoder, obs_window):
    """Each decode step's (added token count, blocks), built from scratch.

    One SyntheticDecoder.logit_block call per layer and step, over the
    newest min(obs_window, length) queries as rows and every live key as
    columns, stacked over layers. Step 0 is the prefill observation and
    adds no token; every later step adds one.
    """
    spec = decoder.spec
    length = spec.prefill_len
    out = []
    for step in range(spec.steps + 1):
        added = 1 if step else 0
        length += added
        rows = min(obs_window, length)
        query_ids = np.arange(length - rows, length)
        key_ids = np.arange(length)
        blocks = np.stack(
            [decoder.logit_block(layer, query_ids, key_ids) for layer in range(spec.layers)]
        )
        out.append((added, blocks))
    return out


def recon_error_final(spec, retained_ids, smoothing):
    """Reconstruction error of a synthetic run's last step, by plain loops.

    The newest query's logits come from a fresh single-query
    SyntheticDecoder.logit_block call over every key; the full and the
    smoothed pruned weights come from mp_softmax, and attention outputs
    and norms are summed element by element. Returns the mean over layers
    of ||full output - pruned output|| with the heads concatenated, where
    the pruned output attends only to that layer's retained_ids.
    """
    from kvprune.simulator import SyntheticDecoder

    decoder = SyntheticDecoder(spec)
    length = spec.final_len
    all_ids = np.arange(length)
    errors = []
    for layer in range(spec.layers):
        block = decoder.logit_block(layer, np.array([length - 1]), all_ids)
        values = decoder.values(layer, all_ids).tolist()
        kept = sorted(int(g) for g in retained_ids[layer])
        squared = 0.0
        for head in range(spec.heads):
            logits = [float(x) for x in block[head][0]]
            full_w = mp_softmax(logits)
            pruned_w = mp_softmax(logits, smoothing, kept)
            for d in range(spec.head_dim):
                full_out = 0.0
                for j in range(length):
                    full_out += full_w[j] * values[j][d]
                pruned_out = 0.0
                for j in kept:
                    pruned_out += pruned_w[j] * values[j][d]
                squared += (full_out - pruned_out) ** 2
        errors.append(math.sqrt(squared))
    return sum(errors) / len(errors)


def recon_step_errors(decoder, blocks, retained, smoothing):
    """One decode step's reconstruction error per layer, one softmax at a
    time: the newest query's logits are the last row of the step's blocks,
    each layer weighs them over every key (the full side) and over its
    retained ids with the smoothing term (the pruned side), and the error
    is the norm of the difference of the two outputs, heads concatenated.

    It is the per-step reference for the batched scoring of
    kvprune.simulator._recon_errors. A layer that keeps every key under
    smoothing 0 reports exactly 0.0, an empty kept set under smoothing 0
    raises ValueError, and one under smoothing > 0 has a zero pruned
    output.
    """
    length = blocks.shape[3]
    errors = []
    for layer, kept in enumerate(retained):
        if kept.size == length and smoothing == 0.0:
            errors.append(0.0)
            continue
        logits = blocks[layer, :, -1, :].astype(np.float64)
        values = decoder.values(layer, slice(length))
        full_out = _full_output(decoder, blocks, layer)
        if kept.size == 0:
            if smoothing == 0.0:
                raise ValueError("no columns and smoothing is 0; weights are undefined")
            pruned_out = np.zeros(full_out.shape)
        else:
            picked = logits[:, kept]
            log_n = math.log(smoothing) if smoothing > 0.0 else -math.inf
            shift = np.maximum(picked.max(axis=1), log_n)[:, None]
            expd = np.exp(picked - shift)
            weights = expd / (np.exp(log_n - shift) + expd.sum(axis=1, keepdims=True))
            pruned_out = weights @ values[kept]
        errors.append(float(np.linalg.norm(full_out - pruned_out)))
    return errors


def _full_output(decoder, blocks, layer):
    """The newest query's (heads, head_dim) attention output over every key
    of one layer at one step, by the plain softmax."""
    length = blocks.shape[3]
    logits = blocks[layer, :, -1, :].astype(np.float64)
    full = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (full / full.sum(axis=1, keepdims=True)) @ decoder.values(layer, slice(length))


def full_output_norms(decoder, blocks):
    """Per layer, the norm of the full side of recon_step_errors, heads
    concatenated: the scale of that step's outputs, which an error is a
    difference of."""
    return [float(np.linalg.norm(_full_output(decoder, blocks, layer)))
            for layer in range(blocks.shape[0])]


def read_trace_bytes(data):
    """Parse a CSPT trace from bytes, one struct.unpack per field or logit.

    Follows the layout in kvprune.traceio's docstring and raises its error
    classes in the reader's order: the header, then per step its tags, each
    block shape, the whole step's payload size (checked at its first block),
    the step's logits for finiteness, and finally trailing bytes. Returns
    (layers, heads, head_dim, prefill tags, [(new tags, blocks)]), with tags
    as lists of ints and blocks as nested lists [layer][head][row][col].
    """
    from kvprune.traceio import (
        BadMagicError,
        NonFiniteLogitError,
        SizeMismatchError,
        TruncatedTraceError,
        UnsupportedVersionError,
    )

    pos = 0
    step = None

    def need(count):
        if pos + count > len(data):
            raise TruncatedTraceError("truncated", step=step)

    def field(fmt):
        nonlocal pos
        need(struct.calcsize(fmt))
        (value,) = struct.unpack_from(fmt, data, pos)
        pos += struct.calcsize(fmt)
        return value

    def tags(count):
        out = [field("<B") for _ in range(count)]
        if any(tag > 1 for tag in out):
            raise SizeMismatchError("tag byte")
        return out

    need(4)
    if data[:4] != b"CSPT":
        raise BadMagicError("magic")
    pos = 4
    version = field("<H")
    layers, heads = field("<H"), field("<H")
    steps = field("<I")
    head_dim = field("<H")
    prefill_len = field("<I")
    if version != 1:
        raise UnsupportedVersionError("version")
    if min(layers, heads, head_dim, prefill_len) < 1:
        raise SizeMismatchError("degenerate")
    prefill = tags(prefill_len)

    length = prefill_len
    out_steps = []
    for step in range(steps):
        new = tags(field("<I"))
        length += len(new)
        blocks = [[None] * heads for _ in range(layers)]
        first = None
        for layer in range(layers):
            for head in range(heads):
                rows, cols = field("<I"), field("<I")
                if cols != length or not 1 <= rows <= length:
                    raise SizeMismatchError("block shape")
                if first is None:
                    first = (rows, cols)
                    need(layers * heads * (8 + rows * cols * 4) - 8)
                elif (rows, cols) != first:
                    raise SizeMismatchError("shapes differ")
                blocks[layer][head] = [[field("<f") for _ in range(cols)] for _ in range(rows)]
        for layer_blocks in blocks:
            for block in layer_blocks:
                for row in block:
                    if not all(math.isfinite(value) for value in row):
                        raise NonFiniteLogitError("non-finite")
        out_steps.append((new, blocks))
    if pos != len(data):
        raise SizeMismatchError("trailing")
    return layers, heads, head_dim, prefill, out_steps
