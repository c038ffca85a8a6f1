"""Summary statistics of the benchmark: tail percentiles and span self time."""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it, so that one outlier cannot set it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sequence."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supported(n, p):
    return samples_beyond(n, p) >= MIN_BEYOND


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def busy(span):
    """A span is busy for its whole interval unless it records less."""
    return span.get("busy", span["end"] - span["start"])


def self_times(spans):
    """Self time of each span, in the unit of start and end.

    A span that records less busy time than its interval, such as a
    partition reader that is open from createReader to close while Spark
    processes its rows on the same thread, has its busy time as self time.
    Any other span has its duration minus the part of its interval that its
    children cover (children may overlap one another). Of the wall time that
    only partly busy children cover, the share those children were busy
    counts as covered and the rest stays with the parent.

    `spans` is a list of dicts with id, parent, start, end and optionally
    busy; the result maps span id to self time.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if busy(s) < dur:
            out[s["id"]] = busy(s)
            continue
        kids = children.get(s["id"], [])
        partly = [k for k in kids if busy(k) < k["end"] - k["start"]]
        whole = [(k["start"], k["end"]) for k in kids if busy(k) >= k["end"] - k["start"]]
        cover_whole = covered(whole, s["start"], s["end"])
        cover_all = covered([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        span_sum = sum(k["end"] - k["start"] for k in partly)
        share = sum(busy(k) for k in partly) / span_sum if span_sum else 0.0
        out[s["id"]] = dur - cover_whole - (cover_all - cover_whole) * share
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, start, end, query, busy = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "name": name,
                          "start": int(start), "end": int(end), "query": int(query),
                          "busy": int(busy)})
    return spans


def layer_totals(spans):
    """Per layer: summed self time and span count."""
    selft = self_times(spans)
    out = {}
    for s in spans:
        t, n = out.get(layer_of(s["name"]), (0, 0))
        out[layer_of(s["name"])] = (t + selft[s["id"]], n + 1)
    return out


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0
