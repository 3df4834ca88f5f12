"""The `session` workload: a library or REPL user at the north-star ranks.

One process builds a `RennerMonoid` each at A7, B5 and D5 and answers a
seeded stream of queries with one caller in a closed loop.  The mix is 50%
`nf` (evaluate, normal_decompose, canonical_word and length: the `renner nf`
payload), 20% `mul`, 20% `len` and 10% `left_mult_generator`.  Half the
queries revisit operands of earlier queries on the same engine, so
`normal_decompose` runs both from its memo and from scratch.  Operands are
w1 * e * w2 with e dealt in turn from a shuffled deck of the lattice
idempotents and the unit, and w1, w2 drawn evenly from the unit group.

The stream comes in blocks of 250 queries.  Every block holds the same
numbers of each kind, engine and revisit, in seeded order, and deals new
operands the idempotents in turn: block times then differ by the machine
and the elements drawn, not by how many slow misses a block happened to get.
Each block is generated from the seed before its timing starts, and blocks
run until `seconds` of timed work have passed, and at least MIN_BLOCKS of
them.  Each block is bracketed by machine probes and its times scaled
(`common.Scale`); query metrics are medians over the blocks after the first
WARMUP, and latency percentiles pool their queries, at least 3,500, so that
the 99th percentile has 35 samples beyond it.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from common import Alphabet, Scale, compose, end_to_end, median, percentile
from rennermonoids.model import PartialInjection
from rennermonoids.monoid import RennerMonoid
from tracing import EXPECTED, Tracer, count_products, layer_metrics, merge, missing_spans, span_table

RANKS = (("A", 7), ("B", 5), ("D", 5))
KINDS, WEIGHTS = ("nf", "mul", "len", "lmg"), (50, 20, 20, 10)
BLOCK = 250
MIN_BLOCKS = 16  # peak RSS is read after this many blocks, a fixed amount of work
PER = 1000  # wall_s and traced query-phase figures are per this many queries
SETUP_REPS = 3
REDRAWS = 8
WARMUP = 2  # blocks left out of the end-to-end metrics


@dataclass(frozen=True)
class Query:
    engine: int  # index into the workload's ranks
    kind: str
    words: tuple  # operand words as GeneratorName tuples
    tokens: tuple[str, ...]  # lattice idempotent of each operand, "1" for the unit
    images: tuple[tuple, ...]  # each operand evaluated by the benchmark's own product
    generator: int  # index i of s_i for left_mult_generator, else 0

    def decomposed(self) -> tuple[tuple, ...]:
        """Images of the elements this query brings to normal form."""
        if self.kind == "mul":
            return (*self.images, compose(*self.images))
        return self.images


class SessionStream:
    """Seeded query stream; the same seed yields the same blocks."""

    def __init__(self, seed: int, ranks=RANKS, block: int = BLOCK):
        self.ranks = ranks
        self.block = block
        self.rng = random.Random(seed)
        self.alphabets = [Alphabet(f, r) for f, r in ranks]
        self._pool: list[list[tuple]] = [[] for _ in ranks]
        self._deck: list[list[str]] = [[] for _ in ranks]
        self._seen: list[set] = [set() for _ in ranks]  # images brought to normal form

    def _token(self, k: int) -> str:
        """Next idempotent for a new operand of engine k, dealt from a
        shuffled deck of all of them: a miss costs from microseconds to
        milliseconds depending on the idempotent, so every block gets an
        even share of each instead of a lucky or unlucky draw."""
        deck = self._deck[k]
        if not deck:
            deck += self.alphabets[k].idempotents
            self.rng.shuffle(deck)
        return deck.pop()

    def next_block(self) -> list[Query]:
        slots = []
        for kind, weight in zip(KINDS, WEIGHTS):
            n, engines = self.block * weight // sum(WEIGHTS), len(self.ranks)
            # Even shares per engine, and every other query per engine revisits.
            slots += [(i % engines, kind, i // engines % 2 == 0) for i in range(n)]
        self.rng.shuffle(slots)
        return [self._query(*slot) for slot in slots]

    def _operand(self, k: int, revisit: bool) -> tuple:
        pool = self._pool[k]
        if revisit and pool:
            return self.rng.choice(pool)
        a = self.alphabets[k]
        token = self._token(k)
        middle = () if token == "1" else (token,)
        # A new operand is redrawn while it repeats an earlier element, so
        # that misses stay misses as the run goes on; only the idempotents
        # with a handful of elements in their J-class run out.
        for _ in range(REDRAWS):
            tokens = self.rng.choice(a.unit_words) + middle + self.rng.choice(a.unit_words)
            image = a.evaluate(tokens)
            if image not in self._seen[k]:
                break
        op = (tuple(a.names[t] for t in tokens), token, image)
        pool.append(op)
        return op

    def _query(self, k: int, kind: str, revisit: bool) -> Query:
        ops = [self._operand(k, revisit) for _ in range(2 if kind == "mul" else 1)]
        generator = int(self.rng.choice(self.alphabets[k].reflections)[1:]) if kind == "lmg" else 0
        q = Query(
            k,
            kind,
            tuple(o[0] for o in ops),
            tuple(o[1] for o in ops),
            tuple(o[2] for o in ops),
            generator,
        )
        self._seen[k].update(q.decomposed())
        return q


class StreamStats:
    """Repeat share of normal-form requests and spread of operands over
    lattice idempotents, judged from the stream alone."""

    def __init__(self, ranks=RANKS):
        self.labels = [f"{f}{r}" for f, r in ranks]
        self._seen: list[set] = [set() for _ in ranks]
        self.calls = 0
        self.repeats = 0
        self.spread: Counter = Counter()

    def add(self, q: Query) -> None:
        seen = self._seen[q.engine]
        for image in q.decomposed():
            self.calls += 1
            if image in seen:
                self.repeats += 1
            else:
                seen.add(image)
        for token in q.tokens:
            self.spread[f"{self.labels[q.engine]}:{token}"] += 1

    @property
    def repeat_share(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0

    def summary(self) -> dict:
        return {
            "normal_form_requests": self.calls,
            "repeat_share": self.repeat_share,
            "idempotent_spread": dict(sorted(self.spread.items())),
        }


def answer(engine: RennerMonoid, q: Query):
    """One query, as a library caller would make it."""
    if q.kind == "nf":
        nf = engine.normal_decompose(engine.evaluate(q.words[0]))
        return engine.canonical_word(nf), engine.length(nf)
    if q.kind == "mul":
        a = engine.normal_decompose(engine.evaluate(q.words[0]))
        b = engine.normal_decompose(engine.evaluate(q.words[1]))
        nf = engine.multiply(a, b)
        return engine.canonical_word(nf), engine.length(nf)
    if q.kind == "len":
        return None, engine.length_of_element(engine.evaluate(q.words[0]))
    nf = engine.normal_decompose(engine.evaluate(q.words[0]))
    return engine.left_mult_generator(q.generator, nf), None


def check(engine: RennerMonoid, alphabet: Alphabet, q: Query, result) -> bool:
    """The answer's canonical word, evaluated by the benchmark's own product,
    must be the expected element, and its s-letters must number the length."""
    if isinstance(result, Exception):
        return False
    word, length = result
    if q.kind == "len":
        word = engine.canonical_word(engine.normal_decompose(PartialInjection(q.images[0])))
    elif q.kind == "lmg":
        word, length = engine.canonical_word(result[0]), engine.length(result[0])
    tokens = [str(g) for g in word]
    if q.kind == "mul":
        expected = compose(*q.images)
    elif q.kind == "lmg":
        expected = compose(alphabet.images[f"s{q.generator}"], q.images[0])
    else:
        expected = q.images[0]
    if alphabet.evaluate(tokens) != expected or sum(t[0] == "s" for t in tokens) != length:
        return False
    if q.kind == "nf":
        # w1 * e * w2 lies in the J-class of e, so e is its normal form's idempotent.
        idem = [t for t in tokens if t[0] != "s"]
        return idem == ([] if q.tokens[0] == "1" else [q.tokens[0]])
    return True


@dataclass
class Block:
    queries: list[Query]
    latencies_ns: list[int] = field(default_factory=list)
    results: list = field(default_factory=list)
    elapsed_s: float = 0.0
    fresh: int = 0  # normal-form requests for elements new to their engine
    scale: float = 1.0  # machine scaling of this block's times (common.Scale)

    def per_query_s(self) -> float:
        return self.elapsed_s * self.scale / len(self.queries)


def _run_block(engines, queries: list[Query]) -> Block:
    b = Block(queries)
    clock = time.perf_counter_ns
    start = clock()
    for q in queries:
        t0 = clock()
        try:
            r = answer(engines[q.engine], q)
        except Exception as exc:  # a failed query is counted, not fatal
            r = exc
        b.latencies_ns.append(clock() - t0)
        b.results.append(r)
    b.elapsed_s = (clock() - start) / 1e9
    return b


def _build(ranks) -> list[RennerMonoid]:
    return [RennerMonoid(f, r) for f, r in ranks]


def _timed_build(ranks) -> tuple[list[RennerMonoid], float, float]:
    """The engines, and their build time summed over ranks, raw and scaled;
    each rank's build is scaled on its own."""
    engines, raw, scaled = [], 0.0, 0.0
    scale = Scale()
    for f, r in ranks:
        scale.start()
        t0 = time.perf_counter()
        engines.append(RennerMonoid(f, r))
        elapsed = time.perf_counter() - t0
        raw += elapsed
        scaled += elapsed * scale.stop()
    return engines, raw, scaled


def run(
    seed: int,
    seconds: float,
    trace: bool,
    ranks=RANKS,
    block: int = BLOCK,
    min_blocks: int = MIN_BLOCKS,
    setup_reps: int = SETUP_REPS,
) -> dict:
    stream = SessionStream(seed, ranks, block)
    tracer = Tracer()
    if trace:
        tracer.install()
    engines, raw, scaled = _timed_build(ranks)
    setups = [(raw, scaled)]
    tracer.uninstall()
    setup_agg = tracer.take()

    # The other set-up samples are taken after a third and two thirds of the
    # timed work, so that set-up and query samples both spread over the run
    # rather than over one spell of the machine; but not before peak RSS is
    # read, which would then hold two sets of engines.  A traced run
    # alternates untraced and traced blocks; the difference in their times
    # is the tracing overhead.
    blocks: list[Block] = []
    traced_aggs: list[dict] = []
    peak_rss_mb = 0.0
    timed = 0.0
    scale = Scale()
    while timed < seconds or len(blocks) < min_blocks:
        rebuild = len(blocks) >= min_blocks and timed >= seconds * len(setups) / setup_reps
        if not trace and len(setups) < setup_reps and rebuild:
            setups.append(_timed_build(ranks)[1:])
        queries = stream.next_block()
        traced = trace and len(blocks) % 2 == 1
        if traced:
            tracer.install()
        scale.start()
        b = _run_block(engines, queries)
        b.scale = scale.stop()
        if traced:
            tracer.uninstall()
            traced_aggs.append(tracer.take())
        elif trace:  # the tracer judges hits against every earlier request
            for q in queries:
                tracer.seen.setdefault(engines[q.engine], set()).update(q.decomposed())
        blocks.append(b)
        timed += b.elapsed_s
        if len(blocks) == min_blocks:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while not trace and len(setups) < setup_reps:
        setups.append(_timed_build(ranks)[1:])

    stats = StreamStats(ranks)
    failed = 0
    for b in blocks:
        fresh_before = stats.calls - stats.repeats
        for q, r in zip(b.queries, b.results):
            stats.add(q)
            failed += not check(engines[q.engine], stream.alphabets[q.engine], q, r)
        b.fresh = stats.calls - stats.repeats - fresh_before
    queries = [q for b in blocks for q in b.queries]
    details = {
        "queries": len(queries),
        "blocks": len(blocks),
        "stream": stats.summary(),
        "setup_samples_s": [raw for raw, _ in setups],
        "block_samples_s": [b.elapsed_s for b in blocks],
        "block_scales": [b.scale for b in blocks],
    }

    if not trace:
        # Medians over the blocks after the warm-up, of scaled times.
        timed_blocks = blocks[min(WARMUP, len(blocks) - 1) :]
        per_query = median([b.per_query_s() for b in timed_blocks])
        latencies = [ns / 1e3 * b.scale for b in timed_blocks for ns in b.latencies_ns]
        metrics = {
            "setup_s": (median([s for _, s in setups]), "s"),
            "wall_s": (per_query * PER, "s"),
            "query_p50_us": (percentile(latencies, 50), "us"),
            "query_p99_us": (percentile(latencies, 99), "us"),
            "queries_per_s": (1 / per_query, "1/s"),
            "elements_per_s": (
                median([b.fresh / (b.elapsed_s * b.scale) for b in timed_blocks]),
                "1/s",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw_latencies = [ns / 1e3 for b in timed_blocks for ns in b.latencies_ns]
        details["unscaled"] = {
            "setup_s": median([raw for raw, _ in setups]),
            "wall_s": median([b.elapsed_s / len(b.queries) for b in timed_blocks]) * PER,
            "query_p50_us": percentile(raw_latencies, 50),
            "query_p99_us": percentile(raw_latencies, 99),
        }
        return end_to_end(len(queries), failed, metrics, details)

    engines = None
    counter, undo = count_products()
    try:
        replay = _build(ranks)
        setup_products = counter[0]
        for q in queries:
            try:
                answer(replay[q.engine], q)
            except Exception:  # already counted as failed above
                pass
        query_products = counter[0] - setup_products
    finally:
        undo()
    traced_blocks, plain_blocks = blocks[1::2], blocks[0::2]
    scale_per_k = PER / sum(len(b.queries) for b in traced_blocks)
    agg = merge([(setup_agg, 1)] + [(a, scale_per_k) for a in traced_aggs])
    missing = missing_spans("session", agg)
    details["missing_spans"] = missing
    details["spans"] = span_table(agg)
    details["wall_traced_s"] = median([b.per_query_s() for b in traced_blocks]) * PER
    details["wall_untraced_s"] = median([b.per_query_s() for b in plain_blocks]) * PER
    overhead = details["wall_traced_s"] - details["wall_untraced_s"]
    products = setup_products + query_products * PER / len(queries)
    return {
        "attempted": len(queries) + len(EXPECTED["session"]),
        "failed": failed + len(missing),
        "metrics": layer_metrics(agg, products, 0, overhead),
        "details": details,
    }
