"""Seeded inputs and frozen constants of the end-to-end benchmark.

Everything the program under test is fed comes from :func:`make_inputs`,
which depends on ``(workload, seed, smoke)`` alone: token ids, document
lengths, op order, arrival times.  Only the standard library's ``random`` is
used, so the bytes (and ``Inputs.sha256``) do not depend on the NumPy
version.  Nothing here imports ``repro``.

Across seeds the *structure* of a workload is held fixed — document lengths,
op-mix counts per block, turns per session — and only token content, order
within a block and arrival times vary.  That is deliberate: the benchmark
compares commits, and a seed that changed how much work a run holds would
put workload variance on top of timing noise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("long_solo_dipr", "mid_batch8_coarse", "store_churn", "http_mix_open")

BOS = 256
"""``ByteTokenizer``'s begin-of-sequence id; documents start with it."""

# ---------------------------------------------------------------------------
# the one bench model and the one configuration (frozen at the seed commit)
# ---------------------------------------------------------------------------
MODEL = dict(
    dim=128, num_layers=3, num_query_heads=8, num_kv_heads=2, hidden_dim=256, seed=20250925
)
"""Flat layer 0 + two fine layers, GQA group 4, head_dim 16.  The weight seed
is a constant: the model is part of the program, not of the inputs."""

KV_BYTES_PER_TOKEN = 2 * MODEL["num_kv_heads"] * (MODEL["dim"] // MODEL["num_query_heads"]) * 4 * MODEL["num_layers"]

GPU_BUDGET_TOKENS = 1400
"""Between the "mid" (<= 1250 tokens) and "long" (>= 1560 tokens) documents,
so the optimizer itself routes long -> DIPR flat+fine and mid -> coarse."""

SERVICE_CONFIG = dict(
    gpu_memory_budget_bytes=GPU_BUDGET_TOKENS * KV_BYTES_PER_TOKEN,
    window_initial_tokens=32,
    window_last_tokens=96,
    dipr_beta=10.0,
    dipr_capacity_threshold=32,
)
"""README "DIPR probe" records why beta/capacity have these values."""

TENANTS = (("gold", 2), ("std", 1))
"""(name, deficit-round-robin weight) of the two ``http_mix_open`` tenants."""

SLO_LIMITS_MS = {
    # workload: (ttft_limit_ms, tpot_limit_ms); README "How the limits were frozen"
    "long_solo_dipr": (19.0, 62.0),
    "mid_batch8_coarse": (55.0, 40.0),
    "store_churn": (70.0, 27.0),
    "http_mix_open": (28.0, 1.5),
}

OPEN_LOOP_SESSIONS_PER_S = 12.0
"""Session arrival rate of ``http_mix_open``: 36 % of the closed-loop capacity
measured at the seed commit, and one arrival window of 12 sessions per
second (README "How the rate was frozen")."""

MAX_LAG_MS_P95 = 25.0
"""An open-loop run whose generator sent later than this (p95 of actual send
minus due, for requests that found a free slot) is reported as invalid."""


@dataclass(frozen=True)
class Sizes:
    """How much of a workload one mode (full or smoke) generates."""

    doc_lengths: tuple[int, ...]
    num_ops: int
    """Closed loops: ops generated (a run stops at ``--seconds`` or here)."""
    traced_ops: int
    """Fixed prefix of the list the traced pass replays."""
    oracle_sample: int
    """Requests whose dense-attention output is the ``dense_match`` oracle."""
    solo_sample: int = 0
    """Requests re-served one at a time for the batching equivalence check."""


FULL = {
    "long_solo_dipr": Sizes((1560, 1600, 1640), num_ops=96, traced_ops=5, oracle_sample=16),
    "mid_batch8_coarse": Sizes(
        (1100, 1130, 1160, 1190, 1220, 1250), num_ops=1440, traced_ops=72,
        oracle_sample=16, solo_sample=16,
    ),
    "store_churn": Sizes(
        (400, 240, 480, 1040, 280, 520, 340, 600, 380, 1060, 300, 440),
        num_ops=2400, traced_ops=120, oracle_sample=16,
    ),
    # num_ops and traced_ops count arrival windows of 12 sessions here: the
    # schedule covers 32 s, the traced prefix 4 s
    "http_mix_open": Sizes((300, 450, 600), num_ops=32, traced_ops=4, oracle_sample=16),
}
SMOKE = {
    "long_solo_dipr": Sizes((1450,), num_ops=4, traced_ops=2, oracle_sample=2),
    "mid_batch8_coarse": Sizes((1040, 1060), num_ops=24, traced_ops=12, oracle_sample=3, solo_sample=3),
    "store_churn": Sizes((260, 300, 340, 1040, 380, 420), num_ops=60, traced_ops=40, oracle_sample=3),
    "http_mix_open": Sizes((200, 260), num_ops=2, traced_ops=1, oracle_sample=4),
}

CLIENTS = {"long_solo_dipr": 1, "mid_batch8_coarse": 8, "store_churn": 2}
"""Logical closed-loop clients; ``http_mix_open`` uses ``nproc`` slots."""


@dataclass
class Op:
    """One entry of a request list.

    ``kind`` is ``read``/``chat``/``agent``/``rag``/``fresh`` (a submitted
    request) or ``ingest`` (store a new document, then drop ``remove``).
    The prompt of a request is ``documents[doc] + suffix``, or — for a
    follow-up turn — the prompt of op ``extends`` followed by ``suffix``.
    """

    kind: str
    suffix: list[int] = field(default_factory=list)
    doc: str | None = None
    extends: int | None = None
    after: int | None = None
    """Index of the op that must have completed before this one starts."""
    max_new_tokens: int = 0
    store_context_id: str | None = None
    tenant: str | None = None
    context_id: str | None = None
    """``ingest``: id the new document is stored under."""
    remove: list[str] = field(default_factory=list)
    session: int | None = None
    due_s: float | None = None
    """Open loop: arrival time of a session's first turn; later turns are
    due when the previous one completes."""
    cancel_after: int | None = None
    cancel_mode: str | None = None
    """``delete`` (DELETE /v1/requests/{id}) or ``abort`` (TCP reset)."""

    @property
    def is_request(self) -> bool:
        return self.kind != "ingest"


@dataclass
class Inputs:
    workload: str
    seed: int
    smoke: bool
    sizes: Sizes
    documents: dict[str, list[int]]
    """Ingested during set-up, in this order."""
    warmup: list[Op]
    """Served to completion during set-up (not timed, not checked)."""
    ops: list[Op]
    oracle_sample: list[int]
    """Indices into ``ops``; early in the list so every run reaches them."""
    solo_sample: list[int]
    service_overrides: dict = field(default_factory=dict)
    """Workload-specific ``AlayaDBConfig`` fields beyond ``SERVICE_CONFIG``
    (``context_db_path`` is added at set-up: it names a fresh directory)."""

    def __post_init__(self) -> None:
        # documents that arrive mid-run through an ``ingest`` op; reads
        # address them by name exactly like the ones ingested at set-up
        self._later = {op.context_id: op.suffix for op in self.ops if op.kind == "ingest"}

    def prompt(self, op: Op) -> list[int]:
        if op.extends is not None:
            return self.prompt(self.ops[op.extends]) + op.suffix
        if op.doc is None:
            return list(op.suffix)
        document = self.documents.get(op.doc)
        return (self._later[op.doc] if document is None else document) + op.suffix

    def sha256(self) -> str:
        """Digest of everything the program is fed, as canonical JSON."""
        payload = {
            "workload": self.workload,
            "documents": self.documents,
            "warmup": [asdict(op) for op in self.warmup],
            "ops": [asdict(op) for op in self.ops],
            "oracle_sample": self.oracle_sample,
            "solo_sample": self.solo_sample,
            "service_overrides": self.service_overrides,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def _tokens(rng: random.Random, n: int) -> list[int]:
    return list(rng.randbytes(n))


def _document(rng: random.Random, n: int) -> list[int]:
    return [BOS] + _tokens(rng, n - 1)


def _first_requests(ops: list[Op], count: int, docs: set[str] | None = None) -> list[int]:
    picked = [
        i for i, op in enumerate(ops)
        if op.is_request and op.cancel_after is None and (docs is None or op.doc in docs)
    ]
    return picked[:count]


def _long_solo_dipr(rng: random.Random, sizes: Sizes) -> tuple:
    docs = {f"long-{i}": _document(rng, n) for i, n in enumerate(sizes.doc_lengths)}
    names = list(docs)
    ops = [
        Op("read", doc=names[i % len(names)], suffix=_tokens(rng, 40), max_new_tokens=16)
        for i in range(sizes.num_ops)
    ]
    warmup = [Op("read", doc=name, suffix=_tokens(rng, 8), max_new_tokens=2) for name in names]
    return docs, warmup, ops, _first_requests(ops, sizes.oracle_sample), [], {}


def _zipf_block(rng: random.Random, names: list[str], block: int) -> list[str]:
    """``block`` picks with Zipf(1.0) popularity, exact counts, seeded order."""
    weights = [1.0 / rank for rank in range(1, len(names) + 1)]
    total = sum(weights)
    counts = [int(block * w / total) for w in weights]
    for i in range(block - sum(counts)):  # leftovers to the most popular
        counts[i % len(counts)] += 1
    picks = [name for name, count in zip(names, counts) for _ in range(count)]
    rng.shuffle(picks)
    return picks


def _mid_batch8_coarse(rng: random.Random, sizes: Sizes) -> tuple:
    docs = {f"mid-{i}": _document(rng, n) for i, n in enumerate(sizes.doc_lengths)}
    names = list(docs)
    ops: list[Op] = []
    while len(ops) < sizes.num_ops:
        for name in _zipf_block(rng, names, min(48, sizes.num_ops)):
            ops.append(Op("read", doc=name, suffix=_tokens(rng, 24), max_new_tokens=16))
    ops = ops[: sizes.num_ops]
    warmup = [Op("read", doc=name, suffix=_tokens(rng, 8), max_new_tokens=2) for name in names]
    # the oracle ingests only the documents its sample touches: keep it to
    # the three most popular so the oracle costs half the set-up
    sample_docs = set(names[:3])
    return (
        docs, warmup, ops,
        _first_requests(ops, sizes.oracle_sample, sample_docs),
        _first_requests(ops, sizes.solo_sample),
        {},
    )


CHURN_BLOCK = 20
CHURN_CHAT_SLOTS = (2, 7, 12, 17)
CHURN_CHAT_TURNS = 8
CHURN_NEW_DOC_TOKENS = 400


def _store_churn(rng: random.Random, sizes: Sizes) -> tuple:
    docs = {f"lib-{i:03d}": _document(rng, n) for i, n in enumerate(sizes.doc_lengths)}
    library = list(docs)  # oldest first
    next_doc = len(library)
    pool: list[str] = []
    ops: list[Op] = []
    # two chat chains alternate; [context id, turns done, index of last turn]
    chains = [[f"chat-{i:03d}", 0, None] for i in range(2)]
    next_chain = 2
    finished_chains: list[str] = []
    new_doc_tokens = min(CHURN_NEW_DOC_TOKENS, max(sizes.doc_lengths))
    while len(ops) < sizes.num_ops:
        slot = len(ops) % CHURN_BLOCK
        if slot == CHURN_BLOCK - 1:
            new_id = f"lib-{next_doc:03d}"
            next_doc += 1
            oldest = library.pop(0)
            library.append(new_id)
            pool = [name for name in pool if name != oldest]
            pool.insert(rng.randrange(len(pool) + 1), new_id)
            ops.append(
                Op("ingest", context_id=new_id, suffix=_document(rng, new_doc_tokens),
                   remove=[oldest] + finished_chains)
            )
            finished_chains = []
        elif slot in CHURN_CHAT_SLOTS:
            chain = chains[CHURN_CHAT_SLOTS.index(slot) % 2]
            first = chain[1] == 0
            ops.append(
                Op("chat", suffix=([BOS] + _tokens(rng, 159)) if first else _tokens(rng, 32),
                   extends=None if first else chain[2], after=chain[2],
                   max_new_tokens=4, store_context_id=chain[0])
            )
            chain[1] += 1
            chain[2] = len(ops) - 1
            if chain[1] == CHURN_CHAT_TURNS:
                finished_chains.append(chain[0])
                chain[:] = [f"chat-{next_chain:03d}", 0, None]
                next_chain += 1
        else:
            if not pool:
                pool = list(library)
                rng.shuffle(pool)
            ops.append(Op("read", doc=pool.pop(), suffix=_tokens(rng, 24), max_new_tokens=4))
    initial = list(docs)
    warmup = [Op("read", doc=name, suffix=_tokens(rng, 8), max_new_tokens=2) for name in initial[:2]]
    # oracle documents: the three youngest of the initial library (they
    # survive the longest); one of them is above short_context_threshold
    sample_docs = set(initial[-3:])
    library_kv = sum(sizes.doc_lengths) * KV_BYTES_PER_TOKEN
    overrides = {"context_store_budget_bytes": library_kv // 3}
    return docs, warmup, ops, _first_requests(ops, sizes.oracle_sample, sample_docs), [], overrides


HTTP_WINDOW = ("chat", "agent", "rag", "chat", "fresh", "agent", "chat", "rag", "agent", "chat", "rag", "fresh")
HTTP_TURNS = {"chat": (3, 4, 3, 4), "agent": (3, 3, 2), "rag": (1,), "fresh": (1,)}
HTTP_OUT = {"chat": 12, "agent": 8, "rag": 12, "fresh": 12}
HTTP_CANCELLED_OUT = 96


def _http_mix_open(rng: random.Random, sizes: Sizes) -> tuple:
    docs = {f"rag-{i}": _document(rng, n) for i, n in enumerate(sizes.doc_lengths)}
    rag_names = list(docs)
    window_s = len(HTTP_WINDOW) / OPEN_LOOP_SESSIONS_PER_S
    ops: list[Op] = []
    session = 0
    seen = {kind: 0 for kind in HTTP_TURNS}
    cancellable = 0
    for window in range(sizes.num_ops):
        kinds = list(HTTP_WINDOW)
        rng.shuffle(kinds)
        # one session per 1/rate slot, at a random phase inside it: arrivals
        # stay independent of the system but the queueing tail does not hang
        # on how a seed happened to bunch them
        arrivals = [window_s * (window + (k + rng.random()) / len(kinds)) for k in range(len(kinds))]
        for kind, due in zip(kinds, arrivals):
            turns = HTTP_TURNS[kind][seen[kind] % len(HTTP_TURNS[kind])]
            seen[kind] += 1
            tenant = TENANTS[0][0] if session % 3 else TENANTS[1][0]
            previous = None
            for turn in range(turns):
                op = Op(kind, max_new_tokens=HTTP_OUT[kind], tenant=tenant, session=session,
                        extends=previous, after=previous, due_s=due if turn == 0 else None)
                if kind == "chat":
                    op.suffix = ([BOS] + _tokens(rng, rng.randrange(120, 200))) if turn == 0 else _tokens(rng, rng.randrange(24, 40))
                    op.store_context_id = f"s{session:04d}-chat"
                elif kind == "agent":
                    op.suffix = ([BOS] + _tokens(rng, rng.randrange(200, 300))) if turn == 0 else _tokens(rng, rng.randrange(40, 60))
                    op.store_context_id = f"s{session:04d}-agent"
                elif kind == "rag":
                    op.doc = rag_names[seen[kind] % len(rag_names)]
                    op.suffix = _tokens(rng, 24)
                else:
                    op.suffix = [BOS] + _tokens(rng, rng.randrange(80, 200))
                ops.append(op)
                previous = len(ops) - 1
                if kind in ("chat", "agent"):
                    cancellable += 1
                    if cancellable % 10 == 0:
                        # 10 % of chat/agent turns cancel mid-stream, half by
                        # DELETE and half by TCP abort; that ends the session.
                        # The interrupted answer is a long one, so the cancel
                        # always lands while the request is still generating
                        op.max_new_tokens = HTTP_CANCELLED_OUT
                        op.cancel_after = 3
                        op.cancel_mode = "delete" if (cancellable // 10) % 2 else "abort"
                        break
            session += 1
    warmup = [
        Op("rag", doc=rag_names[0], suffix=_tokens(rng, 8), max_new_tokens=2, tenant=TENANTS[0][0]),
        Op("fresh", suffix=[BOS] + _tokens(rng, 64), max_new_tokens=2, tenant=TENANTS[1][0]),
    ]
    return docs, warmup, ops, _first_requests(ops, sizes.oracle_sample), [], {}


_GENERATORS = {
    "long_solo_dipr": _long_solo_dipr,
    "mid_batch8_coarse": _mid_batch8_coarse,
    "store_churn": _store_churn,
    "http_mix_open": _http_mix_open,
}


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """The inputs of one workload; the same arguments give the same bytes."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    sizes = (SMOKE if smoke else FULL)[workload]
    rng = random.Random(f"alayadb-e2e:{workload}:{seed}")
    docs, warmup, ops, oracle_sample, solo_sample, overrides = _GENERATORS[workload](rng, sizes)
    return Inputs(
        workload=workload, seed=seed, smoke=smoke, sizes=sizes, documents=docs,
        warmup=warmup, ops=ops, oracle_sample=oracle_sample, solo_sample=solo_sample,
        service_overrides=overrides,
    )
