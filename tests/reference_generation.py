"""Reference generation (test oracle).

``reference_generate`` is prefill → greedy sample → decode over one cache, written out over
``TransformerModel.forward_rows``: the whole prompt in one pass (a lone BOS when it is empty), then
one row per sampled token, stopping after ``max_new_tokens`` tokens or at the first EOS.  Over a
fresh ``DynamicCache`` it is the coupled full-attention baseline; over a ``Session`` it drives the
decoupled path one request at a time.  It shares no code with ``InferenceService``'s loop."""

from __future__ import annotations

from repro.kvcache.cache import DynamicCache
from repro.llm.sampling import greedy
from repro.llm.tokenizer import ByteTokenizer

TOKENIZER = ByteTokenizer()


def reference_generate(model, prompt_tokens, cache=None, max_new_tokens=16) -> list[int]:
    """The tokens greedily generated after ``prompt_tokens``, which extend ``cache`` (a fresh
    ``DynamicCache`` when omitted).  ``max_new_tokens=0`` still prefills the prompt."""
    cache = DynamicCache() if cache is None else cache
    prompt = [int(token) for token in prompt_tokens] or [TOKENIZER.bos_id]
    logits = model.forward_rows(prompt, [cache], [len(prompt)])[-1]
    generated: list[int] = []
    while len(generated) < max_new_tokens:
        generated.append(greedy(logits))
        if generated[-1] == TOKENIZER.eos_id or len(generated) == max_new_tokens:
            break
        logits = model.forward_rows(generated[-1:], [cache], [1])[-1]
    return generated
