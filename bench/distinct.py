"""Rewrite a synthetic corpus into the distinct-text regime.

The library's generator draws every turn from a few dozen templates, so a
corpus of thousands of turns holds only ~36 distinct texts. Real call
transcripts repeat almost nothing. This module rewrites each turn text with
seeded slot fills (names, amounts, account digits), ASR-style token drops
and substitutions, and near-miss irrelevant phrases that share words with
the hold scripts. Calls, turn indices, labels, channels, timestamps and
holds are kept, so the generator's violation ledger stays exact.
"""

from __future__ import annotations

import random
from dataclasses import replace

from holdscan.corpus import IRRELEVANT, Call, Corpus

NAMES = (
    "anna", "ben", "carla", "david", "elena", "frank", "grace", "hugo", "irene", "jonas",
    "karen", "leo", "maria", "nina", "oscar", "paula", "quentin", "rosa", "simon", "tara",
    "ulrich", "vera", "walter", "yasmin", "zoe", "mister patel", "missus okafor",
    "mister lindqvist", "doctor chen", "miss romero",
)

TOPICS = (
    "the roaming charges", "your last invoice", "the router replacement", "the direct debit",
    "your fibre upgrade", "the cancellation fee", "the sim card order", "the late payment",
    "the technician visit", "your loyalty discount", "the refund request", "the data bundle",
)

# Client and agent lines that share words with the scripts but are irrelevant.
NEAR_MISS_CLIENT = (
    "hold on let me think about that",
    "hold on a second I am looking for my card",
    "can you wait a moment the kids are shouting",
    "sorry one minute I need to find the letter",
    "thank you for checking that for me",
    "let me check my banking app quickly",
    "I was on hold for an hour yesterday",
    "thanks for your patience with me I am not good with computers",
)
NEAR_MISS_AGENT = (
    "thank you for calling",
    "thanks for confirming the details",
    "let me check the notes on your account",
    "thank you for your patience during the outage last week",
    "I will check that the payment is on hold",
    "thanks for waiting in the queue earlier",
    "one moment the page is still loading",
    "I have the information from your last call here",
)

# Common ASR confusions; each token maps to one plausible mishearing.
ASR_SUBSTITUTIONS = {
    "hold": "old", "holding": "folding", "moment": "movement", "minute": "minnit",
    "patience": "patients", "waiting": "wading", "thank": "tank", "thanks": "tanks",
    "for": "four", "to": "two", "line": "lion", "check": "czech", "account": "count",
    "you": "ya", "your": "you're", "while": "wile", "please": "pleas", "place": "plays",
    "details": "detail", "back": "bag", "now": "no", "the": "a", "I": "eye",
}

NEAR_MISS_RATE = 0.10
DROP_RATE = 0.04
SUBSTITUTE_RATE = 0.08


def _slot(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(NAMES)
    if kind == 1:
        return f"{rng.randrange(5, 900)} dollars {rng.randrange(100)} cents"
    if kind == 2:
        return "account ending " + " ".join(str(rng.randrange(10)) for _ in range(4))
    return rng.choice(TOPICS)


def _asr_noise(text: str, rng: random.Random) -> str:
    out = []
    for token in text.split():
        roll = rng.random()
        if roll < DROP_RATE:
            continue
        if roll < DROP_RATE + SUBSTITUTE_RATE and token in ASR_SUBSTITUTIONS:
            token = ASR_SUBSTITUTIONS[token]
        out.append(token)
    return " ".join(out) if out else text


def _base_text(turn, rng: random.Random) -> str:
    if turn.label == IRRELEVANT and rng.random() < NEAR_MISS_RATE:
        pool = NEAR_MISS_CLIENT if turn.channel == "client" else NEAR_MISS_AGENT
        return rng.choice(pool)
    return turn.text


def rewrite_distinct(corpus: Corpus, seed: int) -> Corpus:
    """Return the corpus with every turn text rewritten and pairwise distinct.

    A pure function of (corpus, seed). Only `text` changes; every other
    field of every turn, and every hold, is carried over unchanged.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    calls = []
    for call in corpus.calls:
        turns = []
        for turn in call.turns:
            text = _base_text(turn, rng)
            if rng.random() < 0.5:
                text = f"{_slot(rng)} {text}"
            else:
                text = f"{text} {_slot(rng)}"
            text = _asr_noise(text, rng)
            while text in seen:
                text = f"{text} {_slot(rng)}"
            seen.add(text)
            turns.append(replace(turn, text=text))
        calls.append(Call(call_id=call.call_id, turns=tuple(turns), holds=call.holds))
    return Corpus(calls=tuple(calls), provenance=corpus.provenance, seed=corpus.seed)
