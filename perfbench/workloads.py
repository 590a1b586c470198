"""Workload definitions: fixed operation mixes over the stringcone CLI.

Each workload is a list of slots.  A slot names one CLI invocation up to
the reduced word of w0; the seed picks that word from the slot's reduced
words (as listed in ``digests.json``, generated by ``all_reduced_words``)
and then shuffles the order of the operations.  Slots that keep the
default ``longest_word`` (the ``crystal`` dumps, which take no word, the
``sections`` polytopes, whose point count must equal the Weyl dimension,
and the G2 level-2 certificate) are affected by the seed only through the
order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TABLE_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Slot:
    command: str
    type_label: str
    rank: int
    level_bound: int = 1
    lam: tuple | None = None
    picks_word: bool = True
    # Demazure ops: length of w and whether w is the prefix of the w0 word.
    demazure_len: int = 0
    adapted: bool = True
    # Number of distinct w0 words the seed draws for this slot.
    copies: int = 1


@dataclass(frozen=True)
class Op:
    command: str
    type_label: str
    rank: int
    level_bound: int
    word: tuple | None
    lam: tuple | None
    demazure: tuple | None

    def argv(self) -> list:
        args = [self.command, "--type", self.type_label, "--rank", str(self.rank)]
        if self.word is not None:
            args += ["--word", _fmt(self.word)]
        if self.lam is not None:
            args += ["--lambda", _fmt(self.lam)]
        if self.demazure is not None:
            args += ["--demazure", _fmt(self.demazure)]
        if self.command != "crystal":
            args += ["--level-bound", str(self.level_bound)]
        return args

    def key(self) -> str:
        return " ".join(self.argv())


def _fmt(vec) -> str:
    return ",".join(str(c) for c in vec)


def _deg(type_label, rank, level_bound, **kw):
    return Slot("degenerate", type_label, rank, level_bound, **kw)


# Why each mix: see perfbench/README.md.
WORKLOADS = {
    # Headline command; the only mix reaching the Hilbert basis, relations,
    # separating form, Demazure quotient and the character oracle.
    "certify": [
        _deg("A", 2, 1), _deg("A", 2, 2),
        _deg("B", 2, 1), _deg("B", 2, 2),
        _deg("C", 2, 1), _deg("C", 2, 2),
        # G2 at level 2 is the slowest op of the mix and one of its two
        # words costs about 15 % more than the other, so it keeps the
        # default word: a seeded choice would make slowest_op_s bimodal.
        _deg("G", 2, 1), _deg("G", 2, 2, picks_word=False),
        _deg("A", 3, 1),
        _deg("B", 2, 1, demazure_len=2, adapted=True),
        _deg("G", 2, 1, demazure_len=2, adapted=False),
    ],
    # Crystal-bound: level sweeps build every smaller crystal, the dumps
    # build one crystal each; no saturation scan.
    "crystals": [
        Slot("cone", "A", 3, 2, copies=2),
        Slot("cone", "B", 3, 1),
        Slot("cone", "C", 3, 1),
        Slot("cone", "G", 2, 2),
        Slot("crystal", "B", 3, lam=(2, 1, 1), picks_word=False),
        Slot("crystal", "C", 3, lam=(1, 1, 2), picks_word=False),
    ],
    # Scan-bound: one section per op at a large weight.  Each op uses the
    # lowest level bound whose inferred cone is saturated, so that its point
    # count is the Weyl dimension: B2 needs level 2 (level 1 gives 5805
    # points at (8,8) against 6561).  G2 is left out: it needs level 3
    # (level 2 gives 15110 points at (4,4) against 15625), and the level-3
    # crystal sweep would make the op crystal-bound.
    "sections": [
        Slot("polytope", "C", 3, 1, lam=(1, 1, 1), picks_word=False),
        Slot("polytope", "C", 3, 1, lam=(0, 2, 2), picks_word=False),
        Slot("polytope", "C", 3, 1, lam=(2, 2, 2), picks_word=False),
        Slot("polytope", "A", 3, 1, lam=(6, 6, 6), picks_word=False),
        Slot("polytope", "B", 2, 2, lam=(8, 8), picks_word=False),
    ],
}


def _demazure_word(slot: Slot, w0_word: tuple) -> tuple:
    """Adapted: the w0 word's prefix.  Not adapted: the other rank-2 word.

    In a rank-2 Weyl group every element shorter than w0 has exactly one
    reduced word, the alternating word starting with its first letter, so
    the alternating word that starts with the other letter is a different
    element and the op is not adapted.
    """
    prefix = w0_word[: slot.demazure_len]
    if slot.adapted:
        return prefix
    if slot.rank != 2:
        raise ValueError("non-adapted Demazure slots are defined for rank 2")
    first = 3 - prefix[0]
    return tuple(first if k % 2 == 0 else 3 - first for k in range(slot.demazure_len))


def slot_ops(slot: Slot, words: list) -> list:
    """Every op this slot can expand to, one per choice of w0 word."""
    if not slot.picks_word:
        return [_make_op(slot, None)]
    return [_make_op(slot, w) for w in words]


def _make_op(slot: Slot, word) -> Op:
    demazure = None
    if slot.demazure_len:
        demazure = _demazure_word(slot, word)
    return Op(slot.command, slot.type_label, slot.rank, slot.level_bound,
              word, slot.lam, demazure)


def word_table_key(slot: Slot) -> str:
    return f"{slot.type_label}{slot.rank}"


def load_table() -> dict:
    with open(TABLE_PATH) as fh:
        return json.load(fh)


def make_ops(workload: str, seed: int, table: dict) -> list:
    """The seeded op list: words drawn per slot, then the order shuffled."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    ops = []
    for slot in WORKLOADS[workload]:
        if not slot.picks_word:
            ops.append(_make_op(slot, None))
            continue
        words = [tuple(w) for w in table["words"][word_table_key(slot)]]
        for word in rng.sample(words, slot.copies):
            ops.append(_make_op(slot, word))
    rng.shuffle(ops)
    return ops
