"""Braid words, possibly with singular (4-valent) letters, and closures.

Words are written "n: l1 l2 ..." where each letter is +i or -i for a
positive/negative crossing of strands i, i+1, or "i!" for a singular
crossing.  The empty word "1:" closes up to the unknot.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

POS, NEG, SING = 1, -1, 0


@dataclass(frozen=True)
class Word:
    """A braid word on n strands; kinds are +1, -1, or 0 (singular)."""

    n: int
    entries: tuple  # of (strand index i, kind)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a braid needs a strand, got n={self.n}")
        for i, kind in self.entries:
            if not 1 <= i < self.n:
                raise ValueError(
                    f"letter index {i} out of range for n={self.n}")
            if kind not in (POS, NEG, SING):
                raise ValueError(f"unknown letter kind {kind!r}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        head, _, tail = text.partition(":")
        if not _:
            raise ValueError(f"missing ':' in word {text!r}")
        n = int(head.strip())
        entries = []
        for tok in tail.split():
            if tok.endswith("!"):
                entries.append((int(tok[:-1]), SING))
            else:
                v = int(tok)
                entries.append((abs(v), POS if v > 0 else NEG))
        return cls(n, tuple(entries))

    def __str__(self):
        bits = []
        for i, kind in self.entries:
            if kind == SING:
                bits.append(f"{i}!")
            else:
                bits.append(str(i * kind))
        return f"{self.n}: " + " ".join(bits) if bits else f"{self.n}:"

    @property
    def singular_positions(self) -> tuple:
        return tuple(t for t, (_, k) in enumerate(self.entries) if k == SING)

    @property
    def is_singular(self) -> bool:
        return bool(self.singular_positions)

    @property
    def writhe(self) -> int:
        """Sum of crossing signs; singular letters contribute nothing."""
        return sum(k for _, k in self.entries if k != SING)

    @property
    def writhe_top(self) -> int:
        """Writhe with every singular letter counted as positive."""
        return sum(1 if k == SING else k for _, k in self.entries)

    def permutation(self) -> tuple:
        """Image of each strand (0-based) through the braid, bottom to top."""
        perm = list(range(self.n))
        for i, _ in self.entries:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return tuple(perm)

    def cycle_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.n
        cycles = 0
        for s in range(self.n):
            if seen[s]:
                continue
            cycles += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
        return cycles

    @property
    def is_knot_closure(self) -> bool:
        return self.cycle_count() == 1

    def resolutions(self):
        """All ways of resolving singular letters into +/- crossings.

        Yields (choices, resolved word, number of negative choices), with
        choices ordered along singular_positions.
        """
        for choice in product((POS, NEG), repeat=len(self.singular_positions)):
            yield choice, self.resolve(choice), choice.count(NEG)

    def resolve(self, choice) -> "Word":
        """The word with singular letter t resolved to kind choice[t]."""
        sings = self.singular_positions
        if len(choice) != len(sings):
            raise ValueError(f"{len(sings)} singular letters, "
                             f"{len(choice)} choices")
        entries = list(self.entries)
        for pos, c in zip(sings, choice):
            entries[pos] = (entries[pos][0], c)
        return Word(self.n, tuple(entries))
