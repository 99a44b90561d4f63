"""Kautz string labels (Definition 1 of the paper).

A Kautz string for K(d, k) is a word ``u_1 ... u_k`` over the alphabet
``{0, 1, ..., d}`` (d + 1 letters) in which no two consecutive letters
are equal.  Strings are immutable value types; the shift operation that
defines Kautz-graph edges produces new strings.

There is one object per label: ``KautzString(letters, degree)`` returns
the instance already built for an equal label, whichever way it is
asked for (direct, :meth:`~KautzString.parse`, :meth:`~KautzString.
random`, :meth:`~KautzString.shift`, ``dataclasses.replace``, copy or
pickle).  Labels key every cell table, ``visited`` set and memoised
pair function, and a lookup with the identical object never reaches
``__eq__``.  Equality stays value equality — nothing relies on ``is``
— and the hash stays ``hash((letters, degree))``.  The table holds
every distinct label the process has built: a few hundred for a
simulation, the label space itself for an analysis sweep.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvalidKautzString

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _validated(
    letters: Iterable[int], degree: int
) -> Tuple[Tuple[int, ...], int]:
    """The ``(letters, degree)`` key of a valid label, letters as a
    tuple of ints; :class:`InvalidKautzString` for anything else."""
    try:
        letters = tuple(map(operator.index, letters))
        degree = operator.index(degree)
    except TypeError as exc:
        raise InvalidKautzString(
            f"letters and degree must be integers: {exc}"
        ) from None
    if degree < 1:
        raise InvalidKautzString(f"degree must be >= 1, got {degree}")
    if not letters:
        raise InvalidKautzString("empty Kautz string")
    for letter in letters:
        if not 0 <= letter <= degree:
            raise InvalidKautzString(
                f"letter {letter} outside alphabet [0, {degree}]"
            )
    for a, b in zip(letters, letters[1:]):
        if a == b:
            raise InvalidKautzString(
                f"consecutive repeated letter in {letters}"
            )
    return letters, degree


#: Every label built so far, by ``(letters, degree)``.
_LABELS: Dict[Tuple[Tuple[int, ...], int], "KautzString"] = {}


@dataclass(frozen=True, init=False)
class KautzString:
    """An immutable Kautz label for the graph K(``degree``, ``len(letters)``)."""

    letters: Tuple[int, ...]
    degree: int

    def __new__(
        cls,
        letters: Optional[Iterable[int]] = None,
        degree: Optional[int] = None,
    ) -> "KautzString":
        if letters is None and degree is None:
            # ``copyreg.__newobj__`` unpickling a label pickled without
            # ``__reduce__``: its fields follow as state.  A plain
            # ``KautzString()`` fails in ``__init__``.
            return object.__new__(cls)
        key = _validated(letters, degree)  # an invalid label is not kept
        try:
            return _LABELS[key]
        except KeyError:
            pass
        label = object.__new__(cls)
        object.__setattr__(label, "letters", key[0])
        object.__setattr__(label, "degree", key[1])
        _LABELS[key] = label
        return label

    def __init__(self, letters: Iterable[int], degree: int) -> None:
        """Nothing to set: ``__new__`` returned the finished label."""

    def __reduce__(self):
        # Copy and pickle rebuild through ``__new__``: the copy is the
        # label itself, and an unpickled one is this process's.
        return (KautzString, (self.letters, self.degree))

    def __hash__(self) -> int:
        # KIDs key every cell and routing table; the hash of the two
        # fields is computed at the first lookup and kept (here, not in
        # ``__new__``: REF010 keeps ``hash()`` inside ``__hash__``).
        try:
            return self._hash
        except AttributeError:
            value = hash((self.letters, self.degree))
            object.__setattr__(self, "_hash", value)
            return value

    # -- constructors ----------------------------------------------------

    @classmethod
    def parse(cls, text: str, degree: int) -> "KautzString":
        """Parse a compact label such as ``"120"`` (base-36 digits)."""
        try:
            letters = tuple(_DIGITS.index(ch.lower()) for ch in text)
        except ValueError as exc:
            raise InvalidKautzString(f"cannot parse {text!r}") from exc
        return cls(letters, degree)

    @classmethod
    def random(
        cls, degree: int, diameter: int, rng: random.Random
    ) -> "KautzString":
        """A uniformly random valid Kautz string for K(degree, diameter)."""
        if diameter < 1:
            raise InvalidKautzString("diameter must be >= 1")
        letters: List[int] = [rng.randrange(degree + 1)]
        while len(letters) < diameter:
            nxt = rng.randrange(degree)
            if nxt >= letters[-1]:
                nxt += 1
            letters.append(nxt)
        return cls(tuple(letters), degree)

    # -- basic accessors -------------------------------------------------

    @property
    def k(self) -> int:
        """The string length (= diameter of the graph it labels)."""
        return len(self.letters)

    @property
    def first(self) -> int:
        return self.letters[0]

    @property
    def last(self) -> int:
        return self.letters[-1]

    def __str__(self) -> str:
        return "".join(_DIGITS[x] for x in self.letters)

    def __repr__(self) -> str:
        return f"KautzString({self}, d={self.degree})"

    # -- Kautz operations --------------------------------------------------

    def alphabet(self) -> range:
        """The letter alphabet ``0..degree`` inclusive."""
        return range(self.degree + 1)

    def shift(self, letter: int) -> "KautzString":
        """The out-neighbour ``u_2 ... u_k letter`` (edge of the digraph).

        Raises :class:`InvalidKautzString` if ``letter`` equals the last
        letter (no self-loop edges exist in a Kautz digraph).
        """
        return KautzString(self.letters[1:] + (int(letter),), self.degree)

    def unshift(self, letter: int) -> "KautzString":
        """The in-neighbour ``letter u_1 ... u_{k-1}``."""
        return KautzString((int(letter),) + self.letters[:-1], self.degree)

    def successor_letters(self) -> List[int]:
        """The d letters that can legally be shifted in."""
        return [a for a in self.alphabet() if a != self.last]

    def predecessor_letters(self) -> List[int]:
        """The d letters that can legally be unshifted in."""
        return [a for a in self.alphabet() if a != self.first]

    def successors(self) -> List["KautzString"]:
        """All d out-neighbours in K(degree, k)."""
        return [self.shift(a) for a in self.successor_letters()]

    def predecessors(self) -> List["KautzString"]:
        """All d in-neighbours in K(degree, k)."""
        return [self.unshift(a) for a in self.predecessor_letters()]

    def left_rotated(self) -> "KautzString":
        """``u_2 ... u_k u_1`` if valid, else ``u_2 ... u_k u_2``.

        The embedding protocol (Section III-B2) defines the *successor
        actuator* of actuator ``kid`` as the one labelled by the left
        rotation of ``kid``.  When the rotation would repeat the last
        letter (u_1 == u_k), no such Kautz string exists; the protocol
        only rotates strings where it is valid, so we raise in that case.
        """
        return self.shift(self.letters[0])

