"""The bid board: one engagement's broadcast bids, folded once.

A bus broadcast is one transmission that every processor hears (paper
§2 and the §4 assumptions); :mod:`repro.network.bus` records it as one
:class:`~repro.network.bus.LogEntry` on the engagement scope's medium.
The :class:`BidBoard` reads the ``BID`` and ``COHORT`` entries of that
medium exactly once, in medium order, and keeps what every honest
listener would derive from them:

* one signature check per signed message (through the PKI, whose
  verdict stamp answers repeats of the same message object);
* payload/identity consistency — a bid whose payload names someone
  other than its signer is discarded, as in the Bidding phase rules;
* de-duplication by canonical payload, so each signer's archive holds
  its *distinct* authentic bids in the order first heard;
* the first authentic bid per signer (what a listener's bid view
  holds) and the signers with two distinct bids (equivocators).

That fold is the *common view*: the archive of a listener that heard
every entry and received nothing point-to-point.  A
:class:`~repro.agents.processor.ProcessorAgent` differs from it only
for the signers of entries it did not hear (its own broadcasts, or
everything after it crashed) and of messages it received point-to-point
(its own bid, or point-to-point bids); the board records, per entry,
who did not hear it, so an agent resolves those few signers itself and
reads every other signer straight from the common view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.signatures import SignedMessage
from repro.network.messages import MessageKind

if TYPE_CHECKING:
    from repro.crypto.pki import PKI
    from repro.network.bus import LogEntry

__all__ = ["BidBoard"]


class BidBoard:
    """The folded ``BID``/``COHORT`` entries of one engagement's medium.

    *medium* is the live entry list of the engagement's bus scope
    (``bus.medium``).  The board needs no handler on the bus: a reader
    calls :meth:`sync` to fold the entries added since, and the other
    accessors answer as of the last :meth:`sync`.
    """

    def __init__(self, pki: PKI, medium: list[LogEntry]) -> None:
        self.pki = pki
        self.medium = medium
        self._folded = 0
        self._version = 0             # bid entries folded so far
        # signer -> [(medium position, message)] for every authentic,
        # identity-consistent occurrence, repeats included
        self._occurrences: dict[str, list[tuple[int, SignedMessage]]] = {}
        # the common view: distinct messages per signer, first-heard order
        self._archive: dict[str, list[SignedMessage]] = {}
        self._first: dict[str, float] = {}
        self._equivocators: list[str] = []
        # medium position -> signers of the bids accepted from it
        self._signers_at: dict[int, tuple[str, ...]] = {}
        # name -> positions of bid entries that name did not hear
        self._deaf_at: dict[str, list[int]] = {}
        # (membership snapshot, positions of bid entries it reached)
        self._snapshots: list[tuple[object, list[int]]] = []

    # -- folding ------------------------------------------------------------

    @property
    def position(self) -> int:
        """Entries on the medium so far: a reception now precedes them
        all and precedes every later entry."""
        return len(self.medium)

    def sync(self) -> int:
        """Fold the entries added since the last call; return how many
        bid entries have been folded in all (the board's version)."""
        medium = self.medium
        end = len(medium)
        if self._folded == end:
            return self._version
        for pos in range(self._folded, end):
            entry = medium[pos]
            kind = entry.msg.kind
            if kind is MessageKind.BID:
                bids = (entry.msg.body,)
            elif kind is MessageKind.COHORT:
                bids = entry.msg.body
            else:
                continue
            signers = []
            for sm in bids:
                if self._accept(pos, sm):
                    signers.append(sm.signer)
            if not signers:
                continue
            self._signers_at[pos] = tuple(signers)
            self._version += 1
            for name in entry.deaf:
                self._deaf_at.setdefault(name, []).append(pos)
            snapshots = self._snapshots
            if not snapshots or snapshots[-1][0] is not entry.members:
                snapshots.append((entry.members, []))
            snapshots[-1][1].append(pos)
        self._folded = end
        return self._version

    def _accept(self, pos: int, sm) -> bool:
        if not isinstance(sm, SignedMessage) or not self.pki.verify(sm):
            return False
        signer = sm.signer
        payload = sm.payload
        if not isinstance(payload, dict) or payload.get("processor") != signer:
            return False
        self._occurrences.setdefault(signer, []).append((pos, sm))
        archive = self._archive.get(signer)
        if archive is None:
            self._archive[signer] = [sm]
            self._first[signer] = float(payload["bid"])
        elif all(prior.canonical != sm.canonical for prior in archive):
            if len(archive) == 1:
                self._equivocators.append(signer)
            archive.append(sm)
        return True

    # -- the common view ----------------------------------------------------

    def archive(self, signer: str) -> list[SignedMessage]:
        """*signer*'s distinct authentic bids, in first-heard order."""
        return self._archive.get(signer, [])

    def first_bids(self) -> dict[str, float]:
        """Signer -> first authentic bid."""
        return self._first

    def equivocators(self) -> list[str]:
        """Signers with two or more distinct authentic bids."""
        return self._equivocators

    # -- per-listener differences --------------------------------------------

    def occurrences(self, signer: str) -> list[tuple[int, SignedMessage]]:
        """Every ``(position, message)`` accepted from *signer*."""
        return self._occurrences.get(signer, [])

    def missed_by(self, name: str) -> list[int]:
        """Positions of the bid entries *name* did not hear, in order
        (a read-only list)."""
        missed = self._deaf_at.get(name, [])
        absent = False
        for members, positions in self._snapshots:
            if name not in members:
                missed = missed + positions
                absent = True
        return sorted(missed) if absent else missed

    def signers_at(self, position: int) -> tuple[str, ...]:
        """Signers of the bids accepted from the entry at *position*."""
        return self._signers_at.get(position, ())
