"""BFT checkpoints: certified log compaction and state transfer.

Production BFT systems cannot keep the full chain in memory; they
checkpoint periodically (PBFT §4.3): every ``interval`` blocks each node
signs a checkpoint vote for the committed block at that height, and f+1
matching votes form a :class:`CheckpointCertificate` — proof that the
block (hence its whole prefix, via hash links and the execution results
embedded in blocks) is final.  The certificate lets a node

* **compact** its store, pruning blocks below the checkpoint, and
* **state-transfer** a lagging or recovering peer: instead of replaying
  pruned history, the peer verifies the certificate and installs the
  checkpoint block as its new committed base.

When replicas maintain a live state machine, votes additionally commit
to the executed **state root** at the checkpoint height; the resulting
certificate then authenticates a whole application snapshot
(:mod:`repro.chain.snapshot`), not just the block.  Deployments without
a state machine leave ``state_root`` empty — the statement still covers
the (empty) field, so the two modes can never be confused for each
other.

The Achilles paper inherits this machinery from its Damysus/HotStuff
lineage without spelling it out; it composes cleanly with the
rollback-resilient recovery because certificates, not local storage,
carry the authority.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import PrivateKey
from repro.crypto.signatures import (QuorumCertificate, Signature,
                                     SignatureList, SignedStatement)
from repro.errors import ChainError
from repro.net.message import HASH_BYTES, SIGNATURE_BYTES


@dataclass(frozen=True)
class CheckpointVote(SignedStatement):
    """``⟨CHKPT, height, block-hash, state-root⟩_σ`` — one node's
    checkpoint vote (``state_root`` is empty when no state machine runs)."""

    height: int
    block_hash: str
    signature: Signature
    state_root: str = ""

    def statement(self) -> tuple:
        """The signed tuple."""
        return ("CHKPT", self.height, self.block_hash, self.state_root)

    def wire_size(self) -> int:
        """Serialized size."""
        root = HASH_BYTES if self.state_root else 1
        return 5 + 8 + HASH_BYTES + root + SIGNATURE_BYTES


def make_checkpoint_vote(private_key: PrivateKey, height: int,
                         block_hash: str, state_root: str = "") -> CheckpointVote:
    """Sign a checkpoint vote."""
    return CheckpointVote.issue(private_key, height=height,
                                block_hash=block_hash, state_root=state_root)


@dataclass(frozen=True)
class CheckpointCertificate(QuorumCertificate):
    """f+1 matching checkpoint votes: the block at ``height`` is final."""

    height: int
    block_hash: str
    signatures: SignatureList
    state_root: str = ""

    #: Each member signature covers a checkpoint vote's statement.
    statement = CheckpointVote.statement

    def wire_size(self) -> int:
        """Serialized size."""
        root = HASH_BYTES if self.state_root else 1
        return 5 + 8 + HASH_BYTES + root + SIGNATURE_BYTES * len(self.signatures)


def combine_checkpoint_votes(votes: list[CheckpointVote],
                             threshold: int) -> CheckpointCertificate:
    """Build a certificate from the **plurality** statement among ``votes``.

    Votes are bucketed by their full signed statement (height, hash, state
    root) and the bucket with the most *distinct signers* wins — a single
    lagging or Byzantine vote at the head of the list can no longer steer
    the certificate onto the wrong statement.  Ties break toward the
    first-seen statement (deterministic for a deterministically ordered
    vote list).  Duplicate signers collapse to one signature.

    Raises :class:`ChainError` when the winning statement has fewer than
    ``threshold`` distinct signers: an under-signed certificate would
    fail downstream validation anyway, and returning one silently is how
    invalid checkpoints propagate.
    """
    if not votes:
        raise ChainError("cannot combine an empty checkpoint vote set")
    buckets: dict[tuple, list[CheckpointVote]] = {}
    for vote in votes:
        key = (vote.height, vote.block_hash, vote.state_root)
        buckets.setdefault(key, []).append(vote)
    winner = max(buckets.values(),
                 key=lambda b: len({v.signature.signer for v in b}))
    seen: set[int] = set()
    kept = []
    for vote in winner:
        if vote.signature.signer not in seen:
            seen.add(vote.signature.signer)
            kept.append(vote.signature)
        if len(kept) == threshold:
            break
    if len(kept) < threshold:
        head = winner[0]
        raise ChainError(
            f"checkpoint statement (height {head.height}, "
            f"{head.block_hash[:12]}) has {len(kept)} distinct signer(s), "
            f"below threshold {threshold}"
        )
    head = winner[0]
    return CheckpointCertificate(
        height=head.height, block_hash=head.block_hash,
        state_root=head.state_root, signatures=SignatureList.of(kept),
    )


__all__ = [
    "CheckpointVote",
    "CheckpointCertificate",
    "make_checkpoint_vote",
    "combine_checkpoint_votes",
]
