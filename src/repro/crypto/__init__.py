"""Simulated cryptographic substrate (PKI, signatures, signed load blocks).

The DLS-BL-NCP protocol assumes a public-key infrastructure supporting
digital signatures (Section 4, *Initialization*).  The environment is
offline and the mechanism only relies on three properties of signatures
— unforgeability without the signing key, verifiable identity binding,
and non-repudiation — so we substitute HMAC-SHA256 "signatures" with a
trusted key registry (:class:`repro.crypto.pki.PKI`) that performs
verification.  Within the simulation this is behaviourally equivalent:
an agent that does not hold a principal's :class:`SigningKey` cannot
produce a message that verifies under that principal's identity, and
two *different* messages both verifying under one identity constitute
proof the signer equivocated (the evidence the referee acts on).

See DESIGN.md §"Substitutions" for the full argument.
"""

from repro._lazy import attach

# Resolved on first use: the wire layer reads the quorum rule from
# repro.crypto.certificates without loading the signed load blocks.
__getattr__, __dir__ = attach(__name__, {
    "repro.crypto.signatures": ("SignedMessage", "SigningKey",
                                "canonical_bytes"),
    "repro.crypto.pki": ("PKI", "Principal"),
    "repro.crypto.blocks": ("LoadBlock", "divide_load", "quantize_blocks",
                            "verify_blocks"),
    "repro.crypto.commitments": ("Commitment", "commit",
                                 "verify_commitment"),
    "repro.crypto.certificates": ("QuorumCertificate", "value_digest",
                                  "verify_certificate", "vote_payload"),
})

__all__ = [
    "SignedMessage",
    "SigningKey",
    "canonical_bytes",
    "PKI",
    "Principal",
    "LoadBlock",
    "divide_load",
    "quantize_blocks",
    "verify_blocks",
    "Commitment",
    "commit",
    "verify_commitment",
    "QuorumCertificate",
    "value_digest",
    "verify_certificate",
    "vote_payload",
]
