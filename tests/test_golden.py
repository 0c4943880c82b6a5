"""Byte-identical JSON reports, pinned by sha256.

The check and audit hashes were recorded before the finite-carrier
identities (d_Phi = d_F = d_low, filter composition at its smallest
generator, one directed-completeness report, completeness by identity,
enumeration over specialization classes, the per-class audit conclusions
decided by identity) replaced the definitional loops; any change to
report bytes on these runs is a regression.  The two random-sweep hashes
were re-recorded once, when the sweep dropped the four fields those
identities fix (derived_chain_violations, finite_degeneracy_violations,
searches.d_phi_strictly_below_d_F and
searches.composed_shape_counterexamples): the new bytes are the earlier
report minus those keys, with content_hash recomputed.  The input files are fixed
fixtures under ``tests/data``: an 8-point distance with pairwise-coprime
denominators, an 8-point value-based pair (d, e) whose e differs from the
symmetric join of d, and a 10-point plain distance (one point of nonzero
self-distance) with specialization classes of 1, 2 and 6 points, on which
sup_upgrade, symmetric_companion and cauchy_to_directed are non-vacuous.
A 12-point chain (d(i,j) = 0 if i <= j, else 1) has one class per point,
so it is the class-rich audit: every statement is non-vacuous on it.  Its
hash was recorded while sup_upgrade still walked every subset of the class
representatives, before the (x, z) reduction replaced that walk.
"""

import hashlib
from pathlib import Path

import pytest

from qmlib.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    (["random", "--n", "6", "--count", "32", "--seed", "0"],
     "c4eec92e1f964acce331e04756055944995231d90321a8d964ae47267137dc0f"),
    (["random", "--n", "6", "--count", "32", "--seed", "424242"],
     "c7ed45f3187dbf5561de0eed72f0149a97f35f7d8a2587359bf2858a1a0c6fb7"),
    (["check", "coprime_n8.json"],
     "d51905ee5bc62de38fc44fa3761e8bf1059413f73e86562a502a7804fcfc4d3e"),
    (["audit", "pair_n8_d.json", "--second-distance", "pair_n8_e.json"],
     "d9e45cd016286ba091f8edbf31f7aece48380526866b4de8afbfd21f49d8755d"),
    (["audit", "plain_n10.json"],
     "7361f69bdf118631458a2974662772f64f980242d1dae2c4a72febd2f16748ac"),
    (["audit", "chain_n12.json"],
     "42432f8dadb6b8f869ab832e556d539982f531ca5b476626dfdeb405ed98b554"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["random-seed-0", "random-seed-424242", "check-coprime",
                              "audit-pair", "audit-plain-classes", "audit-chain"])
def test_report_bytes_unchanged(capsys, monkeypatch, argv, digest):
    # reports embed the input path, so run from the data directory
    monkeypatch.chdir(DATA)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
