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
report minus those keys, with content_hash recomputed.  The n = 8 sweep
was recorded while ``_sups_signature``, ``classify``, ``dist_subequiv``,
the directed construction and the filter composition still scanned ExtReal
entries, before they moved to the zero masks and integer rows.  The input files are fixed
fixtures under ``tests/data``: an 8-point distance with pairwise-coprime
denominators, an 8-point value-based pair (d, e) whose e differs from the
symmetric join of d, and a 10-point plain distance (one point of nonzero
self-distance) with specialization classes of 1, 2 and 6 points, on which
sup_upgrade, symmetric_companion and cauchy_to_directed are non-vacuous.
A 15-point hemimetric file, drawn like the ``check_coprime`` benchmark
inputs (92 distinct values k/p in (1, 2) with p prime from 11 to 97, two
mutually-zero pairs), pins ``qml check`` where the common denominator is
a product of many primes; its hash was recorded before
``derived_functions`` and the d-supremum tests moved to the integer form
of the matrix.
A 12-point chain (d(i,j) = 0 if i <= j, else 1) has one class per point,
so it is the class-rich audit: every statement is non-vacuous on it.  Its
hash was recorded while sup_upgrade still walked every subset of the class
representatives, before the (x, z) reduction replaced that walk.  A
second chain run selects three statements out of table order, one
completeness criterion alone among them; its hash was recorded while each
statement still had its own hand-written audit function.

The gallery hashes cover all four fixtures at cutoffs 16, 50, 100 and
200.  At 16 and 50 the two grid fixtures were recorded before the family layer dropped the vector rule's
coordinate window, and the two family fixtures after their
``valid_distance`` descriptions came to name the triples the check
covers; those two strings are the only bytes that changed.  The cutoff
100 hashes and the grid fixtures' 200 hashes were recorded while the
triangle check still added over every triple, before it came to add only
where both legs are shorter than the entry they test.  The two family
fixtures at 200, and ``qml check`` on the vector family at the cutoff
ceiling 256 (``fm_c256.json``), were recorded while every vector-rule
distance still summed the coordinates between its two indices and the
chain's upper-hole test still ran against every point, before the column
sweep and the least-point test replaced those loops.  The grid fixtures
at the prime cutoffs 97 and 101, where no grid value but 0 and 1 reduces,
were recorded while each grid entry was still computed as a ``Fraction``,
before the grids came to be built from integer numerators.
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
    (["random", "--n", "8", "--count", "32", "--seed", "1"],
     "2cb2f69cd892b91e571f11df9a71bab45277c59d677ef71e01432e6fe34f56b3"),
    (["check", "coprime_n8.json"],
     "d51905ee5bc62de38fc44fa3761e8bf1059413f73e86562a502a7804fcfc4d3e"),
    (["check", "coprime_n15.json"],
     "9b6dff8e73b04312a0c4331ff6269b402f6b8750a4fa08f1c557a4b7591eb7b8"),
    (["audit", "pair_n8_d.json", "--second-distance", "pair_n8_e.json"],
     "d9e45cd016286ba091f8edbf31f7aece48380526866b4de8afbfd21f49d8755d"),
    (["audit", "plain_n10.json"],
     "7361f69bdf118631458a2974662772f64f980242d1dae2c4a72febd2f16748ac"),
    (["audit", "chain_n12.json"],
     "42432f8dadb6b8f869ab832e556d539982f531ca5b476626dfdeb405ed98b554"),
    (["audit", "chain_n12.json", "--theorems", "cauchy_to_directed",
      "completeness_criterion_2", "sup_upgrade"],
     "0c42a0aefce82b7c1c1de5ad59f905c4b5e96442e777ba4f3c695042c5897c77"),
    (["gallery", "projection", "--cutoff", "16", "--json"],
     "fec272e01a86e114ddc41370c0b248a6bed6d515ead352ec1edeaf5fff1ecb3c"),
    (["gallery", "projection", "--cutoff", "50", "--json"],
     "e990a69c9810c042c44de79503819a3a621daaba26ba78d218d319840af457d2"),
    (["gallery", "x_one_minus_y", "--cutoff", "16", "--json"],
     "8f098fb5b859c1fe766c19165a32db93df4aaa10c16befb996cbcd066cfa7005"),
    (["gallery", "x_one_minus_y", "--cutoff", "50", "--json"],
     "ff69208dc748a62aba5d17a112904f615eb9480e599ac130074c6e0958307372"),
    (["gallery", "halfopen", "--cutoff", "16", "--json"],
     "96dae891c5892f0ac861ade170d12862cf31c99e1e1f7daaf943c01c1a96f6f8"),
    (["gallery", "halfopen", "--cutoff", "50", "--json"],
     "02db7f055db08165aaa7838b4adbd7530700a9337ea722c4fb850a7c5d9ce661"),
    (["gallery", "fm_counterexample", "--cutoff", "16", "--json"],
     "fa7298d5375421b027f1cb9b356da19c3a20ee595d1390c84db9b0ae0dcd383a"),
    (["gallery", "fm_counterexample", "--cutoff", "50", "--json"],
     "0b8dcf433fdbe88c5367f91b5ccb56cfe78a926feb0d14f2c0f7e7d266a9591b"),
    (["gallery", "projection", "--cutoff", "100", "--json"],
     "d596a1897b88c1f0bef68ee0c4bcbcf7a45705bd9847ac7865e65ebb85734516"),
    (["gallery", "x_one_minus_y", "--cutoff", "100", "--json"],
     "ee61e1a14391a4de3fcdda2687cf4598dace6a5772d2c9d2a06e85e24a65b080"),
    (["gallery", "halfopen", "--cutoff", "100", "--json"],
     "4f2edc1a28252355a9e51b7a490387c696118991309c8d70449154c146265b74"),
    (["gallery", "fm_counterexample", "--cutoff", "100", "--json"],
     "3dc07589376cc262a0d0037e711c63e6a8a29b14f3e2862e860753feae61bcef"),
    (["gallery", "projection", "--cutoff", "200", "--json"],
     "9a729f055b074bbfd5f64b287dba8b10796dd459df1e4f430d87e1fa7c4a4f9f"),
    (["gallery", "x_one_minus_y", "--cutoff", "200", "--json"],
     "b231dba9e3cd0a977f1bf54a35afea2074291dfc455a172e4cc9d0f09b729bc7"),
    (["gallery", "halfopen", "--cutoff", "200", "--json"],
     "97b1e7c97befecb42fd39fb96f9db6b7a2fecf1f8273a81fb6ed096e37146649"),
    (["gallery", "fm_counterexample", "--cutoff", "200", "--json"],
     "7ea5ed0d8d660110f65fe48af69ab2eb5a9e9608ea991576400c12b16c6744da"),
    (["check", "fm_c256.json"],
     "43f604660ccb56c3b670d7a5c2e7464c767127fe810b27db3d69a8f8cc5a2323"),
    (["gallery", "projection", "--cutoff", "97", "--json"],
     "c5002e8274f1cad1051e02b5348df00d6afdcfd962f1be86a47c2ce7dd99e116"),
    (["gallery", "x_one_minus_y", "--cutoff", "97", "--json"],
     "80b023d4b3567019d9ba91df49e49561f19ebdbdc50787819412f9e53d69bc35"),
    (["gallery", "projection", "--cutoff", "101", "--json"],
     "0d73805a15d9f2fff22bbbdbf2f9aa3d5bba82afd6d2a59c41b39375282dd07a"),
    (["gallery", "x_one_minus_y", "--cutoff", "101", "--json"],
     "c42c03cc05b3c964f131b61c136cd56ab9d224bd8fa3c750753e19a90d522379"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["random-seed-0", "random-seed-424242", "random-n8",
                              "check-coprime",
                              "check-coprime-15", "audit-pair", "audit-plain-classes",
                              "audit-chain", "audit-chain-selection",
                              "gallery-projection-16", "gallery-projection-50",
                              "gallery-x_one_minus_y-16", "gallery-x_one_minus_y-50",
                              "gallery-halfopen-16", "gallery-halfopen-50",
                              "gallery-fm_counterexample-16",
                              "gallery-fm_counterexample-50",
                              "gallery-projection-100", "gallery-x_one_minus_y-100",
                              "gallery-halfopen-100", "gallery-fm_counterexample-100",
                              "gallery-projection-200", "gallery-x_one_minus_y-200",
                              "gallery-halfopen-200", "gallery-fm_counterexample-200",
                              "check-vector-256",
                              "gallery-projection-97", "gallery-x_one_minus_y-97",
                              "gallery-projection-101", "gallery-x_one_minus_y-101"])
def test_report_bytes_unchanged(capsys, monkeypatch, argv, digest):
    # reports embed the input path, so run from the data directory
    monkeypatch.chdir(DATA)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
