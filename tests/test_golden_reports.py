"""Golden reports: the structured report of every built-in fixture is pinned
by its sha256, so a change to the engine that moves any byte of a residual,
witness, status or census shows here.  The digests were written from the
engine before the submanifold and CR checks were batched over the sample
axis; a change that moves a report on purpose says so in CHANGES.md and
rewrites the digest it moved."""

import hashlib

import pytest

from contactstat.cli import main

# (fixture, seed) -> (sha256 of the structured stdout, exit code), at 64
# samples; every run writes nothing to stderr
GOLDEN = {
    ("fix-cr5", 42): (
        "772327b2126a52fac28555f93eb514c38ce5c555af97b015210df75070cebe95", 1),
    ("fix-cr5", 7): (
        "82d7bd45c0aa15b9f11f1dfefe6354bc1358ba88b0990b80ed08520e6825c034", 1),
    ("fix-s3", 42): (
        "88223a137d711888853aacde1eaf2dcd6df0044565b0fb9569ff6cec43736c46", 1),
    ("fix-s3", 7): (
        "bd47c1c67b894f3a4415416642e54b47e63560e18a3dfbeaa672afb50317b268", 1),
    ("paper-r7-euclidean", 42): (
        "5410739edc3283af94e13df3592cad9802c7ea0d91f5173c3bdaddf767397cf8", 1),
    ("paper-r7-euclidean", 7): (
        "ef995aae2ca4d40f0293c1f4b417a9e2dcf4575e774648dbecbfdade5a606001", 1),
    ("paper-r7-frame-orthonormal", 42): (
        "aedbed00c3a89447d6e78f3b0a8ddeb4447f1df8a4776d97cd2b5dbffb60ce2d", 1),
    ("paper-r7-frame-orthonormal", 7): (
        "97044d37b5f8aae1b98a7f9cf95d6419108189e58adc6b9252b3df17cbea0376", 1),
    ("sasaki-r7-cr", 42): (
        "7c415e1ce7379aee3fd02136c01a857c277877be12d39975ea83f60914934f6c", 1),
    ("sasaki-r7-cr", 7): (
        "904100fbcb2c50f2f917f3e4ff3207c79caad9bc1a6e06f58c3ed658f01d97d0", 1),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_structured_report_is_golden(capsys, name, seed):
    code = main(["check", "--spec", name, "--samples", "64",
                 "--seed", str(seed), "--format", "structured"])
    out = capsys.readouterr()
    digest = hashlib.sha256(out.out.encode()).hexdigest()
    assert (digest, code) == GOLDEN[(name, seed)]
    assert out.err == ""
