"""The north-star byte pins: the sha256 of each output that CI pins, from
the same command run through ``main(argv)`` in process.

The hashes live in ``tests/pins.sha256`` (sha256sum's format), which the
CI workflow checks its own runs against too, so the two cannot drift.
"""

import hashlib
import os
from pathlib import Path

import pytest

from congprimes.cli import main
from congprimes.walk import DEFAULT_LIMITS

PINS = dict(line.split()[::-1] for line in
            (Path(__file__).parent / "pins.sha256").read_text().splitlines())
SUITES = list(DEFAULT_LIMITS)  # every suite, in the order CI runs them


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(capsys, *argvs) -> bytes:
    """What the commands print to stdout, one after another, as CI's shell
    redirect writes it; each must exit 0."""
    out = []
    for argv in argvs:
        assert main(list(argv)) == 0, argv
        out.append(capsys.readouterr().out)
    return "".join(out).encode()


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a two-worker run start its shard even on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_scan_bytes(capsys, tmp_path, two_cpus, fmt, workers):
    out = tmp_path / f"scan.{fmt}"
    stdout_of(capsys, ["scan", "--from", "3", "--to", "1000000", "--workers", workers,
                       "--format", fmt, "--out", str(out)])
    assert sha256(out.read_bytes()) == PINS[f"scan.{fmt}"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_density_bytes(capsys, two_cpus, workers):
    out = stdout_of(capsys, ["density", "--from", "3", "--to", "1000000", "--workers", workers])
    assert sha256(out) == PINS["density.out"]


def test_verify_suite_bytes(capsys):
    out = stdout_of(capsys, *(["verify", suite] for suite in SUITES))
    assert sha256(out) == PINS["verify.out"]


def test_verify_delta_bytes(capsys):
    out = stdout_of(capsys, ["verify", "delta", "--limit", "1000000"])
    assert sha256(out) == PINS["delta.out"]


def test_paper_check_bytes(capsys):
    assert sha256(stdout_of(capsys, ["paper-check"])) == PINS["paper-check.out"]
