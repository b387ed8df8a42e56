"""Lockstep's bit rule, checked where it runs.

A group of ``olr`` seeds gives each seed the bytes of its own run only
while numpy's batched products give each row the bits of its 1-D ``.dot``.
``group_instances`` checks that on the group's first round and refuses the
group when any bit differs, so the seeds step alone.  Here a batched product
off by one ulp stands in for a numpy build whose batched kernel sums in
another order.
"""

import dataclasses

import numpy as np
import pytest

import ocobench.harness as harness
import ocobench.problems as problems
from ocobench import PRESETS, generate_olr, run_experiment
from ocobench.problems import group_instances

CONFIG = dataclasses.replace(PRESETS["olr-paper"], T=60, taus=(0, 3),
                             algos=("malm", "czp", "ny"), seeds=(0, 1, 2))


def nudge_batched(monkeypatch, name):
    """Make ``problems.<name>`` one ulp off on (S, n) or (S, k) rows."""
    product = getattr(problems, name)

    def off(M, v):
        out = product(M, v)
        return np.nextafter(out, np.inf) if v.ndim == 2 else out

    monkeypatch.setattr(problems, name, off)


def csv_bytes(tmp_path, name):
    with open(run_experiment(dataclasses.replace(CONFIG, out=str(tmp_path / name))),
              "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", ["_matvec", "_rmatvec", "_dot"])
def test_a_batched_product_off_by_one_bit_refuses_the_group(tmp_path, monkeypatch,
                                                            name):
    monkeypatch.setattr(harness, "group_instances", lambda instances: None)
    alone = csv_bytes(tmp_path, "alone.csv")
    monkeypatch.undo()
    nudge_batched(monkeypatch, name)
    assert group_instances([generate_olr(5, 10, 60, 10.0, seed)
                            for seed in range(3)]) is None
    assert csv_bytes(tmp_path, "probed.csv") == alone


def test_without_the_probe_the_nudged_group_moves_the_bytes(tmp_path, monkeypatch):
    # the nudge reaches the group's rounds: only the probe keeps the bytes
    alone = csv_bytes(tmp_path, "alone.csv")
    nudge_batched(monkeypatch, "_matvec")
    monkeypatch.setattr(problems, "_rows_keep_their_bits", lambda Z: True)
    assert csv_bytes(tmp_path, "unprobed.csv") != alone
