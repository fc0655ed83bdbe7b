"""The result records: immutable named tuples with fixed field names and order."""

import subprocess
import sys

import pytest

from bellkit import (
    BellOperator,
    ContextualityReport,
    CorrelationSet,
    DistanceReport,
    EntropyReport,
    FeasibilityVerdict,
    FineReport,
    HorodeckiReport,
    JointEigenbasis,
    LinearEntropyVerdict,
    MarginalSet,
    ModelVerification,
    QuadReport,
    SweepRow,
    TriangleReport,
    ViolationSearch,
)

#: Each record's fields in declaration order, as they stood when the records were frozen dataclasses.
RECORD_FIELDS = [
    (EntropyReport, ("s12", "s1", "s2", "kind", "log_base")),
    (LinearEntropyVerdict, ("lhs", "rhs", "holds", "purity_margin", "beta_bound_margin", "beta_bound_implied")),
    (HorodeckiReport, ("condition_holds", "s12", "s1", "s2")),
    (MarginalSet, ("p_a", "p_b", "p_c", "p_d", "p_ab", "p_ad", "p_bc", "p_cd")),
    (FineReport, ("satisfied", "chsh_values")),
    (FeasibilityVerdict, ("feasible", "witness", "fine_criterion", "chsh_values")),
    (ContextualityReport, ("context_verifications", "context_models", "marginals", "verdict", "all_commuting")),
    (JointEigenbasis, ("basis", "values")),
    (ModelVerification, ("max_error", "linearity_error")),
    (DistanceReport, ("d", "p_meet", "p_join")),
    (TriangleReport, ("holds", "slack", "distances")),
    (QuadReport, ("holds", "slack", "worst_permutation", "per_permutation")),
    (CorrelationSet, ("ab", "bc", "cd", "ad")),
    (BellOperator, ("matrix", "dims")),
    (ViolationSearch, ("directions", "beta_max")),
    (SweepRow, ("seed", "kind", "slack")),
]


@pytest.mark.parametrize("record, fields", RECORD_FIELDS, ids=[r.__name__ for r, _ in RECORD_FIELDS])
def test_record_fields_construction_and_immutability(record, fields):
    assert record._fields == fields
    values = tuple(i / 10 for i in range(len(fields)))  # inside CorrelationSet's [-1, 1]
    by_position = record(*values)
    by_keyword = record(**dict(zip(fields, values)))
    assert by_position == by_keyword == values
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    assert by_keyword._asdict() == dict(zip(fields, values))
    with pytest.raises(AttributeError):
        setattr(by_keyword, fields[0], 1.0)
    with pytest.raises(AttributeError):
        by_keyword.unknown = 1.0


@pytest.mark.parametrize("build", [
    lambda: CorrelationSet(0.5, 0.5, 1.5, 0.5),
    lambda: CorrelationSet(ab=0.5, bc=0.5, cd=1.5, ad=0.5),
    lambda: CorrelationSet(0.5, 0.5, 0.5, 0.5)._replace(cd=1.5),
    lambda: CorrelationSet._make([0.5, 0.5, 1.5, 0.5]),
], ids=["positional", "keyword", "replace", "make"])
def test_correlation_set_checks_its_range_on_every_construction(build):
    with pytest.raises(ValueError, match=r"correlation cd = 1.5 outside \[-1, 1\]"):
        build()


def test_importing_the_cli_loads_no_dataclasses():
    # Each CLI request is a fresh process, so bellkit's import is part of every request's time.
    proc = subprocess.run([sys.executable, "-c", "import sys, bellkit.cli; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
