"""The package's immutable records: construction, immutability, repr, equality and hash."""

import pytest

from minangle import (
    AUDIT_TOLERANCE,
    ConditionVerdict,
    ConformityReport,
    DihedralAngleSet,
    EquivalenceAudit,
    InvalidInputError,
    MeshQuality,
    ProductDecomposition,
    SimplexQuality,
    ToleranceConfig,
    ValidationReport,
)
from minangle.regularity import _Scan

# Record type -> its fields in order, and the defaults of the trailing ones.
RECORDS = {
    ToleranceConfig: (("degeneracy_rel_tol",), {"degeneracy_rel_tol": 1e-12}),
    SimplexQuality: (
        ("min_dihedral_all_sub", "max_dihedral_all_sub", "min_vertex_dsine", "ball_ratio",
         "dihedral_sum_top", "subsimplex_count"),
        {},
    ),
    MeshQuality: (
        ("ambient_dim", "cells", "min_dihedral_all_sub", "max_dihedral_all_sub",
         "min_vertex_dsine", "ball_ratio", "dihedral_sum_top", "degenerate_cells"),
        {"degenerate_cells": ()},
    ),
    ConditionVerdict: (
        ("condition", "threshold_used", "satisfied", "worst_cell", "worst_value",
         "degenerate_cells"),
        {"degenerate_cells": ()},
    ),
    EquivalenceAudit: (
        ("ambient_dim", "cells", "min_vertex_dsine", "min_dihedral_all_sub",
         "max_dihedral_all_sub", "certified_bound", "forward_margin", "backward_margin",
         "degenerate_cells", "tolerance"),
        {"degenerate_cells": (), "tolerance": AUDIT_TOLERANCE},
    ),
    _Scan: (
        ("first_degenerate", "min_dihedral", "max_dihedral", "min_dsine", "ball_ratio",
         "dihedral_sum", "forward_margin"),
        {},
    ),
    ValidationReport: (
        ("degenerate_cells", "unused_vertices", "duplicate_cells"),
        {"degenerate_cells": (), "unused_vertices": (), "duplicate_cells": ()},
    ),
    ConformityReport: (
        ("facet_count", "boundary_facets", "interior_facets", "overshared_facets"),
        {"overshared_facets": ()},
    ),
    DihedralAngleSet: (("simplex_dim", "angles", "normals"), {}),
    ProductDecomposition: (
        ("vertex_index", "sub_sine", "dihedral_sines", "product", "d_sine", "residual"),
        {},
    ),
}
IDENTITY_EQUALITY = (MeshQuality, EquivalenceAudit)

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def sample(cls):
    """Distinct, hashable field values, new objects on each call."""
    if cls is ToleranceConfig:
        return [float("1e-6")]
    return [(index, name) for index, name in enumerate(RECORDS[cls][0])]


@records
def test_positional_and_keyword_construction_agree(cls):
    fields, _ = RECORDS[cls]
    values = sample(cls)
    for record in (cls(*values), cls(**dict(zip(fields, values)))):
        assert [getattr(record, name) for name in fields] == values
        assert all(getattr(record, name) is value for name, value in zip(fields, values))


@records
def test_defaults(cls):
    fields, defaults = RECORDS[cls]
    required = len(fields) - len(defaults)
    assert list(defaults) == list(fields[required:])
    record = cls(*sample(cls)[:required])
    for name, default in defaults.items():
        assert getattr(record, name) == default


@records
def test_wrong_arguments_are_a_type_error(cls):
    fields, defaults = RECORDS[cls]
    values = sample(cls)
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    if len(defaults) < len(fields):
        with pytest.raises(TypeError):
            cls(*values[: len(fields) - len(defaults) - 1])


@records
def test_assignment_raises_attribute_error(cls):
    record = cls(*sample(cls))
    for name in (*RECORDS[cls][0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, RECORDS[cls][0][0])
    assert [getattr(record, name) for name in RECORDS[cls][0]] == sample(cls)


@records
def test_repr_names_every_field(cls):
    values = sample(cls)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(RECORDS[cls][0], values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@records
def test_equality_and_hash(cls):
    first, second = cls(*sample(cls)), cls(*sample(cls))
    changed = cls(*sample(cls)[:-1], 1e-5 if cls is ToleranceConfig else "changed")
    assert first == first and first != changed and first != tuple(sample(cls))
    if cls in IDENTITY_EQUALITY:
        assert first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2
    else:
        assert first == second and not first != second
        assert hash(first) == hash(second) == hash(tuple(sample(cls)))
        assert len({first, second}) == 1


def test_tolerance_config_checks_its_field():
    with pytest.raises(InvalidInputError, match=r"must lie in \(0, sqrt\(3\)/2\), got 0\.9"):
        ToleranceConfig(0.9)
    with pytest.raises(InvalidInputError, match=r"got -1\.0"):
        ToleranceConfig(degeneracy_rel_tol=-1.0)
