"""The package's immutable records: construction, immutability, repr, equality and hash."""

import numpy as np
import pytest

from minangle import (
    ConditionVerdict,
    ConformityReport,
    DihedralAngleSet,
    InvalidInputError,
    Mesh,
    MeshQuality,
    ProductDecomposition,
    ToleranceConfig,
    ValidationReport,
    all_dihedral_angles,
    cell_quality,
    flatten_family,
    mesh_quality,
    random_simplex,
    regular_simplex,
)
from minangle.regularity import _scan

# Record type -> its fields in order, and the defaults of the trailing ones.
RECORDS = {
    ToleranceConfig: (("degeneracy_rel_tol",), {"degeneracy_rel_tol": 1e-12}),
    MeshQuality: (
        ("ambient_dim", "cells", "min_dihedral_all_sub", "max_dihedral_all_sub",
         "min_vertex_dsine", "ball_ratio", "dihedral_sum_top", "forward_margin",
         "degenerate_cells"),
        {"degenerate_cells": ()},
    ),
    ConditionVerdict: (
        ("condition", "threshold_used", "satisfied", "worst_cell", "worst_value",
         "degenerate_cells"),
        {"degenerate_cells": ()},
    ),
    ValidationReport: (
        ("unused_vertices", "duplicate_cells"),
        {"unused_vertices": (), "duplicate_cells": ()},
    ),
    ConformityReport: (
        ("facet_count", "boundary_facets", "interior_facets", "overshared_facets"),
        {"overshared_facets": ()},
    ),
    DihedralAngleSet: (("simplex_dim", "angles"), {}),
    ProductDecomposition: (
        ("vertex_index", "sub_sine", "dihedral_sines", "product", "d_sine", "residual"),
        {},
    ),
}
IDENTITY_EQUALITY = (MeshQuality, DihedralAngleSet)


def sample(cls):
    """Distinct, hashable field values, new objects on each call."""
    if cls is ToleranceConfig:
        return [float("1e-6")]
    return [(index, name) for index, name in enumerate(RECORDS[cls][0])]


def built(build):
    """The field values of the MeshQuality that ``build`` returns, new arrays on each call."""

    def make():
        record = build()
        assert type(record) is MeshQuality
        return [getattr(record, name) for name in RECORDS[MeshQuality][0]]

    return make


# MeshQuality records as the library builds them, in the three roles that once had
# records of their own: one cell's quality (SimplexQuality), the audit's margins over a
# mesh (EquivalenceAudit), and the raw scan, a degenerate cell included (_Scan).
BUILT = {
    "SimplexQuality": lambda: cell_quality(random_simplex(3, seed=0)),
    "EquivalenceAudit": lambda: mesh_quality(
        Mesh(np.vstack([np.zeros(3), np.eye(3), np.ones(3)]), [[0, 1, 2, 3], [1, 2, 3, 4]])
    ),
    "_Scan": lambda: _scan(
        np.stack([regular_simplex(3).vertices, flatten_family(3, 1e-15).vertices]), 1e-12
    ),
}
CASES = {cls.__name__: (cls, lambda cls=cls: sample(cls)) for cls in RECORDS} | {
    name: (MeshQuality, built(build)) for name, build in BUILT.items()
}
records = pytest.mark.parametrize("cls, make", list(CASES.values()), ids=list(CASES))


@records
def test_positional_and_keyword_construction_agree(cls, make):
    fields, _ = RECORDS[cls]
    values = make()
    for record in (cls(*values), cls(**dict(zip(fields, values)))):
        assert [getattr(record, name) for name in fields] == values
        assert all(getattr(record, name) is value for name, value in zip(fields, values))


@records
def test_defaults(cls, make):
    fields, defaults = RECORDS[cls]
    required = len(fields) - len(defaults)
    assert list(defaults) == list(fields[required:])
    record = cls(*make()[:required])
    for name, default in defaults.items():
        assert getattr(record, name) == default


@records
def test_wrong_arguments_are_a_type_error(cls, make):
    fields, defaults = RECORDS[cls]
    values = make()
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
def test_assignment_raises_attribute_error(cls, make):
    values = make()
    record = cls(*values)
    for name in (*RECORDS[cls][0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, RECORDS[cls][0][0])
    assert all(getattr(record, name) is value for name, value in zip(RECORDS[cls][0], values))


@records
def test_repr_names_every_field(cls, make):
    values = make()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(RECORDS[cls][0], values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@records
def test_equality_and_hash(cls, make):
    first, second = cls(*make()), cls(*make())
    changed = cls(*make()[:-1], 1e-5 if cls is ToleranceConfig else "changed")
    assert first == first and first != changed and first != tuple(make())
    if cls in IDENTITY_EQUALITY:
        assert first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2
    else:
        assert first == second and not first != second
        assert hash(first) == hash(second) == hash(tuple(make()))
        assert len({first, second}) == 1


def test_tolerance_config_checks_its_field():
    with pytest.raises(InvalidInputError, match=r"must lie in \(0, sqrt\(3\)/2\), got 0\.9"):
        ToleranceConfig(0.9)
    with pytest.raises(InvalidInputError, match=r"got -1\.0"):
        ToleranceConfig(degeneracy_rel_tol=-1.0)


def test_dihedral_angle_sets_compare_by_identity():
    # Their fields hold a dict and an array: == by fields raised ValueError, hash TypeError.
    first, second = (all_dihedral_angles(regular_simplex(3)) for _ in range(2))
    assert (first == first) is True and (first == second) is False
    assert (first != second) is True
    assert len({first, second, first}) == 2
