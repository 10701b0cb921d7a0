"""The residue contour (discosc.contour) reads nothing of the closed form it
certifies: only the nodes, the genus, the exclusion radii and the near
lists of the node pass."""

import ast
from pathlib import Path

import numpy as np
import pytest

from discosc import (CanonicalProduct, GrowthScale, SharpnessParams, contour,
                     generate_radial_geometric, generate_sharpness,
                     genus_from_scale, node_targets)
from discosc.oscillation import _residue_mismatch


def _product(request, name):
    """A fresh product of the named set, so that poisoning its node pass
    leaves the session fixtures alone."""
    if name == "lattice368":
        _, scale, lattice, _ = request.getfixturevalue("weight_pipeline")
        return CanonicalProduct(lattice, genus_from_scale(scale))
    seq, scale = {
        "geo50": (generate_radial_geometric(0.8, 50),
                  GrowthScale.log_power(1.0)),
        "sharp14": (generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
                    GrowthScale.log_power(3.0)),
    }[name]
    return CanonicalProduct(seq, genus_from_scale(scale))


def _poisoned(request, name, **fields):
    """A fresh product whose cached node pass has the given fields."""
    prod = _product(request, name)
    prod._nodes = prod._node_pass()._replace(**fields)
    return prod


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("name", ["geo50", "lattice368", "sharp14"])
def test_contour_modes_read_no_closed_form_output_of_the_node_pass(request,
                                                                   name):
    # every closed-form output of the node pass but Im(deleted) set to nan:
    # m1, m2 and the points keep their bits, and only the scale, which
    # takes Re(const_k) from the deleted logs, turns nan
    want = _product(request, name).node_contour_modes()
    npass = _product(request, name)._node_pass()
    nan = np.full(npass.targets.shape, np.nan)
    got = _poisoned(request, name, targets=nan + 0j, zeroed=nan + 0j,
                    log_dp=nan + 0j, rhs=nan,
                    deleted=nan + 1j * npass.deleted.imag
                    ).node_contour_modes()
    for field in ("m1", "m2", "points"):
        assert np.array_equal(_bits(getattr(got, field)),
                              _bits(getattr(want, field))), field
    assert np.all(np.isnan(got.scale)) and np.all(np.isfinite(want.scale))


@pytest.mark.parametrize("name", ["geo50", "lattice368", "sharp14"])
def test_residue_mismatch_cancels_the_phase_of_the_deleted_logs(request,
                                                                name):
    # Im(deleted) turns m1 and m2 by one phase, which the mismatch ratio
    # cancels: a shift of 1 rad moves it by rounding alone
    prod = _product(request, name)
    targets = node_targets(prod)
    want = _residue_mismatch(prod, targets)
    deleted = prod._node_pass().deleted
    got = _residue_mismatch(
        _poisoned(request, name, deleted=deleted + 1j), targets)
    assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps


def test_contour_imports_no_package_module_but_numutil():
    tree = ast.parse(Path(contour.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names
                         if a.name.split(".")[0] == "discosc"}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                imported |= ({node.module} if node.module else
                             {a.name for a in node.names})
            elif node.module.split(".")[0] == "discosc":
                imported.add(node.module)
    assert imported == {"numutil"}
