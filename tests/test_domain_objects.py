"""Every domain object holds read-only arrays of its own."""

import dataclasses

import numpy as np
import pytest

from gvccarbon import mrio, synthetic
from gvccarbon.diagnostics import pesaran_cd
from gvccarbon.estimators import RegressionSpec, anderson_hsiao, fgls_ar1
from gvccarbon.panel import PanelDataset


def world():
    rng = np.random.default_rng(6)
    icio = synthetic.random_icio(rng, ("A", "B"), ("M", "S"), year=2000)
    return icio, synthetic.random_intensity(rng, icio)


def accounts():
    icio, e = world()
    return mrio.compute_accounts(icio, mrio.build_model(icio), e)


def copies(obj, names):
    """Writable copies of the named arrays of ``obj``."""
    return {name: np.array(getattr(obj, name)) for name in names}


def panel(rng):
    x = rng.normal(size=(4, 8))
    return {"x": x, "y": 1.0 + 0.5 * x + rng.normal(size=(4, 8))}


def fitted(fit):
    """A fit on a panel built from the caller's grids."""
    def build(arrays):
        return fit(PanelDataset(("A", "B", "C", "D"), range(8), arrays))
    return build


# Each case: the caller's arrays, and how the object is built from them.
CASES = {
    "IcioTable": (
        lambda: copies(world()[0], ("Z", "F", "x")),
        lambda a: mrio.IcioTable(("A", "B"), ("M", "S"), a["Z"], a["F"],
                                 a["x"])),
    "EmissionIntensity": (
        lambda: copies(world()[1], ("e",)),
        lambda a: mrio.EmissionIntensity(("A", "B"), ("M", "S"), a["e"])),
    "LeontiefModel": (
        dict, lambda a: mrio.build_model(world()[0])),
    "EmbodiedAccounts": (
        lambda: copies(accounts(), mrio.INDICATOR_KEYS),
        lambda a: mrio.EmbodiedAccounts(("A", "B"), ("M", "S"), **a)),
    "PanelDataset": (
        lambda: panel(np.random.default_rng(7)),
        lambda a: PanelDataset(("A", "B", "C", "D"), range(8), a)),
    "RegressionResult (FGLS)": (
        lambda: panel(np.random.default_rng(8)),
        fitted(lambda p: fgls_ar1(p, RegressionSpec(
            "y", ("x",), covariance="ar1+panel-heteroscedastic")))),
    "RegressionResult (IV)": (
        lambda: panel(np.random.default_rng(9)),
        fitted(lambda p: anderson_hsiao(p, "y", ("x",)))),
    "CdReport": (
        lambda: {"residuals": np.random.default_rng(10).normal(size=(4, 8))},
        lambda a: pesaran_cd(a["residuals"])),
}


def held_arrays(obj):
    """(name, array) for every array a domain object holds, also inside a
    tuple or a dict field."""
    for spec in dataclasses.fields(obj):
        value = getattr(obj, spec.name)
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, tuple)
                 else [(None, value)])
        for key, item in items:
            if isinstance(item, np.ndarray):
                yield spec.name if key is None else f"{spec.name}[{key}]", item


@pytest.mark.filterwarnings("ignore::gvccarbon.errors.WeakInstrument")
@pytest.mark.parametrize("case", CASES)
def test_arrays_are_read_only_and_not_the_callers(case):
    make_inputs, build = CASES[case]
    inputs = make_inputs()
    # The caller passes views and keeps the writable arrays behind them.
    obj = build({name: array[...] for name, array in inputs.items()})
    held = dict(held_arrays(obj))
    assert held, case
    before = {name: array.copy() for name, array in held.items()}
    for name, array in held.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array.flat[0] = -5.0
    for array in inputs.values():
        array[...] = -5.0
    for name, array in held.items():
        assert np.array_equal(array, before[name], equal_nan=True), name
