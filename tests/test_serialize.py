import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinalias import (
    AngularPowerSpectrum,
    SpinCoefficients,
    build_grid_gauss,
    synthesize,
)
from spinalias.serialize import (
    SpectrumFileError,
    field_samples_table,
    fmt,
    load_spectrum,
    load_spectrum_json,
    render_csv,
    render_json,
    spectrum_table,
)


def test_fmt_roundtrips_doubles():
    for x in (1 / 3, 0.1, 1e-17, 123456.789, -2.5e300):
        assert float(fmt(x)) == x


def test_render_csv_sections():
    text = render_csv([(["a", "b"], [(1, 0.5)]), (["c"], [("x",), ("y",)])])
    assert text == "a,b\n1,0.5\n\nc\nx\ny\n"


def test_render_json_columns():
    text = render_json({"command": "t"}, {"tab": (["a", "b"], [(1, 2.0), (3, 4.0)])})
    doc = json.loads(text)
    assert doc["tab"] == {"a": [1, 3], "b": [2.0, 4.0]}
    assert doc["metadata"]["command"] == "t"


def test_spectrum_csv_roundtrip(tmp_path):
    spec = AngularPowerSpectrum(2, 5, np.array([0.1, 0.2, 0.3, 0.4]),
                                np.array([1.0, 2.0, 3.0, 4.0]))
    header, rows = spectrum_table(spec)
    path = tmp_path / "spec.csv"
    path.write_text(render_csv([(header, rows)]))
    loaded = load_spectrum(path)
    assert loaded.s == 2 and loaded.L_max == 5
    assert_allclose(loaded.C_E, spec.C_E)
    assert_allclose(loaded.C_B, spec.C_B)


def test_spectrum_json_roundtrip(tmp_path):
    spec = AngularPowerSpectrum.flat(1, 4)
    header, rows = spectrum_table(spec)
    path = tmp_path / "spec.json"
    path.write_text(render_json({}, {"spectrum": (header, rows)}))
    loaded = load_spectrum_json(path)
    assert loaded.s == 1 and loaded.L_max == 4
    assert_allclose(loaded.C_total, 1.0)


def test_field_samples_table():
    grid = build_grid_gauss(6, 2, 1)
    coeffs = SpinCoefficients.zeros(2, 2)
    coeffs.set(2, 1, 1.0 + 2.0j)
    field = synthesize(coeffs, grid)
    header, rows = field_samples_table(field)
    assert header == ["theta_index", "phi_index", "re", "im"]
    assert len(rows) == grid.n_theta * grid.n_phi
    p, q, re, im = rows[3]
    assert field.values[p, q] == complex(re, im)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("ell,C_E,C_B\n2,0.5\n", "row 2"),
        ("ell,C_E,C_B\n2,0.5,0.5\n4,0.5,0.5\n", "consecutive"),
        ("ell,C_E,C_B\n2,-0.5,0.5\n", "row 2"),
        ("2,0.5,0.5\n3,0.5,0.5\n", "row 1"),
    ],
)
def test_malformed_spectrum_files(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(SpectrumFileError, match=fragment):
        load_spectrum(path)
