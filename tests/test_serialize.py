import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinalias import AngularPowerSpectrum
from spinalias.serialize import (
    SpectrumFileError,
    fmt,
    load_spectrum,
    load_spectrum_json,
    render_csv,
    render_json,
)


def test_fmt_roundtrips_doubles():
    for x in (1 / 3, 0.1, 1e-17, 123456.789, -2.5e300):
        assert float(fmt(x)) == x


def test_fmt_none_is_an_empty_cell():
    assert render_csv([(["a", "b", "c"], [(None, 1, None)])]) == "a,b,c\n,1,\n"


def test_render_json_writes_non_finite_as_null():
    rows = [(1, np.float64("nan")), (2, float("inf")), (3, np.float32("-inf")), (4, 0.5)]
    text = render_json({}, {"tab": (["a", "b"], rows)})

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    assert json.loads(text, parse_constant=reject)["tab"]["b"] == [None, None, None, 0.5]


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
    path = tmp_path / "spec.csv"
    rows = list(zip(range(2, 6), spec.C_E.tolist(), spec.C_B.tolist()))
    path.write_text(render_csv([(["ell", "C_E", "C_B"], rows)]))
    loaded = load_spectrum(path)
    assert loaded.s == 2 and loaded.L_max == 5
    assert_allclose(loaded.C_E, spec.C_E)
    assert_allclose(loaded.C_B, spec.C_B)


def test_spectrum_json_roundtrip(tmp_path):
    spec = AngularPowerSpectrum.flat(1, 4)
    path = tmp_path / "spec.json"
    rows = list(zip(range(1, 5), spec.C_E.tolist(), spec.C_B.tolist()))
    path.write_text(render_json({}, {"spectrum": (["ell", "C_E", "C_B"], rows)}))
    loaded = load_spectrum_json(path)
    assert loaded.s == 1 and loaded.L_max == 4
    assert_allclose(loaded.C_total, 1.0)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "empty"),
        ("ell,C_E,C_B\n2,0.5\n", "row 2"),
        ("ell,C_E,C_B\n2,0.5,0.5\n4,0.5,0.5\n", "consecutive"),
        ("ell,C_E,C_B\n2,-0.5,0.5\n", "row 2"),
        ("2,0.5,0.5\n3,0.5,0.5\n", "row 1"),
        ("[1, 2, 3]", "malformed columns"),
        ('{"ell": [2.7, 3.2], "C_E": [1, 1], "C_B": [0, 0]}', "ell must hold integers"),
        ('{"ell": [true], "C_E": [1], "C_B": [0]}', "ell must hold integers"),
        ('{"ell": [Infinity], "C_E": [1], "C_B": [0]}', "malformed columns"),
    ],
)
def test_malformed_spectrum_files(tmp_path, content, fragment):
    path = tmp_path / ("bad.json" if content.startswith(("[", "{")) else "bad.csv")
    path.write_text(content)
    with pytest.raises(SpectrumFileError, match=fragment):
        load_spectrum(path)
