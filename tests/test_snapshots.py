"""Round-trip and error behavior of the text snapshot format."""

import io

import numpy as np
import pytest

from qnslab.fields import Grid, ScalarField, VectorField, \
    random_smooth_positive, random_smooth_vector
from qnslab.snapshots import read_field, write_field


def test_scalar_roundtrip_exact(tmp_path):
    g = Grid((24, 16), length=(1.5, 2 * np.pi))
    f = random_smooth_positive(g, 4, 5, 0.3)
    path = tmp_path / "rho.dat"
    write_field(path, f, "rho", time=0.125)
    back, name, time = read_field(path)
    assert name == "rho"
    assert time == 0.125
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_vector_roundtrip_exact(tmp_path):
    g = Grid((16, 16, 16))
    F = random_smooth_vector(g, 9, 4)
    path = tmp_path / "vel.dat"
    write_field(path, F, "vel", time=1.0)
    back, name, _ = read_field(path)
    assert isinstance(back, VectorField)
    np.testing.assert_array_equal(back.values, F.values)


def _data_section(path):
    text = open(path).read()
    return text[text.index("data:\n") + len("data:\n"):]


def _savetxt_text(values):
    buf = io.StringIO()
    np.savetxt(buf, values.reshape(-1), fmt="%.17g")
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_data_bytes_match_savetxt(tmp_path, kind):
    # several write chunks, with signed zero, extremes and a non-round value
    g = Grid((48, 96))
    rng = np.random.default_rng(11)
    if kind == "scalar":
        vals = rng.standard_normal(g.shape)
        vals.flat[:5] = (-0.0, 1e-300, -1.7976931348623157e308, 0.1, 1.0 / 3)
        f = ScalarField(g, vals)
    else:
        vals = rng.standard_normal((2,) + g.shape) * 1e5
        vals.flat[-3:] = (0.0, -0.0, 5e-324)
        f = VectorField(g, vals)
    path = tmp_path / f"{kind}.dat"
    write_field(path, f, kind)
    assert _data_section(path) == _savetxt_text(f.values)
    back, _, _ = read_field(path)
    np.testing.assert_array_equal(back.values, f.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(f.values))


def test_rejects_non_snapshot_file(tmp_path):
    path = tmp_path / "junk.dat"
    path.write_text("not a snapshot\n")
    with pytest.raises(ValueError):
        read_field(path)


def test_rejects_wrong_type(tmp_path):
    with pytest.raises(TypeError):
        write_field(tmp_path / "x.dat", object(), "x")


def test_scalar_distinguished_from_1d_vector(tmp_path):
    g = Grid(16)
    write_field(tmp_path / "s.dat", ScalarField.constant(g, 2.0), "s")
    back, _, _ = read_field(tmp_path / "s.dat")
    assert isinstance(back, ScalarField)


def _truncate(path, keep_lines):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep_lines]))


@pytest.mark.parametrize("drop", [1, 100])
def test_rejects_truncated_payload(tmp_path, drop):
    g = Grid((16, 24))
    path = tmp_path / "rho.dat"
    write_field(path, random_smooth_positive(g, 2, 3, 1.0), "rho")
    _truncate(path, 9 + g.node_count - drop)
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)


def test_rejects_empty_and_partial_payload(tmp_path):
    g = Grid(16)
    path = tmp_path / "rho.dat"
    write_field(path, ScalarField.constant(g, 2.0), "rho")
    text = path.read_text()
    _truncate(path, 9)
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)
    # a write cut inside the last number
    path.write_text(text[:-4])
    with pytest.raises(ValueError):
        read_field(path)


def test_rejects_extra_values(tmp_path):
    g = Grid(16)
    path = tmp_path / "rho.dat"
    write_field(path, ScalarField.constant(g, 2.0), "rho")
    path.write_text(path.read_text() + "2\n")
    with pytest.raises(ValueError):
        read_field(path)


def test_rejects_bad_header(tmp_path):
    g = Grid(16)
    path = tmp_path / "rho.dat"
    write_field(path, ScalarField.constant(g, 2.0), "rho")
    text = path.read_text()
    path.write_text(text.replace("components: 1", "components: 3"))
    with pytest.raises(ValueError, match="components"):
        read_field(path)
    path.write_text(text.replace("dim: 1", "dim: one"))
    with pytest.raises(ValueError, match="header"):
        read_field(path)
