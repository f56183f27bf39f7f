"""Round-trip and error behavior of the snapshot formats: version 2 (text
header, raw float64 payload), which write_field writes, and version-1 text,
which read_field still reads."""

import numpy as np
import pytest

from qnslab.fields import Grid, ScalarField, VectorField, \
    random_smooth_positive, random_smooth_vector
from qnslab.snapshots import read_field, write_field


def test_scalar_roundtrip_exact(tmp_path, snapfiles):
    g = Grid((24, 16), length=(1.5, 2 * np.pi))
    f = random_smooth_positive(g, 4, 5, 0.3)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f, "rho",
                               time=0.125)
        back, name, time = read_field(path)
        assert name == "rho"
        assert time == 0.125
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


def test_vector_roundtrip_exact(tmp_path, snapfiles):
    g = Grid((16, 16, 16))
    F = random_smooth_vector(g, 9, 4)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", F, "vel",
                               time=1.0)
        back, name, _ = read_field(path)
        assert isinstance(back, VectorField)
        np.testing.assert_array_equal(back.values, F.values)


def _pinned_field(kind):
    # signed zeros, the smallest subnormal, both extremes, non-round values
    g = Grid((48, 96))
    rng = np.random.default_rng(11)
    if kind == "scalar":
        vals = rng.standard_normal(g.shape)
        vals.flat[:7] = (-0.0, 5e-324, -1.7976931348623157e308,
                         1.7976931348623157e308, 0.1, 1.0 / 3, 1e-300)
        return ScalarField(g, vals)
    vals = rng.standard_normal((2,) + g.shape) * 1e5
    vals.flat[-7:] = (0.0, -0.0, 5e-324, 1.7976931348623157e308,
                      -1.7976931348623157e308, 0.1, 1.0 / 3)
    return VectorField(g, vals)


def _assert_bit_exact(back, field):
    np.testing.assert_array_equal(back.values, field.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(field.values))


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_data_bytes_are_little_endian_f8(tmp_path, snapfiles, kind):
    f = _pinned_field(kind)
    path = tmp_path / f"{kind}.dat"
    write_field(path, f, kind, time=0.5)
    header, payload = snapfiles.split(path)
    comps = 1 if kind == "scalar" else 2
    assert header == (
        "# qnslab-field v2\ndim: 2\nn: 48 96\n"
        "length: 6.283185307179586 6.283185307179586\n"
        f"name: {kind}\ntime: 0.5\nkind: {kind}\ncomponents: {comps}\n"
        "data: <f8\n").encode()
    assert payload == f.values.astype("<f8").tobytes()
    assert path.stat().st_size == len(header) + 8 * f.values.size
    back, _, _ = read_field(path)
    _assert_bit_exact(back, f)


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_data_bytes_match_savetxt(tmp_path, snapfiles, kind):
    # the version-1 reader reads the text np.savetxt(fmt="%.17g") wrote
    # back bit for bit
    f = _pinned_field(kind)
    path = snapfiles.write("v1", tmp_path / f"{kind}.dat", f, kind)
    back, name, _ = read_field(path)
    assert name == kind
    _assert_bit_exact(back, f)


def test_rejects_non_snapshot_file(tmp_path):
    path = tmp_path / "junk.dat"
    for junk in (b"not a snapshot\n", b"\x00\xff\xfe" * 40,
                 b"# qnslab-field v3\n"):
        path.write_bytes(junk)
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


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf, True, "0.5",
                                  None, 10 ** 400])
def test_write_rejects_time_it_would_not_read_back(tmp_path, time):
    path = tmp_path / "rho.dat"
    with pytest.raises(ValueError, match="time"):
        write_field(path, ScalarField.constant(Grid(16), 2.0), "rho", time)
    assert not path.exists()


@pytest.mark.parametrize("name", ["rho\n", "a\nb", " rho", "rho ", "\trho",
                                  "rho\r", " ", "\udcff", 5, None])
def test_write_rejects_name_it_would_not_read_back(tmp_path, name):
    path = tmp_path / "rho.dat"
    with pytest.raises(ValueError, match="name"):
        write_field(path, ScalarField.constant(Grid(16), 2.0), name)
    assert not path.exists()


@pytest.mark.parametrize("name", ["final rho", "rho: t=1", "a\rb", "ρ", ""])
def test_names_and_times_read_back_unchanged(tmp_path, name):
    path = tmp_path / "rho.dat"
    for time in (0.1, -0.0, 5e-324, 7, np.float64(1.0 / 3)):
        write_field(path, ScalarField.constant(Grid(16), 2.0), name, time)
        _, back_name, back_time = read_field(path)
        assert back_name == name
        assert back_time == time
        assert np.signbit(back_time) == np.signbit(time)


@pytest.mark.parametrize("drop", [1, 100])
def test_rejects_truncated_payload(tmp_path, snapfiles, drop):
    g = Grid((16, 24))
    f = random_smooth_positive(g, 2, 3, 1.0)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f)
        snapfiles.drop_values(path, drop)
        with pytest.raises(ValueError, match="truncated"):
            read_field(path)


def test_rejects_empty_and_partial_payload(tmp_path, snapfiles):
    f = ScalarField.constant(Grid(16), 2.0)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f)
        _, payload = snapfiles.split(path)
        snapfiles.edit(path, payload=b"")
        with pytest.raises(ValueError, match="truncated"):
            read_field(path)
        # a write cut inside the last values
        snapfiles.edit(path, payload=payload[:-4])
        with pytest.raises(ValueError):
            read_field(path)


def test_rejects_extra_values(tmp_path, snapfiles):
    f = ScalarField.constant(Grid(16), 2.0)
    extra = {"v1": b"2\n", "v2": np.float64(2.0).astype("<f8").tobytes()}
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f)
        _, payload = snapfiles.split(path)
        snapfiles.edit(path, payload=payload + extra[fmt])
        with pytest.raises(ValueError):
            read_field(path)


def test_rejects_bad_header(tmp_path, snapfiles):
    f = ScalarField.constant(Grid(16), 2.0)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f)
        header, _ = snapfiles.split(path)
        snapfiles.set_header_line(path, "components", "3")
        with pytest.raises(ValueError, match="components"):
            read_field(path)
        snapfiles.edit(path, header=header)
        snapfiles.set_header_line(path, "dim", "one")
        with pytest.raises(ValueError, match="header"):
            read_field(path)


@pytest.mark.parametrize("key, value, message", [
    ("n", "16 16", "n/dim mismatch"),
    ("length", "1.0 1.0", "length must have one entry per axis"),
    ("length", "inf", "domain extents must be positive and finite"),
    ("n", "15", "node counts must be even and >= 8, got 15"),
    ("dim", "one", "invalid literal"),
    ("components", "3", "with 3 components"),
], ids=["n-dim", "length-count", "length-inf", "n-odd", "dim-text",
        "components"])
def test_header_error_names_the_file(tmp_path, snapfiles, key, value,
                                     message):
    # with two snapshots, the error tells which file is bad
    f = ScalarField.constant(Grid(16), 2.0)
    for fmt in snapfiles.formats:
        path = snapfiles.write(fmt, tmp_path / f"{fmt}.dat", f)
        snapfiles.set_header_line(path, key, value)
        with pytest.raises(ValueError) as info:
            read_field(path)
        assert message in str(info.value)
        assert str(info.value).endswith(f": {path}")


def _v1_payload(tmp_path, snapfiles, field):
    path = snapfiles.write("v1", tmp_path / "text.dat", field)
    return snapfiles.split(path)[1]


@pytest.mark.parametrize("damage", [
    "one-byte-short", "one-byte-extra", "eight-bytes-extra",
    "big-endian-marker", "bare-marker", "text-payload",
    "text-payload-bare-marker", "bad-utf8-header"])
def test_rejects_damaged_v2_file(tmp_path, snapfiles, damage):
    f = ScalarField.constant(Grid(16), 2.0)
    path = snapfiles.write("v2", tmp_path / "rho.dat", f)
    header, payload = snapfiles.split(path)
    marker = b"data: <f8\n"
    if damage == "one-byte-short":
        snapfiles.edit(path, payload=payload[:-1])
    elif damage == "one-byte-extra":
        snapfiles.edit(path, payload=payload + b"\n")
    elif damage == "eight-bytes-extra":
        snapfiles.edit(path, payload=payload + payload[:8])
    elif damage == "big-endian-marker":
        snapfiles.edit(path, header=header.replace(marker, b"data: >f8\n"))
    elif damage == "bare-marker":
        snapfiles.edit(path, header=header.replace(marker, b"data:\n"))
    elif damage == "text-payload":
        snapfiles.edit(path, payload=_v1_payload(tmp_path, snapfiles, f))
    elif damage == "text-payload-bare-marker":
        snapfiles.edit(path, header=header.replace(marker, b"data:\n"),
                       payload=_v1_payload(tmp_path, snapfiles, f))
    else:
        snapfiles.edit(path, header=header.replace(b"name: rho",
                                                   b"name: \xffrho"))
    match = "truncated" if "byte" in damage else "corrupt"
    with pytest.raises(ValueError, match=match):
        read_field(path)
