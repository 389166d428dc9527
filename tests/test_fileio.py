import numpy as np
import pytest

from multiscan.fileio import (
    DataError,
    parse_config_text,
    read_imu_csv,
    read_point_cloud,
    read_trajectory,
    write_imu_csv,
    write_point_cloud,
    write_trajectory,
)
from multiscan.geometry import Pose, PointCloud
from multiscan.imu import ImuStream


def write_ascii_cloud(cloud, path):
    """The ascii twin of `write_point_cloud`: x/y/z as float32, t as float64."""
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}", "property float x",
              "property float y", "property float z", "property double t", "end_header"]
    xyz = cloud.points.astype(np.float32)
    lines = [f"{x:.8g} {y:.8g} {z:.8g} {t:.17g}" for (x, y, z), t in zip(xyz, cloud.stamps)]
    path.write_text("\n".join(header + lines) + "\n")


class TestPointCloudIO:
    @pytest.mark.parametrize("binary", [True, False])
    def test_round_trip(self, tmp_path, binary):
        rng = np.random.default_rng(0)
        cloud = PointCloud(
            points=rng.uniform(-50, 50, size=(1000, 3)),
            stamps=np.sort(rng.uniform(0, 1, 1000)),
        )
        path = tmp_path / "cloud.ply"
        (write_point_cloud if binary else write_ascii_cloud)(cloud, path)
        back = read_point_cloud(path)
        assert len(back) == 1000
        assert np.allclose(back.points, cloud.points, atol=1e-4)  # float32 storage
        assert np.array_equal(back.stamps, cloud.stamps)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_point_cloud(PointCloud(points=np.zeros((0, 3))), path)
        back = read_point_cloud(path)
        assert len(back) == 0

    def test_missing_t_defaults_to_scan_time(self, tmp_path):
        path = tmp_path / "no_t.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment scan_time 12.5\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "1 2 3\n4 5 6\n"
        )
        back = read_point_cloud(path)
        assert np.allclose(back.stamps, 12.5)
        assert np.allclose(back.points, [[1, 2, 3], [4, 5, 6]])

    def test_extra_properties_skipped(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar intensity\nend_header\n"
            "1 2 3 77\n"
        )
        back = read_point_cloud(path)
        assert np.allclose(back.points, [[1, 2, 3]])

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nproperty plutonium x\nend_header\n")
        with pytest.raises(DataError, match="line 3"):
            read_point_cloud(path)

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "nope.ply"
        path.write_text("hello\nworld\n")
        with pytest.raises(DataError, match="line 1"):
            read_point_cloud(path)

    @pytest.mark.parametrize("binary", [True, False])
    def test_negative_vertex_count_names_line(self, tmp_path, binary):
        path = tmp_path / "negative.ply"
        fmt = "binary_little_endian" if binary else "ascii"
        path.write_text(
            f"ply\nformat {fmt} 1.0\nelement vertex -2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(DataError, match="line 3: bad vertex count"):
            read_point_cloud(path)

    @pytest.mark.parametrize("line", [
        "comment scan_time abc", "comment scan_time nan", "element", "element face 0",
    ])
    def test_malformed_header_line_names_line(self, tmp_path, line):
        path = tmp_path / "header.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\n{line}\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n"
        )
        with pytest.raises(DataError, match="line 3"):
            read_point_cloud(path)

    def test_repeated_property_names_line(self, tmp_path):
        path = tmp_path / "repeated.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3 4\n"
        )
        with pytest.raises(DataError, match="line 5: duplicate property 'x'"):
            read_point_cloud(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "trunc.ply"
        cloud = PointCloud(points=np.ones((10, 3)))
        write_point_cloud(cloud, path)
        data = path.read_bytes()
        path.write_bytes(data[:-12])
        with pytest.raises(DataError, match="shorter"):
            read_point_cloud(path)


class TestImuCsv:
    def test_round_trip(self, tmp_path):
        samples = ImuStream(
            [0.0, 0.01, 0.02],
            [[0.1, 0, 0], [0.2, 0, 0], [0.3, 0, 0]],
            [[0, 0, 9.81], [0, 0, 9.80], [0, 0, 9.79]],
        )
        path = tmp_path / "imu.csv"
        write_imu_csv(samples, path)
        back = read_imu_csv(path)
        assert len(back) == 3
        assert back.times[1] == pytest.approx(0.01)
        assert np.allclose(back.gyro[2], [0.3, 0, 0])

    def test_shuffled_rows_sorted(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text(
            "t,gx,gy,gz,ax,ay,az\n"
            "0.02,0,0,0,0,0,1\n"
            "0.00,0,0,0,0,0,2\n"
            "0.01,0,0,0,0,0,3\n"
        )
        back = read_imu_csv(path)
        assert back.times.tolist() == [0.0, 0.01, 0.02]
        assert back.accel[0, 2] == 2.0

    def test_duplicate_timestamp_rejected_with_row(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text(
            "t,gx,gy,gz,ax,ay,az\n"
            "0.00,0,0,0,0,0,1\n"
            "0.01,0,0,0,0,0,2\n"
            "0.01,0,0,0,0,0,3\n"
        )
        with pytest.raises(DataError, match="line 4"):
            read_imu_csv(path)

    def test_header_only_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "imu.csv"
        write_imu_csv(ImuStream(), path)
        back = read_imu_csv(path)
        assert len(back) == 0 and back.gyro.shape == (0, 3)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,gx,gy,gz,ax,ay,az\n")
        with pytest.raises(DataError, match="line 1"):
            read_imu_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,gx,gy,gz,ax,ay,az\n0.0,1,2,3\n")
        with pytest.raises(DataError, match="line 2"):
            read_imu_csv(path)


    def test_nan_time_names_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,gx,gy,gz,ax,ay,az\n0.0,0,0,0,0,0,9.81\nnan,0,0,0,0,0,9.81\n")
        with pytest.raises(DataError, match="line 3: non-finite"):
            read_imu_csv(path)


class TestTrajectoryIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 10, 20))
        poses = []
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            poses.append(Pose(axis * rng.uniform(0, 3), rng.uniform(-5, 5, 3)))
        path = tmp_path / "traj.txt"
        write_trajectory(path, times, poses)
        t_back, p_back = read_trajectory(path)
        assert np.allclose(t_back, times, atol=1e-9)
        for a, b in zip(poses, p_back):
            assert np.allclose(a.trans, b.trans, atol=1e-8)
            assert np.linalg.norm(a.inverse().compose(b).rotvec) < 1e-7

    def test_rejects_non_unit_quaternion(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0.0 0 0 0 0 0 0 2.0\n")
        with pytest.raises(DataError, match="quaternion"):
            read_trajectory(path)

    def test_rejects_non_increasing_times(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
        with pytest.raises(DataError, match="increasing"):
            read_trajectory(path)

    @pytest.mark.parametrize("row", [
        "nan 0 0 0 0 0 0 1", "1.0 0 nan 0 0 0 0 1", "1.0 0 0 0 0 nan 0 1",
    ], ids=["time", "position", "quaternion"])
    def test_rejects_nan_with_line(self, tmp_path, row):
        path = tmp_path / "traj.txt"
        path.write_text(f"0.5 0 0 0 0 0 0 1\n{row}\n")
        with pytest.raises(DataError, match="line 2: non-finite"):
            read_trajectory(path)

    def test_skips_comments(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n0.0 1 2 3 0 0 0 1\n")
        times, poses = read_trajectory(path)
        assert len(times) == 1
        assert np.allclose(poses[0].trans, [1, 2, 3])


class TestConfig:
    def test_parses_pairs_and_comments(self):
        text = "# settings\nvoxel_coarse = 2.0\n n_min=5  # inline\n\nname = run a\n"
        out = parse_config_text(text)
        assert out == {"voxel_coarse": "2.0", "n_min": "5", "name": "run a"}

    def test_rejects_missing_equals(self):
        with pytest.raises(DataError, match="line 2"):
            parse_config_text("a = 1\nbogus line\n")

    def test_rejects_empty_key(self):
        with pytest.raises(DataError, match="empty key"):
            parse_config_text("= 3\n")
