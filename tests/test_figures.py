"""Micro-scale smoke tests of the per-figure experiment functions.

These run each figure's code path on tiny inputs so regressions in the
experiment harness are caught by the fast suite, not only by the (slow)
benchmark run.
"""

import pytest

from repro.core.tmerge import TMerge
from repro.experiments import figures
from repro.experiments.prep import prepare_dataset
from repro.experiments.sweeps import evaluate_merger


@pytest.fixture(scope="module")
def micro_videos():
    return prepare_dataset("kitti", 1, seed=0, n_frames=300)


class TestFigureFunctions:
    def test_fig3_structure(self, micro_videos):
        curves = figures.fig3_rec_k(
            {"kitti": micro_videos}, ks=(0.05, 0.2)
        )
        assert set(curves) == {"kitti"}
        assert [k for k, _ in curves["kitti"]] == [0.05, 0.2]
        for _, rec in curves["kitti"]:
            assert 0.0 <= rec <= 1.0

    def test_fig4_structure(self):
        rows = figures.fig4_runtime_scaling(
            lengths=(200, 400), preset="kitti", window_length=400
        )
        assert len(rows) == 2
        assert rows[0][0] == 200
        assert rows[1][2] > rows[0][2]

    def test_fig6_structure(self, micro_videos):
        results = figures.fig6_batched(
            micro_videos,
            batch_sizes=(5,),
            batch_taus=(50, 100),
            etas=(0.001,),
        )
        assert set(results) == {"BL-B5", "PS-B5", "LCB-B5", "TMerge-B5"}
        assert len(results["TMerge-B5"]) == 2

    def test_fig7_structure(self, micro_videos):
        rows = figures.fig7_tau_sweep(
            micro_videos, taus=(50, 200), batch_size=5
        )
        assert len(rows) == 2
        assert rows[1][1] >= rows[0][1]  # runtime grows

    def test_fig8_structure(self, micro_videos):
        results = figures.fig8_ablation(
            micro_videos, taus=(50, 100), batch_size=5
        )
        assert set(results) == {
            "TMerge",
            "TMerge w/o BetaInit",
            "TMerge w/o ULB",
        }

    def test_fig10_structure(self, micro_videos):
        results = figures.fig10_thr_s(
            micro_videos, thresholds=(None, 150.0), taus=(50,), batch_size=5
        )
        assert set(results) == {"no BetaInit", "thr_S=150"}

    def test_fig11_rows(self):
        rows = figures.fig11_polyonymous_rate(
            preset="kitti", n_videos=1, n_frames=300
        )
        names = [r[0] for r in rows]
        assert names == ["Tracktor", "DeepSORT", "UMA"]
        for _, without, with_tmerge in rows:
            assert 0.0 <= with_tmerge <= without <= 1.0

    def test_fig12_rows(self):
        rows = figures.fig12_identity_metrics(
            preset="kitti", n_videos=1, n_frames=300
        )
        values = {name: (b, a) for name, b, a in rows}
        assert set(values) == {"IDF1", "IDP", "IDR"}
        for before, after in values.values():
            assert 0.0 <= before <= 1.0
            assert 0.0 <= after <= 1.0
            assert after >= before - 1e-9

    def test_fig13_rows(self):
        rows = figures.fig13_query_recall(
            preset="kitti",
            n_videos=1,
            n_frames=300,
            count_min_frames=100,
            cooccur_min_frames=30,
        )
        values = {name: (b, a) for name, b, a in rows}
        assert set(values) == {"Count", "Co-occurrence"}
        for before, after in values.values():
            assert after >= before - 1e-9

    def test_table2_formatting(self, micro_videos):
        from repro.experiments.sweeps import rec_fps_sweep

        sweeps = figures.method_sweeps(taus=(50,), etas=(0.001,))
        unbatched = {
            name: rec_fps_sweep(factories, micro_videos)
            for name, factories in sweeps.items()
        }
        rows = figures.table2_fps(unbatched, {}, rec_targets=(0.5,))
        assert [r[0] for r in rows] == ["BL", "PS", "LCB", "TMerge"]
        assert all(len(r) == 2 for r in rows)


def assert_unsampled(videos):
    """No pair of ``videos`` carries sampling state."""
    assert all(
        pair.n_sampled == 0
        for video in videos
        for pairs in video.window_pairs
        for pair in pairs
    )


class TestSharedVideosStayUnsampled:
    """Figure code merges on copies of a prepared video's pairs, as the
    window runner does, so consumers sharing a video need no reset.  The
    pinned rows were produced by the earlier code, which merged on the
    video's own pairs after a ``reset_sampling``."""

    def test_identify_and_confirm(self, micro_videos):
        def factory():
            return TMerge(k=0.1, tau_max=200, batch_size=10, seed=3)

        first = figures._identify_and_confirm(micro_videos[0], factory)
        assert_unsampled(micro_videos)
        assert figures._identify_and_confirm(micro_videos[0], factory) == first
        assert sorted(first) == [
            (0, 13), (2, 8), (4, 9), (4, 12), (6, 11), (17, 19), (18, 20),
        ]

    def test_evaluate_merger(self, micro_videos):
        point = evaluate_merger(
            lambda: TMerge(k=0.1, tau_max=100, seed=3), micro_videos
        )
        assert_unsampled(micro_videos)
        assert (point.rec, point.reid_invocations, point.fps) == (
            0.5, 158, 378.11948575749955,
        )

    def test_fig9_rows(self, monkeypatch):
        from repro.experiments import prep

        seen = []
        rewindow = prep.rewindow

        def spy(video, length):
            seen.append(rewindow(video, length))
            return seen[-1]

        monkeypatch.setattr(prep, "rewindow", spy)
        rows = figures.fig9_window_length(
            preset="kitti", lengths=(150, 300), n_videos=1, n_frames=300,
            draws_per_pair=20, batch_size=10,
        )
        assert len(seen) == 2
        assert_unsampled(seen)
        assert rows == [(150, 0.8, 0.6), (300, 0.8, 0.8)]
