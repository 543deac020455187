"""The claim rules of ``scripts/bench_pairs.summarise`` on fixed pair lists.

A gain is resolved when there are at least ten pairs, the change wins at
least nine tenths of them and the medians differ by more than the
parent's quartile spread; a loss the same way with the parent winning.
"Worse beyond bound" compares the medians against the metric's bound, a
fraction of the parent's median, and "unresolved" the parent's quartile
spread against that bound.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Median 104.5, quartiles 102.25 and 106.75: a spread of 4.5, under the
# 0.25 bound's 26.125.
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
BOUND = 0.25


def summary(parent, change, lower_is_better=False, bound=BOUND):
    return bench_pairs.summarise("metric", lower_is_better, bound, parent, change)


def flags(s):
    return {k for k in ("gain_resolved", "loss_resolved", "worse_beyond_bound", "unresolved") if s[k]}


class TestGainResolved:
    def test_ten_of_ten_wins_medians_apart(self):
        s = summary(PARENT, [p + 20.0 for p in PARENT])
        assert (s["wins"], s["pairs"]) == (10, 10)
        assert s["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
        assert s["change"]["median"] == 124.5
        assert flags(s) == {"gain_resolved"}

    def test_lower_is_better_gains_downwards(self):
        s = summary(PARENT, [p - 20.0 for p in PARENT], lower_is_better=True)
        assert s["better"] == "lower"
        assert flags(s) == {"gain_resolved"}

    def test_nine_of_ten_wins_is_enough(self):
        change = [p + 20.0 for p in PARENT]
        change[3] = PARENT[3] - 1.0
        s = summary(PARENT, change)
        assert s["wins"] == 9
        assert s["gain_resolved"]

    def test_eight_of_ten_wins_is_not(self):
        change = [p + 20.0 for p in PARENT]
        change[3], change[7] = PARENT[3] - 1.0, PARENT[7] - 1.0
        s = summary(PARENT, change)
        assert s["wins"] == 8
        assert not s["gain_resolved"]

    def test_ties_count_for_neither_side(self):
        change = [p + 20.0 for p in PARENT]
        change[0] = PARENT[0]
        s = summary(PARENT, change)
        assert s["wins"] == 9
        assert s["gain_resolved"]
        change[1] = PARENT[1]
        assert not summary(PARENT, change)["gain_resolved"]

    def test_nine_pairs_are_too_few(self):
        s = summary(PARENT[:9], [p + 20.0 for p in PARENT[:9]])
        assert s["wins"] == s["pairs"] == 9
        assert not s["gain_resolved"]

    def test_medians_inside_the_parents_spread(self):
        # Every pair won, but by 4, under the parent's quartile spread of 4.5.
        s = summary(PARENT, [p + 4.0 for p in PARENT])
        assert s["wins"] == 10
        assert not s["gain_resolved"]
        assert summary(PARENT, [p + 5.0 for p in PARENT])["gain_resolved"]

    def test_the_change_spread_does_not_count(self):
        # Only the parent's quartiles set the distance the medians must clear.
        change = [p + (20.0 if i < 5 else 100.0) for i, p in enumerate(PARENT)]
        s = summary(PARENT, change)
        assert s["change"]["q3"] - s["change"]["q1"] > 20.0
        assert s["gain_resolved"]


class TestLossResolved:
    def test_a_loss_inside_the_bound_resolves(self):
        # 20 worse of a median 104.5 is under the bound's 26.125, yet shows.
        s = summary(PARENT, [p + 20.0 for p in PARENT], lower_is_better=True)
        assert s["wins"] == 0
        assert flags(s) == {"loss_resolved"}

    def test_higher_is_better_loses_downwards(self):
        assert flags(summary(PARENT, [p - 20.0 for p in PARENT])) == {"loss_resolved"}

    def test_eight_of_ten_losses_do_not(self):
        change = [p - 20.0 for p in PARENT]
        change[0], change[5] = PARENT[0] + 1.0, PARENT[5] + 1.0
        s = summary(PARENT, change)
        assert s["wins"] == 2
        assert not s["loss_resolved"]

    def test_nine_pairs_are_too_few(self):
        assert not summary(PARENT[:9], [p - 20.0 for p in PARENT[:9]])["loss_resolved"]


class TestWorseBeyondBound:
    @pytest.mark.parametrize("lower_is_better, sign", ((True, 1.0), (False, -1.0)))
    def test_median_worse_by_more_than_the_bound(self, lower_is_better, sign):
        s = summary(PARENT, [p + sign * 30.0 for p in PARENT], lower_is_better)
        assert s["worse_beyond_bound"]
        assert s["loss_resolved"]

    @pytest.mark.parametrize("lower_is_better, sign", ((True, 1.0), (False, -1.0)))
    def test_median_worse_by_less_than_the_bound(self, lower_is_better, sign):
        assert not summary(PARENT, [p + sign * 26.0 for p in PARENT], lower_is_better)["worse_beyond_bound"]

    def test_it_needs_no_resolution(self):
        # Three pairs, no quartile rule: the medians alone decide.
        s = summary([10.0, 10.0, 10.0], [13.0, 13.0, 13.0], lower_is_better=True)
        assert flags(s) == {"worse_beyond_bound"}

    def test_a_better_median_is_never_worse(self):
        assert not summary(PARENT, [p * 3.0 for p in PARENT])["worse_beyond_bound"]
        assert not summary(PARENT, [p / 3.0 for p in PARENT], lower_is_better=True)["worse_beyond_bound"]


class TestUnresolved:
    def test_a_parent_spread_wider_than_the_bound(self):
        # Quartiles 70 and 130 around a median of 100: a spread of 60,
        # wider than the bound's 25.
        parent = [40.0, 70.0, 70.0, 70.0, 100.0, 100.0, 130.0, 130.0, 130.0, 160.0]
        s = summary(parent, list(parent))
        assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (70.0, 100.0, 130.0)
        assert flags(s) == {"unresolved"}

    def test_a_parent_spread_inside_the_bound(self):
        assert not summary(PARENT, list(PARENT))["unresolved"]
        assert summary(PARENT, list(PARENT), bound=0.04)["unresolved"]  # 4.5 > 0.04 * 104.5

    def test_one_pair_has_no_spread(self):
        s = summary([100.0], [150.0], lower_is_better=True)
        assert s["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
        assert flags(s) == {"worse_beyond_bound"}
