import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyzero.harness as harness
from polyzero.bounds import BoundEntry
from polyzero.harness import (
    INAPPLICABLE,
    INDETERMINATE,
    PASS,
    VIOLATION,
    SweepConfig,
    ToleranceConfig,
    _disk_stage,
    _entry,
    _gear_stage,
    _upper_entry,
    certify,
    json_text,
    report_json,
    stratified_center_angles,
    sweep,
)
from polyzero.norms import Interval, compute_profile
from polyzero.poly import FamilySpec, Polynomial, make_family, power_minus_one
from polyzero.roots import unit_roots_rootset

SMALL_CFG = SweepConfig(
    family="littlewood",
    degrees=(12, 16),
    trials=3,
    seed=7,
    disk_centers=48,
)


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(SMALL_CFG)


class TestCertify:
    def test_unit_roots_all_applicable_pass(self):
        n = 128
        p = power_minus_one(n)
        rep = certify(p, SMALL_CFG, roots=unit_roots_rootset(n), descriptor={"family": "unit"})
        assert not rep.hard_violations()
        verdicts = rep.verdicts
        assert verdicts["ShuWang"] == PASS
        # Interior coefficients vanish, so the unimodular-class entry is out.
        assert verdicts["CorollaryKn"] == INAPPLICABLE
        assert verdicts["Lem2_tau_outside[p=2,rho=0.5]"] == PASS
        assert rep.observed["angular_discrepancy"] == pytest.approx(1.0 / n, abs=1e-12)

    def test_unimodular_corollary_passes(self):
        p = make_family(FamilySpec("unimodular", 24, seed=9))
        rep = certify(p, SMALL_CFG)
        assert rep.verdicts["CorollaryKn"] == PASS
        assert not rep.hard_violations()

    def test_unit_roots_4096_all_applicable_pass(self):
        # Analytic roots, every applicable verdict must hold, including the
        # now-applicable disk and gear entries.
        n = 4096
        cfg = SweepConfig(
            degrees=(n,), trials=1, seed=2, disk_centers=180,
            tolerances=ToleranceConfig(sup_tol=1e-4),
        )
        rep = certify(power_minus_one(n), cfg, roots=unit_roots_rootset(n))
        assert not rep.hard_violations()
        verdicts = rep.verdicts
        assert verdicts["Thm2_disk[theta=1]"] == PASS
        # 4096 sits below the 6170 applicability threshold of the theta=1
        # unimodular-ends radius, while theta=1/2 already applies.
        assert verdicts["Thm3_disk[theta=1]"] == INAPPLICABLE
        assert verdicts["Thm3_disk[theta=0.5]"] == PASS
        assert verdicts["GearUpper_exact[variant=sup_7,theta=1,delta=0]"] == PASS
        assert not any(v == VIOLATION for v in verdicts.values())

    def test_rudin_shapiro_p10_certifies(self):
        from polyzero.poly import rudin_shapiro_pair

        p10, _ = rudin_shapiro_pair(10)
        cfg = SweepConfig(
            degrees=(1023,), trials=1, seed=4, disk_centers=90,
            p_list=(2.0,), theta_list=(1.0,), rho_list=(0.5,), gear_deltas=(0.0,),
            tolerances=ToleranceConfig(sup_tol=1e-5),
        )
        rep = certify(p10, cfg, descriptor={"family": "rudin_shapiro_P"})
        assert rep.verdicts["ShuWang"] == PASS
        assert rep.verdicts["PropThm0_p[p=2]"] == PASS
        enc = rep.profile["e_measure"]
        assert enc[0] <= enc[1] <= 0.01  # tiny |E|, near the 2^-(k+1) scale
        assert not rep.hard_violations()

    def test_record_disk_counts_flag(self):
        n = 4096
        cfg = SweepConfig(
            degrees=(n,), trials=1, seed=2, disk_centers=32, record_disk_counts=True,
            theta_list=(1.0,), p_list=(2.0,), rho_list=(0.5,), gear_deltas=(0.0,),
            tolerances=ToleranceConfig(sup_tol=1e-4),
        )
        rep = certify(power_minus_one(n), cfg, roots=unit_roots_rootset(n))
        disk = rep.observed["disks"]["Thm2_disk[theta=1]"]
        assert len(disk["open_counts"]) == 32
        assert min(disk["open_counts"]) == disk["min_open_count"]

    def test_degree_zero_norm_only(self):
        rep = certify(Polynomial((2.5,)), SMALL_CFG)
        assert rep.entries
        assert all(e.verdict == INAPPLICABLE for e in rep.entries)
        assert rep.profile["mahler"] == pytest.approx(2.5)

    def test_root_failure_partial_report(self):
        cfg = SweepConfig(
            degrees=(8,), trials=1, seed=1,
            tolerances=ToleranceConfig(root_tol=1e-300),
        )
        # The steps stall with residuals near 1e-16; (z-1)^8 would not do,
        # since its iterates reach z = 1 exactly, where P is 0.
        p = make_family(FamilySpec("littlewood", 8, seed=1))
        rep = certify(p, cfg)
        assert rep.root_failure
        assert all(e.verdict == INAPPLICABLE for e in rep.entries)
        assert rep.profile["p_norms"]  # norms still present

    @pytest.mark.parametrize("supplied", [False, True])
    def test_disk_violation_reruns_solver_only_for_supplied_roots(self, monkeypatch, supplied):
        # Solver roots do not depend on the tolerance, so a rerun at a tenth
        # of it would repeat the same iterate; only supplied roots get one.
        calls = []
        real_find, real_check = harness.find_roots, harness._disk_check

        def counting_find(*args, **kwargs):
            calls.append(kwargs.get("tol"))
            return real_find(*args, **kwargs)

        def violating_check(*args, **kwargs):
            entry, obs = real_check(*args, **kwargs)
            return dataclasses.replace(entry, verdict=VIOLATION), obs

        monkeypatch.setattr(harness, "find_roots", counting_find)
        monkeypatch.setattr(harness, "_disk_check", violating_check)
        n = 128  # the smallest power of two at which every Thm2 disk entry applies
        cfg = SweepConfig(
            degrees=(n,), trials=1, seed=2, disk_centers=16,
            p_list=(2.0,), theta_list=(0.5, 1.0), rho_list=(0.5,), gear_deltas=(0.0,),
        )
        rep = certify(power_minus_one(n), cfg, roots=unit_roots_rootset(n) if supplied else None)
        root_tol = cfg.tolerances.root_tol
        assert calls == [root_tol / 10 if supplied else root_tol]
        assert sum(e.verdict == VIOLATION for e in rep.entries) == 4

    def test_report_json_shape(self):
        p = make_family(FamilySpec("littlewood", 12, seed=3))
        rep = certify(p, SMALL_CFG, descriptor={"family": "littlewood", "seed": 3})
        payload = json.loads(report_json(rep))
        assert payload["schema"] == "polyzero-report/1"
        assert "timing" in payload
        assert payload["profile"]["e_measure"][0] <= payload["profile"]["e_measure"][1]
        without = json.loads(report_json(rep, include_timing=False))
        assert "timing" not in without

    def test_margins_carry_both_sides(self):
        p = make_family(FamilySpec("unimodular", 16, seed=5))
        rep = certify(p, SMALL_CFG)
        sw = next(e for e in rep.entries if e.bound_id == "ShuWang")
        assert sw.margin_conservative <= sw.margin_favorable
        assert sw.bound <= sw.bound_favorable


class TestCenterSampling:
    def test_stratified_layout(self):
        angles = stratified_center_angles(720, seed=3)
        assert len(angles) == 720
        slots = np.floor(angles / (2 * math.pi / 720)).astype(int)
        assert np.array_equal(slots, np.arange(720))

    def test_deterministic_in_seed_and_salt(self):
        a = stratified_center_angles(64, seed=3, salt=1)
        b = stratified_center_angles(64, seed=3, salt=1)
        c = stratified_center_angles(64, seed=3, salt=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSweep:
    def test_no_hard_violations(self, small_sweep):
        assert small_sweep.hard_violation_count == 0
        assert not small_sweep.failed

    def test_shape(self, small_sweep):
        assert len(small_sweep.reports) == 6  # 2 degrees x 3 trials
        agg = small_sweep.aggregates
        assert "ShuWang" in agg["per_bound"]
        assert agg["per_bound"]["ShuWang"]["violation"] == 0
        assert set(agg["e_measure_by_degree"]) == {"12", "16"}

    def test_ratio_aggregate_in_unit_interval(self, small_sweep):
        ratio = small_sweep.aggregates["per_bound"]["ShuWang"]["max_ratio"]
        assert 0.0 < ratio <= 1.0

    def test_csv_deterministic(self, small_sweep):
        again = sweep(SMALL_CFG)
        assert small_sweep.to_csv() == again.to_csv()
        assert small_sweep.to_json() == again.to_json()

    def test_json_same_as_with_deep_copied_entries(self, small_sweep, monkeypatch):
        got = small_sweep.to_json()
        monkeypatch.setattr(harness.VerdictEntry, "to_dict", dataclasses.asdict)
        assert got == small_sweep.to_json()

    def test_json_peak_is_a_small_multiple_of_its_bytes(self, small_sweep):
        # The writer holds one string per container of scalars, and copies
        # only a container it must convert.  A deep copy of the payload fed
        # to the pure-Python indenting encoder peaked at about 7.2x.
        small_sweep.to_json()  # encoders and caches built
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            text = small_sweep.to_json()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)

    def test_csv_header(self, small_sweep):
        header = small_sweep.to_csv().splitlines()[0]
        assert header == (
            "family,degree,seed,bound_id,observed,bound,"
            "margin_conservative,margin_favorable,verdict"
        )

    def test_monotone_slack_on_tolerance_tightening(self):
        loose = SweepConfig(
            family="littlewood", degrees=(12,), trials=2, seed=5, disk_centers=32,
            tolerances=ToleranceConfig(quad_tol=1e-7, sup_tol=1e-4),
        )
        tight = SweepConfig(
            family="littlewood", degrees=(12,), trials=2, seed=5, disk_centers=32,
            tolerances=ToleranceConfig(quad_tol=1e-8, sup_tol=1e-5),
        )
        before = {
            (r.descriptor["trial"], e.bound_id): e.verdict
            for r in sweep(loose).reports
            for e in r.entries
        }
        after = {
            (r.descriptor["trial"], e.bound_id): e.verdict
            for r in sweep(tight).reports
            for e in r.entries
        }
        for key, verdict in before.items():
            if verdict == PASS:
                assert after[key] == PASS, key

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            SweepConfig(trials=0)


class TestVerdict:
    @pytest.mark.parametrize(
        "margin_c, margin_f, tangency, expected",
        [
            (0.5, 1.0, False, PASS),
            (0.0, 0.0, False, PASS),
            (-0.5, 1.0, False, INDETERMINATE),
            (-0.5, 0.0, False, INDETERMINATE),
            (-1.0, -0.5, False, VIOLATION),
            # Tangency downgrades a PASS, and only a PASS.
            (0.5, 1.0, True, INDETERMINATE),
            (-0.5, 1.0, True, INDETERMINATE),
            (-1.0, -0.5, True, VIOLATION),
        ],
    )
    def test_ladder(self, margin_c, margin_f, tangency, expected):
        entry = _entry("Thm2_disk_p[p=2,theta=1]", "lower", 3.0, 2.0, 1.0, margin_c, margin_f, tangency)
        assert entry.verdict == expected

    @pytest.mark.parametrize(
        "bound_id, kind, applicable, value, tangency, expected",
        [
            ("ShuWang", "upper", True, 0.2, False, VIOLATION),
            ("ShuWang", "upper", False, 0.2, False, INAPPLICABLE),
            # Report-kind entries are margin-only: never a VIOLATION.
            ("CorollaryKnErf", "report", True, 0.2, False, INDETERMINATE),
            ("CorollaryKnErf", "report", True, 0.9, False, PASS),
            # The downgrade applies to |E|-dependent bounds only.
            ("Lem2_annular[p=2,rho=0.5]", "upper", True, 0.9, True, INDETERMINATE),
            ("ShuWang", "upper", True, 0.9, True, PASS),
            ("Thm4_annular_p[p=2,rho=0.5]", "report", True, 0.9, True, INDETERMINATE),
            # INAPPLICABLE wins over any margins.
            ("Lem2_annular[p=2,rho=0.5]", "upper", False, 0.9, True, INAPPLICABLE),
            ("CorollaryKnErf", "report", False, 0.2, False, INAPPLICABLE),
            # A report entry with both margins negative stays INDETERMINATE.
            ("Thm4_annular_Gn[p=2,rho=0.5]", "report", True, 0.2, True, INDETERMINATE),
            # Of the gear entries only the p_9 exact form reads |E|.
            ("GearUpper_exact[variant=p_9,p=2,theta=1,delta=0]", "upper", True, 0.9, True, INDETERMINATE),
            ("GearUpper_exact[variant=sup_7,theta=1,delta=0]", "upper", True, 0.9, True, PASS),
            ("GearUpper_closed[variant=p_9,p=2,theta=1,delta=0]", "upper", True, 0.9, True, PASS),
        ],
    )
    def test_upper_entry(self, bound_id, kind, applicable, value, tangency, expected):
        margins = (value - 0.5, value + 0.1 - 0.5)
        entry = _entry(bound_id, kind, 0.5, value, value + 0.1, *margins, tangency, applicable=applicable)
        assert entry.verdict == expected
        # _upper_entry is the same rule on a BoundEntry.
        assert _upper_entry(BoundEntry(bound_id, value, value + 0.1, applicable, kind=kind), 0.5, tangency) == entry

    def test_closed_gear_check_has_no_tangency_downgrade(self):
        n = 512
        roots = unit_roots_rootset(n)
        cfg = SweepConfig(
            p_list=(2.0,), theta_list=(1.0,), gear_deltas=(0.0,),
            tolerances=ToleranceConfig(sup_tol=1e-4),
        )
        profile = compute_profile(
            power_minus_one(n), roots=roots, p_list=cfg.p_list,
            tols=cfg.tolerances.profile_tolerances(),
        )
        tangent = dataclasses.replace(profile, e_tangency=True)
        _, disks = _disk_stage(power_minus_one(n), roots, True, tangent, cfg, False, 0, {})
        verdicts = {e.bound_id: e.verdict for e in _gear_stage(roots, tangent, cfg, disks, {})}
        tag = "[variant=p_9,p=2,theta=1,delta=0]"
        assert verdicts[f"GearUpper_exact{tag}"] == INDETERMINATE
        assert verdicts[f"GearUpper_closed{tag}"] == PASS
        assert verdicts["GearUpper_exact[variant=sup_7,theta=1,delta=0]"] == PASS

    @pytest.mark.parametrize("family, n", [("power_minus_one", 600), ("unimodular", 64)])
    def test_tangency_downgrades_exactly_the_entries_that_read_e(self, monkeypatch, family, n):
        if family == "power_minus_one":
            poly, roots = power_minus_one(n), unit_roots_rootset(n)
        else:
            poly, roots = make_family(FamilySpec(family, n, seed=1)), None
        plain = certify(poly, roots=roots)
        real = harness.compute_profile
        monkeypatch.setattr(
            harness, "compute_profile", lambda *a, **k: dataclasses.replace(real(*a, **k), e_tangency=True)
        )
        tangent = certify(poly, roots=roots)
        reads_e = (
            "PropThm0_p[", "Lem2_tau_outside[", "Lem2_annular[", "Thm4_annular_p[",
            "Thm4_annular_Gn[", "Thm2_disk_p[", "GearUpper_exact[variant=p_9,",
        )
        downgraded = set()
        for before, after in zip(plain.entries, tangent.entries, strict=True):
            assert before.bound_id == after.bound_id
            if before.verdict == PASS and after.verdict == INDETERMINATE:
                downgraded.add(before.bound_id)
            else:
                assert after.verdict == before.verdict, before.bound_id
        passed = {e.bound_id for e in plain.entries if e.verdict == PASS}
        assert downgraded == {b for b in passed if b == "CorollaryKn" or b.startswith(reads_e)}
        assert downgraded and downgraded != passed

    @pytest.mark.parametrize("n, seed", [(64, 0), (1024, 1)])
    def test_tangency_keeps_the_erf_corollary(self, monkeypatch, n, seed):
        # CorollaryKnErf's erf term reads no |E|, though its id extends CorollaryKn's.
        poly = make_family(FamilySpec("littlewood", n, seed=seed))
        real = harness.compute_profile
        monkeypatch.setattr(
            harness, "compute_profile", lambda *a, **k: dataclasses.replace(real(*a, **k), e_tangency=True)
        )
        verdicts = certify(poly).verdicts
        assert verdicts["CorollaryKnErf"] == PASS
        assert verdicts["CorollaryKn"] == INDETERMINATE

    def test_p9_gear_inapplicable_where_its_disk_bound_is(self):
        n = 600
        poly, roots = power_minus_one(n), unit_roots_rootset(n)
        cfg = SweepConfig()
        profile = compute_profile(poly, roots=roots, p_list=cfg.p_list, tols=cfg.tolerances.profile_tolerances())
        # Lower ends of the p-norms below 1: ||P||_p >= 1 is no longer certified.
        low = dataclasses.replace(profile, p_norms={p: Interval(0.5, v.hi) for p, v in profile.p_norms.items()})
        assert not any(low.pnorm_at_least_one(p) for p in cfg.p_list)
        for prof, p9_applies in ((profile, True), (low, False)):
            observed = {}
            _, disks = _disk_stage(poly, roots, True, prof, cfg, False, 0, observed)
            entries = {e.bound_id: e for e in _gear_stage(roots, prof, cfg, disks, observed)}
            for theta in cfg.theta_list:
                for p in cfg.p_list:
                    _, cons, fav = disks[theta, "p_9", p]
                    assert (cons.applicable and fav.applicable) == p9_applies
                    for delta in cfg.gear_deltas:
                        tag = f"[variant=p_9,p={p:g},theta={theta:g},delta={delta:g}]"
                        exact = entries[f"GearUpper_exact{tag}"]
                        if p9_applies:
                            assert exact.verdict == PASS
                        else:
                            assert exact.verdict == INAPPLICABLE
                            assert exact.notes == "radius > 1/2 or hypotheses fail"
                            assert f"GearUpper_closed{tag}" not in entries
            sup7 = [e for e in entries.values() if e.bound_id.startswith("GearUpper_exact[variant=sup_7")]
            assert sup7 and all(e.verdict == PASS for e in sup7)


def _json_safe(obj):
    """The report conversion the writer replaced, kept here as its oracle."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _oracle(obj):
    try:
        return json.dumps(_json_safe(obj), sort_keys=True, indent=1)
    except TypeError:
        return TypeError


def _written(obj):
    try:
        return json_text(obj)
    except TypeError:
        return TypeError


# Scalars that need a conversion or an escape, or that the report format refuses.
_SPECIAL_LEAVES = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 2**64, True, None,
    np.float32(0.1), np.float32(math.nan), np.float32(-math.inf), np.float64(math.nan),
    np.float64(math.inf), np.float64(-0.0), np.int64(-(2**63)), np.int64(7),
    "", "é∞ Bp\u221e", 'q"uote \\ back\nline\ttab\x01', "\ud800", "\U0001f600",
]

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(_SPECIAL_LEAVES),
    st.text(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 12), st.sampled_from(["inf", "é", 'a"b', "1"]))


def _trees(depth: int):
    if depth == 0:
        return _LEAVES
    sub = _trees(depth - 1)
    return st.one_of(
        _LEAVES,
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.dictionaries(_KEYS, sub, max_size=4),
    )


def _nestings(leaf):
    """``leaf`` alone, in flat containers, and in nested ones with empty siblings."""
    return [
        leaf,
        [leaf],
        (leaf, 1.5, "s"),
        {"k": leaf, 3: leaf, "a": None},
        {"a": [leaf, {"b": leaf, "e": {}}], "c": (leaf, []), 2: {"d": [[leaf], ()]}},
        [[[[[[leaf]]]]], {"x": {"y": {"z": {"w": {"v": leaf}}}}}],
    ]


class TestJsonText:
    """``json_text`` writes the bytes of the old deep copy plus ``json.dumps(indent=1)``."""

    @pytest.mark.parametrize("leaf", _SPECIAL_LEAVES, ids=repr)
    def test_special_scalars_flat_and_nested(self, leaf):
        for obj in _nestings(leaf):
            assert _written(obj) == _oracle(obj) != TypeError

    @pytest.mark.parametrize("bad", [np.bool_(True), object(), {1, 2}, np.longdouble(1.0), 1j])
    def test_unsupported_types_raise(self, bad):
        for obj in _nestings(bad):
            with pytest.raises(TypeError):
                json_text(obj)
            assert _oracle(obj) is TypeError

    def test_colliding_and_non_str_keys(self):
        for obj in ({1: "a", "1": "b"}, {"1": "b", 1: "a"}, {True: 1, None: [2], 1.5: {}}, {-1: {0: [np.int64(3)]}}):
            assert json_text(obj) == _oracle(obj)

    def test_reports(self, small_sweep):
        report = small_sweep.reports[0]
        assert report_json(report) == _oracle(report.to_dict())
        payload = {
            "schema": "polyzero-sweep/1",
            "config": dataclasses.asdict(small_sweep.config),
            "aggregates": small_sweep.aggregates,
            "hard_violation_count": small_sweep.hard_violation_count,
            "reports": [r.to_dict(include_timing=False) for r in small_sweep.reports],
        }
        assert small_sweep.to_json() == _oracle(payload)

    @settings(max_examples=300, derandomize=True)
    @given(_trees(6))
    @example({"a": [math.nan, {"b": np.float32(math.inf)}], 1: ()})
    def test_matches_oracle(self, obj):
        assert _written(obj) == _oracle(obj)


class TestCertifyMemory:
    """``certify``'s traced peak at the ``certify`` benchmark's degrees: the
    profile streams its grids in bounded batches, so the peak stays near
    that of one batch of the level classifier and of the m+ pass."""

    @pytest.mark.parametrize("n, limit_mib", [(256, 0.55), (512, 0.90)])
    @pytest.mark.parametrize("family", ["littlewood", "unimodular", "g_class"])
    def test_traced_peak(self, family, n, limit_mib):
        p = make_family(FamilySpec(family, n, seed=1))
        certify(make_family(FamilySpec("littlewood", 32, seed=0)))  # caches built outside the trace
        tracemalloc.start()
        try:
            certify(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20
