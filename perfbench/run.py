"""polyzero benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``sweep``   -- ``harness.sweep`` over littlewood / unimodular / g_class at
  degrees 16..256 with the default ``SweepConfig``, then ``to_json``/``to_csv``.
* ``certify`` -- single ``harness.certify`` calls, solver on, default
  tolerances, at n = 256 and n = 512 (one request = one call at each degree
  on the same family and seed).
* ``zeros``   -- large-degree zero statistics: ``find_roots`` at n = 2048, the
  loose sup enclosure of acceptance criterion 7, angular and annular
  discrepancy, disk counts at 720 stratified centers, gear counts.

A request is one step of the closed loop: one ``sweep`` call (five
instances), one ``certify`` pair, or one ``zeros`` instance.

``--trace 0`` measures the end-to-end metrics with nothing patched.  Their
times are in units of a reference kernel run between requests (see
``Reference``); the same figures in seconds are in the report lines.
``--trace 1`` wraps every public polyzero function (see ``tracer.py``), runs
the loop for half the time, and reports per-layer metrics and the tracing
overhead (the cost of one wrapper call, timed on a no-op, times the spans).
Every run checks its outputs; the last stdout line is the JSON result, and a
failed check exits 1.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# One thread everywhere, before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("POLYZERO_THREADS", None)

from tracer import Tracer, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FAMILIES = ("littlewood", "unimodular", "g_class")
# Library failures a call may end in; anything else is a benchmark bug and propagates.
FAILURE_TYPES = ("QuadratureError", "RootFindingError", "ValueError")
VERDICTS = ("pass", "indeterminate", "violation", "inapplicable")
SETUP_REPEATS = 11
# Acceptance criterion 7's loose settings for large-degree zero statistics.
ZEROS_ROOT_TOL = 1e-8
ZEROS_SUP_TOL = 1e-3
ZEROS_SUP_POINTS = 2**22
MAHLER_AGREEMENT = 1e-6
# Reference-kernel time in a loop, as a share of the time its requests took.
REF_SHARE = 0.05
# setup_s is rescaled to a host on which one reference-kernel call takes this
# long, about the speed of the 2-vCPU VM the benchmark was built on.
REF_NOMINAL_S = 0.125


@dataclass(frozen=True)
class Sizes:
    sweep_degrees: tuple[int, ...] = (16, 32, 64, 128, 256)
    certify_degrees: tuple[int, ...] = (256, 512)
    probe_degree: int = 1024  # certify fails here today; traced runs count it
    zeros_degree: int = 2048  # 4096 gives ~3 requests per run, too few for a steady median
    zeros_families: tuple[str, ...] = ("g_class", "littlewood")
    disk_centers: int = 720
    # Byte-identity sweep: small so that three repeats stay cheap.
    repro_degrees: tuple[int, ...] = (16, 32)
    repro_trials: int = 2


FULL = Sizes()


def instance_seed(seed: int, k: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + k * 0xBF58476D1CE4E5B9 + 1) & 0x7FFFFFFFFFFFFFFF


@dataclass
class Item:
    """Outcome of one loop step: one or more library calls on generated inputs."""

    key: int
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    request_s: float | None = None  # latency of the whole item, if every call succeeded
    wall_s: float = 0.0  # time of the whole item, failed calls included
    instance_s: list[float] = field(default_factory=list)  # per-instance latencies of successful calls
    by_degree: dict[int, list[float]] = field(default_factory=dict)
    verdicts: Counter = field(default_factory=Counter)
    level_set_evaluations: int = 0
    hard_violations: int = 0
    screen_mismatch: bool = False  # sweep: reports not on the screened inputs
    payload: object = None  # kept only for items the checks look at

    def fail(self, exc: Exception, calls: int = 1):
        self.attempted += calls
        self.failures[type(exc).__name__] += calls

    def add_report(self, report):
        self.verdicts.update(e.verdict.lower() for e in report.entries)
        self.level_set_evaluations += int(report.profile["quad_points"].get("level_set", 0))
        self.hard_violations += len(report.hard_violations())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # Items always run, whatever the clock says; their outputs are checked and
    # their counts (verdicts, level-set evaluations) repeat exactly per seed.
    prefix = 1

    def __init__(self, pz, seed: int, sizes: Sizes):
        self.pz = pz
        self.seed = seed
        self.sizes = sizes
        self.errors = (pz.QuadratureError, pz.RootFindingError, ValueError)
        # Bound before any tracing, so the screen's calls are never traced.
        self._make_family = pz.poly.make_family
        self._p_norm = pz.norms.p_norm
        self.screened = 0
        self.capped: list[tuple[int, str, int, int]] = []  # (key, family, degree, seed)

    def inputs(self, k: int) -> list[tuple[str, int, int]]:
        """(family, degree, seed) of every polynomial that item ``k`` certifies."""
        return []

    def screen(self, k: int) -> bool:
        """False if a p-norm of item ``k``'s certify profile hits its grid cap.

        ``p_norm(p=1)`` raises ``QuadratureError`` at the grid cap on a few
        percent of the inputs at n = 512 (and rarely at n = 256): a known
        robustness defect.  Such an input is not timed; it is counted here,
        and the per-layer ``norms.p_norm.cap_rate`` and the report lines show
        how many were met.  The screen uses certify's default tolerances and
        runs untimed and untraced.
        """
        cfg = self.pz.harness.SweepConfig()
        tols = cfg.tolerances.profile_tolerances()
        ok = True
        for family, degree, seed in self.inputs(k):
            self.screened += 1
            poly = self._make_family(self.pz.poly.FamilySpec(family, degree, seed=seed))
            try:
                for exponent in cfg.p_list:
                    self._p_norm(poly, float(exponent), tol=tols.quad_tol, max_points=tols.max_points)
            except self.pz.QuadratureError:
                self.capped.append((k, family, degree, seed))
                ok = False
        return ok

    def run_item(self, k: int, keep: bool) -> Item:
        raise NotImplementedError

    def checks(self, items: list[Item]) -> list[str]:
        return []

    def table(self, items: list[Item]) -> list[tuple[str, float, str, int | None]]:
        return []


class SweepWorkload(Workload):
    name = "sweep"
    prefix = len(FAMILIES)

    def config(self, family: str, seed: int, **kw):
        return self.pz.harness.SweepConfig(family=family, seed=seed, **kw)

    def inputs(self, k):
        # harness.sweep seeds instance (degree, trial 0) with _instance_seed;
        # run_item checks that the reports carry these seeds.
        family, seed = FAMILIES[k % len(FAMILIES)], instance_seed(self.seed, k)
        return [(family, d, self.pz.harness._instance_seed(seed, d, 0)) for d in self.sizes.sweep_degrees]

    def run_item(self, k: int, keep: bool) -> Item:
        item = Item(k)
        degrees = self.sizes.sweep_degrees
        cfg = self.config(FAMILIES[k % len(FAMILIES)], instance_seed(self.seed, k), degrees=degrees, trials=1)
        t0 = time.perf_counter()
        try:
            result = self.pz.harness.sweep(cfg)
            text = result.to_json()
            result.to_csv()
        except self.errors as exc:
            item.fail(exc, len(degrees))
            return item
        item.request_s = time.perf_counter() - t0
        item.attempted += len(result.reports)
        item.screen_mismatch = [r.descriptor["seed"] for r in result.reports] != [s for _, _, s in self.inputs(k)]
        for report in result.reports:
            item.instance_s.append(report.runtime_seconds)
            item.by_degree.setdefault(report.descriptor["degree"], []).append(report.runtime_seconds)
            item.add_report(report)
        if keep:
            item.payload = text
        return item

    def checks(self, items):
        out = []
        hard = sum(i.hard_violations for i in items)
        if hard:
            out.append(f"sweep: {hard} hard VIOLATION entries")
        if any(i.screen_mismatch for i in items):
            out.append("sweep: the reports' instance seeds differ from the screened ones")
        out.extend(self.reproducibility())
        return out

    def reproducibility(self) -> list[str]:
        """Same small sweep: twice in process, then with POLYZERO_THREADS 1 and 2."""
        cfg = self.config(
            "unimodular", instance_seed(self.seed, -1),
            degrees=self.sizes.repro_degrees, trials=self.sizes.repro_trials, disk_centers=64,
        )
        outputs = {}
        try:
            for label, threads in (("run1", None), ("run2", None), ("threads1", "1"), ("threads2", "2")):
                if threads is None:
                    os.environ.pop("POLYZERO_THREADS", None)
                else:
                    os.environ["POLYZERO_THREADS"] = threads
                result = self.pz.harness.sweep(cfg)
                outputs[label] = (result.to_json(), result.to_csv())
        finally:
            os.environ.pop("POLYZERO_THREADS", None)
        return [
            f"sweep: {label} JSON/CSV bytes differ from run1"
            for label, out in outputs.items()
            if out != outputs["run1"]
        ]

    def table(self, items):
        rows = []
        samples = [t for i in items for t in i.instance_s]
        if samples:
            rows.append(("instance_s.p50", statistics.median(samples), "s", len(samples)))
            rows.append(("instance_s.p90", statistics.quantiles(samples, n=10, method="inclusive")[-1], "s", len(samples)))
        for deg in self.sizes.sweep_degrees:
            vals = [t for i in items for t in i.by_degree.get(deg, [])]
            if vals:
                rows.append((f"instance_s.n{deg}.p50", statistics.median(vals), "s", len(vals)))
        prefix_json = "".join(i.payload for i in items[: self.prefix] if i.payload)
        rows.append(("sweep_json.sha256", hashlib.sha256(prefix_json.encode()).hexdigest()[:16], "info", None))
        return rows


class CertifyWorkload(Workload):
    name = "certify"
    prefix = len(FAMILIES)

    def certify_one(self, item: Item, family: str, degree: int, seed: int, keep: bool):
        """One `analyze`-path call: generate, certify; returns its latency or None."""
        t0 = time.perf_counter()
        try:
            poly = self.pz.poly.make_family(self.pz.poly.FamilySpec(family, degree, seed=seed))
            report = self.pz.harness.certify(poly)
        except self.errors as exc:
            item.fail(exc)
            return None
        dt = time.perf_counter() - t0
        item.attempted += 1
        item.instance_s.append(dt)
        item.by_degree.setdefault(degree, []).append(dt)
        item.add_report(report)
        if keep:
            item.payload = (item.payload or []) + [(poly, report)]
        return dt

    def inputs(self, k):
        return [(FAMILIES[k % len(FAMILIES)], n, instance_seed(self.seed, k)) for n in self.sizes.certify_degrees]

    def run_item(self, k: int, keep: bool) -> Item:
        item = Item(k)
        times = [self.certify_one(item, family, n, seed, keep) for family, n, seed in self.inputs(k)]
        if None not in times:
            item.request_s = sum(times)
        return item

    def probe(self, k0: int) -> Item:
        """Certify at the probe degree once per family (counted apart from the loop)."""
        item = Item(k0)
        for j, family in enumerate(FAMILIES):
            self.certify_one(item, family, self.sizes.probe_degree, instance_seed(self.seed, k0 + j), False)
        return item

    def checks(self, items):
        out = []
        hard = sum(i.hard_violations for i in items)
        if hard:
            out.append(f"certify: {hard} hard VIOLATION entries")
        # README: root-product and quadrature Mahler measures agree to 1e-6 relative.
        for item in items[: self.prefix]:
            for poly, report in item.payload or []:
                ref = report.profile["mahler"]
                quad, _ = self.pz.norms.mahler(poly, method="quadrature")
                if not abs(quad - ref) <= MAHLER_AGREEMENT * abs(ref):
                    out.append(f"certify: {poly.label} Mahler root product {ref!r} vs quadrature {quad!r}")
        return out

    def table(self, items):
        rows = []
        for deg in self.sizes.certify_degrees:
            vals = [t for i in items for t in i.by_degree.get(deg, [])]
            if vals:
                rows.append((f"latency_s.n{deg}", statistics.median(vals), "s", len(vals)))
        return rows


class ZerosWorkload(Workload):
    name = "zeros"

    def __init__(self, pz, seed, sizes):
        super().__init__(pz, seed, sizes)
        self.prefix = len(sizes.zeros_families)

    def run_item(self, k: int, keep: bool) -> Item:
        pz = self.pz
        n = self.sizes.zeros_degree
        family = self.sizes.zeros_families[k % len(self.sizes.zeros_families)]
        seed = instance_seed(self.seed, k)
        item = Item(k)
        t0 = time.perf_counter()
        try:
            poly = pz.poly.make_family(pz.poly.FamilySpec(family, n, seed=seed))
            roots = pz.roots.find_roots(poly, tol=ZEROS_ROOT_TOL)
            sup = pz.norms.sup_norm_enclosure(poly, tol=ZEROS_SUP_TOL, max_points=ZEROS_SUP_POINTS)
            stats = self.statistics(poly, roots, sup, seed)
        except self.errors as exc:
            item.fail(exc)
            return item
        item.request_s = time.perf_counter() - t0
        item.instance_s.append(item.request_s)
        item.attempted += 1
        item.payload = stats
        return item

    def statistics(self, poly, roots, sup, seed) -> dict:
        pz = self.pz
        n = poly.degree
        half_log = 0.5 * math.log(abs(poly.coeffs[0] * poly.coeffs[-1]))
        b_lo, b_hi = math.log(sup.lo) - half_log, math.log(sup.hi) - half_log
        stats = {
            "roots": len(roots),
            "angular": pz.zerostats.angular_discrepancy(roots),
            "annular": [
                pz.zerostats.annular_discrepancy(roots, rho, pz.zerostats.SectorSpec(a, b)).discrepancy
                for rho in (0.5, 0.9)
                for a, b in pz.harness.SweepConfig().arcs
            ],
            "verdicts": Counter(),
        }
        centers = pz.harness.stratified_center_angles(self.sizes.disk_centers, seed)
        gn = pz.poly.is_g_class(poly)

        def min_open_count(radius):
            return min(
                pz.zerostats.region_count(roots, pz.geometry.DiskOnCircle(a, radius, closed=False)).count
                for a in centers
            )

        for theta in (0.5, 1.0):
            sup7 = [pz.bounds.disk_lower_bound(n, b, theta, "sup_7", c0_nonzero=True) for b in (b_lo, b_hi)]
            gn9 = pz.bounds.disk_lower_bound(n, 0.0, theta, "Gn_9", gn_member=gn)
            for cons, fav in (sup7, (gn9, gn9)):
                if not (cons.applicable and fav.applicable):
                    stats["verdicts"]["inapplicable"] += 1
                    continue
                # Smaller disk must hold the larger requirement to certify.
                stats["verdicts"][ladder(
                    min_open_count(cons.gamma) - fav.min_zeros,
                    min_open_count(fav.gamma) - cons.min_zeros,
                )] += 1
            for delta in (0.0, 0.25):
                margins = []
                for b, disk in zip((b_lo, b_hi), sup7):
                    # certify's sup_7 gear has the sup_7 disk radius.
                    if disk.gamma > 0.5:
                        break
                    gear = pz.geometry.build_gear(disk.gamma, delta)
                    bound = pz.bounds.gear_zero_upper_bound(n, b, theta, delta, "sup_7", gear)
                    if not bound.applicable:
                        break
                    margins.append(bound.exact_form - pz.zerostats.region_count(roots, gear).count)
                if len(margins) < 2:
                    stats["verdicts"]["inapplicable"] += 1
                else:
                    stats["verdicts"][ladder(min(margins), max(margins))] += 1
        return stats

    def checks(self, items):
        out = []
        n = self.sizes.zeros_degree
        for item in items:
            stats = item.payload
            if stats is None:
                continue
            if stats["roots"] != n:
                out.append(f"zeros: item {item.key} found {stats['roots']} roots, expected {n}")
            if not 0.0 <= stats["angular"] <= 1.0 or not all(0.0 <= d <= 1.0 for d in stats["annular"]):
                out.append(f"zeros: item {item.key} discrepancy outside [0, 1]")
            if stats["verdicts"]["violation"]:
                out.append(f"zeros: item {item.key} disk/gear count contradicts its bound")
        return out

    def table(self, items):
        counts = Counter()
        for i in items[: self.prefix]:
            if i.payload:
                counts.update(i.payload["verdicts"])
        return [(f"zeros.checks.{v}", counts[v], "count", None) for v in VERDICTS]


def ladder(margin_conservative: float, margin_favorable: float) -> str:
    """The verdict ladder of certify's disk and gear entries (harness._disk_check)."""
    if margin_conservative >= 0:
        return "pass"
    return "indeterminate" if margin_favorable >= 0 else "violation"


WORKLOADS = {w.name: w for w in (SweepWorkload, CertifyWorkload, ZerosWorkload)}


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------

def load_polyzero():
    """Import polyzero from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "polyzero" / "__init__.py").is_file():
        print(f"perfbench: no polyzero sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polyzero
    import polyzero.bounds, polyzero.geometry, polyzero.harness, polyzero.norms  # noqa: E401
    import polyzero.poly, polyzero.roots, polyzero.zerostats  # noqa: E401

    return polyzero


class Reference:
    """A fixed numpy and Python kernel that runs no polyzero code.

    The host of a shared VM changes speed by tens of percent over minutes, and
    not alike for all code: interpreted, cache-bound work slowed more than
    large memory-bound FFTs did.  The kernel mixes both kinds, as polyzero
    does.  Run between the requests of a loop, it tracks the host's speed over
    the same minute, so request time over its mean time cancels most of that
    drift while any change in polyzero shows in full.
    """

    def __init__(self):
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.rows = rng.standard_normal((16, 1 << 14))
        self.coeffs = rng.standard_normal(513)
        self.kernel()  # fill numpy's FFT cache
        self.calls = 0
        self.seconds = 0.0

    def kernel(self) -> float:
        np = self.np
        total = 0.0
        for _ in range(10):
            total += sum(float(np.log1p(np.abs(np.fft.rfft(row))).sum()) for row in self.rows)
            for i in range(30000):
                total += i * i % 7
        for size in (1 << 18, 1 << 19, 1 << 20):
            total += float(np.log(np.abs(np.fft.rfft(self.coeffs, size))).sum())
        return total

    def time_once(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def run(self, budget: float):
        """Call the kernel until it has run ``budget`` seconds in all."""
        while self.seconds < budget:
            self.seconds += self.time_once()
            self.calls += 1

    @property
    def mean_s(self) -> float:
        return self.seconds / self.calls


def loop(workload: Workload, seconds: float, reference: Reference | None = None) -> tuple[list[Item], float]:
    """Closed loop: next item only after the previous one ends.

    Runs the items 0, 1, ... that pass ``workload.screen`` until ``seconds``
    have passed and the prefix is done, running ``reference``, if given, for
    ``REF_SHARE`` of the time items took.
    """
    items = []
    busy = 0.0
    t0 = time.perf_counter()
    for key in itertools.count():
        if len(items) >= workload.prefix and time.perf_counter() - t0 >= seconds:
            break
        if not workload.screen(key):
            continue
        t = time.perf_counter()
        item = workload.run_item(key, keep=len(items) < workload.prefix)
        item.wall_s = time.perf_counter() - t
        busy += item.wall_s
        if reference is not None:
            reference.run(REF_SHARE * busy)
        items.append(item)
    return items, time.perf_counter() - t0


def setup_seconds(reference: Reference, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median fresh-interpreter ``import polyzero`` time, after one warm-up.

    Returns it raw, and rescaled to a host on which the reference kernel,
    timed once after each import, takes ``REF_NOMINAL_S``.
    """
    code = "import time; t = time.perf_counter(); import polyzero; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, kernel_s = [], []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
            kernel_s.append(reference.time_once())
    raw = statistics.median(samples)
    return raw, raw * REF_NOMINAL_S / statistics.mean(kernel_s)


def warm_up(pz):
    """Fill numpy's FFT and ufunc caches before timing."""
    p = pz.poly.make_family(pz.poly.FamilySpec("littlewood", 32, seed=0))
    pz.harness.certify(p, pz.harness.SweepConfig(disk_centers=64))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def request_peak_mb(workload: Workload, keys: list[int]) -> float:
    """Median over the prefix requests ``keys`` of their peak traced allocation.

    Runs after the timed loop because tracemalloc slows every allocation.  The
    process high-water mark (``peak_rss_mb``) is set by the single worst input
    of a run, such as a degree-16 Littlewood polynomial with zeros on the
    circle, so it is reported but not compared.
    """
    peaks = []
    tracemalloc.start()
    try:
        for key in keys:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            workload.run_item(key, keep=False)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


def context(pz) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "polyzero").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "git_sha": git_sha,
        "source_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "polyzero": pz.__version__,
        "threads_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "POLYZERO_THREADS")},
    }


def totals(items: list[Item]) -> tuple[int, int, Counter]:
    failures = Counter()
    for i in items:
        failures.update(i.failures)
    return sum(i.attempted for i in items), sum(failures.values()), failures


def end_to_end(workload: Workload, items: list[Item], ref_s: float, setup_s: float) -> dict:
    """The compared metrics; times are in units of the reference kernel's mean time."""
    done = [i.request_s for i in items if i.request_s is not None]
    if not done:
        raise RuntimeError(f"{workload.name}: no request completed")
    return {
        "setup_s": (setup_s, "s"),
        "request_ref.p50": (statistics.median(done) / ref_s, "ref"),
        "request_peak_mb.p50": (request_peak_mb(workload, [i.key for i in items[: workload.prefix]]), "MB"),
    }


def seconds_table(items: list[Item], reference: Reference) -> list[tuple[str, float, str, int | None]]:
    """Report-only figures: throughput, and the latency in seconds, which drifts with the host.

    Throughput is the mean cost of the run's inputs.  A run holds only about
    a dozen certify calls whose costs are bimodal, so it spread up to 0.23
    between seeds; the median latency is the compared figure.
    """
    done = [i.request_s for i in items if i.request_s is not None]
    instances = sum(len(i.instance_s) for i in items)
    busy = sum(i.wall_s for i in items)
    return [
        ("instances_per_ref", instances * reference.mean_s / busy, "1/ref", None),
        ("instances_per_s", instances / busy, "1/s", None),
        ("request_s.p50", statistics.median(done), "s", len(done)),
        ("reference_s.mean", reference.mean_s, "s", reference.calls),
    ]


def per_layer(workload, s, tracer, items, probe, overhead_share) -> dict:
    """Per-layer metrics from the traced loop, per operation or per call.

    An operation is one ``harness.certify`` call on ``sweep`` and ``certify``,
    and one instance on ``zeros``, which never calls ``certify``.  Nothing here
    is a total over the time-bounded loop, so a faster library does not read
    as more failures.
    """
    attempted, _, failures = totals(items)
    ops = max(s.calls.get("harness.certify", 0) or attempted, 1)
    mod_self = s.module_self_s()
    prefix = items[: workload.prefix]
    verdicts = Counter()
    for i in prefix:
        verdicts.update(i.verdicts)
    root_calls = s.calls.get("roots.find_roots", 0)
    root_raised = sum(tracer.raised.get("roots.find_roots", {}).values())
    quad_raised = sum(by_type.get("QuadratureError", 0) for nm, by_type in tracer.raised.items() if nm.startswith("norms."))
    out = {
        "roots.find_roots.s": (s.inclusive_s.get("roots.find_roots", 0.0) / ops, "s/op"),
        "roots.find_roots.calls": (root_calls / ops, "calls/op"),
        "roots.find_roots.fail": (root_raised / max(root_calls, 1), "1/call"),
        "norms.mahler_plus.s": (s.inclusive_s.get("norms.mahler_plus", 0.0) / ops, "s/op"),
        "norms.mahler_plus.calls": (s.calls.get("norms.mahler_plus", 0) / ops, "calls/op"),
    }
    for fn in ("p_norm", "sup_norm_enclosure", "classify_unit_level", "mahler"):
        out[f"norms.{fn}.s"] = (s.inclusive_s.get(f"norms.{fn}", 0.0) / ops, "s/op")
    out["norms.compute_profile.self_s"] = (s.self_s.get("norms.compute_profile", 0.0) / ops, "s/op")
    out["norms.quadrature_error.per_op"] = (quad_raised / ops, "1/op")
    out["norms.p_norm.cap_rate"] = (len(workload.capped) / max(workload.screened, 1), "1/input")
    out["norms.level_set.evaluations"] = (sum(i.level_set_evaluations for i in prefix), "count")
    for mod in ("poly", "roots", "norms", "zerostats", "geometry", "bounds", "harness"):
        out[f"{mod}.s"] = (mod_self.get(mod, 0.0) / ops, "s/op")
    out["harness.certify.self_s"] = (s.self_s.get("harness.certify", 0.0) / ops, "s/op")
    out["harness.serialize.s"] = (s.inclusive_s.get("harness.serialize", 0.0) / ops, "s/op")
    for v in VERDICTS:
        out[f"harness.verdicts.{v}"] = (verdicts[v], "count")
    out["poly.make_family.s"] = (s.inclusive_s.get("poly.make_family", 0.0) / ops, "s/op")
    for typ in FAILURE_TYPES:
        out[f"fail.{typ}"] = (failures[typ] / max(attempted, 1), "1/call")
    out["certify.n1024.fail_ratio"] = (
        (sum(probe.failures.values()) / probe.attempted) if probe and probe.attempted else 0.0, "ratio"
    )
    out["trace.overhead_share"] = (overhead_share, "ratio")
    return out


def module_table(s) -> list[str]:
    lines = [f"{'span':36s} {'self_s':>10s} {'incl_s':>10s} {'calls':>8s}"]
    for name in sorted(s.self_s, key=lambda nm: -s.self_s[nm]):
        lines.append(f"{name:36s} {s.self_s[name]:10.4f} {s.inclusive_s[name]:10.4f} {s.calls[name]:8d}")
    lines.append("per module self time:")
    for mod, t in sorted(s.module_self_s().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {mod:12s} {t:10.4f} s  {100.0 * t / max(s.wall, 1e-12):6.2f} %")
    lines.append(f"  {'sum':12s} {sum(s.self_s.values()):10.4f} s  (traced wall {s.wall:.4f} s; equal by construction)")
    return lines


def raised_table(*tracers) -> list[str]:
    """Exceptions by the traced function they first left, loop and probe together."""
    raised = Counter()
    for t in tracers:
        for name, by_type in t.raised.items():
            for typ, cnt in by_type.items():
                raised[(name, typ)] += cnt
    return [f"  raised in {name}: {typ} x{cnt}" for (name, typ), cnt in sorted(raised.items())]


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    pz = load_polyzero()
    if not trace:
        reference = Reference()
        setup_raw_s, setup_s = setup_seconds(reference)
    workload = WORKLOADS[workload_name](pz, seed, sizes)
    warm_up(pz)
    lines = [f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}"]
    failed_checks: list[str] = []
    probe = None
    rows = []
    if not trace:
        items, _ = loop(workload, seconds, reference)
        rss_mb = peak_rss_mb()
        metrics = end_to_end(workload, items, reference.mean_s, setup_s)
        rows = [("setup_s.raw", setup_raw_s, "s", SETUP_REPEATS)] + seconds_table(items, reference)
    else:
        tracer = Tracer()
        with tracer:
            items, traced_wall = tracer.run(loop, workload, seconds / 2.0)
        rss_mb = peak_rss_mb()
        probe_tracer = Tracer()
        if isinstance(workload, CertifyWorkload) and sizes.probe_degree:
            with probe_tracer:
                probe = probe_tracer.run(workload.probe, 10**6)
        for t in (tracer, probe_tracer):
            errors = t.attribution_errors()
            if errors:
                failed_checks.append(f"trace: {len(errors)} spans do not nest, first: {errors[0]}")
        summary = tracer.summary()
        span_cost = span_cost_s()
        overhead_s = span_cost * len(tracer.spans)
        metrics = per_layer(workload, summary, tracer, items, probe, overhead_s / traced_wall)
        lines += module_table(summary)
        lines += raised_table(tracer, probe_tracer)
        lines.append(
            f"tracing overhead: {len(tracer.spans)} spans x {1e6 * span_cost:.3f} us = {overhead_s:.4f} s"
            f" of {traced_wall:.4f} s traced wall, {len(items)} items"
        )
    failed_checks += workload.checks(items)
    attempted, failed, failures = totals(items)

    lines.append(f"{'metric':34s} {'value':>14s} unit")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34s} {fmt(value):>14s} {unit}")
    lines.append(f"{'peak_rss_mb':34s} {fmt(rss_mb):>14s} MB  (process high-water mark after the loop)")
    for name, value, unit, count in rows + workload.table(items):
        lines.append(f"{name:34s} {fmt(value):>14s} {unit}" + (f"  (n={count})" if count else ""))
    lines.append(f"{'fail_ratio':34s} {fmt(failed / max(attempted, 1)):>14s} ratio  ({failed}/{attempted})")
    for typ in FAILURE_TYPES:
        lines.append(f"  failed with {typ}: {failures[typ]}")
    lines.append(
        f"{'screened out (p_norm grid cap)':34s} {len(workload.capped):>14d} inputs  (of {workload.screened}; not timed)"
    )
    for key, family, degree, seed in workload.capped:
        lines.append(f"  item {key}: {family} n={degree} seed={seed}")
    if probe is not None:
        lines.append(
            f"{'certify n=' + str(sizes.probe_degree) + ' fail_ratio':34s} "
            f"{fmt(sum(probe.failures.values()) / max(probe.attempted, 1)):>14s} ratio  "
            f"({dict(probe.failures)} of {probe.attempted})"
        )
    for msg in failed_checks:
        lines.append(f"CHECK FAILED: {msg}")
    lines.append("context " + json.dumps(context(pz), sort_keys=True))
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
