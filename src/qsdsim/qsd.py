"""Trajectory integrator for the nonlinear stochastic state equation.

One Euler-Maruyama step applies

    |dpsi> = -(i/hbar) H |psi> dt
             + sum_n (<L_n^dag> L_n - L_n^dag L_n / 2
                      - <L_n^dag><L_n> / 2) |psi> dt
             + sum_n (L_n - <L_n>) |psi> dxi_n

with all expectations taken in the pre-step state (Ito convention) and
a renormalization afterwards.  The two dxi_n are independent
complex Wiener increments whose real and imaginary parts each carry
variance dt/2.

One driver steps a (B, n_fock) batch of trajectories; a single
trajectory is the B = 1 case and the ensemble runner feeds it batches.
The work is split between two languages.  The compiled loop in
qsd_step.c does the stepping: for every step of a row it applies the
update, measures the norm, raises the high-water mark of its drift,
checks the truncation tail and renormalizes.  It steps the rows in lane
groups of one body, built for the host CPU: eight rows per group where
it has AVX-512F while more than four are left, else four, one row per
lane of a SIMD vector; a lone row, a batch of one or the last row of a
batch, is the one-lane group, whose vectors run across its levels
(stepping_loop reports the widths).  Each lane rounds exactly as the
row stepped alone, so no result depends on the batch, the group width
or the CPU.  The loop also owns each row's noise stream: it seeds
numpy's PCG64 from the row's seed as numpy's SeedSequence does, steps
it inline and draws the normals with numpy's own ziggurat, inlined,
whose tables are read from numpy's libnpyrandom.a when the loop is
built.  So row b draws np.random.default_rng(seeds[b]).standard_normal's
stream, bit for bit, with no numpy generator made.  Each new build must
seed and draw so before it is used, or no library is made.  The loop
alone samples: it copies every sampled state, step 0's included, into
a buffer of up to TRAJ_BATCH rows with six moments of each beside it
(||psi||^2 and the level sums of <a>, <a^2> and <n>), from which
observables.moment_fields derives every diagnostic in O(1) per row.
Python calls it once per such block of samples, hands the states and
their moments to the caller and raises the error of a failed row.  It
is built with gcc on first use, never at import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import (LOOP_CACHE_KEEP, MAX_SEED, MAX_STEPS,
                        STEP_GUARD_DISSIPATIVE, STEP_GUARD_OSCILLATORY,
                        TAIL_TOL, TRAJ_BATCH)
from .errors import DimensionError, ParameterError, StepSizeWarning, \
    TrajectoryError
from .model import ModelParams, OperatorSet, normalize, steps_on_grid, \
    tail_levels
from .observables import BUNDLE_DTYPE, STAT_FIELDS, moment_fields

#: Weyl-sequence increment of the splitmix64 stream.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: gcc flags of the stepping loop, for the host CPU on x86-64.  No FMA
#: contraction, so rounding does not depend on the target's instructions.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC",
           *(("-march=native",) if platform.machine() == "x86_64" else ()))

#: The lane-group body that qsd_step.c includes once per lane width.
_LANES_H = Path(__file__).parent / "qsd_lanes.h"

#: numpy's normal sampler: the static archive that holds its ziggurat
#: tables, the local symbols _ZIGGURAT_TABLES of the member
#: _DISTRIBUTIONS_O.
_NPYRANDOM_A = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
_DISTRIBUTIONS_O = "src_distributions_distributions.c.o"
_ZIGGURAT_TABLES = ("ki_double", "wi_double", "fi_double")

#: The self-check of a new build: normals drawn from the streams it
#: seeds for these seeds, one with one 32-bit word of entropy and one
#: with two, in blocks that keep its memory small.  Those 1e5 test the
#: wedge 1439 times and take 26 from the tail.
_CHECK_SEEDS, _CHECK_BLOCKS, _CHECK_BLOCK = (0, MAX_SEED), 5, 10_000


def splitmix64(x):
    """One splitmix64 output for the 64-bit input x: an int, or a 1-d
    uint64 array for one output per entry, whose arithmetic wraps modulo
    2**64 as the masks make the int's."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trajectory_seed(base_seed: int, index):
    """Decorrelated per-trajectory seed.

    Trajectory k draws the k-th output of the splitmix64 sequence
    seeded at base_seed, so seeds depend only on (base_seed, k), never
    on batching or worker count.  index is an int, or a 1-d uint64 array
    of them for one seed each.
    """
    if np.ndim(index) == 0 and index < 0:   # uint64 entries never are
        raise ParameterError("trajectory index must be >= 0")
    return splitmix64((base_seed + index * _SPLITMIX_GAMMA) & _MASK64)


def check_seed(label: str, seed: int) -> None:
    """Refuse a seed outside [0, MAX_SEED]: the loop seeds a stream from
    one uint64, so a larger seed would name no stream of its own."""
    if not 0 <= seed <= MAX_SEED:
        raise ParameterError(f"{label} must be in [0, 2**64), from 0 to "
                             f"the maximum of {MAX_SEED}, got {seed}")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    seed: int = 0
    record_stride: int = 1  # steps between recorded samples

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.t_end < self.dt:
            raise ParameterError("t_end must cover at least one step")
        check_seed("seed", self.seed)
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ParameterError(
                f"t_end / dt = {self.t_end / self.dt:.3g} steps; at most "
                f"{MAX_STEPS} are allowed")
        # the loop keeps the stride in a C long, so a larger one would
        # wrap around instead of being refused
        if not 1 <= self.record_stride <= MAX_STEPS:
            raise ParameterError(f"record_stride must be from 1 to the "
                                 f"maximum of {MAX_STEPS}, got "
                                 f"{self.record_stride}")
        steps_on_grid(self.t_end, self.dt, "t_end")

    @property
    def n_steps(self) -> int:
        return steps_on_grid(self.t_end, self.dt, "t_end")

    @property
    def sample_times(self) -> np.ndarray:
        """Times of step 0 and of every record_stride-th step after it."""
        return np.arange(0, self.n_steps + 1, self.record_stride) * self.dt


def check_step_size(dt: float, params: ModelParams) -> None:
    """Warn when dt underresolves the damping or oscillation scale."""
    diss = dt * params.gamma * (params.nbar + 1.0)
    if diss > STEP_GUARD_DISSIPATIVE:
        warnings.warn(
            f"dt*gamma*(nbar+1) = {diss:.3g} exceeds "
            f"{STEP_GUARD_DISSIPATIVE}; damping underresolved",
            StepSizeWarning, stacklevel=2)
    osc = dt * params.omega
    if osc > STEP_GUARD_OSCILLATORY:
        warnings.warn(
            f"dt*omega = {osc:.3g} exceeds {STEP_GUARD_OSCILLATORY}; "
            "oscillation underresolved", StepSizeWarning, stacklevel=2)


def _gcc() -> str:
    """The gcc on PATH, which builds the stepping loop."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise RuntimeError("qsdsim compiles its stepping loop "
                           "(qsd_step.c) on first use and needs gcc "
                           "on PATH; none was found")
    return gcc


def _target_macros() -> bytes:
    """The macros gcc predefines under _CFLAGS: its version and target."""
    import subprocess

    return subprocess.run([_gcc(), *_CFLAGS, "-E", "-dM", "-x", "c",
                           os.devnull], capture_output=True,
                          check=True).stdout


def _draws_numpys_normals(lib: ctypes.CDLL) -> bool:
    """The self-check of a new build: whether the streams lib seeds draw
    the normals that Generator.standard_normal draws from default_rng of
    the same seeds, bit for bit."""
    refs = [np.random.default_rng(seed) for seed in _CHECK_SEEDS]
    return all(np.array_equal(
        _normals(lib, stream, _CHECK_BLOCK).view(np.uint64),
        ref.standard_normal(_CHECK_BLOCK).view(np.uint64))
        for stream, ref in zip(_seed_streams(_CHECK_SEEDS, lib), refs)
        for _ in range(_CHECK_BLOCKS))


def _build_library(source: bytes, out: Path) -> None:
    """Build the stepping loop into out with numpy's ziggurat tables.

    ar extracts numpy's member _DISTRIBUTIONS_O from libnpyrandom.a and
    objcopy makes its _ZIGGURAT_TABLES global (a table it lacks stays
    undefined); then the one gcc command line of the loop: _CFLAGS, the
    directory of qsd_lanes.h on the include path, that object ahead of
    the archive, and every symbol must resolve.  The build is made in a
    temporary directory next to out and moved to out only once it passes
    _draws_numpys_normals, so a build that fails is never loaded and
    leaves no file.  A failed step raises RuntimeError naming its tool,
    the member, the archive and numpy's version: without numpy's tables
    no library is made.  ar exits 0 for a member it lacks, so a step
    whose member is not there after it fails too.
    """
    import subprocess
    import tempfile

    numpys = (f"the ziggurat tables of {_NPYRANDOM_A}'s member "
              f"{_DISTRIBUTIONS_O} (numpy {np.__version__})")
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        trial = Path(tmp).resolve() / out.name
        for cmd in (["ar", "x", str(_NPYRANDOM_A), _DISTRIBUTIONS_O],
                    ["objcopy", *(f"--globalize-symbol={name}"
                                  for name in _ZIGGURAT_TABLES),
                     _DISTRIBUTIONS_O],
                    [_gcc(), *_CFLAGS, "-I", str(_LANES_H.parent), "-x", "c",
                     "-", "-x", "none", _DISTRIBUTIONS_O, str(_NPYRANDOM_A),
                     "-o", str(trial), "-lm", "-Wl,--no-undefined"]):
            proc = subprocess.run(cmd, cwd=tmp, input=source,
                                  capture_output=True)
            if proc.returncode or not Path(tmp, _DISTRIBUTIONS_O).exists():
                raise RuntimeError(
                    f"{Path(cmd[0]).name} could not build qsd_step.c with "
                    f"{numpys}:\n" + proc.stderr.decode(errors="replace"))
        if not _draws_numpys_normals(_load_library(trial)):
            raise RuntimeError(f"qsd_step.c built with {numpys} draws "
                               "normals that differ from numpy's")
        os.replace(trial, out)


class _Segment(ctypes.Structure):
    """qsd_step.c's struct segment, field for field.  Its pointers are
    raw addresses, so their arrays must outlive the calls."""

    _fields_ = [(name, ctype) for names, ctype in (
        ("B N n tail_start stride left", ctypes.c_long),
        ("dt tail_tol scale", ctypes.c_double),
        ("coef psis rec mom streams lanes", ctypes.c_void_p),
        ("worst worst_step", ctypes.c_long),
        ("worst_tail max_drift", ctypes.c_double)) for name in names.split()]


def _load_library(path: Path) -> ctypes.CDLL:
    """The compiled loop at path, with its functions' signatures set;
    refuses it if its struct segment is not the size of _Segment."""
    lib = ctypes.CDLL(str(path))
    size = ctypes.c_long.in_dll(lib, "qsd_segment_size").value
    if size != ctypes.sizeof(_Segment):
        raise RuntimeError(f"{path} has a struct segment of {size} bytes, "
                           f"but qsd.py declares {ctypes.sizeof(_Segment)}")
    lib.qsd_segment.argtypes = [ctypes.POINTER(_Segment)]
    lib.qsd_segment.restype = ctypes.c_long
    lib.qsd_stepping_loop.argtypes = [ctypes.POINTER(ctypes.c_char_p),
                                      ctypes.POINTER(ctypes.c_long)]
    lib.qsd_stepping_loop.restype = ctypes.c_int
    lib.qsd_seed.argtypes = [ctypes.c_long, ctypes.c_void_p,
                             ctypes.c_void_p]
    lib.qsd_normals.argtypes = [ctypes.c_void_p, ctypes.c_long,
                                ctypes.c_void_p]
    lib.qsd_seed.restype = lib.qsd_normals.restype = None
    return lib


def _seed_streams(seeds, lib: ctypes.CDLL | None = None) -> np.ndarray:
    """The noise streams of the stepping loop for these seeds.

    A (B, 4) uint64 array, one PCG64 (state, inc) per seed, low words
    first: the state np.random.PCG64(seed) starts in, made by lib (the
    compiled loop by default) in one call.  Each seed must be an int in
    [0, 2**64); numpy refuses any other with OverflowError.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    streams = np.empty((len(seeds), 4), dtype=np.uint64)
    (lib or _compiled_loop()).qsd_seed(len(seeds), seeds.ctypes.data,
                                       streams.ctypes.data)
    return streams


def _normals(lib: ctypes.CDLL, stream: np.ndarray, n: int) -> np.ndarray:
    """n standard normals drawn from one row of _seed_streams by lib's
    sampler, the one its stepping loop draws with; the row is advanced
    in place."""
    out = np.empty(n)
    lib.qsd_normals(stream.ctypes.data, n, out.ctypes.data)
    return out


@functools.cache
def _compiled_loop() -> ctypes.CDLL:
    """The library built from qsd_step.c, compiled on first use.

    The library is cached in $XDG_CACHE_HOME/qsdsim (default
    ~/.cache/qsdsim) under a hash of the C sources, the compiler flags
    and target macros and numpy's libnpyrandom.a, so a new
    source, flag set, CPU, gcc or numpy builds afresh.  _build_library
    builds it in a temporary directory of the cache and moves it into
    place, so concurrent first uses never load a half-written file, and
    then removes all but the LOOP_CACHE_KEEP newest builds.  A process
    that has one of them loaded keeps its mapping; one that finds its
    library gone between the check and the load builds it again, once.
    """
    import hashlib

    source = (Path(__file__).parent / "qsd_step.c").read_bytes()
    key = (source + _LANES_H.read_bytes() + " ".join(_CFLAGS).encode()
           + _target_macros())
    try:
        key += _NPYRANDOM_A.read_bytes()
    except OSError as exc:
        raise RuntimeError(
            f"qsdsim links its stepping loop against numpy's normal "
            f"sampler and needs {_NPYRANDOM_A}: {exc.strerror}") from exc
    tag = hashlib.sha256(key).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "qsdsim"
    lib = cache / f"qsd_step-{tag[:16]}.so"
    for retry in (False, True):
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            _build_library(source, lib)
            with contextlib.suppress(OSError):  # raced by another pruning
                for old in sorted(cache.glob("qsd_step-*.so"),
                                  key=os.path.getmtime)[:-LOOP_CACHE_KEEP]:
                    if old != lib:
                        old.unlink(missing_ok=True)
        try:
            return _load_library(lib)
        except OSError:
            if retry or lib.exists():
                raise


def stepping_loop() -> dict:
    """The stepping body the compiled loop was built with.

    isa names the target's instruction set of its widest lane group and
    lanes lists the group widths, widest first, with the one-lane group
    of a lone row last: {"isa": "avx512f", "lanes": [8, 4, 1]} where it
    has AVX-512F, else the widths [4, 1].
    """
    isa, lanes = ctypes.c_char_p(), (ctypes.c_long * 3)()
    count = _compiled_loop().qsd_stepping_loop(ctypes.byref(isa), lanes)
    return {"isa": isa.value.decode(), "lanes": lanes[:count]}


def _integrate(ops: OperatorSet, psis: np.ndarray, streams: np.ndarray,
               cfg: IntegratorConfig, first_index: int, on_sample):
    """Step a (B, n_fock) batch from t = 0 to cfg.t_end.

    A C-contiguous complex batch is advanced in place.  Row b is
    trajectory first_index + b and draws its noise from streams[b], a
    row of _seed_streams(seeds): the normals that
    np.random.default_rng(seeds[b]).standard_normal draws, four per step
    as (Re dxi1, Im dxi1, Re dxi2, Im dxi2), times sqrt(dt / 2).  The
    streams are advanced in place by exactly four normals per step, so
    a run stopped and continued with the same streams draws as one made
    in one go.  Rows go through the lane groups of the compiled loop, a
    lone row, B = 1 or the last row of a batch, through its one-lane
    group; each rounds a row as it would be rounded alone, so a row's
    results do not depend on B.  Each step is renormalized.  The states
    of step 0 and of every record_stride-th step are sampled: each loop
    call writes them into a (S, B, n_fock) buffer, S = max(1,
    TRAJ_BATCH // B), and their moments, observables._moments' six
    summed level by level, into a (S, B, 6) one.  on_sample(block,
    moments, first_step) gets each (k, B, n_fock) block and its (k, B,
    6) moments in turn, whose sample i is of step first_step + i *
    record_stride; both are reused once on_sample returns.  Returns the
    batch and the largest pre-renormalization norm drift | ||psi'|| - 1
    | over its rows and steps.  Raises TrajectoryError as soon as a
    row's relative tail mass, its share of ||psi'||^2 in the top
    tail_levels(n_fock) levels, is above TAIL_TOL or not finite, after
    on_sample has had every sample before the failing step.
    """
    psis = np.require(psis, complex, ["C", "W"])  # the loop's memory layout
    batch = len(streams)
    if psis.shape != (batch, ops.n_fock):
        raise DimensionError(f"batch of shape {psis.shape} for {batch} "
                             f"noise streams and {ops.n_fock} levels")
    if not (streams.dtype == np.uint64 and streams.shape == (batch, 4)
            and streams.flags.c_contiguous and streams.flags.writeable):
        raise DimensionError("noise streams must be a writeable "
                             "C-contiguous (B, 4) uint64 array")
    n_fock = ops.n_fock
    g = (-1j / ops.params.hbar) * ops.h - 0.5 * ops.mu
    # the padded rows cl, dl, dgr, dgi, ra and ra2 of qsd_lanes.h
    coef = np.zeros((6, n_fock))
    coef[0, :-1], coef[1, 1:] = ops.c, ops.d
    coef[2], coef[3] = cfg.dt * g.real, cfg.dt * g.imag
    coef[4, :-1] = np.sqrt(np.arange(1, n_fock))
    coef[5, :-2] = np.sqrt(np.arange(1, n_fock - 1) * np.arange(2, n_fock))
    # the scratch of one lane group of any width: 4 (N + 2) vectors of 8
    # doubles, 64-aligned
    lanes = np.zeros(32 * (n_fock + 2) + 7)
    lanes = lanes[(-lanes.ctypes.data % 64) // 8:]
    n_steps, stride = cfg.n_steps, cfg.record_stride
    rec = np.empty((max(1, TRAJ_BATCH // batch), batch, n_fock),
                   dtype=complex)
    mom = np.empty((len(rec), batch, 6))
    seg = _Segment(
        B=batch, N=n_fock, tail_start=n_fock - tail_levels(n_fock),
        stride=stride, left=0, dt=cfg.dt, tail_tol=TAIL_TOL,
        scale=math.sqrt(cfg.dt / 2.0), coef=coef.ctypes.data,
        psis=psis.ctypes.data, streams=streams.ctypes.data,
        lanes=lanes.ctypes.data)
    segment = _compiled_loop().qsd_segment
    # addresses taken once; a call's offsets are added as integers
    rec_at, mom_at = rec.ctypes.data, mom.ctypes.data
    first = held = step = 0   # sample index of rec[0], samples in rec
    while step < n_steps:
        if held == len(rec):
            on_sample(rec, mom, first * stride)
            first, held = first + held, 0
        # to rec's last sample; the first call, at left 0, samples step 0
        seg.n = n = min(n_steps, (first + len(rec) - 1) * stride) - step
        seg.rec = rec_at + held * rec.strides[0]
        seg.mom = mom_at + held * mom.strides[0]
        worst = segment(seg)
        if worst >= 0:
            fail = step + seg.worst_step
            whole = (fail - 1) // stride + 1 - first
            if whole > 0:
                on_sample(rec[:whole], mom[:whole], first * stride)
            t = fail * cfg.dt
            tail = seg.worst_tail
            raise TrajectoryError(
                f"tail mass {tail:.3e} is not within tolerance "
                f"{TAIL_TOL:.1e} at t = {t:.6g} "
                f"(trajectory {first_index + worst})",
                tail_mass=tail, time=t, trajectory=first_index + worst)
        step += n
        held = step // stride + 1 - first
        seg.left = stride
    if held:
        on_sample(rec[:held], mom[:held], first * stride)
    return psis, seg.max_drift


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled output of one trajectory.

    bundles is a BUNDLE_DTYPE record array with one row per sample time:
    bundles.t equals times, and bundles[f] is the series of diagnostic
    f, as EnsembleStats.means[f] is for an ensemble.  norm_drift is the
    largest pre-renormalization | ||psi|| - 1 | over all steps.
    """

    times: np.ndarray
    bundles: np.recarray
    final_state: np.ndarray
    seed: int
    norm_drift: float


def run_trajectory(initial: np.ndarray, ops: OperatorSet,
                   cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate one trajectory from t=0 to t_end.

    Records the diagnostics every record_stride steps.  The stepping
    loop hands over the moments of its samples in blocks of up to
    TRAJ_BATCH, and moment_fields turns all of them into the rows of
    bundles at the end, as the ensemble turns each block of its
    batches.  Deterministic given (initial, cfg): the noise stream is
    fully determined by cfg.seed.
    """
    check_step_size(cfg.dt, ops.params)
    psis = normalize(np.asarray(initial, dtype=complex))[None, :].copy()
    times = cfg.sample_times
    moments = np.empty((len(times), 6))

    def on_sample(block, block_moments, first_step):
        j = first_step // cfg.record_stride
        moments[j:j + len(block)] = block_moments[:, 0]

    psis, drift = _integrate(ops, psis, _seed_streams([cfg.seed]), cfg, 0,
                             on_sample)
    bundles = np.recarray(len(times), dtype=BUNDLE_DTYPE)
    bundles.t = times
    for f, vals in zip(STAT_FIELDS, moment_fields(moments, ops)):
        bundles[f] = vals
    return TrajectoryRecord(times=times, bundles=bundles,
                            final_state=psis[0].copy(), seed=cfg.seed,
                            norm_drift=drift)
