"""Shared pieces of the benchmark: paths, the workload mix, the nominal clock.

Nothing here imports ``repro``: the reference kernel must not depend on the
program it is used to normalise, and the parent process imports this module
before it knows whether the program is present at all.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Span dumps of traced runs and the bytecode cache of the processes the
#: benchmark starts land here (listed in the root .gitignore).
OUT_DIR = ROOT / ".bench_out"
PYCACHE_DIR = OUT_DIR / "pycache"

#: The four schemes of the paper's Table 3 row set, in Zipf rank order.
SCHEMES = ("ceilidh-170", "ecdh-p160", "rsa-1024", "xtr-170")

#: Zipf(1.0) popularity over SCHEMES: weights 1, 1/2, 1/3, 1/4 = 12:6:4:3.
#: One round holds exactly these session counts, so every run attempts whole
#: rounds of the same operations whatever the seed.
ZIPF_ROUND = {"ceilidh-170": 12, "ecdh-p160": 6, "rsa-1024": 4, "xtr-170": 3}

#: Plaintext bytes of every rsa-1024 encrypt/decrypt session.
RSA_PLAINTEXT_BYTES = 32

#: The channel probe of traced handshake-served runs: channels per connection,
#: records per channel (then one rekey), and the record sizes each sends.
CHANNELS_PER_CONNECTION = 2
RECORDS_PER_REKEY = 512
RECORD_SIZES = tuple(
    round(32 * (4096 / 32) ** (i / (RECORDS_PER_REKEY - 1)))
    for i in range(RECORDS_PER_REKEY)
)
CHANNEL_SCHEME = "ceilidh-170"

#: Connections of the served workloads (matches the 2 cores they run on).
CONNECTIONS = 2

#: Fresh processes started per run to time set-up; the median is reported.
SETUP_REPEATS = 9

#: Fewest rounds a run makes, so every run holds at least 1000 latency
#: samples (ten beyond p99) whatever ``--seconds`` says.
MIN_ROUNDS = {"ka-offline": 42, "handshake-served": 42}

#: Segments: a kernel slice is timed between them, with nothing in flight.
#: ka-offline slices after every SEGMENT_SESSIONS sessions; handshake-served
#: after each scheme's sessions of a round.
SEGMENT_SESSIONS = 1

#: Ops sampled per scheme for the independent output checks.
CHECK_SAMPLES = 2

#: Variables that switch the program off its shipped defaults; the benchmark
#: measures the program as shipped, so they are removed for every process.
PROGRAM_SWITCHES = ("REPRO_FIELD_BACKEND", "REPRO_BATCH_API", "REPRO_NATIVE_KERNEL")


def sub_rng(seed: int, label: str) -> random.Random:
    """An independent deterministic stream per purpose, derived from the seed."""
    return random.Random(f"perfbench:{seed}:{label}")


def program_env() -> dict:
    """Environment for processes that run the program: shipped defaults."""
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_SWITCHES}
    env["PYTHONPATH"] = str(SRC)
    # Started processes load bytecode from a cache of the benchmark's own
    # (see warm_bytecode), so a set-up never includes compiling the source.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE_DIR)
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree."""
    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- the nominal clock ---------------------------------------------------------
#
# Wall-clock time on a small shared VM drifts by tens of percent between runs.
# A fixed pure-Python reference kernel, timed in slices at fixed points of the
# same work, drifts with it; dividing by it turns seconds into nominal
# seconds.  A nominal second is the time this machine takes to run
# REF_SLICES_PER_NOMINAL_SECOND kernel slices.

_KERNEL_P = (1 << 170) - 3  # any odd 170-bit modulus; work, not meaning
_KERNEL_STEPS = 4000
#: A constant of the benchmark.  On the 2-core VM the bounds were set on a
#: slice took 3.3-5.7 ms, so one nominal second was 0.8-1.4 wall seconds.
REF_SLICES_PER_NOMINAL_SECOND = 245


def kernel_slice() -> int:
    """One slice of the reference kernel: big-int products, calls, a dict.

    The mix resembles the program's own hot loops (170-bit modular products
    and interpreter dispatch) so both slow down together.
    """
    p = _KERNEL_P
    x = 0x1234567890ABCDEF1234567890ABCDEF
    y = 0x0FEDCBA9876543210FEDCBA98765432
    table = {}
    for i in range(_KERNEL_STEPS):
        x = (x * y + i) % p
        y = (y * y + x) % p
        table[i & 63] = (x >> 16) & 0xFFFF
    return sum(table.values()) ^ (x & 0xFFFF)


_KERNEL_CHECK = None


def time_kernel_slice() -> float:
    """Run one slice and return its wall time in seconds (result checked)."""
    global _KERNEL_CHECK
    started = time.perf_counter()
    value = kernel_slice()
    elapsed = time.perf_counter() - started
    if _KERNEL_CHECK is None:
        _KERNEL_CHECK = value
    elif value != _KERNEL_CHECK:  # pragma: no cover - interpreter fault
        raise RuntimeError("reference kernel produced a different result")
    return elapsed


class NominalClock:
    """Kernel slices of one run, and the segments they bracket.

    The machine switches between fast and slow phases within a second, so
    a run-wide kernel figure does not describe any one round.  Each timed
    segment is instead bracketed by a slice just before and just after it,
    and converted with the mean of those two: its local nominal second.
    """

    def __init__(self):
        self.slices = []

    def slice(self) -> float:
        elapsed = time_kernel_slice()
        self.slices.append(elapsed)
        return elapsed

    @staticmethod
    def segment(raw: float, before: float, after: float, cpu: float, latencies) -> dict:
        return {
            "raw": raw,
            "unit": REF_SLICES_PER_NOMINAL_SECOND * (before + after) / 2,
            "cpu": cpu,
            "lat": latencies,
        }

    @property
    def slice_s(self) -> float:
        return statistics.median(self.slices)

    @property
    def nominal_second(self) -> float:
        """Raw seconds in one nominal second, from the run's median slice."""
        return self.slice_s * REF_SLICES_PER_NOMINAL_SECOND


def summarize_rounds(rounds) -> dict:
    """Nominal figures of whole rounds of segments (see NominalClock).

    * time per round: the median over rounds of the sum of each segment's
      raw time over its local nominal second, so a round whose segments
      straddled a change of machine speed does not move it;
    * latencies: each op's raw time over its segment's nominal second;
    * CPU utilisation: total CPU over total raw time (a ratio of two raw
      figures over the same intervals, so drift cancels).
    """
    per_round = [sum(seg["raw"] / seg["unit"] for seg in segments) for segments in rounds]
    # Rounds attempt the same ops; a failed op leaves no latency, so the
    # completed ops per round are averaged rather than assumed equal.
    ops_per_round = sum(len(seg["lat"]) for segments in rounds for seg in segments) / len(rounds)
    latencies = [lat / seg["unit"] for segments in rounds for seg in segments for lat in seg["lat"]]
    raw = sum(seg["raw"] for segments in rounds for seg in segments)
    cpu = sum(seg["cpu"] for segments in rounds for seg in segments)
    round_s = statistics.median(per_round)
    return {
        "ops_per_round": ops_per_round,
        "round_s": round_s,
        "ops_per_s": ops_per_round / round_s,
        "latencies": latencies,
        "cpu_ms_per_op": 1e3 * (cpu / raw) * round_s / ops_per_round,
        "raw_s": raw,
        "raw_cpu_s": cpu,
        "ops": len(latencies),
    }


# -- the set-up reference ---------------------------------------------------------
#
# A set-up is a fresh process: interpreter start, imports, then compute.  The
# kernel slices track only the compute; start-up and imports drift less, so a
# set-up divided by them swung by 9-14% between runs.  A set-up is instead
# divided by the start of a fixed reference process with the same shape, timed
# just before and just after it: a fresh interpreter that imports standard
# modules the program also imports and runs REF_START_SLICES kernel slices.
# A nominal second of set-up is REF_STARTS_PER_NOMINAL_SECOND such starts.

REF_START_SLICES = 20
#: A constant of the benchmark.  On the 2-core VM the bounds were set on, one
#: reference start took 0.15-0.27 s, so one nominal second was 0.8-1.4 wall s.
REF_STARTS_PER_NOMINAL_SECOND = 5
_REF_START_CODE = (
    f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r})\n"
    "import asyncio, dataclasses, hashlib, hmac, json, struct, typing\n"
    "import common\n"
    f"for _ in range({REF_START_SLICES}): common.kernel_slice()\n"
)


def warm_bytecode() -> None:
    """Compile the program and the benchmark into PYCACHE_DIR (untimed).

    Only stale or missing files are compiled, so this costs little after the
    first run in a checkout.  One untimed reference start then caches the
    standard modules it imports.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
                   env=program_env(), check=True, stdout=subprocess.DEVNULL)
    time_reference_start()


def time_reference_start() -> float:
    """Wall time of one run of the set-up reference process."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", _REF_START_CODE], env=program_env(), check=True)
    return time.perf_counter() - started


def setup_segment(raw: float, before: float, after: float) -> dict:
    """A set-up of ``raw`` wall seconds, bracketed by two reference starts."""
    return {"raw": raw, "unit": REF_STARTS_PER_NOMINAL_SECOND * (before + after) / 2}


# -- small statistics and /proc readers ------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a whole process (all threads) from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(obj) -> None:
    """One JSON line on stdout, flushed (the processes talk in lines)."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()
