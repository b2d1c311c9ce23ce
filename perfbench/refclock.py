"""Reference clock: time measured at a fixed interpreter speed.

On a shared virtual machine the speed of the interpreter drifts by 20-40 %
over seconds to minutes (a fixed loop ran anywhere from 22 to 36 ms per
iteration within one minute on a 2-vCPU Intel Xeon at 2.1 GHz), so raw pass
times of the same code spread by 25-35 % across runs. The reference clock
samples that speed while the measured code runs: a SIGALRM timer interrupts
the main thread every INTERVAL_S seconds and runs a fixed chunk of
pure-Python Fraction arithmetic (object allocation, method calls and
big-integer gcds, as in the package) in the signal handler, in the same
thread and between the measured code's bytecodes, so the samples cover the
measured period evenly. No thread or process is started.

    clock = RefClock()
    clock.start()
    ...                      # the measured code
    sample = clock.stop()
    sample.scale(wall_s - sample.chunk_wall_s)

`scale` converts a time measured at the sampled speed into seconds at the
reference speed, the speed at which one chunk takes CHUNK_REF_S seconds
(about the median speed of the machine above). The chunks split the period
into equal stretches of wall time, and the work done in a stretch is
proportional to the speed the chunk measured there, so the slowdown is the
harmonic mean of the chunk times over CHUNK_REF_S; a chunk that the host
pre-empted reads long but hardly moves it. The time the chunks take is
subtracted from the measured period before scaling. On the machine above,
with another benchmark run busy on the second vCPU, nine processes each
running the raise-374 search spread by 0.08 (quartile distance over median)
in raw wall time and by 0.02 scaled; nine each running two lfun-tower
configurations, by 0.15 raw and 0.03 scaled. A plain integer loop as the
chunk left 0.04 and 0.09, and the arithmetic mean in place of the harmonic
one 0.04 and 0.03.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_S = 0.05     # one chunk every 50 ms of wall time
CHUNK_TERMS = 300     # about 1.3 ms of Fraction arithmetic
CHUNK_REF_S = 0.0013  # the chunk's time at the reference speed


def chunk() -> Fraction:
    """The fixed reference work; nothing it allocates outlives it."""
    s = Fraction(0)
    for i in range(1, CHUNK_TERMS):
        s += Fraction(i * i + 1, 2 * i + 7)
    return s


@dataclass
class Sample:
    """What the chunks saw over one measured period."""

    chunks: int = 0
    chunk_wall_s: float = 0.0
    chunk_cpu_s: float = 0.0
    wall_speed: float = 0.0  # sum over chunks of CHUNK_REF_S / chunk wall time
    cpu_speed: float = 0.0   # the same with the chunk's CPU time

    def slowdown(self, cpu: bool = False) -> float:
        """Harmonic mean chunk time over CHUNK_REF_S; 1.0 if no chunk ran."""
        speed = self.cpu_speed if cpu else self.wall_speed
        return self.chunks / speed if speed else 1.0

    def scale(self, seconds: float, cpu: bool = False) -> float:
        """A wall (or, with cpu, CPU) time of the period at the reference speed."""
        return seconds / self.slowdown(cpu)


class RefClock:
    """Runs chunk() every interval_s seconds between start() and stop().

    Set-up lasts about 0.2 s, so it is sampled every 5 ms rather than every
    INTERVAL_S, or it would see one or two chunks.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.sample = Sample()
        self._previous = None

    def _tick(self, _signum, _frame):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        chunk()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        sample = self.sample
        sample.chunks += 1
        sample.chunk_wall_s += wall
        sample.chunk_cpu_s += cpu
        sample.wall_speed += CHUNK_REF_S / wall
        if cpu > 0:
            sample.cpu_speed += CHUNK_REF_S / cpu

    def start(self):
        self.sample = Sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> Sample:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return self.sample
