"""CPU-speed calibration for a shared host.

Other tenants of a shared host slow every process down, often by 1.5x
or more, in phases from under a second to minutes.  A run that falls
entirely inside such a phase reads that much slower, and no statistic
over the run alone can tell.  So every timing is paired with the time
a fixed kernel takes at the same moment, and reported as

    seconds * KERNEL_REF_S / kernel seconds

that is, in seconds of a CPU on which the kernel takes KERNEL_REF_S
(a 2.1 GHz Xeon vCPU without contention).  The kernel shares no code
with hyperd, so a change to the package cannot move it.
"""

import time

# kernel time on the reference CPU
KERNEL_REF_S = 220e-6


def _kernel():
    # complex recurrences through a generator, calls, allocation and
    # float formatting: the kind of work the package does
    def coeffs(a, b):
        c, n = 1 + 0j, 0
        while True:
            yield c
            c = c * (a + n) / ((b + n) * (n + 1))
            n += 1

    out = []
    for k in range(8):
        z = complex(0.5 + 0.03 * k, 0.4)
        s, p = 0j, 1 + 0j
        it = coeffs(0.7 + 0.1j, 1.3)
        for _ in range(100):
            s += next(it) * p
            p *= z
        out.append("%.17g,%.17g" % (s.real, s.imag))
    return out


def kernel_seconds(reps=2):
    """Seconds the kernel takes now (the least of `reps` runs)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(seconds, kernel_s):
    """`seconds` measured while the kernel took `kernel_s`, in reference
    CPU seconds."""
    return seconds * KERNEL_REF_S / kernel_s
