//===- Kernel.h - Reference kernel for drift normalisation ------*- C++ -*-===//
///
/// \file
/// The benchmark's host runs at a speed that drifts by tens of percent over
/// minutes, and neither hardware instruction counters nor valgrind are
/// available to count work instead of time. So every timed duration is
/// divided by the speed of a fixed single-threaded reference kernel
/// sampled just before and just after it, and multiplied by the kernel's
/// time on the machine the benchmark was calibrated on. Each metric thus
/// stays in seconds, at the calibration machine's speed.
///
/// The kernel mixes the verifier's dominant costs: a depth-first search
/// with hash-set probes of visited states (the useless-state cache and
/// intern tables), small allocations, string-keyed counter updates, and a
/// sort.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNEL_H
#define PERFBENCH_KERNEL_H

namespace perfbench {

/// Median reference-kernel sample, in seconds, on the calibration machine
/// (4-core 2.0 GHz Xeon VM, RelWithDebInfo, asserts on). Raw durations are
/// scaled to this speed.
inline constexpr double RefNominalSeconds = 0.0075;

/// Times one reference-kernel sample: the median of five repetitions of
/// a fixed search-and-sort job. Deterministic work; only its duration
/// varies with the machine's speed.
double sampleKernel();

/// Scales a raw duration to the calibration machine's speed:
/// Raw * RefNominal / mean(RefBefore, RefAfter).
double normalise(double Raw, double RefBefore, double RefAfter,
                 double RefNominal = RefNominalSeconds);

/// True when two adjacent kernel samples differ by more than 2x: the
/// machine's speed changed under the work between them, so normalising
/// that work by their mean is unreliable.
bool speedChanged(double RefBefore, double RefAfter);

} // namespace perfbench

#endif // PERFBENCH_KERNEL_H
