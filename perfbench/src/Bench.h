//===- perfbench/src/Bench.h - End-to-end benchmark shared parts -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark: run options, the result
/// a workload fills, the span recorder of the traced run, the interpreter
/// oracle's digests, and the machine stamp.
///
/// The benchmark drives the program from outside, in one process, through
/// its public entry points only (Engine, SessionManager and, in the traced
/// run, the layer functions themselves). Nothing in the program is
/// instrumented for it.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_PERFBENCH_BENCH_H
#define MAJIC_PERFBENCH_BENCH_H

#include "runtime/Value.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using majic::ValuePtr;

/// Seconds on the monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for stores, session snapshots and the trace file.
  std::string WorkDir;
  /// Interpreter-produced reference digests of the full-size programs.
  std::string ReferenceFile;
};

/// One top-level call or request: which program, how long from the call
/// (or submit) to the result.
struct CallSample {
  std::string Program;
  double Ms = 0;
};

/// Everything one run measures. Workloads append; main() turns it into the
/// printed metrics.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes; ///< first few, printed to stderr
  std::vector<double> SetupSeconds;
  std::vector<CallSample> Calls;
  double WindowSeconds = 0; ///< wall time of the measured loop
  /// Per-layer metrics (traced run only), by metric name.
  std::map<std::string, double> Layer;

  void fail(const std::string &Note);
  void check(bool Ok, const std::string &Note) {
    ++Attempted;
    if (!Ok)
      fail(Note);
  }
};

//===----------------------------------------------------------------------===//
// Traced run: spans recorded around each call into a layer
//===----------------------------------------------------------------------===//

class Tracer {
public:
  struct Span {
    const char *Name;
    double Start = 0, End = 0;
    int32_t Parent = -1;
    uint32_t Request = 0;
  };

  int32_t begin(const char *Name);
  void end(int32_t Id);
  /// Records a finished root span (requests that overlap in time).
  void record(const char *Name, double Start, double End, uint32_t Req);
  /// Spans begun from now on carry request id \p Id.
  void setRequest(uint32_t Id) { Request = Id; }

  /// Per span name: number of spans, summed self seconds (duration minus
  /// the part covered by child spans) and summed inclusive seconds.
  struct Totals {
    uint64_t Count = 0;
    double SelfSeconds = 0;
    double InclusiveSeconds = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Summed self seconds of every span below a root named \p RootName
  /// (the root's own self time excluded).
  double layerSecondsUnder(const char *RootName) const;

  /// Writes the spans as Chrome-trace JSON (chrome://tracing, Perfetto).
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  uint32_t Request = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name) : T(T), Id(T ? T->begin(Name) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

//===----------------------------------------------------------------------===//
// Oracle digests
//===----------------------------------------------------------------------===//

/// FNV-1a over the class, shape and raw bits of every value: equal digests
/// mean bit-identical results.
uint64_t digestValues(const std::vector<ValuePtr> &Vals);
uint64_t digestText(const std::string &S);

/// Reference digests of the full-size compute programs, produced by the
/// tree-walking interpreter (`run.py --regen-reference`).
struct ReferenceEntry {
  uint64_t Values = 0;
  uint64_t Output = 0;
};
using ReferenceTable = std::map<std::string, ReferenceEntry>;
bool readReference(const std::string &Path, ReferenceTable &Out,
                   std::string &Err);
bool writeReference(const std::string &Path);

//===----------------------------------------------------------------------===//
// Machine stamp and process measurements
//===----------------------------------------------------------------------===//

/// Spins 1..nproc workers on identical work and returns the best
/// throughput relative to one worker: how many threads really run at once.
double measureEffectiveParallelism();
/// Threads of this process right now (/proc/self/status).
unsigned processThreads();
/// Peak resident set of this process, in MB.
double peakRssMb();

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload() = default;
  /// Every thread the workload runs: client, engine and service workers,
  /// compute pool and speculation pool.
  virtual unsigned threads() const = 0;
  /// Builds the inputs from the seed and computes or loads the oracle's
  /// references. Not part of set-up time.
  virtual void prepare(RunResult &R) = 0;
  /// One timed set-up (engine or service construction, source load, every
  /// compile and promotion before timing). The last one is kept for
  /// measure(). Returns seconds.
  virtual double setup(Tracer *T, RunResult &R) = 0;
  /// Runs the closed loop for \p Seconds; traced when \p T is non-null.
  virtual void measure(double Seconds, Tracer *T, RunResult &R) = 0;
  /// Fills R.Layer from the layer counters gathered while traced.
  virtual void layerMetrics(const Tracer &T, RunResult &R) = 0;
};

/// The named workload, or null.
std::unique_ptr<Workload> makeWorkload(const Options &O);

/// The corpus programs, in Table 1 order.
const std::vector<std::string> &programNames();

} // namespace perfbench

#endif // MAJIC_PERFBENCH_BENCH_H
