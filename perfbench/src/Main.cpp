//===- perfbench/src/Main.cpp - End-to-end benchmark main -------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--work-dir DIR] [--reference FILE]
/// perfbench --regen-reference FILE
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
/// runs report the end-to-end metrics; traced runs (--trace 1) report the
/// per-layer metrics. The line before it stamps the seed and the machine.
/// Exit status: 0 when every output matched the interpreter, 1 when one
/// did not (the result line is still printed), 2 on bad usage, 3 when the
/// workload needs more threads than the machine measurably runs at once,
/// 4 when the run could not complete.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/ResourceGuard.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

using namespace perfbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Per-layer metrics read from span self times: mean milliseconds per
/// entry into the layer.
const std::pair<const char *, const char *> kSpanMetrics[] = {
    {"ast.parse_ms", "ast.parse"},
    {"analysis.disambiguate_ms", "analysis.disambiguate"},
    {"analysis.inline_ms", "analysis.inline"},
    {"infer.infer_ms", "infer.infer"},
    {"infer.speculate_ms", "infer.speculate"},
    {"backend.codegen_ms", "backend.codegen"},
    {"backend.optimize_ms", "backend.optimize"},
    {"backend.regalloc_ms", "backend.regalloc"},
    {"backend.vm_exec_ms", "backend.vm_exec"},
    {"interp.exec_ms", "interp.exec"},
    {"native.emit_ms", "native.emit"},
    {"native.cc_ms", "native.cc"},
    {"native.load_ms", "native.load"},
    {"native.exec_ms", "native.exec"},
    {"repo.store_save_ms", "repo.store_save"},
    {"repo.store_load_ms", "repo.store_load"},
    {"service.snapshot_save_ms", "service.snapshot_save"},
    {"service.snapshot_load_ms", "service.snapshot_load"},
};

/// Per-layer metrics workloads fill in themselves, with their units. A
/// layer a workload does not enter (or cannot observe from outside)
/// reads 0.
const std::pair<const char *, const char *> kCountMetrics[] = {
    {"infer.safe_subscript_frac", "ratio"},
    {"ir.instrs", "count"},
    {"backend.spills", "count"},
    {"backend.vm_instrs", "count"},
    {"backend.fused_ops", "count"},
    {"native.served_frac", "ratio"},
    {"native.deopts", "count"},
    {"native.failures", "count"},
    {"native.vs_vm_min", "ratio"},
    {"native.slower_than_vm", "count"},
    {"repo.lookup_hit_ratio", "ratio"},
    {"repo.store_adopted", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.shared_cache_hit_ratio", "ratio"},
    {"service.hibernate_ms", "ms"},
    {"service.resurrect_ms", "ms"},
    {"service.hibernates", "count"},
    {"service.resurrects", "count"},
    {"service.rejected", "count"},
    {"engine.jit_compiles", "count"},
    {"engine.deopts", "count"},
    {"engine.interp_fallbacks", "count"},
    {"engine.spec_inflight_interpreted", "count"},
    {"engine.unattributed_frac", "ratio"},
};

double finite(double V) { return std::isfinite(V) ? V : 0; }

std::map<std::string, std::vector<double>> msByProgram(const RunResult &R) {
  std::map<std::string, std::vector<double>> By;
  for (const CallSample &C : R.Calls)
    By[C.Program].push_back(C.Ms);
  return By;
}

std::vector<Metric> endToEnd(const RunResult &R) {
  std::vector<double> Ms;
  for (const CallSample &C : R.Calls)
    Ms.push_back(C.Ms);
  // Geometric mean over corpus programs of each one's median call time.
  double LogSum = 0;
  unsigned N = 0;
  auto By = msByProgram(R);
  for (const std::string &P : programNames()) {
    auto It = By.find(P);
    if (It == By.end())
      continue;
    LogSum += std::log(median(It->second));
    ++N;
  }
  return {
      {"setup_s", median(R.SetupSeconds), "s"},
      {"call_ms_p50", percentile(Ms, 50), "ms"},
      {"call_ms_p99", percentile(Ms, 99), "ms"},
      {"calls_per_s", R.WindowSeconds > 0 ? Ms.size() / R.WindowSeconds : 0,
       "1/s"},
      {"geomean_ms", N ? std::exp(LogSum / N) : 0, "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

std::vector<Metric> perLayer(const RunResult &R, const Tracer &T,
                             double Parallelism, unsigned Threads) {
  std::vector<Metric> Out;
  auto Totals = T.totals();
  for (const auto &[Metric, Span] : kSpanMetrics) {
    auto It = Totals.find(Span);
    double V = It == Totals.end()
                   ? 0
                   : 1e3 * It->second.SelfSeconds / It->second.Count;
    Out.push_back({Metric, V, "ms"});
  }
  for (const auto &[Metric, Unit] : kCountMetrics) {
    auto It = R.Layer.find(Metric);
    Out.push_back({Metric, It == R.Layer.end() ? 0 : It->second, Unit});
  }
  Out.push_back({"runtime.matrix_peak_mb",
                 majic::mem::peakBytes() / (1024.0 * 1024.0), "MB"});
  Out.push_back({"obs.trace_overhead_frac", R.Layer.at("obs.trace_overhead_frac"),
                 "ratio"});
  Out.push_back({"failed_frac",
                 R.Attempted ? double(R.Failed) / R.Attempted : 1, "ratio"});
  Out.push_back({"machine.effective_parallelism", Parallelism, "ratio"});
  Out.push_back({"machine.threads", double(Threads), "count"});
  auto By = msByProgram(R);
  for (const std::string &P : programNames()) {
    auto It = By.find(P);
    Out.push_back({"program." + P + ".ms",
                   It == By.end() ? 0 : median(It->second), "ms"});
  }
  return Out;
}

void printResult(const RunResult &R, const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += R.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(R.Attempted);
  S += ", \"failed\": " + std::to_string(R.Failed);
  S += ", \"metrics\": {";
  char Buf[256];
  for (size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(), finite(Ms[I].Value),
                  Ms[I].Unit.c_str());
    S += Buf;
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
}

void printTable(const std::vector<Metric> &Ms, const RunResult &R) {
  std::fprintf(stderr, "%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric &M : Ms)
    std::fprintf(stderr, "%-36s %16.6g  %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::fprintf(stderr, "samples: %zu calls, %zu set-ups, %.2f s measured\n",
               R.Calls.size(), R.SetupSeconds.size(), R.WindowSeconds);
  for (const std::string &N : R.FailureNotes)
    std::fprintf(stderr, "FAILED: %s\n", N.c_str());
}

/// Threads that measurably run at once.
unsigned width(double Parallelism) {
  return static_cast<unsigned>(std::floor(Parallelism + 0.5));
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--reference FILE]\n"
               "       perfbench --regen-reference FILE\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.WorkDir = ".bench_build/perfbench-work";
  O.ReferenceFile = "perfbench/reference_digests.txt";
  std::string Regen;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--reference")
      O.ReferenceFile = V;
    else if (A == "--regen-reference")
      Regen = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  try {
    if (!Regen.empty())
      return writeReference(Regen) ? 0 : 4;

    std::unique_ptr<Workload> W = makeWorkload(O);
    if (!W)
      return usage(("unknown workload '" + O.Workload + "'").c_str());
    if (O.Seconds <= 0)
      return usage("--seconds must be positive");
    std::filesystem::create_directories(O.WorkDir);

    // Machine stamp: measured, not trusted, parallelism. A refusal is
    // confirmed by two more calibrations first: the width is the best of
    // them, what the machine can give when neighbours let it.
    double Parallelism = measureEffectiveParallelism();
    for (int Retry = 0; Retry != 2 && W->threads() > width(Parallelism);
         ++Retry)
      Parallelism = std::max(Parallelism, measureEffectiveParallelism());
    unsigned Width = width(Parallelism);
    std::printf("{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"machine\": {\"nproc\": %u, "
                "\"effective_parallelism\": %.3f, \"width\": %u, "
                "\"workload_threads\": %u}}}\n",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                O.Seconds, O.Trace ? 1 : 0,
                std::thread::hardware_concurrency(), Parallelism, Width,
                W->threads());
    std::fflush(stdout);
    if (W->threads() > Width) {
      std::fprintf(stderr,
                   "perfbench: %s runs %u threads but only %.2f run at once "
                   "on this machine; refusing to measure contention\n",
                   O.Workload.c_str(), W->threads(), Parallelism);
      return 3;
    }

    RunResult R;
    Tracer T;
    W->prepare(R);
    // setup_s is the median of several set-ups; the last one is measured.
    constexpr unsigned Setups = 3;
    for (unsigned I = 0; I != Setups; ++I)
      R.SetupSeconds.push_back(
          W->setup(O.Trace && I + 1 == Setups ? &T : nullptr, R));
    unsigned Threads = processThreads();

    std::vector<Metric> Ms;
    if (!O.Trace) {
      W->measure(O.Seconds, nullptr, R);
      Ms = endToEnd(R);
    } else {
      // Half the window untraced, half traced: the traced run's cost per
      // call against the untraced one is the tracing overhead.
      W->measure(O.Seconds / 2, nullptr, R);
      size_t Calls0 = R.Calls.size();
      double Window0 = R.WindowSeconds;
      W->measure(O.Seconds / 2, &T, R);
      double PerCall0 = Window0 / std::max<size_t>(1, Calls0);
      double PerCall1 = (R.WindowSeconds - Window0) /
                        std::max<size_t>(1, R.Calls.size() - Calls0);
      R.Layer["obs.trace_overhead_frac"] = PerCall1 / PerCall0 - 1;
      W->layerMetrics(T, R);
      std::string TracePath = O.WorkDir + "/trace-" + O.Workload + "-" +
                              std::to_string(O.Seed) + ".json";
      if (!T.writeChromeTrace(TracePath))
        std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
      Ms = perLayer(R, T, Parallelism, std::max(Threads, processThreads()));
    }
    printTable(Ms, R);
    printResult(R, Ms);
    return R.Failed == 0 ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 4;
  } catch (...) {
    std::fprintf(stderr, "perfbench: the run raised an unexpected error\n");
    return 4;
  }
}
