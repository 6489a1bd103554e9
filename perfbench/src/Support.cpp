//===- perfbench/src/Support.cpp - Spans, digests, machine stamp ----------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Corpus.h"
#include "support/Hashing.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace perfbench;

void RunResult::fail(const std::string &Note) {
  ++Failed;
  if (FailureNotes.size() < 8)
    FailureNotes.push_back(Note);
}

const std::vector<std::string> &perfbench::programNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const majic::BenchmarkSpec &S : majic::benchmarkCorpus())
      N.push_back(S.Name);
    return N;
  }();
  return Names;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int32_t Tracer::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  S.Start = now();
  Spans.push_back(S);
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::end(int32_t Id) {
  Spans[Id].End = now();
  // Spans close in LIFO order; an exception unwinding several scopes
  // closes each one in turn.
  while (!Stack.empty() && Stack.back() >= Id)
    Stack.pop_back();
}

void Tracer::record(const char *Name, double Start, double End,
                    uint32_t Req) {
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Request = Req;
  Spans.push_back(S);
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.End - S.Start;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    double Dur = Spans[I].End - Spans[I].Start;
    ++T.Count;
    T.InclusiveSeconds += Dur;
    T.SelfSeconds += Dur - Covered[I];
  }
  return Out;
}

double Tracer::layerSecondsUnder(const char *RootName) const {
  // A span is under the root when its chain of parents reaches a span of
  // that name; parents precede children, so one forward pass suffices.
  std::vector<char> Under(Spans.size(), 0);
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.End - S.Start;
  double Sum = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    int32_t P = Spans[I].Parent;
    if (P < 0)
      continue;
    Under[I] = Under[P] || std::string(Spans[P].Name) == RootName;
    if (Under[I])
      Sum += (Spans[I].End - Spans[I].Start) - Covered[I];
  }
  return Sum;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  Out << "{\"traceEvents\":[\n";
  char Buf[256];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%u}}\n",
                  I ? "," : "", S.Name, (S.Start - T0) * 1e6,
                  (S.End - S.Start) * 1e6, I, S.Parent, S.Request);
    Out << Buf;
  }
  Out << "]}\n";
  return bool(Out);
}

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

uint64_t perfbench::digestValues(const std::vector<ValuePtr> &Vals) {
  using majic::hashing::fnv1a;
  uint64_t H = fnv1a("values");
  for (const ValuePtr &P : Vals) {
    if (!P) {
      H = fnv1a("null", 4, H);
      continue;
    }
    const majic::Value &V = *P;
    uint64_t Head[3] = {static_cast<uint64_t>(V.mclass()), V.rows(),
                        V.cols()};
    H = fnv1a(Head, sizeof(Head), H);
    H = fnv1a(V.reData(), V.numel() * sizeof(double), H);
    if (V.isComplex())
      H = fnv1a(V.imData(), V.numel() * sizeof(double), H);
  }
  return H;
}

uint64_t perfbench::digestText(const std::string &S) {
  return majic::hashing::fnv1a(S);
}

bool perfbench::readReference(const std::string &Path, ReferenceTable &Out,
                              std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot open reference file " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name, V, O;
    if (!(SS >> Name >> V >> O)) {
      Err = "malformed reference line: " + Line;
      return false;
    }
    Out[Name] = {std::stoull(V, nullptr, 16), std::stoull(O, nullptr, 16)};
  }
  for (const std::string &P : programNames())
    if (!Out.count(P)) {
      Err = "reference file lacks program " + P;
      return false;
    }
  return true;
}

//===----------------------------------------------------------------------===//
// Machine stamp
//===----------------------------------------------------------------------===//

namespace {

uint64_t spin(uint64_t Iters) {
  uint64_t X = 88172645463325252ull;
  for (uint64_t I = 0; I != Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

} // namespace

double perfbench::measureEffectiveParallelism() {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kIters = 12000000; // ~30 ms of one core
  std::vector<uint64_t> Sink(N);
  auto Wall = [&](unsigned Workers) {
    double T0 = now();
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W != Workers; ++W)
      Ts.emplace_back([&, W] { Sink[W] = spin(kIters); });
    for (std::thread &T : Ts)
      T.join();
    return now() - T0;
  };
  // Warm-up on every core: a freshly started process's first threads are
  // placed beside their parent until the scheduler balances them out.
  for (double T0 = now(); now() - T0 < 0.2;)
    Wall(N);
  // Best of five per width, interleaved so a change of clock speed hits
  // every width alike.
  std::vector<double> Best(N + 1, 1e30);
  for (int Rep = 0; Rep != 5; ++Rep)
    for (unsigned W = 1; W <= N; ++W)
      Best[W] = std::min(Best[W], Wall(W));
  double Width = 1;
  for (unsigned W = 2; W <= N; ++W)
    Width = std::max(Width, W * Best[1] / Best[W]);
  return std::min(Width, double(N));
}

unsigned perfbench::processThreads() {
  std::ifstream In("/proc/self/status");
  std::string Key;
  while (In >> Key) {
    if (Key == "Threads:") {
      unsigned N = 0;
      In >> N;
      return N;
    }
    In.ignore(1 << 16, '\n');
  }
  return 0;
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}
