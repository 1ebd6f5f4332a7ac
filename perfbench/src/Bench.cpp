//===- perfbench/src/Bench.cpp - Harness shared by the workloads ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <sys/resource.h>

using namespace om64;
using namespace om64::pb;

double pb::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

Tracer &pb::tracer() {
  static Tracer T;
  return T;
}

int Tracer::begin(const char *Name) {
  SpanRecord R;
  R.Name = Name;
  R.Parent = Stack.empty() ? -1 : Stack.back();
  R.Pass = Pass;
  R.Start = nowSec();
  Spans.push_back(std::move(R));
  int Id = static_cast<int>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Spans[Id].End = nowSec();
  // Spans close in LIFO order (RAII on one thread).
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

static std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

std::map<std::string, double> Tracer::layerSelfSeconds() const {
  std::vector<double> ChildCover(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildCover[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[layerOf(Spans[I].Name)] +=
        Spans[I].End - Spans[I].Start - ChildCover[I];
  return Self;
}

Error Tracer::writeChromeTrace(const std::string &Path) const {
  double Origin = Spans.empty() ? 0 : Spans.front().Start;
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out += formatString(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
        "\"parent\": %d, \"pass\": %d}}%s\n",
        S.Name.c_str(), layerOf(S.Name).c_str(), (S.Start - Origin) * 1e6,
        (S.End - S.Start) * 1e6, I, S.Parent, S.Pass,
        I + 1 < Spans.size() ? "," : "");
  }
  Out += "]}\n";
  return writeFile(Path, std::vector<uint8_t>(Out.begin(), Out.end()));
}

void RunContext::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  abortRun(/*Correct=*/false);
}

void RunContext::failOperation(const std::string &Message) {
  ++Failed;
  std::fprintf(stderr, "perfbench: operation failed: %s\n", Message.c_str());
  abortRun(/*Correct=*/true);
}

/// Shortest decimal form that reads back as the same double.
static std::string number(double V) {
  char Buf[64];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

static std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += formatString("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        I ? ", " : "", Ms[I].Name.c_str(),
                        number(Ms[I].Value).c_str(), Ms[I].Unit.c_str());
  return Out + "}";
}

void RunContext::abortRun(bool Correct) {
  // The in-process daemon may still be running on its own thread; end the
  // process without unwinding so no destructor races it.
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {}}\n",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  std::fflush(stdout);
  std::_Exit(1);
}

/// The om64 modules the benchmark calls into, plus "bench" for its own
/// harness work (set-up bookkeeping, file writes, output comparisons).
static const char *const Layers[] = {"workloads", "lang",   "codegen",
                                     "megagen",   "objfile", "linker",
                                     "om",        "service", "sim",
                                     "bench"};

void RunContext::finish() {
  const std::vector<Metric> *Reported = &EndToEnd;
  if (S.Trace) {
    // Traced end-to-end values, for comparison with an untraced run of
    // the same seed (perfbench/run.py prints the two side by side).
    std::printf("traced-e2e %s\n", metricsJson(EndToEnd).c_str());
    std::map<std::string, double> Self = tracer().layerSelfSeconds();
    double Total = 0;
    for (const auto &[Layer, Sec] : Self)
      Total += Sec;
    std::printf("\nself time by layer (%zu spans)\n", tracer().spans().size());
    std::printf("  %-10s %10s %7s\n", "layer", "self s", "share");
    // Every layer is reported on every workload, 0 where it is not called.
    for (const char *Layer : Layers) {
      double Sec = Self.count(Layer) ? Self[Layer] : 0.0;
      std::printf("  %-10s %10.4f %6.1f%%\n", Layer, Sec,
                  Total > 0 ? 100.0 * Sec / Total : 0.0);
      PerLayer.push_back({std::string("self.") + Layer + "_s", Sec, "s"});
    }
    if (!S.TraceOut.empty())
      if (Error E = tracer().writeChromeTrace(S.TraceOut))
        failOperation("write trace: " + E.message());
    std::printf("trace: %s\n\n", S.TraceOut.c_str());
    Reported = &PerLayer;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              (unsigned long long)Attempted, (unsigned long long)Failed,
              metricsJson(*Reported).c_str());
  std::fflush(stdout);
}

Error pb::writeFile(const std::string &Path,
                    const std::vector<uint8_t> &Bytes) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(reinterpret_cast<const char *>(Bytes.data()),
          static_cast<std::streamsize>(Bytes.size()));
  F.close();
  if (!F)
    return Error::failure("cannot write " + Path);
  return Error::success();
}

double pb::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t pb::mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9e3779b97f4a7c15ull + B + 0x632be59bd9b4e019ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}
