//===- perfbench/src/Bench.h - Harness shared by the workloads ------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every perfbench workload shares: the run context (operation
/// accounting, planted faults, the result line), the span recorder that
/// times each call into an om64 layer from outside, and small helpers for
/// medians and timing.
///
/// Spans are recorded only in a traced run (--trace 1). An untraced run
/// still brackets the same calls, but a disabled span is two branches and
/// no clock read, so the end-to-end figures of the two runs differ by the
/// recorder's overhead alone.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_PERFBENCH_BENCH_H
#define OM64_PERFBENCH_BENCH_H

#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace om64 {
namespace pb {

/// Seconds on the monotonic clock.
inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of \p V (0 when empty); averages the middle pair.
double median(std::vector<double> V);

/// One named measurement with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// A recorded span: one call into one layer, or a harness phase.
struct SpanRecord {
  std::string Name; ///< "<layer>.<call>", e.g. "om.optimize"
  double Start = 0, End = 0;
  int Parent = -1; ///< index of the enclosing span, -1 at top level
  int Pass = 0;    ///< 0 = setup, 1.. = measured rounds, -1 = checks
};

/// Records spans when enabled; otherwise every operation is a no-op.
/// Single-threaded: the benchmark makes all its layer calls from the main
/// thread (the in-process daemon's work shows up inside the client's
/// service.* span).
class Tracer {
public:
  bool Enabled = false;
  int Pass = 0;

  int begin(const char *Name);
  void end(int Id);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self time per layer (span duration minus the time its direct
  /// children cover), keyed by the span name's prefix before the first
  /// dot.
  std::map<std::string, double> layerSelfSeconds() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, one per
  /// span, parent and pass in args).
  Error writeChromeTrace(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<int> Stack;
};

Tracer &tracer();

/// RAII span around one call into a layer.
class Span {
public:
  explicit Span(const char *Name)
      : Id(tracer().Enabled ? tracer().begin(Name) : -1) {}
  ~Span() {
    if (Id >= 0)
      tracer().end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id;
};

/// Command-line settings of one run.
struct Settings {
  std::string Workload;
  uint64_t Seed = 1;        ///< edit-stream seed (and spec-paper order)
  uint64_t MegagenSeed = 1; ///< megagen::MegaSpec::Seed
  double Seconds = 10;      ///< measured time per run
  bool Trace = false;
  std::string TraceOut;     ///< Chrome trace path (traced runs)
  std::set<std::string> Plant; ///< planted faults (self-test only)
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 3;

/// Operation accounting and the result line. A failed operation or a
/// wrong output ends the run at once: the result line is printed with
/// what was counted so far and the process exits 1.
class RunContext {
public:
  explicit RunContext(const Settings &S) : S(S) {}

  const Settings &S;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// True when the self-test planted \p Fault in this run.
  bool planted(const char *Fault) const { return S.Plant.count(Fault); }

  /// Counts one operation.
  void op() { ++Attempted; }

  /// Counts one check: an operation whose failure means a wrong output.
  void check(bool Ok, const std::string &What);

  /// Counts one operation that returned \p R; a failure ends the run.
  template <typename T> T take(Result<T> R, const std::string &What) {
    ++Attempted;
    if (!R)
      failOperation(What + ": " + R.message());
    return R.take();
  }
  void expectOk(const Error &E, const std::string &What) {
    ++Attempted;
    if (E)
      failOperation(What + ": " + E.message());
  }

  [[noreturn]] void failOperation(const std::string &Message);

  void e2e(const std::string &Name, double Value, const char *Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const char *Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }

  /// Prints the result line (last line of stdout) and, in a traced run,
  /// the traced end-to-end values and the per-layer self-time table
  /// before it.
  void finish();

private:
  [[noreturn]] void abortRun(bool Correct);
};

/// Units used by both workload families.
constexpr const char *Sec = "s";
constexpr const char *Ms = "ms";
constexpr const char *Count = "count";

/// Writes \p Bytes to \p Path (plain write, no fsync: module files are
/// inputs, and their set-up time should not depend on the disk's flush
/// latency).
Error writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes);

/// Peak resident set of this process in MB.
double peakRssMb();

/// Hash helper for deriving per-step seeds.
uint64_t mixSeed(uint64_t A, uint64_t B);

void runSpecPaper(RunContext &Ctx);
void runMegaEdit(RunContext &Ctx, bool ChainAnalysis);

} // namespace pb
} // namespace om64

#endif // OM64_PERFBENCH_BENCH_H
