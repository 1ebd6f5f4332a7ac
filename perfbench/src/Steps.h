//===- perfbench/src/Steps.h - Timed calls into the om64 layers -----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operations both workload families run, each wrapped in its span
/// and counted in the run's accounting: cold links from serialized
/// modules, simulator runs, the in-process omlinkd, and the one-module
/// edit stream relinked through it.
///
//===----------------------------------------------------------------------===//

#ifndef OM64_PERFBENCH_STEPS_H
#define OM64_PERFBENCH_STEPS_H

#include "Bench.h"

#include "objfile/Image.h"
#include "om/Incremental.h"
#include "om/Om.h"
#include "service/Daemon.h"
#include "sim/Simulator.h"

#include <functional>
#include <memory>
#include <thread>

namespace om64 {
namespace pb {

/// OM-full with scheduling and loop-target alignment (the paper's
/// OM-full+sched), with one worker per host CPU.
om::OmOptions fullSchedOptions();

/// Sum of the OmStats fields the per-layer metrics report.
struct OmCounters {
  double Optimize = 0, Lift = 0, Transforms = 0, AddrLoads = 0,
         CodeMotion = 0, Assemble = 0;
  uint64_t InstsDeleted = 0, AddrLoadsConverted = 0, AddrLoadsNullified = 0,
           JsrToBsr = 0, BsrFallbackJsrs = 0, BsrRelaxRounds = 0,
           GatBytesAfter = 0, AnalysisDeletions = 0, MemDepsFreed = 0,
           LayoutBlocksMoved = 0, LayoutColdBlocks = 0;
  void addTimes(const om::OmStats &S, double OptimizeSec);
  void addCounts(const om::OmStats &S);
};

/// \p Counts with each stage time replaced by its median over \p Samples.
OmCounters withMedianTimes(OmCounters Counts,
                           const std::vector<OmCounters> &Samples);

/// A cold link from serialized modules to a serialized image: what a
/// from-scratch `omlink` does.
struct ColdLink {
  std::vector<uint8_t> ImageBytes;
  om::OmResult Om;
  double Seconds = 0;      ///< deserialize + optimize + serialize
  double OptimizeSec = 0;
  double DeserializeSec = 0;
  double SerializeSec = 0;
};
ColdLink coldLink(RunContext &Ctx,
                  const std::vector<std::vector<uint8_t>> &Modules,
                  const om::OmOptions &Opts, const std::string &What);

/// om::optimize of already-parsed objects (span om.optimize).
om::OmResult optimize(RunContext &Ctx, const std::vector<obj::ObjectFile> &Objs,
                      const om::OmOptions &Opts, const std::string &What,
                      double *Seconds = nullptr);

enum class SimMode { Timing, Profile, Functional };

/// "timing", "profile" or "functional".
const char *modeName(SimMode M);

/// Host-time totals per simulator mode.
struct SimTotals {
  double Seconds[3] = {0, 0, 0};
  uint64_t Instructions[3] = {0, 0, 0};
  void add(SimMode M, const sim::SimResult &R, double Sec) {
    Seconds[static_cast<int>(M)] += Sec;
    Instructions[static_cast<int>(M)] += R.Instructions;
  }
  void add(const SimTotals &O) {
    for (int I = 0; I < 3; ++I) {
      Seconds[I] += O.Seconds[I];
      Instructions[I] += O.Instructions[I];
    }
  }
  double seconds(SimMode M) const { return Seconds[static_cast<int>(M)]; }
  double mips(SimMode M) const {
    int I = static_cast<int>(M);
    return Seconds[I] > 0 ? static_cast<double>(Instructions[I]) /
                                Seconds[I] / 1e6
                          : 0;
  }
};

/// Runs \p Img in \p Mode (span sim.timing / sim.profile / sim.functional)
/// and adds its host time to \p Totals.
sim::SimResult simulate(RunContext &Ctx, const obj::Image &Img, SimMode Mode,
                        SimTotals &Totals, const std::string &What);

/// Image::deserialize (span objfile.deserialize).
obj::Image loadImage(RunContext &Ctx, const std::vector<uint8_t> &Bytes,
                     const std::string &What);

/// One relink of an edit stream, as its client saw it.
struct RelinkOutcome {
  std::vector<uint8_t> Image;
  bool Warm = false;
  uint64_t Reparsed = 0, Relifted = 0, SummaryHits = 0, SummaryMisses = 0;
  double Seconds = 0;        ///< the client's round trip
  double ServerSeconds = 0;  ///< omlinkd's own time (daemon relinks only)
};

/// Relinks the full module set; \p Changed lists the positions whose bytes
/// differ from the previous call (all of them on the first call).
using RelinkFn = std::function<RelinkOutcome(
    const std::vector<std::vector<uint8_t>> &Mods,
    const std::vector<size_t> &Changed)>;

/// One image that an edit stream relinks: its original module bytes and
/// the from-scratch image of them, plus the module and output file names
/// a daemon relink uses.
struct EditTarget {
  std::string Name;
  std::vector<std::vector<uint8_t>> Original;
  std::vector<uint8_t> ColdImage;
  std::vector<std::string> Paths;
  std::string Output;
};

/// An omlinkd (service::Daemon) served from a thread of this process.
/// The destructor stops the daemon and joins its thread.
class DaemonSession {
public:
  DaemonSession(RunContext &Ctx, const std::string &SocketPath);
  ~DaemonSession();
  DaemonSession(const DaemonSession &) = delete;
  DaemonSession &operator=(const DaemonSession &) = delete;

  /// A RelinkFn that writes the changed module files of \p T, sends one
  /// relink request (the timed round trip) and reads the output image.
  RelinkFn relinker(const EditTarget &T, const om::OmOptions &Opts);

private:
  RunContext &Ctx;
  std::string SocketPath;
  std::unique_ptr<service::Daemon> D;
  std::thread Runner;
  Error RunError;
};

/// A RelinkFn over an in-process om::IncrementalLinker (the engine behind
/// omlinkd, without the socket and the output file).
RelinkFn inProcessRelinker(RunContext &Ctx, om::IncrementalLinker &L,
                           const std::string &What);

/// What the edit streams of a run measured.
struct StreamStats {
  std::vector<double> FirstRelinkSec; ///< one per stream
  std::vector<double> WarmMs, DaemonMs, OverheadMs;
  std::vector<double> Reparsed, Relifted, WarmHits, WarmMisses;
  std::vector<double> FirstHits, FirstMisses;
};

/// An edited module set and the warm image made of it.
struct WarmState {
  std::vector<std::vector<uint8_t>> Modules;
  std::vector<uint8_t> Image;
};

/// Runs one edit stream of \p T through \p Relink: a cold relink of the
/// original modules (must equal T.ColdImage), \p Edits warm relinks each
/// after a seeded one-module megagen::perturbModule edit (each must
/// reparse exactly one module), and a warm relink of the restored
/// originals (must equal T.ColdImage again). When \p Keep is set, the
/// last edited state and its warm image are stored there for
/// checkWarmAgainstScratch.
void runEditStream(RunContext &Ctx, const RelinkFn &Relink,
                   const EditTarget &T, unsigned Edits, uint64_t Seed,
                   StreamStats &Out, WarmState *Keep);

/// From-scratch om::optimize of \p W's modules must reproduce its warm
/// image byte for byte.
void checkWarmAgainstScratch(RunContext &Ctx, const WarmState &W,
                             const om::OmOptions &Opts,
                             const std::string &What);

/// Describes how a simulated run differs from its reference.
std::string mismatch(int64_t Exit, int64_t RefExit, bool SameOutput,
                     bool SameMemory);

/// Adds the per-layer metrics of the edit streams.
void reportStreamLayers(RunContext &Ctx, const StreamStats &S);

/// Adds the OM per-layer metrics.
void reportOmLayers(RunContext &Ctx, const OmCounters &C, double DeserMs,
                    double SerMs);

} // namespace pb
} // namespace om64

#endif // OM64_PERFBENCH_STEPS_H
