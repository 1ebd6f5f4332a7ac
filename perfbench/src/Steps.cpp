//===- perfbench/src/Steps.cpp - Timed calls into the om64 layers ---------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//

#include "Steps.h"

#include "megagen/MegaGen.h"
#include "service/Client.h"
#include "support/FileIO.h"
#include "support/ThreadPool.h"

using namespace om64;
using namespace om64::pb;

om::OmOptions pb::fullSchedOptions() {
  om::OmOptions O;
  O.Level = om::OmLevel::Full;
  O.Reschedule = true;
  O.AlignLoopTargets = true;
  O.Jobs = ThreadPool::defaultConcurrency();
  return O;
}

void OmCounters::addTimes(const om::OmStats &S, double OptimizeSec) {
  Optimize += OptimizeSec;
  Lift += S.Seconds.Lift;
  Transforms += S.Seconds.CallTransforms;
  AddrLoads += S.Seconds.AddressLoads;
  CodeMotion += S.Seconds.CodeMotion;
  Assemble += S.Seconds.Assemble;
}

void OmCounters::addCounts(const om::OmStats &S) {
  InstsDeleted += S.InstructionsDeleted;
  AddrLoadsConverted += S.AddressLoadsConverted;
  AddrLoadsNullified += S.AddressLoadsNullified;
  JsrToBsr += S.JsrConvertedToBsr;
  BsrFallbackJsrs += S.BsrFallbackJsrs;
  BsrRelaxRounds += S.BsrRelaxRounds;
  GatBytesAfter += S.GatBytesAfter;
  AnalysisDeletions += S.AnalysisGpPairsDeleted + S.AnalysisPvLoadsDeleted +
                       S.AnalysisDeadLoadsDeleted;
  MemDepsFreed += S.SchedMemDepsFreed;
  LayoutBlocksMoved += S.LayoutBlocksMoved;
  LayoutColdBlocks += S.LayoutColdBlocks;
}

OmCounters pb::withMedianTimes(OmCounters Counts,
                               const std::vector<OmCounters> &Samples) {
  auto Med = [&](double OmCounters::*Field) {
    std::vector<double> V;
    for (const OmCounters &C : Samples)
      V.push_back(C.*Field);
    return median(V);
  };
  for (double OmCounters::*Field :
       {&OmCounters::Optimize, &OmCounters::Lift, &OmCounters::Transforms,
        &OmCounters::AddrLoads, &OmCounters::CodeMotion,
        &OmCounters::Assemble})
    Counts.*Field = Med(Field);
  return Counts;
}

om::OmResult pb::optimize(RunContext &Ctx,
                          const std::vector<obj::ObjectFile> &Objs,
                          const om::OmOptions &Opts, const std::string &What,
                          double *Seconds) {
  Span Sp("om.optimize");
  double T0 = nowSec();
  Result<om::OmResult> R = om::optimize(Objs, Opts);
  if (Seconds)
    *Seconds = nowSec() - T0;
  return Ctx.take(std::move(R), What + ": om::optimize");
}

ColdLink pb::coldLink(RunContext &Ctx,
                      const std::vector<std::vector<uint8_t>> &Modules,
                      const om::OmOptions &Opts, const std::string &What) {
  ColdLink L;
  double T0 = nowSec();
  std::vector<obj::ObjectFile> Objs;
  Objs.reserve(Modules.size());
  {
    Span Sp("objfile.deserialize");
    for (const std::vector<uint8_t> &B : Modules)
      Objs.push_back(Ctx.take(obj::ObjectFile::deserialize(B),
                              What + ": deserialize module"));
  }
  double T1 = nowSec();
  L.Om = optimize(Ctx, Objs, Opts, What, &L.OptimizeSec);
  double T2 = nowSec();
  {
    Span Sp("objfile.serialize");
    L.ImageBytes = L.Om.Image.serialize();
  }
  double T3 = nowSec();
  L.DeserializeSec = T1 - T0;
  L.SerializeSec = T3 - T2;
  L.Seconds = T3 - T0;
  return L;
}

const char *pb::modeName(SimMode M) {
  static const char *const Names[] = {"timing", "profile", "functional"};
  return Names[static_cast<int>(M)];
}

sim::SimResult pb::simulate(RunContext &Ctx, const obj::Image &Img,
                            SimMode Mode, SimTotals &Totals,
                            const std::string &What) {
  static const char *const Names[] = {"sim.timing", "sim.profile",
                                      "sim.functional"};
  sim::SimConfig Cfg;
  Cfg.Timing = Mode != SimMode::Functional;
  Cfg.Profile = Mode == SimMode::Profile;
  Span Sp(Names[static_cast<int>(Mode)]);
  double T0 = nowSec();
  Result<sim::SimResult> R = sim::run(Img, Cfg);
  double Sec = nowSec() - T0;
  sim::SimResult Out = Ctx.take(std::move(R), What + ": sim::run");
  Totals.add(Mode, Out, Sec);
  return Out;
}

obj::Image pb::loadImage(RunContext &Ctx, const std::vector<uint8_t> &Bytes,
                         const std::string &What) {
  Span Sp("objfile.deserialize");
  return Ctx.take(obj::Image::deserialize(Bytes), What + ": load image");
}

DaemonSession::DaemonSession(RunContext &Ctx, const std::string &SocketPath)
    : Ctx(Ctx), SocketPath(SocketPath) {
  Span Sp("service.start");
  service::DaemonOptions O;
  O.SocketPath = SocketPath;
  D = std::make_unique<service::Daemon>(std::move(O));
  Ctx.expectOk(D->start(), "omlinkd start");
  Runner = std::thread([this] { RunError = D->run(); });
}

DaemonSession::~DaemonSession() {
  Span Sp("service.stop");
  D->requestStop();
  Runner.join();
  Ctx.expectOk(RunError, "omlinkd run");
}

RelinkFn DaemonSession::relinker(const EditTarget &T,
                                 const om::OmOptions &Opts) {
  service::RelinkRequest Req;
  Req.Opts = Opts;
  Req.OutputPath = T.Output;
  Req.InputPaths = T.Paths;
  return [this, &T, Req](const std::vector<std::vector<uint8_t>> &Mods,
                         const std::vector<size_t> &Changed) {
    for (size_t I : Changed) {
      Span Sp("bench.write");
      Ctx.expectOk(writeFile(T.Paths[I], Mods[I]), T.Name + ": write module");
    }
    RelinkOutcome O;
    service::Response R;
    {
      Span Sp("service.relink");
      double T0 = nowSec();
      Result<service::Response> Resp = service::requestRelink(SocketPath, Req);
      O.Seconds = nowSec() - T0;
      R = Ctx.take(std::move(Resp), T.Name + ": relink request");
    }
    if (R.Status != 0)
      Ctx.failOperation(T.Name + ": omlinkd: " + R.Message);
    O.Warm = R.Warm;
    O.Reparsed = R.ModulesReparsed;
    O.Relifted = R.ProcsRelifted;
    O.SummaryHits = R.SummaryRoundHits;
    O.SummaryMisses = R.SummaryRoundMisses;
    O.ServerSeconds = static_cast<double>(R.Micros) / 1e6;
    Span Sp("bench.read");
    O.Image = Ctx.take(readFileBytes(T.Output), "read " + T.Output);
    return O;
  };
}

RelinkFn pb::inProcessRelinker(RunContext &Ctx, om::IncrementalLinker &L,
                               const std::string &What) {
  return [&Ctx, &L, What](const std::vector<std::vector<uint8_t>> &Mods,
                          const std::vector<size_t> &) {
    Span Sp("om.relink");
    double T0 = nowSec();
    Result<om::RelinkResult> R = L.relink(Mods);
    RelinkOutcome O;
    O.Seconds = nowSec() - T0;
    om::RelinkResult RR = Ctx.take(std::move(R), What + ": relink");
    O.Image = std::move(RR.ImageBytes);
    O.Warm = RR.Stats.Warm;
    O.Reparsed = RR.Stats.ModulesReparsed;
    O.Relifted = RR.Stats.ProcsRelifted;
    O.SummaryHits = RR.Stats.SummaryRoundHits;
    O.SummaryMisses = RR.Stats.SummaryRoundMisses;
    return O;
  };
}

/// Replaces one module with a one-instruction edit, starting at \p Idx and
/// rotating past modules perturbModule cannot edit. Returns the index.
static size_t editModule(RunContext &Ctx, const EditTarget &T,
                         std::vector<std::vector<uint8_t>> &Mods, size_t Idx,
                         uint64_t Seed) {
  for (size_t Tried = 0; Tried < Mods.size(); ++Tried) {
    size_t I = (Idx + Tried) % Mods.size();
    obj::ObjectFile O;
    {
      Span Sp("objfile.deserialize");
      O = Ctx.take(obj::ObjectFile::deserialize(Mods[I]),
                   T.Name + ": deserialize for edit");
    }
    bool Edited;
    {
      Span Sp("megagen.perturb");
      Edited = megagen::perturbModule(O, Seed);
    }
    if (!Edited)
      continue;
    Span Sp("objfile.serialize");
    Mods[I] = O.serialize();
    return I;
  }
  Ctx.failOperation(T.Name + ": no module has a perturbable site");
}

void pb::runEditStream(RunContext &Ctx, const RelinkFn &Relink,
                       const EditTarget &T, unsigned Edits, uint64_t Seed,
                       StreamStats &Out, WarmState *Keep) {
  std::vector<size_t> All(T.Original.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  RelinkOutcome R = Relink(T.Original, All);
  Out.FirstRelinkSec.push_back(R.Seconds);
  Out.FirstHits.push_back(static_cast<double>(R.SummaryHits));
  Out.FirstMisses.push_back(static_cast<double>(R.SummaryMisses));
  Ctx.check(!R.Warm, T.Name + ": first relink was warm");
  if (Ctx.planted("cold-relink-byte"))
    R.Image[R.Image.size() / 2] ^= 1;
  Ctx.check(R.Image == T.ColdImage,
            T.Name + ": cold relink differs from the cold link");

  std::vector<std::vector<uint8_t>> Mods = T.Original;
  std::vector<size_t> Touched;
  for (unsigned E = 0; E < Edits; ++E) {
    uint64_t StepSeed = mixSeed(Seed, E);
    size_t I = editModule(Ctx, T, Mods, StepSeed % Mods.size(), StepSeed);
    Touched.push_back(I);
    R = Relink(Mods, {I});
    Ctx.check(R.Warm && R.Reparsed == 1,
              T.Name + ": edited relink was not a one-module warm relink");
    Out.WarmMs.push_back(R.Seconds * 1e3);
    Out.DaemonMs.push_back(R.ServerSeconds * 1e3);
    Out.OverheadMs.push_back((R.Seconds - R.ServerSeconds) * 1e3);
    Out.Reparsed.push_back(static_cast<double>(R.Reparsed));
    Out.Relifted.push_back(static_cast<double>(R.Relifted));
    Out.WarmHits.push_back(static_cast<double>(R.SummaryHits));
    Out.WarmMisses.push_back(static_cast<double>(R.SummaryMisses));
  }
  if (Keep && Edits) {
    Keep->Modules = Mods;
    Keep->Image = R.Image;
  }

  // Restore the originals: the warm relink must come back to the cold
  // image byte for byte.
  R = Relink(T.Original, Touched);
  Ctx.check(R.Warm, T.Name + ": restoring relink was not warm");
  Ctx.check(R.Image == T.ColdImage, T.Name + ": warm relink of the original "
                                             "modules differs from the cold "
                                             "link");
}

void pb::checkWarmAgainstScratch(RunContext &Ctx, const WarmState &W,
                                 const om::OmOptions &Opts,
                                 const std::string &What) {
  ColdLink L = coldLink(Ctx, W.Modules, Opts, What + " from scratch");
  std::vector<uint8_t> Warm = W.Image;
  if (Ctx.planted("warm-byte") && !Warm.empty())
    Warm[Warm.size() / 3] ^= 0x10;
  Ctx.check(Warm == L.ImageBytes,
            What + ": warm relink differs from a from-scratch om::optimize");
}

std::string pb::mismatch(int64_t Exit, int64_t RefExit, bool SameOutput,
                         bool SameMemory) {
  std::string Out;
  if (Exit != RefExit)
    Out += "exit code " + std::to_string(Exit) + " instead of " +
           std::to_string(RefExit) + "; ";
  if (!SameOutput)
    Out += "output differs; ";
  if (!SameMemory)
    Out += "final memory hash differs; ";
  return Out.empty() ? Out : Out.substr(0, Out.size() - 2);
}

void pb::reportStreamLayers(RunContext &Ctx, const StreamStats &S) {
  Ctx.layer("om.modules_reparsed", median(S.Reparsed), Count);
  Ctx.layer("om.procs_relifted", median(S.Relifted), Count);
  Ctx.layer("om.summary_hits", median(S.FirstHits), Count);
  Ctx.layer("om.summary_misses", median(S.FirstMisses), Count);
  Ctx.layer("om.warm_summary_hits", median(S.WarmHits), Count);
  Ctx.layer("om.warm_summary_misses", median(S.WarmMisses), Count);
  Ctx.layer("service.daemon_ms", median(S.DaemonMs), Ms);
  Ctx.layer("service.overhead_ms", median(S.OverheadMs), Ms);
}

void pb::reportOmLayers(RunContext &Ctx, const OmCounters &C, double DeserMs,
                        double SerMs) {
  Ctx.layer("objfile.deserialize_ms", DeserMs, Ms);
  Ctx.layer("objfile.serialize_ms", SerMs, Ms);
  Ctx.layer("om.optimize_s", C.Optimize, Sec);
  Ctx.layer("om.lift_s", C.Lift, Sec);
  Ctx.layer("om.transforms_s", C.Transforms, Sec);
  Ctx.layer("om.addr_loads_s", C.AddrLoads, Sec);
  Ctx.layer("om.code_motion_s", C.CodeMotion, Sec);
  Ctx.layer("om.assemble_s", C.Assemble, Sec);
  Ctx.layer("om.insts_deleted", C.InstsDeleted, Count);
  Ctx.layer("om.addr_loads_converted", C.AddrLoadsConverted, Count);
  Ctx.layer("om.addr_loads_nullified", C.AddrLoadsNullified, Count);
  Ctx.layer("om.jsr_to_bsr", C.JsrToBsr, Count);
  Ctx.layer("om.bsr_fallback_jsrs", C.BsrFallbackJsrs, Count);
  Ctx.layer("om.bsr_relax_rounds", C.BsrRelaxRounds, Count);
  Ctx.layer("om.gat_bytes_after", C.GatBytesAfter, "bytes");
  Ctx.layer("om.analysis_deletions", C.AnalysisDeletions, Count);
  Ctx.layer("sched.mem_deps_freed", C.MemDepsFreed, Count);
  Ctx.layer("om.layout_blocks_moved", C.LayoutBlocksMoved, Count);
  Ctx.layer("om.layout_cold_blocks", C.LayoutColdBlocks, Count);
}
