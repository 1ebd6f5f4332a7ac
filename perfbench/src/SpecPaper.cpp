//===- perfbench/src/SpecPaper.cpp - The spec-paper workload --------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 6's pipeline on the 19 SPEC-shaped programs, compiled
/// compile-each. Set-up parses and compiles every program, interprets it
/// (the reference output every simulated image must reproduce) and links
/// the standard-linker image. One measured pass, visiting the programs in
/// a seeded order,
///
///   * cold-links every program at OM-full+sched from serialized modules,
///     three times over (the repeats must be byte-identical);
///   * relinks every program through an om::IncrementalLinker: a cold
///     relink, two seeded one-module edits and a restoring relink (the
///     engine behind omlinkd, called in-process because writing and
///     syncing each output file would take longer than these relinks);
///   * links OM-simple, runs the standard, OM-simple and OM-full+sched
///     images on the timing simulator, profiles the OM-full+sched image,
///     relinks it with hot-cold layout and times the result, and loads and
///     runs the OM-full+sched image on the functional simulator.
///
/// Every simulated image must match lang::interpret on exit code and
/// output.
///
//===----------------------------------------------------------------------===//

#include "Steps.h"

#include "codegen/Codegen.h"
#include "lang/Interp.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "linker/Linker.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <algorithm>

using namespace om64;
using namespace om64::pb;

namespace {

constexpr unsigned LinkReps = 3;
constexpr unsigned EditsPerProgram = 2;

struct Program {
  std::string Name;
  lang::InterpResult Ref;
  obj::Image StdImage;
  EditTarget Target; ///< Original = the serialized compile-each link set
  WarmState Warm;
};

/// Per-setup layer times.
struct SetupTimes {
  double Total = 0, Parse = 0, Interpret = 0, Compile = 0, Link = 0;
};

Program buildProgram(RunContext &Ctx, const std::string &Name,
                     SetupTimes &T) {
  Program P;
  P.Name = Name;
  std::vector<wl::SourceModule> User, Runtime;
  {
    Span Sp("workloads.sources");
    User = wl::workloadSources(Name);
    Runtime = wl::runtimeModules();
  }
  Ctx.check(!User.empty(), Name + ": no sources");

  lang::Program AST;
  std::vector<std::string> UserNames, RuntimeNames;
  double T0 = nowSec();
  {
    Span Sp("lang.parse");
    DiagnosticEngine Diags;
    auto ParseAll = [&](const std::vector<wl::SourceModule> &Srcs,
                        std::vector<std::string> &Names) {
      for (const wl::SourceModule &SM : Srcs) {
        std::optional<lang::Module> M =
            lang::parseModule(SM.Name, SM.Source, Diags);
        Ctx.op();
        if (!M)
          Ctx.failOperation(Name + ": parse " + SM.Name + "\n" +
                            Diags.render());
        Names.push_back(M->Name);
        AST.Modules.push_back(std::move(*M));
      }
    };
    ParseAll(User, UserNames);
    ParseAll(Runtime, RuntimeNames);
    Ctx.op();
    if (!lang::analyzeProgram(AST, Diags) ||
        !lang::checkEntryPoint(AST, Diags))
      Ctx.failOperation(Name + ": semantic errors\n" + Diags.render());
  }
  double T1 = nowSec();
  std::vector<obj::ObjectFile> Objs;
  {
    Span Sp("codegen.compile");
    cg::CompileOptions Opts; // compile-each, scheduled, as in the paper
    Objs = Ctx.take(cg::compileEach(AST, UserNames, Opts),
                    Name + ": compile");
    std::vector<obj::ObjectFile> Lib = Ctx.take(
        cg::compileEach(AST, RuntimeNames, Opts), Name + ": compile runtime");
    Objs.insert(Objs.end(), Lib.begin(), Lib.end());
  }
  double T2 = nowSec();
  {
    Span Sp("lang.interpret");
    P.Ref = lang::interpret(AST);
    Ctx.op();
    if (!P.Ref.Ok)
      Ctx.failOperation(Name + ": interpret: " + P.Ref.Error);
  }
  double T3 = nowSec();
  {
    Span Sp("linker.link");
    P.StdImage = Ctx.take(lnk::link(Objs), Name + ": standard link");
  }
  double T4 = nowSec();
  T.Parse += T1 - T0;
  T.Compile += T2 - T1;
  T.Interpret += T3 - T2;
  T.Link += T4 - T3;

  P.Target.Name = Name;
  for (const obj::ObjectFile &O : Objs) {
    Span Sp("objfile.serialize");
    P.Target.Original.push_back(O.serialize());
  }
  return P;
}

void checkRun(RunContext &Ctx, const Program &P, const sim::SimResult &S,
              const char *Which) {
  Span Sp("bench.check");
  Ctx.check(S.ExitCode == P.Ref.ExitCode && S.Output == P.Ref.Output,
            P.Name + ": " + Which + " image disagrees with lang::interpret: " +
                mismatch(S.ExitCode, P.Ref.ExitCode, S.Output == P.Ref.Output,
                         /*SameMemory=*/true));
}

/// Sums over one pass of the 19 programs.
struct PassTotals {
  std::vector<double> LinkSec; ///< one sum per link repeat
  double FirstRelinkSec = 0, RunSec = 0, DeserSec = 0, SerSec = 0;
  uint64_t TextBytes = 0, Cycles = 0, CyclesLayout = 0, CyclesBase = 0,
           CyclesSimple = 0, ICacheMisses = 0, DCacheMisses = 0,
           DualIssue = 0, Instructions = 0;
  OmCounters Om;
  SimTotals Sims;
};

} // namespace

void pb::runSpecPaper(RunContext &Ctx) {
  const Settings &S = Ctx.S;
  const std::vector<std::string> &Names = wl::workloadNames();

  // --- Set-up, repeated; the last one's programs are used. -------------
  std::vector<Program> Progs;
  std::vector<SetupTimes> Setups;
  tracer().Pass = 0;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Span Sp("bench.setup");
    SetupTimes T;
    double T0 = nowSec();
    std::vector<Program> Built;
    for (const std::string &Name : Names)
      Built.push_back(buildProgram(Ctx, Name, T));
    T.Total = nowSec() - T0;
    Setups.push_back(T);
    Progs = std::move(Built);
  }
  if (Ctx.planted("interp-exit"))
    Progs[0].Ref.ExitCode ^= 1;
  if (Ctx.planted("interp-output"))
    Progs[1].Ref.Output[0] ^= 1;

  // The seed fixes the order programs are visited in and every edit.
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  DetRandom Rng(S.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);

  om::OmOptions Full = fullSchedOptions();
  om::OmOptions Simple = Full;
  Simple.Level = om::OmLevel::Simple;
  Simple.Reschedule = Simple.AlignLoopTargets = false;

  // --- Measured passes. -----------------------------------------------
  std::vector<PassTotals> Passes;
  StreamStats Stream;
  double Start = nowSec();
  for (int Pass = 1;; ++Pass) {
    tracer().Pass = Pass;
    Span PassSpan("bench.pass");
    PassTotals PT;

    // Cold links, the whole suite per repeat.
    std::vector<ColdLink> Links(Progs.size());
    for (unsigned Rep = 0; Rep < LinkReps; ++Rep) {
      double Sum = 0;
      for (size_t Idx : Order) {
        Program &P = Progs[Idx];
        ColdLink L = coldLink(Ctx, P.Target.Original, Full, P.Name);
        Sum += L.Seconds;
        if (Rep == 0) {
          Links[Idx] = std::move(L);
          continue;
        }
        Ctx.check(L.ImageBytes == Links[Idx].ImageBytes,
                  P.Name + ": repeated OM link is not byte-identical");
      }
      PT.LinkSec.push_back(Sum);
    }
    for (size_t Idx : Order) {
      const ColdLink &L = Links[Idx];
      PT.DeserSec += L.DeserializeSec;
      PT.SerSec += L.SerializeSec;
      PT.Om.addTimes(L.Om.Stats, L.OptimizeSec);
      PT.Om.addCounts(L.Om.Stats);
      PT.TextBytes += L.Om.Image.Text.size();
      Progs[Idx].Target.ColdImage = L.ImageBytes;
    }

    // Edit streams through a fresh IncrementalLinker per program.
    for (size_t Idx : Order) {
      Program &P = Progs[Idx];
      om::IncrementalLinker IL(Full);
      size_t Before = Stream.FirstRelinkSec.size();
      runEditStream(Ctx, inProcessRelinker(Ctx, IL, P.Name), P.Target,
                    EditsPerProgram, mixSeed(S.Seed, Pass * 1000 + Idx),
                    Stream, &P.Warm);
      PT.FirstRelinkSec += Stream.FirstRelinkSec[Before];
    }

    // Figure 6: every image on the simulators.
    for (size_t Idx : Order) {
      Program &P = Progs[Idx];
      const obj::Image &Img = Links[Idx].Om.Image;
      ColdLink LS = coldLink(Ctx, P.Target.Original, Simple, P.Name);

      sim::SimResult RB =
          simulate(Ctx, P.StdImage, SimMode::Timing, PT.Sims, P.Name);
      checkRun(Ctx, P, RB, "standard");
      sim::SimResult RS =
          simulate(Ctx, LS.Om.Image, SimMode::Timing, PT.Sims, P.Name);
      checkRun(Ctx, P, RS, "OM-simple");
      sim::SimResult RF = simulate(Ctx, Img, SimMode::Timing, PT.Sims, P.Name);
      checkRun(Ctx, P, RF, "OM-full+sched");
      PT.Cycles += RF.Cycles;
      PT.CyclesBase += RB.Cycles;
      PT.CyclesSimple += RS.Cycles;
      PT.ICacheMisses += RF.ICacheMisses;
      PT.DCacheMisses += RF.DCacheMisses;
      PT.DualIssue += RF.DualIssuePairs;

      sim::SimResult RP =
          simulate(Ctx, Img, SimMode::Profile, PT.Sims, P.Name);
      checkRun(Ctx, P, RP, "profiled OM-full+sched");
      om::OmOptions Layout = Full;
      Layout.HotColdLayout = true;
      Layout.Profile = std::move(RP.Profile);
      ColdLink LL = coldLink(Ctx, P.Target.Original, Layout, P.Name);
      PT.Om.LayoutBlocksMoved += LL.Om.Stats.LayoutBlocksMoved;
      PT.Om.LayoutColdBlocks += LL.Om.Stats.LayoutColdBlocks;
      sim::SimResult RL =
          simulate(Ctx, LL.Om.Image, SimMode::Timing, PT.Sims, P.Name);
      checkRun(Ctx, P, RL, "hot-cold layout");
      PT.CyclesLayout += RL.Cycles;

      double T0 = nowSec();
      obj::Image Loaded = loadImage(Ctx, Links[Idx].ImageBytes, P.Name);
      sim::SimResult RFn =
          simulate(Ctx, Loaded, SimMode::Functional, PT.Sims, P.Name);
      PT.RunSec += nowSec() - T0;
      checkRun(Ctx, P, RFn, "functional OM-full+sched");
      PT.Instructions += RB.Instructions + RS.Instructions +
                         RF.Instructions + RP.Instructions +
                         RL.Instructions + RFn.Instructions;
    }

    if (!Passes.empty()) {
      const PassTotals &F = Passes.front();
      Ctx.check(PT.TextBytes == F.TextBytes && PT.Cycles == F.Cycles &&
                    PT.CyclesLayout == F.CyclesLayout &&
                    PT.Instructions == F.Instructions,
                "a later pass changed text size, cycles or instructions");
    }
    Passes.push_back(std::move(PT));
    double Elapsed = nowSec() - Start;
    if (Elapsed + Elapsed / Pass > S.Seconds)
      break;
  }

  // --- Checks outside the timed passes. ------------------------------
  tracer().Pass = -1;
  {
    Span Sp("bench.checks");
    om::OmOptions J1 = Full;
    J1.Jobs = 1;
    om::OmOptions JN = Full;
    JN.SerialFallbackInsts = 0; // force the parallel pipeline
    for (Program &P : Progs) {
      checkWarmAgainstScratch(Ctx, P.Warm, Full, P.Name);
      ColdLink A = coldLink(Ctx, P.Target.Original, J1, P.Name + " -j1");
      ColdLink B = coldLink(Ctx, P.Target.Original, JN, P.Name + " -jN");
      if (Ctx.planted("jobs-byte"))
        A.ImageBytes[A.ImageBytes.size() / 2] ^= 4;
      Ctx.check(A.ImageBytes == P.Target.ColdImage &&
                    B.ImageBytes == P.Target.ColdImage,
                P.Name + ": -j1 and -jN images are not byte-identical");
    }
  }

  // --- Metrics. -------------------------------------------------------
  auto PassMedian = [&](auto Field) {
    std::vector<double> V;
    for (const PassTotals &PT : Passes)
      V.push_back(Field(PT));
    return median(V);
  };
  auto SetupMedian = [&](auto Field) {
    std::vector<double> V;
    for (const SetupTimes &T : Setups)
      V.push_back(Field(T));
    return median(V);
  };
  const PassTotals &P0 = Passes.front();
  std::vector<double> LinkSums;
  for (const PassTotals &PT : Passes)
    LinkSums.insert(LinkSums.end(), PT.LinkSec.begin(), PT.LinkSec.end());

  Ctx.e2e("setup_s", SetupMedian([](const SetupTimes &T) { return T.Total; }),
          Sec);
  Ctx.e2e("link_s", median(LinkSums), Sec);
  Ctx.e2e("first_relink_s",
          PassMedian([](const PassTotals &T) { return T.FirstRelinkSec; }),
          Sec);
  Ctx.e2e("relink_ms", median(Stream.WarmMs), Ms);
  Ctx.e2e("run_ms",
          PassMedian([](const PassTotals &T) { return T.RunSec; }) * 1e3, Ms);
  Ctx.e2e("text_bytes", static_cast<double>(P0.TextBytes), "bytes");
  Ctx.e2e("cycles", static_cast<double>(P0.Cycles), "cycles");
  Ctx.e2e("cycles_layout", static_cast<double>(P0.CyclesLayout), "cycles");
  // A rate over all the passes' runs: the host's speed drifts over
  // seconds, and the whole-run rate averages that drift out.
  SimTotals Sims;
  for (const PassTotals &PT : Passes)
    Sims.add(PT.Sims);
  for (SimMode M : {SimMode::Timing, SimMode::Profile, SimMode::Functional})
    Ctx.e2e(std::string(modeName(M)) + "_mips", Sims.mips(M), "MIPS");
  Ctx.e2e("peak_rss_mb", peakRssMb(), "MB");

  Ctx.layer("lang.parse_s",
            SetupMedian([](const SetupTimes &T) { return T.Parse; }), Sec);
  Ctx.layer("lang.interpret_s",
            SetupMedian([](const SetupTimes &T) { return T.Interpret; }), Sec);
  Ctx.layer("codegen.compile_s",
            SetupMedian([](const SetupTimes &T) { return T.Compile; }), Sec);
  Ctx.layer("megagen.generate_s", 0, Sec);
  Ctx.layer("linker.link_s",
            SetupMedian([](const SetupTimes &T) { return T.Link; }), Sec);
  std::vector<OmCounters> Times;
  for (const PassTotals &PT : Passes)
    Times.push_back(PT.Om);
  OmCounters Om = withMedianTimes(P0.Om, Times);
  reportOmLayers(
      Ctx, Om,
      PassMedian([](const PassTotals &T) { return T.DeserSec; }) * 1e3,
      PassMedian([](const PassTotals &T) { return T.SerSec; }) * 1e3);
  reportStreamLayers(Ctx, Stream);
  for (SimMode M : {SimMode::Timing, SimMode::Profile, SimMode::Functional})
    Ctx.layer(std::string("sim.") + modeName(M) + "_s",
              PassMedian(
                  [M](const PassTotals &T) { return T.Sims.seconds(M); }),
              Sec);
  Ctx.layer("sim.instructions", static_cast<double>(P0.Instructions), Count);
  Ctx.layer("sim.icache_misses", static_cast<double>(P0.ICacheMisses), Count);
  Ctx.layer("sim.dcache_misses", static_cast<double>(P0.DCacheMisses), Count);
  Ctx.layer("sim.dual_issue_pairs", static_cast<double>(P0.DualIssue), Count);
  Ctx.layer("sim.cycles_baseline", static_cast<double>(P0.CyclesBase),
            "cycles");
  Ctx.layer("sim.cycles_simple", static_cast<double>(P0.CyclesSimple),
            "cycles");
  Ctx.layer("bench.passes", static_cast<double>(Passes.size()), Count);
}
