//===- perfbench/src/MegaEdit.cpp - mega-edit and chain-analysis ----------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two megagen workloads. Set-up generates the program, writes its
/// module files, links it with the standard linker and runs that image on
/// the functional simulator: its exit code, output and canonical memory
/// hash are the reference. One measured round then
///
///   * cold-links the modules at OM-full+sched (deserialize, optimize,
///     serialize), checking OM's counters against the megagen census;
///   * loads the image and runs it on the functional simulator, then on
///     the timing simulator and the profiling simulator, each checked
///     against the reference;
///   * starts an in-process omlinkd and relinks through it: a cold relink,
///     a stream of seeded one-module edits, and a restoring relink.
///
/// After the rounds, a from-scratch link of one edited state must equal
/// its warm image, -j1 must equal -jN (mega-edit), and the standard,
/// OM-simple and hot-cold layout images give the remaining cycle counts.
///
/// mega-edit links the 1.05M-instruction mixed program; chain-analysis
/// links the 262,144-instruction deep-chains program with OmOptions::
/// Analysis, whose summary fixpoint dominates its cold link.
///
//===----------------------------------------------------------------------===//

#include "Steps.h"

#include "linker/Linker.h"
#include "megagen/MegaGen.h"
#include "om/Verify.h"

#include <filesystem>

using namespace om64;
using namespace om64::pb;

namespace {

struct Reference {
  int64_t ExitCode = 0;
  std::string Output;
  uint64_t MemoryHash = 0;
};

struct SetupTimes {
  double Total = 0, Generate = 0, Link = 0;
};

struct RoundTimes {
  double LinkSec = 0, DeserSec = 0, SerSec = 0;
  OmCounters Om;
  SimTotals Sims;
};

void checkAgainst(RunContext &Ctx, const Reference &Ref,
                  const obj::Image &Img, const sim::SimResult &R,
                  const std::string &What) {
  Span Sp("bench.check");
  uint64_t Hash = om::canonicalMemoryHash(Img, R.FinalData);
  Ctx.check(R.ExitCode == Ref.ExitCode && R.Output == Ref.Output &&
                Hash == Ref.MemoryHash,
            What + " disagrees with the standard-linker image: " +
                mismatch(R.ExitCode, Ref.ExitCode, R.Output == Ref.Output,
                         Hash == Ref.MemoryHash));
}

} // namespace

void pb::runMegaEdit(RunContext &Ctx, bool ChainAnalysis) {
  const Settings &S = Ctx.S;
  megagen::MegaSpec Spec;
  Spec.Seed = S.MegagenSeed;
  Spec.Modules = 64;
  Spec.ProcsPerModule = 16;
  if (ChainAnalysis) {
    Spec.Shape = megagen::CallShape::DeepChains;
    Spec.TargetInstructions = 262144;
  } else {
    Spec.Shape = megagen::CallShape::Mixed;
    Spec.TargetInstructions = 1050000;
  }
  // Simulator runs of the cold image and warm relinks per round.
  // chain-analysis's cold link takes ~4 s, so it runs few rounds; more
  // of the cheap operations per round give its medians more samples.
  const unsigned SimReps = ChainAnalysis ? 10 : 3;
  const unsigned Edits = ChainAnalysis ? 8 : 3;
  const std::string Name = ChainAnalysis ? "chain-analysis" : "mega-edit";

  om::OmOptions Opts = fullSchedOptions();
  Opts.Analysis = ChainAnalysis;

  // --- Set-up, repeated; the last one's inputs are used. ---------------
  megagen::MegaSummary Census;
  EditTarget Target;
  obj::Image StdImage;
  Reference Ref;
  std::vector<SetupTimes> Setups;
  SimTotals SetupSims;
  std::filesystem::create_directories("mega");
  tracer().Pass = 0;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Span Sp("bench.setup");
    SetupTimes T;
    double T0 = nowSec();
    megagen::MegaProgram MP;
    {
      Span G("megagen.generate");
      MP = megagen::generate(Spec);
      Ctx.op();
    }
    double T1 = nowSec();
    Census = MP.Summary;
    Target = EditTarget();
    Target.Name = Name;
    Target.Output = "mega/" + Name + ".aaxe";
    for (size_t I = 0; I < MP.Objects.size(); ++I) {
      {
        Span Sp("objfile.serialize");
        Target.Original.push_back(MP.Objects[I].serialize());
      }
      Target.Paths.push_back("mega/m" + std::to_string(I) + ".aaxo");
      Span Sp("bench.write");
      Ctx.expectOk(writeFile(Target.Paths.back(), Target.Original.back()),
                   Name + ": write module");
    }
    double T2 = nowSec();
    {
      Span Sp("linker.link");
      StdImage = Ctx.take(lnk::link(MP.Objects), Name + ": standard link");
    }
    double T3 = nowSec();
    sim::SimResult R = simulate(Ctx, StdImage, SimMode::Functional, SetupSims,
                                Name + " standard image");
    {
      Span Sp("om.canonical_hash");
      Ref = {R.ExitCode, R.Output,
             om::canonicalMemoryHash(StdImage, R.FinalData)};
    }
    T.Generate = T1 - T0;
    T.Link = T3 - T2;
    T.Total = nowSec() - T0;
    Setups.push_back(T);
  }
  if (Ctx.planted("census"))
    ++Census.TotalInstructions;
  if (Ctx.planted("ref-hash"))
    Ref.MemoryHash ^= 1;

  // --- Measured rounds. ------------------------------------------------
  std::vector<RoundTimes> Rounds;
  std::vector<double> RunSamples;
  StreamStats Stream;
  WarmState Warm;
  om::OmStats FirstStats;
  prof::Profile Profile;
  sim::SimResult Timing;
  uint64_t RoundInstructions = 0, TextBytes = 0;
  double Start = nowSec();
  for (int Round = 1;; ++Round) {
    tracer().Pass = Round;
    Span RoundSpan("bench.pass");
    RoundTimes RT;
    {
      // Scoped so the cold link's memory is freed before omlinkd runs.
      ColdLink L = coldLink(Ctx, Target.Original, Opts, Name);
      RT.LinkSec = L.Seconds;
      RT.DeserSec = L.DeserializeSec;
      RT.SerSec = L.SerializeSec;
      RT.Om.addTimes(L.Om.Stats, L.OptimizeSec);
      const om::OmStats &St = L.Om.Stats;
      {
        Span Sp("bench.check");
        Ctx.check(St.InstructionsTotal == Census.TotalInstructions,
                  Name + ": InstructionsTotal differs from the megagen census");
        Ctx.check(St.CallsTotal == Census.CrossModuleCalls +
                                       Census.IntraModuleCalls +
                                       Census.LeafBsrCalls,
                  Name + ": CallsTotal differs from the megagen census");
        Ctx.check(St.GpGroups != 1 || St.CallsNeedingGpReset == 0,
                  Name + ": GP resets remain in a single-GP-group link");
        if (Round == 1)
          Target.ColdImage = L.ImageBytes;
        else
          Ctx.check(L.ImageBytes == Target.ColdImage,
                    Name + ": cold link is not deterministic");
      }
      if (Round == 1) {
        FirstStats = St;
        TextBytes = L.Om.Image.Text.size();
      }

      for (unsigned Rep = 0; Rep < SimReps; ++Rep) {
        double T0 = nowSec();
        obj::Image Img = loadImage(Ctx, L.ImageBytes, Name);
        sim::SimResult RF =
            simulate(Ctx, Img, SimMode::Functional, RT.Sims, Name);
        RunSamples.push_back(nowSec() - T0);
        checkAgainst(Ctx, Ref, Img, RF, Name + " functional run");
        sim::SimResult RTm = simulate(Ctx, Img, SimMode::Timing, RT.Sims, Name);
        checkAgainst(Ctx, Ref, Img, RTm, Name + " timing run");
        sim::SimResult RP = simulate(Ctx, Img, SimMode::Profile, RT.Sims, Name);
        checkAgainst(Ctx, Ref, Img, RP, Name + " profiled run");
        if (Round != 1)
          continue;
        RoundInstructions +=
            RF.Instructions + RTm.Instructions + RP.Instructions;
        if (Rep == 0) {
          Timing = RTm;
          Profile = std::move(RP.Profile);
        }
      }
    }

    {
      DaemonSession D(Ctx, "omlinkd.sock");
      runEditStream(Ctx, D.relinker(Target, Opts), Target, Edits,
                    mixSeed(S.Seed, Round), Stream, &Warm);
    }
    Rounds.push_back(RT);
    double Elapsed = nowSec() - Start;
    if (Elapsed + Elapsed / Round > S.Seconds)
      break;
  }

  // --- Checks and the remaining cycle counts. --------------------------
  tracer().Pass = -1;
  SimTotals CheckSims;
  uint64_t CyclesLayout = 0, CyclesSimple = 0, CyclesBase = 0;
  OmCounters Counts;
  Counts.addCounts(FirstStats);
  {
    Span Sp("bench.checks");
    checkWarmAgainstScratch(Ctx, Warm, Opts, Name);
    if (!ChainAnalysis) {
      // A -j1 analysis link of chain-analysis takes ~11 s, more than a
      // run can spend on one check; -j1 identity is checked here and on
      // spec-paper.
      om::OmOptions J1 = Opts;
      J1.Jobs = 1;
      ColdLink A = coldLink(Ctx, Target.Original, J1, Name + " -j1");
      if (Ctx.planted("jobs-byte"))
        A.ImageBytes[A.ImageBytes.size() / 2] ^= 4;
      Ctx.check(A.ImageBytes == Target.ColdImage,
                Name + ": -j1 and -jN images are not byte-identical");
    }

    sim::SimResult RB =
        simulate(Ctx, StdImage, SimMode::Timing, CheckSims, Name + " std");
    checkAgainst(Ctx, Ref, StdImage, RB, Name + " standard timing run");
    CyclesBase = RB.Cycles;

    om::OmOptions Simple = Opts;
    Simple.Level = om::OmLevel::Simple;
    Simple.Reschedule = Simple.AlignLoopTargets = Simple.Analysis = false;
    ColdLink LS = coldLink(Ctx, Target.Original, Simple, Name + " simple");
    sim::SimResult RS = simulate(Ctx, LS.Om.Image, SimMode::Timing, CheckSims,
                                 Name + " simple");
    checkAgainst(Ctx, Ref, LS.Om.Image, RS, Name + " OM-simple timing run");
    CyclesSimple = RS.Cycles;

    om::OmOptions Layout = Opts;
    Layout.HotColdLayout = true;
    Layout.Profile = std::move(Profile);
    ColdLink LL = coldLink(Ctx, Target.Original, Layout, Name + " layout");
    sim::SimResult RL = simulate(Ctx, LL.Om.Image, SimMode::Timing, CheckSims,
                                 Name + " layout");
    checkAgainst(Ctx, Ref, LL.Om.Image, RL, Name + " hot-cold layout run");
    CyclesLayout = RL.Cycles;
    Counts.LayoutBlocksMoved = LL.Om.Stats.LayoutBlocksMoved;
    Counts.LayoutColdBlocks = LL.Om.Stats.LayoutColdBlocks;
  }

  // --- Metrics. --------------------------------------------------------
  auto RoundMedian = [&](auto Field) {
    std::vector<double> V;
    for (const RoundTimes &R : Rounds)
      V.push_back(Field(R));
    return median(V);
  };
  auto SetupMedian = [&](auto Field) {
    std::vector<double> V;
    for (const SetupTimes &T : Setups)
      V.push_back(Field(T));
    return median(V);
  };

  Ctx.e2e("setup_s", SetupMedian([](const SetupTimes &T) { return T.Total; }),
          Sec);
  Ctx.e2e("link_s", RoundMedian([](const RoundTimes &R) { return R.LinkSec; }),
          Sec);
  Ctx.e2e("first_relink_s", median(Stream.FirstRelinkSec), Sec);
  Ctx.e2e("relink_ms", median(Stream.WarmMs), Ms);
  Ctx.e2e("run_ms", median(RunSamples) * 1e3, Ms);
  Ctx.e2e("text_bytes", static_cast<double>(TextBytes), "bytes");
  Ctx.e2e("cycles", static_cast<double>(Timing.Cycles), "cycles");
  Ctx.e2e("cycles_layout", static_cast<double>(CyclesLayout), "cycles");
  // A rate over all the rounds' runs: the host's speed drifts over
  // seconds, and the whole-run rate averages that drift out.
  SimTotals Sims;
  for (const RoundTimes &R : Rounds)
    Sims.add(R.Sims);
  for (SimMode M : {SimMode::Timing, SimMode::Profile, SimMode::Functional})
    Ctx.e2e(std::string(modeName(M)) + "_mips", Sims.mips(M), "MIPS");
  Ctx.e2e("peak_rss_mb", peakRssMb(), "MB");

  Ctx.layer("lang.parse_s", 0, Sec);
  Ctx.layer("lang.interpret_s", 0, Sec);
  Ctx.layer("codegen.compile_s", 0, Sec);
  Ctx.layer("megagen.generate_s",
            SetupMedian([](const SetupTimes &T) { return T.Generate; }), Sec);
  Ctx.layer("linker.link_s",
            SetupMedian([](const SetupTimes &T) { return T.Link; }), Sec);
  std::vector<OmCounters> Times;
  for (const RoundTimes &R : Rounds)
    Times.push_back(R.Om);
  OmCounters Om = withMedianTimes(Counts, Times);
  reportOmLayers(
      Ctx, Om,
      RoundMedian([](const RoundTimes &R) { return R.DeserSec; }) * 1e3,
      RoundMedian([](const RoundTimes &R) { return R.SerSec; }) * 1e3);
  reportStreamLayers(Ctx, Stream);
  for (SimMode M : {SimMode::Timing, SimMode::Profile, SimMode::Functional})
    Ctx.layer(std::string("sim.") + modeName(M) + "_s",
              RoundMedian(
                  [M](const RoundTimes &R) { return R.Sims.seconds(M); }),
              Sec);
  Ctx.layer("sim.instructions", static_cast<double>(RoundInstructions), Count);
  Ctx.layer("sim.icache_misses", static_cast<double>(Timing.ICacheMisses),
            Count);
  Ctx.layer("sim.dcache_misses", static_cast<double>(Timing.DCacheMisses),
            Count);
  Ctx.layer("sim.dual_issue_pairs", static_cast<double>(Timing.DualIssuePairs),
            Count);
  Ctx.layer("sim.cycles_baseline", static_cast<double>(CyclesBase), "cycles");
  Ctx.layer("sim.cycles_simple", static_cast<double>(CyclesSimple), "cycles");
  Ctx.layer("bench.passes", static_cast<double>(Rounds.size()), Count);
}
