//===- perfbench/src/Main.cpp - The om64 end-to-end benchmark -------------===//
//
// Part of the om64 project (PLDI 1994 OM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage: perfbench --workload spec-paper|mega-edit|chain-analysis
///                  [--seed N] [--seconds S] [--trace 0|1]
///                  [--megagen-seed N] [--trace-out FILE]
///                  [--plant FAULT]...
///
/// Runs one workload in this process for about S seconds of measured
/// rounds, checks every output against a computation made outside OM, and
/// prints one JSON result line last: the end-to-end metrics, or with
/// --trace 1 the per-layer metrics (and a self-time table and Chrome trace
/// before it). Files are written under the current directory. --plant
/// plants a wrong reference or a changed byte (see README.md's self-test);
/// any planted fault must make the run fail. perfbench/run.py builds this
/// binary and is the command to use.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace om64;
using namespace om64::pb;

[[noreturn]] static void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "spec-paper|mega-edit|chain-analysis [--seed N] [--seconds S] "
               "[--trace 0|1] [--megagen-seed N] [--trace-out FILE] "
               "[--plant FAULT]...\n",
               Why.c_str());
  std::exit(2);
}

static uint64_t number(const char *Flag, const char *Text, uint64_t Max) {
  Result<uint64_t> V = parseUnsigned(Text, Max);
  if (!V)
    usage(std::string(Flag) + ": " + V.message());
  return *V;
}

int main(int argc, char **argv) {
  Settings S;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      usage("missing value after " + Arg);
    const char *V = argv[++I];
    if (Arg == "--workload")
      S.Workload = V;
    else if (Arg == "--seed")
      S.Seed = number("--seed", V, ~0ull);
    else if (Arg == "--seconds")
      S.Seconds = static_cast<double>(number("--seconds", V, 3600));
    else if (Arg == "--trace")
      S.Trace = number("--trace", V, 1) != 0;
    else if (Arg == "--megagen-seed")
      S.MegagenSeed = number("--megagen-seed", V, ~0ull);
    else if (Arg == "--trace-out")
      S.TraceOut = V;
    else if (Arg == "--plant") {
      static const std::set<std::string> Known = {
          "interp-exit", "interp-output", "cold-relink-byte", "warm-byte",
          "jobs-byte",   "census",        "ref-hash"};
      if (!Known.count(V))
        usage(std::string("unknown fault '") + V + "'");
      S.Plant.insert(V);
    }
    else
      usage("unknown argument " + Arg);
  }
  tracer().Enabled = S.Trace;

  RunContext Ctx(S);
  if (S.Workload == "spec-paper")
    runSpecPaper(Ctx);
  else if (S.Workload == "mega-edit")
    runMegaEdit(Ctx, /*ChainAnalysis=*/false);
  else if (S.Workload == "chain-analysis")
    runMegaEdit(Ctx, /*ChainAnalysis=*/true);
  else
    usage("unknown workload '" + S.Workload + "'");
  Ctx.finish();
  return 0;
}
