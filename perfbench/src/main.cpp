//===- main.cpp - seqbench command line -----------------------------------===//
///
/// \file
/// seqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///          [--work-dir <dir>] [--trace-out <file>]
///          [--commit <id>] [--source-digest <hex>]
///
/// Prints reader notes (host record, raw figures) as JSON lines, then the
/// result object as the last line. Exits 1 on any wrong or undecided
/// verdict, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr, "seqbench: %s\n", Message);
  std::fprintf(stderr,
               "usage: seqbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>] [--commit <id>] "
               "[--source-digest <hex>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End != '\0')
        return usage("--seed takes a whole number");
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (*End != '\0' || Opts.Seconds <= 0)
        return usage("--seconds takes a positive number");
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Value;
    } else if (Arg == "--trace-out") {
      Opts.TraceOut = Value;
    } else if (Arg == "--commit") {
      Opts.Commit = Value;
    } else if (Arg == "--source-digest") {
      Opts.SourceDigest = Value;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  if (!makeWorkload(Opts.Workload))
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());

  Report R = runBenchmark(Opts);
  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());
  std::printf("%s\n", resultLine(R).c_str());
  return R.Correct ? 0 : 1;
}
