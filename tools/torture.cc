// Torture driver: runs the seeded differential oracle (and optionally the
// byte-level fuzz mutators) from the command line.  This is the binary CI's
// advisory torture job runs and the one a developer uses to replay a
// divergence repro.
//
//   torture --seeds=N [--start=S] [--out=DIR]   differential-check N seeds
//   torture --replay=FILE                        re-run one repro file
//   torture --fuzz=N --corpus=DIR                N mutation rounds per
//                                                corpus file, and of two
//                                                interrupted runs'
//                                                snapshots, through parser,
//                                                snapshot decoder and
//                                                vocabulary replay
//
// Exit code 0 means every seed/replay/fuzz input behaved; 1 means at least
// one divergence (each is minimized and written to --out, default ".").

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "catalog/instances.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "chase/snapshot.h"
#include "testing/differential.h"
#include "testing/fuzz.h"
#include "testing/generator.h"
#include "testing/rng.h"
#include "tgd/parser.h"

namespace frontiers {
namespace {

using testing::TortureCase;
using testing::TortureOptions;
using testing::TortureSeedOutcome;

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const uint64_t value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

int WriteRepro(const std::string& out_dir, uint64_t seed,
               const TortureCase& repro,
               const std::vector<std::string>& divergences) {
  const std::string path =
      out_dir + "/torture-repro-" + std::to_string(seed) + ".txt";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << testing::ReproToString(repro, seed, divergences);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "torture: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "torture: repro written to %s\n", path.c_str());
  return 0;
}

int RunSeeds(uint64_t start, uint64_t count, const std::string& out_dir) {
  const TortureOptions options;
  uint64_t failures = 0;
  for (uint64_t seed = start; seed < start + count; ++seed) {
    const TortureSeedOutcome outcome = testing::RunTortureSeed(seed, options);
    if (outcome.divergences.empty()) continue;
    ++failures;
    std::fprintf(stderr, "torture: seed %" PRIu64 " (%s) diverged:\n", seed,
                 testing::TheoryClassName(outcome.theory_class));
    for (const std::string& divergence : outcome.divergences) {
      std::fprintf(stderr, "  %s\n", divergence.c_str());
    }
    WriteRepro(out_dir, seed, outcome.repro, outcome.divergences);
  }
  std::printf("torture: %" PRIu64 " seeds [%" PRIu64 ", %" PRIu64
              "), %" PRIu64 " divergence(s)\n",
              count, start, start + count, failures);
  return failures == 0 ? 0 : 1;
}

int Replay(const std::string& path) {
  std::string text;
  if (!testing::ReadFileBytes(path, &text)) {
    std::fprintf(stderr, "torture: cannot read %s\n", path.c_str());
    return 1;
  }
  Result<TortureCase> repro = testing::ParseRepro(text);
  if (!repro.ok()) {
    std::fprintf(stderr, "torture: %s: %s\n", path.c_str(),
                 repro.message().c_str());
    return 1;
  }
  const std::vector<std::string> divergences =
      testing::RunDifferentialChecks(repro.value(), TortureOptions());
  if (divergences.empty()) {
    std::printf("torture: replay of %s passed\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "torture: replay of %s diverged:\n", path.c_str());
  for (const std::string& divergence : divergences) {
    std::fprintf(stderr, "  %s\n", divergence.c_str());
  }
  return 1;
}

// True if `facts`, rendered with FactsToText, re-parses into a fresh
// vocabulary and renders to the same text.
bool FactsRoundTrip(const Vocabulary& vocab, const FactSet& facts) {
  const std::string rendered = testing::FactsToText(vocab, facts);
  Vocabulary fresh;
  Result<FactSet> again = ParseFacts(fresh, rendered);
  return again.ok() && testing::FactsToText(fresh, again.value()) == rendered;
}

// The FRSN encoding of a real interrupted run, with provenance, of
// `theory_of`'s theory over `db_of`'s instance, stopped by a round budget.  Built in memory, so the fuzz seeds that reach
// the decoder's body follow every snapshot version without a committed
// binary.
std::string InterruptedRunSnapshot(Theory (*theory_of)(Vocabulary&),
                                   FactSet (*db_of)(Vocabulary&)) {
  Vocabulary vocab;
  const Theory theory = theory_of(vocab);
  const FactSet db = db_of(vocab);
  ChaseOptions options;
  options.max_rounds = 2;
  options.track_provenance = true;
  const ChaseResult result = ChaseEngine(vocab, theory).Run(db, options);
  Result<ChaseSnapshot> snapshot =
      MakeSnapshot(vocab, theory, result, options);
  return snapshot.ok() ? EncodeSnapshot(snapshot.value()) : std::string();
}

// Feeds every corpus file and two interrupted runs' snapshots, plus
// `rounds` seeded mutations of each, to both hostile-input surfaces: the
// DSL parser and the FRSN snapshot decoder, whose every clean decode is
// also replayed into a fresh vocabulary.  The invariant under test is
// "error Status or success, never a crash" — a sanitizer finding or abort
// fails the process, which is the signal — plus, for every fact text that
// parses, a FactsToText rendering that re-parses to itself; a mismatch, or
// a snapshot that does not decode before it is mutated, makes the run
// exit 1.
int Fuzz(uint64_t rounds, const std::string& corpus_dir) {
  const std::vector<std::string> files =
      testing::ListCorpusFiles(corpus_dir);
  if (files.empty()) {
    std::fprintf(stderr, "torture: no corpus files in %s\n",
                 corpus_dir.c_str());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> inputs;  // name, bytes
  for (const std::string& path : files) {
    std::string base;
    if (!testing::ReadFileBytes(path, &base)) {
      std::fprintf(stderr, "torture: cannot read %s\n", path.c_str());
      return 1;
    }
    inputs.emplace_back(path, std::move(base));
  }
  // The Example 39 star, and T_c over a path, whose `start` rule has a
  // two-null Skolem block, so mutations reach the replay's whole-row check.
  const std::pair<const char*, std::string> snapshots[] = {
      {"Ex. 39 interrupted-run snapshot",
       InterruptedRunSnapshot(
           StickyExample39Theory,
           [](Vocabulary& v) { return Star39Instance(v, 3); })},
      {"T_c interrupted-run snapshot",
       InterruptedRunSnapshot(
           TcTheory, [](Vocabulary& v) { return EdgePath(v, "E", 4, "a"); })},
  };
  for (const auto& [name, snapshot] : snapshots) {
    if (!DecodeSnapshot(snapshot).ok()) {
      std::fprintf(stderr, "torture: the %s does not decode\n", name);
      return 1;
    }
    inputs.emplace_back(name, snapshot);
  }
  uint64_t parses = 0, decodes = 0, replays = 0, mismatches = 0;
  for (const auto& [name, base] : inputs) {
    testing::SplitMix64 rng(0x7042u ^ base.size());
    std::string data = base;
    for (uint64_t i = 0; i <= rounds; ++i) {
      {
        Vocabulary vocab;
        if (ParseTheory(vocab, data, "fuzz").ok()) ++parses;
      }
      {
        Vocabulary vocab;
        Result<FactSet> facts = ParseFacts(vocab, data);
        if (facts.ok()) {
          ++parses;
          if (!FactsRoundTrip(vocab, facts.value())) {
            ++mismatches;
            std::fprintf(stderr,
                         "torture: %s round %" PRIu64
                         ": parsed facts do not round-trip through "
                         "FactsToText\n",
                         name.c_str(), i);
          }
        }
      }
      Result<ChaseSnapshot> decoded = DecodeSnapshot(data);
      if (decoded.ok()) {
        ++decodes;
        Vocabulary vocab;
        if (ApplySnapshotVocabulary(decoded.value(), vocab).ok()) ++replays;
      }
      // Alternate between drifting mutations (compounding) and fresh
      // single-step mutations of the original, so both deep and shallow
      // corruption get coverage.
      data = testing::MutateBytes(i % 4 == 3 ? base : data, rng);
    }
  }
  std::printf("torture: fuzzed %zu corpus file(s) and %zu snapshots x %" PRIu64
              " rounds (%" PRIu64 " clean parses, %" PRIu64
              " clean decodes, %" PRIu64 " clean replays, %" PRIu64
              " round-trip mismatches)\n",
              files.size(), std::size(snapshots), rounds, parses, decodes,
              replays, mismatches);
  return mismatches == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: torture --seeds=N [--start=S] [--out=DIR]\n"
               "       torture --replay=FILE\n"
               "       torture --fuzz=N --corpus=DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  uint64_t seeds = 0, start = 0, fuzz_rounds = 0;
  bool have_seeds = false, have_fuzz = false;
  std::string out_dir = ".", replay_path, corpus_dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seeds=", 8) == 0) {
      if (!ParseUint(arg + 8, &seeds)) return Usage();
      have_seeds = true;
    } else if (std::strncmp(arg, "--start=", 8) == 0) {
      if (!ParseUint(arg + 8, &start)) return Usage();
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_dir = arg + 6;
    } else if (std::strncmp(arg, "--replay=", 9) == 0) {
      replay_path = arg + 9;
    } else if (std::strncmp(arg, "--fuzz=", 7) == 0) {
      if (!ParseUint(arg + 7, &fuzz_rounds)) return Usage();
      have_fuzz = true;
    } else if (std::strncmp(arg, "--corpus=", 9) == 0) {
      corpus_dir = arg + 9;
    } else {
      return Usage();
    }
  }
  int rc = -1;
  if (have_seeds) rc = RunSeeds(start, seeds, out_dir);
  if (!replay_path.empty()) {
    const int replay_rc = Replay(replay_path);
    rc = (rc <= 0) ? std::max(replay_rc, std::max(rc, 0)) : rc;
  }
  if (have_fuzz) {
    if (corpus_dir.empty()) return Usage();
    const int fuzz_rc = Fuzz(fuzz_rounds, corpus_dir);
    rc = (rc <= 0) ? std::max(fuzz_rc, std::max(rc, 0)) : rc;
  }
  if (rc < 0) return Usage();
  return rc;
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) { return frontiers::Main(argc, argv); }
