// An interactive shell over the library: load theories and facts, chase,
// query, rewrite, classify and inspect - the "tool" face of frontiers.
//
//   ./build/examples/repl
//
// Commands:
//   rule <tgd>                    add a rule, e.g.  rule E(x,y) -> exists z . E(y,z)
//   facts <atoms>                 add facts, e.g.   facts E(A,B), E(B,C)
//   load-theory <path>            load rules from a file
//   load-facts <path>             load facts from a file
//   show                          print the theory and the instance
//   classify                      syntactic classes of the theory
//   chase [rounds]                run the chase (default 8 rounds) and print it
//   ask <query>                   certain-answer a query against the chase
//   rewrite <query>               compute and print the UCQ rewriting
//   explain <atom>                derivation tree of a chase atom
//   core                          probe core termination on the instance
//   .stats                        live metrics-registry snapshot
//   .metrics <file>               dump the registry snapshot as JSON
//   clear                         reset everything
//   help / quit
//
// Flags:
//   --trace=<file.json>           record a Chrome trace-event/Perfetto
//                                 trace of the whole session; written at
//                                 quit (load in chrome://tracing or
//                                 https://ui.perfetto.dev, or print its
//                                 span profile with tools/chase_report)

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "base/vocabulary.h"
#include "chase/chase.h"
#include "chase/explain.h"
#include "hom/query_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "props/termination.h"
#include "rewriting/rewriter.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

using namespace frontiers;

namespace {

struct Session {
  Vocabulary vocab;
  Theory theory;
  FactSet facts;
};

void CmdChase(Session* session, uint32_t rounds) {
  ChaseEngine engine(session->vocab, session->theory);
  ChaseOptions options;
  options.max_rounds = rounds;
  options.max_atoms = 200000;
  ChaseResult result = engine.Run(session->facts, options);
  std::printf("Ch_%u has %zu atoms (%s):\n", result.complete_rounds,
              result.facts.size(), ChaseStopName(result.stop));
  std::printf("  %s\n", result.stats.Summary().c_str());
  for (size_t i = 0; i < result.facts.size() && i < 60; ++i) {
    std::printf("  depth %u: %s\n", result.depth[i],
                AtomToString(session->vocab, result.facts.ToAtom(i)).c_str());
  }
  if (result.facts.size() > 60) {
    std::printf("  ... (%zu more)\n", result.facts.size() - 60);
  }
}

void CmdAsk(Session* session, const std::string& text) {
  Result<ConjunctiveQuery> query = ParseQuery(session->vocab, text);
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().message().c_str());
    return;
  }
  ChaseEngine engine(session->vocab, session->theory);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 200000;
  ChaseResult chase = engine.Run(session->facts, options);
  if (query.value().IsBoolean()) {
    std::printf("%s\n", HoldsBoolean(session->vocab, query.value(),
                                     chase.facts)
                            ? "entailed"
                            : "not entailed (within budget)");
    return;
  }
  size_t printed = 0;
  for (const auto& tuple :
       EvaluateQuery(session->vocab, query.value(), chase.facts)) {
    // Certain answers range over the instance's constants only.
    bool certain = true;
    for (TermId t : tuple) {
      if (!session->facts.ContainsTerm(t)) certain = false;
    }
    if (!certain) continue;
    std::string row;
    for (TermId t : tuple) {
      if (!row.empty()) row += ", ";
      row += session->vocab.TermToString(t);
    }
    std::printf("  (%s)\n", row.c_str());
    ++printed;
  }
  if (printed == 0) std::printf("  (no certain answers)\n");
}

void CmdRewrite(Session* session, const std::string& text) {
  Result<ConjunctiveQuery> query = ParseQuery(session->vocab, text);
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().message().c_str());
    return;
  }
  Rewriter rewriter(session->vocab, session->theory);
  RewritingOptions options;
  options.max_iterations = 2000;
  RewritingResult rew = rewriter.Rewrite(query.value(), options);
  switch (rew.status) {
    case RewritingStatus::kConverged:
      std::printf("rewriting converged: %zu disjunct(s)\n",
                  rew.queries.size());
      break;
    case RewritingStatus::kBudgetExhausted:
      std::printf("budget exhausted after %zu disjunct(s) - the pair may "
                  "not be BDD\n",
                  rew.queries.size());
      break;
    case RewritingStatus::kUnsupportedRule:
      std::printf("theory has multi-head rules; rewriting unsupported\n");
      return;
  }
  if (rew.always_true) std::printf("  (always true on nonempty instances)\n");
  for (const ConjunctiveQuery& q : rew.queries) {
    std::printf("  %s\n", QueryToString(session->vocab, q).c_str());
  }
}

void CmdExplain(Session* session, const std::string& text) {
  Result<FactSet> atoms = ParseFacts(session->vocab, text);
  if (!atoms.ok() || atoms.value().size() != 1) {
    std::printf("expected a single ground atom, e.g. explain E(A,B)\n");
    return;
  }
  ChaseEngine engine(session->vocab, session->theory);
  ChaseOptions options;
  options.max_rounds = 10;
  options.max_atoms = 200000;
  options.track_provenance = true;
  ChaseResult chase = engine.Run(session->facts, options);
  std::printf("%s", ExplainAtom(session->vocab, session->theory, chase,
                                atoms.value().ToAtom(0))
                        .c_str());
}

void CmdCore(Session* session) {
  ChaseEngine engine(session->vocab, session->theory);
  ChaseOptions options;
  options.max_rounds = 8;
  options.max_atoms = 100000;
  CoreTerminationReport report =
      TestCoreTermination(session->vocab, engine, session->facts, options);
  if (report.chase_terminated) {
    std::printf("chase terminates at round %u (all-instances on this D)\n",
                report.chase_rounds);
  }
  if (report.core_terminates) {
    std::printf("core-terminates: c_{T,D} = %u, core = %s\n", report.n,
                report.core.ToString(session->vocab).c_str());
  } else {
    std::printf("no core found within %u rounds\n", report.chase_rounds);
  }
}

void Help() {
  std::printf(
      "commands: rule <tgd> | facts <atoms> | load-theory <path> |\n"
      "          load-facts <path> | show | classify | chase [rounds] |\n"
      "          ask <query> | rewrite <query> | explain <atom> | core |\n"
      "          .stats | .metrics <file> | clear | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (supported: --trace=<file>)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!trace_path.empty()) {
    Status started = obs::TraceSession::Start(trace_path);
    if (!started.ok()) {
      std::fprintf(stderr, "trace: %s\n", started.message().c_str());
      return 2;
    }
  }
  auto session_ptr = std::make_unique<Session>();
  std::printf("frontiers repl - 'help' for commands\n");
  std::string line;
  Session* session = session_ptr.get();
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::string rest;
    std::getline(in, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(rest.begin());

    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      Help();
    } else if (command == "rule") {
      Result<Tgd> rule = ParseRule(session->vocab, rest);
      if (rule.ok()) {
        session->theory.rules.push_back(std::move(rule.value()));
        std::printf("ok (%zu rules)\n", session->theory.rules.size());
      } else {
        std::printf("parse error: %s\n", rule.status().message().c_str());
      }
    } else if (command == "facts") {
      Result<FactSet> facts = ParseFacts(session->vocab, rest);
      if (facts.ok()) {
        session->facts.InsertAll(facts.value());
        std::printf("ok (%zu facts)\n", session->facts.size());
      } else {
        std::printf("parse error: %s\n", facts.status().message().c_str());
      }
    } else if (command == "load-theory") {
      Result<Theory> theory = LoadTheoryFile(session->vocab, rest);
      if (theory.ok()) {
        for (Tgd& rule : theory.value().rules) {
          session->theory.rules.push_back(std::move(rule));
        }
        std::printf("ok (%zu rules)\n", session->theory.rules.size());
      } else {
        std::printf("error: %s\n", theory.status().message().c_str());
      }
    } else if (command == "load-facts") {
      Result<FactSet> facts = LoadFactsFile(session->vocab, rest);
      if (facts.ok()) {
        session->facts.InsertAll(facts.value());
        std::printf("ok (%zu facts)\n", session->facts.size());
      } else {
        std::printf("error: %s\n", facts.status().message().c_str());
      }
    } else if (command == "show") {
      std::printf("%s%s\n", TheoryToString(session->vocab,
                                           session->theory)
                                .c_str(),
                  session->facts.ToString(session->vocab).c_str());
    } else if (command == "classify") {
      std::printf("%s\n",
                  DescribeClasses(session->vocab, session->theory).c_str());
    } else if (command == "chase") {
      uint32_t rounds = 8;
      if (!rest.empty()) rounds = static_cast<uint32_t>(std::atoi(rest.c_str()));
      CmdChase(session, rounds);
    } else if (command == "ask") {
      CmdAsk(session, rest);
    } else if (command == "rewrite") {
      CmdRewrite(session, rest);
    } else if (command == "explain") {
      CmdExplain(session, rest);
    } else if (command == "core") {
      CmdCore(session);
    } else if (command == ".stats" || command == "stats") {
      // Live snapshot of the process-wide metrics registry; counters
      // accumulate across commands (and across 'clear', deliberately).
      std::string snapshot = obs::DefaultRegistry().Snapshot().ToString();
      if (snapshot.empty()) {
        std::printf("(no metrics recorded yet - run a chase first)\n");
      } else {
        std::printf("%s", snapshot.c_str());
      }
    } else if (command == ".metrics" || command == "metrics") {
      // Same snapshot as .stats, but machine-readable, to a file.
      if (rest.empty()) {
        std::printf("usage: .metrics <file>\n");
      } else {
        std::FILE* out = std::fopen(rest.c_str(), "w");
        if (out == nullptr) {
          std::printf("cannot open '%s' for writing\n", rest.c_str());
        } else {
          const std::string json = obs::DefaultRegistry().Snapshot().ToJson();
          std::fwrite(json.data(), 1, json.size(), out);
          if (std::fclose(out) == 0) {
            std::printf("metrics written to %s\n", rest.c_str());
          } else {
            std::printf("error writing '%s'\n", rest.c_str());
          }
        }
      }
    } else if (command == "clear") {
      session_ptr = std::make_unique<Session>();
      session = session_ptr.get();
      std::printf("cleared\n");
    } else {
      std::printf("unknown command '%s'; try 'help'\n", command.c_str());
    }
  }
  if (obs::TraceSession::Active()) {
    Status stopped = obs::TraceSession::Stop();
    if (stopped.ok()) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", stopped.message().c_str());
    }
  }
  return 0;
}
