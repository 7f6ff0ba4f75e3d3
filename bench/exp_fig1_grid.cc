// Experiment E1 (Figure 1): the chase of T_d over the green path
// G^8(a0, a8) builds the halving grid whose third row certifies
// phi_R^3(a0, a8).
//
// The paper's only figure is a hand-drawn fragment of Ch(T_d, G^8); this
// binary regenerates it: it chases T_d (witness strategy, see
// catalog/strategies.h), prints the grid row by row (each row is a green
// path half the length of the previous one, hanging off the red column
// chain rooted at a0), and checks phi_R^n for n = 1..3.

#include <cstdio>
#include <string>

#include "base/vocabulary.h"
#include "bench/report.h"
#include "catalog/instances.h"
#include "catalog/queries.h"
#include "catalog/strategies.h"
#include "catalog/theories.h"
#include "chase/chase.h"
#include "gaifman/dot.h"
#include "gaifman/gaifman.h"
#include "hom/query_ops.h"

namespace frontiers {
namespace {

void Run() {
  bench::Section("E1 / Figure 1: Ch(T_d, G^8(a0,a8))");

  Vocabulary vocab;
  Theory td = TdTheory(vocab);
  ChaseEngine engine(vocab, td);
  FactSet path = EdgePath(vocab, "G", 8, "a");

  ChaseOptions options;
  options.max_rounds = 20;
  options.max_atoms = 500000;
  options.filter = TdWitnessStrategy(vocab, td);
  ChaseResult chase = engine.Run(path, options);

  PredicateId r = vocab.FindPredicate("R").value();
  PredicateId g = vocab.FindPredicate("G").value();

  // Reconstruct the grid rows: row 0 is the input path; row k+1 consists
  // of the G-atoms whose source lies in row k's column successor.  We
  // recover rows by walking the red column chain from a0: the column
  // vertex of row k is c_k with R(c_{k-1}, c_k), starting at c_0 = a0.
  TermId column = PathConstant(vocab, "a", 0);
  bench::Table table({"row", "column vertex", "green row length",
                      "row vertices reachable from column"});
  for (int row = 0; row <= 4; ++row) {
    // Walk the green path starting at the column vertex.
    uint32_t length = 0;
    TermId cursor = column;
    std::string rendered = vocab.TermToString(cursor);
    for (;;) {
      const auto& outgoing = chase.facts.ByPredicatePositionTerm(g, 0, cursor);
      if (outgoing.empty()) break;
      cursor = chase.facts.ToAtom(outgoing.front()).args[1];
      ++length;
      if (length <= 3) {
        rendered += " -G-> " + vocab.TermToString(cursor);
      } else if (length == 4) {
        rendered += " ...";
      }
    }
    table.AddRow({std::to_string(row), vocab.TermToString(column),
                  std::to_string(length), rendered});
    // Step the column: the red pin successor of the current column vertex.
    const auto& pins = chase.facts.ByPredicatePositionTerm(r, 0, column);
    if (pins.empty()) break;
    column = chase.facts.ToAtom(pins.front()).args[1];
  }
  table.Print();

  bench::Table stats({"metric", "value"});
  stats.AddRow({"chase rounds", std::to_string(chase.complete_rounds)});
  stats.AddRow({"atoms", std::to_string(chase.facts.size())});
  stats.AddRow({"terms", std::to_string(chase.facts.Domain().size())});
  stats.Print();

  bench::Table phi({"n", "phi_R^n(a0,a8) holds", "expected"});
  for (uint32_t n = 1; n <= 4; ++n) {
    ConjunctiveQuery q = PhiRn(vocab, n);
    bool holds = Holds(vocab, q, chase.facts,
                       {PathConstant(vocab, "a", 0),
                        PathConstant(vocab, "a", 8)});
    phi.AddRow({std::to_string(n), bench::YesNo(holds),
                bench::YesNo(n == 3)});
  }
  phi.Print();

  GaifmanGraph graph(chase.facts);
  std::printf("Gaifman distance a0 -> a8: in D = 8, in chase = %u "
              "(the grid shortcut; Theorem 5's non-distancing)\n",
              graph.Distance(PathConstant(vocab, "a", 0),
                             PathConstant(vocab, "a", 8)));

  // Regenerate the figure itself: a Graphviz rendering of the chase
  // fragment, input path highlighted, R red / G green as in the paper.
  DotOptions dot_options;
  dot_options.name = "figure1";
  for (TermId t : path.Domain()) dot_options.highlight.insert(t);
  std::string dot = ToDot(vocab, chase.facts, dot_options);
  const char* dot_path = "figure1.dot";
  if (std::FILE* f = std::fopen(dot_path, "w")) {
    std::fputs(dot.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s (render with: dot -Tpng figure1.dot -o "
                "figure1.png)\n",
                dot_path);
  }
}

}  // namespace
}  // namespace frontiers

int main(int argc, char** argv) {
  return frontiers::bench::Main(argc, argv, frontiers::Run);
}
