#include "gaifman/dot.h"

#include <vector>

namespace frontiers {

namespace {

std::string Escape(const std::string& label) {
  std::string out;
  for (char c : label) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string ToDot(const Vocabulary& vocab, const FactSet& facts,
                  const DotOptions& options) {
  static const char* kPalette[] = {"blue",   "orange", "purple",
                                   "brown",  "teal",   "magenta"};
  std::unordered_map<PredicateId, std::string> color_of;
  size_t palette_next = 0;
  auto color_for = [&](PredicateId pred) -> const std::string& {
    auto it = color_of.find(pred);
    if (it != color_of.end()) return it->second;
    const std::string& name = vocab.PredicateName(pred);
    auto custom = options.edge_colors.find(name);
    std::string color;
    if (custom != options.edge_colors.end()) {
      color = custom->second;
    } else if (name == "R") {
      color = "red";
    } else if (name == "G") {
      color = "green";
    } else {
      color = kPalette[palette_next++ % (sizeof(kPalette) /
                                         sizeof(kPalette[0]))];
    }
    return color_of.emplace(pred, std::move(color)).first->second;
  };

  std::string out = "digraph \"" + Escape(options.name) + "\" {\n";
  out += "  rankdir=LR;\n  node [fontsize=10];\n";

  std::vector<const Atom*> non_binary;
  for (TermId t : facts.Domain()) {
    out += "  \"" + Escape(vocab.TermToString(t)) + "\"";
    if (options.highlight.count(t) > 0) {
      out += " [shape=box, style=filled, fillcolor=lightyellow]";
    }
    out += ";\n";
  }
  const std::vector<Atom> atoms = facts.ToAtoms();
  for (const Atom& atom : atoms) {
    if (atom.args.size() != 2) {
      non_binary.push_back(&atom);
      continue;
    }
    out += "  \"" + Escape(vocab.TermToString(atom.args[0])) + "\" -> \"" +
           Escape(vocab.TermToString(atom.args[1])) + "\" [color=" +
           color_for(atom.predicate) + ", label=\"" +
           Escape(vocab.PredicateName(atom.predicate)) + "\"];\n";
  }
  if (!non_binary.empty()) {
    out += "  // non-binary atoms:\n";
    for (const Atom* atom : non_binary) {
      out += "  // " + AtomToString(vocab, *atom) + "\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace frontiers
