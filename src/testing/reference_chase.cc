#include "testing/reference_chase.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <utility>

namespace frontiers::testing {

namespace {

// A ground term: a constant (a leaf) or a Skolem function symbol applied
// to argument trees.
struct Tree {
  std::string symbol;  // the constant's name or the function's signature
  bool skolem = false;
  std::vector<std::shared_ptr<const Tree>> args;
  size_t nodes = 1;
};
using TreePtr = std::shared_ptr<const Tree>;

// Past this many nodes a Skolem tree is too costly to render; the
// reference stops before the round that would build it.
constexpr size_t kMaxTreeNodes = 4096;

bool Equal(const Tree& a, const Tree& b) {
  if (a.skolem != b.skolem || a.symbol != b.symbol ||
      a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!Equal(*a.args[i], *b.args[i])) return false;
  }
  return true;
}

std::string Render(const Tree& t) {
  if (!t.skolem) return t.symbol;
  std::string out = t.symbol + "(";
  for (size_t i = 0; i < t.args.size(); ++i) {
    if (i > 0) out += ",";
    out += Render(*t.args[i]);
  }
  return out + ")";
}

TreePtr Leaf(std::string name) {
  auto t = std::make_shared<Tree>();
  t->symbol = std::move(name);
  return t;
}

TreePtr Skolem(std::string symbol, std::vector<TreePtr> args) {
  auto t = std::make_shared<Tree>();
  t->symbol = std::move(symbol);
  t->skolem = true;
  for (const TreePtr& arg : args) t->nodes += arg->nodes;
  t->args = std::move(args);
  return t;
}

// A vocabulary term as a tree (database atoms may hold Skolem terms).
TreePtr TreeOf(const Vocabulary& vocab, TermId t) {
  if (!vocab.IsSkolem(t)) return Leaf(vocab.TermName(t));
  std::vector<TreePtr> args;
  for (TermId arg : vocab.SkolemArgs(t)) args.push_back(TreeOf(vocab, arg));
  return Skolem(vocab.SkolemFnSignature(vocab.SkolemFn(t)), std::move(args));
}

struct RefAtom {
  std::string predicate;
  std::vector<TreePtr> args;
};

std::string RenderAtom(const RefAtom& atom) {
  std::string out = atom.predicate + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ",";
    out += Render(*atom.args[i]);
  }
  return out + ")";
}

// A substitution as an association list, searched linearly.
using Assignment = std::vector<std::pair<TermId, TreePtr>>;

const TreePtr* Lookup(const Assignment& sigma, TermId v) {
  for (const auto& [var, tree] : sigma) {
    if (var == v) return &tree;
  }
  return nullptr;
}

// Every homomorphism extending `sigma` that maps body atoms `i..` into
// `stage`, tried against every stage atom in turn.
void Homs(const Vocabulary& vocab, const std::vector<Atom>& body, size_t i,
          const std::vector<RefAtom>& stage, Assignment& sigma,
          const std::function<void(const Assignment&)>& emit) {
  if (i == body.size()) {
    emit(sigma);
    return;
  }
  const Atom& pattern = body[i];
  const std::string& predicate = vocab.PredicateName(pattern.predicate);
  for (const RefAtom& fact : stage) {
    if (fact.predicate != predicate ||
        fact.args.size() != pattern.args.size()) {
      continue;
    }
    const size_t mark = sigma.size();
    bool ok = true;
    for (size_t p = 0; p < pattern.args.size() && ok; ++p) {
      const TermId t = pattern.args[p];
      if (!vocab.IsVariable(t)) {
        ok = Equal(*TreeOf(vocab, t), *fact.args[p]);
      } else if (const TreePtr* bound = Lookup(sigma, t); bound != nullptr) {
        ok = Equal(**bound, *fact.args[p]);
      } else {
        sigma.emplace_back(t, fact.args[p]);
      }
    }
    if (ok) Homs(vocab, body, i + 1, stage, sigma, emit);
    sigma.resize(mark);
  }
}

// Extends `sigma` over `vars[i..]`, each ranging over `domain`.
void DomainTuples(const std::vector<TermId>& vars, size_t i,
                  const std::vector<TreePtr>& domain, Assignment& sigma,
                  const std::function<void(const Assignment&)>& emit) {
  if (i == vars.size()) {
    emit(sigma);
    return;
  }
  for (const TreePtr& t : domain) {
    sigma.emplace_back(vars[i], t);
    DomainTuples(vars, i + 1, domain, sigma, emit);
    sigma.pop_back();
  }
}

// appl(rho, sigma) of Definition 5 under the Skolem naming of Definition 4:
// existential `z` becomes `f_{tau,k}(sigma(u_1), ..., sigma(u_n))`, with
// `tau` the head's isomorphism type, `k` the first-occurrence index of `z`
// in the head and `u_1..u_n` the head-universal variables.
std::vector<RefAtom> Fire(const Vocabulary& vocab, const Tgd& rule,
                          const std::string& head_type,
                          const Assignment& sigma) {
  std::vector<TreePtr> fn_args;
  for (TermId v : rule.head_universal_vars) {
    fn_args.push_back(*Lookup(sigma, v));
  }
  Assignment nulls;
  std::vector<RefAtom> out;
  for (const Atom& head_atom : rule.head) {
    RefAtom atom{vocab.PredicateName(head_atom.predicate), {}};
    for (TermId t : head_atom.args) {
      const bool existential =
          std::find(rule.existential_vars.begin(), rule.existential_vars.end(),
                    t) != rule.existential_vars.end();
      if (!vocab.IsVariable(t)) {
        atom.args.push_back(TreeOf(vocab, t));
      } else if (!existential) {
        atom.args.push_back(*Lookup(sigma, t));
      } else {
        if (Lookup(nulls, t) == nullptr) {
          nulls.emplace_back(
              t, Skolem(head_type + "#e" + std::to_string(nulls.size()),
                        fn_args));
        }
        atom.args.push_back(*Lookup(nulls, t));
      }
    }
    out.push_back(std::move(atom));
  }
  return out;
}

std::string RenderTerm(const Vocabulary& vocab, TermId t) {
  return Render(*TreeOf(vocab, t));
}

}  // namespace

ReferenceStage ReferenceChase(const Vocabulary& vocab, const Theory& theory,
                              const FactSet& db, uint32_t max_rounds,
                              size_t max_atoms) {
  ReferenceStage out;
  std::vector<RefAtom> stage;
  for (const Atom& atom : db.ToAtoms()) {
    RefAtom ref{vocab.PredicateName(atom.predicate), {}};
    for (TermId t : atom.args) ref.args.push_back(TreeOf(vocab, t));
    out.atoms.emplace(RenderAtom(ref), 0);
    stage.push_back(std::move(ref));
  }
  while (out.rounds < max_rounds) {
    // dom(Ch_i): every distinct term of the stage.
    std::vector<TreePtr> domain;
    std::set<std::string> seen;
    for (const RefAtom& atom : stage) {
      for (const TreePtr& t : atom.args) {
        if (seen.insert(Render(*t)).second) domain.push_back(t);
      }
    }
    // Every trigger over Ch_i, fired against Ch_i alone.
    std::map<std::string, RefAtom> fresh;
    bool oversized = false;
    for (const Tgd& rule : theory.rules) {
      const std::string head_type = HeadTypeSignature(vocab, rule);
      auto fire = [&](const Assignment& body_match) {
        Assignment sigma = body_match;
        DomainTuples(rule.domain_vars, 0, domain, sigma,
                     [&](const Assignment& full) {
                       for (RefAtom& atom :
                            Fire(vocab, rule, head_type, full)) {
                         for (const TreePtr& t : atom.args) {
                           oversized |= t->nodes > kMaxTreeNodes;
                         }
                         std::string key = RenderAtom(atom);
                         if (out.atoms.count(key) == 0) {
                           fresh.emplace(std::move(key), std::move(atom));
                         }
                       }
                     });
      };
      Assignment sigma;
      Homs(vocab, rule.body, 0, stage, sigma, fire);
    }
    if (fresh.empty()) {
      out.rounds = max_rounds;  // a fixpoint is Ch_i for every later i
      break;
    }
    if (oversized || stage.size() + fresh.size() > max_atoms) break;
    ++out.rounds;
    for (auto& [key, atom] : fresh) {
      out.atoms.emplace(key, out.rounds);
      stage.push_back(std::move(atom));
    }
  }
  return out;
}

std::map<std::string, uint32_t> RenderEngineStage(const Vocabulary& vocab,
                                                  const ChaseResult& result,
                                                  uint32_t rounds) {
  std::map<std::string, uint32_t> out;
  const std::vector<Atom> atoms = result.facts.ToAtoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (result.depth[i] > rounds) continue;
    std::string text = vocab.PredicateName(atoms[i].predicate) + "(";
    for (size_t p = 0; p < atoms[i].args.size(); ++p) {
      if (p > 0) text += ",";
      text += RenderTerm(vocab, atoms[i].args[p]);
    }
    out.emplace(text + ")", result.depth[i]);
  }
  return out;
}

std::vector<std::string> CompareWithReference(const Vocabulary& vocab,
                                              const Theory& theory,
                                              const FactSet& db,
                                              const ChaseResult& result,
                                              size_t max_atoms) {
  const ReferenceStage ref = ReferenceChase(vocab, theory, db,
                                            result.complete_rounds, max_atoms);
  const std::map<std::string, uint32_t> engine =
      RenderEngineStage(vocab, result, ref.rounds);
  std::vector<std::string> out;
  const std::string where = "reference chase, rounds <= " +
                            std::to_string(ref.rounds) + ": ";
  for (const auto& [atom, depth] : ref.atoms) {
    auto it = engine.find(atom);
    if (it == engine.end()) {
      out.push_back(where + "engine lacks " + atom + " (depth " +
                    std::to_string(depth) + ")");
    } else if (it->second != depth) {
      out.push_back(where + atom + " at depth " + std::to_string(it->second) +
                    ", reference " + std::to_string(depth));
    }
    if (out.size() >= 3) return out;
  }
  for (const auto& [atom, depth] : engine) {
    if (ref.atoms.count(atom) > 0) continue;
    out.push_back(where + "engine derives " + atom + " (depth " +
                  std::to_string(depth) + ") the reference does not");
    if (out.size() >= 3) return out;
  }
  return out;
}

}  // namespace frontiers::testing
