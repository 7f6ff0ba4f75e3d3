#include "rewriting/rewriter.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "hom/query_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rewriting/ucq.h"
#include "tgd/substitution.h"

namespace frontiers {

size_t RewritingResult::MaxDisjunctSize() const {
  size_t max = 0;
  for (const ConjunctiveQuery& q : queries) max = std::max(max, q.size());
  return max;
}

namespace {

// Small union-find over TermIds.
class UnionFind {
 public:
  TermId Find(TermId t) {
    auto it = parent_.find(t);
    if (it == parent_.end()) {
      parent_.emplace(t, t);
      return t;
    }
    TermId root = t;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[t] != root) {
      TermId next = parent_[t];
      parent_[t] = root;
      t = next;
    }
    return root;
  }
  void Unite(TermId a, TermId b) {
    TermId ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }
  // All equivalence classes with at least one member.
  std::unordered_map<TermId, std::vector<TermId>> Classes() {
    std::unordered_map<TermId, std::vector<TermId>> classes;
    for (const auto& [t, _] : parent_) classes[Find(t)].push_back(t);
    return classes;
  }

 private:
  std::unordered_map<TermId, TermId> parent_;
};

}  // namespace

Rewriter::Rewriter(Vocabulary& vocab, const Theory& theory)
    : vocab_(vocab), theory_(theory) {
  std::unordered_set<PredicateId> preds;
  for (const Tgd& rule : theory_.rules) {
    if (rule.head.size() > 1) has_multi_head_ = true;
    for (const Atom& atom : rule.body) preds.insert(atom.predicate);
    for (const Atom& atom : rule.head) preds.insert(atom.predicate);
  }
  signature_.assign(preds.begin(), preds.end());
  std::sort(signature_.begin(), signature_.end());
}

RewritingResult Rewriter::Rewrite(const ConjunctiveQuery& query,
                                  const RewritingOptions& options) const {
  obs::Span span("rewriting.rewrite", "rewriting");
  RewritingResult result;
  if (has_multi_head_) {
    result.status = RewritingStatus::kUnsupportedRule;
    result.queries.push_back(MinimizeQuery(vocab_, query));
    return result;
  }

  // The live disjuncts, in admission order.  Survivors keep their order
  // and admissions are appended, so the expanded ones are always the first
  // `expanded`.
  Ucq live;
  live.disjuncts.push_back(MinimizeQuery(vocab_, query));
  size_t expanded = 0;
  size_t admitted = 1;

  bool truncated = false;

  // Admits `candidate` into the set unless it is subsumed; retires entries
  // it subsumes.  A spent budget refuses it before anything is retired.
  auto admit = [&](const ConjunctiveQuery& raw) {
    ++result.candidates_generated;
    if (raw.atoms.empty()) {
      if (raw.answer_vars.empty()) result.always_true = true;
      return;
    }
    ConjunctiveQuery candidate = MinimizeQuery(vocab_, raw);
    if (candidate.size() > options.max_atoms_per_query) {
      truncated = true;
      return;
    }
    if (admitted >= options.max_queries) {
      if (!SomeDisjunctContains(vocab_, live, candidate)) truncated = true;
      return;
    }
    if (InsertMinimal(vocab_, std::move(candidate), &live, &expanded)) {
      ++admitted;
    }
  };

  // Expands dangling answer variables (constrained only by active-domain
  // membership after a backward pins-step) into per-(predicate, position)
  // disjuncts, then admits everything.
  std::function<void(const ConjunctiveQuery&)> admit_expanding =
      [&](const ConjunctiveQuery& q) {
        std::unordered_set<TermId> present;
        for (const Atom& atom : q.atoms) {
          for (TermId t : atom.args) present.insert(t);
        }
        TermId dangling = kNoTerm;
        for (TermId v : q.answer_vars) {
          // Answer-tuple constants (from "x = c" unifiers) are fixed values,
          // not dangling variables.
          if (!vocab_.IsVariable(v)) continue;
          if (present.count(v) == 0) {
            dangling = v;
            break;
          }
        }
        if (dangling == kNoTerm) {
          admit(q);
          return;
        }
        for (PredicateId pred : signature_) {
          uint32_t arity = vocab_.PredicateArity(pred);
          for (uint32_t pos = 0; pos < arity; ++pos) {
            ConjunctiveQuery expanded = q;
            Atom atom;
            atom.predicate = pred;
            for (uint32_t i = 0; i < arity; ++i) {
              atom.args.push_back(i == pos ? dangling
                                           : vocab_.FreshVariable("adom"));
            }
            expanded.atoms.push_back(std::move(atom));
            admit_expanding(expanded);  // recurse: more may dangle
          }
        }
      };

  std::unordered_set<TermId> answer_set(query.answer_vars.begin(),
                                        query.answer_vars.end());

  // Generates all one-step backward rewritings of `q` with `rule`.
  auto expand_with_rule = [&](const ConjunctiveQuery& q, const Tgd& rule) {
    const Atom& head = rule.head[0];

    // Candidate piece atoms: q-atoms with the head's predicate.  Checked
    // first, so a rule that cannot apply mints no fresh variables.
    std::vector<size_t> candidates;
    for (size_t i = 0; i < q.atoms.size(); ++i) {
      if (q.atoms[i].predicate == head.predicate) candidates.push_back(i);
    }
    if (candidates.empty()) return;

    // Freshen the rule's variables so they cannot clash with q's.
    Substitution freshen;
    auto fresh = [&](TermId v) {
      auto it = freshen.find(v);
      if (it == freshen.end()) {
        it = freshen.emplace(v, vocab_.FreshVariable("rw")).first;
      }
      return it->second;
    };
    Atom fresh_head = head;
    for (TermId& t : fresh_head.args) {
      if (vocab_.IsVariable(t)) t = fresh(t);
    }
    std::vector<Atom> fresh_body;
    for (const Atom& atom : rule.body) {
      Atom copy = atom;
      for (TermId& t : copy.args) {
        if (vocab_.IsVariable(t)) t = fresh(t);
      }
      fresh_body.push_back(std::move(copy));
    }
    std::unordered_set<TermId> fresh_existentials;
    for (TermId v : rule.existential_vars) {
      fresh_existentials.insert(fresh(v));
    }
    std::unordered_set<TermId> fresh_universals;
    for (TermId v : rule.head_universal_vars) {
      fresh_universals.insert(fresh(v));
    }

    // Enumerate non-empty subsets.  Queries in this codebase are small; a
    // hard cap keeps pathological inputs from exploding (the run is then
    // marked as truncated).
    if (candidates.size() > 12) {
      truncated = true;
      candidates.resize(12);
    }
    const size_t subset_count = static_cast<size_t>(1) << candidates.size();

    for (size_t mask = 1; mask < subset_count; ++mask) {
      std::vector<size_t> piece;
      for (size_t b = 0; b < candidates.size(); ++b) {
        if (mask & (static_cast<size_t>(1) << b)) {
          piece.push_back(candidates[b]);
        }
      }
      std::unordered_set<size_t> piece_set(piece.begin(), piece.end());

      // Terms occurring in q outside the piece.
      std::unordered_set<TermId> outside;
      for (size_t i = 0; i < q.atoms.size(); ++i) {
        if (piece_set.count(i) > 0) continue;
        for (TermId t : q.atoms[i].args) outside.insert(t);
      }

      UnionFind uf;
      for (size_t i : piece) {
        const Atom& atom = q.atoms[i];
        for (size_t pos = 0; pos < atom.args.size(); ++pos) {
          uf.Unite(atom.args[pos], fresh_head.args[pos]);
        }
      }

      // Validate classes and pick representatives.
      bool valid = true;
      Substitution rep;
      for (auto& [root, members] : uf.Classes()) {
        (void)root;
        TermId constant = kNoTerm;
        TermId answer = kNoTerm;
        TermId qvar = kNoTerm;
        TermId universal = kNoTerm;
        int n_constants = 0, n_answers = 0, n_existentials = 0;
        bool has_outside_qvar = false;
        for (TermId t : members) {
          if (!vocab_.IsVariable(t)) {
            if (constant != t) ++n_constants;
            constant = t;
          } else if (fresh_existentials.count(t) > 0) {
            ++n_existentials;
          } else if (fresh_universals.count(t) > 0) {
            // Freshened universal head variable.  (Original rule variables
            // never appear here: fresh_head replaced them all, so classes
            // only ever contain fresh rule variables and q-terms.)
            universal = t;
          } else if (answer_set.count(t) > 0) {
            ++n_answers;
            // Deterministic representative when the unifier merges several
            // answer variables.
            if (answer == kNoTerm || t < answer) answer = t;
          } else {
            qvar = t;
            if (outside.count(t) > 0) has_outside_qvar = true;
          }
        }
        // A freshened universal could also be spotted via fresh_universals;
        // body-only variables never occur in the head so they never join a
        // class here.
        if (n_constants > 1) {
          valid = false;
          break;
        }
        if (n_existentials > 0) {
          // Existential classes must consist of the existential plus
          // query variables local to the piece.
          if (n_existentials > 1 || constant != kNoTerm ||
              answer != kNoTerm || universal != kNoTerm ||
              has_outside_qvar) {
            valid = false;
            break;
          }
          continue;  // members vanish with the piece; no representative
        }
        // Unifiers that equate answer variables with each other ("x = y")
        // or with a constant ("x = c") stay expressible: the representative
        // is substituted into the answer tuple below, yielding a CQ with a
        // repeated answer variable (or an answer constant).  Dropping these
        // unifiers instead loses certain answers while still reporting
        // convergence (found by the torture oracle, seed 12).
        TermId chosen = constant != kNoTerm  ? constant
                        : answer != kNoTerm  ? answer
                        : qvar != kNoTerm    ? qvar
                                             : universal;
        for (TermId t : members) {
          if (t != chosen) rep.emplace(t, chosen);
        }
      }
      if (!valid) continue;

      // Assemble the rewriting: rep(body) + rep(q minus piece).
      ConjunctiveQuery rewritten;
      rewritten.answer_vars.reserve(q.answer_vars.size());
      for (TermId v : q.answer_vars) {
        rewritten.answer_vars.push_back(Apply(rep, v));
      }
      for (const Atom& atom : fresh_body) {
        rewritten.atoms.push_back(Apply(rep, atom));
      }
      for (size_t i = 0; i < q.atoms.size(); ++i) {
        if (piece_set.count(i) == 0) {
          rewritten.atoms.push_back(Apply(rep, q.atoms[i]));
        }
      }
      admit_expanding(rewritten);
    }
  };

  // Saturation loop: expand the first unexpanded live disjunct.
  while (result.iterations < options.max_iterations &&
         expanded < live.size()) {
    ++result.iterations;
    // Copy: admissions during the expansion reshuffle `live`.
    const ConjunctiveQuery current = live.disjuncts[expanded++];
    for (const Tgd& rule : theory_.rules) {
      expand_with_rule(current, rule);
    }
  }

  const bool drained = expanded == live.size();
  result.queries = std::move(live.disjuncts);
  result.status = (drained && !truncated) ? RewritingStatus::kConverged
                                          : RewritingStatus::kBudgetExhausted;

  // Publish run totals under `frontiers.rewriting.*` (DESIGN.md §7).
  obs::Registry& reg = obs::DefaultRegistry();
  reg.GetCounter("frontiers.rewriting.runs").Add();
  reg.GetCounter("frontiers.rewriting.iterations").Add(result.iterations);
  reg.GetCounter("frontiers.rewriting.candidates")
      .Add(result.candidates_generated);
  reg.GetCounter("frontiers.rewriting.disjuncts").Add(result.queries.size());
  if (result.status == RewritingStatus::kBudgetExhausted) {
    reg.GetCounter("frontiers.rewriting.budget_exhausted").Add();
    obs::TraceInstant("rewriting.budget_exhausted", "rewriting");
  }
  return result;
}

RewritingResult Rewriter::RewriteAtomicQuery(PredicateId predicate,
                                             const RewritingOptions& options) {
  ConjunctiveQuery query;
  Atom atom;
  atom.predicate = predicate;
  const uint32_t arity = vocab_.PredicateArity(predicate);
  for (uint32_t i = 0; i < arity; ++i) {
    TermId v = vocab_.FreshVariable("at");
    atom.args.push_back(v);
    query.answer_vars.push_back(v);
  }
  query.atoms.push_back(std::move(atom));
  return Rewrite(query, options);
}

}  // namespace frontiers
